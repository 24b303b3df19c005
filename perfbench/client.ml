(* A minimal client for the vcserve line protocol, written here rather
   than taken from [Wire.Client] so the load generator stays the same
   instrument when the program's own client code changes. *)

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* A connected socket to the loopback [port]. *)
let socket port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     (* a server that stops answering fails the read instead of hanging
        the run *)
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let connect port =
  let fd = socket port in
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Acknowledge received data at once instead of after the kernel's
   delayed-ACK wait. Requests are pipelined on a connection, and
   neither vcserve nor vcfront sets TCP_NODELAY, so without this a
   reply written while the previous one is unacknowledged waits (Nagle)
   for this side's next request or delayed-ACK timer: a stall that
   multiplexing many users onto 2 connections creates and that separate
   users' connections would not see (README). Linux clears the mode
   again on its own, so it is re-armed before every reply. *)
external quickack : Unix.file_descr -> unit = "perfbench_quickack"

(* Lines starting with "." are dot-stuffed in both directions. *)
let add_line b l =
  let n = String.length l in
  if n >= 2 && l.[0] = '.' && l.[1] = '.' then Buffer.add_substring b l 1 (n - 1)
  else Buffer.add_string b l

let read_reply t =
  quickack t.fd;
  let status = input_line t.ic in
  let b = Buffer.create 256 in
  let rec body first =
    let l = input_line t.ic in
    if l <> "." then begin
      if not first then Buffer.add_char b '\n';
      add_line b l;
      body false
    end
  in
  body true;
  (status, Buffer.contents b)

(* The bytes of one request on the wire. *)
let request ~session ~tool input =
  let b = Buffer.create (String.length input + 64) in
  Printf.bprintf b "TOOL %s %s\n" tool session;
  List.iter
    (fun l ->
      if String.length l > 0 && l.[0] = '.' then Buffer.add_char b '.';
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    (String.split_on_char '\n' input);
  Buffer.add_string b ".\n";
  Buffer.contents b

(* Send one request without waiting for its reply: replies come back in
   request order on a connection, so a reader can match them up. *)
let write t ~session ~tool input =
  output_string t.oc (request ~session ~tool input);
  flush t.oc

(* The first whole reply in [s] from [lo] to [hi], decoded as
   [read_reply] decodes it, with the offset just past it; [None] while
   its last line has not arrived. *)
let decode s lo hi =
  let rec eol i = if i >= hi then None else if Bytes.get s i = '\n' then Some i else eol (i + 1) in
  match eol lo with
  | None -> None
  | Some e ->
    let status = Bytes.sub_string s lo (e - lo) in
    let b = Buffer.create 256 in
    let rec body from first =
      match eol from with
      | None -> None
      | Some e ->
        let l = Bytes.sub_string s from (e - from) in
        if l = "." then Some ((status, Buffer.contents b), e + 1)
        else begin
          if not first then Buffer.add_char b '\n';
          add_line b l;
          body (e + 1) false
        end
    in
    body (e + 1) true

let submit t ~session ~tool input =
  write t ~session ~tool input;
  read_reply t

(* HELLO 2 then PING: true once the endpoint serves requests. *)
let ping t =
  output_string t.oc "HELLO 2\nPING\n";
  flush t.oc;
  let _ = read_reply t in
  fst (read_reply t) = "OK pong"
