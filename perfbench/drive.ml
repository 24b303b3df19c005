(* Load generation: an open loop that sends on the workload's schedule
   whatever the replies do, and a closed loop whose clients each wait
   for their reply. Both are generic in the transport, so the traced
   run drives in-process layers with the same code. [record] is called
   from the connection domains, once per request. The end-to-end run's
   open loop is [open_loop_sockets], the same schedule and pairing over
   real sockets from a single thread. *)

open Workload

type 'c transport = {
  connect : unit -> 'c;
  send : 'c -> req -> unit;  (* write a request without waiting *)
  receive : 'c -> req -> string * string;
      (* the reply (status line, body) to [req], the oldest request sent
         on the connection and not yet answered *)
  close : 'c -> unit;
}

type result = {
  req : req;
  sched : float;  (* when it was due; in a closed loop, = sent *)
  sent : float;  (* when the generator started writing it *)
  started : float;  (* when the connection's reader began waiting for its reply *)
  finished : float;
  reply : (string * string) option;  (* None: transport error *)
}

(* Latency as the user sees it: from the scheduled send time, which
   counts the time a request waits behind earlier ones on a stalled
   connection. *)
let latency r = r.finished -. r.sched

(* How late the generator itself sent a request. *)
let lateness r = r.sent -. r.sched

let run_domains n f = List.init n (fun c -> Domain.spawn (fun () -> f c)) |> List.iter Domain.join

(* One open-loop connection. This domain writes each request at its due
   time; a second domain reads the replies, which come back in request
   order. A broken connection fails the rest of its requests. *)
let pipelined tr reqs record =
  let pending = Queue.create () and lock = Mutex.create () and cond = Condition.create () in
  let writing = ref true and broken = Atomic.make false in
  let conn = try Some (tr.connect ()) with _ -> None in
  let live () = if Atomic.get broken then None else conn in
  let reader () =
    let rec loop () =
      let next =
        Mutex.protect lock (fun () ->
            while Queue.is_empty pending && !writing do
              Condition.wait cond lock
            done;
            Queue.peek_opt pending)
      in
      match next with
      | None -> ()
      | Some (r, sched, sent) ->
        let started = Measure.now () in
        let reply =
          match live () with
          | None -> None
          | Some c -> (
            try Some (tr.receive c r)
            with _ ->
              Atomic.set broken true;
              None)
        in
        let finished = Measure.now () in
        Mutex.protect lock (fun () -> ignore (Queue.pop pending));
        record { req = r; sched; sent; started; finished; reply };
        loop ()
    in
    loop ()
  in
  let rd = Domain.spawn reader in
  List.iter
    (fun (r, due) ->
      let wait = due -. Measure.now () in
      if wait > 0. then Unix.sleepf wait;
      let sent = Measure.now () in
      (match live () with
      | Some c -> ( try tr.send c r with _ -> Atomic.set broken true)
      | None -> ());
      Mutex.protect lock (fun () ->
          Queue.push (r, due, sent) pending;
          Condition.signal cond))
    reqs;
  Mutex.protect lock (fun () ->
      writing := false;
      Condition.signal cond);
  Domain.join rd;
  Option.iter tr.close conn

(* Send [reqs] on their schedule over [clients] connections; request
   [i] goes out on connection [i mod clients]. Returns the start time. *)
let open_loop ~clients tr reqs record =
  let t0 = Measure.now () +. 0.01 in
  run_domains clients (fun c ->
      let mine = List.filteri (fun i _ -> i mod clients = c) (Array.to_list reqs) in
      pipelined tr (List.map (fun r -> (r, t0 +. r.at_s)) mine) record);
  t0

(* The same open loop over real connections, run by one thread: the
   load generator then adds no wake-ups between its own threads to the
   latencies it measures, and competes less with the servers for the
   host's few cores. Each connection is non-blocking; one [select]
   sleeps until the next request is due or a reply arrives. Request
   [i] goes out on connection [i mod clients]. A connection that fails,
   or has a request waiting 30 s with no reply, fails the rest of its
   requests. Returns the start time. *)

type conn = {
  mutable fd : Unix.file_descr option;  (* None: broken *)
  mutable out : string;  (* request bytes not yet written, from [out_at] *)
  mutable out_at : int;
  mutable inb : Bytes.t;  (* reply bytes read, not yet decoded, in [lo, hi) *)
  mutable lo : int;
  mutable hi : int;
  waiting : (req * float * float) Queue.t;  (* sent, not yet answered *)
  mutable progress : float;  (* last reply, or the send that ended a quiet spell *)
}

let reply_timeout_s = 30.

let open_loop_sockets ~clients ~connect reqs record =
  let conns =
    Array.init clients (fun _ ->
        let fd =
          match connect () with
          | fd ->
            Unix.set_nonblock fd;
            Some fd
          | exception _ -> None
        in
        { fd; out = ""; out_at = 0; inb = Bytes.create 65536; lo = 0; hi = 0; waiting = Queue.create (); progress = 0. })
  in
  let fail c =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
    c.fd <- None;
    let finished = Measure.now () in
    Queue.iter (fun (r, sched, sent) -> record { req = r; sched; sent; started = sent; finished; reply = None }) c.waiting;
    Queue.clear c.waiting
  in
  let flush c =
    match c.fd with
    | Some fd when c.out_at < String.length c.out -> (
      match Unix.single_write_substring fd c.out c.out_at (String.length c.out - c.out_at) with
      | n -> c.out_at <- c.out_at + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> fail c)
    | _ -> ()
  in
  let rec decode_all c finished =
    match Client.decode c.inb c.lo c.hi with
    | None -> ()
    | Some (reply, next) ->
      c.lo <- next;
      let r, sched, sent = Queue.pop c.waiting in
      record { req = r; sched; sent; started = Float.max sent c.progress; finished; reply = Some reply };
      c.progress <- finished;
      decode_all c finished
  in
  let fill c =
    match c.fd with
    | None -> ()
    | Some fd -> (
      if c.lo > 0 then begin
        Bytes.blit c.inb c.lo c.inb 0 (c.hi - c.lo);
        c.hi <- c.hi - c.lo;
        c.lo <- 0
      end;
      if c.hi = Bytes.length c.inb then c.inb <- Bytes.extend c.inb 0 (Bytes.length c.inb);
      Client.quickack fd;
      match Unix.read fd c.inb c.hi (Bytes.length c.inb - c.hi) with
      | 0 -> fail c
      | n ->
        c.hi <- c.hi + n;
        decode_all c (Measure.now ());
        if Queue.is_empty c.waiting && c.lo < c.hi then fail c (* a reply nobody asked for *)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> fail c)
  in
  let send i r due =
    let c = conns.(i mod clients) in
    let sent = Measure.now () in
    match c.fd with
    | None -> record { req = r; sched = due; sent; started = sent; finished = sent; reply = None }
    | Some _ ->
      let bytes = Client.request ~session:r.session ~tool:r.tool r.input in
      c.out <-
        (if c.out_at = String.length c.out then bytes
         else String.sub c.out c.out_at (String.length c.out - c.out_at) ^ bytes);
      c.out_at <- 0;
      if Queue.is_empty c.waiting then c.progress <- sent;
      Queue.push (r, due, sent) c.waiting;
      flush c
  in
  let t0 = Measure.now () +. 0.01 in
  let n = Array.length reqs and next = ref 0 in
  let due i = t0 +. reqs.(i).at_s in
  let busy () = Array.exists (fun c -> not (Queue.is_empty c.waiting)) conns in
  while !next < n || busy () do
    while !next < n && due !next <= Measure.now () do
      send !next reqs.(!next) (due !next);
      incr next
    done;
    let now = Measure.now () in
    Array.iter
      (fun c ->
        if (not (Queue.is_empty c.waiting)) && now -. c.progress > reply_timeout_s then fail c)
      conns;
    let live f = Array.to_list conns |> List.filter_map (fun c -> if f c then c.fd else None) in
    let rd = live (fun c -> not (Queue.is_empty c.waiting))
    and wr = live (fun c -> c.out_at < String.length c.out) in
    let timeout = if !next < n then Float.max 0. (due !next -. now) else 1. in
    if rd <> [] || wr <> [] || timeout > 0. then begin
      let r, w, _ = try Unix.select rd wr [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []) in
      Array.iter
        (fun c ->
          match c.fd with
          | Some fd ->
            if List.mem fd w then flush c;
            if List.mem fd r then fill c
          | None -> ())
        conns
    end
  done;
  Array.iter (fun c -> Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd) conns;
  t0

(* One closed-loop connection: send, wait for the reply, repeat;
   reconnects after a transport error. *)
let connection tr next record =
  let connect () = try Some (tr.connect ()) with _ -> None in
  let conn = ref (connect ()) in
  let rec loop () =
    match next () with
    | None -> ()
    | Some r ->
      let sent = Measure.now () in
      let reply =
        match !conn with
        | None -> None
        | Some c -> (
          try
            tr.send c r;
            Some (tr.receive c r)
          with _ ->
            tr.close c;
            conn := None;
            None)
      in
      let finished = Measure.now () in
      record { req = r; sched = sent; sent; started = sent; finished; reply };
      if Option.is_none !conn then conn := connect ();
      loop ()
  in
  loop ();
  Option.iter tr.close !conn

(* Each of [clients] connections sends request [next i] as soon as it
   has the reply to its previous one, [i] counting requests in the
   order they are taken, until [next] returns [None]. Returns the start
   time. *)
let closed_loop ~clients tr next record =
  let count = Atomic.make 0 in
  let t0 = Measure.now () in
  run_domains clients (fun _ ->
      connection tr (fun () -> next (Atomic.fetch_and_add count 1)) record);
  t0
