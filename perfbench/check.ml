(* The output checker. Every reply is compared byte for byte with what
   the tool's own [execute] returns on the same input, computed in this
   process outside any timed window. *)

module Portal = Vc_mooc.Portal

let key tool input = tool ^ "\000" ^ input

let execute tool input =
  match Portal.find_tool tool with
  | Some t -> t.Portal.execute input
  | None -> invalid_arg ("Check.execute: unknown tool " ^ tool)

(* Expected outputs of the distinct [(tool, input)] pairs, computed on
   two domains. Tools are pure functions of their input, which is also
   what makes the server's result cache sound. *)
let expected pairs =
  let seen = Hashtbl.create 1024 in
  List.iter (fun (t, i) -> Hashtbl.replace seen (key t i) (t, i)) pairs;
  let todo = Array.of_seq (Hashtbl.to_seq_values seen) in
  let out = Array.make (Array.length todo) "" in
  let next = Atomic.make 0 in
  let work () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length todo then begin
        let t, inp = todo.(i) in
        out.(i) <- execute t inp;
        go ()
      end
    in
    go ()
  in
  let helper = Domain.spawn work in
  work ();
  Domain.join helper;
  let table = Hashtbl.create (Array.length todo) in
  Array.iteri (fun i (t, inp) -> Hashtbl.replace table (key t inp) out.(i)) todo;
  table

type verdict =
  | Correct
  | Rejected of string  (* the wire label: overloaded, rate_limited, ... *)
  | Wrong of string  (* why the reply is not the expected output *)

let classify ~expected (status, body) =
  match String.split_on_char ' ' status with
  | "OK" :: ("executed" | "cache_hit") :: _ ->
    if String.equal body expected then Correct
    else
      Wrong
        (Printf.sprintf "body differs (%d bytes, expected %d)"
           (String.length body) (String.length expected))
  | "ERR" :: label :: _ -> Rejected label
  | _ -> Wrong ("unexpected status " ^ status)
