(* One per-domain stack of open frames, plus a fixed ring of the most
   recent closed roots. The owning domain is the only writer of its
   cell; the registry of live cells is guarded by [mu] and touched only
   when a domain first uses its stack, when it exits, and by readers.

   [stack] always holds an immutable list, so the profiler may read it
   from another domain without a lock: under the OCaml 5 memory model a
   racy read of a mutable field yields some previously written value,
   never a torn one. Ring slots are read the same way. *)

type t = {
  name : string;
  start_s : float;
  duration_s : float;
  attrs : (string * string) list;
  children : t list;
}

type frame = {
  f_name : string;
  f_start : float;
  f_attrs : (string * string) list;
  mutable f_children : t list; (* newest first *)
}

type cell = {
  mutable stack : frame list; (* innermost first *)
  ring : t array;
  mutable closed : int; (* roots ever pushed; slot = index mod capacity *)
}

let ring_capacity = 128
let blank = { name = ""; start_s = 0.0; duration_s = 0.0; attrs = []; children = [] }
let new_cell () = { stack = []; ring = Array.make ring_capacity blank; closed = 0 }

let push c s =
  c.ring.(c.closed mod ring_capacity) <- s;
  c.closed <- c.closed + 1

(* oldest first *)
let ring_roots c =
  let n = c.closed in
  let k = min n ring_capacity in
  List.init k (fun i -> c.ring.((n - k + i) mod ring_capacity))

let clear c =
  Array.fill c.ring 0 ring_capacity blank;
  c.closed <- 0

let mu = Mutex.create ()
let live : cell list ref = ref []

(* roots closed by domains that have since exited: a server's trace
   outlives its stopped workers, still within one bounded ring *)
let retired = new_cell ()

let key : cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c = new_cell () in
      Mutex.protect mu (fun () -> live := c :: !live);
      Domain.at_exit (fun () ->
          Mutex.protect mu (fun () ->
              live := List.filter (fun x -> x != c) !live;
              List.iter (push retired) (ring_roots c)));
      c)

let register () = ignore (Domain.DLS.get key)

let with_ ?(attrs = []) name f =
  let c = Domain.DLS.get key in
  let saved = c.stack in
  let fr = { f_name = name; f_start = Clock.now (); f_attrs = attrs; f_children = [] } in
  c.stack <- fr :: saved;
  let close attrs =
    c.stack <- saved;
    let s =
      {
        name;
        start_s = fr.f_start;
        duration_s = Float.max 0.0 (Clock.now () -. fr.f_start);
        attrs;
        children = List.rev fr.f_children;
      }
    in
    match saved with
    | parent :: _ -> parent.f_children <- s :: parent.f_children
    | [] -> push c s
  in
  match f () with
  | v ->
    close attrs;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close (attrs @ [ ("error", Printexc.to_string e) ]);
    Printexc.raise_with_backtrace e bt

let child_durations () =
  match (Domain.DLS.get key).stack with
  | fr :: _ -> List.rev_map (fun s -> (s.name, s.duration_s)) fr.f_children
  | [] -> []

let rec root_attrs = function
  | [ fr ] -> fr.f_attrs
  | _ :: outer -> root_attrs outer
  | [] -> []

let trace_attrs () =
  List.filter
    (fun (k, _) -> k = "trace_id" || k = "trace_parent")
    (root_attrs (Domain.DLS.get key).stack)

(* Per ring the order is completion order; across rings the list is
   ordered by start time (stable, so a frozen test clock keeps each
   domain's completion order). *)
let roots () =
  let cells = Mutex.protect mu (fun () -> ring_roots retired :: List.rev_map ring_roots !live) in
  List.stable_sort (fun a b -> compare a.start_s b.start_s) (List.concat cells)

let stacks () =
  Mutex.protect mu (fun () -> !live)
  |> List.map (fun c -> List.rev_map (fun fr -> fr.f_name) c.stack)

let reset () =
  Mutex.protect mu (fun () ->
      clear retired;
      List.iter clear !live);
  (Domain.DLS.get key).stack <- []
