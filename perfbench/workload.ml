(* The three traffic workloads. Each is a pure function of the seed:
   the same seed gives the same requests, byte for byte. The graded and
   churn generators draw from the standard library's [Random.State],
   not from the toolkit's own RNG, so a change to the program under
   test cannot silently change the inputs it is measured on; only
   [deadline_replay] goes through the toolkit's [Trace], because
   replaying that trace as it is is the point of the workload. The
   toolkit's [Trace.default_mix] weights are read by all three. *)

module Trace = Vc_mooc.Trace

type req = {
  seq : int;
  at_s : float;  (* scheduled send time from the run start (open loop) *)
  session : string;
  tool : string;
  input : string;
}

type shape =
  | Open of req array  (* sent on schedule, whatever the replies do *)
  | Closed of (int -> req)  (* request [i] of an unbounded stream *)

type t = {
  name : string;
  workers : int;  (* vcserve -workers *)
  shards : int;  (* 0: clients talk to one vcserve; n: vcfront over n *)
  clients : int;  (* client connections, at most nproc *)
  shape : shape;
  generated : int;  (* requests generated at set-up *)
}

let names = [ "deadline_replay"; "graded_misses"; "sharded_churn" ]

(* ------------------------------------------------------------------ *)
(* deadline_replay: the cohort trace as it is                          *)
(* ------------------------------------------------------------------ *)

(* Base offered load, set from the rate sweep in README.md. On a quiet
   2-vCPU host the spike starts to miss the SLO at 2000 rps base (8000
   rps in the spike), but in the host's noisy spells 1000 rps base
   already missed it and tripled p50_ms. At 500 the trace's 4x
   deadline spike, 2000 rps for the middle fifth of the run, keeps
   headroom in those spells too, so the run repeats. *)
let replay_rate_rps = 500.

let cohort_registered = 1_000_000

let deadline_replay ~seed ~seconds ~rate_rps =
  let params =
    { Vc_mooc.Cohort.paper_params with registered = cohort_registered }
  in
  let spec =
    Trace.of_cohort ~seed ~duration_s:seconds ~rate_rps params
  in
  let items = ref [] in
  Trace.iter spec (fun it ->
      items :=
        {
          seq = it.Trace.it_seq;
          at_s = it.Trace.it_time_s;
          session = it.Trace.it_session;
          tool = it.Trace.it_tool;
          input = it.Trace.it_input;
        }
        :: !items);
  Array.of_list (List.rev !items)

(* ------------------------------------------------------------------ *)
(* graded_misses: distinct project-sized uploads                       *)
(* ------------------------------------------------------------------ *)

let pick_weighted st weights =
  let total = List.fold_left (fun a (_, w) -> a +. w) 0. weights in
  let r = Random.State.float st total in
  let rec go acc = function
    | [ (x, _) ] -> x
    | (x, w) :: rest -> if r < acc +. w then x else go (acc +. w) rest
    | [] -> invalid_arg "pick_weighted"
  in
  go 0. weights

let range st lo hi = lo + Random.State.int st (hi - lo + 1)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Random 3-SAT near the satisfiability threshold (clause ratio 4.2),
   60-80 variables: the size of a week-4 homework instance. *)
let graded_minisat st tag =
  let nv = range st 60 80 in
  let nc = int_of_float (Float.round (4.2 *. float_of_int nv)) in
  let b = Buffer.create 4096 in
  Printf.bprintf b "c %s\np cnf %d %d\n" tag nv nc;
  for _ = 1 to nc do
    let rec three acc =
      if List.length acc = 3 then acc
      else
        let v = 1 + Random.State.int st nv in
        three (if List.mem v acc then acc else v :: acc)
    in
    List.iter
      (fun v -> Printf.bprintf b "%d " (if Random.State.bool st then v else -v))
      (three []);
    Buffer.add_string b "0\n"
  done;
  Buffer.contents b

let cube st width =
  let c =
    String.init width (fun _ ->
        match Random.State.int st 3 with 0 -> '0' | 1 -> '1' | _ -> '-')
  in
  if String.for_all (( = ) '-') c then "1" ^ String.sub c 1 (width - 1) else c

(* A multi-output BLIF network under the rugged script. *)
let graded_sis st tag =
  let ins = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |] in
  let n_out = range st 3 4 in
  let b = Buffer.create 1024 in
  Printf.bprintf b ".model %s\n.inputs %s\n.outputs" tag
    (String.concat " " (Array.to_list ins));
  for o = 1 to n_out do
    Printf.bprintf b " y%d" o
  done;
  Buffer.add_char b '\n';
  for o = 1 to n_out do
    let fanin = range st 4 6 in
    let perm = Array.copy ins in
    shuffle st perm;
    let vars = Array.sub perm 0 fanin in
    Printf.bprintf b ".names %s y%d\n" (String.concat " " (Array.to_list vars)) o;
    for _ = 1 to range st 4 7 do
      Printf.bprintf b "%s 1\n" (cube st fanin)
    done
  done;
  Buffer.add_string b
    ".end\n%script\nsweep\nsimplify\nfx\nresub\nsweep\neliminate 0\nsimplify\nsweep\nprint_stats";
  Buffer.contents b

(* A BDD calculator script over 12 variables. *)
let graded_kbdd st tag =
  let nv = 12 in
  let var () = Printf.sprintf "v%d" (Random.State.int st nv) in
  let lit () = if Random.State.bool st then var () else "!" ^ var () in
  let expr () =
    let terms =
      List.init (range st 3 5) (fun _ ->
          "(" ^ String.concat " & " (List.init (range st 2 4) (fun _ -> lit ())) ^ ")")
    in
    String.concat (if Random.State.bool st then " | " else " ^ ") terms
  in
  String.concat "\n"
    [
      "# " ^ tag;
      "boolean " ^ String.concat " " (List.init nv (Printf.sprintf "v%d"));
      "f = " ^ expr ();
      "g = " ^ expr ();
      "h = " ^ expr ();
      "k = (f & g) | (h ^ f)";
      "exists e k " ^ var () ^ " " ^ var ();
      "size k";
      "satcount k";
      "satcount e";
      "tautology e";
      "equal f g";
    ]

(* A PLA with 8-10 inputs and two outputs. *)
let graded_espresso st tag =
  let ni = range st 8 10 in
  let rows = range st 24 40 in
  let b = Buffer.create 1024 in
  Printf.bprintf b "# %s\n.i %d\n.o 2\n" tag ni;
  for _ = 1 to rows do
    let outs = [| "10"; "01"; "11" |].(Random.State.int st 3) in
    let c =
      String.init ni (fun _ ->
          match Random.State.int st 5 with 0 -> '-' | 1 | 2 -> '0' | _ -> '1')
    in
    Printf.bprintf b "%s %s\n" c outs
  done;
  Buffer.add_string b ".e";
  Buffer.contents b

(* A symmetric, diagonally dominant system (the quadratic-placement
   homework) solved by conjugate gradient. *)
let graded_axb st tag =
  let n = range st 24 40 in
  let a = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.int st 4 = 0 then begin
        let v = -(1 + Random.State.int st 3) in
        a.(i).(j) <- v;
        a.(j).(i) <- v
      end
    done
  done;
  let b = Buffer.create 8192 in
  Printf.bprintf b "# %s\nn %d\nmethod cg\n" tag n;
  Array.iteri
    (fun i row ->
      let off = Array.fold_left (fun s v -> s + abs v) 0 row in
      row.(i) <- off + 1 + Random.State.int st 4;
      Printf.bprintf b "row %s\n"
        (String.concat " " (Array.to_list (Array.map string_of_int row))))
    a;
  Printf.bprintf b "rhs %s"
    (String.concat " " (List.init n (fun _ -> string_of_int (range st 1 9))));
  Buffer.contents b

(* Tools in the default-mix weights, exactly: each block of 20 uploads
   holds every tool in proportion to its weight (6 minisat, 5 sis, ...),
   in a seeded order, so a run's mix does not wander with the seed -
   an espresso job costs about three times the average. *)
let graded_tool seed i =
  let block =
    Array.of_list
      (List.concat_map
         (fun (t, w) -> List.init (int_of_float (Float.round (w *. 20.))) (fun _ -> t))
         Trace.default_mix)
  in
  let n = Array.length block in
  shuffle (Random.State.make [| seed; i / n; 0x6e |]) block;
  block.(i mod n)

let graded_input seed i =
  let st = Random.State.make [| seed; i; 0x6d |] in
  let tool = graded_tool seed i in
  (* the tag makes every upload distinct even if two draws coincide *)
  let tag = Printf.sprintf "g%d_%d" seed i in
  let input =
    match tool with
    | "minisat" -> graded_minisat st tag
    | "sis" -> graded_sis st tag
    | "kbdd" -> graded_kbdd st tag
    | "espresso" -> graded_espresso st tag
    | "axb" -> graded_axb st tag
    | other -> invalid_arg ("graded_input: unknown tool " ^ other)
  in
  (tool, input)

let graded_pool_rps = 800.

let graded_misses ~seed i =
  let tool, input = graded_input seed i in
  { seq = i; at_s = 0.; session = Printf.sprintf "p%04d" (i mod 1000); tool; input }

(* ------------------------------------------------------------------ *)
(* sharded_churn: a skewed working set larger than the caches          *)
(* ------------------------------------------------------------------ *)

(* 4096 distinct keys against 2 shards x 512 memory entries: each shard
   owns ~2048 keys, four times what it can hold in memory, so the tail
   of the Zipf distribution is served from the disk tier or
   re-executed. In the rate sweep in README.md the two-hop path first
   misses the SLO at 2000 rps on a quiet host; 600 rps keeps headroom
   in the host's noisy spells (where 1000 rps spread p50_ms past its
   bound) while the hot keys come back often enough to be evicted and
   probed on disk. *)
let churn_keys = 4096
let churn_rate_rps = 600.
let churn_zipf_s = 0.9

(* Trace-size uploads (the sizes [Trace.input_of] makes: 8-variable
   CNF, 4-input PLA and network, 6-variable BDD script, 2x2 system),
   drawn here so the working set does not depend on the toolkit's RNG.
   The tag makes every key distinct: the small input spaces alone
   (about 6k 2x2 systems) would repeat. *)
let churn_input st tool tag =
  let b = Buffer.create 256 in
  (match tool with
  | "minisat" ->
    Printf.bprintf b "c %s\np cnf 8 20\n" tag;
    for _ = 1 to 20 do
      let rec three acc =
        if List.length acc = 3 then acc
        else
          let v = 1 + Random.State.int st 8 in
          three (if List.mem v acc then acc else v :: acc)
      in
      List.iter (fun v -> Printf.bprintf b "%d " (if Random.State.bool st then v else -v)) (three []);
      Buffer.add_string b "0\n"
    done
  | "sis" ->
    Printf.bprintf b ".model %s\n.inputs a b c d\n.outputs x\n.names a b c d x\n" tag;
    for _ = 1 to 2 do
      Printf.bprintf b "%s 1\n" (cube st 4)
    done;
    Buffer.add_string b ".end\n%script\nsweep\nsimplify\nprint_stats"
  | "kbdd" ->
    let v () = [| "a"; "b"; "c"; "d"; "e"; "f" |].(Random.State.int st 6) in
    Printf.bprintf b "# %s\nboolean a b c d e f\nf = %s" tag (v ());
    for _ = 1 to 4 do
      Printf.bprintf b " %s %s" (if Random.State.bool st then "&" else "|") (v ())
    done;
    Buffer.add_string b "\nsatcount f\nprint f"
  | "espresso" ->
    Printf.bprintf b "# %s\n.i 4\n.o 1\n" tag;
    let minterms = Array.init 16 Fun.id in
    shuffle st minterms;
    for r = 0 to range st 3 6 - 1 do
      let m = minterms.(r) in
      Printf.bprintf b "%s 1\n" (String.init 4 (fun k -> if m land (8 lsr k) <> 0 then '1' else '0'))
    done;
    Buffer.add_string b ".e"
  | "axb" ->
    let d1 = range st 4 8 and d2 = range st 4 8 and off = range st 0 2 in
    Printf.bprintf b "# %s\nn 2\nmethod cg\nrow %d %d\nrow %d %d\nrhs %d %d" tag d1 off off d2
      (range st 1 9) (range st 1 9)
  | other -> invalid_arg ("churn_input: unknown tool " ^ other));
  Buffer.contents b

(* A key is one participant's upload: it always carries the same
   session, so vcfront always routes it to the same shard. *)
let churn_key seed k =
  let st = Random.State.make [| seed; k; 0x5c |] in
  let tool = pick_weighted st Trace.default_mix in
  let session = Printf.sprintf "u%06d" (Random.State.int st 21_000) in
  (session, tool, churn_input st tool (Printf.sprintf "c%d_%d" seed k))

let sharded_churn ~seed ~seconds ~rate_rps =
  let st = Random.State.make [| seed; 0x5d |] in
  let keys = Array.init churn_keys (churn_key seed) in
  shuffle st keys;
  let cdf = Array.make churn_keys 0. in
  let acc = ref 0. in
  for r = 0 to churn_keys - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** churn_zipf_s));
    cdf.(r) <- !acc
  done;
  let rank () =
    let u = Random.State.float st !acc in
    let lo = ref 0 and hi = ref (churn_keys - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let items = ref [] in
  let rec go t seq =
    let t = t -. (log (1. -. Random.State.float st 1.) /. rate_rps) in
    if t < seconds then begin
      let session, tool, input = keys.(rank ()) in
      items := { seq; at_s = t; session; tool; input } :: !items;
      go t (seq + 1)
    end
  in
  go 0. 0;
  Array.of_list (List.rev !items)

(* [rate_rps] overrides an open-loop workload's base offered load (the
   rate sweep in README.md); the closed loop ignores it. *)
let make ?rate_rps name ~seed ~seconds =
  let rate default = Option.value rate_rps ~default in
  match name with
  | "deadline_replay" ->
    let reqs = deadline_replay ~seed ~seconds ~rate_rps:(rate replay_rate_rps) in
    { name; workers = 2; shards = 0; clients = 2; shape = Open reqs; generated = Array.length reqs }
  | "graded_misses" ->
    (* inputs are generated during set-up, for more requests than a run
       is expected to send; a faster program draws the rest on demand *)
    let pool = Array.init (int_of_float (graded_pool_rps *. seconds)) (graded_misses ~seed) in
    let gen i = if i < Array.length pool then pool.(i) else graded_misses ~seed i in
    {
      name;
      workers = 2;
      shards = 0;
      clients = 2;
      shape = Closed gen;
      generated = Array.length pool;
    }
  | "sharded_churn" ->
    let reqs = sharded_churn ~seed ~seconds ~rate_rps:(rate churn_rate_rps) in
    { name; workers = 1; shards = 2; clients = 2; shape = Open reqs; generated = Array.length reqs }
  | other -> invalid_arg ("unknown workload " ^ other)
