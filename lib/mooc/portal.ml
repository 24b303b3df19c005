type tool = {
  tool_name : string;
  description : string;
  max_input_lines : int;
  execute : string -> string;
}

let guard_errors f input =
  match f input with
  | output -> output
  | exception Failure msg -> "error: " ^ msg
  | exception Invalid_argument msg -> "error: " ^ msg

let kbdd =
  {
    tool_name = "kbdd";
    description = "BDD-based Boolean calculator with a scripting language";
    max_input_lines = 2000;
    execute =
      (fun input -> String.concat "\n" (Vc_bdd.Bdd_script.run_script input));
  }

let espresso =
  {
    tool_name = "espresso";
    description = "two-level logic minimizer on PLA files";
    max_input_lines = 5000;
    execute =
      guard_errors (fun input ->
          let pla = Vc_two_level.Pla.parse input in
          if pla.Vc_two_level.Pla.num_inputs > 16 then
            failwith "espresso portal: at most 16 inputs"
          else Vc_two_level.Pla.to_string (Vc_two_level.Espresso.minimize_pla pla));
  }

let split_sis_input input =
  let lines = String.split_on_char '\n' input in
  let rec split blif = function
    | [] -> (List.rev blif, [])
    | line :: rest when String.trim line = "%script" -> (List.rev blif, rest)
    | line :: rest -> split (line :: blif) rest
  in
  let blif, script = split [] lines in
  (String.concat "\n" blif, String.concat "\n" script)

let sis =
  {
    tool_name = "sis";
    description = "multi-level logic optimization scripts on BLIF networks";
    max_input_lines = 5000;
    execute =
      guard_errors (fun input ->
          let blif_text, script_text = split_sis_input input in
          let net = Vc_network.Blif.parse blif_text in
          let script_text =
            if String.trim script_text = "" then
              Vc_multilevel.Script.script_rugged
            else script_text
          in
          let report = Vc_multilevel.Script.run net script_text in
          String.concat "\n"
            (report.Vc_multilevel.Script.log
            @ [ ""; Vc_network.Blif.to_string report.Vc_multilevel.Script.network ]));
  }

let minisat =
  {
    tool_name = "minisat";
    description = "CDCL Boolean satisfiability solver on DIMACS CNF";
    max_input_lines = 50_000;
    execute =
      guard_errors (fun input ->
          let cnf = Vc_sat.Cnf.parse_dimacs input in
          match Vc_sat.Solver.solve cnf with
          | Vc_sat.Solver.Sat model, stats ->
            let lits =
              List.init cnf.Vc_sat.Cnf.num_vars (fun i ->
                  let v = i + 1 in
                  string_of_int (if model.(v) then v else -v))
            in
            Printf.sprintf
              "SATISFIABLE\nv %s 0\nc %d conflicts, %d decisions, %d propagations"
              (String.concat " " lits)
              stats.Vc_sat.Solver.conflicts stats.Vc_sat.Solver.decisions
              stats.Vc_sat.Solver.propagations
          | Vc_sat.Solver.Unsat, stats ->
            Printf.sprintf "UNSATISFIABLE\nc %d conflicts"
              stats.Vc_sat.Solver.conflicts
          | Vc_sat.Solver.Unknown, _ -> "UNKNOWN");
  }

let axb =
  {
    tool_name = "axb";
    description = "linear system solver for quadratic-placement homeworks";
    max_input_lines = 5000;
    execute = Vc_linalg.Axb.run;
  }

let all_tools = [ kbdd; espresso; sis; minisat; axb ]

(* ------------------------------------------------------------------ *)
(* tool-name resolution                                                *)
(* ------------------------------------------------------------------ *)

(* One resolution path shared by vcserve, the bench driver and anything
   else that maps user-typed names to portals: case-insensitive, with
   the paper's colloquial aliases, and a near-miss suggestion in the
   error text so a typo comes back actionable. *)

let aliases = [ ("bdd", "kbdd"); ("sat", "minisat") ]

let canonical_name name =
  let lower = String.lowercase_ascii (String.trim name) in
  match List.assoc_opt lower aliases with Some c -> c | None -> lower

let find_tool name =
  let c = canonical_name name in
  List.find_opt (fun t -> t.tool_name = c) all_tools

let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (prev.(j) + 1) (cur.(j - 1) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggest name =
  let candidates =
    List.map (fun t -> t.tool_name) all_tools @ List.map fst aliases
  in
  let scored =
    List.map (fun c -> (edit_distance name c, c)) candidates |> List.sort compare
  in
  match scored with
  | (d, c) :: _ when d <= 2 && d < String.length name -> Some c
  | _ -> None

let resolve_tool name =
  match find_tool name with
  | Some t -> Ok t
  | None ->
    let base =
      Printf.sprintf "unknown tool %S (available: %s)" name
        (String.concat ", " (List.map (fun t -> t.tool_name) all_tools))
    in
    Error
      (match suggest (canonical_name name) with
      | Some s -> Printf.sprintf "%s; did you mean %s?" base s
      | None -> base)

(* ------------------------------------------------------------------ *)
(* sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* A session's history may be appended from several server workers at
   once, so it carries its own lock (held only around the hashtable
   touch, never around a tool execution). *)
type session = {
  s_mu : Mutex.t;
  s_history : (string, (string * string) list ref) Hashtbl.t;
}

let create_session () : session =
  { s_mu = Mutex.create (); s_history = Hashtbl.create 8 }

(* ------------------------------------------------------------------ *)
(* structured outcomes                                                 *)
(* ------------------------------------------------------------------ *)

type reason =
  | Runaway of string
  | Overloaded of string
  | Rate_limited of string
  | Deadline_exceeded of string

type outcome = Executed of string | Cache_hit of string | Rejected of reason

let reason_message = function
  | Runaway m | Overloaded m | Rate_limited m | Deadline_exceeded m -> m

let reason_label = function
  | Runaway _ -> "runaway"
  | Overloaded _ -> "overloaded"
  | Rate_limited _ -> "rate_limited"
  | Deadline_exceeded _ -> "deadline"

let outcome_output = function
  | Executed out | Cache_hit out -> out
  | Rejected r -> "error: " ^ reason_message r

(* ------------------------------------------------------------------ *)
(* requests                                                            *)
(* ------------------------------------------------------------------ *)

(* The one submission envelope every layer shares: Server.submit takes
   it, Wire's protocol engine builds it from a parsed TOOL line, and
   vcfront forwards it to a backend - replacing the parallel positional
   signatures those layers used to re-declare. *)
type request = {
  req_session : string;
  req_tool : tool;
  req_input : string;
  req_trace : string option;
}

let request ?trace ~session tool input =
  { req_session = session; req_tool = tool; req_input = input; req_trace = trace }

(* ------------------------------------------------------------------ *)
(* content-addressed result cache                                      *)
(* ------------------------------------------------------------------ *)

(* The dominant MOOC workload is many participants uploading the same
   homework input; every tool is a pure function of its input text, so
   (tool, input) -> output is cached globally across sessions.

   The cache is sharded by digest: the MD5 key picks one of N
   independently-locked shards, each a bounded LRU of its slice of the
   aggregate capacity (the per-shard capacities always sum exactly to
   [cache_capacity ()], so the aggregate bound holds by construction).
   Concurrent submissions of different inputs land on different shards
   with probability (N-1)/N and proceed in parallel; a shard mutex is
   held only around table operations, never a tool execution. Eviction
   scans its shard for the stalest entry, O(shard size), which is
   dwarfed by any tool execution. LRU recency is tracked per shard, so
   eviction is exact within a shard and approximates a global LRU
   across shards - with one shard ([set_cache_shards 1]) the old exact
   global-LRU behaviour is recovered.

   Two domains may still both miss on the same key and execute the tool
   twice, but the tool is pure so either result is correct. Hit/miss/
   eviction statistics live in process-wide atomics so the aggregate
   numbers stay exact without any shared lock and survive
   [Telemetry.reset]; the [portal.cache.*] Telemetry counters are kept
   as mirrors for the /metrics exposition.

   The shard count defaults to 16, overridable with the
   VC_CACHE_SHARDS environment variable or [set_cache_shards] (vcserve
   exposes the latter as -cache-shards). [config_mu] guards
   reconfiguration (shard count / capacity changes) only; lookups touch
   nothing but their shard's mutex. *)

module T = Vc_util.Telemetry

type cache_entry = { output : string; mutable last_used : int }

type cache_shard = {
  sh_mu : Mutex.t;
  sh_tbl : (string, cache_entry) Hashtbl.t;
  mutable sh_cap : int;
  mutable sh_tick : int; (* per-shard recency clock *)
}

let config_mu = Mutex.create ()
let capacity = ref 512

let default_shard_count =
  match Option.bind (Sys.getenv_opt "VC_CACHE_SHARDS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> 16

(* distribute [total] over [n] shards so the parts sum exactly to
   [total] - the aggregate capacity bound must be exact, not rounded *)
let shard_caps total n =
  Array.init n (fun i -> (total / n) + if i < total mod n then 1 else 0)

let make_shards n total =
  let caps = shard_caps total n in
  Array.init n (fun i ->
      {
        sh_mu = Mutex.create ();
        sh_tbl = Hashtbl.create 64;
        sh_cap = caps.(i);
        sh_tick = 0;
      })

let shards = ref (make_shards default_shard_count !capacity)

let cache_key tool_name input = Digest.string (tool_name ^ "\x00" ^ input)

(* MD5 bytes are uniform; two of them index up to 65536 shards *)
let shard_of key =
  let a = !shards in
  a.(((Char.code key.[0] lsl 8) lor Char.code key.[1]) mod Array.length a)

let stat_hits = Atomic.make 0
let stat_misses = Atomic.make 0
let stat_evictions = Atomic.make 0
let stat_disk_hits = Atomic.make 0

(* ---- the disk tier under the memory shards --------------------------

   An optional Cache_store (vcserve -cache-dir / VC_CACHE_DIR): every
   executed result is written through to it, an entry evicted from a
   memory shard is spilled to it (if not already there), and a memory
   miss probes it before re-executing the tool. At [set_cache_dir] the
   spilled results are promoted back into the memory shards - the warm
   start that makes a restarted server serve cache hits for work its
   previous incarnation did. The handle lives in an Atomic so the hot
   path never takes a configuration lock; store I/O always happens
   OUTSIDE the shard mutexes (lanes have their own locks). A failing
   store (disk full, yanked volume) is dropped with one warning - the
   portal degrades to memory-only rather than failing submissions. *)

module Store = Vc_util.Cache_store
module J = Vc_util.Journal
module Span = Vc_util.Span

let store : Store.t option Atomic.t = Atomic.make None

let drop_store st exn =
  if Atomic.compare_and_set store (Some st) None then begin
    Printf.eprintf
      "portal: cache dir %s failed (%s); disk tier disabled\n%!"
      (Store.dir st) (Printexc.to_string exn);
    J.emit ~severity:J.Warn ~component:"portal"
      ~attrs:[ ("dir", Store.dir st); ("error", Printexc.to_string exn) ]
      "cache.disk_disabled";
    try Store.close st with _ -> ()
  end

let store_append key output =
  match Atomic.get store with
  | None -> ()
  | Some st -> ( try Store.append st ~key output with e -> drop_store st e)

let store_find key =
  match Atomic.get store with
  | None -> None
  | Some st -> ( try Store.find st key with e -> drop_store st e; None)

let store_mem key =
  match Atomic.get store with
  | None -> false
  | Some st -> ( try Store.mem st key with e -> drop_store st e; false)

(* call with the shard's mutex held; returns the evicted entry so the
   caller can spill it to the disk tier outside the lock *)
let evict_lru sh =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, stalest) when stalest.last_used <= e.last_used -> acc
        | Some _ | None -> Some (k, e))
      sh.sh_tbl None
  in
  match victim with
  | Some (k, e) ->
    Hashtbl.remove sh.sh_tbl k;
    Atomic.incr stat_evictions;
    T.incr "portal.cache.evictions";
    Some (k, e.output)
  | None -> None

let spill victims =
  List.iter
    (fun (k, out) -> if not (store_mem k) then store_append k out)
    victims

let set_cache_capacity n =
  if n < 0 then invalid_arg "Portal.set_cache_capacity: negative capacity";
  Mutex.protect config_mu (fun () ->
      capacity := n;
      let a = !shards in
      let caps = shard_caps n (Array.length a) in
      Array.iteri
        (fun i sh ->
          let victims =
            Mutex.protect sh.sh_mu (fun () ->
                sh.sh_cap <- caps.(i);
                let acc = ref [] in
                while Hashtbl.length sh.sh_tbl > sh.sh_cap do
                  match evict_lru sh with
                  | Some v -> acc := v :: !acc
                  | None -> ()
                done;
                !acc)
          in
          spill victims)
        a)

let set_cache_shards n =
  if n < 1 then invalid_arg "Portal.set_cache_shards: shard count under 1";
  Mutex.protect config_mu (fun () -> shards := make_shards n !capacity)

let cache_shards () = Array.length !shards
let cache_capacity () = Mutex.protect config_mu (fun () -> !capacity)

let cache_shard_sizes () =
  Array.to_list
    (Array.map
       (fun sh -> Mutex.protect sh.sh_mu (fun () -> Hashtbl.length sh.sh_tbl))
       !shards)

let cache_size () = List.fold_left ( + ) 0 (cache_shard_sizes ())

let clear_cache () =
  Array.iter
    (fun sh -> Mutex.protect sh.sh_mu (fun () -> Hashtbl.reset sh.sh_tbl))
    !shards;
  Atomic.set stat_hits 0;
  Atomic.set stat_misses 0;
  Atomic.set stat_evictions 0;
  Atomic.set stat_disk_hits 0

let cache_stats () = (Atomic.get stat_hits, Atomic.get stat_misses)
let cache_evictions () = Atomic.get stat_evictions
let cache_disk_hits () = Atomic.get stat_disk_hits

let cache_find key =
  let sh = shard_of key in
  Mutex.protect sh.sh_mu (fun () ->
      match Hashtbl.find_opt sh.sh_tbl key with
      | Some e ->
        sh.sh_tick <- sh.sh_tick + 1;
        e.last_used <- sh.sh_tick;
        Some e.output
      | None -> None)

(* [spill:false] is the warm-start load path: the entry came from the
   disk tier, so an eviction it forces must not be written back *)
let cache_add ?(spill = true) key output =
  let sh = shard_of key in
  let victim =
    Mutex.protect sh.sh_mu (fun () ->
        if sh.sh_cap > 0 then begin
          sh.sh_tick <- sh.sh_tick + 1;
          let v =
            if
              (not (Hashtbl.mem sh.sh_tbl key))
              && Hashtbl.length sh.sh_tbl >= sh.sh_cap
            then evict_lru sh
            else None
          in
          Hashtbl.replace sh.sh_tbl key { output; last_used = sh.sh_tick };
          v
        end
        else None)
  in
  match victim with
  | Some (k, out) when spill && not (store_mem k) -> store_append k out
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* disk-tier configuration                                             *)
(* ------------------------------------------------------------------ *)

let cache_dir () = Option.map Store.dir (Atomic.get store)

let unset_cache_dir () =
  match Atomic.exchange store None with
  | Some st -> ( try Store.close st with _ -> ())
  | None -> ()

let set_cache_dir dirname =
  match Store.open_store dirname with
  | exception e ->
    (* same degrade contract as the journal: a portal that cannot spill
       must still serve *)
    Printf.eprintf
      "portal: cannot open cache dir %s (%s); continuing without it\n%!"
      dirname (Printexc.to_string e);
    J.emit ~severity:J.Warn ~component:"portal"
      ~attrs:[ ("dir", dirname); ("error", Printexc.to_string e) ]
      "cache.disk_error"
  | st ->
    (match Atomic.exchange store (Some st) with
    | Some old -> ( try Store.close old with _ -> ())
    | None -> ());
    (* warm start: promote the spilled results into the memory shards
       (up to capacity - anything over stays served by the disk probe) *)
    let loaded = ref 0 in
    Store.iter st (fun key output ->
        incr loaded;
        cache_add ~spill:false key output);
    T.set_gauge "portal.cache.disk_entries" (float_of_int (Store.length st));
    J.emit ~component:"portal"
      ~attrs:
        [
          ("dir", dirname);
          ("entries", string_of_int !loaded);
          ("bytes", string_of_int (Store.file_bytes st));
          ("lanes", string_of_int (Store.lanes st));
        ]
      "cache.warm_start"

(* ------------------------------------------------------------------ *)
(* instrumented submission                                             *)
(* ------------------------------------------------------------------ *)

let submit_result session tool input =
  let pre = "portal." ^ tool.tool_name in
  T.incr (pre ^ ".submits");
  let t0 = T.now () in
  let outcome =
    T.time (pre ^ ".latency") (fun () ->
        let lines = List.length (String.split_on_char '\n' input) in
        if lines > tool.max_input_lines then begin
          T.incr (pre ^ ".rejected");
          Rejected
            (Runaway
               (Printf.sprintf "input too large (%d lines; portal limit %d)"
                  lines tool.max_input_lines))
        end
        else begin
          let key = cache_key tool.tool_name input in
          (* the cache probe and the execution are spans: under a server
             worker they close as the request's cache and execute phases,
             and sampler ticks fold them to "worker;cache" and
             "worker;execute;<tool>" *)
          let probed =
            Span.with_ "cache" (fun () ->
                match cache_find key with
                | Some out -> Some out
                | None -> (
                  (* memory miss: probe the disk tier, promoting a hit
                     back into its memory shard *)
                  match store_find key with
                  | Some out ->
                    Atomic.incr stat_disk_hits;
                    T.incr "portal.cache.disk_hits";
                    cache_add ~spill:false key out;
                    Some out
                  | None -> None))
          in
          match probed with
          | Some out ->
            Atomic.incr stat_hits;
            T.incr (pre ^ ".cache_hits");
            T.incr "portal.cache.hits";
            Cache_hit out
          | None ->
            Atomic.incr stat_misses;
            T.incr "portal.cache.misses";
            T.incr (pre ^ ".executions");
            let out =
              Span.with_ "execute" (fun () ->
                  Span.with_ tool.tool_name (fun () -> tool.execute input))
            in
            cache_add key out;
            (* write-through: the result is durable the moment it is
               computed, not only when LRU pressure spills it - this is
               what a killed-and-restarted server warm-starts from *)
            store_append key out;
            Executed out
        end)
  in
  (* one journal event per submission; a runaway rejection is an Error
     and triggers the flight-recorder dump so the operator sees the
     trailing window of activity that led up to it *)
  let latency_s = Float.max 0.0 (T.now () -. t0) in
  let outcome_name, reject_reason =
    match outcome with
    | Executed _ -> ("executed", None)
    | Cache_hit _ -> ("cache_hit", None)
    | Rejected r -> ("rejected", Some (reason_message r))
  in
  J.emit
    ~severity:(match outcome with Rejected _ -> J.Error | _ -> J.Info)
    ~component:"portal"
    ~attrs:
      (Span.trace_attrs ()
      @ [
          ("tool", tool.tool_name);
          ("digest", Digest.to_hex (cache_key tool.tool_name input));
          ("outcome", outcome_name);
          ("latency_s", Printf.sprintf "%.6f" latency_s);
        ]
      @ match reject_reason with
        | Some r -> [ ("reason", r) ]
        | None -> [])
    "submission";
  T.set_gauge "portal.cache.size" (float_of_int (cache_size ()));
  (match reject_reason with
  | Some reason ->
    J.dump_flight_recorder
      ~reason:
        (Printf.sprintf "portal runaway rejection: %s: %s" tool.tool_name
           reason)
      ()
  | None -> ());
  let output = outcome_output outcome in
  Mutex.protect session.s_mu (fun () ->
      let log =
        match Hashtbl.find_opt session.s_history tool.tool_name with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.add session.s_history tool.tool_name l;
          l
      in
      log := (input, output) :: !log);
  outcome

let history session tool =
  Mutex.protect session.s_mu (fun () ->
      match Hashtbl.find_opt session.s_history tool.tool_name with
      | Some l -> List.rev !l
      | None -> [])
