(* The traced run: the per-layer numbers. It replays the workload's
   request stream from the same seed in this process and times the
   calls into each layer's public functions from the outside - no span
   is added inside lib/ or bin/. A layer's self time is the time of the
   call into it minus the time of the layer below on the same request
   (Measure.self_time):

   - kernel      [tool.execute], timed by wrapping the tool record that
                 travels with each request;
   - Portal      [Portal.submit_result] minus that request's execute;
   - Server      [Server.submit] minus its execute minus the Portal
                 self time of the same request in the Portal pass;
   - Wire        [Wire.Client.submit] minus the [Server.submit] it
                 caused, through an in-process listener;
   - vcfront     a request through the real vcfront minus the same
                 request sent straight to its shard.

   sharded_churn's in-process passes replay the part of the stream
   that vcfront routes to the first shard - what that one vcserve
   process sees. *)

open Workload
module Portal = Vc_mooc.Portal
module Server = Vc_mooc.Server
module Wire = Vc_mooc.Wire
module T = Vc_util.Telemetry

let tools = [ "minisat"; "sis"; "kbdd"; "espresso"; "axb" ]

(* Requests per second of run time replayed from a closed-loop
   workload (every one executes a kernel, in every pass). *)
let closed_rps = 100.

(* Requests sent through the wire and front passes, one at a time. *)
let sample = 1000

let mid xs = if Array.length xs = 0 then 0. else Measure.middle xs
let us x = x *. 1e6
let select keep xs = Array.of_list (List.filteri (fun i _ -> keep i) (Array.to_list xs))
let sum xs = Array.fold_left ( +. ) 0. xs

type cls = Hit | Disk_hit | Executed | Rejected of string | Wrong

(* A copy of the named tool whose execute records its own duration
   under the request's sequence number. *)
let timed_tool exec seq name =
  let t = Option.get (Portal.find_tool name) in
  {
    t with
    Portal.execute =
      (fun s ->
        let o, dt = Measure.time (fun () -> t.Portal.execute s) in
        exec.(seq) <- dt;
        o);
  }

let renumber reqs = Array.mapi (fun i r -> { r with seq = i }) reqs

(* ------------------------------------------------------------------ *)
(* Portal (and Cache_store) pass: sequential submit_result             *)
(* ------------------------------------------------------------------ *)

type portal_pass = {
  p_total : float array;
  p_exec : float array;
  p_cls : cls array;
  p_outputs : (string, string) Hashtbl.t;  (* expected output per input *)
  p_hit_ratio : float;
  p_evictions : int;
  p_disk_hits : int;
}

let portal_pass ~cache_dir stream =
  Portal.clear_cache ();
  Option.iter Portal.set_cache_dir cache_dir;
  let n = Array.length stream in
  let total = Array.make n 0. and exec = Array.make n 0. and cls = Array.make n Hit in
  let outputs = Hashtbl.create 1024 and sessions = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      let s =
        match Hashtbl.find_opt sessions r.session with
        | Some s -> s
        | None ->
          let s = Portal.create_session () in
          Hashtbl.add sessions r.session s;
          s
      in
      let tool = timed_tool exec r.seq r.tool in
      let disk0 = Portal.cache_disk_hits () in
      let o, dt = Measure.time (fun () -> Portal.submit_result s tool r.input) in
      total.(r.seq) <- dt;
      Hashtbl.replace outputs (Check.key r.tool r.input) (Portal.outcome_output o);
      cls.(r.seq) <-
        (match o with
        | Portal.Executed _ -> Executed
        | Portal.Cache_hit _ -> if Portal.cache_disk_hits () > disk0 then Disk_hit else Hit
        | Portal.Rejected reason -> Rejected (Portal.reason_label reason)))
    stream;
  let hits, misses = Portal.cache_stats () in
  let p =
    {
      p_total = total;
      p_exec = exec;
      p_cls = cls;
      p_outputs = outputs;
      p_hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses));
      p_evictions = Portal.cache_evictions ();
      p_disk_hits = Portal.cache_disk_hits ();
    }
  in
  if cache_dir <> None then Portal.unset_cache_dir ();
  p

(* ------------------------------------------------------------------ *)
(* Server pass: the stream on the workload's schedule and concurrency  *)
(* (open loop: each connection's reader domain calls Server.submit one *)
(* request after another, as vcserve's domain for that connection does) *)
(* ------------------------------------------------------------------ *)

type server_pass = {
  s_total : float array;  (* Server.submit *)
  s_exec : float array;
  s_cls : cls array;
  s_late : float array;
  s_minor_per_req : float;
  s_live_bytes_per_req : float;
  s_timers_ms : float;
  s_queue_wait_p99 : float;
  s_rejected : (string * int) list;
}

(* [obs] on is vcserve's default: the sampler at its default interval
   and the journal's flight recorder; off stops both. *)
let server_pass ~obs ~cache_dir ~expected w stream =
  T.reset ();
  Vc_util.Timeseries.reset ();
  Vc_util.Profile.reset ();
  Portal.clear_cache ();
  Option.iter Portal.set_cache_dir cache_dir;
  let ring = Vc_util.Journal.ring_capacity () in
  if not obs then Vc_util.Journal.set_ring_capacity 0;
  let server = Server.start ~config:{ Server.default_config with Server.workers = w.workers } () in
  let sampler =
    if obs then
      Some
        (Vc_util.Timeseries.Sampler.start
           ~interval:(Vc_util.Timeseries.default_interval ())
           ~sources:Vc_util.Timeseries.server_sources ())
    else None
  in
  let n = Array.length stream in
  let total = Array.make n 0. and exec = Array.make n 0. and late = Array.make n 0. in
  let cls = Array.make n Wrong in
  let tr =
    {
      Drive.connect = ignore;
      send = (fun () _ -> ());
      receive =
        (fun () r ->
          let tool = timed_tool exec r.seq r.tool in
          let o = Server.submit server (Portal.request ~session:r.session tool r.input) in
          let expected = Hashtbl.find expected (Check.key r.tool r.input) in
          cls.(r.seq) <-
            (match o with
            | Portal.Rejected reason -> Rejected (Portal.reason_label reason)
            | _ when Portal.outcome_output o <> expected -> Wrong
            | Portal.Executed _ -> Executed
            | Portal.Cache_hit _ -> Hit);
          ("", ""));
      close = ignore;
    }
  in
  let record r =
    total.(r.Drive.req.seq) <- r.Drive.finished -. r.Drive.started;
    late.(r.Drive.req.seq) <- Drive.lateness r
  in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words and minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  ignore
    (match w.shape with
    | Open _ -> Drive.open_loop ~clients:w.clients tr stream record
    | Closed _ ->
      Drive.closed_loop ~clients:w.clients tr (fun i -> if i < n then Some stream.(i) else None) record);
  let minor1 = (Gc.quick_stat ()).Gc.minor_collections in
  let (_ : (string * T.timer_summary) list), timers_s = Measure.time T.timers in
  Option.iter Vc_util.Timeseries.Sampler.stop sampler;
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let per_req x = float_of_int x /. float_of_int (max 1 n) in
  let p =
    {
      s_total = total;
      s_exec = exec;
      s_cls = cls;
      s_late = late;
      s_minor_per_req = per_req (minor1 - minor0);
      s_live_bytes_per_req = per_req ((live1 - live0) * (Sys.word_size / 8));
      s_timers_ms = timers_s *. 1e3;
      s_queue_wait_p99 =
        (match T.timer "server.queue_wait" with Some t -> t.T.p99_s | None -> 0.);
      s_rejected =
        List.map
          (fun l -> (l, T.counter ("server.outcome.rejected." ^ l)))
          [ "overloaded"; "rate_limited"; "deadline"; "runaway" ];
    }
  in
  Server.stop server;
  Vc_util.Journal.set_ring_capacity ring;
  if cache_dir <> None then Portal.unset_cache_dir ();
  p

(* ------------------------------------------------------------------ *)
(* Wire pass: Wire.Client.submit around an in-process Server.submit    *)
(* ------------------------------------------------------------------ *)

let wire_self w stream =
  Portal.clear_cache ();
  let server = Server.start ~config:{ Server.default_config with Server.workers = w.workers } () in
  let inner = Atomic.make 0. in
  let listener = Wire.listen ~port:0 () in
  let acceptor =
    Domain.spawn (fun () ->
        Wire.serve listener ~submit:(fun req ->
            let o, dt = Measure.time (fun () -> Server.submit server req) in
            Atomic.set inner dt;
            o))
  in
  let c = Wire.Client.connect ~port:(Wire.port listener) () in
  let m = min sample (Array.length stream) in
  let parent = Array.make m 0. and child = Array.make m 0. in
  for i = 0 to m - 1 do
    let r = stream.(i) in
    let _, dt =
      Measure.time (fun () -> Wire.Client.submit c ~session:r.session ~tool:r.tool r.input)
    in
    parent.(i) <- dt;
    child.(i) <- Atomic.get inner
  done;
  Wire.Client.close c;
  Wire.shutdown listener;
  Domain.join acceptor;
  ignore (Wire.drain_connections listener);
  Server.stop server;
  Option.get (Measure.self_time ~parent ~child)

(* ------------------------------------------------------------------ *)
(* Front pass: the real vcfront against the same request sent direct   *)
(* ------------------------------------------------------------------ *)

(* Returns front self time, the largest shard's share of the stream
   and the part of the stream vcfront routes to the first shard. *)
let front_pass w stream =
  let servers = E2e.start_servers w in
  Fun.protect
    ~finally:(fun () -> List.iter Children.stop servers.E2e.procs)
    (fun () ->
      let shards = List.tl servers.E2e.procs in
      let ring =
        Vc_util.Hashring.make
          (List.map (fun s -> (Printf.sprintf "127.0.0.1:%d" s.Children.port, s)) shards)
      in
      let owner r = snd (Option.get (Vc_util.Hashring.find ring r.session)) in
      let owners = Array.map owner stream in
      let n = Array.length stream in
      let share s =
        float_of_int (Array.fold_left (fun a o -> if o == s then a + 1 else a) 0 owners)
        /. float_of_int n
      in
      let front = Client.connect servers.E2e.entry in
      let direct = List.map (fun s -> (s, Client.connect s.Children.port)) shards in
      let send c r = ignore (Client.submit c ~session:r.session ~tool:r.tool r.input) in
      let m = min sample n in
      Array.iteri (fun i r -> if i < m then send front r) stream;
      let via = Array.make m 0. and straight = Array.make m 0. in
      for i = 0 to m - 1 do
        let r = stream.(i) in
        let f () = via.(i) <- snd (Measure.time (fun () -> send front r)) in
        let d () =
          straight.(i) <- snd (Measure.time (fun () -> send (List.assq owners.(i) direct) r))
        in
        if i mod 2 = 0 then (f (); d ()) else (d (); f ())
      done;
      Client.close front;
      List.iter (fun (_, c) -> Client.close c) direct;
      let first = List.hd shards in
      ( Option.get (Measure.self_time ~parent:via ~child:straight),
        List.fold_left (fun a s -> Float.max a (share s)) 0. shards,
        renumber (select (fun i -> owners.(i) == first) stream) ))

(* ------------------------------------------------------------------ *)

let run ?rate_rps ~seed ~seconds ~slo_ms name =
  (* the stream of one end-to-end round *)
  let seconds = seconds /. float_of_int E2e.rounds in
  let w, gen_s = Measure.time (fun () -> Workload.make ?rate_rps name ~seed ~seconds) in
  let stream =
    match w.shape with
    | Open reqs -> reqs
    | Closed gen -> Array.init (int_of_float (closed_rps *. seconds)) gen
  in
  let n_all = Array.length stream in
  (* an open loop's passes keep the CPUs awake, as its end-to-end run does *)
  let awake f = match w.shape with Open _ -> Measure.with_idle_cpus f | Closed _ -> f () in
  let front_self, max_share, stream, p, on, off, wire =
    awake @@ fun () ->
    let front_self, max_share, stream =
      if w.shards = 0 then (0., 0., stream) else front_pass w stream
    in
    let cache_dir () = if w.shards = 0 then None else Some (Children.fresh_dir "traced-cache") in
    let p = portal_pass ~cache_dir:(cache_dir ()) stream in
    let on = server_pass ~obs:true ~cache_dir:(cache_dir ()) ~expected:p.p_outputs w stream in
    let off = server_pass ~obs:false ~cache_dir:(cache_dir ()) ~expected:p.p_outputs w stream in
    (front_self, max_share, stream, p, on, off, wire_self w stream)
  in
  let n = Array.length stream in
  let idx pred = List.filter pred (List.init n Fun.id) in
  let pick xs is = Array.of_list (List.map (fun i -> xs.(i)) is) in
  let executed = idx (fun i -> p.p_cls.(i) = Executed) in
  let kernel t = mid (pick p.p_exec (List.filter (fun i -> stream.(i).tool = t) executed)) in
  let portal_self i = p.p_total.(i) -. p.p_exec.(i) in
  let hits = idx (fun i -> p.p_cls.(i) = Hit) and disk = idx (fun i -> p.p_cls.(i) = Disk_hit) in
  (* Server self time on requests with the same outcome in both passes *)
  let paired =
    idx (fun i ->
        match (p.p_cls.(i), on.s_cls.(i)) with
        | Executed, Executed -> true
        | (Hit | Disk_hit), Hit -> true
        | _ -> false)
  in
  let server_self =
    match
      Measure.self_time
        ~parent:(pick on.s_total paired)
        ~child:(Array.of_list (List.map (fun i -> portal_self i +. on.s_exec.(i)) paired))
    with
    | Some v -> v
    | None -> 0.
  in
  let memory_misses = List.length disk + List.length executed in
  let late_p99_ms = 1e3 *. E2e.required "lateness p99" (Measure.percentile on.s_late 99.) in
  let m unit_ name v = Measure.metric name unit_ v in
  let metrics =
    List.map (fun t -> m "us" (Printf.sprintf "kernel.%s.exec_us" t) (us (kernel t))) tools
    @ [
        m "ratio" "kernel.server_share" (sum on.s_exec /. sum on.s_total);
        m "us" "portal.hit_us" (us (mid (pick p.p_total hits)));
        m "us" "portal.miss_self_us" (us (mid (Array.of_list (List.map portal_self executed))));
        m "ratio" "portal.hit_ratio" p.p_hit_ratio;
        m "count" "portal.evictions" (float_of_int p.p_evictions);
        m "ratio" "cache_store.disk_hit_ratio"
          (float_of_int p.p_disk_hits /. float_of_int (max 1 memory_misses));
        m "us" "cache_store.disk_hit_us" (us (mid (pick p.p_total disk)));
        m "us" "server.self_us" (us server_self);
        m "us" "server.queue_wait_p99_us" (us on.s_queue_wait_p99);
      ]
    @ List.map (fun (l, c) -> m "count" ("server.rejected." ^ l) (float_of_int c)) on.s_rejected
    @ [
        m "us" "wire.self_us" (us wire);
        m "us" "front.self_us" (us front_self);
        m "ratio" "front.max_shard_share" max_share;
        m "ms" "telemetry.timers_ms" on.s_timers_ms;
        m "ratio" "obs.overhead_ratio" (sum on.s_total /. sum off.s_total);
        m "count" "gc.minor_per_req" on.s_minor_per_req;
        m "B" "gc.live_bytes_per_req" on.s_live_bytes_per_req;
        m "ms" "loadgen.late_p99_ms" late_p99_ms;
        m "us" "trace.gen_us" (us (gen_s /. float_of_int w.generated));
      ]
  in
  let c =
    E2e.count
      (Array.map
         (function
           | Rejected l -> Some (Check.Rejected l)
           | Wrong -> Some (Check.Wrong "Server.submit output differs from the Portal pass")
           | Hit | Disk_hit | Executed -> Some Check.Correct)
         on.s_cls)
  in
  Printf.printf "workload %s  seed %d  traced in-process replay of %d request(s)%s\n" name seed n
    (if w.shards = 0 then "" else Printf.sprintf " (first shard's %d of %d)" n n_all);
  Printf.printf "  server pass: ok %d  rejected %d  wrong outputs %d\n" c.E2e.ok
    (n - c.E2e.ok - c.E2e.wrong) c.E2e.wrong;
  List.iter
    (fun mt -> Printf.printf "  %-28s %14.6f %s\n" mt.Measure.name mt.Measure.value mt.Measure.unit_)
    metrics;
  (* the same validity rule as the end-to-end run *)
  (not (E2e.generator_behind ~slo_ms late_p99_ms), c, metrics)
