(* Fixed-capacity time series, sharded per domain like Telemetry: each
   domain appends points into its own ring cell (own mutex, uncontended
   in practice - the background sampler is normally the only writer),
   and readers merge every cell's points by timestamp on the way out,
   keeping the newest [capacity] per series. The same merge-on-read
   architecture as the telemetry cells (docs/CONCURRENCY.md), applied
   to the time dimension.

   On top of the store sits [Sampler]: a background domain that, every
   [interval] seconds, snapshots selected telemetry counters / gauges /
   timer percentiles and derives rates from counter deltas (qps, shed
   rate, cache hit-rate, per-worker utilization). Each tick also drives
   the continuous profiler (Profile.tick). The sampler registers the
   [GET /varz] and [GET /profile] routes on Metrics_server, so any
   binary running one serves the live console that vctop polls. *)

type point = { p_ts : float; p_value : float }

let default_capacity = 240

(* ------------------------------------------------------------------ *)
(* per-domain ring cells                                               *)
(* ------------------------------------------------------------------ *)

type ring = {
  r_data : point array; (* capacity-sized circular buffer *)
  mutable r_next : int; (* next write slot *)
  mutable r_len : int;
}

type cell = {
  tc_mu : Mutex.t;
  tc_rings : (string, ring) Hashtbl.t;
}

let mu = Mutex.create ()
let all_cells : cell list ref = ref []

(* per-series capacity, fixed at first definition; guarded by [mu] *)
let capacities : (string, int) Hashtbl.t = Hashtbl.create 16

let cell_key : cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c = { tc_mu = Mutex.create (); tc_rings = Hashtbl.create 16 } in
      Mutex.protect mu (fun () -> all_cells := c :: !all_cells);
      c)

let define ?(capacity = default_capacity) name =
  if capacity < 1 then invalid_arg "Timeseries.define: capacity under 1";
  Mutex.protect mu (fun () ->
      if not (Hashtbl.mem capacities name) then
        Hashtbl.add capacities name capacity)

let capacity_of name =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt capacities name with
      | Some c -> c
      | None ->
        Hashtbl.add capacities name default_capacity;
        default_capacity)

let record ?ts name value =
  let ts = match ts with Some t -> t | None -> Clock.now () in
  let c = Domain.DLS.get cell_key in
  Mutex.protect c.tc_mu (fun () ->
      let ring =
        match Hashtbl.find_opt c.tc_rings name with
        | Some r -> r
        | None ->
          let r =
            {
              r_data =
                Array.make (capacity_of name) { p_ts = 0.0; p_value = 0.0 };
              r_next = 0;
              r_len = 0;
            }
          in
          Hashtbl.add c.tc_rings name r;
          r
      in
      ring.r_data.(ring.r_next) <- { p_ts = ts; p_value = value };
      ring.r_next <- (ring.r_next + 1) mod Array.length ring.r_data;
      ring.r_len <- min (ring.r_len + 1) (Array.length ring.r_data))

let ring_points r =
  (* oldest first within one cell *)
  let cap = Array.length r.r_data in
  List.init r.r_len (fun i -> r.r_data.((r.r_next - r.r_len + i + cap * 2) mod cap))

let snapshot_cells () = Mutex.protect mu (fun () -> !all_cells)

let points name =
  let merged =
    List.fold_left
      (fun acc c ->
        Mutex.protect c.tc_mu (fun () ->
            match Hashtbl.find_opt c.tc_rings name with
            | Some r -> List.rev_append (ring_points r) acc
            | None -> acc))
      [] (snapshot_cells ())
    |> List.stable_sort (fun a b -> compare a.p_ts b.p_ts)
  in
  (* the aggregate bound is the same as any one cell's *)
  let cap = capacity_of name in
  let excess = List.length merged - cap in
  if excess > 0 then List.filteri (fun i _ -> i >= excess) merged else merged

let last name =
  match List.rev (points name) with [] -> None | p :: _ -> Some p

let names () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun c ->
      Mutex.protect c.tc_mu (fun () ->
          Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) c.tc_rings))
    (snapshot_cells ());
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare

let reset () =
  List.iter
    (fun c -> Mutex.protect c.tc_mu (fun () -> Hashtbl.reset c.tc_rings))
    (snapshot_cells ());
  Mutex.protect mu (fun () -> Hashtbl.reset capacities)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let series_json name =
  Json.arr
    (List.map
       (fun p -> Json.arr [ Json.num p.p_ts; Json.num p.p_value ])
       (points name))

let to_json () =
  Json.obj (List.map (fun n -> (n, series_json n)) (names ()))

let varz_json () =
  Json.obj
    [
      ("now", Json.num (Clock.now ()));
      ("telemetry", Telemetry.to_json ());
      ("series", to_json ());
      ( "profile",
        Json.obj
          [
            ("ticks", string_of_int (Profile.ticks ()));
            ("samples", string_of_int (Profile.samples ()));
            ("stacks", string_of_int (List.length (Profile.folded ())));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* sampler                                                             *)
(* ------------------------------------------------------------------ *)

(* -sample-interval / VC_SAMPLE_INTERVAL; <= 0 disables the sampler *)
let default_interval () =
  match Option.bind (Sys.getenv_opt "VC_SAMPLE_INTERVAL") float_of_string_opt with
  | Some s -> s
  | None -> 0.5

type source =
  | Gauge of string  (** series name = gauge name *)
  | Rate of { counters : string list; series : string }
      (** per-second rate of the summed counter deltas since last tick;
          a trailing ["*"] in a counter name is a prefix wildcard *)
  | Ratio of { num : string list; den : string list; series : string }
      (** delta(num)/delta(den) since last tick; skipped while the
          denominator is idle *)
  | Percentiles of string
      (** timer -> [name.p50_ms] and [name.p99_ms] series over the
          samples since last tick; skipped while the timer is idle *)
  | Utilization of { prefix : string; suffix : string }
      (** every timer [prefix*suffix] -> a [<base>.util] series: the
          per-second rate of its accumulated total, i.e. busy fraction *)

let server_sources =
  [
    Gauge "server.queue_depth";
    Gauge "server.queue_depth.hwm";
    Gauge "portal.cache.size";
    Rate { counters = [ "server.submitted" ]; series = "server.qps" };
    Ratio
      {
        num = [ "server.outcome.rejected.*" ];
        den = [ "server.submitted" ];
        series = "server.shed_rate";
      };
    Ratio
      {
        num = [ "portal.cache.hits" ];
        den = [ "portal.cache.hits"; "portal.cache.misses" ];
        series = "portal.cache.hit_rate";
      };
    Percentiles "server.phase.queue";
    Percentiles "server.phase.cache";
    Percentiles "server.phase.execute";
    Percentiles "server.phase.reply";
    Utilization { prefix = "server.worker."; suffix = ".busy" };
  ]

let client_sources =
  [
    Rate
      {
        counters = [ "vcload.executed"; "vcload.cache_hit"; "vcload.rejected" ];
        series = "vcload.qps";
      };
    Ratio
      {
        num = [ "vcload.rejected" ];
        den = [ "vcload.executed"; "vcload.cache_hit"; "vcload.rejected" ];
        series = "vcload.shed_rate";
      };
  ]

type sampler = {
  sp_interval : float;
  sp_sources : source list;
  sp_profile : bool;
  sp_prev : (string, float) Hashtbl.t; (* last counter/total snapshots *)
  sp_hists : (string, Hist.t) Hashtbl.t; (* last timer snapshots *)
  mutable sp_last_ts : float;
  sp_stop : bool Atomic.t;
  mutable sp_domain : unit Domain.t option;
}

let matches pat name =
  let n = String.length pat in
  if n > 0 && pat.[n - 1] = '*' then
    String.starts_with ~prefix:(String.sub pat 0 (n - 1)) name
  else pat = name

let sum_counters counts pats =
  List.fold_left
    (fun acc (name, v) ->
      if List.exists (fun p -> matches p name) pats then acc + v else acc)
    0 counts

(* snapshot keys cannot collide with series names: '#' never appears in
   a metric name *)
let snap_delta t key cur =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.sp_prev key) in
  Hashtbl.replace t.sp_prev key cur;
  cur -. prev

let sample_sources t ~now ~dt =
  let counts = Telemetry.counters () and hists = Telemetry.timer_hists () in
  List.iter
    (fun src ->
      match src with
      | Gauge g -> (
        match Telemetry.gauge g with
        | Some v -> record ~ts:now g v
        | None -> ())
      | Rate { counters; series } ->
        let d = snap_delta t (series ^ "#n") (float_of_int (sum_counters counts counters)) in
        if dt > 0.0 then record ~ts:now series (Float.max 0.0 d /. dt)
      | Ratio { num; den; series } ->
        let dn = snap_delta t (series ^ "#n") (float_of_int (sum_counters counts num)) in
        let dd = snap_delta t (series ^ "#d") (float_of_int (sum_counters counts den)) in
        if dd > 0.0 then record ~ts:now series (Float.max 0.0 dn /. dd)
      | Percentiles name ->
        Option.iter
          (fun cur ->
            (* the window is the difference of two cumulative snapshots -
               the same delta trick as the counter sources; a snapshot
               that shrank means telemetry was reset, so it is a window
               itself *)
            let w =
              match Hashtbl.find_opt t.sp_hists name with
              | Some prev when Hist.count prev <= Hist.count cur ->
                Hist.diff cur prev
              | _ -> cur
            in
            Hashtbl.replace t.sp_hists name cur;
            if Hist.count w > 0 then begin
              record ~ts:now (name ^ ".p50_ms") (1e3 *. Hist.quantile w 50.0);
              record ~ts:now (name ^ ".p99_ms") (1e3 *. Hist.quantile w 99.0)
            end)
          (List.assoc_opt name hists)
      | Utilization { prefix; suffix } ->
        List.iter
          (fun (name, h) ->
            if
              String.starts_with ~prefix name
              && String.ends_with ~suffix name
              && String.length name > String.length prefix + String.length suffix
            then begin
              let d = snap_delta t (name ^ "#u") (Hist.sum h) in
              if dt > 0.0 then
                let base =
                  String.sub name 0 (String.length name - String.length suffix)
                in
                record ~ts:now (base ^ ".util")
                  (Float.min 1.0 (Float.max 0.0 d /. dt))
            end)
          hists)
    t.sp_sources

let tick t =
  let now = Clock.now () in
  let dt = now -. t.sp_last_ts in
  sample_sources t ~now ~dt;
  if t.sp_profile then Profile.tick ~journal:true ();
  t.sp_last_ts <- now

let register_routes () =
  Metrics_server.register_route "/varz" (fun () ->
      {
        Metrics_server.rp_status = "200 OK";
        rp_content_type = "application/json";
        rp_body = varz_json () ^ "\n";
      });
  Metrics_server.register_route "/profile" (fun () ->
      {
        Metrics_server.rp_status = "200 OK";
        rp_content_type = "text/plain";
        rp_body = Profile.to_folded_text (Profile.folded ());
      })

let create ?(profile = true) ?(sources = server_sources) ~interval () =
  let t =
    {
      sp_interval = interval;
      sp_sources = sources;
      sp_profile = profile;
      sp_prev = Hashtbl.create 16;
      sp_hists = Hashtbl.create 8;
      sp_last_ts = Clock.now ();
      sp_stop = Atomic.make false;
      sp_domain = None;
    }
  in
  (* prime the delta snapshots so the first tick measures "since the
     sampler started", not "since the process started" *)
  let counts = Telemetry.counters () and hists = Telemetry.timer_hists () in
  List.iter
    (fun src ->
      match src with
      | Rate { counters; series } ->
        Hashtbl.replace t.sp_prev (series ^ "#n")
          (float_of_int (sum_counters counts counters))
      | Ratio { num; den; series } ->
        Hashtbl.replace t.sp_prev (series ^ "#n")
          (float_of_int (sum_counters counts num));
        Hashtbl.replace t.sp_prev (series ^ "#d")
          (float_of_int (sum_counters counts den))
      | Percentiles name ->
        Option.iter (Hashtbl.replace t.sp_hists name)
          (List.assoc_opt name hists)
      | Gauge _ | Utilization _ -> ())
    sources;
  register_routes ();
  t

let start ?profile ?sources ~interval () =
  let t = create ?profile ?sources ~interval () in
  if interval > 0.0 then begin
    let d =
      Domain.spawn (fun () ->
          (* sleep in short slices so stop is prompt even at long
             intervals *)
          let rec sleep_until deadline =
            let remaining = deadline -. Unix.gettimeofday () in
            if remaining > 0.0 && not (Atomic.get t.sp_stop) then begin
              Unix.sleepf (Float.min remaining 0.1);
              sleep_until deadline
            end
          in
          let rec loop () =
            if not (Atomic.get t.sp_stop) then begin
              sleep_until (Unix.gettimeofday () +. t.sp_interval);
              if not (Atomic.get t.sp_stop) then begin
                tick t;
                loop ()
              end
            end
          in
          loop ())
    in
    t.sp_domain <- Some d
  end;
  t

let stop t =
  Atomic.set t.sp_stop true;
  match t.sp_domain with
  | Some d ->
    t.sp_domain <- None;
    Domain.join d
  | None -> ()

module Sampler = struct
  type t = sampler

  let create = create
  let start = start
  let stop = stop
  let tick = tick
  let interval t = t.sp_interval
end
