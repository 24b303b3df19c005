(* Global instrumentation state, sharded per domain for multicore
   scaling. Every domain owns a private cell of counters, timer
   histograms and gauges (reached through [Domain.DLS]); the renderers
   merge all cells lazily on the way out.

   Domain safety: the per-job fast path is lock-free for the owning
   domain - a counter bump is one [Atomic.fetch_and_add] on a cell the
   owner already created, a timer sample is one [Hist.add] into a
   fixed-size histogram only the owner writes (readers merge it into a
   fresh copy before using it). The only lock a writer can touch is its
   own cell mutex, taken once per (domain, metric-name) pair when the
   name is first seen - structurally growing the cell's hashtable must
   not race with a renderer walking it. Renderers take each cell's mutex
   in turn while folding; the short global mutex [mu] guards only the
   cell registry and the probe registry (both touched at
   registration/render time, never per job). Lock ordering: [mu] is
   never held while a cell mutex is taken within a single operation,
   and nothing in this module calls back out, so telemetry locks are
   always innermost.

   [reset] empties every registered cell; it assumes the quiescence any
   exact-counting reader needs anyway (domains that raced a reset may
   leave a stray count behind). Cells belong to the registry forever -
   a domain's counts survive its termination, which is what makes
   "spawn workers, join them, then read the totals" exact: [Domain.join]
   synchronizes, so merged sums equal the per-domain sums. *)

let set_clock = Clock.set
let now = Clock.now

let mu = Mutex.create ()
let locked f = Mutex.protect mu f

(* ------------------------------------------------------------------ *)
(* per-domain cells                                                    *)
(* ------------------------------------------------------------------ *)

type cells = {
  c_mu : Mutex.t; (* guards structural growth of the tables below *)
  c_counters : (string, int Atomic.t) Hashtbl.t;
  c_timers : (string, Hist.t) Hashtbl.t;
  c_gauges : (string, (int * float) ref) Hashtbl.t; (* (stamp, value) *)
}

(* Registry of every cell ever created, newest first. Guarded by [mu]. *)
let all_cells : cells list ref = ref []

let cells_key : cells Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c =
        {
          c_mu = Mutex.create ();
          c_counters = Hashtbl.create 32;
          c_timers = Hashtbl.create 32;
          c_gauges = Hashtbl.create 16;
        }
      in
      locked (fun () -> all_cells := c :: !all_cells);
      c)

let my_cells () = Domain.DLS.get cells_key
let snapshot_cells () = locked (fun () -> !all_cells)

(* Fold over every cell with its mutex held - the renderer-side half of
   the structural-growth discipline described in the header. *)
let fold_cells f init =
  List.fold_left
    (fun acc c -> Mutex.protect c.c_mu (fun () -> f acc c))
    init (snapshot_cells ())

(* ------------------------------------------------------------------ *)
(* counters                                                            *)
(* ------------------------------------------------------------------ *)

let incr ?(by = 1) name =
  let c = my_cells () in
  (* only the owner adds names to its cell, so the unlocked lookup never
     races a structural change; the add takes the (uncontended) cell
     mutex to stay ordered against a concurrently merging renderer *)
  match Hashtbl.find_opt c.c_counters name with
  | Some a -> ignore (Atomic.fetch_and_add a by)
  | None ->
    Mutex.protect c.c_mu (fun () ->
        Hashtbl.add c.c_counters name (Atomic.make by))

let counter name =
  fold_cells
    (fun acc c ->
      match Hashtbl.find_opt c.c_counters name with
      | Some a -> acc + Atomic.get a
      | None -> acc)
    0

let counters () =
  let tbl = Hashtbl.create 64 in
  fold_cells
    (fun () c ->
      Hashtbl.iter
        (fun k a ->
          let v = Atomic.get a in
          match Hashtbl.find_opt tbl k with
          | Some r -> r := !r + v
          | None -> Hashtbl.add tbl k (ref v))
        c.c_counters)
    ();
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* timers                                                              *)
(* ------------------------------------------------------------------ *)

type timer_summary = Hist.summary = {
  count : int;
  total_s : float;
  mean_s : float;
  p50_s : float;
  p90_s : float;
  p99_s : float;
  max_s : float;
  stddev_s : float;
}

let observe name dt =
  let c = my_cells () in
  match Hashtbl.find_opt c.c_timers name with
  | Some h -> Hist.add h dt (* only the owner writes its histograms *)
  | None ->
    let h = Hist.create () in
    Hist.add h dt;
    Mutex.protect c.c_mu (fun () -> Hashtbl.add c.c_timers name h)

let timer_hists () =
  let tbl = Hashtbl.create 64 in
  fold_cells
    (fun () c ->
      Hashtbl.iter
        (fun k h ->
          let acc = Hashtbl.find_opt tbl k in
          let acc = Option.value ~default:(Hist.create ()) acc in
          Hashtbl.replace tbl k (Hist.merge acc h))
        c.c_timers)
    ();
  List.sort compare (Hashtbl.fold (fun k h acc -> (k, h) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* gauges                                                              *)
(* ------------------------------------------------------------------ *)

(* Each domain stores its own last write, stamped from a global atomic;
   the merge keeps the newest stamp per name so a gauge still reads as
   last-write-wins across domains. *)
let gauge_stamp = Atomic.make 0

let set_gauge name v =
  let c = my_cells () in
  let stamp = Atomic.fetch_and_add gauge_stamp 1 in
  match Hashtbl.find_opt c.c_gauges name with
  | Some r -> r := (stamp, v)
  | None ->
    Mutex.protect c.c_mu (fun () ->
        Hashtbl.add c.c_gauges name (ref (stamp, v)))

let gauge name =
  fold_cells
    (fun acc c ->
      match Hashtbl.find_opt c.c_gauges name with
      | Some r ->
        let stamp, v = !r in
        (match acc with
        | Some (s0, _) when s0 > stamp -> acc
        | _ -> Some (stamp, v))
      | None -> acc)
    None
  |> Option.map snd

let gauges () =
  let tbl = Hashtbl.create 16 in
  fold_cells
    (fun () c ->
      Hashtbl.iter
        (fun k r ->
          let stamp, v = !r in
          match Hashtbl.find_opt tbl k with
          | Some (s0, _) when s0 > stamp -> ()
          | _ -> Hashtbl.replace tbl k (stamp, v))
        c.c_gauges)
    ();
  Hashtbl.fold (fun k (_, v) acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* The clock is wall time, not monotonic: an NTP step mid-measurement can
   make [now () -. t0] negative, so computed durations clamp at zero. *)
let elapsed_since t0 = Float.max 0.0 (now () -. t0)

let time name f =
  let t0 = now () in
  match f () with
  | v ->
    observe name (elapsed_since t0);
    v
  | exception e ->
    observe name (elapsed_since t0);
    raise e

let timer name = Option.bind (List.assoc_opt name (timer_hists ())) Hist.summary

let timers () =
  List.filter_map
    (fun (k, h) -> Option.map (fun s -> (k, s)) (Hist.summary h))
    (timer_hists ())

let timed_span ?attrs name f = time name (fun () -> Span.with_ ?attrs name f)

(* ------------------------------------------------------------------ *)
(* probes                                                              *)
(* ------------------------------------------------------------------ *)

let probe_tbl : (string, unit -> (string * int) list) Hashtbl.t =
  Hashtbl.create 16

let register_probe name f =
  locked (fun () -> Hashtbl.replace probe_tbl name f)

(* Snapshot the registry under the lock, but read each probe outside it:
   probe thunks belong to other subsystems and must be free to take
   their own locks. *)
let probes () =
  locked (fun () -> Hashtbl.fold (fun k f acc -> (k, f) :: acc) probe_tbl [])
  |> List.map (fun (k, f) -> (k, f ()))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* renderers                                                           *)
(* ------------------------------------------------------------------ *)

let report () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "== telemetry report ==\n";
  let cs = counters () in
  if cs <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-40s %10d\n" k v))
      cs
  end;
  let gs = gauges () in
  if gs <> [] then begin
    Buffer.add_string b "gauges:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-40s %10g\n" k v))
      gs
  end;
  let ts = timers () in
  if ts <> [] then begin
    Buffer.add_string b
      "timers (count / total ms / mean ms / p50 ms / p90 ms / p99 ms / max \
       ms / stddev ms):\n";
    List.iter
      (fun (k, s) ->
        Buffer.add_string b
          (Printf.sprintf
             "  %-40s %6d %9.2f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n" k
             s.count (1e3 *. s.total_s) (1e3 *. s.mean_s) (1e3 *. s.p50_s)
             (1e3 *. s.p90_s) (1e3 *. s.p99_s) (1e3 *. s.max_s)
             (1e3 *. s.stddev_s)))
      ts
  end;
  let ps = probes () in
  if ps <> [] then begin
    Buffer.add_string b "kernel probes:\n";
    List.iter
      (fun (name, kvs) ->
        Buffer.add_string b (Printf.sprintf "  %s:\n" name);
        List.iter
          (fun (k, v) ->
            Buffer.add_string b (Printf.sprintf "    %-36s %10d\n" k v))
          kvs)
      ps
  end;
  Buffer.add_string b
    (Printf.sprintf "trace spans recorded: %d\n" (List.length (Span.roots ())));
  Buffer.contents b

(* JSON text is built through the shared Vc_util.Json emitters, so the
   layer stays free of third-party dependencies. *)
let jstr = Json.str
let jfloat = Json.num
let jobj = Json.obj
let jarr = Json.arr

let summary_json s =
  jobj
    [
      ("count", string_of_int s.count);
      ("total_s", jfloat s.total_s);
      ("mean_s", jfloat s.mean_s);
      ("p50_s", jfloat s.p50_s);
      ("p90_s", jfloat s.p90_s);
      ("p99_s", jfloat s.p99_s);
      ("max_s", jfloat s.max_s);
      ("stddev_s", jfloat s.stddev_s);
    ]

let to_json () =
  jobj
    [
      ( "counters",
        jobj (List.map (fun (k, v) -> (k, string_of_int v)) (counters ())) );
      ("gauges", jobj (List.map (fun (k, v) -> (k, jfloat v)) (gauges ())));
      ("timers", jobj (List.map (fun (k, s) -> (k, summary_json s)) (timers ())));
      ( "probes",
        jobj
          (List.map
             (fun (name, kvs) ->
               (name, jobj (List.map (fun (k, v) -> (k, string_of_int v)) kvs)))
             (probes ())) );
      ("spans", string_of_int (List.length (Span.roots ())));
    ]

let rec span_json (s : Span.t) =
  jobj
    [
      ("name", jstr s.name);
      ("start_s", jfloat s.start_s);
      ("duration_s", jfloat s.duration_s);
      ("attrs", jobj (List.map (fun (k, v) -> (k, jstr v)) s.attrs));
      ("children", jarr (List.map span_json s.children));
    ]

let spans_to_json () =
  jobj [ ("spans", jarr (List.map span_json (Span.roots ()))) ]

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* Exposition format 0.0.4: one family per metric, HELP/TYPE comments,
   histogram families with _bucket{le=...}/_sum/_count series. Metric
   names come from the dotted telemetry names with a vc_ prefix. *)

let prom_name s =
  "vc_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      s

(* %.9g keeps full useful precision while rendering round bucket bounds
   as short, stable le labels (0.0001, not 0.000100000) *)
let prom_float f = Printf.sprintf "%.9g" f

let to_prometheus () =
  let b = Buffer.create 4096 in
  let family name typ help =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  List.iter
    (fun (k, v) ->
      let n = prom_name k ^ "_total" in
      family n "counter" (Printf.sprintf "Telemetry counter %s." k);
      Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
    (counters ());
  List.iter
    (fun (probe, kvs) ->
      List.iter
        (fun (k, v) ->
          let n = prom_name (probe ^ "." ^ k) ^ "_total" in
          family n "counter"
            (Printf.sprintf "Kernel probe %s, cumulative %s." probe k);
          Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
        kvs)
    (probes ());
  let n = "vc_journal_events_total" in
  family n "counter" "Structured journal events emitted since start.";
  Buffer.add_string b (Printf.sprintf "%s %d\n" n (Journal.event_count ()));
  List.iter
    (fun (k, v) ->
      let n = prom_name k in
      family n "gauge" (Printf.sprintf "Telemetry gauge %s." k);
      Buffer.add_string b (Printf.sprintf "%s %s\n" n (prom_float v)))
    (gauges ());
  (* every timer is one histogram family, bucketed at the octave edges *)
  List.iter
    (fun (k, h) ->
      let n = prom_name k ^ "_seconds" in
      family n "histogram" (Printf.sprintf "Timer %s (seconds)." k);
      List.iter
        (fun (le, c) ->
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (prom_float le) c))
        (Hist.buckets h);
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Hist.count h));
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" n (prom_float (Hist.sum h)));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n (Hist.count h)))
    (timer_hists ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* control / CLI                                                       *)
(* ------------------------------------------------------------------ *)

let reset () =
  List.iter
    (fun c ->
      Mutex.protect c.c_mu (fun () ->
          Hashtbl.reset c.c_counters;
          Hashtbl.reset c.c_timers;
          Hashtbl.reset c.c_gauges))
    (snapshot_cells ());
  Span.reset ()

type cli_options = {
  cli_argv : string array;
  cli_stats : bool;
  cli_trace : string option;
  cli_journal : string option;
  cli_journal_segments : int option;
  cli_metrics_port : int option;
}

let cli_parse argv =
  let stats = ref false
  and trace = ref None
  and journal = ref None
  and journal_segments = ref None
  and metrics_port = ref None in
  let missing flag what =
    Printf.eprintf "error: %s requires a %s argument\n" flag what;
    exit 2
  in
  let rec strip acc = function
    | [] -> List.rev acc
    | "--stats" :: rest ->
      stats := true;
      strip acc rest
    | [ "--trace" ] -> missing "--trace" "FILE"
    | "--trace" :: file :: rest ->
      trace := Some file;
      strip acc rest
    | [ "--journal" ] -> missing "--journal" "FILE"
    | "--journal" :: file :: rest ->
      journal := Some file;
      strip acc rest
    | [ "--journal-segments" ] -> missing "--journal-segments" "BYTES"
    | "--journal-segments" :: bytes :: rest -> begin
      match int_of_string_opt bytes with
      | Some n when n >= 1 ->
        journal_segments := Some n;
        strip acc rest
      | Some _ | None ->
        Printf.eprintf "error: --journal-segments: bad byte count %S\n" bytes;
        exit 2
    end
    | [ "--metrics-port" ] -> missing "--metrics-port" "PORT"
    | "--metrics-port" :: port :: rest -> begin
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 ->
        metrics_port := Some p;
        strip acc rest
      | Some _ | None ->
        Printf.eprintf "error: --metrics-port: bad port %S (0-65535)\n" port;
        exit 2
    end
    | a :: rest -> strip (a :: acc) rest
  in
  match Array.to_list argv with
  | [] ->
    {
      cli_argv = argv;
      cli_stats = false;
      cli_trace = None;
      cli_journal = None;
      cli_journal_segments = None;
      cli_metrics_port = None;
    }
  | prog :: args ->
    let kept = strip [] args in
    {
      cli_argv = Array.of_list (prog :: kept);
      cli_stats = !stats;
      cli_trace = !trace;
      cli_journal = !journal;
      cli_journal_segments = !journal_segments;
      cli_metrics_port = !metrics_port;
    }

let cli ?(server = false) argv =
  let o = cli_parse argv in
  (* Registered before the stats/trace hooks: at_exit runs LIFO, and the
     serving loop must be the last thing the process does - it keeps the
     tool alive answering /metrics until the operator kills it. With
     [server:true] the exporter instead serves live from a background
     domain for the whole run (vcserve and vcload need /varz answered
     while they work) and shuts down cleanly at exit. *)
  (match o.cli_metrics_port with
  | Some port ->
    let srv =
      Metrics_server.start ~port
        ~on_request:(fun _path -> incr "metrics.http_requests")
        ~metrics:(fun () -> to_prometheus ())
        ()
    in
    set_gauge "metrics.port" (float_of_int (Metrics_server.port srv));
    if server then begin
      let d = Domain.spawn (fun () -> Metrics_server.serve srv) in
      at_exit (fun () ->
          Metrics_server.stop srv;
          Domain.join d)
    end
    else at_exit (fun () -> Metrics_server.serve_forever srv)
  | None -> ());
  Journal.install_crash_handler ();
  if o.cli_stats then at_exit (fun () -> prerr_string (report ()));
  (match o.cli_trace with
  | Some file ->
    at_exit (fun () ->
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc (spans_to_json ())))
  | None -> ());
  (match o.cli_journal with
  | Some file -> Journal.open_jsonl ?segment_bytes:o.cli_journal_segments file
  | None -> ());
  o.cli_argv
