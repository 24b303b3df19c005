module JQ = Vc_util.Journal_query
module Hist = Vc_util.Hist

type config = {
  lg_host : string;
  lg_port : int;
  lg_clients : int;
  lg_spec : Trace.spec;
  lg_time_scale : float;
}

type report = {
  rp_seed : int;
  rp_trace_scheme : string;
  rp_offered_rps : float;
  rp_achieved_rps : float;
  rp_wall_s : float;
  rp_clients : int;
  rp_total : int;
  rp_executed : int;
  rp_cache_hit : int;
  rp_rejected : int;
  rp_rejected_by_label : (string * int) list;
  rp_errors : int;
  rp_shed_rate : float;
  rp_latency : Hist.summary option;
  rp_by_outcome : (string * Hist.summary) list;
}

(* One client domain's tallies; merged after the join. *)
type partial = {
  p_executed : Hist.t;
  p_cache_hit : Hist.t;
  p_rejected : Hist.t;
  mutable p_labels : (string * int) list;
  mutable p_errors : int;
}

(* cons patterns, not exact lists: a traced reply's status line carries
   a trailing "trace=<id>" operand after the label *)
let classify status =
  match String.split_on_char ' ' status with
  | "OK" :: "executed" :: _ -> `Executed
  | "OK" :: "cache_hit" :: _ -> `Cache_hit
  | "ERR" :: label :: _ -> `Rejected label
  | _ -> `Rejected "protocol"

let bump_label p label =
  p.p_labels <-
    (label, 1 + Option.value ~default:0 (List.assoc_opt label p.p_labels))
    :: List.remove_assoc label p.p_labels

let journal_request ~trace ~tool ~outcome ~latency_s ?reason () =
  let attrs =
    [
      ("trace_id", trace);
      ("tool", tool);
      ("outcome", outcome);
      ("latency_s", Printf.sprintf "%.6f" latency_s);
    ]
    @ match reason with Some r -> [ ("reason", r) ] | None -> []
  in
  Vc_util.Journal.emit ~component:"vcload" ~attrs "replay.request"

(* Replay this client's share of the trace: regenerate the stream,
   skip items belonging to other clients, pace each own item to its
   scheduled wall-clock time, and measure latency from that schedule. *)
let run_client config t0 client_idx =
  let p =
    {
      p_executed = Hist.create ();
      p_cache_hit = Hist.create ();
      p_rejected = Hist.create ();
      p_labels = [];
      p_errors = 0;
    }
  in
  let conn = Wire.Client.connect ~host:config.lg_host ~port:config.lg_port () in
  Fun.protect
    ~finally:(fun () -> Wire.Client.close conn)
    (fun () ->
      Trace.iter config.lg_spec (fun it ->
          if it.Trace.it_seq mod config.lg_clients = client_idx then begin
            let target =
              t0 +. (it.Trace.it_time_s *. config.lg_time_scale)
            in
            let delay = target -. Unix.gettimeofday () in
            if delay > 0.0 then Unix.sleepf delay;
            (* one deterministic trace id per planned submission: any
               replay with the same seed mints the same ids, so client
               and server journals stay joinable after the fact *)
            let trace =
              Vc_util.Trace_ctx.mint_deterministic
                ~seed:config.lg_spec.Trace.tr_seed ~seq:it.Trace.it_seq
            in
            match
              Wire.Client.submit conn ~session:it.Trace.it_session ~trace
                ~tool:it.Trace.it_tool it.Trace.it_input
            with
            | status, _body ->
              let latency_s = Unix.gettimeofday () -. target in
              (match classify status with
              | `Executed ->
                Hist.add p.p_executed latency_s;
                Vc_util.Telemetry.incr "vcload.executed";
                journal_request ~trace ~tool:it.Trace.it_tool
                  ~outcome:"executed" ~latency_s ()
              | `Cache_hit ->
                Hist.add p.p_cache_hit latency_s;
                Vc_util.Telemetry.incr "vcload.cache_hit";
                journal_request ~trace ~tool:it.Trace.it_tool
                  ~outcome:"cache_hit" ~latency_s ()
              | `Rejected label ->
                Hist.add p.p_rejected latency_s;
                bump_label p label;
                Vc_util.Telemetry.incr "vcload.rejected";
                journal_request ~trace ~tool:it.Trace.it_tool
                  ~outcome:"rejected" ~latency_s ~reason:label ())
            | exception (Failure _ | Unix.Unix_error _ | Sys_error _) ->
              p.p_errors <- p.p_errors + 1;
              Vc_util.Telemetry.incr "vcload.errors"
          end));
  p

let run config =
  if config.lg_clients < 1 then invalid_arg "Loadgen.run: clients < 1";
  (* a short runway so every domain is connected before the first item
     comes due *)
  let t0 = Unix.gettimeofday () +. 0.05 in
  let domains =
    List.init config.lg_clients (fun c ->
        Domain.spawn (fun () -> run_client config t0 c))
  in
  let partials = List.map Domain.join domains in
  let wall_s = Unix.gettimeofday () -. t0 in
  let merged field =
    List.fold_left (fun acc p -> Hist.merge acc (field p)) (Hist.create ())
      partials
  in
  let executed = merged (fun p -> p.p_executed)
  and cache_hit = merged (fun p -> p.p_cache_hit)
  and rejected = merged (fun p -> p.p_rejected) in
  let errors = List.fold_left (fun a p -> a + p.p_errors) 0 partials in
  let labels =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc (label, n) ->
            (label, n + Option.value ~default:0 (List.assoc_opt label acc))
            :: List.remove_assoc label acc)
          acc p.p_labels)
      [] partials
  in
  let n_exec = Hist.count executed
  and n_hit = Hist.count cache_hit
  and n_rej = Hist.count rejected in
  let total = n_exec + n_hit + n_rej in
  let by_outcome =
    List.filter_map
      (fun (key, h) -> Option.map (fun s -> (key, s)) (Hist.summary h))
      [
        ("cache_hit", cache_hit); ("executed", executed); ("rejected", rejected);
      ]
  in
  let avg_rate =
    float_of_int (Trace.expected_items config.lg_spec)
    /. Float.max config.lg_spec.Trace.tr_duration_s 1e-9
  in
  {
    rp_seed = config.lg_spec.Trace.tr_seed;
    rp_trace_scheme = Vc_util.Trace_ctx.scheme;
    rp_offered_rps = avg_rate /. Float.max config.lg_time_scale 1e-9;
    rp_achieved_rps =
      (if wall_s > 0.0 then float_of_int total /. wall_s else 0.0);
    rp_wall_s = wall_s;
    rp_clients = config.lg_clients;
    rp_total = total;
    rp_executed = n_exec;
    rp_cache_hit = n_hit;
    rp_rejected = n_rej;
    rp_rejected_by_label = List.sort compare labels;
    rp_errors = errors;
    rp_shed_rate =
      (if total = 0 then 0.0 else float_of_int n_rej /. float_of_int total);
    rp_latency =
      Hist.summary (Hist.merge (Hist.merge executed cache_hit) rejected);
    rp_by_outcome = by_outcome;
  }

let render_report r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "replayed %d request(s) over %d client(s) in %.2f s (offered %.0f \
        rps, achieved %.0f rps)\n"
       r.rp_total r.rp_clients r.rp_wall_s r.rp_offered_rps r.rp_achieved_rps);
  Buffer.add_string b
    (Printf.sprintf "trace ids: seed %d, %s\n" r.rp_seed r.rp_trace_scheme);
  Buffer.add_string b
    (Printf.sprintf
       "outcomes: %d executed, %d cache_hit, %d rejected (shed rate %.2f%%)\n"
       r.rp_executed r.rp_cache_hit r.rp_rejected (100.0 *. r.rp_shed_rate));
  if r.rp_rejected_by_label <> [] then begin
    Buffer.add_string b "rejections by reason:\n";
    List.iter
      (fun (label, n) ->
        Buffer.add_string b (Printf.sprintf "  %-16s %6d\n" label n))
      r.rp_rejected_by_label
  end;
  if r.rp_errors > 0 then
    Buffer.add_string b
      (Printf.sprintf "transport errors: %d\n" r.rp_errors);
  (match r.rp_latency with
  | None -> ()
  | Some all ->
    Buffer.add_string b
      "latency (count / p50 ms / p90 ms / p99 ms / max ms):\n";
    Buffer.add_string b (JQ.render_latency_line "(all)" all);
    List.iter
      (fun (k, st) -> Buffer.add_string b (JQ.render_latency_line k st))
      r.rp_by_outcome);
  Buffer.contents b

let report_to_json r =
  let module Json = Vc_util.Json in
  Json.obj
    [
      (* the reproducibility header: re-running with this seed mints
         the same per-submission trace ids (see trace_scheme) *)
      ("seed", Json.int r.rp_seed);
      ("trace_scheme", Json.str r.rp_trace_scheme);
      ("offered_rps", Json.num r.rp_offered_rps);
      ("achieved_rps", Json.num r.rp_achieved_rps);
      ("wall_s", Json.num r.rp_wall_s);
      ("clients", Json.int r.rp_clients);
      ("total", Json.int r.rp_total);
      ("executed", Json.int r.rp_executed);
      ("cache_hit", Json.int r.rp_cache_hit);
      ("rejected", Json.int r.rp_rejected);
      ( "rejected_by_label",
        Json.obj
          (List.map (fun (k, n) -> (k, Json.int n)) r.rp_rejected_by_label) );
      ("errors", Json.int r.rp_errors);
      ("shed_rate", Json.num r.rp_shed_rate);
      ( "latency",
        match r.rp_latency with
        | Some all ->
          Json.obj
            (("all", JQ.latency_json all)
            :: List.map
                 (fun (k, st) -> (k, JQ.latency_json st))
                 r.rp_by_outcome)
        | None -> Json.obj [] );
    ]

let set_slo_gauges r =
  (match r.rp_latency with
  | Some all ->
    Vc_util.Telemetry.set_gauge "loadgen.slo.p99_ms" (1e3 *. all.Hist.p99_s)
  | None -> ());
  Vc_util.Telemetry.set_gauge "loadgen.slo.shed_rate" r.rp_shed_rate;
  Vc_util.Telemetry.set_gauge "loadgen.offered_rps" r.rp_offered_rps;
  Vc_util.Telemetry.set_gauge "loadgen.achieved_rps" r.rp_achieved_rps
