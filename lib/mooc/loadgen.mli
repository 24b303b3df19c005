(** The open-loop replay engine behind [bin/vcload]: several client
    domains replay a {!Trace} against a [vcserve] listener over TCP at
    the trace's stated offered load, and the run is reduced to a
    machine-readable report with per-outcome latency percentiles and
    the shed rate.

    {b Open loop.} Each request's send time comes from the trace, never
    from the previous response: a client that falls behind does not
    slow the offered load down, and latency is measured from the
    {e scheduled} send time, so queueing delay a saturated server
    induces shows up in the percentiles instead of being silently
    absorbed (the classic coordinated-omission correction).

    {b Work division.} Trace items are partitioned round-robin across
    the client domains ([it_seq mod clients]); each domain re-runs the
    (cheap, constant-memory) trace generator and skips the items that
    are not its own, so no materialized trace is ever shared - the
    replay holds a few latency arrays, not the trace. *)

type config = {
  lg_host : string;
  lg_port : int;
  lg_clients : int;  (** Client domains, one TCP connection each. *)
  lg_spec : Trace.spec;
  lg_time_scale : float;
      (** Multiplier on trace timestamps: [0.5] replays twice as fast
          (doubling the offered rate), [1.0] replays in real time. *)
}

type report = {
  rp_seed : int;
      (** The trace's RNG seed - republished in the report (and its
          JSON header) so the replay is reproducible and its
          deterministic per-submission trace ids
          ({!Vc_util.Trace_ctx.mint_deterministic}) can be re-derived
          offline. *)
  rp_trace_scheme : string;
      (** {!Vc_util.Trace_ctx.scheme} - how the ids were minted. *)
  rp_offered_rps : float;  (** From the spec (after time scaling). *)
  rp_achieved_rps : float;  (** Completed requests / wall-clock. *)
  rp_wall_s : float;
  rp_clients : int;
  rp_total : int;
  rp_executed : int;
  rp_cache_hit : int;
  rp_rejected : int;
  rp_rejected_by_label : (string * int) list;
      (** Rejections per wire label ([overloaded], [rate_limited],
          [deadline], [runaway], ...), sorted. *)
  rp_errors : int;  (** Transport failures (connection reset, ...). *)
  rp_shed_rate : float;  (** Rejected / total (0 when total is 0). *)
  rp_latency : Vc_util.Hist.summary option;
  rp_by_outcome : (string * Vc_util.Hist.summary) list;
      (** Keyed [executed] / [cache_hit] / [rejected], sorted - the
          same {!Vc_util.Hist} summary [vcstat summary] computes
          offline. *)
}

val run : config -> report
(** Replay the trace. Each planned submission is tagged with a
    deterministic trace id
    ({!Vc_util.Trace_ctx.mint_deterministic} over the spec's seed and
    the item's sequence number), sent as the wire [TRACE] operand, and
    emits one journal event (component ["vcload"], name
    ["replay.request"], attrs [trace_id], [tool], [outcome],
    [latency_s] and [reason] for rejections) so the run is analyzable
    offline with [vcstat summary] and joinable against the server
    journal with [vcstat request]; counters [vcload.executed] /
    [vcload.cache_hit] / [vcload.rejected] / [vcload.errors] and the
    SLO gauges of {!set_slo_gauges} are maintained on telemetry.
    @raise Unix.Unix_error when the server cannot be reached. *)

val render_report : report -> string
(** Human-readable run summary (what [vcload] prints). *)

val report_to_json : report -> string

val set_slo_gauges : report -> unit
(** Publish the report's SLO surface as telemetry gauges:
    [loadgen.slo.p99_ms] (p99 latency over all requests, milliseconds)
    and [loadgen.slo.shed_rate] - the two gauges
    {!Vc_util.Regress.compare_json} gates lower-is-better - plus
    informational [loadgen.offered_rps] / [loadgen.achieved_rps]. *)
