(** Fixed-capacity telemetry time series plus the background sampler
    that feeds them - the time dimension of the observability layer.

    The store follows the sharded-Telemetry architecture
    (docs/CONCURRENCY.md): every domain appends {!record}ed points into
    its own ring-buffer cell under its own (uncontended) mutex, and
    {!points} merges all cells by timestamp on the way out, keeping the
    newest [capacity] points per series. Series are created on first
    write; {!define} pins a non-default capacity.

    {!Sampler} is the producer: a background domain that snapshots
    selected counters / gauges / timer percentiles every [interval]
    seconds ([-sample-interval] on [vcserve]/[vcload],
    [VC_SAMPLE_INTERVAL] in the environment, [<= 0] disables), derives
    rates from counter deltas (qps, shed rate, cache hit-rate,
    per-worker utilization), and drives one {!Profile.tick} per tick.
    Starting a sampler also registers the [GET /varz] (JSON: all
    telemetry + recent series + profile counts) and [GET /profile]
    (folded stacks) routes on {!Metrics_server} - the live surface
    [bin/vctop] polls. *)

type point = { p_ts : float; p_value : float }

val default_capacity : int
(** Points kept per series when {!define} was not called (240). *)

val define : ?capacity:int -> string -> unit
(** Pin [name]'s ring capacity before its first write. First call wins;
    later calls (and plain {!record}s) keep the existing capacity.
    @raise Invalid_argument when [capacity < 1]. *)

val record : ?ts:float -> string -> float -> unit
(** Append one point (timestamp defaults to {!Telemetry.now}) to the
    calling domain's ring for the series, evicting its oldest point
    when full. *)

val points : string -> point list
(** All cells' points for the series merged by timestamp, oldest first,
    capped at the series capacity. Empty for an unknown series. *)

val last : string -> point option
(** Newest point of the series, if any. *)

val names : unit -> string list
(** Every series any domain has written, sorted. *)

val series_json : string -> string
(** One series as a JSON array of [[ts, value]] pairs. *)

val to_json : unit -> string
(** All series as one JSON object ([{"name": [[ts, value], ...]}]). *)

val varz_json : unit -> string
(** The [GET /varz] document: [now], the full {!Telemetry.to_json}
    snapshot under ["telemetry"], every series under ["series"], and
    the profiler's tick/sample/stack counts under ["profile"]. *)

val reset : unit -> unit
(** Drop every cell's points and all capacity pins. Tests only. *)

(** {1 Background sampler} *)

val default_interval : unit -> float
(** [VC_SAMPLE_INTERVAL] when set and parseable, else [0.5] seconds -
    the default behind the [-sample-interval] flags. *)

(** What one sampler tick snapshots. Counter names may end in ["*"]
    (prefix wildcard). *)
type source =
  | Gauge of string  (** series name = gauge name *)
  | Rate of { counters : string list; series : string }
      (** per-second rate of the summed counter deltas since the
          previous tick *)
  | Ratio of { num : string list; den : string list; series : string }
      (** delta(num)/delta(den) since the previous tick; no point is
          recorded while the denominator is idle *)
  | Percentiles of string
      (** timer [name] -> [name.p50_ms] / [name.p99_ms] series: the
          percentiles of the samples recorded since the previous tick
          (the {!Hist.diff} of two cumulative snapshots), within
          {!Hist.relative_error}; no point is recorded for an idle
          window *)
  | Utilization of { prefix : string; suffix : string }
      (** every timer named [prefix<id>suffix] -> a [prefix<id>.util]
          series: the per-second growth rate of its accumulated total,
          clamped to [0, 1] - busy fraction *)

val server_sources : source list
(** The vcserve console: queue depth (+ high-water mark), cache size,
    qps, shed rate, cache hit-rate, the four [server.phase.*]
    percentile pairs and per-worker utilization. *)

val client_sources : source list
(** The vcload side: achieved qps and shed rate from the vcload.*
    outcome counters. *)

module Sampler : sig
  type t

  val create :
    ?profile:bool -> ?sources:source list -> interval:float -> unit -> t
  (** Build a sampler (default [sources]: {!server_sources};
      [profile:false] skips the {!Profile.tick} per tick), prime its
      delta snapshots from the current counter values, and register the
      [/varz] and [/profile] routes. No domain is spawned - drive it
      with {!tick} (deterministic tests) or use {!start}. *)

  val start :
    ?profile:bool -> ?sources:source list -> interval:float -> unit -> t
  (** {!create}, then spawn the background domain ticking every
      [interval] seconds of wall time. [interval <= 0] registers the
      routes but never ticks (the [-sample-interval 0] escape hatch). *)

  val tick : t -> unit
  (** Take one sample now (timestamps from {!Telemetry.now}, so a test
      clock gives deterministic series). *)

  val stop : t -> unit
  (** Stop and join the background domain, if any. Prompt (the sleep is
      sliced), idempotent. *)

  val interval : t -> float
end
