(** Process-wide instrumentation: named counters, wall-clock timers,
    gauges and pluggable kernel probes, with text, JSON and Prometheus
    renderers.

    This is the observability substrate of the repository (see
    [docs/OBSERVABILITY.md] for a guided tour): [Vc_mooc.Portal] counts
    submissions, cache hits and runaway-guard rejections through it, the
    hot algorithm kernels ([Vc_sat.Solver], [Vc_bdd.Bdd],
    [Vc_route.Maze], [Vc_place.Annealing]) register cumulative-counter
    probes with it, and every binary under [bin/] exposes it through the
    [--stats] and [--trace FILE] flags (see {!cli}).

    All state is global to the process and {e domain-safe}, and the
    write path scales: every domain records counters, timer samples and
    gauge writes into its {e own} per-domain cell ([Domain.DLS]), so
    {!Vc_mooc.Server}'s worker domains instrument without contending on
    a shared lock - the steady-state {!incr} / {!observe} / {!set_gauge}
    path is lock-free (an atomic op or an O(1) store into domain-owned
    storage). Each timer is one {!Hist} per domain: memory per timer is
    constant however many samples it records, and its percentiles are
    within {!Hist.relative_error} (1/64) of the exact nearest-rank ones.
    The read side ({!counter}, {!timers}, {!report}, {!to_json},
    {!to_prometheus}, ...) merges all domains' cells on demand: counters
    sum, timer histograms add, gauges resolve last-write-wins via a
    global version stamp. Trace spans live in {!Span} (one bounded stack
    and ring per domain); this module renders them. See
    [docs/CONCURRENCY.md] for the full model. Everything here is plain
    OCaml + the [unix] library shipped with the compiler - no
    third-party dependencies. *)

(** {1 Counters} *)

val incr : ?by:int -> string -> unit
(** [incr name] adds [by] (default 1) to the named counter, creating it
    at zero on first use. Counter names are flat strings; the convention
    used across the repo is dotted paths such as
    ["portal.kbdd.submits"]. *)

val counter : string -> int
(** Current value of a counter; [0] if it was never incremented. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Timers} *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f ()], records its wall-clock duration as one
    sample of the named timer, and returns (or re-raises) [f]'s
    outcome. *)

val observe : string -> float -> unit
(** Record an externally measured duration (seconds) as a sample. *)

type timer_summary = Hist.summary = {
  count : int;  (** Number of recorded samples. *)
  total_s : float;  (** Sum of all samples, seconds. *)
  mean_s : float;
  p50_s : float;
      (** Median, nearest-rank, within {!Hist.relative_error} of
          {!Stats.percentile}. *)
  p90_s : float;
  p99_s : float;  (** Tail latency, nearest-rank. *)
  max_s : float;
  stddev_s : float;  (** Population standard deviation. *)
}

val timer : string -> timer_summary option
(** Summary of a timer's samples; [None] if no sample was recorded.
    Count, total, mean, max and stddev are exact. *)

val timers : unit -> (string * timer_summary) list
(** All timers with at least one sample, sorted by name. *)

val timer_hists : unit -> (string * Hist.t) list
(** Every timer's histogram merged across domains, sorted by name - a
    cumulative snapshot. {!Timeseries} diffs two of these to get a
    window's percentiles. *)

(** {1 Gauges}

    A gauge is a named value that can go up or down - queue depths,
    cache occupancy. Unlike counters they are set, not incremented. *)

val set_gauge : string -> float -> unit
(** Set the named gauge, creating it on first use. *)

val gauge : string -> float option
(** Current value; [None] if never set. *)

val gauges : unit -> (string * float) list
(** All gauges, sorted by name. *)

(** {1 Trace spans} *)

val timed_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** {!Span.with_} and {!time} in one call under the same name - the
    convenience used by the [bin/] tools around their main work. *)

(** {1 Kernel probes}

    A probe is a named thunk returning cumulative [(key, value)]
    counters owned by some subsystem - e.g. the SAT solver's total
    decisions/conflicts/restarts. Probes are pulled (not pushed) each
    time a report is rendered, so registering one is free. *)

val register_probe : string -> (unit -> (string * int) list) -> unit
(** Register (or replace) the named probe. The four hot kernels register
    themselves at module-initialization time under ["sat.solver"],
    ["bdd"], ["route.maze"] and ["place.annealing"]. *)

val probes : unit -> (string * (string * int) list) list
(** Current probe readings, sorted by probe name. *)

(** {1 Renderers} *)

val report : unit -> string
(** Human-readable report: counters, timer summaries (milliseconds),
    probe readings and the number of retained trace spans
    ({!Span.roots}). Sections with no data are omitted; the probe
    section always appears once any probe is registered. *)

val to_json : unit -> string
(** The same data as {!report} as a JSON object with fields
    ["counters"], ["gauges"], ["timers"] (per-timer objects with
    [count], [total_s], [mean_s], [p50_s], [p90_s], [p99_s], [max_s],
    [stddev_s]), ["probes"] and ["spans"] (the count of retained root
    spans).
    Machine-readable; [bench/main.ml] writes it to
    [BENCH_portal.json]. *)

val spans_to_json : unit -> string
(** {!Span.roots} as [{"spans": [...]}]; each span carries [name],
    [start_s], [duration_s], [attrs] and [children]. *)

val to_prometheus : unit -> string
(** The current metric state in the Prometheus text exposition format
    (version 0.0.4), as served on [GET /metrics] by
    {!Metrics_server}. Names are the dotted telemetry names with
    non-alphanumerics mapped to [_] and a [vc_] prefix. Counters and
    probe readings become [counter] families suffixed [_total] (plus
    [vc_journal_events_total] from {!Journal.event_count}); gauges
    become [gauge] families; every timer becomes a [histogram] family
    suffixed [_seconds] with cumulative [_bucket{le="..."}] series at
    the {!Hist.buckets} octave edges, an explicit [+Inf] bucket, [_sum]
    and [_count]. *)

(** {1 Control} *)

val reset : unit -> unit
(** Clear counters, gauges and timer samples across {e all} domains'
    cells, and {!Span.reset}. Registered probes and the clock survive
    (their counters live in their own modules). Call while other
    domains are quiescent (between test cases, between bench
    configurations) - a racing writer may land an update in a cell that
    was already cleared. *)

val set_clock : (unit -> float) -> unit
(** Replace the time source (default [Unix.gettimeofday]) - an alias of
    {!Clock.set}, shared with {!Journal} timestamps - used by tests
    that need deterministic durations. The wall clock is not monotonic,
    so computed timer and span durations clamp negative differences to
    zero. *)

val now : unit -> float
(** Read the installed clock ({!Clock.now}). *)

(** {1 Command-line integration} *)

val cli : ?server:bool -> string array -> string array
(** [cli Sys.argv] strips [--stats], [--trace FILE], [--journal FILE],
    [--journal-segments BYTES] and [--metrics-port N] from an argument
    vector and returns the rest (element 0 preserved). If [--stats] was
    present, the process prints {!report} to stderr at exit; if
    [--trace FILE] was present, it writes {!spans_to_json} to [FILE] at
    exit; if [--journal FILE] was present, every {!Journal} event is
    streamed as JSON Lines - to [FILE] (appending), or, when
    [--journal-segments BYTES] was also given, to a rotated
    [FILE.00000.jsonl]-style segment set with [BYTES]-sized segments
    (see {!Journal.open_jsonl}).
    If [--metrics-port N] was present, a {!Metrics_server} is bound on
    [127.0.0.1:N] immediately (port [0] = ephemeral; the bound address
    is announced on stderr) and, after the tool's own work and the
    other at-exit reports finish, the process stays alive serving
    [GET /metrics] ({!to_prometheus}) and [GET /healthz] until killed.
    With [server:true] (vcserve, vcload) the exporter instead serves
    from a background domain for the whole run - [/varz] and [/readyz]
    answer live while the tool works - and stops at exit instead of
    outliving it.
    Scrapes are counted on the ["metrics.http_requests"] counter and
    the bound port is published as the ["metrics.port"] gauge. Also
    installs the {!Journal.install_crash_handler} flight-recorder dump.
    Every binary under [bin/] routes its arguments through this, so the
    flags work uniformly across the toolset. *)

type cli_options = {
  cli_argv : string array;  (** Arguments with the flags stripped. *)
  cli_stats : bool;
  cli_trace : string option;
  cli_journal : string option;
  cli_journal_segments : int option;
      (** [--journal-segments BYTES]: rotate the journal into
          [BYTES]-sized segments instead of one growing file. *)
  cli_metrics_port : int option;
}

val cli_parse : string array -> cli_options
(** The pure part of {!cli}: strips the flags without installing any
    hook. Exits with code 2 on a [--trace]/[--journal] missing its file
    argument, a [--journal-segments] missing its byte count or given a
    non-positive one, or a [--metrics-port] missing its port or given
    one outside 0-65535. *)
