(** The Fig. 4 architecture: tool portals that consume ASCII text and
    produce ASCII text, with per-participant run history and a runaway
    guard. The five deployed tools mirror the paper's list - kbdd,
    espresso, SIS, miniSAT, and the custom Ax=b solver - each backed by
    this repository's own implementation.

    Submissions are instrumented through {!Vc_util.Telemetry}
    (per-tool submit / execution / rejection counters and latency
    timers) and served through a process-wide content-addressed result
    cache: every tool is a pure function of its input text, so a repeat
    of an identical upload - the dominant MOOC workload - returns the
    cached output in O(1) without re-executing the tool. See
    [docs/OBSERVABILITY.md], [docs/PORTAL.md] and [docs/SERVER.md].

    {b Domain safety}: everything here may be called concurrently from
    {!Vc_mooc.Server}'s worker domains. The result cache is sharded by
    digest into independently-locked shards (see {!set_cache_shards}),
    so concurrent submissions of different inputs rarely contend; each
    session's history has its own mutex; cache statistics live in
    process-wide atomics. Tools are pure functions of their input, so a
    duplicated cache-miss execution in two domains is wasted work, never
    wrong output. See [docs/CONCURRENCY.md] for the full model. *)

type tool = {
  tool_name : string;
  description : string;
  max_input_lines : int;  (** Runaway guard: larger uploads are rejected. *)
  execute : string -> string;
}

val kbdd : tool
(** BDD calculator scripts ({!Vc_bdd.Bdd_script}). *)

val espresso : tool
(** PLA in, minimized PLA out ({!Vc_two_level.Espresso}). *)

val sis : tool
(** Input is a BLIF model, then a line containing only [%script], then
    SIS commands ({!Vc_multilevel.Script}); output is the log and the
    optimized BLIF. *)

val minisat : tool
(** DIMACS in; "SATISFIABLE" plus a model line, or "UNSATISFIABLE". *)

val axb : tool
(** Linear systems ({!Vc_linalg.Axb}). *)

val all_tools : tool list

(** {1 Name resolution}

    One resolution path shared by every front end (the [bin/] drivers,
    [vcserve], the bench harness): case-insensitive, surrounding
    whitespace ignored, plus the colloquial aliases ["bdd"] -> [kbdd]
    and ["sat"] -> [minisat]. *)

val canonical_name : string -> string
(** Lowercase, trim and apply aliases; does not check existence. *)

val find_tool : string -> tool option
(** Resolve a user-typed name to a tool; [None] if unknown. *)

val resolve_tool : string -> (tool, string) result
(** Like {!find_tool} but an unknown name comes back as an actionable
    error message listing the available tools and, when the name is
    within edit distance 2 of a tool or alias, a ["did you mean ...?"]
    suggestion. *)

type session
(** One participant's portal state: private run history per tool. The
    history is mutex-protected; a session may be used from several
    server workers at once. *)

val create_session : unit -> session

(** {1 Structured outcomes} *)

type reason =
  | Runaway of string
      (** Input exceeded the tool's [max_input_lines] guard. *)
  | Overloaded of string
      (** The server's submission queue was full (admission control;
          produced by {!Vc_mooc.Server}, never by {!submit_result}). *)
  | Rate_limited of string
      (** The session exceeded its token-bucket budget (produced by
          {!Vc_mooc.Server}). *)
  | Deadline_exceeded of string
      (** The job waited in queue past its deadline (produced by
          {!Vc_mooc.Server}). *)

type outcome =
  | Executed of string  (** Tool ran; payload is its output. *)
  | Cache_hit of string
      (** Served from the content-addressed cache; byte-identical to
          what execution would have produced. *)
  | Rejected of reason

val reason_message : reason -> string
(** The human-readable message carried by any rejection. *)

val reason_label : reason -> string
(** Stable machine label: ["runaway"], ["overloaded"], ["rate_limited"]
    or ["deadline"] - the vocabulary shared by journal events, telemetry
    counters and the [vcserve] wire protocol. *)

val outcome_output : outcome -> string
(** Collapse an outcome to a display string: the output for
    [Executed] / [Cache_hit], ["error: " ^ message] for [Rejected]. *)

(** {1 Requests}

    The one submission envelope every layer shares. {!Vc_mooc.Server}
    takes it, {!Vc_mooc.Wire}'s protocol engine builds it from a parsed
    [TOOL] line, and [vcfront] forwards it to a backend - one record
    instead of parallel positional signatures, so adding a field is one
    change, not four. *)

type request = {
  req_session : string;  (** Session id the submission runs under. *)
  req_tool : tool;
  req_input : string;  (** The uploaded text. *)
  req_trace : string option;
      (** Client-supplied trace id (already validated), if any. *)
}

val request : ?trace:string -> session:string -> tool -> string -> request
(** [request ~session tool input] builds the envelope; [?trace] attaches
    a client trace id. *)

val submit_result : session -> tool -> string -> outcome
(** Run the tool on the uploaded text (never raises; kernel errors come
    back inside [Executed "error: ..."] text) and append to the tool's
    history.

    Instrumentation per call, under the tool's name [t]:
    [portal.t.submits] always increments; then exactly one of
    [portal.t.rejected] (runaway guard tripped), [portal.t.cache_hits]
    (identical submission served from the cache, byte-for-byte the same
    output, tool not re-executed) or [portal.t.executions] (tool ran,
    result cached). Wall-clock latency is recorded on the
    [portal.t.latency] histogram. The cache probe runs in a ["cache"]
    {!Vc_util.Span}, and each real execution in an ["execute"] span with
    a span named [t] inside it; under a server worker these close as
    children of the ["worker"] span, whose trace id the submission
    event carries.

    Every submission additionally emits one {!Vc_util.Journal} event
    (component ["portal"], name ["submission"]) carrying the tool name,
    the content digest, the outcome ([executed] / [cache_hit] /
    [rejected]), the latency, and - for rejections - the reason. A
    runaway rejection is emitted at [Error] severity and dumps the
    journal's flight recorder, so the trailing window of events that
    led up to it is preserved. *)

val history : session -> tool -> (string * string) list
(** (input, output) pairs, oldest first - the "older outputs available by
    scrolling" behaviour. Cache hits and rejections are logged like real
    runs (the rendered {!outcome_output} string is what is recorded). *)

(** {1 Result cache}

    Global across sessions; content-addressed by a digest of
    [tool name + input]. The digest picks one of N independently-locked
    shards, each a bounded LRU of its slice of the aggregate capacity -
    the per-shard capacities always sum exactly to {!cache_capacity},
    so the aggregate bound holds by construction. Recency is tracked
    per shard: eviction is exact LRU within a shard and approximates a
    global LRU across shards (with one shard the behaviour is exactly
    the classic global LRU). *)

val set_cache_capacity : int -> unit
(** Bound the aggregate number of cached results (default 512),
    redistributing the per-shard capacities and evicting
    least-recently-used entries in any shard over its new bound. [0]
    disables caching.
    @raise Invalid_argument on negatives. *)

val cache_capacity : unit -> int

val set_cache_shards : int -> unit
(** Rebuild the cache with the given shard count (default 16, or the
    [VC_CACHE_SHARDS] environment variable; [vcserve -cache-shards N]
    calls this at startup). Drops all cached results; the hit/miss/
    eviction statistics are preserved. Intended as a configuration
    action before traffic, not a mid-run tuning knob.
    @raise Invalid_argument under 1. *)

val cache_shards : unit -> int

val cache_shard_sizes : unit -> int list
(** Entries currently cached per shard, in shard order; sums to
    {!cache_size}. *)

val cache_size : unit -> int
(** Number of results currently cached (always [<= cache_capacity ()]). *)

val clear_cache : unit -> unit
(** Drop all cached results and zero the hit/miss/eviction statistics. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] since the last {!clear_cache}. Counted in
    process-wide atomics - not under any shard lock - so the aggregate
    numbers stay exact and consistent with {!cache_size} even across
    {!Vc_util.Telemetry.reset}; the [portal.cache.hits] /
    [portal.cache.misses] telemetry counters are kept as mirrors for the
    [/metrics] exposition. *)

val cache_evictions : unit -> int
(** Evictions since the last {!clear_cache} (mirrored on
    [portal.cache.evictions]). *)

(** {1 Disk tier}

    An optional {!Vc_util.Cache_store} under the memory shards
    ([vcserve -cache-dir DIR], or the [VC_CACHE_DIR] environment
    variable). When enabled: every executed result is written through
    to disk the moment it is computed, an entry evicted from a memory
    shard is spilled to disk if not already there, and a memory miss
    probes the disk tier (promoting a hit back into its shard) before
    re-executing the tool. Store I/O always happens outside the shard
    mutexes. A store that starts failing mid-run (disk full) is dropped
    with one warning and a [cache.disk_disabled] journal event - the
    portal degrades to memory-only rather than failing submissions. *)

val set_cache_dir : string -> unit
(** Open (or create) the spill directory and {e warm-start}: promote
    every result the store holds into the memory shards (up to
    capacity; the remainder stays served by the disk probe), emitting a
    [cache.warm_start] journal event with the loaded count. A store
    that cannot be opened degrades with one warning and a
    [cache.disk_error] event instead of raising. Replaces (and closes)
    any previously configured store. *)

val cache_dir : unit -> string option
(** The active spill directory, if the disk tier is enabled. *)

val unset_cache_dir : unit -> unit
(** Close and detach the disk tier (memory shards are untouched) - the
    test hook for simulating a restart. *)

val cache_disk_hits : unit -> int
(** Memory misses served from the disk tier since the last
    {!clear_cache} (mirrored on [portal.cache.disk_hits]). Disk hits
    also count in {!cache_stats}' hit total. *)
