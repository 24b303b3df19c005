(** Offline analytics over {!Journal} JSONL files - the read side of
    [--journal FILE], and the engine behind [bin/vcstat].

    Every tool under [bin/] can stream its event log to disk; this
    module parses those files back into {!Journal.event} values and
    answers the three operator questions the paper's portal team needed
    at 17,000-participant scale: {e what happened} ({!summarize} -
    per-component/per-event counts, error rate, latency percentiles,
    slowest events), {e where did the time go} ({!spans_of} - a span
    forest reconstructed from [*.begin]/[*.end] event pairs, rendered as
    a text flamegraph) and {e how far did participants get}
    ({!funnel_of} - the Fig. 8 participation funnel over
    [Mooc.Cohort]'s ["funnel.stage"] events).

    All analytics are pure functions over event lists; only
    {!load_file}/{!load_files} touch the filesystem. *)

(** {1 Loading} *)

type load = {
  events : Journal.event list;  (** Decoded events, file order. *)
  malformed : (int * string) list;
      (** Lines that failed to decode: 1-based line number (per file)
          and the parse error. Blank lines are skipped silently. *)
}

val parse_line : string -> (Journal.event, string) result
(** Decode one JSONL line (the {!Journal.event_to_json} schema: [seq],
    [ts], [severity], [component], [event], [attrs]). Non-string attr
    values are dropped; a missing/invalid required field is an
    [Error]. *)

val load_file : string -> load
(** Parse one journal file, keeping going past malformed lines.
    @raise Sys_error if the file cannot be opened. *)

val load_files : string list -> load
(** {!load_file} over several files, events concatenated in argument
    order. *)

val expand_segments : string list -> string list
(** Resolve journal arguments to concrete files, in order: an argument
    containing ['*'] or ['?'] is globbed in-process against its
    directory (basename only, sorted); an existing file passes through;
    a missing file that names the {e base} of a rotated segment set
    (see {!Journal.open_jsonl}'s [segment_bytes]) expands to its
    [FILE.00000.jsonl]-style segments in index order. Anything else
    passes through untouched so {!load_file} reports the miss. Every
    [vcstat] subcommand applies this to its file arguments, so rotated
    journals are read by their base name transparently. *)

val glob_match : string -> string -> bool
(** [glob_match pattern name]: the tiny glob {!expand_segments} uses -
    ['*'] matches any (possibly empty) run, ['?'] exactly one
    character, everything else literally. *)

(** {1 Summary} *)

val latency_of : Journal.event -> float option
(** The event's ["latency_s"] attribute as seconds, if present and
    numeric - carried by portal ["submission"] and flow ["stage.end"]
    events. *)

type summary = {
  s_total : int;
  s_by_component : (string * int) list;  (** Sorted by name. *)
  s_by_event : (string * int) list;
      (** Keyed [component.event], sorted. *)
  s_by_severity : (string * int) list;  (** Only present severities. *)
  s_errors : int;
  s_error_rate : float;  (** [ERROR] events / total events; 0 if empty. *)
  s_seq_min : int;  (** Smallest sequence number seen; 0 when empty. *)
  s_seq_max : int;  (** Largest sequence number seen; 0 when empty. *)
  s_seq_distinct : int;  (** Distinct sequence numbers seen. *)
  s_seq_gaps : int;
      (** Sequence numbers missing within [[s_seq_min .. s_seq_max]].
          Writers assign seqs contiguously (restarting at 1 after a
          restart), so over any union of a run's segments this is 0;
          a positive value means part of the journal is missing - the
          lost-segment detector behind the crash-recovery smoke
          check. *)
  s_latency : Hist.summary option;
      (** Across every latency-bearing event; [None] if there are
          none. *)
  s_latency_by_event : (string * Hist.summary) list;
      (** Per [component.event], sorted. *)
  s_latency_by_outcome : (string * Hist.summary) list;
      (** Per ["outcome"] attribute value ([executed] / [cache_hit] /
          [rejected]), over latency-bearing events that carry one -
          portal submissions and vcload replay requests. Sorted. *)
  s_slowest : (Journal.event * float) list;
      (** The [top] slowest latency-bearing events, slowest first. *)
}

val summarize : ?top:int -> Journal.event list -> summary
(** Aggregate an event list ([top] slowest events kept, default 5). *)

(** {1 Spans} *)

type qspan = {
  q_name : string;
      (** [component/stage-attr], or [component/prefix] when the events
          carry no ["stage"] attribute. *)
  q_start_s : float;  (** Timestamp of the [.begin] event. *)
  q_duration_s : float;  (** End minus begin timestamp, clamped >= 0. *)
  q_children : qspan list;  (** Oldest first. *)
}

val spans_of : Journal.event list -> qspan list
(** Reconstruct the span forest from [*.begin]/[*.end] event pairs
    (matched on component, name prefix and the ["stage"] attribute when
    present). Events are first partitioned into independent streams -
    keyed by the [trace_id] attribute when present, else the [domain]
    attribute, else the component - so the interleaved output of
    concurrent requests in a multi-domain journal cannot mis-nest.
    Within a stream: a begin inside an open span nests under it, an end
    with no matching open span is ignored, and spans left open at the
    end of the log are closed at that stream's last seen timestamp.
    Roots across streams are ordered by start time. *)

(** {1 Request timelines (trace-id join)} *)

type request_timeline = {
  rt_trace : string;  (** The joining [trace_id]. *)
  rt_tool : string option;
  rt_session : string option;
  rt_outcome : string option;
      (** Server outcome when known (it distinguishes reject labels),
          else the client's. *)
  rt_client_s : float option;
      (** Client-observed latency ([vcload]'s coordinated-omission-
          corrected [latency_s]). *)
  rt_server_s : float option;  (** Server [total_s]: admit to reply. *)
  rt_wire_s : float option;
      (** Client minus server time, clamped [>= 0] - transport,
          serialization and scheduling overhead outside the server. *)
  rt_phases : (string * float) list;
      (** Server-side phase durations ([queue], [cache], [execute],
          [reply], ...), oldest first. *)
  rt_client : bool;  (** Seen in a client journal. *)
  rt_server : bool;  (** Seen in a server journal. *)
}

type request_join = {
  rj_timelines : request_timeline list;  (** First-appearance order. *)
  rj_client_total : int;
  rj_server_total : int;
  rj_matched : int;  (** Timelines seen on both sides. *)
  rj_match_rate : float;
      (** [matched / client_total]; [1.0] when there are no client
          events (a server-only journal is vacuously joined). *)
}

val join_requests : Journal.event list -> request_join
(** Join client- and server-side events by their [trace_id] attr - feed
    it [load_files [client.jsonl; server.jsonl]]. Client side: [vcload]
    ["replay.request"] events. Server side: ["request.replied"] events
    (with [total_s] and [phase.*] attrs), plus ["request.admitted"] /
    ["request.dequeued"] / ["job.rejected.*"] so shed or half-finished
    requests still join. *)

val phase_breakdown : request_join -> (string * Hist.summary) list
(** Aggregate percentiles per phase across all timelines, in canonical
    order: the server phases ([queue], [cache], [execute], [reply]),
    then the derived [server] / [wire] / [client] end-to-end rows, then
    any unknown phases alphabetically. *)

(** {1 Funnel} *)

type funnel_stage = { f_stage : string; f_count : int }

val funnel_of : Journal.event list -> funnel_stage list
(** The ["funnel.stage"] events (attributes [stage], [count]) in log
    order - what [Mooc.Cohort.simulate] emits, echoing the paper's
    Fig. 8 participation funnel. *)

(** {1 Renderers}

    Text renderers produce human-readable reports; the [_to_json]
    renderers produce machine-readable documents through {!Json} (these
    are what [vcstat --format json] prints). *)

val render_latency_line : string -> Hist.summary -> string
(** One aligned [name count p50 p90 p99 max] row (milliseconds) - the
    row format shared by {!render_summary} and the vcload replay
    report. *)

val render_summary : summary -> string
val render_spans : qspan list -> string
(** Indented text flamegraph: one line per span with duration and an
    ASCII bar scaled to the total of the root spans. *)

val render_funnel : funnel_stage list -> string
(** One line per stage with the count, percent-of-start,
    percent-of-previous and a proportional bar. *)

val latency_json : Hist.summary -> string
(** One latency object: [count], [mean_s], [p50_s], [p90_s], [p99_s]
    and [max_s] - the shape shared by {!summary_to_json},
    {!requests_to_json} and the [vcload] replay report. *)

val summary_to_json : summary -> string
(** Fields [events], [errors], [error_rate], [seq] (an object with
    [min]/[max]/[distinct]/[gaps]), [by_component],
    [by_event], [by_severity], [latency] (an object keyed ["all"] plus
    one entry per [component.event], each with
    [count]/[mean_s]/[p50_s]/[p90_s]/[p99_s]/[max_s]),
    [latency_by_outcome] (same stats objects keyed by outcome) and
    [slowest]. *)

val spans_to_json : qspan list -> string
val funnel_to_json : funnel_stage list -> string

val render_requests : ?top:int -> request_join -> string
(** Join counts, the per-phase latency table, and the [top] (default 5)
    slowest request timelines - what [vcstat request] prints. *)

val requests_to_json : ?top:int -> request_join -> string
(** Fields [client_requests], [server_requests], [matched],
    [match_rate], [phases] (one {!latency_json} object per phase, keys
    as in {!phase_breakdown}) and [slowest] (per-request timelines with
    [trace_id], [tool], [outcome], [client_s]/[server_s]/[wire_s] and a
    [phases] object). *)

val profile_folded : Journal.event list -> int * (string * int) list
(** Rebuild the continuous profiler's folded-stack aggregate from its
    [profile.sample] journal events ({!Profile.tick} with
    [journal:true]): the number of distinct sampler ticks seen, and the
    stacks with their total sample counts, most samples first (then by
    name). What [vcstat flame] renders. *)
