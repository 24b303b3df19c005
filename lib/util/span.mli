(** One ambient span stack per domain - the single primitive for "a
    named interval on this domain". Trace spans ([--trace]), continuous
    profiler frames ({!Profile}) and a request's phase timeline are all
    read off this one stack.

    {!with_} pushes a frame and pops it on return or exception; a closed
    span becomes a child of the frame that encloses it, so a server
    worker's ["worker"] span collects the portal's ["cache"] and
    ["execute"] children (and the tool-named span beneath ["execute"]).
    A request's trace id rides on its root frame's attrs ({!trace_attrs}),
    the Dapper shape: code deeper in the stack reads it instead of having
    it threaded through every signature.

    {b Bounded.} A closed root goes into its domain's ring of
    {!ring_capacity} spans, overwriting the oldest; a domain's ring moves
    into one process-wide ring of the same capacity when the domain
    exits. Memory is therefore flat however many requests a process
    serves, and {!roots} reports the most recent spans only.

    {b Domain safety.} Only the owning domain pushes, pops and fills its
    ring. The stack is an immutable list held in a mutable field, so the
    profiler's unlocked cross-domain read ({!stacks}) sees some
    previously published stack - at worst one push or pop stale, never
    torn. {!roots} reads rings the same way. *)

type t = {
  name : string;
  start_s : float;  (** {!Clock.now} when the span was opened. *)
  duration_s : float;
      (** Clamped at zero: the clock is wall time, not monotonic. *)
  attrs : (string * string) list;
      (** The attrs it was opened with; a span whose body raised also
          carries an [("error", _)] attr. *)
  children : t list;  (** Closed child spans, oldest first. *)
}

val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f ()] inside a new frame named [name] on the
    calling domain's stack. The span is recorded whether [f] returns or
    raises; exceptions propagate with their backtrace. *)

val child_durations : unit -> (string * float) list
(** [(name, duration_s)] of each closed child of the innermost open
    frame, oldest first; [[]] outside any frame. The server reads its
    request phases (["cache"], ["execute"]) here. *)

val trace_attrs : unit -> (string * string) list
(** The [trace_id] / [trace_parent] attrs of the outermost open frame
    (see {!Trace_ctx.to_attrs}); [[]] outside a traced frame. *)

val ring_capacity : int
(** [128]: closed roots kept per domain, and for exited domains. *)

val roots : unit -> t list
(** The most recent closed roots of every domain (at most
    {!ring_capacity} per live domain plus as many from exited ones),
    ordered by start time. *)

val stacks : unit -> string list list
(** Each live domain's open frame names, outermost first - what the
    profiler samples. A domain appears once it first touches its stack
    (or calls {!register}) and disappears when it exits. *)

val register : unit -> unit
(** Make the calling domain visible to {!stacks} before it opens a
    frame, so its idle time is sampled from the start. *)

val reset : unit -> unit
(** Empty every ring and the calling domain's own stack (other domains
    own theirs). Tests and benches only; call while other domains are
    quiescent. *)
