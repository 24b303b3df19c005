(** Request-scoped trace identity - the id that end-to-end request
    tracing propagates from [vcload] through the [vcserve] wire protocol
    into the portal and its kernels.

    A context is a short hex {e trace id} (minted from {!Rng}, or
    accepted from a client) and an optional parent id. Every journal
    event on the request's path carries the id as a [trace_id]
    attribute, which is what [vcstat request] joins client and server
    journals on.

    {b Propagation.} The server worker opens the request's root span
    with {!to_attrs} as its attrs ({!Span.with_}); code deeper in the
    stack, such as the portal, reads them back with {!Span.trace_attrs}
    instead of having the context threaded through every signature. The
    request's phase timeline is the root span's children
    ({!Span.child_durations}). *)

type t

(** {1 Minting and parsing} *)

val id_length : int
(** Length of a minted id (16 hex chars = 64 bits). *)

val scheme : string
(** Human-readable description of the deterministic minting scheme -
    [vcload] publishes this in its report header so a replay's ids can
    be re-derived after the fact. *)

val mint : Rng.t -> string
(** A fresh [id_length]-char lowercase-hex id from the generator. *)

val mint_deterministic : seed:int -> seq:int -> string
(** The id for submission [seq] of a replay seeded with [seed]:
    {!mint} over [Rng.create ((seed lsl 24) lxor seq)] (the {!scheme}).
    Pure - the same (seed, seq) always yields the same id. *)

val is_valid_id : string -> bool
(** Accept 4-64 lowercase hex chars - what the wire protocol admits as
    a [TRACE] operand. *)

val make : ?parent:string -> string -> t
(** Wrap an id (not validated) in a context. *)

val of_id : ?parent:string -> string -> t option
(** {!make} after {!is_valid_id}; [None] on an invalid id. *)

val to_attrs : t -> (string * string) list
(** [("trace_id", id)] plus [("trace_parent", p)] when present - the
    attrs every event on the request path carries. *)
