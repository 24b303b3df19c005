(** A bounded, mergeable latency histogram - the one latency
    distribution in the repository: {!Telemetry} timers, {!Timeseries}
    windowed percentiles, {!Journal_query} summaries and the [vcload]
    report all store samples here.

    The layout is fixed: values in seconds from [2^-20] (about 0.95 us)
    to [2^10] fall into 30 octaves of 32 linear sub-buckets each, plus
    an underflow bucket (below [2^-20], zero, negatives) and an
    overflow bucket. Besides the 962 bucket counts a histogram keeps an
    exact sum, sum of squares and max, so its size does not depend on
    the number of samples and {!add} is O(1) and allocates nothing.

    {b Error bound.} For samples in [[2^-20, 2^10)], {!quantile} picks
    the same nearest rank as {!Stats.percentile} and reports the
    midpoint of that sample's bucket: within {!relative_error} (1/64,
    about 1.6%) of the exact value. Below the layout a quantile reads
    0, above it the max. This is the log-bucketed design of DDSketch
    (Masson et al., VLDB 2019) and HdrHistogram. *)

type t

val relative_error : float
(** [1/64]: the bound on [|quantile h p - Stats.percentile xs p| /
    Stats.percentile xs p] for [h = of_list xs] with in-range values. *)

val create : unit -> t
val add : t -> float -> unit
val of_list : float list -> t

val count : t -> int
(** The number of samples (the bucket total), in O(buckets). *)

val sum : t -> float

val max : t -> float
(** The largest sample; [neg_infinity] when empty. For a {!diff}, the
    later snapshot's max - an upper bound on the window's. *)

val merge : t -> t -> t
(** A fresh histogram of both arguments' samples: [merge (of_list a)
    (of_list b)] has the buckets, count and max of [of_list (a @ b)]. *)

val diff : t -> t -> t
(** [diff cur prev]: the samples a cumulative histogram recorded after
    its earlier snapshot [prev] and up to [cur] - a window. *)

val quantile : t -> float -> float
(** [quantile h p], [p] in [[0, 100]], in O(buckets).
    @raise Invalid_argument on an empty histogram or [p] out of
    range. *)

type summary = {
  count : int;
  total_s : float;  (** Sum of all samples, seconds. *)
  mean_s : float;
  p50_s : float;  (** Nearest-rank, within {!relative_error}. *)
  p90_s : float;
  p99_s : float;
  max_s : float;
  stddev_s : float;  (** Population standard deviation. *)
}

val summary : t -> summary option
(** [None] when empty. Count, total, mean, max and stddev are exact;
    the percentiles are {!quantile}s capped at the exact max. *)

val buckets : t -> (float * int) list
(** [(upper_bound, cumulative_count)] at the 31 octave edges [2^-20,
    2^-19, ..., 2^10], each an exact union of buckets - the Prometheus
    [_bucket{le=...}] series. Overflow samples appear only in {!count}
    (the [+Inf] bucket). *)
