(* A fixed log-linear bucket layout over seconds. A value in
   [2^e, 2^(e+1)) lands in octave e, split into [sub] equal linear
   sub-buckets; octave and sub-bucket are read straight off the IEEE-754
   bits (the exponent, then the top [sub_bits] fraction bits) - Float.frexp
   without its tuple allocation. Bucket 0 is underflow (below 2^lo_exp,
   zero, negatives, nan); the last bucket is overflow (2^hi_exp and up).
   Sum, sum of squares and max are kept exactly in [stats]; the count is
   the bucket total, so it always agrees with the buckets a quantile
   walks, even when read while the owning domain adds. *)

let sub_bits = 5
let sub = 1 lsl sub_bits
let lo_exp = -20
let hi_exp = 10
let octaves = hi_exp - lo_exp
let n_buckets = (octaves * sub) + 2
let lowest = Float.ldexp 1.0 lo_exp
let highest = Float.ldexp 1.0 hi_exp

(* A bucket in octave e is 2^e / sub wide and holds values >= 2^e, so its
   midpoint is within 2^e / (2 sub) of each of them. *)
let relative_error = 1.0 /. float_of_int (2 * sub)

type t = { counts : int array; stats : Float.Array.t }

(* slots of [stats] *)
let s_sum = 0
let s_sq = 1
let s_max = 2

let create () =
  let stats = Float.Array.make 3 0.0 in
  Float.Array.set stats s_max neg_infinity;
  { counts = Array.make n_buckets 0; stats }

let index v =
  if not (v >= lowest) then 0
  else if v >= highest then n_buckets - 1
  else
    let bits = Int64.bits_of_float v in
    let e = Int64.to_int (Int64.shift_right_logical bits 52) - 1023 in
    let f = Int64.to_int (Int64.shift_right_logical bits (52 - sub_bits)) in
    1 + ((e - lo_exp) * sub) + (f land (sub - 1))

let add h v =
  let i = index v in
  h.counts.(i) <- h.counts.(i) + 1;
  let s = h.stats in
  Float.Array.set s s_sum (Float.Array.get s s_sum +. v);
  Float.Array.set s s_sq (Float.Array.get s s_sq +. (v *. v));
  if v > Float.Array.get s s_max then Float.Array.set s s_max v

let of_list vs =
  let h = create () in
  List.iter (add h) vs;
  h

let count h = Array.fold_left ( + ) 0 h.counts
let sum h = Float.Array.get h.stats s_sum
let max h = Float.Array.get h.stats s_max

let merge a b =
  let stats = Float.Array.map2 ( +. ) a.stats b.stats in
  Float.Array.set stats s_max (Float.max (max a) (max b));
  { counts = Array.map2 ( + ) a.counts b.counts; stats }

let diff cur prev =
  let stats = Float.Array.map2 ( -. ) cur.stats prev.stats in
  Float.Array.set stats s_max (max cur);
  { counts = Array.map2 ( - ) cur.counts prev.counts; stats }

(* What a bucket reports: its midpoint; 0 below the layout, the max
   above it. *)
let representative h i =
  if i = 0 then 0.0
  else if i = n_buckets - 1 then max h
  else
    let k = i - 1 in
    Float.ldexp
      (1.0 +. ((float_of_int (k mod sub) +. 0.5) /. float_of_int sub))
      (lo_exp + (k / sub))

let quantile h p =
  if p < 0.0 || p > 100.0 then invalid_arg "Hist.quantile: p out of range";
  let n = count h in
  if n = 0 then invalid_arg "Hist.quantile: empty histogram";
  (* the nearest rank of Stats.percentile, clamped to [1, n] *)
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let rank = Int.max 1 (Int.min n rank) in
  let rec find i seen =
    let seen = seen + h.counts.(i) in
    if seen >= rank then i else find (i + 1) seen
  in
  representative h (find 0 0)

type summary = {
  count : int;
  total_s : float;
  mean_s : float;
  p50_s : float;
  p90_s : float;
  p99_s : float;
  max_s : float;
  stddev_s : float;
}

let summary h =
  let n = count h in
  if n = 0 then None
  else
    let total = sum h and mx = max h and fn = float_of_int n in
    let mean = total /. fn in
    let var = (Float.Array.get h.stats s_sq /. fn) -. (mean *. mean) in
    (* a true quantile never exceeds the exact max *)
    let q p = Float.min (quantile h p) mx in
    Some
      {
        count = n;
        total_s = total;
        mean_s = mean;
        p50_s = q 50.0;
        p90_s = q 90.0;
        p99_s = q 99.0;
        max_s = mx;
        stddev_s = sqrt (Float.max 0.0 var);
      }

let buckets h =
  (* edge o closes octave o - 1, whose buckets end at index o * sub *)
  let cum = ref h.counts.(0) in
  List.init (octaves + 1) (fun o ->
      if o > 0 then
        for i = ((o - 1) * sub) + 1 to o * sub do
          cum := !cum + h.counts.(i)
        done;
      (Float.ldexp 1.0 (lo_exp + o), !cum))
