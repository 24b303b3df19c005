(* Clocks, percentiles and layer subtraction shared by the end-to-end
   and the traced run. Every duration in the benchmark comes from the
   monotonic clock below, never from the wall clock, so an NTP step
   during a run cannot bend a latency. *)

let epoch = Monotonic_clock.now ()

(* Seconds since the benchmark process started, from CLOCK_MONOTONIC. *)
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) epoch) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run [f] with an idle-class spinner on every CPU, stopped on every
   way out. On the 2-vCPU host the open loops leave the virtual CPUs
   halted between requests, and how long the hypervisor then takes to
   wake one follows the neighbours' load: p50 tracked the host's steal
   time instead of the program (README, Halted vCPUs). The spinners
   give way at once to any thread that wakes, as guest halt-polling
   does, so each request still pays its own context switches. The
   closed loop keeps the CPUs busy by itself and runs without them:
   there they cost the servers a fifth of their speed. *)
external idle_spin_start : unit -> int = "perfbench_idle_spin_start"
external idle_spin_stop : unit -> unit = "perfbench_idle_spin_stop"

let with_idle_cpus f =
  ignore (idle_spin_start ());
  Fun.protect ~finally:idle_spin_stop f

(* Samples a reported percentile must leave above it: a p99 from 200
   samples is the second-largest value, which is noise, not a tail. *)
let min_tail = 10

(* Nearest-rank percentile of [xs] (any order), or [None] when fewer
   than [min_tail] samples lie above the rank. *)
let percentile xs p =
  let n = Array.length xs in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  if n = 0 || n - rank < min_tail then None
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    Some s.(rank - 1)
  end

let median xs = percentile xs 50.

(* Plain median of a few replicates (set-up times), where no tail is
   reported and [percentile]'s sample rule does not apply. *)
let middle xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Measure.middle: no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Self time of a layer: for request [i], [parent.(i)] is the time of
   the call into the layer and [child.(i)] the part of it spent in the
   layer below (a nested call, or the same request measured on the
   layer below). The layer's self time is the median of the per-request
   differences: the self time of a typical request, which is never
   negative when the child calls are nested in the parent calls. *)
let self_time ~parent ~child =
  if Array.length parent <> Array.length child then
    invalid_arg "Measure.self_time: unequal streams";
  median (Array.mapi (fun i p -> p -. child.(i)) parent)

(* One metric of the final JSON line. *)
type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
