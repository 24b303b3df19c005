(* perfbench: the repo benchmark. See README.md in this directory.

   perfbench --workload NAME --seed N --seconds S --trace 0|1
             --slo-ms NAME=MS,... [--rate-rps R]

   Run from the checkout root, after run.sh has built the servers.

   With --trace 0 it runs the end-to-end measurement against the
   vcserve/vcfront binaries; with --trace 1 the traced in-process
   replay that gives the per-layer numbers. The last line of stdout is
   one JSON object; the exit code is 0 only for a valid run.
   --rate-rps overrides an open-loop workload's base offered load, for
   the rate sweep in README.md; the benchmark itself runs without it. *)

open Perfbench_lib

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --slo-ms NAME=MS,... [--rate-rps R]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let slo = ref [] and rate_rps = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: t :: rest -> trace := (match t with "0" -> Some false | "1" -> Some true | _ -> usage ()); go rest
    | "--rate-rps" :: r :: rest ->
      (match float_of_string_opt r with Some r when r > 0. -> rate_rps := Some r | _ -> usage ());
      go rest
    | "--slo-ms" :: spec :: rest ->
      slo :=
        List.map
          (fun kv ->
            match String.split_on_char '=' kv with
            | [ k; v ] -> (match float_of_string_opt v with Some v -> (k, v) | None -> usage ())
            | _ -> usage ())
          (String.split_on_char ',' spec);
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let name, seed, seconds, trace =
    match (!workload, !seed, !seconds, !trace) with
    | Some w, Some n, Some s, Some t when List.mem w Workload.names && s > 0. -> (w, n, s, t)
    | _ -> usage ()
  in
  let slo_ms = match List.assoc_opt name !slo with Some v -> v | None -> usage () in
  at_exit Children.cleanup;
  let bail _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    let rate_rps = !rate_rps in
    if trace then Traced.run ?rate_rps ~seed ~seconds ~slo_ms name
    else E2e.run ?rate_rps ~seed ~seconds ~slo_ms name
  with
  | valid, c, metrics ->
    if not valid then exit 4;
    print_endline
      (Measure.result_json ~correct:(c.E2e.wrong = 0) ~attempted:c.E2e.attempted
         ~failed:(c.E2e.attempted - c.E2e.ok) metrics)
  | exception e ->
    Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
    exit 3
