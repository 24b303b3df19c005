(* Planet-scale cohort streaming and the submission-trace generator:
   constant-memory generation at 1M+ participants, byte-identical traces
   under a fixed seed, the deadline-spike burst shape, the tool mix, and
   the guarantee that every generated upload is valid for its tool. *)

open Helpers
module Cohort = Vc_mooc.Cohort
module Trace = Vc_mooc.Trace
module Portal = Vc_mooc.Portal

(* ------------------------------------------------------------------ *)
(* streaming cohort generation                                         *)
(* ------------------------------------------------------------------ *)

let cohort_tests =
  [
    tc "iter_participants matches simulate draw for draw" (fun () ->
        Vc_util.Journal.clear ();
        let params = { Cohort.paper_params with Cohort.registered = 5_000 } in
        let materialized = Cohort.simulate ~seed:42 params in
        let streamed = ref [] in
        Cohort.iter_participants ~seed:42 params (fun p ->
            streamed := p :: !streamed);
        check Alcotest.bool "identical cohorts" true
          (materialized = List.rev !streamed));
    tc "streamed_funnel equals funnel_of simulate" (fun () ->
        Vc_util.Journal.clear ();
        let params = { Cohort.paper_params with Cohort.registered = 20_000 } in
        let f1 = Cohort.funnel_of (Cohort.simulate ~seed:7 params) in
        let f2 = Cohort.streamed_funnel ~seed:7 params in
        check Alcotest.bool "same funnel" true (f1 = f2));
    tc "1M+ participants stream at O(1) memory" (fun () ->
        let params =
          { Cohort.paper_params with Cohort.registered = 1_200_000 }
        in
        Gc.full_major ();
        let before = Gc.((stat ()).live_words) in
        let f = Cohort.streamed_funnel ~seed:1 params in
        Gc.full_major ();
        let after = Gc.((stat ()).live_words) in
        check Alcotest.bool "funnel is plausible" true
          (f.Cohort.registered = 1_200_000
          && f.Cohort.watched_video > 0
          && f.Cohort.certificates < f.Cohort.took_final);
        (* a materialized cohort is >= 7 words per participant (~8.4M
           words); streaming must leave the heap essentially unchanged *)
        let growth = after - before in
        check Alcotest.bool
          (Printf.sprintf "heap growth %d words stays constant" growth)
          true
          (growth < 100_000));
    tc "funnel stages are monotone non-increasing" (fun () ->
        let params = { Cohort.paper_params with Cohort.registered = 50_000 } in
        let f = Cohort.streamed_funnel ~seed:3 params in
        check Alcotest.bool "monotone" true
          (f.Cohort.registered >= f.Cohort.watched_video
          && f.Cohort.watched_video >= f.Cohort.did_homework
          && f.Cohort.did_homework >= f.Cohort.tried_software
          && f.Cohort.did_homework >= f.Cohort.took_final
          && f.Cohort.took_final >= f.Cohort.certificates));
  ]

(* ------------------------------------------------------------------ *)
(* trace generation                                                    *)
(* ------------------------------------------------------------------ *)

let small_spec =
  {
    Trace.tr_seed = 11;
    tr_duration_s = 10.0;
    tr_rate_rps = 400.0;
    tr_sessions = 500;
    tr_mix = Trace.default_mix;
    tr_variants = 64;
    tr_resubmit = 0.8;
    tr_spike = Some { Trace.sp_start = 0.4; sp_len = 0.2; sp_factor = 4.0 };
  }

let render spec =
  let buf = Buffer.create 4096 in
  Trace.iter spec (fun it ->
      Buffer.add_string buf (Trace.render_item it);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let trace_tests =
  [
    tc "same seed, byte-identical trace" (fun () ->
        check Alcotest.string "byte identical" (render small_spec)
          (render small_spec));
    tc "different seed, different trace" (fun () ->
        check Alcotest.bool "differs" true
          (render small_spec <> render { small_spec with Trace.tr_seed = 12 }));
    tc "items are time-ordered with increasing seq" (fun () ->
        let last_t = ref (-1.0) and last_seq = ref (-1) in
        Trace.iter small_spec (fun it ->
            check Alcotest.bool "time monotone" true (it.Trace.it_time_s >= !last_t);
            check Alcotest.int "seq" (!last_seq + 1) it.Trace.it_seq;
            last_t := it.Trace.it_time_s;
            last_seq := it.Trace.it_seq);
        check Alcotest.bool "non-empty" true (!last_seq > 0));
    tc "item count tracks the expected offered load" (fun () ->
        let n = ref 0 in
        Trace.iter small_spec (fun _ -> incr n);
        let expected = Trace.expected_items small_spec in
        (* Poisson sd is sqrt(expected) ~ 68; allow 5 sigma *)
        let slack = 5 *
          int_of_float (sqrt (float_of_int expected)) in
        check Alcotest.bool
          (Printf.sprintf "%d items vs %d expected" !n expected)
          true
          (abs (!n - expected) <= slack));
    tc "deadline spike multiplies the in-window arrival rate" (fun () ->
        let spike = { Trace.sp_start = 0.4; sp_len = 0.2; sp_factor = 4.0 } in
        let spec = { small_spec with Trace.tr_spike = Some spike } in
        let t0 = spike.Trace.sp_start *. spec.Trace.tr_duration_s in
        let t1 =
          (spike.Trace.sp_start +. spike.Trace.sp_len)
          *. spec.Trace.tr_duration_s
        in
        let inside = ref 0 and outside = ref 0 in
        Trace.iter spec (fun it ->
            if it.Trace.it_time_s >= t0 && it.Trace.it_time_s < t1 then
              incr inside
            else incr outside);
        (* in-window rate density vs out-of-window density: the ratio is
           sp_factor in expectation (4.0); demand at least 3x *)
        let window = t1 -. t0 in
        let density_in = float_of_int !inside /. window in
        let density_out =
          float_of_int !outside /. (spec.Trace.tr_duration_s -. window)
        in
        check Alcotest.bool
          (Printf.sprintf "spike density ratio %.2f" (density_in /. density_out))
          true
          (density_in > 3.0 *. density_out));
    tc "no spike means uniform density" (fun () ->
        let spec = { small_spec with Trace.tr_spike = None } in
        let first_half = ref 0 and second_half = ref 0 in
        Trace.iter spec (fun it ->
            if it.Trace.it_time_s < spec.Trace.tr_duration_s /. 2.0 then
              incr first_half
            else incr second_half);
        let ratio = float_of_int !first_half /. float_of_int !second_half in
        check Alcotest.bool
          (Printf.sprintf "half ratio %.2f" ratio)
          true
          (ratio > 0.85 && ratio < 1.15));
    tc "tool mix follows the configured weights" (fun () ->
        let counts = Hashtbl.create 8 in
        let total = ref 0 in
        Trace.iter small_spec (fun it ->
            incr total;
            Hashtbl.replace counts it.Trace.it_tool
              (1 + try Hashtbl.find counts it.Trace.it_tool with Not_found -> 0));
        List.iter
          (fun (tool, weight) ->
            let got =
              float_of_int (try Hashtbl.find counts tool with Not_found -> 0)
              /. float_of_int !total
            in
            check Alcotest.bool
              (Printf.sprintf "%s share %.3f vs weight %.3f" tool got weight)
              true
              (Float.abs (got -. weight) < 0.05))
          small_spec.Trace.tr_mix);
    tc "resubmission makes the trace cache-hit dominant" (fun () ->
        let distinct = Hashtbl.create 64 and total = ref 0 in
        Trace.iter small_spec (fun it ->
            incr total;
            Hashtbl.replace distinct (it.Trace.it_tool, it.Trace.it_input) ());
        (* thousands of submissions collapse to a few hundred distinct
           uploads: the repeat rate a content-addressed cache exploits *)
        check Alcotest.bool
          (Printf.sprintf "%d distinct of %d" (Hashtbl.length distinct) !total)
          true
          (Hashtbl.length distinct * 5 < !total));
    tc "of_cohort sizes sessions from the tried-software stage" (fun () ->
        let params = { Cohort.paper_params with Cohort.registered = 30_000 } in
        let spec = Trace.of_cohort ~seed:5 ~duration_s:1.0 ~rate_rps:10.0 params in
        let funnel = Cohort.streamed_funnel ~seed:5 params in
        check Alcotest.int "sessions = tried_software"
          funnel.Cohort.tried_software spec.Trace.tr_sessions;
        check Alcotest.bool "plausible population" true
          (spec.Trace.tr_sessions > 100));
  ]

(* ------------------------------------------------------------------ *)
(* every generated upload is valid for its tool                        *)
(* ------------------------------------------------------------------ *)

let validity_tests =
  [
    tc "input_of is valid for all five tools across variants" (fun () ->
        Vc_util.Journal.clear ();
        Portal.clear_cache ();
        let session = Portal.create_session () in
        List.iter
          (fun (tool_name, _) ->
            let tool =
              match Portal.find_tool tool_name with
              | Some t -> t
              | None -> Alcotest.failf "unknown tool %s" tool_name
            in
            for variant = 0 to 7 do
              let input = Trace.input_of tool_name variant in
              match Portal.submit_result session tool input with
              | Portal.Executed out | Portal.Cache_hit out ->
                check Alcotest.bool
                  (Printf.sprintf "%s variant %d output ok" tool_name variant)
                  false
                  (String.length out >= 6 && String.sub out 0 6 = "error:")
              | Portal.Rejected r ->
                Alcotest.failf "%s variant %d rejected: %s" tool_name variant
                  (Portal.reason_message r)
            done)
          Trace.default_mix;
        Portal.clear_cache ());
    tc "input_of is deterministic" (fun () ->
        check Alcotest.string "same input" (Trace.input_of "minisat" 3)
          (Trace.input_of "minisat" 3));
    tc "input_of rejects unknown tools" (fun () ->
        check Alcotest.bool "raises" true
          (try
             ignore (Trace.input_of "nope" 0);
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* end-to-end tracing: an 8-domain replay joins by trace id            *)
(* ------------------------------------------------------------------ *)

module Server = Vc_mooc.Server
module Wire = Vc_mooc.Wire
module Loadgen = Vc_mooc.Loadgen
module Q = Vc_util.Journal_query

let tracing_tests =
  [
    tc "8-domain replay: >= 99% of submissions join by trace id" (fun () ->
        (* client and server run in one process here, so the shared
           flight recorder sees both journals; size it for the whole
           run so no request's events rotate out before the join *)
        let old_ring = Vc_util.Journal.ring_capacity () in
        Vc_util.Journal.set_ring_capacity 100_000;
        Fun.protect
          ~finally:(fun () -> Vc_util.Journal.set_ring_capacity old_ring)
          (fun () ->
            Vc_util.Journal.clear ();
            Portal.clear_cache ();
            let spec =
              {
                small_spec with
                Trace.tr_seed = 31;
                tr_duration_s = 1.5;
                tr_rate_rps = 400.0;
                tr_spike = None;
              }
            in
            let server =
              Server.start
                ~config:
                  {
                    Server.default_config with
                    Server.workers = 4;
                    queue_capacity = 256;
                  }
                ()
            in
            let listener = Wire.listen ~port:0 () in
            let acceptor =
              Domain.spawn (fun () ->
                  Wire.serve listener ~submit:(Server.submit server))
            in
            let report =
              Loadgen.run
                {
                  Loadgen.lg_host = "127.0.0.1";
                  lg_port = Wire.port listener;
                  lg_clients = 8;
                  lg_spec = spec;
                  lg_time_scale = 1.0;
                }
            in
            Wire.shutdown listener;
            Domain.join acceptor;
            ignore (Wire.drain_connections listener);
            Server.stop server;
            check Alcotest.bool "replay ran" true (report.Loadgen.rp_total > 0);
            check Alcotest.int "report publishes the minting seed" 31
              report.Loadgen.rp_seed;
            check Alcotest.string "report publishes the scheme"
              Vc_util.Trace_ctx.scheme report.Loadgen.rp_trace_scheme;
            let join = Q.join_requests (Vc_util.Journal.events ()) in
            check Alcotest.int "every replayed request journaled client-side"
              report.Loadgen.rp_total join.Q.rj_client_total;
            check Alcotest.bool
              (Printf.sprintf "match rate %.4f >= 0.99" join.Q.rj_match_rate)
              true
              (join.Q.rj_match_rate >= 0.99);
            (* the matched pairs carry a usable per-phase breakdown *)
            let phases = Q.phase_breakdown join in
            List.iter
              (fun name ->
                match List.assoc_opt name phases with
                | Some s ->
                  check Alcotest.bool (name ^ " has samples") true
                    (s.Vc_util.Hist.count > 0)
                | None -> Alcotest.failf "no %s phase in the breakdown" name)
              [ "queue"; "cache"; "reply"; "wire" ]));
  ]

let () =
  Alcotest.run "trace"
    [
      ("cohort-streaming", cohort_tests);
      ("trace-generation", trace_tests);
      ("input-validity", validity_tests);
      ("request-tracing", tracing_tests);
    ]
