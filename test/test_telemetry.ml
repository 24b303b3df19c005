open Helpers
module T = Vc_util.Telemetry
module Span = Vc_util.Span
module Portal = Vc_mooc.Portal

(* Probes register at module-initialization time, which happens when the
   kernel's compilation unit is linked; reference each one so this test
   binary links all four. *)
let () =
  ignore Vc_sat.Solver.stats;
  ignore Vc_bdd.Bdd.stats;
  ignore Vc_route.Maze.stats;
  ignore Vc_place.Annealing.stats

(* The renderer output is validated against the shared strict parser
   (Vc_util.Json), which is itself exercised in test_util.ml. *)
module Json = Vc_util.Json
module Journal = Vc_util.Journal
module Regress = Vc_util.Regress

let parse_json = Json.parse
let obj_field = Json.member

(* Timer and journal percentiles come from Vc_util.Hist: within its
   stated relative error of the exact nearest-rank Stats.percentile over
   the same samples. *)
let check_quantile what samples p actual =
  let exact = Vc_util.Stats.percentile samples p in
  if Float.abs (actual -. exact) > Vc_util.Hist.relative_error *. exact then
    Alcotest.failf "%s: %g is not within %g of the exact %g" what actual
      Vc_util.Hist.relative_error exact

(* Install a clock returning the given readings in order (then repeating
   the last one), run [f], and restore the wall clock. *)
let with_fake_clock readings f =
  let remaining = ref readings and last = ref 0.0 in
  T.set_clock (fun () ->
      match !remaining with
      | [] -> !last
      | t :: rest ->
        remaining := rest;
        last := t;
        t);
  Fun.protect ~finally:(fun () -> T.set_clock Unix.gettimeofday) f

(* ------------------------------------------------------------------ *)
(* telemetry core                                                      *)
(* ------------------------------------------------------------------ *)

let telemetry_tests =
  [
    tc "counters create, add and read back" (fun () ->
        T.reset ();
        check Alcotest.int "absent is 0" 0 (T.counter "t.c");
        T.incr "t.c";
        T.incr ~by:4 "t.c";
        check Alcotest.int "1 + 4" 5 (T.counter "t.c");
        check Alcotest.bool "listed" true (List.mem_assoc "t.c" (T.counters ())));
    tc "timers summarize samples" (fun () ->
        T.reset ();
        check Alcotest.bool "absent" true (T.timer "t.t" = None);
        T.observe "t.t" 0.010;
        T.observe "t.t" 0.020;
        T.observe "t.t" 0.030;
        match T.timer "t.t" with
        | None -> Alcotest.fail "timer vanished"
        | Some s ->
          check Alcotest.int "count" 3 s.T.count;
          check (Alcotest.float 1e-9) "total" 0.060 s.T.total_s;
          check_quantile "p50" [ 0.010; 0.020; 0.030 ] 50.0 s.T.p50_s;
          check (Alcotest.float 1e-9) "max" 0.030 s.T.max_s);
    tc "time records one sample per call and returns the value" (fun () ->
        T.reset ();
        let v = T.time "t.f" (fun () -> 41 + 1) in
        check Alcotest.int "value" 42 v;
        ignore (T.time "t.f" (fun () -> 0));
        match T.timer "t.f" with
        | Some s -> check Alcotest.int "two samples" 2 s.T.count
        | None -> Alcotest.fail "no samples");
    tc "timer memory stays flat over 200k samples" (fun () ->
        T.reset ();
        (* warm the name so its per-domain histogram already exists *)
        T.observe "t.flat" 0.001;
        Gc.full_major ();
        let before = (Gc.stat ()).Gc.live_words in
        for i = 1 to 200_000 do
          T.observe "t.flat" (float_of_int (i mod 1000) *. 1e-5)
        done;
        Gc.full_major ();
        let grew = (Gc.stat ()).Gc.live_words - before in
        if grew >= 10_000 then
          Alcotest.failf "live heap grew by %d words over 200k samples" grew;
        check Alcotest.bool "every sample counted" true
          (match T.timer "t.flat" with
          | Some s -> s.T.count = 200_001
          | None -> false));
    tc "time records the sample even when f raises" (fun () ->
        T.reset ();
        (try T.time "t.boom" (fun () -> failwith "boom") with Failure _ -> ());
        match T.timer "t.boom" with
        | Some s -> check Alcotest.int "one sample" 1 s.T.count
        | None -> Alcotest.fail "no sample");
    tc "spans nest into a tree" (fun () ->
        T.reset ();
        let v =
          Span.with_ "outer" (fun () ->
              ignore (Span.with_ "inner1" (fun () -> 1));
              ignore (Span.with_ "inner2" (fun () -> 2));
              7)
        in
        check Alcotest.int "value" 7 v;
        match Span.roots () with
        | [ s ] ->
          check Alcotest.string "root" "outer" s.Span.name;
          check
            Alcotest.(list string)
            "children in order" [ "inner1"; "inner2" ]
            (List.map (fun c -> c.Span.name) s.Span.children)
        | l -> Alcotest.fail (Printf.sprintf "%d roots" (List.length l)));
    tc "a raising span is recorded with an error attribute" (fun () ->
        T.reset ();
        (try Span.with_ "bad" (fun () -> failwith "oops") with Failure _ -> ());
        match Span.roots () with
        | [ s ] ->
          check Alcotest.bool "error attr" true
            (List.mem_assoc "error" s.Span.attrs)
        | _ -> Alcotest.fail "expected exactly one root span");
    tc "probes are pulled at render time" (fun () ->
        let v = ref 1 in
        T.register_probe "test.probe" (fun () -> [ ("v", !v) ]);
        let read () = List.assoc "test.probe" (T.probes ()) in
        check Alcotest.(list (pair string int)) "initial" [ ("v", 1) ] (read ());
        v := 5;
        check Alcotest.(list (pair string int)) "updated" [ ("v", 5) ] (read ()));
    tc "kernel probes are registered" (fun () ->
        let names = List.map fst (T.probes ()) in
        List.iter
          (fun n -> check Alcotest.bool n true (List.mem n names))
          [ "sat.solver"; "bdd"; "route.maze"; "place.annealing" ]);
    tc "report mentions counters, timers and probes" (fun () ->
        T.reset ();
        T.incr "report.counter";
        T.observe "report.timer" 0.001;
        let r = T.report () in
        let contains needle =
          let nl = String.length needle and hl = String.length r in
          let rec go i = i + nl <= hl && (String.sub r i nl = needle || go (i + 1)) in
          go 0
        in
        List.iter
          (fun needle -> check Alcotest.bool needle true (contains needle))
          [ "report.counter"; "report.timer"; "sat.solver" ]);
    tc "reset clears counters, timers and spans but keeps probes" (fun () ->
        T.incr "gone";
        T.observe "gone.t" 1.0;
        ignore (Span.with_ "gone.s" (fun () -> ()));
        T.reset ();
        check Alcotest.int "counter" 0 (T.counter "gone");
        check Alcotest.bool "timer" true (T.timer "gone.t" = None);
        check Alcotest.int "spans" 0 (List.length (Span.roots ()));
        check Alcotest.bool "probes kept" true (T.probes () <> []));
  ]

(* ------------------------------------------------------------------ *)
(* JSON renderers                                                      *)
(* ------------------------------------------------------------------ *)

let json_tests =
  [
    tc "to_json parses and carries the counters" (fun () ->
        T.reset ();
        T.incr ~by:3 "j.count";
        T.observe "j.timer" 0.002;
        let j = parse_json (T.to_json ()) in
        (match obj_field "counters" j with
        | Some (Json.Obj cs) ->
          check Alcotest.bool "counter present" true
            (match List.assoc_opt "j.count" cs with
            | Some (Json.Num 3.0) -> true
            | _ -> false)
        | _ -> Alcotest.fail "no counters object");
        match obj_field "timers" j with
        | Some (Json.Obj ts) ->
          check Alcotest.bool "timer has count" true
            (match List.assoc_opt "j.timer" ts with
            | Some t -> obj_field "count" t = Some (Json.Num 1.0)
            | None -> false)
        | _ -> Alcotest.fail "no timers object");
    tc "spans_to_json parses with nesting and attrs" (fun () ->
        T.reset ();
        ignore
          (Span.with_ ~attrs:[ ("k", "v\"quoted\"") ] "root" (fun () ->
               Span.with_ "child" (fun () -> ())));
        let j = parse_json (T.spans_to_json ()) in
        match obj_field "spans" j with
        | Some (Json.Arr [ root ]) ->
          check Alcotest.bool "name" true
            (obj_field "name" root = Some (Json.Str "root"));
          (match obj_field "attrs" root with
          | Some (Json.Obj [ ("k", Json.Str s) ]) ->
            check Alcotest.string "escaped attr round-trips" "v\"quoted\"" s
          | _ -> Alcotest.fail "attrs");
          (match obj_field "children" root with
          | Some (Json.Arr [ child ]) ->
            check Alcotest.bool "child name" true
              (obj_field "name" child = Some (Json.Str "child"))
          | _ -> Alcotest.fail "children")
        | _ -> Alcotest.fail "expected one root span");
    tc "cli_parse strips the flags and leaves the rest" (fun () ->
        let o =
          T.cli_parse
            [|
              "prog"; "--stats"; "input.txt"; "--trace"; "t.json";
              "--journal"; "j.jsonl"; "--metrics-port"; "9100"; "-x";
            |]
        in
        check
          Alcotest.(array string)
          "filtered"
          [| "prog"; "input.txt"; "-x" |]
          o.T.cli_argv;
        check Alcotest.bool "stats seen" true o.T.cli_stats;
        check Alcotest.(option string) "trace file" (Some "t.json") o.T.cli_trace;
        check
          Alcotest.(option string)
          "journal file" (Some "j.jsonl") o.T.cli_journal;
        check Alcotest.(option int) "metrics port" (Some 9100)
          o.T.cli_metrics_port);
    tc "cli_parse without flags requests nothing" (fun () ->
        let o = T.cli_parse [| "prog"; "input.txt" |] in
        check
          Alcotest.(array string)
          "untouched" [| "prog"; "input.txt" |] o.T.cli_argv;
        check Alcotest.bool "no stats" false o.T.cli_stats;
        check Alcotest.(option string) "no trace" None o.T.cli_trace;
        check Alcotest.(option string) "no journal" None o.T.cli_journal;
        check Alcotest.(option int) "no metrics port" None o.T.cli_metrics_port);
  ]

(* ------------------------------------------------------------------ *)
(* clock clamping (the wall clock is not monotonic)                    *)
(* ------------------------------------------------------------------ *)

let clock_tests =
  [
    tc "a normal forward clock measures the difference" (fun () ->
        with_fake_clock [ 10.0; 10.5 ] (fun () ->
            T.reset ();
            ignore (T.time "clk.fwd" (fun () -> ()));
            match T.timer "clk.fwd" with
            | Some s -> check (Alcotest.float 1e-9) "0.5s" 0.5 s.T.total_s
            | None -> Alcotest.fail "no sample"));
    tc "a backwards clock clamps timer samples to zero" (fun () ->
        with_fake_clock [ 100.0; 50.0 ] (fun () ->
            T.reset ();
            ignore (T.time "clk.back" (fun () -> ()));
            match T.timer "clk.back" with
            | Some s ->
              check (Alcotest.float 0.0) "clamped" 0.0 s.T.total_s;
              check Alcotest.bool "non-negative" true (s.T.max_s >= 0.0)
            | None -> Alcotest.fail "no sample"));
    tc "a backwards clock clamps even when the body raises" (fun () ->
        with_fake_clock [ 100.0; 50.0 ] (fun () ->
            T.reset ();
            (try T.time "clk.raise" (fun () -> failwith "boom")
             with Failure _ -> ());
            match T.timer "clk.raise" with
            | Some s -> check (Alcotest.float 0.0) "clamped" 0.0 s.T.total_s
            | None -> Alcotest.fail "no sample"));
    tc "a backwards clock clamps span durations to zero" (fun () ->
        with_fake_clock [ 100.0; 50.0 ] (fun () ->
            T.reset ();
            ignore (Span.with_ "clk.span" (fun () -> ()));
            match Span.roots () with
            | [ s ] ->
              check Alcotest.bool "duration non-negative" true
                (s.Span.duration_s >= 0.0);
              check (Alcotest.float 0.0) "clamped" 0.0 s.Span.duration_s
            | l -> Alcotest.fail (Printf.sprintf "%d spans" (List.length l))));
    tc "journal timestamps come from the same injectable clock" (fun () ->
        with_fake_clock [ 42.0 ] (fun () ->
            Journal.clear ();
            Journal.emit ~component:"test" "tick";
            match Journal.events () with
            | [ e ] -> check (Alcotest.float 0.0) "ts" 42.0 e.Journal.ev_ts
            | l -> Alcotest.fail (Printf.sprintf "%d events" (List.length l))));
  ]

(* ------------------------------------------------------------------ *)
(* journal core: ring buffer, sinks, JSONL                             *)
(* ------------------------------------------------------------------ *)

let journal_tests =
  [
    tc "emit appends in order with monotone sequence numbers" (fun () ->
        Journal.clear ();
        Journal.emit ~component:"a" "first";
        Journal.emit ~severity:Journal.Warn
          ~attrs:[ ("k", "v") ]
          ~component:"b" "second";
        (match Journal.events () with
        | [ e1; e2 ] ->
          check Alcotest.bool "seq increases" true
            (e2.Journal.ev_seq > e1.Journal.ev_seq);
          check Alcotest.string "component" "b" e2.Journal.ev_component;
          check Alcotest.string "name" "second" e2.Journal.ev_name;
          check
            Alcotest.(list (pair string string))
            "attrs" [ ("k", "v") ] e2.Journal.ev_attrs;
          check Alcotest.string "severity" "WARN"
            (Journal.severity_to_string e2.Journal.ev_severity)
        | l -> Alcotest.fail (Printf.sprintf "%d events" (List.length l)));
        check Alcotest.int "count" 2 (Journal.event_count ()));
    tc "the ring keeps only the newest events" (fun () ->
        Journal.clear ();
        let saved = Journal.ring_capacity () in
        Journal.set_ring_capacity 4;
        for i = 1 to 10 do
          Journal.emit ~component:"ring" (Printf.sprintf "e%d" i)
        done;
        let names = List.map (fun e -> e.Journal.ev_name) (Journal.events ()) in
        check
          Alcotest.(list string)
          "last four, oldest first"
          [ "e7"; "e8"; "e9"; "e10" ]
          names;
        check Alcotest.int "total count unaffected" 10 (Journal.event_count ());
        Journal.set_ring_capacity saved);
    tc "set_ring_capacity rejects negatives" (fun () ->
        check Alcotest.bool "raises" true
          (match Journal.set_ring_capacity (-1) with
          | () -> false
          | exception Invalid_argument _ -> true));
    tc "clear empties the ring and resets the count" (fun () ->
        Journal.emit ~component:"x" "pre";
        Journal.clear ();
        check Alcotest.int "no events" 0 (List.length (Journal.events ()));
        check Alcotest.int "count reset" 0 (Journal.event_count ()));
    tc "event_to_json round-trips through the parser" (fun () ->
        Journal.clear ();
        Journal.emit ~severity:Journal.Error
          ~attrs:[ ("why", "quote \" and newline \n") ]
          ~component:"portal" "submission";
        let e = List.hd (Journal.events ()) in
        let j = parse_json (Journal.event_to_json e) in
        check Alcotest.bool "seq" true
          (obj_field "seq" j = Some (Json.Num (float_of_int e.Journal.ev_seq)));
        check Alcotest.bool "severity" true
          (obj_field "severity" j = Some (Json.Str "ERROR"));
        check Alcotest.bool "component" true
          (obj_field "component" j = Some (Json.Str "portal"));
        check Alcotest.bool "event" true
          (obj_field "event" j = Some (Json.Str "submission"));
        match obj_field "attrs" j with
        | Some (Json.Obj [ ("why", Json.Str s) ]) ->
          check Alcotest.string "escaped attr round-trips"
            "quote \" and newline \n" s
        | _ -> Alcotest.fail "attrs");
    tc "to_jsonl emits one parseable line per event" (fun () ->
        Journal.clear ();
        Journal.emit ~component:"a" "one";
        Journal.emit ~component:"a" "two";
        let lines =
          String.split_on_char '\n' (Journal.to_jsonl ())
          |> List.filter (fun l -> l <> "")
        in
        check Alcotest.int "two lines" 2 (List.length lines);
        List.iter (fun l -> ignore (parse_json l)) lines);
    tc "sinks see every event and can be removed" (fun () ->
        Journal.clear ();
        let seen = ref [] in
        Journal.add_sink "test" (fun e -> seen := e.Journal.ev_name :: !seen);
        Journal.emit ~component:"s" "visible";
        Journal.remove_sink "test";
        Journal.emit ~component:"s" "invisible";
        check Alcotest.(list string) "one delivery" [ "visible" ] !seen);
    tc "a raising sink is dropped instead of breaking emit" (fun () ->
        Journal.clear ();
        Journal.add_sink "bad" (fun _ -> failwith "disk full");
        Journal.emit ~component:"s" "first";
        (* the sink raised once and was removed; emit keeps working *)
        Journal.emit ~component:"s" "second";
        check Alcotest.int "both recorded" 2 (Journal.event_count ()));
    tc "open_jsonl streams events to the file as JSON lines" (fun () ->
        Journal.clear ();
        let file = Filename.temp_file "journal" ".jsonl" in
        Journal.open_jsonl file;
        Journal.emit ~component:"f" ~attrs:[ ("n", "1") ] "flushed";
        Journal.remove_sink ("jsonl:" ^ file);
        let text = In_channel.with_open_text file In_channel.input_all in
        Sys.remove file;
        let lines =
          String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
        in
        check Alcotest.int "one line" 1 (List.length lines);
        let j = parse_json (List.hd lines) in
        check Alcotest.bool "event name" true
          (obj_field "event" j = Some (Json.Str "flushed")));
    tc "dump_flight_recorder formats the trailing window" (fun () ->
        Journal.clear ();
        for i = 1 to 40 do
          Journal.emit ~component:"loop" (Printf.sprintf "it%d" i)
        done;
        let captured = Buffer.create 256 in
        Journal.set_dump_printer (Buffer.add_string captured);
        Fun.protect
          ~finally:(fun () -> Journal.set_dump_printer prerr_string)
          (fun () -> Journal.dump_flight_recorder ~limit:5 ~reason:"unit test" ());
        let text = Buffer.contents captured in
        let contains needle =
          let nl = String.length needle and hl = String.length text in
          let rec go i =
            i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
          in
          go 0
        in
        check Alcotest.bool "reason present" true (contains "unit test");
        check Alcotest.bool "newest event present" true (contains "it40");
        check Alcotest.bool "window start present" true (contains "it36");
        check Alcotest.bool "older events excluded" false (contains "it35"));
  ]

(* ------------------------------------------------------------------ *)
(* regression gating (bench compare)                                   *)
(* ------------------------------------------------------------------ *)

let telemetry_dump ~mean ~hits =
  Printf.sprintf
    {|{"counters":{"portal.kbdd.cache_hits":%d,"portal.kbdd.submits":10},
       "timers":{"portal.kbdd.latency":{"count":10,"total_s":%f,"mean_s":%f,
                 "p50_s":%f,"p90_s":%f,"max_s":%f}},
       "probes":{},"spans":0}|}
    hits (10.0 *. mean) mean mean mean mean

let qor_dump ~latency ~wirelength =
  Printf.sprintf
    {|{"stages":[{"stage":"routing","latency_s":%f,
       "metrics":{"wirelength":%f,"nets_routed":4.0}}],"total_latency_s":%f}|}
    latency wirelength latency

let regress_tests =
  [
    tc "identical telemetry dumps pass the gate" (fun () ->
        let j = parse_json (telemetry_dump ~mean:0.010 ~hits:9) in
        let v = Regress.compare_json ~baseline:j ~current:j () in
        check Alcotest.(list string) "no regressions" [] v.Regress.regressions;
        check Alcotest.bool "compared something" true (v.Regress.compared > 0));
    tc "a 2x latency regression trips the gate" (fun () ->
        let base = parse_json (telemetry_dump ~mean:0.010 ~hits:9) in
        let cur = parse_json (telemetry_dump ~mean:0.020 ~hits:9) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.bool "regression flagged" true
          (v.Regress.regressions <> []));
    tc "latency deltas under the noise floor are ignored" (fun () ->
        (* 2x relative but only 10us absolute: below the 0.1ms floor *)
        let base = parse_json (telemetry_dump ~mean:0.00001 ~hits:9) in
        let cur = parse_json (telemetry_dump ~mean:0.00002 ~hits:9) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.(list string) "no regressions" [] v.Regress.regressions);
    tc "fewer cache hits is a QoR regression" (fun () ->
        let base = parse_json (telemetry_dump ~mean:0.010 ~hits:9) in
        let cur = parse_json (telemetry_dump ~mean:0.010 ~hits:4) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.bool "regression flagged" true
          (v.Regress.regressions <> []));
    tc "flow QoR reports gate on per-stage metrics" (fun () ->
        let base = parse_json (qor_dump ~latency:0.010 ~wirelength:17.0) in
        let same = Regress.compare_json ~baseline:base ~current:base () in
        check Alcotest.(list string) "identical passes" []
          same.Regress.regressions;
        let worse = parse_json (qor_dump ~latency:0.010 ~wirelength:34.0) in
        let v = Regress.compare_json ~baseline:base ~current:worse () in
        check Alcotest.bool "wirelength regression flagged" true
          (v.Regress.regressions <> []);
        let better = parse_json (qor_dump ~latency:0.010 ~wirelength:10.0) in
        let v2 = Regress.compare_json ~baseline:base ~current:better () in
        check Alcotest.(list string) "improvement is not a regression" []
          v2.Regress.regressions;
        check Alcotest.bool "improvement reported" true
          (v2.Regress.improvements <> []));
    tc "a doubled stage latency trips the gate" (fun () ->
        let base = parse_json (qor_dump ~latency:0.010 ~wirelength:17.0) in
        let cur = parse_json (qor_dump ~latency:0.020 ~wirelength:17.0) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.bool "latency regression flagged" true
          (v.Regress.regressions <> []));
    tc "a speedup gauge drop beyond tolerance trips the gate" (fun () ->
        let dump ~speedup ~depth =
          Printf.sprintf
            {|{"counters":{},"gauges":{"server.w8.speedup":%f,
               "server.queue_depth":%f},"timers":{},"probes":{},"spans":0}|}
            speedup depth
        in
        let base = parse_json (dump ~speedup:4.0 ~depth:3.0) in
        (* 4.0 -> 2.0 is a 50% drop: beyond the default 25% tolerance *)
        let cur = parse_json (dump ~speedup:2.0 ~depth:3.0) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.bool "speedup regression flagged" true
          (v.Regress.regressions <> []);
        (* 4.0 -> 3.5 is within the 25% tolerance *)
        let ok = parse_json (dump ~speedup:3.5 ~depth:3.0) in
        let v2 = Regress.compare_json ~baseline:base ~current:ok () in
        check Alcotest.(list string) "within tolerance passes" []
          v2.Regress.regressions;
        check Alcotest.bool "speedup gauge was gated" true
          (v2.Regress.compared > 0);
        (* a big speedup gain is reported as an improvement *)
        let faster = parse_json (dump ~speedup:6.0 ~depth:3.0) in
        let v3 = Regress.compare_json ~baseline:base ~current:faster () in
        check Alcotest.bool "improvement reported" true
          (v3.Regress.improvements <> []));
    tc "non-speedup gauges are informational only" (fun () ->
        let dump depth =
          Printf.sprintf
            {|{"counters":{},"gauges":{"server.queue_depth":%f},
               "timers":{},"probes":{},"spans":0}|}
            depth
        in
        let base = parse_json (dump 3.0) in
        let cur = parse_json (dump 300.0) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.(list string) "no regressions" [] v.Regress.regressions;
        check Alcotest.int "nothing gated" 0 v.Regress.compared;
        check Alcotest.bool "noted" true (v.Regress.notes <> []));
    tc "render summarizes the verdict" (fun () ->
        let base = parse_json (qor_dump ~latency:0.010 ~wirelength:17.0) in
        let cur = parse_json (qor_dump ~latency:0.030 ~wirelength:17.0) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        let text = Regress.render v in
        check Alcotest.bool "mentions REGRESSIONS" true
          (String.length text > 0
          &&
          let rec find i =
            i + 11 <= String.length text
            && (String.sub text i 11 = "REGRESSIONS" || find (i + 1))
          in
          find 0));
  ]

(* ------------------------------------------------------------------ *)
(* portal cache + counters                                             *)
(* ------------------------------------------------------------------ *)

(* Each test resets the global telemetry + cache so counts are exact. *)
let fresh () =
  T.reset ();
  Portal.clear_cache ();
  (* One shard recovers the exact global LRU these tests assert on;
     multi-shard behaviour is exercised in test_server.ml. *)
  Portal.set_cache_shards 1;
  Portal.set_cache_capacity 512;
  Portal.create_session ()

let submits tool = T.counter ("portal." ^ tool ^ ".submits")
let executions tool = T.counter ("portal." ^ tool ^ ".executions")
let hits tool = T.counter ("portal." ^ tool ^ ".cache_hits")

(* submit and collapse to the display string - these tests assert on
   counters and output bytes, not on the outcome constructors *)
let psubmit s tool input = Portal.outcome_output (Portal.submit_result s tool input)

let portal_tests =
  [
    tc "repeat submission is a cache hit with byte-identical output" (fun () ->
        let s = fresh () in
        let input = "boolean a b\nf = a & b\nsatcount f" in
        let out1 = psubmit s Portal.kbdd input in
        check Alcotest.int "one execution" 1 (executions "kbdd");
        check Alcotest.int "no hit yet" 0 (hits "kbdd");
        let out2 = psubmit s Portal.kbdd input in
        check Alcotest.string "byte-identical" out1 out2;
        check Alcotest.int "still one execution" 1 (executions "kbdd");
        check Alcotest.int "one hit" 1 (hits "kbdd");
        check Alcotest.bool "global stats agree" true
          (Portal.cache_stats () = (1, 1)));
    tc "cache is keyed by tool as well as input" (fun () ->
        let s = fresh () in
        let input = "not a valid anything" in
        ignore (psubmit s Portal.kbdd input);
        ignore (psubmit s Portal.espresso input);
        check Alcotest.int "kbdd executed" 1 (executions "kbdd");
        check Alcotest.int "espresso executed too" 1 (executions "espresso"));
    tc "counters are monotone across submits" (fun () ->
        let s = fresh () in
        let prev = ref (-1) in
        for i = 1 to 5 do
          ignore
            (psubmit s Portal.axb
               (Printf.sprintf "n 1\nrow %d\nrhs %d" i i));
          let now = submits "axb" in
          check Alcotest.bool "monotone" true (now > !prev);
          check Alcotest.int "equals submit count" i now;
          prev := now
        done;
        match T.timer "portal.axb.latency" with
        | Some t -> check Alcotest.int "latency sampled per submit" 5 t.T.count
        | None -> Alcotest.fail "no latency timer");
    tc "runaway rejection counts but does not execute or cache" (fun () ->
        let s = fresh () in
        let big = String.concat "\n" (List.init 3000 (fun _ -> "x")) in
        let out = psubmit s Portal.kbdd big in
        check Alcotest.bool "error text" true
          (String.length out >= 5 && String.sub out 0 5 = "error");
        check Alcotest.int "rejected" 1 (T.counter "portal.kbdd.rejected");
        check Alcotest.int "not executed" 0 (executions "kbdd");
        check Alcotest.int "not cached" 0 (Portal.cache_size ()));
    tc "LRU eviction respects the capacity bound" (fun () ->
        let s = fresh () in
        Portal.set_cache_capacity 2;
        let input i = Printf.sprintf "n 1\nrow %d\nrhs %d" i i in
        ignore (psubmit s Portal.axb (input 1));
        ignore (psubmit s Portal.axb (input 2));
        ignore (psubmit s Portal.axb (input 3));
        (* capacity held; input 1 was the stalest and got evicted *)
        check Alcotest.int "bounded" 2 (Portal.cache_size ());
        check Alcotest.int "one eviction" 1
          (T.counter "portal.cache.evictions");
        ignore (psubmit s Portal.axb (input 3));
        check Alcotest.int "3 still cached" 1 (hits "axb");
        ignore (psubmit s Portal.axb (input 1));
        check Alcotest.int "1 was re-executed" 4 (executions "axb"));
    tc "LRU refreshes recency on hit" (fun () ->
        let s = fresh () in
        Portal.set_cache_capacity 2;
        let input i = Printf.sprintf "n 1\nrow %d\nrhs %d" i i in
        ignore (psubmit s Portal.axb (input 1));
        ignore (psubmit s Portal.axb (input 2));
        ignore (psubmit s Portal.axb (input 1));
        (* touch 1 *)
        ignore (psubmit s Portal.axb (input 3));
        (* evicts 2, not 1 *)
        ignore (psubmit s Portal.axb (input 1));
        check Alcotest.int "1 stayed cached" 2 (hits "axb");
        ignore (psubmit s Portal.axb (input 2));
        check Alcotest.int "2 was re-executed" 4 (executions "axb"));
    tc "capacity 0 disables caching" (fun () ->
        let s = fresh () in
        Portal.set_cache_capacity 0;
        let input = "n 1\nrow 2\nrhs 4" in
        ignore (psubmit s Portal.axb input);
        ignore (psubmit s Portal.axb input);
        check Alcotest.int "executed twice" 2 (executions "axb");
        check Alcotest.int "nothing cached" 0 (Portal.cache_size ()));
    tc "shrinking the capacity evicts down to the bound" (fun () ->
        let s = fresh () in
        Portal.set_cache_capacity 8;
        for i = 1 to 6 do
          ignore
            (psubmit s Portal.axb
               (Printf.sprintf "n 1\nrow %d\nrhs %d" i i))
        done;
        check Alcotest.int "six cached" 6 (Portal.cache_size ());
        Portal.set_cache_capacity 3;
        check Alcotest.int "evicted to bound" 3 (Portal.cache_size ()));
    tc "cache hits still append to the session history" (fun () ->
        let s = fresh () in
        let input = "n 1\nrow 2\nrhs 4" in
        ignore (psubmit s Portal.axb input);
        ignore (psubmit s Portal.axb input);
        check Alcotest.int "two history entries" 2
          (List.length (Portal.history s Portal.axb)));
    tc "cache span; execute on miss" (fun () ->
        let s = fresh () in
        let input = "boolean a\nf = a\nsize f" in
        ignore (psubmit s Portal.kbdd input);
        ignore (psubmit s Portal.kbdd input);
        let shape (sp : Span.t) =
          sp.Span.name
          :: List.map (fun (c : Span.t) -> sp.Span.name ^ ";" ^ c.Span.name)
               sp.Span.children
        in
        check
          Alcotest.(list (list string))
          "miss: cache, execute;kbdd; hit: cache"
          [ [ "cache" ]; [ "execute"; "execute;kbdd" ]; [ "cache" ] ]
          (List.map shape (Span.roots ())));
    tc "counters stay monotone with the cache disabled" (fun () ->
        let s = fresh () in
        Portal.set_cache_capacity 0;
        let input = "n 1\nrow 2\nrhs 4" in
        let prev = ref (-1) in
        for i = 1 to 4 do
          ignore (psubmit s Portal.axb input);
          let now = submits "axb" in
          check Alcotest.bool "monotone" true (now > !prev);
          check Alcotest.int "submits" i now;
          check Alcotest.int "every submit executes" i (executions "axb");
          prev := now
        done;
        check Alcotest.int "never a hit" 0 (hits "axb");
        check Alcotest.int "nothing cached" 0 (Portal.cache_size ()));
    tc "clear_cache mid-session forces re-execution, counters keep" (fun () ->
        let s = fresh () in
        let input = "n 1\nrow 2\nrhs 4" in
        ignore (psubmit s Portal.axb input);
        ignore (psubmit s Portal.axb input);
        check Alcotest.int "one hit before clearing" 1 (hits "axb");
        Portal.clear_cache ();
        check Alcotest.int "cache emptied" 0 (Portal.cache_size ());
        ignore (psubmit s Portal.axb input);
        check Alcotest.int "re-executed after clear" 2 (executions "axb");
        check Alcotest.int "hit counter kept its history" 1 (hits "axb");
        check Alcotest.int "history intact" 3
          (List.length (Portal.history s Portal.axb)));
  ]

(* ------------------------------------------------------------------ *)
(* portal <-> journal integration                                      *)
(* ------------------------------------------------------------------ *)

let journal_outcomes () =
  List.filter_map
    (fun e ->
      if e.Journal.ev_component = "portal" && e.Journal.ev_name = "submission"
      then List.assoc_opt "outcome" e.Journal.ev_attrs
      else None)
    (Journal.events ())

let portal_journal_tests =
  [
    tc "each submission emits one journal event with its outcome" (fun () ->
        let s = fresh () in
        Journal.clear ();
        let input = "boolean a b\nf = a & b\nsatcount f" in
        ignore (psubmit s Portal.kbdd input);
        ignore (psubmit s Portal.kbdd input);
        check
          Alcotest.(list string)
          "executed then cache_hit"
          [ "executed"; "cache_hit" ]
          (journal_outcomes ());
        (match Journal.events () with
        | e :: _ ->
          check Alcotest.bool "tool attr" true
            (List.assoc_opt "tool" e.Journal.ev_attrs = Some "kbdd");
          check Alcotest.bool "digest attr" true
            (match List.assoc_opt "digest" e.Journal.ev_attrs with
            | Some d -> String.length d = 32
            | None -> false);
          check Alcotest.bool "latency attr" true
            (List.mem_assoc "latency_s" e.Journal.ev_attrs)
        | [] -> Alcotest.fail "no events"));
    tc "journal cache_hit events agree with the telemetry counter" (fun () ->
        let s = fresh () in
        Journal.clear ();
        let input i = Printf.sprintf "n 1\nrow %d\nrhs %d" i i in
        ignore (psubmit s Portal.axb (input 1));
        ignore (psubmit s Portal.axb (input 1));
        ignore (psubmit s Portal.axb (input 2));
        ignore (psubmit s Portal.axb (input 1));
        let hit_events =
          List.length
            (List.filter (fun o -> o = "cache_hit") (journal_outcomes ()))
        in
        check Alcotest.int "counter agrees" (hits "axb") hit_events;
        check Alcotest.int "four events total" 4
          (List.length (journal_outcomes ())));
    tc "a runaway rejection logs an Error and dumps the recorder" (fun () ->
        let s = fresh () in
        Journal.clear ();
        let captured = Buffer.create 256 in
        Journal.set_dump_printer (Buffer.add_string captured);
        let out =
          Fun.protect
            ~finally:(fun () -> Journal.set_dump_printer prerr_string)
            (fun () ->
              psubmit s Portal.kbdd
                (String.concat "\n" (List.init 3000 (fun _ -> "x"))))
        in
        check Alcotest.bool "rejected" true
          (String.length out >= 5 && String.sub out 0 5 = "error");
        (* the submission event is there, marked Error, with a reason *)
        let ev =
          List.find
            (fun e -> e.Journal.ev_name = "submission")
            (Journal.events ())
        in
        check Alcotest.string "severity" "ERROR"
          (Journal.severity_to_string ev.Journal.ev_severity);
        check Alcotest.bool "outcome rejected" true
          (List.assoc_opt "outcome" ev.Journal.ev_attrs = Some "rejected");
        check Alcotest.bool "reason recorded" true
          (List.mem_assoc "reason" ev.Journal.ev_attrs);
        (* and the flight recorder dumped the trailing window *)
        let text = Buffer.contents captured in
        let contains needle =
          let nl = String.length needle and hl = String.length text in
          let rec go i =
            i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
          in
          go 0
        in
        check Alcotest.bool "dump happened" true (String.length text > 0);
        check Alcotest.bool "names the runaway guard" true (contains "runaway");
        check Alcotest.bool "names the tool" true (contains "kbdd");
        check Alcotest.bool "window includes the flight recorder header" true
          (contains "flight recorder"));
  ]

(* ------------------------------------------------------------------ *)
(* gauges, histograms, extended timer summaries                        *)
(* ------------------------------------------------------------------ *)

let metric_kinds_tests =
  [
    tc "gauges set, overwrite and list" (fun () ->
        T.reset ();
        check Alcotest.bool "absent" true (T.gauge "g.depth" = None);
        T.set_gauge "g.depth" 3.0;
        T.set_gauge "g.depth" 1.5;
        T.set_gauge "g.other" 7.0;
        check Alcotest.bool "overwritten" true (T.gauge "g.depth" = Some 1.5);
        check
          Alcotest.(list (pair string (float 1e-9)))
          "sorted listing"
          [ ("g.depth", 1.5); ("g.other", 7.0) ]
          (T.gauges ()));
    tc "timer summaries carry p99 and stddev" (fun () ->
        T.reset ();
        (* 100 samples: 1ms..100ms; nearest-rank p99 = 99ms *)
        for i = 1 to 100 do
          T.observe "t.p99" (float_of_int i /. 1000.0)
        done;
        match T.timer "t.p99" with
        | None -> Alcotest.fail "no samples"
        | Some s ->
          let samples = List.init 100 (fun i -> float_of_int (i + 1) /. 1000.0) in
          check_quantile "p99" samples 99.0 s.T.p99_s;
          check (Alcotest.float 1e-9) "stddev matches Stats"
            (Vc_util.Stats.stddev samples) s.T.stddev_s);
    tc "histogram observations still feed the exact timer" (fun () ->
        T.reset ();
        T.observe "h.both" 0.010;
        T.observe "h.both" 0.030;
        match T.timer "h.both" with
        | Some s ->
          check Alcotest.int "timer count" 2 s.T.count;
          check (Alcotest.float 1e-9) "timer max" 0.030 s.T.max_s
        | None -> Alcotest.fail "timer missing");
    tc "reset clears gauges and histograms" (fun () ->
        T.reset ();
        T.set_gauge "g.gone" 1.0;
        T.observe "h.gone" 0.05;
        T.reset ();
        check Alcotest.bool "gauge gone" true (T.gauge "g.gone" = None);
        check Alcotest.bool "histogram gone" true (T.timer "h.gone" = None));
    tc "to_json carries gauges and timers" (fun () ->
        T.reset ();
        T.set_gauge "g.j" 2.5;
        T.observe "h.j" 0.05;
        let j = parse_json (T.to_json ()) in
        (match obj_field "gauges" j with
        | Some g -> check Alcotest.bool "gauge value" true
            (obj_field "g.j" g = Some (Json.Num 2.5))
        | None -> Alcotest.fail "no gauges object");
        check Alcotest.bool "no histograms object" true
          (obj_field "histograms" j = None);
        match obj_field "timers" j with
        | Some (Json.Obj [ ("h.j", t) ]) ->
          check Alcotest.bool "p99 field" true (obj_field "p99_s" t <> None);
          check Alcotest.bool "stddev field" true
            (obj_field "stddev_s" t <> None)
        | _ -> Alcotest.fail "no timers object");
  ]

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let prometheus_tests =
  [
    tc "counters become _total counter families" (fun () ->
        T.reset ();
        T.incr ~by:3 "portal.kbdd.submits";
        let text = T.to_prometheus () in
        check Alcotest.bool "TYPE line" true
          (contains text "# TYPE vc_portal_kbdd_submits_total counter");
        check Alcotest.bool "sample" true
          (contains text "vc_portal_kbdd_submits_total 3\n"));
    tc "gauges become gauge families" (fun () ->
        T.reset ();
        T.set_gauge "portal.cache.size" 17.0;
        let text = T.to_prometheus () in
        check Alcotest.bool "TYPE line" true
          (contains text "# TYPE vc_portal_cache_size gauge");
        check Alcotest.bool "sample" true
          (contains text "vc_portal_cache_size 17\n"));
    tc "timers expose _bucket/_sum/_count at octave bounds" (fun () ->
        T.reset ();
        T.observe "flow.route" 0.005;
        T.observe "flow.route" 0.05;
        T.observe "flow.route" 0.5;
        let text = T.to_prometheus () in
        check Alcotest.bool "TYPE histogram" true
          (contains text "# TYPE vc_flow_route_seconds histogram");
        (* octave edges: 0.005 < 2^-7, 0.05 < 2^-4, 0.5 < 2^0 *)
        check Alcotest.bool "empty low bucket" true
          (contains text "vc_flow_route_seconds_bucket{le=\"0.00390625\"} 0\n");
        check Alcotest.bool "first sample's octave" true
          (contains text "vc_flow_route_seconds_bucket{le=\"0.0078125\"} 1\n");
        check Alcotest.bool "cumulative second sample" true
          (contains text "vc_flow_route_seconds_bucket{le=\"0.0625\"} 2\n");
        check Alcotest.bool "cumulative third sample" true
          (contains text "vc_flow_route_seconds_bucket{le=\"1\"} 3\n");
        check Alcotest.bool "+Inf bucket" true
          (contains text "vc_flow_route_seconds_bucket{le=\"+Inf\"} 3\n");
        check Alcotest.bool "count" true
          (contains text "vc_flow_route_seconds_count 3\n");
        check Alcotest.bool "sum" true
          (contains text "vc_flow_route_seconds_sum 0.555\n");
        (* a histogram-backed timer must not also render as a summary *)
        check Alcotest.bool "no summary family" false
          (contains text "vc_flow_route_seconds{quantile"));
    tc "the journal event count is exported" (fun () ->
        T.reset ();
        Journal.clear ();
        Journal.emit ~component:"x" "e1";
        Journal.emit ~component:"x" "e2";
        check Alcotest.bool "journal counter" true
          (contains (T.to_prometheus ()) "vc_journal_events_total 2\n"));
  ]

(* ------------------------------------------------------------------ *)
(* metrics server (driven over a socketpair - no TCP accept loop)      *)
(* ------------------------------------------------------------------ *)

module MS = Vc_util.Metrics_server

(* Start an exporter on an ephemeral port (to get a [t]), push [req]
   through handle_client over a socketpair, and return the raw response. *)
let with_server ?on_request metrics f =
  let srv = MS.start ?on_request ~announce:false ~metrics ~port:0 () in
  Fun.protect ~finally:(fun () -> MS.stop srv) (fun () -> f srv)

let roundtrip srv req =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let b = Bytes.of_string req in
  ignore (Unix.write ours b 0 (Bytes.length b));
  MS.handle_client srv theirs;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  (try
     let rec drain () =
       let n = Unix.read ours chunk 0 (Bytes.length chunk) in
       if n > 0 then begin
         Buffer.add_subbytes buf chunk 0 n;
         drain ()
       end
     in
     drain ()
   with Unix.Unix_error _ -> ());
  Unix.close ours;
  Buffer.contents buf

let metrics_server_tests =
  [
    tc "GET /metrics serves the exposition with the right content type"
      (fun () ->
        with_server
          (fun () -> "# TYPE vc_x_total counter\nvc_x_total 1\n")
          (fun srv ->
            let resp = roundtrip srv "GET /metrics HTTP/1.1\r\n\r\n" in
            check Alcotest.bool "200" true (contains resp "HTTP/1.1 200 OK");
            check Alcotest.bool "content type" true
              (contains resp "text/plain; version=0.0.4; charset=utf-8");
            check Alcotest.bool "body" true (contains resp "vc_x_total 1\n")));
    tc "GET /healthz answers ok" (fun () ->
        with_server
          (fun () -> "")
          (fun srv ->
            let resp = roundtrip srv "GET /healthz HTTP/1.1\r\n\r\n" in
            check Alcotest.bool "200" true (contains resp "200 OK");
            check Alcotest.bool "ok body" true (contains resp "ok\n")));
    tc "unknown paths are 404, non-GET is 405, garbage is 400" (fun () ->
        with_server
          (fun () -> "")
          (fun srv ->
            check Alcotest.bool "404" true
              (contains (roundtrip srv "GET /nope HTTP/1.1\r\n\r\n") "404");
            check Alcotest.bool "405" true
              (contains (roundtrip srv "POST /metrics HTTP/1.1\r\n\r\n") "405");
            check Alcotest.bool "400" true
              (contains (roundtrip srv "garbage\r\n\r\n") "400")));
    tc "query strings are stripped before routing" (fun () ->
        with_server
          (fun () -> "body\n")
          (fun srv ->
            check Alcotest.bool "routed" true
              (contains
                 (roundtrip srv "GET /metrics?foo=1 HTTP/1.1\r\n\r\n")
                 "200 OK")));
    tc "a raising metrics thunk degrades to a comment body" (fun () ->
        with_server
          (fun () -> failwith "renderer broke")
          (fun srv ->
            let resp = roundtrip srv "GET /metrics HTTP/1.1\r\n\r\n" in
            check Alcotest.bool "still 200" true (contains resp "200 OK");
            check Alcotest.bool "error comment" true
              (contains resp "# metrics renderer failed")));
    tc "on_request sees the path of every request" (fun () ->
        let seen = ref [] in
        with_server
          ~on_request:(fun p -> seen := p :: !seen)
          (fun () -> "")
          (fun srv ->
            ignore (roundtrip srv "GET /metrics HTTP/1.1\r\n\r\n");
            ignore (roundtrip srv "GET /healthz HTTP/1.1\r\n\r\n");
            check
              Alcotest.(list string)
              "paths" [ "/metrics"; "/healthz" ] (List.rev !seen)));
    tc "port 0 resolves to a real ephemeral port" (fun () ->
        with_server
          (fun () -> "")
          (fun srv -> check Alcotest.bool "nonzero" true (MS.port srv > 0)));
  ]

(* ------------------------------------------------------------------ *)
(* journal degradation (S2: a bad sink must not take the tool down)    *)
(* ------------------------------------------------------------------ *)

let journal_degrade_tests =
  [
    tc "open_jsonl on an unopenable path degrades instead of raising"
      (fun () ->
        Journal.clear ();
        (* a directory cannot be opened as a file *)
        (match Journal.open_jsonl "." with
        | () -> ()
        | exception _ -> Alcotest.fail "open_jsonl raised");
        (* and the tool keeps journaling without any sink *)
        Journal.emit ~component:"degrade" "still.running";
        check Alcotest.int "event recorded" 1 (Journal.event_count ()));
    tc "a sink that starts failing mid-run is detached once" (fun () ->
        Journal.clear ();
        let calls = ref 0 in
        Journal.add_sink "flaky" (fun _ ->
            incr calls;
            if !calls > 1 then failwith "disk full");
        Journal.emit ~component:"degrade" "ok";
        Journal.emit ~component:"degrade" "boom";
        (* detached: further events do not reach the sink *)
        Journal.emit ~component:"degrade" "after";
        Journal.flush ();
        check Alcotest.int "sink saw two events" 2 !calls;
        check Alcotest.int "all events recorded" 3 (Journal.event_count ()));
  ]

(* ------------------------------------------------------------------ *)
(* journal analytics (Journal_query - the engine behind bin/vcstat)    *)
(* ------------------------------------------------------------------ *)

module Q = Vc_util.Journal_query

let ev ?(seq = 1) ?(ts = 0.0) ?(severity = Journal.Info) ?(attrs = [])
    ~component name =
  {
    Journal.ev_seq = seq;
    ev_ts = ts;
    ev_severity = severity;
    ev_component = component;
    ev_name = name;
    ev_attrs = attrs;
  }

let journal_query_tests =
  [
    tc "parse_line round-trips event_to_json" (fun () ->
        Journal.clear ();
        Journal.emit ~severity:Journal.Warn
          ~attrs:[ ("tool", "kbdd"); ("latency_s", "0.0125") ]
          ~component:"portal" "submission";
        let e = List.hd (Journal.events ()) in
        match Q.parse_line (Journal.event_to_json e) with
        | Error msg -> Alcotest.fail msg
        | Ok e' ->
          check Alcotest.int "seq" e.Journal.ev_seq e'.Journal.ev_seq;
          check Alcotest.string "component" "portal" e'.Journal.ev_component;
          check Alcotest.string "name" "submission" e'.Journal.ev_name;
          check Alcotest.bool "severity" true
            (e'.Journal.ev_severity = Journal.Warn);
          check
            Alcotest.(list (pair string string))
            "attrs"
            [ ("tool", "kbdd"); ("latency_s", "0.0125") ]
            e'.Journal.ev_attrs);
    tc "parse_line rejects documents missing required fields" (fun () ->
        check Alcotest.bool "not json" true
          (Result.is_error (Q.parse_line "nope"));
        check Alcotest.bool "no component" true
          (Result.is_error
             (Q.parse_line
                "{\"seq\":1,\"ts\":0,\"severity\":\"INFO\",\"event\":\"x\"}"));
        check Alcotest.bool "bad severity" true
          (Result.is_error
             (Q.parse_line
                "{\"seq\":1,\"ts\":0,\"severity\":\"LOUD\",\"component\":\"c\",\"event\":\"x\"}")));
    tc "summarize counts, error rate and latency percentiles" (fun () ->
        let events =
          List.concat
            [
              List.init 100 (fun i ->
                  ev ~seq:(i + 1)
                    ~attrs:
                      [
                        ( "latency_s",
                          Printf.sprintf "%.6f" (float_of_int (i + 1) /. 1000.0)
                        );
                      ]
                    ~component:"portal" "submission");
              [ ev ~seq:101 ~severity:Journal.Error ~component:"portal" "oops" ];
            ]
        in
        let s = Q.summarize ~top:3 events in
        check Alcotest.int "total" 101 s.Q.s_total;
        check Alcotest.int "component count" 101
          (List.assoc "portal" s.Q.s_by_component);
        check Alcotest.int "errors" 1 s.Q.s_errors;
        check (Alcotest.float 1e-9) "error rate" (1.0 /. 101.0) s.Q.s_error_rate;
        (match s.Q.s_latency with
        | None -> Alcotest.fail "no latency stats"
        | Some l ->
          let samples =
            List.init 100 (fun i -> float_of_int (i + 1) /. 1000.0)
          in
          check Alcotest.int "latency count" 100 l.Vc_util.Hist.count;
          check_quantile "p50" samples 50.0 l.Vc_util.Hist.p50_s;
          check_quantile "p90" samples 90.0 l.Vc_util.Hist.p90_s;
          check_quantile "p99" samples 99.0 l.Vc_util.Hist.p99_s;
          check (Alcotest.float 1e-9) "max" 0.100 l.Vc_util.Hist.max_s);
        check Alcotest.int "top-3 slowest" 3 (List.length s.Q.s_slowest);
        match s.Q.s_slowest with
        | (e, l) :: _ ->
          check Alcotest.int "slowest is the 100ms one" 100 e.Journal.ev_seq;
          check (Alcotest.float 1e-9) "slowest latency" 0.100 l
        | [] -> Alcotest.fail "no slowest");
    tc "summary JSON parses and carries the acceptance fields" (fun () ->
        let s =
          Q.summarize
            [
              ev ~seq:1
                ~attrs:[ ("latency_s", "0.002") ]
                ~component:"flow" "stage.end";
            ]
        in
        let j = parse_json (Q.summary_to_json s) in
        check Alcotest.bool "by_component.flow" true
          (Option.bind (obj_field "by_component" j) (obj_field "flow")
          = Some (Json.Num 1.0));
        let all = Option.bind (obj_field "latency" j) (obj_field "all") in
        List.iter
          (fun f ->
            check Alcotest.bool f true
              (Option.bind all (obj_field f) <> None))
          [ "p50_s"; "p90_s"; "p99_s" ]);
    tc "spans_of reconstructs nested begin/end pairs" (fun () ->
        let events =
          [
            ev ~seq:1 ~ts:1.0 ~component:"flow"
              ~attrs:[ ("stage", "outer") ]
              "stage.begin";
            ev ~seq:2 ~ts:1.2 ~component:"flow"
              ~attrs:[ ("stage", "inner") ]
              "stage.begin";
            ev ~seq:3 ~ts:1.5 ~component:"flow"
              ~attrs:[ ("stage", "inner") ]
              "stage.end";
            ev ~seq:4 ~ts:2.0 ~component:"flow"
              ~attrs:[ ("stage", "outer") ]
              "stage.end";
          ]
        in
        match Q.spans_of events with
        | [ outer ] ->
          check Alcotest.string "outer label" "flow/outer" outer.Q.q_name;
          check (Alcotest.float 1e-9) "outer duration" 1.0 outer.Q.q_duration_s;
          (match outer.Q.q_children with
          | [ inner ] ->
            check Alcotest.string "inner label" "flow/inner" inner.Q.q_name;
            check (Alcotest.float 1e-9) "inner duration" 0.3
              inner.Q.q_duration_s
          | l -> Alcotest.fail (Printf.sprintf "%d children" (List.length l)))
        | l -> Alcotest.fail (Printf.sprintf "%d roots" (List.length l)));
    tc "spans_of ignores orphan ends and closes dangling begins" (fun () ->
        let events =
          [
            ev ~seq:1 ~ts:0.5 ~component:"flow"
              ~attrs:[ ("stage", "ghost") ]
              "stage.end";
            ev ~seq:2 ~ts:1.0 ~component:"flow"
              ~attrs:[ ("stage", "open") ]
              "stage.begin";
            ev ~seq:3 ~ts:3.0 ~component:"flow" "last.event";
          ]
        in
        match Q.spans_of events with
        | [ sp ] ->
          check Alcotest.string "label" "flow/open" sp.Q.q_name;
          check (Alcotest.float 1e-9) "closed at last ts" 2.0 sp.Q.q_duration_s
        | l -> Alcotest.fail (Printf.sprintf "%d roots" (List.length l)));
    tc "spans from interleaved traces reconstruct independently" (fun () ->
        (* two requests in flight at once: without per-trace streams the
           global stack would nest B inside A and corrupt both *)
        let events =
          [
            ev ~seq:1 ~ts:1.0 ~component:"portal"
              ~attrs:[ ("trace_id", "aaaa") ]
              "exec.begin";
            ev ~seq:2 ~ts:1.1 ~component:"portal"
              ~attrs:[ ("trace_id", "bbbb") ]
              "exec.begin";
            ev ~seq:3 ~ts:1.5 ~component:"portal"
              ~attrs:[ ("trace_id", "aaaa") ]
              "exec.end";
            ev ~seq:4 ~ts:2.0 ~component:"portal"
              ~attrs:[ ("trace_id", "bbbb") ]
              "exec.end";
          ]
        in
        match Q.spans_of events with
        | [ a; b ] ->
          check Alcotest.int "no spurious nesting" 0
            (List.length a.Q.q_children + List.length b.Q.q_children);
          check (Alcotest.float 1e-9) "trace a duration" 0.5 a.Q.q_duration_s;
          check (Alcotest.float 1e-9) "trace b duration" 0.9 b.Q.q_duration_s
        | l -> Alcotest.fail (Printf.sprintf "%d roots" (List.length l)));
    tc "a dangling begin closes at its own trace's last event" (fun () ->
        let events =
          [
            ev ~seq:1 ~ts:1.0 ~component:"portal"
              ~attrs:[ ("trace_id", "aaaa") ]
              "exec.begin";
            ev ~seq:2 ~ts:1.2 ~component:"portal"
              ~attrs:[ ("trace_id", "aaaa") ]
              "cache.probe";
            (* another trace keeps running long after - it must not
               stretch trace a's dangling span *)
            ev ~seq:3 ~ts:9.0 ~component:"portal"
              ~attrs:[ ("trace_id", "bbbb") ]
              "late.event";
          ]
        in
        match Q.spans_of events with
        | [ sp ] ->
          check (Alcotest.float 1e-9) "closed at trace-local last ts" 0.2
            sp.Q.q_duration_s
        | l -> Alcotest.fail (Printf.sprintf "%d roots" (List.length l)));
    tc "join_requests matches client and server journals by trace id"
      (fun () ->
        let client trace latency =
          ev ~component:"vcload"
            ~attrs:
              [
                ("trace_id", trace); ("tool", "axb");
                ("outcome", "sent");
                ("latency_s", Printf.sprintf "%.6f" latency);
              ]
            "replay.request"
        in
        let replied trace total =
          ev ~component:"server"
            ~attrs:
              [
                ("trace_id", trace); ("tool", "axb"); ("session", "s1");
                ("outcome", "executed");
                ("total_s", Printf.sprintf "%.6f" total);
                ("phase.queue", "0.010000"); ("phase.execute", "0.020000");
              ]
            "request.replied"
        in
        let join =
          Q.join_requests
            [
              client "aaaa" 0.100;
              ev ~component:"server"
                ~attrs:[ ("trace_id", "aaaa"); ("session", "s1") ]
                "request.admitted";
              replied "aaaa" 0.080;
              client "bbbb" 0.050;
              replied "bbbb" 0.040;
              (* server-only: a request someone submitted by hand *)
              replied "cccc" 0.010;
              (* client-only: the reply the server journal lost *)
              client "dddd" 0.030;
            ]
        in
        check Alcotest.int "client total" 3 join.Q.rj_client_total;
        check Alcotest.int "server total" 3 join.Q.rj_server_total;
        check Alcotest.int "matched" 2 join.Q.rj_matched;
        check (Alcotest.float 1e-9) "match rate" (2.0 /. 3.0)
          join.Q.rj_match_rate;
        let t =
          match join.Q.rj_timelines with t :: _ -> t | [] -> Alcotest.fail "empty"
        in
        check Alcotest.string "first-appearance order" "aaaa" t.Q.rt_trace;
        check Alcotest.(option string) "server outcome wins" (Some "executed")
          t.Q.rt_outcome;
        check Alcotest.(option string) "session" (Some "s1") t.Q.rt_session;
        check
          Alcotest.(option (float 1e-9))
          "wire = client - server" (Some 0.020) t.Q.rt_wire_s;
        check
          Alcotest.(list (pair string (float 1e-9)))
          "phases parsed back"
          [ ("queue", 0.010); ("execute", 0.020) ]
          t.Q.rt_phases;
        (* breakdown rows come out in the canonical phase order *)
        check
          Alcotest.(list string)
          "phase order"
          [ "queue"; "execute"; "server"; "wire"; "client" ]
          (List.map fst (Q.phase_breakdown join));
        (match List.assoc_opt "wire" (Q.phase_breakdown join) with
        | Some s ->
          check Alcotest.int "wire samples from matched pairs only" 2
            s.Vc_util.Hist.count
        | None -> Alcotest.fail "no wire row");
        (* the JSON document parses and carries the acceptance fields *)
        let j = parse_json (Q.requests_to_json join) in
        check Alcotest.bool "matched" true
          (obj_field "matched" j = Some (Json.Num 2.0));
        check Alcotest.bool "match_rate" true
          (match obj_field "match_rate" j with
          | Some (Json.Num r) -> Float.abs (r -. (2.0 /. 3.0)) < 1e-4
          | _ -> false);
        check Alcotest.bool "phases.queue.p50_s" true
          (Option.bind
             (Option.bind (obj_field "phases" j) (obj_field "queue"))
             (obj_field "p50_s")
          <> None);
        match obj_field "slowest" j with
        | Some (Json.Arr (_ :: _)) -> ()
        | _ -> Alcotest.fail "no slowest array");
    tc "join_requests treats admission rejects as server-side sightings"
      (fun () ->
        let join =
          Q.join_requests
            [
              ev ~component:"vcload"
                ~attrs:
                  [
                    ("trace_id", "eeee"); ("tool", "kbdd");
                    ("latency_s", "0.002"); ("outcome", "rejected");
                  ]
                "replay.request";
              ev ~component:"server"
                ~attrs:[ ("trace_id", "eeee"); ("tool", "kbdd") ]
                "job.rejected.overloaded";
            ]
        in
        check Alcotest.int "matched" 1 join.Q.rj_matched;
        check (Alcotest.float 1e-9) "rate" 1.0 join.Q.rj_match_rate;
        match join.Q.rj_timelines with
        | [ t ] ->
          check Alcotest.(option string) "outcome" (Some "rejected")
            t.Q.rt_outcome;
          check Alcotest.bool "no server total without a reply" true
            (t.Q.rt_server_s = None && t.Q.rt_wire_s = None)
        | l -> Alcotest.fail (Printf.sprintf "%d timelines" (List.length l)));
    tc "join_requests over server-only journals is vacuously matched"
      (fun () ->
        let join =
          Q.join_requests
            [
              ev ~component:"server"
                ~attrs:[ ("trace_id", "ffff"); ("total_s", "0.001") ]
                "request.replied";
            ]
        in
        check Alcotest.int "no clients" 0 join.Q.rj_client_total;
        check (Alcotest.float 1e-9) "rate defaults to 1" 1.0
          join.Q.rj_match_rate);
    tc "funnel_of extracts the cohort funnel in order" (fun () ->
        let stage seq name count =
          ev ~seq ~component:"cohort"
            ~attrs:[ ("stage", name); ("count", string_of_int count) ]
            "funnel.stage"
        in
        let stages =
          Q.funnel_of
            [
              stage 1 "registered" 17500;
              stage 2 "watched_video" 7191;
              ev ~seq:3 ~component:"cohort" "unrelated";
              stage 4 "certificates" 386;
            ]
        in
        check
          Alcotest.(list (pair string int))
          "stages in order"
          [ ("registered", 17500); ("watched_video", 7191);
            ("certificates", 386) ]
          (List.map (fun s -> (s.Q.f_stage, s.Q.f_count)) stages));
    tc "funnel JSON and spans JSON parse" (fun () ->
        let stages = [ { Q.f_stage = "registered"; f_count = 10 } ] in
        (match obj_field "funnel" (parse_json (Q.funnel_to_json stages)) with
        | Some (Json.Arr [ _ ]) -> ()
        | _ -> Alcotest.fail "funnel json");
        let spans =
          Q.spans_of
            [
              ev ~seq:1 ~ts:0.0 ~component:"c" "work.begin";
              ev ~seq:2 ~ts:1.0 ~component:"c" "work.end";
            ]
        in
        match obj_field "spans" (parse_json (Q.spans_to_json spans)) with
        | Some (Json.Arr [ sp ]) ->
          check Alcotest.bool "label from prefix" true
            (obj_field "name" sp = Some (Json.Str "c/work"))
        | _ -> Alcotest.fail "spans json");
  ]

(* ------------------------------------------------------------------ *)
(* time series (per-domain rings, merge-on-read, the sampler)          *)
(* ------------------------------------------------------------------ *)

module Ts = Vc_util.Timeseries
module Prof = Vc_util.Profile

let check_raises_invalid_arg f =
  check Alcotest.bool "raises Invalid_argument" true
    (match f () with _ -> false | exception Invalid_argument _ -> true)

let timeseries_tests =
  [
    tc "points come back merged in timestamp order" (fun () ->
        Ts.reset ();
        Ts.record ~ts:3.0 "ts.a" 30.0;
        Ts.record ~ts:1.0 "ts.a" 10.0;
        Ts.record ~ts:2.0 "ts.a" 20.0;
        check
          Alcotest.(list (pair (float 1e-9) (float 1e-9)))
          "sorted by ts"
          [ (1.0, 10.0); (2.0, 20.0); (3.0, 30.0) ]
          (List.map
             (fun p -> (p.Ts.p_ts, p.Ts.p_value))
             (Ts.points "ts.a")));
    tc "the ring keeps only the newest capacity points" (fun () ->
        Ts.reset ();
        Ts.define ~capacity:4 "ts.ring";
        for i = 1 to 10 do
          Ts.record ~ts:(float_of_int i) "ts.ring" (float_of_int i)
        done;
        check
          Alcotest.(list (float 1e-9))
          "last four" [ 7.0; 8.0; 9.0; 10.0 ]
          (List.map (fun p -> p.Ts.p_value) (Ts.points "ts.ring")));
    tc "define validates capacity and first definition wins" (fun () ->
        Ts.reset ();
        check_raises_invalid_arg (fun () -> Ts.define ~capacity:0 "ts.bad");
        Ts.define ~capacity:2 "ts.pin";
        Ts.define ~capacity:99 "ts.pin";
        for i = 1 to 5 do
          Ts.record ~ts:(float_of_int i) "ts.pin" (float_of_int i)
        done;
        check Alcotest.int "capacity 2 held" 2
          (List.length (Ts.points "ts.pin")));
    tc "cells from different domains merge on read" (fun () ->
        Ts.reset ();
        Ts.record ~ts:1.0 "ts.merge" 1.0;
        Domain.join
          (Domain.spawn (fun () -> Ts.record ~ts:2.0 "ts.merge" 2.0));
        check
          Alcotest.(list (float 1e-9))
          "both domains" [ 1.0; 2.0 ]
          (List.map (fun p -> p.Ts.p_value) (Ts.points "ts.merge")));
    tc "last and names" (fun () ->
        Ts.reset ();
        check Alcotest.bool "empty last" true (Ts.last "ts.x" = None);
        Ts.record ~ts:1.0 "ts.x" 1.0;
        Ts.record ~ts:2.0 "ts.x" 5.0;
        Ts.record ~ts:1.0 "ts.b" 0.0;
        (match Ts.last "ts.x" with
        | Some p -> check (Alcotest.float 1e-9) "newest" 5.0 p.Ts.p_value
        | None -> Alcotest.fail "no last point");
        check Alcotest.bool "names sorted" true
          (let names = Ts.names () in
           List.mem "ts.b" names && List.mem "ts.x" names
           && names = List.sort compare names));
    tc "varz_json parses and carries telemetry, series and profile"
      (fun () ->
        T.reset ();
        Ts.reset ();
        T.incr "varz.c";
        Ts.record ~ts:1.0 "varz.series" 42.0;
        let j = parse_json (Ts.varz_json ()) in
        (match obj_field "telemetry" j with
        | Some (Json.Obj _) -> ()
        | _ -> Alcotest.fail "no telemetry object");
        (match
           Option.bind (obj_field "series" j) (obj_field "varz.series")
         with
        | Some (Json.Arr [ Json.Arr [ Json.Num 1.0; Json.Num 42.0 ] ]) -> ()
        | _ -> Alcotest.fail "series not rendered as [ts, value] pairs");
        match Option.bind (obj_field "profile" j) (obj_field "ticks") with
        | Some (Json.Num _) -> ()
        | _ -> Alcotest.fail "no profile.ticks");
    tc "sampler ticks derive gauge, rate, ratio and percentile series"
      (fun () ->
        T.reset ();
        Ts.reset ();
        with_fake_clock [ 100.0; 102.0; 104.0 ] (fun () ->
            let sources =
              [
                Ts.Gauge "s.gauge";
                Ts.Rate { counters = [ "s.count" ]; series = "s.qps" };
                Ts.Ratio
                  {
                    num = [ "s.hit" ];
                    den = [ "s.hit"; "s.miss" ];
                    series = "s.hit_rate";
                  };
                Ts.Percentiles "s.lat";
              ]
            in
            (* create reads the clock once (100.0) to stamp last_ts *)
            let sampler =
              Ts.Sampler.create ~profile:false ~sources ~interval:1.0 ()
            in
            T.set_gauge "s.gauge" 7.0;
            T.incr ~by:20 "s.count";
            T.incr ~by:3 "s.hit";
            T.incr ~by:1 "s.miss";
            T.observe "s.lat" 0.010;
            Ts.Sampler.tick sampler;
            (* tick at 102.0: dt = 2s *)
            check (Alcotest.float 1e-9) "gauge copied" 7.0
              (match Ts.last "s.gauge" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            check (Alcotest.float 1e-9) "rate = 20 / 2s" 10.0
              (match Ts.last "s.qps" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            check (Alcotest.float 1e-9) "ratio = 3 / 4" 0.75
              (match Ts.last "s.hit_rate" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            check_quantile "p99 in ms" [ 10.0 ] 99.0
              (match Ts.last "s.lat.p99_ms" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            (* second tick with no new counts: rate falls to 0, the
               idle ratio and idle timer window record no point *)
            Ts.Sampler.tick sampler;
            check (Alcotest.float 1e-9) "idle rate" 0.0
              (match Ts.last "s.qps" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            check Alcotest.int "ratio skipped the idle tick" 1
              (List.length (Ts.points "s.hit_rate"));
            check Alcotest.int "percentiles skipped the idle tick" 1
              (List.length (Ts.points "s.lat.p99_ms"))));
    tc "/varz phase percentiles cover the last window, not the run"
      (fun () ->
        T.reset ();
        Ts.reset ();
        with_fake_clock [ 100.0; 101.0; 102.0 ] (fun () ->
            let sampler = Ts.Sampler.create ~profile:false ~interval:1.0 () in
            for _ = 1 to 10_000 do
              T.observe "server.phase.queue" 0.001
            done;
            Ts.Sampler.tick sampler;
            for _ = 1 to 100 do
              T.observe "server.phase.queue" 0.200
            done;
            Ts.Sampler.tick sampler;
            (* a lifetime p99 over all 10,100 samples would still read
               1 ms; the second window holds only the slow ones *)
            let last_p99 =
              match
                Option.bind
                  (obj_field "series" (parse_json (Ts.varz_json ())))
                  (obj_field "server.phase.queue.p99_ms")
              with
              | Some (Json.Arr points) -> (
                match List.rev points with
                | Json.Arr [ _; Json.Num v ] :: _ -> v
                | _ -> nan)
              | _ -> Alcotest.fail "no server.phase.queue.p99_ms series"
            in
            check_quantile "window p99 (ms)" [ 200.0 ] 99.0 last_p99;
            check Alcotest.int "one point per window" 2
              (List.length (Ts.points "server.phase.queue.p99_ms"))));
    tc "sampler derives per-worker utilization from busy timers"
      (fun () ->
        T.reset ();
        Ts.reset ();
        with_fake_clock [ 100.0; 102.0; 104.0 ] (fun () ->
            let sources =
              [ Ts.Utilization { prefix = "w."; suffix = ".busy" } ]
            in
            let sampler =
              Ts.Sampler.create ~profile:false ~sources ~interval:1.0 ()
            in
            Ts.Sampler.tick sampler;
            (* the first tick snapshots the (empty) totals *)
            T.observe "w.0.busy" 0.5;
            T.observe "w.0.busy" 0.5;
            T.observe "w.1.busy" 10.0;
            Ts.Sampler.tick sampler;
            (* dt = 2s: worker 0 was busy 1.0s -> 0.5; worker 1's 10s
               clamps to 1.0 *)
            check (Alcotest.float 1e-9) "half busy" 0.5
              (match Ts.last "w.0.util" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            check (Alcotest.float 1e-9) "clamped" 1.0
              (match Ts.last "w.1.util" with
              | Some p -> p.Ts.p_value
              | None -> nan)));
    tc "sampler start/stop with a zero interval never spawns" (fun () ->
        let s =
          Ts.Sampler.start ~profile:false ~sources:[] ~interval:0.0 ()
        in
        Ts.Sampler.stop s;
        Ts.Sampler.stop s (* idempotent *));
  ]

(* ------------------------------------------------------------------ *)
(* continuous profiler                                                 *)
(* ------------------------------------------------------------------ *)

let profile_tests =
  [
    tc "span frames nest and restore" (fun () ->
        Prof.reset ();
        let seen stack = List.mem stack (Span.stacks ()) in
        Span.with_ "outer" (fun () ->
            Span.with_ "inner" (fun () ->
                check Alcotest.bool "outermost first" true
                  (seen [ "outer"; "inner" ])));
        check Alcotest.bool "popped" true (seen [] && not (seen [ "outer" ]));
        (try Span.with_ "boom" (fun () -> failwith "x") with Failure _ -> ());
        check Alcotest.bool "restored after raise" true
          (seen [] && not (seen [ "boom" ])));
    tc "ticks aggregate folded stacks and count idle domains" (fun () ->
        Prof.reset ();
        Span.register ();
        Prof.tick ();
        Span.with_ "worker" (fun () ->
            Span.with_ "execute" (fun () -> Prof.tick ()));
        check Alcotest.int "two ticks" 2 (Prof.ticks ());
        check Alcotest.bool "at least one sample per tick" true
          (Prof.samples () >= 2);
        let folded = Prof.folded () in
        check Alcotest.bool "idle observed" true
          (List.mem_assoc "idle" folded);
        check Alcotest.bool "folded stack observed" true
          (List.mem_assoc "worker;execute" folded));
    tc "journal:true emits one sample event per distinct stack" (fun () ->
        Prof.reset ();
        Journal.clear ();
        Span.with_ "worker" (fun () -> Prof.tick ~journal:true ());
        let samples =
          List.filter
            (fun e ->
              e.Journal.ev_component = "profile"
              && e.Journal.ev_name = "sample")
            (Journal.events ())
        in
        check Alcotest.bool "at least the worker stack" true
          (List.exists
             (fun e ->
               List.assoc_opt "stack" e.Journal.ev_attrs = Some "worker")
             samples);
        List.iter
          (fun e ->
            check Alcotest.bool "tick attr present" true
              (List.mem_assoc "tick" e.Journal.ev_attrs);
            check Alcotest.bool "count attr parses" true
              (match List.assoc_opt "count" e.Journal.ev_attrs with
              | Some c -> int_of_string_opt c <> None
              | None -> false))
          samples);
    tc "to_folded_text renders stack-space-count lines" (fun () ->
        check Alcotest.string "folded format" "a;b 3\nidle 1\n"
          (Prof.to_folded_text [ ("a;b", 3); ("idle", 1) ]));
    tc "flamegraph_svg is well-formed and accounts for every sample"
      (fun () ->
        let svg =
          Prof.flamegraph_svg ~ticks:4
            [ ("worker;execute;minisat", 3); ("worker;cache", 1); ("idle", 4) ]
        in
        check Alcotest.bool "svg element" true
          (String.starts_with ~prefix:"<svg" svg);
        check Alcotest.bool "closed" true (contains svg "</svg>");
        check Alcotest.bool "frames drawn" true (contains svg "<rect");
        check Alcotest.bool "metadata comment" true
          (contains svg
             "<!-- flamegraph samples=8 root_samples=8 ticks=4 -->");
        check Alcotest.bool "tool frame titled" true
          (contains svg "minisat: 3 sample(s)"));
    tc "flamegraph_svg escapes frame names" (fun () ->
        let svg = Prof.flamegraph_svg [ ("a<b>&\"c\"", 1) ] in
        check Alcotest.bool "escaped" true
          (contains svg "a&lt;b&gt;&amp;&quot;c&quot;");
        check Alcotest.bool "raw angle gone" false (contains svg "a<b>"));
    tc "empty input still renders a parseable document" (fun () ->
        let svg = Prof.flamegraph_svg [] in
        check Alcotest.bool "svg" true (String.starts_with ~prefix:"<svg" svg);
        check Alcotest.bool "zero samples" true
          (contains svg "samples=0 root_samples=0"));
    tc "reset clears aggregates and the caller's stack" (fun () ->
        Span.with_ "x" (fun () ->
            Prof.tick ();
            Prof.reset ();
            check Alcotest.int "ticks cleared" 0 (Prof.ticks ());
            check Alcotest.int "samples cleared" 0 (Prof.samples ());
            check Alcotest.bool "stack cleared" false
              (List.mem [ "x" ] (Span.stacks ()))));
  ]

(* ------------------------------------------------------------------ *)
(* metrics server: registered routes, readiness, head scanning         *)
(* ------------------------------------------------------------------ *)

let routes_tests =
  [
    tc "registered routes serve, unregister 404s, and the 404 lists them"
      (fun () ->
        MS.register_route "/custom" (fun () ->
            {
              MS.rp_status = "200 OK";
              rp_content_type = "application/json";
              rp_body = "{\"ok\":true}\n";
            });
        Fun.protect
          ~finally:(fun () -> MS.unregister_route "/custom")
          (fun () ->
            check Alcotest.bool "listed" true
              (List.mem "/custom" (MS.registered_routes ()));
            with_server
              (fun () -> "")
              (fun srv ->
                let resp = roundtrip srv "GET /custom HTTP/1.1\r\n\r\n" in
                check Alcotest.bool "served" true
                  (contains resp "{\"ok\":true}");
                check Alcotest.bool "content type" true
                  (contains resp "application/json");
                let missing = roundtrip srv "GET /nope HTTP/1.1\r\n\r\n" in
                check Alcotest.bool "404 hints the custom route" true
                  (contains missing "/custom");
                check Alcotest.bool "404 hints the built-ins" true
                  (contains missing "/metrics")));
        with_server
          (fun () -> "")
          (fun srv ->
            check Alcotest.bool "unregistered is 404" true
              (contains (roundtrip srv "GET /custom HTTP/1.1\r\n\r\n") "404")));
    tc "register_route rejects paths without a leading slash" (fun () ->
        check_raises_invalid_arg (fun () ->
            MS.register_route "nope" (fun () ->
                {
                  MS.rp_status = "200 OK";
                  rp_content_type = "text/plain";
                  rp_body = "";
                })));
    tc "a raising route handler degrades to a 500" (fun () ->
        MS.register_route "/boom" (fun () -> failwith "handler broke");
        Fun.protect
          ~finally:(fun () -> MS.unregister_route "/boom")
          (fun () ->
            with_server
              (fun () -> "")
              (fun srv ->
                let resp = roundtrip srv "GET /boom HTTP/1.1\r\n\r\n" in
                check Alcotest.bool "500" true (contains resp "500");
                check Alcotest.bool "reason" true
                  (contains resp "route handler failed"))));
    tc "/readyz follows the ready probe" (fun () ->
        let ready = ref true in
        MS.set_ready_probe (fun () -> !ready);
        Fun.protect
          ~finally:(fun () -> MS.set_ready_probe (fun () -> true))
          (fun () ->
            with_server
              (fun () -> "")
              (fun srv ->
                check Alcotest.bool "ready is 200 ok" true
                  (contains
                     (roundtrip srv "GET /readyz HTTP/1.1\r\n\r\n")
                     "200 OK");
                ready := false;
                let resp = roundtrip srv "GET /readyz HTTP/1.1\r\n\r\n" in
                check Alcotest.bool "draining is 503" true
                  (contains resp "503");
                check Alcotest.bool "draining body" true
                  (contains resp "draining"))));
    tc "request heads larger than one read chunk still route" (fun () ->
        (* read_head scans chunk windows with a 3-byte carry; a >1 KiB
           header block crosses several chunks and the terminator can
           straddle a boundary *)
        with_server
          (fun () -> "ok")
          (fun srv ->
            let pad = String.make 3000 'x' in
            let resp =
              roundtrip srv
                (Printf.sprintf
                   "GET /metrics HTTP/1.1\r\nX-Pad: %s\r\n\r\n" pad)
            in
            check Alcotest.bool "200 despite the long head" true
              (contains resp "200 OK")));
  ]

(* ------------------------------------------------------------------ *)
(* journal-query: continuous-profile reconstruction                    *)
(* ------------------------------------------------------------------ *)

let profile_query_tests =
  [
    tc "profile_folded rebuilds stacks and tick counts from the journal"
      (fun () ->
        let sample seq tick stack count =
          ev ~seq ~component:"profile"
            ~attrs:
              [
                ("tick", string_of_int tick); ("stack", stack);
                ("count", string_of_int count);
              ]
            "sample"
        in
        let module Q = Vc_util.Journal_query in
        let ticks, folded =
          Q.profile_folded
            [
              sample 1 1 "idle" 3;
              sample 2 1 "worker;execute;minisat" 1;
              sample 3 2 "idle" 4;
              ev ~seq:4 ~component:"server" "request.replied";
            ]
        in
        check Alcotest.int "distinct ticks" 2 ticks;
        check
          Alcotest.(list (pair string int))
          "aggregated, most samples first"
          [ ("idle", 7); ("worker;execute;minisat", 1) ]
          folded);
    tc "profile_folded over an unrelated journal is empty" (fun () ->
        let module Q = Vc_util.Journal_query in
        check
          Alcotest.(pair int (list (pair string int)))
          "no samples" (0, [])
          (Q.profile_folded [ ev ~seq:1 ~component:"portal" "submission" ]));
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("telemetry", telemetry_tests);
      ("json", json_tests);
      ("clock", clock_tests);
      ("journal", journal_tests);
      ("regress", regress_tests);
      ("portal-cache", portal_tests);
      ("portal-journal", portal_journal_tests);
      ("metric-kinds", metric_kinds_tests);
      ("prometheus", prometheus_tests);
      ("metrics-server", metrics_server_tests);
      ("metrics-server-routes", routes_tests);
      ("journal-degrade", journal_degrade_tests);
      ("journal-query", journal_query_tests);
      ("timeseries", timeseries_tests);
      ("profile", profile_tests);
      ("profile-query", profile_query_tests);
    ]
