(* The multicore portal service: token bucket, deadline predicate, tool
   resolution, the structured outcome API, every admission-control
   rejection path, graceful shutdown, and the multi-domain stress test
   whose outputs must be byte-identical to a sequential oracle. *)

open Helpers
module T = Vc_util.Telemetry
module Journal = Vc_util.Journal
module Portal = Vc_mooc.Portal
module Server = Vc_mooc.Server

let fresh () =
  T.reset ();
  Journal.clear ();
  Portal.clear_cache ();
  Portal.set_cache_shards 16;
  Portal.set_cache_capacity 512

(* a synthetic tool: pure, fast, no kernel dependency *)
let echo =
  {
    Portal.tool_name = "echo";
    description = "test tool";
    max_input_lines = 3;
    execute = (fun s -> "echo: " ^ s);
  }

(* ------------------------------------------------------------------ *)
(* token bucket + deadline predicate (injected clocks, no sleeping)    *)
(* ------------------------------------------------------------------ *)

let token_bucket_tests =
  [
    tc "burst is honoured, then the bucket runs dry" (fun () ->
        let b = Server.Token_bucket.create ~rate:1.0 ~burst:2.0 ~now:0.0 in
        check Alcotest.bool "1st" true (Server.Token_bucket.try_take b ~now:0.0);
        check Alcotest.bool "2nd" true (Server.Token_bucket.try_take b ~now:0.0);
        check Alcotest.bool "3rd is dry" false
          (Server.Token_bucket.try_take b ~now:0.0));
    tc "tokens refill with elapsed time, capped at burst" (fun () ->
        let b = Server.Token_bucket.create ~rate:2.0 ~burst:2.0 ~now:0.0 in
        ignore (Server.Token_bucket.try_take b ~now:0.0);
        ignore (Server.Token_bucket.try_take b ~now:0.0);
        check Alcotest.bool "dry" false (Server.Token_bucket.try_take b ~now:0.0);
        (* 0.5 s at 2 tokens/s refills exactly one *)
        check Alcotest.bool "refilled" true
          (Server.Token_bucket.try_take b ~now:0.5);
        check Alcotest.bool "only one" false
          (Server.Token_bucket.try_take b ~now:0.5);
        (* a long idle period caps at burst, not rate * dt *)
        check (Alcotest.float 1e-9) "capped" 2.0
          (Server.Token_bucket.available b ~now:1000.0));
    tc "rate 0 never refills" (fun () ->
        let b = Server.Token_bucket.create ~rate:0.0 ~burst:1.0 ~now:0.0 in
        check Alcotest.bool "take" true (Server.Token_bucket.try_take b ~now:0.0);
        check Alcotest.bool "never again" false
          (Server.Token_bucket.try_take b ~now:1e12));
    tc "clock going backwards does not refund tokens" (fun () ->
        let b = Server.Token_bucket.create ~rate:1.0 ~burst:1.0 ~now:100.0 in
        ignore (Server.Token_bucket.try_take b ~now:100.0);
        check Alcotest.bool "no refund" false
          (Server.Token_bucket.try_take b ~now:50.0));
    tc "create validates parameters" (fun () ->
        check Alcotest.bool "negative rate" true
          (match Server.Token_bucket.create ~rate:(-1.0) ~burst:1.0 ~now:0.0 with
          | exception Invalid_argument _ -> true
          | _ -> false);
        check Alcotest.bool "zero burst" true
          (match Server.Token_bucket.create ~rate:1.0 ~burst:0.0 ~now:0.0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    tc "deadline predicate" (fun () ->
        let exp = Server.deadline_expired in
        check Alcotest.bool "infinite never expires" false
          (exp ~enqueued:0.0 ~deadline_s:Float.infinity ~now:1e18);
        check Alcotest.bool "zero always expires" true
          (exp ~enqueued:10.0 ~deadline_s:0.0 ~now:10.0);
        check Alcotest.bool "before the deadline" false
          (exp ~enqueued:10.0 ~deadline_s:5.0 ~now:14.9);
        check Alcotest.bool "at the deadline" true
          (exp ~enqueued:10.0 ~deadline_s:5.0 ~now:15.0);
        check Alcotest.bool "clock skew counts as zero wait" false
          (exp ~enqueued:10.0 ~deadline_s:5.0 ~now:3.0));
  ]

(* ------------------------------------------------------------------ *)
(* tool resolution                                                     *)
(* ------------------------------------------------------------------ *)

let resolve_tests =
  [
    tc "resolution is case-insensitive and trims whitespace" (fun () ->
        List.iter
          (fun (typed, expect) ->
            match Portal.find_tool typed with
            | Some t ->
              check Alcotest.string typed expect t.Portal.tool_name
            | None -> Alcotest.failf "%S did not resolve" typed)
          [
            ("kbdd", "kbdd"); ("KBDD", "kbdd"); (" Espresso ", "espresso");
            ("MiniSAT", "minisat"); ("sis", "sis"); ("AXB", "axb");
          ]);
    tc "colloquial aliases resolve" (fun () ->
        check Alcotest.string "bdd" "kbdd"
          (Portal.canonical_name "bdd");
        check Alcotest.string "sat" "minisat"
          (Portal.canonical_name " SAT ");
        check Alcotest.bool "alias finds the tool" true
          (match Portal.find_tool "BDD" with
          | Some t -> t.Portal.tool_name = "kbdd"
          | None -> false));
    tc "near-miss gets a suggestion, garbage does not" (fun () ->
        let contains ~sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        (match Portal.resolve_tool "kbddd" with
        | Ok _ -> Alcotest.fail "kbddd resolved"
        | Error msg ->
          check Alcotest.bool "lists tools" true
            (contains ~sub:"available: kbdd, espresso, sis, minisat, axb" msg);
          check Alcotest.bool "suggests kbdd" true
            (String.ends_with ~suffix:"did you mean kbdd?" msg));
        match Portal.resolve_tool "zzzzzz" with
        | Ok _ -> Alcotest.fail "zzzzzz resolved"
        | Error msg ->
          check Alcotest.bool "no suggestion" false
            (String.ends_with ~suffix:"?" msg));
    tc "every canonical name resolves to itself" (fun () ->
        List.iter
          (fun t ->
            match Portal.resolve_tool t.Portal.tool_name with
            | Ok t' ->
              check Alcotest.string t.Portal.tool_name t.Portal.tool_name
                t'.Portal.tool_name
            | Error e -> Alcotest.fail e)
          Portal.all_tools);
  ]

(* ------------------------------------------------------------------ *)
(* structured outcome API                                              *)
(* ------------------------------------------------------------------ *)

let outcome_tests =
  [
    tc "execute, then cache hit, with matching payloads" (fun () ->
        fresh ();
        let s = Portal.create_session () in
        (match Portal.submit_result s echo "hello" with
        | Portal.Executed out -> check Alcotest.string "payload" "echo: hello" out
        | _ -> Alcotest.fail "expected Executed");
        match Portal.submit_result s echo "hello" with
        | Portal.Cache_hit out -> check Alcotest.string "payload" "echo: hello" out
        | _ -> Alcotest.fail "expected Cache_hit");
    tc "runaway rejection carries its reason" (fun () ->
        fresh ();
        let s = Portal.create_session () in
        match Portal.submit_result s echo "a\nb\nc\nd\ne" with
        | Portal.Rejected (Portal.Runaway msg) ->
          check Alcotest.string "label" "runaway"
            (Portal.reason_label (Portal.Runaway msg));
          check Alcotest.bool "mentions the limit" true
            (String.ends_with ~suffix:"portal limit 3)" msg)
        | _ -> Alcotest.fail "expected Rejected Runaway");
    tc "outcome_output collapses outcomes to display strings" (fun () ->
        fresh ();
        let s = Portal.create_session () in
        let submit_str input =
          Portal.outcome_output (Portal.submit_result s echo input)
        in
        check Alcotest.string "executed" "echo: x" (submit_str "x");
        check Alcotest.string "cache hit" "echo: x" (submit_str "x");
        let rejected = submit_str "a\nb\nc\nd" in
        check Alcotest.bool "error text" true
          (String.starts_with ~prefix:"error: " rejected));
    tc "reason labels are distinct and stable" (fun () ->
        let labels =
          List.map Portal.reason_label
            [
              Portal.Runaway "m"; Portal.Overloaded "m";
              Portal.Rate_limited "m"; Portal.Deadline_exceeded "m";
            ]
        in
        check
          Alcotest.(list string)
          "labels"
          [ "runaway"; "overloaded"; "rate_limited"; "deadline" ]
          labels;
        check Alcotest.int "all distinct" 4
          (List.length (List.sort_uniq compare labels)));
    tc "cache stats survive a telemetry reset" (fun () ->
        fresh ();
        let s = Portal.create_session () in
        ignore (Portal.submit_result s echo "x");
        ignore (Portal.submit_result s echo "x");
        T.reset ();
        (* the mirrors are gone but the cache's own atomics are not *)
        check Alcotest.int "mirror reset" 0 (T.counter "portal.cache.hits");
        check
          Alcotest.(pair int int)
          "stats intact" (1, 1) (Portal.cache_stats ()));
  ]

(* ------------------------------------------------------------------ *)
(* server admission control                                            *)
(* ------------------------------------------------------------------ *)

let reject_counter label = T.counter ("server.outcome.rejected." ^ label)

let has_journal_event name =
  List.exists
    (fun e -> e.Journal.ev_component = "server" && e.Journal.ev_name = name)
    (Journal.events ())

let server_tests =
  [
    tc "zero-capacity queue rejects Overloaded immediately" (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:
              { Server.default_config with Server.workers = 1; queue_capacity = 0 }
            ()
        in
        (match Server.submit srv (Portal.request ~session:"s" echo "x") with
        | Portal.Rejected (Portal.Overloaded _) -> ()
        | _ -> Alcotest.fail "expected Overloaded");
        Server.stop srv;
        check Alcotest.int "counter" 1 (reject_counter "overloaded");
        check Alcotest.bool "journal event" true
          (has_journal_event "job.rejected.overloaded"));
    tc "empty token bucket rejects Rate_limited per session" (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:
              {
                Server.default_config with
                Server.workers = 1;
                rate_limit = Some (0.0, 1.0);
              }
            ()
        in
        (match Server.submit srv (Portal.request ~session:"a" echo "x") with
        | Portal.Executed _ -> ()
        | _ -> Alcotest.fail "first submission should execute");
        (match Server.submit srv (Portal.request ~session:"a" echo "y") with
        | Portal.Rejected (Portal.Rate_limited _) -> ()
        | _ -> Alcotest.fail "expected Rate_limited");
        (* a different session has its own bucket *)
        (match Server.submit srv (Portal.request ~session:"b" echo "z") with
        | Portal.Executed _ -> ()
        | _ -> Alcotest.fail "fresh session should execute");
        Server.stop srv;
        check Alcotest.int "counter" 1 (reject_counter "rate_limited");
        check Alcotest.bool "journal event" true
          (has_journal_event "job.rejected.rate_limited"));
    tc "zero deadline rejects Deadline_exceeded at dequeue" (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:
              { Server.default_config with Server.workers = 1; deadline_s = 0.0 }
            ()
        in
        (match Server.submit srv (Portal.request ~session:"s" echo "x") with
        | Portal.Rejected (Portal.Deadline_exceeded _) -> ()
        | _ -> Alcotest.fail "expected Deadline_exceeded");
        Server.stop srv;
        check Alcotest.int "counter" 1 (reject_counter "deadline");
        check Alcotest.bool "journal event" true
          (has_journal_event "job.rejected.deadline");
        check Alcotest.bool "queue wait was still recorded" true
          (T.timer "server.queue_wait" <> None));
    tc "runaway inputs reach the portal guard through the server" (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:{ Server.default_config with Server.workers = 1 }
            ()
        in
        (match Server.submit srv (Portal.request ~session:"s" echo "a\nb\nc\nd") with
        | Portal.Rejected (Portal.Runaway _) -> ()
        | _ -> Alcotest.fail "expected Runaway");
        Server.stop srv;
        check Alcotest.int "counter" 1 (reject_counter "runaway"));
    tc "stop is graceful and idempotent; submissions after stop bounce"
      (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:{ Server.default_config with Server.workers = 2 }
            ()
        in
        (match Server.submit srv (Portal.request ~session:"s" echo "x") with
        | Portal.Executed _ -> ()
        | _ -> Alcotest.fail "expected Executed");
        Server.stop srv;
        Server.stop srv;
        (match Server.submit srv (Portal.request ~session:"s" echo "y") with
        | Portal.Rejected (Portal.Overloaded msg) ->
          check Alcotest.string "message" "server is shutting down" msg
        | _ -> Alcotest.fail "expected Overloaded after stop");
        check Alcotest.int "drained" 0 (Server.queue_depth srv);
        check Alcotest.bool "start event" true (has_journal_event "server.start");
        check Alcotest.bool "stop event" true (has_journal_event "server.stop"));
    tc "sessions persist across submissions and keep history" (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:{ Server.default_config with Server.workers = 1 }
            ()
        in
        ignore (Server.submit srv (Portal.request ~session:"s" echo "one"));
        ignore (Server.submit srv (Portal.request ~session:"s" echo "two"));
        Server.stop srv;
        let h = Portal.history (Server.session srv "s") echo in
        check Alcotest.int "two entries" 2 (List.length h);
        check
          Alcotest.(list (pair string string))
          "ordered oldest first"
          [ ("one", "echo: one"); ("two", "echo: two") ]
          h);
  ]

(* ------------------------------------------------------------------ *)
(* wire protocol: the TRACE operand round-trips                        *)
(* ------------------------------------------------------------------ *)

module Wire = Vc_mooc.Wire

(* Drive session_loop over temp-file channels with a stub submit that
   records what reached it; returns (captured submissions, raw output). *)
let run_wire_script script =
  let in_file = Filename.temp_file "wire_in" ".txt" in
  let out_file = Filename.temp_file "wire_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_file;
      Sys.remove out_file)
    (fun () ->
      Out_channel.with_open_text in_file (fun oc ->
          Out_channel.output_string oc script);
      let captured = ref [] in
      let submit (req : Portal.request) =
        captured :=
          (req.Portal.req_session, req.Portal.req_trace, req.Portal.req_input)
          :: !captured;
        Portal.Executed ("ran: " ^ req.Portal.req_input)
      in
      In_channel.with_open_text in_file (fun input ->
          Out_channel.with_open_text out_file (fun output ->
              ignore (Wire.session_loop ~input ~output ~submit ())));
      (List.rev !captured, In_channel.with_open_text out_file In_channel.input_all))

let wire_tests =
  [
    tc "TRACE operand reaches submit and is echoed on the status line"
      (fun () ->
        let captured, out =
          run_wire_script
            "TOOL axb TRACE deadbeef\nhi\n.\nTOOL axb s9 TRACE \
             00c0ffee00c0ffee\nhi\n.\nTOOL axb\nhi\n.\nQUIT\n"
        in
        check
          Alcotest.(list (triple string (option string) string))
          "captured submissions"
          [
            ("default", Some "deadbeef", "hi");
            ("s9", Some "00c0ffee00c0ffee", "hi");
            ("default", None, "hi");
          ]
          captured;
        check Alcotest.string "responses"
          "OK executed trace=deadbeef\nran: hi\n.\nOK executed \
           trace=00c0ffee00c0ffee\nran: hi\n.\nOK executed\nran: hi\n.\n"
          out);
    tc "invalid TRACE id is rejected without calling submit or desyncing"
      (fun () ->
        let captured, out =
          run_wire_script
            "TOOL axb TRACE NotHex!\nignored\n.\nTOOL axb TRACE \
             abc\nignored\n.\nTOOL axb\nhi\n.\nQUIT\n"
        in
        (* the bad uploads' bodies were consumed, so the follow-up
           request still parsed cleanly *)
        check
          Alcotest.(list (triple string (option string) string))
          "only the valid request got through"
          [ ("default", None, "hi") ]
          captured;
        check Alcotest.string "responses"
          "ERR trace invalid trace id (4-64 lowercase hex chars)\n.\n\
           ERR trace invalid trace id (4-64 lowercase hex chars)\n.\n\
           OK executed\nran: hi\n.\n"
          out);
    tc "trace_of_status parses the echo, absent on untraced lines"
      (fun () ->
        check
          Alcotest.(option string)
          "executed" (Some "deadbeef")
          (Wire.trace_of_status "OK executed trace=deadbeef");
        check
          Alcotest.(option string)
          "error lines echo too" (Some "00c0ffee")
          (Wire.trace_of_status "ERR unknown no such tool; did you mean \
                                 kbdd? trace=00c0ffee");
        check
          Alcotest.(option string)
          "untraced" None
          (Wire.trace_of_status "OK executed");
        check
          Alcotest.(option string)
          "empty" None (Wire.trace_of_status ""));
    tc "end-to-end over TCP: client trace id lands in the journal"
      (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:{ Server.default_config with Server.workers = 2 }
            ()
        in
        let listener = Wire.listen ~port:0 () in
        let acceptor =
          Domain.spawn (fun () ->
              Wire.serve listener ~submit:(Server.submit srv))
        in
        let conn = Wire.Client.connect ~port:(Wire.port listener) () in
        let status, _body =
          Wire.Client.submit conn ~trace:"f00dfeedf00dfeed" ~tool:"axb"
            "n 1\nrow 2\nrhs 4"
        in
        check
          Alcotest.(option string)
          "echoed back" (Some "f00dfeedf00dfeed")
          (Wire.trace_of_status status);
        Wire.Client.close conn;
        Wire.shutdown listener;
        Domain.join acceptor;
        ignore (Wire.drain_connections listener);
        Server.stop srv;
        let traced name =
          List.exists
            (fun e ->
              e.Journal.ev_name = name
              && List.assoc_opt "trace_id" e.Journal.ev_attrs
                 = Some "f00dfeedf00dfeed")
            (Journal.events ())
        in
        List.iter
          (fun name ->
            check Alcotest.bool (name ^ " carries the trace id") true
              (traced name))
          [ "request.admitted"; "request.dequeued"; "request.replied" ]);
  ]

(* ------------------------------------------------------------------ *)
(* sharded result cache                                                *)
(* ------------------------------------------------------------------ *)

(* distinct inputs that never collide: "x 0", "x 1", ... *)
let distinct_input i = Printf.sprintf "x %d" i

let shard_tests =
  [
    tc "per-shard LRU bound holds and sums to the aggregate" (fun () ->
        fresh ();
        Portal.set_cache_shards 4;
        Portal.set_cache_capacity 8;
        let s = Portal.create_session () in
        (* 40 distinct inputs: every shard overflows its slice *)
        for i = 0 to 39 do
          ignore (Portal.submit_result s echo (distinct_input i))
        done;
        let sizes = Portal.cache_shard_sizes () in
        check Alcotest.int "four shards" 4 (List.length sizes);
        List.iteri
          (fun i n ->
            check Alcotest.bool
              (Printf.sprintf "shard %d within its slice (%d <= 2)" i n)
              true (n <= 2))
          sizes;
        check Alcotest.int "sizes sum to cache_size"
          (Portal.cache_size ())
          (List.fold_left ( + ) 0 sizes);
        check Alcotest.bool "aggregate bound" true (Portal.cache_size () <= 8);
        check Alcotest.bool "evictions happened" true
          (Portal.cache_evictions () > 0));
    tc "uneven capacities still sum exactly to the aggregate" (fun () ->
        fresh ();
        Portal.set_cache_shards 4;
        Portal.set_cache_capacity 10;
        (* caps are 3,3,2,2: fill far past them and check the global bound *)
        let s = Portal.create_session () in
        for i = 0 to 99 do
          ignore (Portal.submit_result s echo (distinct_input i))
        done;
        check Alcotest.bool "size <= 10" true (Portal.cache_size () <= 10);
        check Alcotest.bool "cache is well used" true
          (Portal.cache_size () >= 8));
    tc "clear_cache empties every shard and zeroes the stats" (fun () ->
        fresh ();
        Portal.set_cache_shards 8;
        let s = Portal.create_session () in
        for i = 0 to 19 do
          ignore (Portal.submit_result s echo (distinct_input i))
        done;
        ignore (Portal.submit_result s echo (distinct_input 0));
        check Alcotest.bool "cache populated" true (Portal.cache_size () > 0);
        Portal.clear_cache ();
        check Alcotest.int "empty" 0 (Portal.cache_size ());
        List.iter
          (fun n -> check Alcotest.int "shard empty" 0 n)
          (Portal.cache_shard_sizes ());
        check Alcotest.(pair int int) "stats zeroed" (0, 0)
          (Portal.cache_stats ());
        check Alcotest.int "evictions zeroed" 0 (Portal.cache_evictions ()));
    tc "shrinking the capacity evicts down across shards" (fun () ->
        fresh ();
        Portal.set_cache_shards 4;
        Portal.set_cache_capacity 16;
        let s = Portal.create_session () in
        for i = 0 to 15 do
          ignore (Portal.submit_result s echo (distinct_input i))
        done;
        Portal.set_cache_capacity 4;
        check Alcotest.bool "evicted down" true (Portal.cache_size () <= 4);
        List.iter
          (fun n -> check Alcotest.bool "shard slice" true (n <= 1))
          (Portal.cache_shard_sizes ());
        (* capacity 0 disables caching entirely *)
        Portal.set_cache_capacity 0;
        check Alcotest.int "disabled empties" 0 (Portal.cache_size ());
        ignore (Portal.submit_result s echo (distinct_input 100));
        ignore (Portal.submit_result s echo (distinct_input 100));
        check Alcotest.int "nothing cached at 0" 0 (Portal.cache_size ()));
    tc "set_cache_shards validates and reconfigures" (fun () ->
        fresh ();
        check Alcotest.bool "zero shards rejected" true
          (match Portal.set_cache_shards 0 with
          | exception Invalid_argument _ -> true
          | _ -> false);
        Portal.set_cache_shards 3;
        check Alcotest.int "shard count" 3 (Portal.cache_shards ());
        check Alcotest.int "three slots" 3
          (List.length (Portal.cache_shard_sizes ()));
        (* reconfiguring drops entries but keeps the hit/miss stats *)
        let s = Portal.create_session () in
        ignore (Portal.submit_result s echo "kept stats");
        ignore (Portal.submit_result s echo "kept stats");
        Portal.set_cache_shards 5;
        check Alcotest.int "entries dropped" 0 (Portal.cache_size ());
        check Alcotest.(pair int int) "stats preserved" (1, 1)
          (Portal.cache_stats ()));
    tc "cache stats stay monotone under an 8-domain hammer" (fun () ->
        fresh ();
        Portal.set_cache_shards 16;
        Portal.set_cache_capacity 32;
        let hammers =
          List.init 8 (fun c ->
              Domain.spawn (fun () ->
                  let s = Portal.create_session () in
                  for k = 0 to 399 do
                    ignore
                      (Portal.submit_result s echo
                         (distinct_input ((c + (7 * k)) mod 64)))
                  done))
        in
        (* sample concurrently from this domain until every submission
           is accounted for: totals never go backwards, the size bound
           never breaks *)
        let violations = ref 0 in
        let last = ref (0, 0, 0) in
        let running = ref true in
        while !running do
          let h, m = Portal.cache_stats () in
          let e = Portal.cache_evictions () in
          let lh, lm, le = !last in
          if h < lh || m < lm || e < le then incr violations;
          if Portal.cache_size () > 32 then incr violations;
          last := (h, m, e);
          if h + m >= 3200 then running := false
        done;
        List.iter Domain.join hammers;
        check Alcotest.int "no monotonicity or bound violations" 0 !violations;
        let h, m = Portal.cache_stats () in
        check Alcotest.int "every submission counted" 3200 (h + m));
  ]

(* ------------------------------------------------------------------ *)
(* telemetry per-domain cells merge exactly                            *)
(* ------------------------------------------------------------------ *)

let merge_tests =
  [
    tc "per-domain counter increments sum exactly to the global report"
      (fun () ->
        fresh ();
        (* domain d increments the shared counter (d+1) * 100 times and
           its private counter d times; both must merge exactly, and the
           counts must survive the domains terminating *)
        let domains =
          List.init 8 (fun d ->
              Domain.spawn (fun () ->
                  for _ = 1 to (d + 1) * 100 do
                    T.incr "merge.shared"
                  done;
                  T.incr ~by:d (Printf.sprintf "merge.private.%d" d);
                  T.observe "merge.timer" 0.001))
        in
        List.iter Domain.join domains;
        T.incr "merge.shared";
        (* 100+200+...+800 from the workers, +1 from this domain *)
        check Alcotest.int "shared counter sums" 3601
          (T.counter "merge.shared");
        for d = 1 to 7 do
          check Alcotest.int
            (Printf.sprintf "private counter %d" d)
            d
            (T.counter (Printf.sprintf "merge.private.%d" d))
        done;
        (* counters () sees the merged view too *)
        check Alcotest.bool "merged listing agrees" true
          (List.assoc "merge.shared" (T.counters ()) = 3601);
        (* timer samples from every domain are merged *)
        match T.timer "merge.timer" with
        | Some s -> check Alcotest.int "eight samples" 8 s.T.count
        | None -> Alcotest.fail "merged timer missing");
    tc "reset clears every domain's cells" (fun () ->
        fresh ();
        let domains =
          List.init 4 (fun _ ->
              Domain.spawn (fun () -> T.incr "merge.reset.me"))
        in
        List.iter Domain.join domains;
        check Alcotest.int "visible before reset" 4
          (T.counter "merge.reset.me");
        T.reset ();
        check Alcotest.int "gone after reset" 0 (T.counter "merge.reset.me"));
  ]

(* ------------------------------------------------------------------ *)
(* multi-domain stress: parallel outputs byte-identical to sequential  *)
(* ------------------------------------------------------------------ *)

let stress_inputs =
  (* 25 distinct jobs cycling through three kernels, so concurrent
     submissions mix cache hits, misses and LRU evictions *)
  List.concat
    (List.init 8 (fun i ->
         [
           ( Portal.kbdd,
             Printf.sprintf
               "boolean a b c\nf = a & b | c\ng = f ^ a\nsatcount g\nprint g\n# %d"
               i );
           ( Portal.axb,
             Printf.sprintf "n 2\nrow %d 1\nrow 1 %d\nrhs %d %d" (i + 4)
               (i + 6) (i + 1) (i + 2) );
           ( Portal.espresso,
             Printf.sprintf ".i 3\n.o 1\n1%d0 1\n111 1\n011 1\n.e" (i mod 2) );
         ]))
  @ [ (Portal.minisat, "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0") ]

(* ------------------------------------------------------------------ *)
(* the request timeline through a real server                          *)
(* ------------------------------------------------------------------ *)

module Prof = Vc_util.Profile
module Span = Vc_util.Span

let phase_names attrs =
  List.filter_map
    (fun (k, _) -> if String.starts_with ~prefix:"phase." k then Some k else None)
    attrs

let events_named component name =
  List.filter_map
    (fun e ->
      if e.Journal.ev_component = component && e.Journal.ev_name = name then
        Some e.Journal.ev_attrs
      else None)
    (Journal.events ())

let timeline_tests =
  [
    tc "a traced miss and hit: profile stack, phase order, joined trace id"
      (fun () ->
        fresh ();
        Prof.reset ();
        (* the profiler samples from inside the kernel call, so the
           worker's stack is exactly worker;execute;<tool> at that tick *)
        let ticking =
          {
            Portal.tool_name = "ticking";
            description = "samples the profiler while it executes";
            max_input_lines = 3;
            execute =
              (fun s ->
                Prof.tick ();
                "ticked: " ^ s);
          }
        in
        let srv =
          Server.start
            ~config:{ Server.default_config with Server.workers = 1 }
            ()
        in
        let submit () =
          Server.submit srv
            (Portal.request ~trace:"feedc0de" ~session:"s" ticking "x")
        in
        (match submit () with
        | Portal.Executed _ -> ()
        | _ -> Alcotest.fail "first submission should execute");
        (match submit () with
        | Portal.Cache_hit _ -> ()
        | _ -> Alcotest.fail "second submission should hit the cache");
        Server.stop srv;
        check Alcotest.bool "worker;execute;ticking sampled" true
          (List.mem_assoc "worker;execute;ticking" (Prof.folded ()));
        let traced attrs = List.assoc_opt "trace_id" attrs = Some "feedc0de" in
        (match events_named "server" "request.replied" with
        | [ miss; hit ] ->
          check
            Alcotest.(list string)
            "miss phases"
            [ "phase.queue"; "phase.cache"; "phase.execute"; "phase.reply" ]
            (phase_names miss);
          check
            Alcotest.(list string)
            "hit phases"
            [ "phase.queue"; "phase.cache"; "phase.reply" ]
            (phase_names hit);
          List.iter
            (fun attrs ->
              check Alcotest.bool "replied carries the trace id" true
                (traced attrs);
              (* reply is the remainder, so the phases add up to the total *)
              let num k = float_of_string (List.assoc k attrs) in
              List.iter
                (fun k ->
                  check Alcotest.string (k ^ " is %.6f seconds")
                    (Printf.sprintf "%.6f" (num k))
                    (List.assoc k attrs))
                (phase_names attrs);
              let sum =
                List.fold_left (fun acc k -> acc +. num k) 0.0
                  (phase_names attrs)
              in
              check (Alcotest.float 1e-5) "phases sum to total_s"
                (num "total_s") sum)
            [ miss; hit ]
        | l ->
          Alcotest.fail
            (Printf.sprintf "%d request.replied events" (List.length l)));
        let submissions = events_named "portal" "submission" in
        check Alcotest.int "two submissions" 2 (List.length submissions);
        List.iter
          (fun attrs ->
            check Alcotest.bool "submission carries the trace id" true
              (traced attrs))
          submissions);
    tc "spans stay bounded over 100k executed submissions" (fun () ->
        fresh ();
        Portal.set_cache_capacity 16;
        let traced = Vc_util.Trace_ctx.(to_attrs (make "feedc0de")) in
        (* each call is a miss under a traced worker span, from a fresh
           session so no history accumulates *)
        let run lo hi =
          for i = lo to hi - 1 do
            Span.with_ ~attrs:traced "worker" (fun () ->
                ignore
                  (Portal.submit_result (Portal.create_session ()) echo
                     (distinct_input i)))
          done
        in
        run 0 1_000 (* warm: fills the span ring, the cache and the timers *);
        let live_words () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words
        in
        let before = live_words () in
        run 1_000 101_000;
        let grew = live_words () - before in
        check Alcotest.int "every call executed" 101_000
          (T.counter "portal.echo.executions");
        if grew >= 10_000 then
          Alcotest.failf "live heap grew by %d words over 100k misses" grew);
    tc "the profiler samples only live domains" (fun () ->
        fresh ();
        Prof.reset ();
        for _ = 1 to 5 do
          let srv =
            Server.start
              ~config:{ Server.default_config with Server.workers = 2 }
              ()
          in
          Server.stop srv
        done;
        Prof.tick ();
        (* every worker has exited: only the calling domain is left *)
        check Alcotest.int "one sample" 1 (Prof.samples ());
        check
          Alcotest.(list (pair string int))
          "the caller, idle" [ ("idle", 1) ] (Prof.folded ()));
  ]

let stress_tests =
  [
    tc "8 domains x 200 submissions match the sequential oracle" (fun () ->
        fresh ();
        Portal.set_cache_capacity 16;
        (* sequential oracle: tools are pure, so expected output is the
           tool run directly on the input *)
        let oracle =
          List.map
            (fun (tool, input) -> ((tool.Portal.tool_name, input), tool.Portal.execute input))
            stress_inputs
        in
        let expect tool input =
          List.assoc (tool.Portal.tool_name, input) oracle
        in
        let jobs = Array.of_list stress_inputs in
        let srv =
          Server.start
            ~config:
              {
                Server.default_config with
                Server.workers = 4;
                queue_capacity = 128;
              }
            ()
        in
        let mismatches = Atomic.make 0 and rejections = Atomic.make 0 in
        let clients =
          List.init 8 (fun c ->
              Domain.spawn (fun () ->
                  for k = 0 to 199 do
                    let tool, input =
                      jobs.((c + (3 * k)) mod Array.length jobs)
                    in
                    match
                      Server.submit srv
                        (Portal.request
                           ~session:(Printf.sprintf "stress-%d" c)
                           tool input)
                    with
                    | Portal.Executed out | Portal.Cache_hit out ->
                      if out <> expect tool input then Atomic.incr mismatches
                    | Portal.Rejected _ -> Atomic.incr rejections
                  done))
        in
        List.iter Domain.join clients;
        Server.stop srv;
        check Alcotest.int "no mismatched outputs" 0 (Atomic.get mismatches);
        check Alcotest.int "no rejections" 0 (Atomic.get rejections);
        (* counter consistency: every submission is accounted for exactly
           once, and the books balance across layers *)
        let executed = T.counter "server.outcome.executed" in
        let cache_hit = T.counter "server.outcome.cache_hit" in
        check Alcotest.int "submitted" 1600 (T.counter "server.submitted");
        check Alcotest.int "outcomes balance" 1600 (executed + cache_hit);
        check Alcotest.bool "both paths exercised" true
          (executed > 0 && cache_hit > 0);
        let hits, misses = Portal.cache_stats () in
        check Alcotest.int "cache stats balance" 1600 (hits + misses);
        let portal_submits =
          List.fold_left
            (fun acc tool ->
              acc + T.counter ("portal." ^ tool.Portal.tool_name ^ ".submits"))
            0 Portal.all_tools
        in
        check Alcotest.int "portal submits balance" 1600 portal_submits;
        check Alcotest.bool "cache bound holds under concurrency" true
          (Portal.cache_size () <= 16);
        check Alcotest.int "queue drained" 0 (Server.queue_depth srv));
  ]

let () =
  Alcotest.run "server"
    [
      ("token-bucket", token_bucket_tests);
      ("resolve", resolve_tests);
      ("outcomes", outcome_tests);
      ("admission", server_tests);
      ("wire-trace", wire_tests);
      ("cache-shards", shard_tests);
      ("telemetry-merge", merge_tests);
      ("timeline", timeline_tests);
      ("stress", stress_tests);
    ]
