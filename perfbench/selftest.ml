(* Self-tests of the benchmark's own code: the numbers it reports are
   only as good as its percentile helper, its output checker and its
   layer subtraction. *)

open Perfbench_lib

let check_float = Alcotest.(check (option (float 1e-12)))

let percentile () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  (* p99 of 1..1100 is rank 1089: 11 samples above it *)
  check_float "p99, 11 above" (Some 1089.) (Measure.percentile (xs 1100) 99.);
  (* 1..1000: rank 990 leaves exactly 10 above; 1..999 leaves 9 *)
  check_float "p99, exactly 10 above" (Some 990.) (Measure.percentile (xs 1000) 99.);
  check_float "p99, 9 above" None (Measure.percentile (xs 999) 99.);
  check_float "p50 of 20" (Some 10.) (Measure.percentile (xs 20) 50.);
  check_float "p50 of 19" None (Measure.percentile (xs 19) 50.);
  check_float "empty" None (Measure.percentile [||] 50.);
  Alcotest.(check (float 0.)) "middle of an even count" 2.5 (Measure.middle [| 4.; 1.; 3.; 2. |])

let checker () =
  let input = Vc_mooc.Trace.input_of "minisat" 3 in
  let expected = Check.expected [ ("minisat", input); ("minisat", input) ] in
  Alcotest.(check int) "duplicates computed once" 1 (Hashtbl.length expected);
  let out = Hashtbl.find expected (Check.key "minisat" input) in
  let verdict reply = Check.classify ~expected:out reply in
  Alcotest.(check bool) "true reply" true (verdict ("OK executed", out) = Check.Correct);
  Alcotest.(check bool) "cache hit" true (verdict ("OK cache_hit", out) = Check.Correct);
  let doctored = Bytes.of_string out in
  Bytes.set doctored 0 (if out.[0] = 'S' then 'U' else 'S');
  (match verdict ("OK executed", Bytes.to_string doctored) with
  | Check.Wrong _ -> ()
  | _ -> Alcotest.fail "a doctored reply passed the check");
  (match verdict ("OK executed", out ^ "\n") with
  | Check.Wrong _ -> ()
  | _ -> Alcotest.fail "a reply with a trailing byte passed the check");
  Alcotest.(check bool)
    "rejection label" true
    (verdict ("ERR overloaded queue full", "") = Check.Rejected "overloaded")

let subtraction () =
  (* a synthetic stream of nested calls: each child starts after and
     ends before its parent *)
  let st = Random.State.make [| 11 |] in
  let n = 500 in
  let child = Array.init n (fun _ -> Random.State.float st 1e-3) in
  let parent = Array.map (fun c -> c +. Random.State.float st 1e-4) child in
  (match Measure.self_time ~parent ~child with
  | Some v -> Alcotest.(check bool) "non-negative" true (v >= 0.)
  | None -> Alcotest.fail "no self time from 500 pairs");
  (* a known answer: 21 of 41 requests spend 1 in the layer itself *)
  let child = Array.init 41 (fun i -> if i < 20 then 1. else 100.) in
  let parent = Array.mapi (fun i c -> if i < 20 then 300. else c +. 1.) child in
  check_float "median of differences" (Some 1.) (Measure.self_time ~parent ~child);
  Alcotest.check_raises "unequal streams" (Invalid_argument "Measure.self_time: unequal streams")
    (fun () -> ignore (Measure.self_time ~parent:[| 1. |] ~child:[||]))

(* The open loop writes ahead of the replies; the reply it pairs with a
   request must be that request's, and a broken connection must fail
   the rest of its requests rather than lose them. *)
let pipelining () =
  let reqs =
    Array.init 300 (fun i ->
        { Workload.seq = i; at_s = float_of_int i *. 1e-4; session = "s"; tool = "t"; input = string_of_int i })
  in
  let run ~break_after =
    let sent = Atomic.make 0 in
    let tr =
      {
        Drive.connect = (fun () -> (Queue.create (), Mutex.create ()));
        send =
          (fun (q, m) r ->
            if Atomic.fetch_and_add sent 1 >= break_after then failwith "broken";
            Mutex.protect m (fun () -> Queue.push r.Workload.input q));
        receive = (fun (q, m) _ -> ("OK executed", Mutex.protect m (fun () -> Queue.pop q)));
        close = ignore;
      }
    in
    let out = ref [] and lock = Mutex.create () in
    ignore (Drive.open_loop ~clients:2 tr reqs (fun r -> Mutex.protect lock (fun () -> out := r :: !out)));
    !out
  in
  let all = run ~break_after:max_int in
  Alcotest.(check int) "every request recorded" 300 (List.length all);
  List.iter
    (fun r ->
      match r.Drive.reply with
      | Some (_, body) -> Alcotest.(check string) "reply matched to its request" r.Drive.req.Workload.input body
      | None -> Alcotest.fail "transport error on a sound connection")
    all;
  let broken = run ~break_after:100 in
  Alcotest.(check int) "a broken connection loses no request" 300 (List.length broken);
  Alcotest.(check bool) "its requests fail" true
    (List.exists (fun r -> r.Drive.reply = None) broken)

(* The socket open loop against a loopback echo server that answers
   each request with its own input: every reply must reach its own
   request, dot-stuffed lines included, and a server that hangs up
   after [close_after] requests on a connection must fail the rest of
   them rather than lose or mismatch them. *)
let echo_server ~clients ~close_after =
  let l = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt l Unix.SO_REUSEADDR true;
  Unix.bind l (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen l clients;
  let port = match Unix.getsockname l with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let serve fd =
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    let rec loop k =
      match input_line ic with
      | exception End_of_file -> ()
      | _ when k >= close_after -> ()
      | _ ->
        output_string oc "OK executed\n";
        let rec body () =
          let line = input_line ic in
          output_string oc (line ^ "\n");
          if line <> "." then body ()
        in
        body ();
        flush oc;
        loop (k + 1)
    in
    (try loop 0 with Sys_error _ | End_of_file -> ());
    Unix.close fd
  in
  let server =
    Domain.spawn (fun () ->
        let conns = List.init clients (fun _ -> fst (Unix.accept l)) in
        List.map (fun fd -> Domain.spawn (fun () -> serve fd)) conns |> List.iter Domain.join;
        Unix.close l)
  in
  (port, server)

let sockets () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let input i = Printf.sprintf "%d\n.dot\n..two\n" i in
  let reqs =
    Array.init 300 (fun i -> { Workload.seq = i; at_s = float_of_int i *. 1e-4; session = "s"; tool = "t"; input = input i })
  in
  let run ~close_after =
    let port, server = echo_server ~clients:2 ~close_after in
    let out = ref [] in
    ignore (Drive.open_loop_sockets ~clients:2 ~connect:(fun () -> Client.socket port) reqs (fun r -> out := r :: !out));
    Domain.join server;
    !out
  in
  let all = run ~close_after:max_int in
  Alcotest.(check int) "every request recorded" 300 (List.length all);
  List.iter
    (fun r ->
      match r.Drive.reply with
      | Some (status, body) ->
        Alcotest.(check string) "status" "OK executed" status;
        Alcotest.(check string) "reply matched to its request" r.Drive.req.Workload.input body
      | None -> Alcotest.fail "transport error on a sound connection")
    all;
  let broken = run ~close_after:50 in
  Alcotest.(check int) "a broken connection loses no request" 300 (List.length broken);
  (* the hang-up may reset the connection before the client has read
     every reply the server wrote, so up to 50 per connection *)
  let answered = List.length (List.filter (fun r -> r.Drive.reply <> None) broken) in
  Alcotest.(check bool) "at most 50 answered per connection" true (answered <= 100);
  List.iter
    (fun r ->
      match r.Drive.reply with
      | Some (_, body) -> Alcotest.(check string) "still matched" r.Drive.req.Workload.input body
      | None -> ())
    broken

let decoding () =
  let reply = "OK executed\nline 1\n..dot\n\n.\nERR overloaded queue full\n.\n" in
  let b = Bytes.of_string reply in
  let n = String.length reply in
  (match Client.decode b 0 n with
  | Some ((status, body), next) ->
    Alcotest.(check string) "status" "OK executed" status;
    Alcotest.(check string) "body, unstuffed" "line 1\n.dot\n" body;
    (match Client.decode b next n with
    | Some (("ERR overloaded queue full", ""), e) -> Alcotest.(check int) "both consumed" n e
    | _ -> Alcotest.fail "second reply")
  | None -> Alcotest.fail "first reply");
  for cut = 0 to 24 do
    Alcotest.(check bool) "incomplete" true (Client.decode b 0 cut = None)
  done

let deterministic () =
  List.iter
    (fun name ->
      let reqs w =
        match w.Workload.shape with
        | Workload.Open r -> Array.sub r 0 (min 200 (Array.length r))
        | Workload.Closed g -> Array.init 50 g
      in
      let a = reqs (Workload.make name ~seed:5 ~seconds:0.5)
      and b = reqs (Workload.make name ~seed:5 ~seconds:0.5)
      and c = reqs (Workload.make name ~seed:6 ~seconds:0.5) in
      Alcotest.(check bool) (name ^ ": same seed, same inputs") true (a = b);
      Alcotest.(check bool) (name ^ ": other seed, other inputs") false (a = c))
    Workload.names;
  let g = Array.init 300 (fun i -> (Workload.graded_misses ~seed:1 i).Workload.input) in
  Alcotest.(check int) "graded uploads are distinct" 300
    (List.length (List.sort_uniq compare (Array.to_list g)));
  let keys =
    Array.init Workload.churn_keys (fun k ->
        let _, tool, input = Workload.churn_key 1 k in
        (tool, input))
  in
  Alcotest.(check int) "churn keys are distinct" Workload.churn_keys
    (List.length (List.sort_uniq compare (Array.to_list keys)))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile needs 10 samples beyond the rank" `Quick percentile;
          Alcotest.test_case "output checker rejects a doctored reply" `Quick checker;
          Alcotest.test_case "layer subtraction is non-negative on nested calls" `Quick subtraction;
          Alcotest.test_case "open loop pairs each reply with its request" `Quick pipelining;
          Alcotest.test_case "socket open loop pairs each reply with its request" `Quick sockets;
          Alcotest.test_case "reply decoder unstuffs and waits for whole replies" `Quick decoding;
          Alcotest.test_case "workloads are a function of the seed" `Quick deterministic;
        ] );
    ]
