(* The end-to-end run: the real vcserve (and vcfront) binaries as child
   processes with their default configuration, driven over loopback TCP
   from this process. Nothing here is traced. *)

open Workload

(* Set-ups per run; setup_s is their median. *)
let setup_reps = 5

(* A run replays its workload [rounds] times, each time for an equal
   share of --seconds on freshly started servers, and pools the
   requests. Back-to-back runs of one seed differed by up to 15% in
   p50_ms while each second of a run stayed close to its run's own
   level: the state of one set of servers on the host, which a second
   set averages out. *)
let rounds = 2

(* The generator fell behind its schedule when it sent 1% of its
   requests later than the workload's SLO limit: that lateness alone
   would then decide 1% of the SLO verdicts, so the run measures the
   client, not the program, and is not reported. Pauses of the whole
   virtual machine of several ms (README) stay below this line. *)
let generator_behind ~slo_ms late_p99_ms =
  if late_p99_ms > slo_ms then begin
    Printf.printf "  INVALID: the generator fell behind (late p99 %.3f ms > SLO limit %g ms)\n"
      late_p99_ms slo_ms;
    true
  end
  else false

type servers = { entry : int; procs : Children.t list }

(* Where run.sh's dune build leaves the binaries, from the checkout root. *)
let bin_dir = "_build/default/bin"

let start_servers w =
  let bin b = Filename.concat bin_dir b in
  let vcserve name extra =
    Children.spawn ~bin:(bin "vcserve.exe") ~name
      ([ "-listen"; "0"; "-workers"; string_of_int w.workers ] @ extra)
  in
  let servers =
    if w.shards = 0 then begin
      let c = vcserve "vcserve" [] in
      Children.wait_port c;
      { entry = c.Children.port; procs = [ c ] }
    end
    else begin
      let shards =
        List.init w.shards (fun k ->
            vcserve (Printf.sprintf "shard%d" k) [ "-cache-dir"; Children.fresh_dir "cache" ])
      in
      List.iter Children.wait_port shards;
      let backends =
        List.concat_map
          (fun s -> [ "-backend"; Printf.sprintf "127.0.0.1:%d" s.Children.port ])
          shards
      in
      let front =
        Children.spawn ~bin:(bin "vcfront.exe") ~name:"vcfront" ([ "-listen"; "0" ] @ backends)
      in
      Children.wait_port front;
      { entry = front.Children.port; procs = front :: shards }
    end
  in
  let c = Client.connect servers.entry in
  let ok = Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.ping c) in
  if not ok then failwith "the servers did not answer PING";
  servers

type counts = {
  attempted : int;
  ok : int;
  rejected : (string * int) list;
  errors : int;
  wrong : int;
}

let verdicts results =
  let pairs = Array.to_list (Array.map (fun r -> (r.Drive.req.tool, r.Drive.req.input)) results) in
  let expected = Check.expected pairs in
  Array.map
    (fun r ->
      match r.Drive.reply with
      | None -> None
      | Some reply ->
        let q = r.Drive.req in
        Some (Check.classify ~expected:(Hashtbl.find expected (Check.key q.tool q.input)) reply))
    results

let count verdicts =
  let rejected = Hashtbl.create 4 in
  let ok = ref 0 and errors = ref 0 and wrong = ref 0 in
  Array.iter
    (function
      | None -> incr errors
      | Some Check.Correct -> incr ok
      | Some (Check.Rejected l) ->
        Hashtbl.replace rejected l (1 + Option.value ~default:0 (Hashtbl.find_opt rejected l))
      | Some (Check.Wrong why) ->
        if !wrong = 0 then Printf.printf "  first wrong reply: %s\n" why;
        incr wrong)
    verdicts;
  {
    attempted = Array.length verdicts;
    ok = !ok;
    rejected = List.sort compare (List.of_seq (Hashtbl.to_seq rejected));
    errors = !errors;
    wrong = !wrong;
  }

let required what = function
  | Some v -> v
  | None -> failwith ("too few samples for " ^ what)

(* Set up - input generation, server processes, disk-tier warm start -
   [setup_reps] times in all: the spare set-ups are stopped at once, and
   each of the last [rounds] is measured. Returns the set-up times, the
   pooled results in request order, the measured wall time, the
   servers' CPU time, and the highest peak RSS of a round. *)
let measure ?rate_rps ~seed ~seconds name =
  let round_s = seconds /. float_of_int rounds in
  let setup () =
    Measure.time (fun () ->
        let w = Workload.make ?rate_rps name ~seed ~seconds:round_s in
        (w, start_servers w))
  in
  let spare =
    List.init (setup_reps - rounds) (fun _ ->
        let (_, s), dt = setup () in
        List.iter Children.stop s.procs;
        dt)
  in
  let round () =
    let (w, servers), dt = setup () in
    Fun.protect
      ~finally:(fun () -> List.iter Children.stop servers.procs)
      (fun () ->
        let sum f = List.fold_left (fun a c -> a +. f c) 0. servers.procs in
        let tr =
          {
            Drive.connect = (fun () -> Client.connect servers.entry);
            send = (fun c r -> Client.write c ~session:r.session ~tool:r.tool r.input);
            receive = (fun c _ -> Client.read_reply c);
            close = Client.close;
          }
        in
        let results = ref [] and lock = Mutex.create () in
        let record r = Mutex.protect lock (fun () -> results := r :: !results) in
        let cpu0 = sum Children.cpu_s in
        let t0 =
          match w.shape with
          | Open reqs ->
            Measure.with_idle_cpus (fun () ->
                Drive.open_loop_sockets ~clients:w.clients
                  ~connect:(fun () -> Client.socket servers.entry)
                  reqs record)
          | Closed gen ->
            let stop = Measure.now () +. round_s in
            Drive.closed_loop ~clients:w.clients tr
              (fun i -> if Measure.now () < stop then Some (gen i) else None)
              record
        in
        let cpu_s = sum Children.cpu_s -. cpu0 in
        let rss_mb = sum Children.peak_rss_mb in
        let last = List.fold_left (fun a r -> Float.max a r.Drive.finished) t0 !results in
        (w, dt, !results, last -. t0, cpu_s, rss_mb))
  in
  let rs = List.init rounds (fun _ -> round ()) in
  let w, _, _, _, _, _ = List.hd rs in
  let total f = List.fold_left (fun a r -> a +. f r) 0. rs in
  let results = Array.of_list (List.concat_map (fun (_, _, res, _, _, _) -> res) rs) in
  Array.stable_sort (fun a b -> compare a.Drive.req.seq b.Drive.req.seq) results;
  ( w,
    Array.of_list (spare @ List.map (fun (_, dt, _, _, _, _) -> dt) rs),
    results,
    total (fun (_, _, _, wall, _, _) -> wall),
    total (fun (_, _, _, _, cpu, _) -> cpu),
    List.fold_left (fun a (_, _, _, _, _, rss) -> Float.max a rss) 0. rs )

let run ?rate_rps ~seed ~seconds ~slo_ms name =
  let w, setups, results, wall_s, cpu_s, rss_mb = measure ?rate_rps ~seed ~seconds name in
  let verdicts = verdicts results in
  let c = count verdicts in
  let answered = c.attempted - c.errors in
  let ok_lat =
    Array.of_list
      (List.filteri (fun i _ -> verdicts.(i) = Some Check.Correct) (Array.to_list results)
      |> List.map Drive.latency)
  in
  let within = Array.fold_left (fun a l -> if l *. 1e3 <= slo_ms then a + 1 else a) 0 ok_lat in
  let late_p99 = required "lateness p99" (Measure.percentile (Array.map Drive.lateness results) 99.) in
  let ms x = x *. 1e3 in
  (* Printed, not part of the result: on the 2-vCPU dev host p99 does
     not repeat between runs (sampler stalls and CPU steal; README). *)
  let p99 = ms (required "p99" (Measure.percentile ok_lat 99.)) in
  let metrics =
    Measure.
      [
        metric "setup_s" "s" (Measure.middle setups);
        metric "p50_ms" "ms" (ms (required "p50" (Measure.percentile ok_lat 50.)));
        metric "achieved_rps" "1/s" (float_of_int c.ok /. wall_s);
        metric "ok_ratio" "ratio" (float_of_int c.ok /. float_of_int c.attempted);
        metric "slo_ratio" "ratio" (float_of_int within /. float_of_int c.attempted);
        metric "server_rss_mb" "MiB" rss_mb;
        metric "server_cpu_ms_per_req" "ms" (cpu_s *. 1e3 /. float_of_int (max 1 answered));
      ]
  in
  Printf.printf "workload %s  seed %d  %s loop, %d connection(s), %d rounds of %g s on %s\n" name seed
    (match w.shape with Open _ -> "open" | Closed _ -> "closed")
    w.clients rounds (seconds /. float_of_int rounds)
    (if w.shards = 0 then Printf.sprintf "vcserve -workers %d" w.workers
     else Printf.sprintf "vcfront over %d x vcserve -workers %d -cache-dir" w.shards w.workers);
  Printf.printf "  attempted %d  ok %d  rejected %d%s  transport errors %d  wrong outputs %d\n"
    c.attempted c.ok
    (List.fold_left (fun a (_, n) -> a + n) 0 c.rejected)
    (String.concat "" (List.map (fun (l, n) -> Printf.sprintf " %s=%d" l n) c.rejected))
    c.errors c.wrong;
  Printf.printf "  latency samples %d, SLO limit %g ms, failed_ratio %.6f\n" (Array.length ok_lat)
    slo_ms
    (1. -. (float_of_int c.ok /. float_of_int c.attempted));
  Printf.printf "  set-ups (s, the last %d measured):%s\n" rounds
    (String.concat "" (List.map (Printf.sprintf " %.4f") (Array.to_list setups)));
  List.iter (fun m -> Printf.printf "  %-24s %14.6f %s\n" m.Measure.name m.Measure.value m.Measure.unit_) metrics;
  Printf.printf "  %-24s %14.6f ms (printed only: does not repeat)\n" "p99_ms" p99;
  Printf.printf "  %-24s %14.6f ms\n" "loadgen.late_p99_ms" (ms late_p99);
  (not (generator_behind ~slo_ms (ms late_p99)), c, metrics)
