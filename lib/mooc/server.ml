module T = Vc_util.Telemetry
module J = Vc_util.Journal
module Tc = Vc_util.Trace_ctx
module Span = Vc_util.Span

(* ------------------------------------------------------------------ *)
(* token bucket                                                        *)
(* ------------------------------------------------------------------ *)

module Token_bucket = struct
  type t = {
    rate : float;
    burst : float;
    mutable tokens : float;
    mutable last : float;
  }

  let create ~rate ~burst ~now =
    if rate < 0.0 || burst <= 0.0 then
      invalid_arg "Server.Token_bucket.create: rate must be >= 0, burst > 0";
    { rate; burst; tokens = burst; last = now }

  let try_take b ~now =
    let dt = Float.max 0.0 (now -. b.last) in
    b.tokens <- Float.min b.burst (b.tokens +. (dt *. b.rate));
    b.last <- now;
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      true
    end
    else false

  let available b ~now =
    Float.min b.burst (b.tokens +. (Float.max 0.0 (now -. b.last) *. b.rate))
end

let deadline_expired ~enqueued ~deadline_s ~now =
  deadline_s < Float.infinity && Float.max 0.0 (now -. enqueued) >= deadline_s

(* ------------------------------------------------------------------ *)
(* configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  workers : int;
  queue_capacity : int;
  deadline_s : float;
  rate_limit : (float * float) option;
}

let default_config =
  {
    workers = 4;
    queue_capacity = 64;
    deadline_s = Float.infinity;
    rate_limit = None;
  }

(* ------------------------------------------------------------------ *)
(* jobs and server state                                               *)
(* ------------------------------------------------------------------ *)

(* Each job carries its own mutex/condition pair: the submitting client
   blocks on it while a worker domain runs the job, so completion wakes
   exactly the one waiter and never contends with the queue lock. *)
type job = {
  j_tool : Portal.tool;
  j_input : string;
  j_session : Portal.session;
  j_session_id : string;
  j_trace : Tc.t;
  j_enqueued : float;
  j_mu : Mutex.t;
  j_cond : Condition.t;
  mutable j_result : Portal.outcome option;
}

type session_slot = {
  sl_session : Portal.session;
  sl_bucket : Token_bucket.t option;
}

type t = {
  config : config;
  mu : Mutex.t;  (* guards queue, stopping, domains, sessions, idle, rng *)
  cond : Condition.t;  (* wakes one idle worker per enqueue; broadcast on stop *)
  queue : job Queue.t;
  mutable stopping : bool;
  mutable idle : int;  (* workers currently blocked in Condition.wait *)
  mutable domains : unit Domain.t list;
  sessions : (string, session_slot) Hashtbl.t;
  rng : Vc_util.Rng.t;  (* mints trace ids for untraced submissions *)
  busy : int Atomic.t;  (* workers currently processing a job *)
  depth_hwm : int Atomic.t;  (* queue-depth high-water mark *)
}

(* monotone CAS-max: the high-water mark survives the gauge's sawtooth,
   so a console that polls between bursts still sees the peak *)
let rec raise_hwm t depth =
  let cur = Atomic.get t.depth_hwm in
  if depth > cur then
    if Atomic.compare_and_set t.depth_hwm cur depth then
      T.set_gauge "server.queue_depth.hwm" (float_of_int depth)
    else raise_hwm t depth

let count_outcome outcome =
  match outcome with
  | Portal.Executed _ -> T.incr "server.outcome.executed"
  | Portal.Cache_hit _ -> T.incr "server.outcome.cache_hit"
  | Portal.Rejected r -> T.incr ("server.outcome.rejected." ^ Portal.reason_label r)

(* Admission-control and deadline rejections are the server's own; each
   gets its distinct journal event so an operator can tell saturation
   (overloaded), abuse (rate_limited) and staleness (deadline) apart at
   a glance. Runaway rejections keep their journal trail inside
   [Portal.submit_result]. *)
let reject_server ~session_id ~tool_name ~ctx label msg reason =
  let outcome = Portal.Rejected reason in
  count_outcome outcome;
  J.emit ~severity:J.Warn ~component:"server"
    ~attrs:
      (Tc.to_attrs ctx
      @ [ ("session", session_id); ("tool", tool_name); ("reason", msg) ])
    ("job.rejected." ^ label);
  outcome

(* ------------------------------------------------------------------ *)
(* worker loop                                                         *)
(* ------------------------------------------------------------------ *)

let rec worker_loop t w =
  let job_opt =
    Mutex.protect t.mu (fun () ->
        while Queue.is_empty t.queue && not t.stopping do
          (* count ourselves idle so enqueuers only pay a signal when a
             worker is actually asleep *)
          t.idle <- t.idle + 1;
          Condition.wait t.cond t.mu;
          t.idle <- t.idle - 1
        done;
        if Queue.is_empty t.queue then None (* stopping, queue drained *)
        else begin
          let j = Queue.pop t.queue in
          Some (j, Queue.length t.queue)
        end)
  in
  match job_opt with
  | None -> ()
  | Some (job, depth) ->
    T.set_gauge "server.queue_depth" (float_of_int depth);
    (* per-worker busy accounting: the continuous profiler attributes
       this span to "worker;..." and the busy-time timer feeds the
       server.worker.<w>.util series. The span carries the trace id, so
       the portal's journal events below it join the request. *)
    T.set_gauge "server.workers.busy"
      (float_of_int (1 + Atomic.fetch_and_add t.busy 1));
    let busy_from = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        T.observe
          (Printf.sprintf "server.worker.%d.busy" w)
          (Float.max 0.0 (Unix.gettimeofday () -. busy_from));
        T.set_gauge "server.workers.busy"
          (float_of_int (Atomic.fetch_and_add t.busy (-1) - 1)))
      (fun () ->
        Span.with_ ~attrs:(Tc.to_attrs job.j_trace) "worker" (fun () ->
            process_job t job));
    worker_loop t w

and process_job t job =
    let ctx = job.j_trace in
    let now = T.now () in
    let wait_s = Float.max 0.0 (now -. job.j_enqueued) in
    T.observe "server.queue_wait" wait_s;
    J.emit ~component:"server"
      ~attrs:
        (Tc.to_attrs ctx
        @ [
            ("tool", job.j_tool.Portal.tool_name);
            ("queue_wait_s", Printf.sprintf "%.6f" wait_s);
          ])
      "request.dequeued";
    let outcome =
      if
        deadline_expired ~enqueued:job.j_enqueued
          ~deadline_s:t.config.deadline_s ~now
      then begin
        (* only the configured limit in the message - the measured wait
           goes in the journal attrs, keeping wire output deterministic *)
        let msg =
          Printf.sprintf "queue wait exceeded the %.3f s deadline"
            t.config.deadline_s
        in
        let outcome = Portal.Rejected (Portal.Deadline_exceeded msg) in
        count_outcome outcome;
        J.emit ~severity:J.Warn ~component:"server"
          ~attrs:
            (Tc.to_attrs ctx
            @ [
                ("tool", job.j_tool.Portal.tool_name);
                ("wait_s", Printf.sprintf "%.6f" wait_s);
                ("reason", msg);
              ])
          "job.rejected.deadline";
        outcome
      end
      else begin
        (* the portal's cache-probe and execute spans close as children
           of this worker span: they are the request's middle phases *)
        let outcome =
          Portal.submit_result job.j_session job.j_tool job.j_input
        in
        count_outcome outcome;
        outcome
      end
    in
    (* close the timeline and journal it before waking the client, so a
       reader that observes the outcome also observes the event *)
    let total_s = Float.max 0.0 (T.now () -. job.j_enqueued) in
    let served = Span.child_durations () in
    let accounted = List.fold_left (fun acc (_, d) -> acc +. d) wait_s served in
    let phases =
      (("queue", wait_s) :: served)
      @ [ ("reply", Float.max 0.0 (total_s -. accounted)) ]
    in
    List.iter (fun (name, d) -> T.observe ("server.phase." ^ name) d) phases;
    J.emit ~component:"server"
      ~attrs:
        (Tc.to_attrs ctx
        @ [
            ("tool", job.j_tool.Portal.tool_name);
            ("session", job.j_session_id);
            ( "outcome",
              match outcome with
              | Portal.Executed _ -> "executed"
              | Portal.Cache_hit _ -> "cache_hit"
              | Portal.Rejected _ -> "rejected" );
            ("total_s", Printf.sprintf "%.6f" total_s);
          ]
        @ List.map
            (fun (name, d) -> ("phase." ^ name, Printf.sprintf "%.6f" d))
            phases)
      "request.replied";
    Mutex.protect job.j_mu (fun () ->
        job.j_result <- Some outcome;
        Condition.signal job.j_cond)

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) () =
  if config.workers < 1 then
    invalid_arg "Server.start: at least one worker required";
  if config.queue_capacity < 0 then
    invalid_arg "Server.start: negative queue capacity";
  T.set_gauge "server.queue_depth" 0.0;
  T.set_gauge "server.queue_depth.hwm" 0.0;
  T.set_gauge "server.workers.busy" 0.0;
  T.set_gauge "server.workers.total" (float_of_int config.workers);
  let t =
    {
      config;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      idle = 0;
      domains = [];
      sessions = Hashtbl.create 16;
      (* wall clock, not Clock: server-minted ids must differ across
         runs even under a frozen test clock *)
      rng =
        Vc_util.Rng.create
          (int_of_float (Unix.gettimeofday () *. 1e6)
          lxor (Unix.getpid () * 0x9E3779B1));
      busy = Atomic.make 0;
      depth_hwm = Atomic.make 0;
    }
  in
  t.domains <-
    List.init config.workers (fun w ->
        Domain.spawn (fun () ->
            (* publish the empty span stack before the first job, so
               sampler ticks attribute worker idle time from the start *)
            Span.register ();
            worker_loop t w));
  J.emit ~component:"server"
    ~attrs:
      [
        ("workers", string_of_int config.workers);
        ("queue_capacity", string_of_int config.queue_capacity);
        ("deadline_s",
         if config.deadline_s = Float.infinity then "none"
         else Printf.sprintf "%.3f" config.deadline_s);
        ("rate_limit",
         match config.rate_limit with
         | None -> "none"
         | Some (rate, burst) -> Printf.sprintf "%.3f/s burst %.1f" rate burst);
      ]
    "server.start";
  t

let stop t =
  let domains =
    Mutex.protect t.mu (fun () ->
        if t.stopping then []
        else begin
          t.stopping <- true;
          Condition.broadcast t.cond;
          let d = t.domains in
          t.domains <- [];
          d
        end)
  in
  if domains <> [] then begin
    List.iter Domain.join domains;
    T.set_gauge "server.queue_depth" 0.0;
    J.emit ~component:"server"
      ~attrs:
        [
          ("executed", string_of_int (T.counter "server.outcome.executed"));
          ("cache_hit", string_of_int (T.counter "server.outcome.cache_hit"));
          ("rejected.runaway",
           string_of_int (T.counter "server.outcome.rejected.runaway"));
          ("rejected.overloaded",
           string_of_int (T.counter "server.outcome.rejected.overloaded"));
          ("rejected.rate_limited",
           string_of_int (T.counter "server.outcome.rejected.rate_limited"));
          ("rejected.deadline",
           string_of_int (T.counter "server.outcome.rejected.deadline"));
        ]
      "server.stop"
  end

let queue_depth t = Mutex.protect t.mu (fun () -> Queue.length t.queue)

(* ------------------------------------------------------------------ *)
(* sessions and submission                                             *)
(* ------------------------------------------------------------------ *)

let session_slot t id =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.sessions id with
      | Some slot -> slot
      | None ->
        let slot =
          {
            sl_session = Portal.create_session ();
            sl_bucket =
              Option.map
                (fun (rate, burst) ->
                  Token_bucket.create ~rate ~burst ~now:(T.now ()))
                t.config.rate_limit;
          }
        in
        Hashtbl.add t.sessions id slot;
        slot)

let session t id = (session_slot t id).sl_session

let submit t (req : Portal.request) =
  let session_id = req.Portal.req_session
  and tool = req.Portal.req_tool
  and input = req.Portal.req_input in
  T.incr "server.submitted";
  let slot = session_slot t session_id in
  let tool_name = tool.Portal.tool_name in
  (* a valid client-supplied id is adopted; anything else gets a
     server-minted one so every request has a joinable timeline *)
  let ctx =
    match Option.bind req.Portal.req_trace Tc.of_id with
    | Some ctx -> ctx
    | None -> Tc.make (Mutex.protect t.mu (fun () -> Tc.mint t.rng))
  in
  let rate_ok =
    match slot.sl_bucket with
    | None -> true
    | Some b ->
      (* the bucket mutates; reuse the server lock rather than giving
         each bucket its own (takes are rare and O(1)) *)
      Mutex.protect t.mu (fun () -> Token_bucket.try_take b ~now:(T.now ()))
  in
  if not rate_ok then
    reject_server ~session_id ~tool_name ~ctx "rate_limited"
      (Printf.sprintf "session %S exceeded its submission rate limit"
         session_id)
      (Portal.Rate_limited
         (Printf.sprintf "session %S exceeded its submission rate limit"
            session_id))
  else begin
    let job =
      {
        j_tool = tool;
        j_input = input;
        j_session = slot.sl_session;
        j_session_id = session_id;
        j_trace = ctx;
        j_enqueued = T.now ();
        j_mu = Mutex.create ();
        j_cond = Condition.create ();
        j_result = None;
      }
    in
    let admitted =
      Mutex.protect t.mu (fun () ->
          if t.stopping then `Stopped
          else if Queue.length t.queue >= t.config.queue_capacity then `Full
          else begin
            Queue.push job t.queue;
            (* wake exactly one worker, and only when one is actually
               asleep: a busy worker re-checks the queue under the lock
               before it ever waits, so a skipped signal is never lost *)
            if t.idle > 0 then Condition.signal t.cond;
            `Admitted (Queue.length t.queue)
          end)
    in
    match admitted with
    | `Stopped ->
      reject_server ~session_id ~tool_name ~ctx "overloaded"
        "server is shutting down"
        (Portal.Overloaded "server is shutting down")
    | `Full ->
      let msg =
        Printf.sprintf "submission queue full (capacity %d)"
          t.config.queue_capacity
      in
      reject_server ~session_id ~tool_name ~ctx "overloaded" msg
        (Portal.Overloaded msg)
    | `Admitted depth ->
      T.set_gauge "server.queue_depth" (float_of_int depth);
      raise_hwm t depth;
      J.emit ~component:"server"
        ~attrs:
          (Tc.to_attrs ctx
          @ [
              ("tool", tool_name);
              ("session", session_id);
              ("queue_depth", string_of_int depth);
            ])
        "request.admitted";
      Mutex.protect job.j_mu (fun () ->
          while job.j_result = None do
            Condition.wait job.j_cond job.j_mu
          done;
          Option.get job.j_result)
  end
