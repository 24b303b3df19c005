(* The server processes under test: spawned from the freshly built
   binaries with their default configuration, watched through /proc,
   and always stopped and reaped - on success, on error and on a signal
   to the benchmark itself. *)

type t = { pid : int; name : string; log : string; mutable port : int }

let live : t list ref = ref []

(* Scratch space of this benchmark process inside the checkout: child
   logs and the fresh -cache-dir of every run. Removed at exit. *)
let run_dir =
  lazy
    (let d = Filename.concat ".perfbench_run" (string_of_int (Unix.getpid ())) in
     (try Unix.mkdir ".perfbench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     Unix.mkdir d 0o755;
     d)

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d = Filename.concat (Lazy.force run_dir) (Printf.sprintf "%s%d" prefix !n) in
    Unix.mkdir d 0o755;
    d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* The children's environment minus the VC_* overrides, so every
   server runs its defaults (sampler interval, cache shards, ...). *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"VC_" kv))
  |> Array.of_list

let spawn ~bin ~name args =
  let log = Filename.concat (Lazy.force run_dir) (name ^ ".log") in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (bin :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out; stdin_r; stdin_w ])
      (fun () -> Unix.create_process_env bin argv (child_env ()) stdin_r out out)
  in
  let c = { pid; name; log; port = 0 } in
  live := c :: !live;
  c

let exited c =
  match Unix.waitpid [ Unix.WNOHANG ] c.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let announced_port text =
  let marker = "listening on 127.0.0.1:" in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length text then None
    else if String.sub text i m = marker then
      let j = ref (i + m) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub text (i + m) (!j - i - m))
    else find (i + 1)
  in
  find 0

(* Block (up to 20 s) until the child announces its bound port on
   stderr. *)
let wait_port c =
  let deadline = Measure.now () +. 20. in
  let rec go () =
    match announced_port (In_channel.with_open_bin c.log In_channel.input_all) with
    | Some p -> c.port <- p
    | None ->
      if exited c then failwith (c.name ^ " exited before listening; see " ^ c.log);
      if Measure.now () > deadline then failwith (c.name ^ " did not start listening");
      Unix.sleepf 0.001;
      go ()
  in
  go ()

let stop c =
  if List.memq c !live then begin
    live := List.filter (fun x -> x != c) !live;
    (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Measure.now () +. 3. in
    let rec wait () =
      if not (exited c) then
        if Measure.now () < deadline then (Unix.sleepf 0.005; wait ())
        else begin
          (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ()
        end
    in
    wait ()
  end

let cleanup () =
  List.iter stop !live;
  if Lazy.is_val run_dir then rm_rf (Lazy.force run_dir);
  (try Unix.rmdir ".perfbench_run" with Unix.Unix_error _ -> ())

let proc_file c f = In_channel.with_open_bin (Printf.sprintf "/proc/%d/%s" c.pid f) In_channel.input_all

(* Peak resident set (VmHWM), MiB. *)
let peak_rss_mb c =
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' (proc_file c "status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* User + system CPU time so far, seconds. /proc/PID/stat counts in
   clock ticks of 1/100 s on Linux. *)
let cpu_s c =
  let s = proc_file c "stat" in
  (* the fields after the parenthesised command name start at field 3 *)
  let after = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.
