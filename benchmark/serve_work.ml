(* The serve workload: an mmsynthd daemon in a child process, driven by
   one single-threaded load generator over one Unix-socket connection.

   Phases, on a fresh state directory:
   1. open loop: Poisson arrivals at 5 jobs/s, each job timed from the
      moment it was due, with a Ping once a second;
   2. bursts: batches of tiny jobs submitted back to back;
   3. shutdown with medium jobs in flight, then three restarts on the
      populated directory, the first of which resumes those jobs.

   The daemon is [Mm_serve.Server.run] with the CLI's defaults
   (checkpoint every 5 generations, keep 3), started by re-executing this
   binary with [--daemon]; it never enables metrics, so every per-layer
   number here is read from outside: job timestamps, the event stream,
   /proc/<pid> and the state directory. *)

module Protocol = Mm_serve.Protocol
module Client = Mm_serve.Client
module Job = Mm_serve.Job
module Server = Mm_serve.Server
module Synthesis = Mm_cosynth.Synthesis

let pool_jobs = 2

(* The open loop's arrival times are one fixed Poisson draw; the run's
   seed varies what is submitted, not when.  Over ten seeds, seeded
   draws of 50 arrivals spread the median latency by 21 % (IQR over
   median) through their clusters; one fixed draw of 60, by 14 %. *)
let arrivals_seed = 1

(* --- the open-loop schedule ---------------------------------------------------- *)

(* Due times (seconds from the start) of the first [jobs] arrivals of a
   Poisson process at [rate] per second: a pure function of the seed.
   A fixed count, not a fixed duration, so every seed submits the same
   work. *)
let schedule ~seed ~rate ~jobs =
  let rng = Mm_util.Prng.create ~seed in
  let t = ref 0. in
  Array.init jobs (fun _ ->
      t := !t -. (log (1. -. Mm_util.Prng.float rng 1.) /. rate);
      !t)

(* --- the daemon process ---------------------------------------------------------- *)

type daemon = { pid : int; client : Client.t }

let live_pids : int list ref = ref []

let reap pid =
  live_pids := List.filter (( <> ) pid) !live_pids;
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      wait (tries - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait tries
  in
  wait 1000

(* No daemon outlives the benchmark, however it exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_pids)

(* The daemon side of [--daemon]. *)
let daemon_main ~socket ~state_dir =
  Server.run
    {
      Server.default_config with
      Server.socket_path = socket;
      state_dir;
      pool_jobs = Mm_parallel.Pool.clamp_jobs pool_jobs;
    }

(* Exec a daemon and wait for its first Pong; returns it with the
   exec-to-Pong time. *)
let start ~socket ~state_dir =
  let t0 = Measure.now () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--daemon"; socket; state_dir |]
          devnull devnull Unix.stderr)
  in
  live_pids := pid :: !live_pids;
  let rec connect tries =
    match Client.connect ~socket with
    | client -> client
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.sleepf 0.001;
      connect (tries - 1)
  in
  let client = connect 10_000 in
  match Client.request client Protocol.Ping with
  | Ok Protocol.Pong -> ({ pid; client }, Measure.now () -. t0)
  | _ -> failwith "serve: the daemon did not answer Ping"

let stop d =
  (match Client.request d.client Protocol.Shutdown with
  | Ok Protocol.Done -> ()
  | _ -> failwith "serve: Shutdown refused");
  Client.close d.client;
  reap d.pid

(* --- talking to it ------------------------------------------------------------------- *)

let submit d ~text ~options =
  match
    Measure.timed (fun () ->
        Client.request d.client (Protocol.Submit { spec_text = text; options; nonce = None }))
  with
  | Ok (Protocol.Accepted v), wall, _ -> (v.Protocol.v_id, wall)
  | _ -> failwith "serve: submission refused"

(* The daemon timestamp of an event line: its last field. *)
let ts_field line =
  let key = ",\"ts\":" in
  let n = String.length line and m = String.length key in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = key then
      Option.bind (String.index_from_opt line (i + m) '}') (fun j ->
          float_of_string_opt (String.sub line (i + m) (j - i - m)))
    else find (i + 1)
  in
  find 0

(* Follow one job to its terminal state; returns its final view, the
   number of events it streamed and the gaps between its generation
   events' daemon timestamps. *)
let watch d id =
  let events = ref 0 and stamps = ref [] in
  let on_event line =
    incr events;
    if String.starts_with ~prefix:"{\"event\":\"generation\"" line then
      Option.iter (fun ts -> stamps := ts :: !stamps) (ts_field line)
  in
  match Client.watch d.client id ~on_event with
  | Ok view ->
    let rec gaps acc = function
      | later :: (earlier :: _ as rest) -> gaps (((later -. earlier) *. 1e3) :: acc) rest
      | _ -> acc
    in
    (view, !events, gaps [] !stamps)
  | Error e -> failwith ("serve: watch " ^ id ^ ": " ^ e)

let in_process_power ~text ~(options : Job.options) =
  let spec = Synth_work.parse text in
  Synthesis.average_power
    (Synthesis.run ~config:(Server.synthesis_config options) ~spec ~seed:options.Job.seed ())

let check_job report ?expected view =
  match Checks.daemon_job ?expected view with
  | Ok () -> Report.check report true view.Protocol.v_id
  | Error e -> Report.check report false e

(* --- the state directory ------------------------------------------------------------- *)

let job_dirs state_dir =
  let jobs = Filename.concat state_dir "jobs" in
  Sys.readdir jobs |> Array.to_list |> List.sort compare |> List.map (Filename.concat jobs)

let unfinished state_dir =
  List.length
    (List.filter (fun d -> not (Sys.file_exists (Filename.concat d "result.sexp"))) (job_dirs state_dir))

(* --- the workload ------------------------------------------------------------------------- *)

type scale = {
  rate : float;  (** Open-loop arrivals per second. *)
  arrivals : int;  (** Open-loop jobs. *)
  open_job : Job.options;
  bursts : int;
  burst_size : int;
  tiny_job : Job.options;
  in_flight : int;
  medium_job : Job.options;
}

let scale (o : Run.opts) =
  let job generations population =
    { Job.default_options with generations; population; restarts = 1 }
  in
  if o.Run.smoke then
    {
      rate = 50.;
      arrivals = 5;
      open_job = job 6 8;
      bursts = 3;
      burst_size = 4;
      tiny_job = job 4 8;
      in_flight = 3;
      medium_job = job 20 8;
    }
  else
    {
      (* The open loop takes 60 % of the budget; the rest is the
         bursts, the shutdown and the restarts. *)
      rate = 5.;
      arrivals = max 10 (int_of_float (5. *. o.Run.seconds *. 0.6));
      open_job = job 30 16;
      bursts = 5;
      burst_size = 48;
      tiny_job = job 10 8;
      in_flight = 20;
      medium_job = job 40 16;
    }

let ms s = s *. 1e3

let run (o : Run.opts) report =
  let s = scale o in
  let texts = Array.init 6 (fun i -> Mm_io.Codec.spec_to_string (Mm_benchgen.Random_system.mul (i + 1))) in
  let dir = Run.scratch (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  Run.remove_tree dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "d.sock" and state_dir = Filename.concat dir "state" in
  Fun.protect ~finally:(fun () -> Run.remove_tree dir) @@ fun () ->
  let d, cold = start ~socket ~state_dir in
  (* 1. Open loop. *)
  let due = schedule ~seed:arrivals_seed ~rate:s.rate ~jobs:s.arrivals in
  let n = Array.length due in
  let options i = { s.open_job with Job.seed = o.Run.seed + i } in
  let ids = Array.make n "" and admit = Array.make n 0. and late = Array.make n 0. in
  let pings = ref [] in
  let cpu0 = Measure.process_cpu d.pid in
  let t0 = Measure.now () and wall0 = Unix.gettimeofday () in
  let next_ping = ref 1. in
  Array.iteri
    (fun i at ->
      let rec wait () =
        let elapsed = Measure.now () -. t0 in
        if elapsed < at then begin
          if elapsed >= !next_ping then begin
            let r, rtt, _ = Measure.timed (fun () -> Client.request d.client Protocol.Ping) in
            if r <> Ok Protocol.Pong then failwith "serve: Ping failed";
            pings := ms rtt :: !pings;
            next_ping := !next_ping +. 1.
          end
          else Unix.sleepf (Float.min (at -. elapsed) (!next_ping -. elapsed));
          wait ()
        end
      in
      wait ();
      late.(i) <- Measure.now () -. t0 -. at;
      let id, rtt = submit d ~text:texts.(i mod 6) ~options:(options i) in
      ids.(i) <- id;
      admit.(i) <- ms rtt)
    due;
  let watched = Array.map (watch d) ids in
  let daemon_cpu = Measure.process_cpu d.pid -. cpu0 in
  let views = Array.map (fun (v, _, _) -> v) watched in
  let due_wall i = wall0 +. due.(i) in
  let since_due field = Array.mapi (fun i v -> ms (Option.value ~default:nan (field v) -. due_wall i)) views in
  let between a b = Array.map (fun v -> ms (Option.value ~default:nan (b v) -. Option.value ~default:nan (a v))) views in
  let done_ = since_due (fun v -> v.Protocol.v_finished_at) in
  let first_gen = since_due (fun v -> v.Protocol.v_first_generation_at) in
  Array.iteri
    (fun i v ->
      if i mod 10 = 0 then
        check_job report ~expected:(in_process_power ~text:texts.(i mod 6) ~options:(options i)) v
      else check_job report v)
    views;
  let backlog_max =
    Array.fold_left
      (fun acc (v : Protocol.job_view) ->
        let t = v.Protocol.v_submitted_at in
        let live =
          Array.fold_left
            (fun k (u : Protocol.job_view) ->
              match u.Protocol.v_finished_at with
              | Some f when u.Protocol.v_submitted_at <= t && t < f -> k + 1
              | _ -> k)
            0 views
        in
        max acc live)
      0 views
  in
  (* 2. Bursts. *)
  let burst_rates =
    Array.init s.bursts (fun b ->
        let options i = { s.tiny_job with Job.seed = o.Run.seed + 10_000 + (1000 * b) + i } in
        let ids = Array.init s.burst_size (fun i -> fst (submit d ~text:texts.(i mod 6) ~options:(options i))) in
        let views = Array.map (fun id -> let v, _, _ = watch d id in v) ids in
        Array.iter (check_job report) views;
        let first = Array.fold_left (fun a v -> Float.min a v.Protocol.v_submitted_at) infinity views in
        let last =
          Array.fold_left (fun a v -> Float.max a (Option.value ~default:nan v.Protocol.v_finished_at)) 0. views
        in
        float_of_int s.burst_size /. (last -. first))
  in
  (* 3. Shutdown with jobs in flight, then restarts on the populated dir. *)
  let medium i = { s.medium_job with Job.seed = o.Run.seed + 20_000 + i } in
  let medium_ids = Array.init s.in_flight (fun i -> fst (submit d ~text:texts.(i mod 6) ~options:(medium i))) in
  Unix.sleepf 0.2;
  let rss = Measure.peak_rss_mb ~pid:(string_of_int d.pid) () in
  stop d;
  let rehydrated = unfinished state_dir in
  let d, first_restart = start ~socket ~state_dir in
  Array.iteri
    (fun i id ->
      let v, _, _ = watch d id in
      check_job report ~expected:(in_process_power ~text:texts.(i mod 6) ~options:(medium i)) v)
    medium_ids;
  stop d;
  let restarts =
    Array.append [| first_restart |]
      (Array.init 2 (fun _ ->
           let d, ready = start ~socket ~state_dir in
           stop d;
           ready))
  in
  (* The state the phases left behind. *)
  let dirs = job_dirs state_dir in
  let files = List.concat_map (fun dir -> List.map (Filename.concat dir) (Array.to_list (Sys.readdir dir))) dirs in
  let bytes = List.fold_left (fun acc f -> acc + (Unix.stat f).Unix.st_size) 0 files in
  let snaps =
    List.length
      (List.filter
         (fun f -> String.starts_with ~prefix:"checkpoint.snap" (Filename.basename f))
         files)
  in
  let jobs = float_of_int (List.length dirs) in
  (* Metrics. *)
  Report.set_median report "setup_s" restarts;
  Report.set report "op_ms" ~samples:done_ (Some (Measure.median done_));
  Report.set report "cpu_ms" (Some (ms daemon_cpu /. float_of_int n));
  Report.set report "peak_rss_mb" (Some rss);
  Report.set_median report "work_per_s" burst_rates;
  Report.set report "io.state_kb_per_job" (Some (float_of_int bytes /. 1024. /. jobs));
  Report.set report "io.snap_files_per_job" (Some (float_of_int snaps /. jobs));
  Report.set report "serve.cold_start_ms" (Some (ms cold));
  Report.set_median report "serve.ping_ms_p50" (Array.of_list !pings);
  Report.set_median report "serve.admit_p50_ms" admit;
  Report.set_median report "serve.first_gen_p50_ms" first_gen;
  Report.set report "serve.done_p90_ms" ~samples:done_ (Some (Measure.percentile done_ 0.9));
  Report.set_median report "serve.queue_wait_ms_p50"
    (between (fun v -> Some v.Protocol.v_submitted_at) (fun v -> v.Protocol.v_started_at));
  Report.set_median report "serve.init_ms_p50"
    (between (fun v -> v.Protocol.v_started_at) (fun v -> v.Protocol.v_first_generation_at));
  Report.set_median report "serve.run_ms_p50"
    (between (fun v -> v.Protocol.v_first_generation_at) (fun v -> v.Protocol.v_finished_at));
  Report.set_median report "serve.gen_gap_ms_p50"
    (Array.of_list (List.concat_map (fun (_, _, g) -> g) (Array.to_list watched)));
  Report.set report "serve.events_per_job"
    (Some (Measure.median (Array.map (fun (_, e, _) -> float_of_int e) watched)));
  Report.set report "serve.backlog_max" (Some (float_of_int backlog_max));
  Report.set report "serve.gen_late_ms_max" (Some (ms (Array.fold_left Float.max 0. late)));
  Report.set report "serve.rehydrated_jobs" (Some (float_of_int rehydrated));
  Report.set report "serve.jobs_submitted" (Some jobs);
  Report.set report "serve.jobs_failed" (Some (float_of_int report.Report.failed));
  Report.detail report "open loop: %d jobs at %.0f/s over %.1f s; generator late p50 %.2f ms, max %.2f ms"
    n s.rate due.(n - 1) (ms (Measure.median late)) (ms (Array.fold_left Float.max 0. late));
  let tail name samples =
    match Measure.tail samples with
    | Some (q, v) -> Report.detail report "%s: p%g %.1f ms (n = %d)" name (100. *. q) v (Array.length samples)
    | None -> Report.detail report "%s: fewer than 20 samples, no tail" name
  in
  tail "done (due -> finished) tail" done_;
  Report.detail report "done p95 %.1f ms (n = %d)" (Measure.percentile done_ 0.95) n;
  Report.detail report
    "first generation p50 %.1f ms under %.0f jobs/s arrivals (BENCH_serve.json: 250 ms when 100 jobs arrive at once)"
    (Measure.median first_gen) s.rate;
  Report.detail report "bursts: %s jobs/s" (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.1f") burst_rates)));
  Report.detail report "restarts exec -> Pong: %s ms (first resumes %d in-flight jobs)"
    (String.concat ", " (Array.to_list (Array.map (fun r -> Printf.sprintf "%.1f" (ms r)) restarts)))
    rehydrated
