(* Tests for Mm_serve: wire framing and codecs (fuzzed — garbage,
   truncated and oversized frames must come back as typed errors, never
   exceptions), the job lifecycle state machine, the cooperative
   round-robin scheduler, the registry's on-disk mirror, the
   crash-recovery contract (abandon mid-run, rehydrate, resume
   bit-identically) and one end-to-end daemon conversation over a real
   Unix-domain socket. *)

module Protocol = Mm_serve.Protocol
module Framing = Mm_serve.Protocol.Framing
module Job = Mm_serve.Job
module Registry = Mm_serve.Registry
module Scheduler = Mm_serve.Scheduler
module Server = Mm_serve.Server
module Client = Mm_serve.Client
module Snapshot = Mm_io.Snapshot
module Synthesis = Mm_cosynth.Synthesis
module Validate = Mm_cosynth.Validate

let spec = Fixtures.spec_of_graphs [ Fixtures.chain_graph () ]
let spec_text = Mm_io.Codec.spec_to_string spec
let invalid_spec_text = "(spec (name broken))"

let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

let opt_feq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> feq a b
  | _ -> false

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let temp_dir prefix =
  (* Unix sockets live here too: sun_path is ~107 bytes, so fall back
     to /tmp when the sandbox TMPDIR is deep. *)
  let base =
    let d = Filename.get_temp_dir_name () in
    if String.length d < 60 then d else "/tmp"
  in
  let path = Filename.temp_file ~temp_dir:base prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

(* --- framing ----------------------------------------------------------------- *)

let drain decoder out =
  let rec go () =
    match Framing.next decoder with
    | Ok (Some payload) ->
      out := payload :: !out;
      go ()
    | Ok None -> ()
    | Error e -> Alcotest.fail (Framing.error_to_string e)
  in
  go ()

let prop_framing_roundtrip =
  QCheck.Test.make ~name:"chunked streams round-trip" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 8) (string_of_size Gen.(0 -- 200)))
        (int_range 1 9))
    (fun (payloads, chunk) ->
      let stream = String.concat "" (List.map Framing.encode payloads) in
      let decoder = Framing.create () in
      let out = ref [] in
      let n = String.length stream in
      let i = ref 0 in
      while !i < n do
        let len = min chunk (n - !i) in
        Framing.feed decoder (String.sub stream !i len);
        i := !i + len;
        drain decoder out
      done;
      List.rev !out = payloads)

let prop_framing_truncated =
  QCheck.Test.make ~name:"truncated frames wait, then complete" ~count:200
    QCheck.(string_of_size Gen.(1 -- 100))
    (fun payload ->
      let stream = Framing.encode payload in
      let cut = String.length stream - 1 in
      let decoder = Framing.create () in
      Framing.feed decoder (String.sub stream 0 cut);
      let pending = Framing.next decoder = Ok None in
      Framing.feed decoder (String.sub stream cut 1);
      pending && Framing.next decoder = Ok (Some payload))

let test_framing_oversized_sticky () =
  let decoder = Framing.create ~max_frame:64 () in
  (* Big-endian header announcing a 65-byte payload. *)
  Framing.feed decoder "\000\000\000\065";
  let check_broken () =
    match Framing.next decoder with
    | Error (Framing.Oversized { length; limit }) ->
      Alcotest.(check int) "announced length" 65 length;
      Alcotest.(check int) "limit" 64 limit
    | Ok _ | Error (Framing.Malformed _) ->
      Alcotest.fail "expected Oversized"
  in
  check_broken ();
  (* The error is sticky: feeding more bytes never resynchronises. *)
  Framing.feed decoder (String.make 80 'x');
  check_broken ();
  (* A 4 GiB announcement is oversized too, not an overflow crash. *)
  let decoder = Framing.create () in
  Framing.feed decoder "\255\255\255\255";
  match Framing.next decoder with
  | Error (Framing.Oversized _) -> ()
  | _ -> Alcotest.fail "4 GiB header must be Oversized"

(* --- protocol codecs --------------------------------------------------------- *)

let options_gen =
  QCheck.Gen.(
    map
      (fun ((seed, generations, population, (restarts, dvs, uniform)),
            (islands, migration_interval, migration_count)) ->
        {
          Job.seed;
          generations;
          population;
          restarts;
          dvs;
          uniform;
          islands;
          (* Only meaningful — and only persisted — with islands > 1;
             a single-engine job carries the defaults. *)
          migration_interval =
            (if islands > 1 then migration_interval
             else Job.default_options.Job.migration_interval);
          migration_count =
            (if islands > 1 then migration_count
             else Job.default_options.Job.migration_count);
        })
      (pair
         (quad (0 -- 10_000) (1 -- 500) (2 -- 200) (triple (1 -- 6) bool bool))
         (triple (1 -- 4) (1 -- 16) (0 -- 4))))

let id_gen = QCheck.Gen.(map (Printf.sprintf "job-%04d") (0 -- 9999))

let request_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun spec_text options nonce ->
              Protocol.Submit { spec_text; options; nonce })
            (string_size (0 -- 300)) options_gen
            (opt (map (Printf.sprintf "nonce-%04d") (0 -- 9999))) );
        (1, map (fun id -> Protocol.Status id) id_gen);
        (1, map (fun id -> Protocol.Cancel id) id_gen);
        (1, map (fun id -> Protocol.Watch id) id_gen);
        (1, return Protocol.List_jobs);
        (1, return Protocol.Ping);
        (1, return Protocol.Shutdown);
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request round-trip" ~count:300
    (QCheck.make ~print:Protocol.request_to_string request_gen)
    (fun req ->
      Protocol.request_of_string (Protocol.request_to_string req) = Ok req)

let finite_float =
  QCheck.Gen.(map (fun f -> if Float.is_finite f then f else 1.5) float)

let view_gen =
  QCheck.Gen.(
    map2
      (fun (v_seq, v_state, v_restart, v_generation)
           ( (v_best_fitness, v_power, v_error),
             (v_submitted_at, v_started_at, v_first_generation_at, v_finished_at)
           ) ->
        {
          Protocol.v_id = Printf.sprintf "job-%04d" v_seq;
          v_seq;
          v_state;
          v_spec_fingerprint = "sha-fixture";
          v_restart;
          v_generation;
          v_best_fitness;
          v_power;
          v_error;
          v_submitted_at;
          v_started_at;
          v_first_generation_at;
          v_finished_at;
        })
      (quad (0 -- 9999)
         (oneofl
            [
              Job.Queued;
              Job.Running;
              Job.Checkpointed;
              Job.Completed;
              Job.Failed;
              Job.Cancelled;
            ])
         (0 -- 5) (0 -- 500))
      (pair
         (triple (opt finite_float) (opt finite_float)
            (opt (string_size (0 -- 40))))
         (quad finite_float (opt finite_float) (opt finite_float)
            (opt finite_float))))

let view_eq (a : Protocol.job_view) (b : Protocol.job_view) =
  a.Protocol.v_id = b.Protocol.v_id
  && a.v_seq = b.v_seq && a.v_state = b.v_state
  && a.v_spec_fingerprint = b.v_spec_fingerprint
  && a.v_restart = b.v_restart
  && a.v_generation = b.v_generation
  && opt_feq a.v_best_fitness b.v_best_fitness
  && opt_feq a.v_power b.v_power && a.v_error = b.v_error
  && feq a.v_submitted_at b.v_submitted_at
  && opt_feq a.v_started_at b.v_started_at
  && opt_feq a.v_first_generation_at b.v_first_generation_at
  && opt_feq a.v_finished_at b.v_finished_at

let diag_gen =
  QCheck.Gen.(
    map2
      (fun (d_code, d_severity, d_path) (d_message, d_pos) ->
        { Protocol.d_code; d_severity; d_path; d_message; d_pos })
      (triple
         (map (Printf.sprintf "MM%03d") (0 -- 99))
         (oneofl [ "error"; "warning" ])
         (string_size (0 -- 20)))
      (pair (string_size (0 -- 60)) (opt (pair (1 -- 500) (0 -- 80)))))

let response_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun v -> Protocol.Accepted v) view_gen);
        (2, map (fun ds -> Protocol.Rejected ds) (list_size (1 -- 5) diag_gen));
        (3, map (fun v -> Protocol.Job_info v) view_gen);
        (2, map (fun vs -> Protocol.Jobs vs) (list_size (0 -- 5) view_gen));
        (2, map (fun line -> Protocol.Event line) (string_size (0 -- 200)));
        (1, return Protocol.Done);
        (1, return Protocol.Pong);
        ( 1,
          map2
            (fun code message -> Protocol.Error_response { code; message })
            (oneofl [ "unknown-job"; "wrong-state"; "protocol"; "internal" ])
            (string_size (0 -- 60)) );
      ])

let response_eq a b =
  match (a, b) with
  | Protocol.Accepted a, Protocol.Accepted b -> view_eq a b
  | Protocol.Rejected a, Protocol.Rejected b -> a = b
  | Protocol.Job_info a, Protocol.Job_info b -> view_eq a b
  | Protocol.Jobs a, Protocol.Jobs b ->
    List.length a = List.length b && List.for_all2 view_eq a b
  | Protocol.Event a, Protocol.Event b -> a = b
  | Protocol.Done, Protocol.Done | Protocol.Pong, Protocol.Pong -> true
  | ( Protocol.Error_response { code = ca; message = ma },
      Protocol.Error_response { code = cb; message = mb } ) ->
    ca = cb && ma = mb
  | _ -> false

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response round-trip" ~count:300
    (QCheck.make ~print:Protocol.response_to_string response_gen)
    (fun resp ->
      match Protocol.response_of_string (Protocol.response_to_string resp) with
      | Ok decoded -> response_eq resp decoded
      | Error e -> QCheck.Test.fail_report e)

let prop_codecs_total =
  QCheck.Test.make ~name:"garbage never raises" ~count:500 QCheck.string
    (fun garbage ->
      (match Protocol.request_of_string garbage with
      | Ok _ | Error _ -> ());
      (match Protocol.response_of_string garbage with
      | Ok _ | Error _ -> ());
      true)

let test_codec_rejects_bad_envelopes () =
  let expect_error what s =
    match Protocol.request_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s decoded as a request" what
  in
  expect_error "empty payload" "";
  expect_error "wrong tag" "(not-mmsynth-rpc (version 1) (request (ping)))";
  expect_error "future version" "(mmsynth-rpc (version 99) (request (ping)))";
  expect_error "unknown body" "(mmsynth-rpc (version 1) (request (bogus)))";
  (* A response payload is not a request. *)
  expect_error "response envelope"
    (Protocol.response_to_string Protocol.Pong)

(* --- job state machine ------------------------------------------------------- *)

let all_states =
  [
    Job.Queued;
    Job.Running;
    Job.Checkpointed;
    Job.Completed;
    Job.Failed;
    Job.Cancelled;
  ]

let test_state_strings () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Job.state_to_string s ^ " round-trips") true
        (Job.state_of_string (Job.state_to_string s) = Some s))
    all_states;
  Alcotest.(check bool) "bogus name" true (Job.state_of_string "bogus" = None)

let test_legality_matrix () =
  let expected from to_ =
    match (from, to_) with
    | Job.Queued, (Job.Running | Job.Cancelled) -> true
    | Job.Running, (Job.Checkpointed | Job.Completed | Job.Failed | Job.Cancelled)
      ->
      true
    | ( Job.Checkpointed,
        (Job.Running | Job.Completed | Job.Failed | Job.Cancelled) ) ->
      true
    | _ -> false
  in
  List.iter
    (fun from ->
      List.iter
        (fun to_ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s -> %s" (Job.state_to_string from)
               (Job.state_to_string to_))
            (expected from to_)
            (Job.legal ~from ~to_))
        all_states)
    all_states;
  (* Terminal states admit no outgoing edge at all. *)
  List.iter
    (fun from ->
      if Job.terminal from then
        List.iter
          (fun to_ ->
            Alcotest.(check bool) "terminal is absorbing" false
              (Job.legal ~from ~to_))
          all_states)
    all_states

let fresh_job ?nonce ?(seq = 7) () =
  Job.create ?nonce ~seq ~options:Job.default_options
    ~spec_fingerprint:"sha-test" ~now:1234.5 ()

let test_transition () =
  let j = fresh_job () in
  Alcotest.(check bool) "starts queued" true (j.Job.state = Job.Queued);
  (match Job.transition j Job.Completed with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "queued -> completed must be illegal");
  Alcotest.(check bool) "state unchanged on error" true
    (j.Job.state = Job.Queued);
  List.iter
    (fun to_ ->
      match Job.transition j to_ with
      | Ok () -> ()
      | Error e -> Alcotest.failf "legal edge refused: %s" e)
    [ Job.Running; Job.Checkpointed; Job.Running; Job.Completed ];
  match Job.transition j Job.Running with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "completed is terminal"

let job_eq (a : Job.t) (b : Job.t) =
  a.Job.id = b.Job.id && a.seq = b.seq && a.options = b.options
  && a.spec_fingerprint = b.spec_fingerprint
  && a.state = b.state && a.restart = b.restart
  && a.generation = b.generation
  && opt_feq a.best_fitness b.best_fitness
  && (match (a.outcome, b.outcome) with
     | None, None -> true
     | Some a, Some b ->
       feq a.Job.power b.Job.power && feq a.fitness b.fitness
       && a.generations = b.generations
       && a.evaluations = b.evaluations
       && a.genome = b.genome
     | _ -> false)
  && a.error = b.error
  && feq a.submitted_at b.submitted_at
  && opt_feq a.started_at b.started_at
  && opt_feq a.first_generation_at b.first_generation_at
  && opt_feq a.finished_at b.finished_at

let roundtrip_job j =
  match Job.of_sexp (Job.to_sexp j) with
  | Ok j' -> Alcotest.(check bool) "job sexp round-trip" true (job_eq j j')
  | Error e -> Alcotest.failf "job codec: %s" e

let test_job_codec () =
  (* A freshly queued job: every optional field absent. *)
  roundtrip_job (fresh_job ());
  (* A completed job: every field populated, floats bit-exact. *)
  let j = fresh_job ~seq:42 () in
  j.Job.state <- Job.Completed;
  j.Job.restart <- 1;
  j.Job.generation <- 37;
  j.Job.best_fitness <- Some 0x1.23456789abcdp-3;
  j.Job.outcome <-
    Some
      {
        Job.power = 0.0267158;
        fitness = 0x1.fffffffffffffp-2;
        generations = 61;
        evaluations = 999;
        genome = [| 0; 3; 1; 4 |];
      };
  j.Job.started_at <- Some 1234.6;
  j.Job.first_generation_at <- Some 1234.7;
  j.Job.finished_at <- Some 1240.0;
  roundtrip_job j;
  (* A failed job keeps its error string. *)
  let j = fresh_job () in
  j.Job.state <- Job.Failed;
  j.Job.error <- Some "boom: something \"quoted\"";
  roundtrip_job j;
  (* Garbage shapes are typed errors. *)
  List.iter
    (fun sexp ->
      match Job.of_sexp sexp with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed job metadata decoded")
    [
      Mm_io.Sexp.Atom "nope";
      Mm_io.Sexp.List [ Mm_io.Sexp.Atom "wrong-tag" ];
      Mm_io.Sexp.List
        [ Mm_io.Sexp.Atom "mmsynthd-job"; Mm_io.Sexp.Atom "not-a-field" ];
    ]

(* --- scheduler --------------------------------------------------------------- *)

let test_scheduler_round_robin () =
  let sched = Scheduler.create () in
  let log = ref [] in
  let body i ~yield =
    for k = 0 to 2 do
      log := (i, k) :: !log;
      yield ()
    done
  in
  let handles = List.map (fun i -> Scheduler.spawn sched (body i)) [ 0; 1; 2 ] in
  while Scheduler.step sched do
    ()
  done;
  let expected =
    [ (0, 0); (1, 0); (2, 0); (0, 1); (1, 1); (2, 1); (0, 2); (1, 2); (2, 2) ]
  in
  Alcotest.(check (list (pair int int)))
    "one slice per job per round" expected (List.rev !log);
  List.iter
    (fun h -> Alcotest.(check bool) "finished" true (Scheduler.finished h))
    handles;
  Alcotest.(check bool) "drained" false (Scheduler.busy sched)

let test_scheduler_cancel () =
  let sched = Scheduler.create () in
  (* Cancel a running body: the next resume raises Cancelled at the
     yield point and the body's handler records it. *)
  let cancelled = ref false in
  let slices = ref 0 in
  let h =
    Scheduler.spawn sched (fun ~yield ->
        try
          while true do
            incr slices;
            yield ()
          done
        with Scheduler.Cancelled -> cancelled := true)
  in
  Alcotest.(check bool) "first slice ran" true (Scheduler.step sched);
  Alcotest.(check bool) "running body reported started" true
    (Scheduler.request_cancel h);
  while Scheduler.step sched do
    ()
  done;
  Alcotest.(check bool) "body saw Cancelled" true !cancelled;
  Alcotest.(check int) "exactly one slice before cancel" 1 !slices;
  Alcotest.(check bool) "finished" true (Scheduler.finished h);
  (* Cancel a queued body: it must never start. *)
  let started = ref false in
  let h = Scheduler.spawn sched (fun ~yield:_ -> started := true) in
  Alcotest.(check bool) "queued body reported not started" false
    (Scheduler.request_cancel h);
  while Scheduler.step sched do
    ()
  done;
  Alcotest.(check bool) "queued body never ran" false !started;
  Alcotest.(check bool) "queued body finished" true (Scheduler.finished h)

let test_scheduler_exception_isolated () =
  let sched = Scheduler.create () in
  let bad = Scheduler.spawn sched (fun ~yield:_ -> failwith "boom") in
  let good_done = ref false in
  let good =
    Scheduler.spawn sched (fun ~yield ->
        yield ();
        good_done := true)
  in
  while Scheduler.step sched do
    ()
  done;
  Alcotest.(check bool) "bad body terminated" true (Scheduler.finished bad);
  Alcotest.(check bool) "good body unaffected" true !good_done;
  Alcotest.(check bool) "good finished" true (Scheduler.finished good)

(* --- registry ---------------------------------------------------------------- *)

let small_options =
  { Job.default_options with seed = 1; generations = 10; population = 8; restarts = 1 }

(* The registry holds a parsed spec only while its job can still run;
   a test that needs one after the job finished re-parses the text. *)
let live_spec entry =
  match entry.Registry.spec with
  | Some spec -> spec
  | None -> Alcotest.fail "runnable job has no parsed spec"

let parse_spec_text entry = Mm_io.Codec.spec_of_string entry.Registry.spec_text

let submit_ok registry ?(options = small_options) ?(now = 100.) () =
  match Registry.submit registry ~spec_text ~options ~now with
  | Ok entry -> entry
  | Error _ -> Alcotest.fail "valid spec rejected"

let test_registry_admission () =
  let dir = temp_dir "serve-registry" in
  let registry = Registry.create ~state_dir:dir in
  let entry = submit_ok registry () in
  Alcotest.(check string) "first id" "job-0001" entry.Registry.job.Job.id;
  Alcotest.(check bool) "queued" true (entry.Registry.job.Job.state = Job.Queued);
  let job_dir = Filename.concat (Filename.concat dir "jobs") "job-0001" in
  List.iter
    (fun file ->
      Alcotest.(check bool) (file ^ " written") true
        (Sys.file_exists (Filename.concat job_dir file)))
    [ "spec.mms"; "job.sexp"; "events.jsonl" ];
  (match Registry.read_events registry entry with
  | line :: _ ->
    Alcotest.(check bool) "queued event" true
      (contains line "\"state\":\"queued\"")
  | [] -> Alcotest.fail "no admission event");
  let entry2 = submit_ok registry () in
  Alcotest.(check string) "sequence grows" "job-0002" entry2.Registry.job.Job.id;
  (* An invalid spec is rejected before any directory is created. *)
  (match
     Registry.submit registry ~spec_text:invalid_spec_text
       ~options:small_options ~now:101.
   with
  | Ok _ -> Alcotest.fail "invalid spec admitted"
  | Error diags ->
    Alcotest.(check bool) "error diagnostics" true (Validate.has_errors diags));
  Alcotest.(check int) "no third directory" 2
    (Array.length (Sys.readdir (Filename.concat dir "jobs")))

let test_registry_lifecycle_and_rehydrate () =
  let dir = temp_dir "serve-lifecycle" in
  let registry = Registry.create ~state_dir:dir in
  let entry = submit_ok registry () in
  (* Illegal mutator calls are daemon bugs and raise. *)
  (try
     Registry.checkpointed registry entry ~now:102.;
     Alcotest.fail "checkpointed a queued job"
   with Invalid_argument _ -> ());
  Registry.mark_running registry entry ~now:103.;
  Alcotest.(check bool) "running" true (entry.Registry.job.Job.state = Job.Running);
  Alcotest.(check bool) "started stamped" true
    (entry.Registry.job.Job.started_at <> None);
  Registry.record_progress registry entry
    {
      Synthesis.p_restart = 0;
      p_generation = 1;
      p_best_fitness = 0.75;
      p_evaluations = 8;
    }
    ~now:104.;
  Alcotest.(check int) "generation tracked" 1 entry.Registry.job.Job.generation;
  Alcotest.(check bool) "first generation stamped" true
    (entry.Registry.job.Job.first_generation_at <> None);
  Registry.checkpointed registry entry ~now:105.;
  Registry.checkpointed registry entry ~now:106. (* idempotent *);
  Alcotest.(check bool) "checkpointed" true
    (entry.Registry.job.Job.state = Job.Checkpointed);
  (* A second job completes for real (tiny run), a third is cancelled. *)
  let done_entry = submit_ok registry () in
  Registry.mark_running registry done_entry ~now:107.;
  let result =
    Synthesis.run
      ~config:(Server.synthesis_config small_options)
      ~spec:(live_spec done_entry) ~seed:small_options.Job.seed ()
  in
  Registry.complete registry done_entry result ~now:108.;
  Alcotest.(check bool) "completed" true
    (done_entry.Registry.job.Job.state = Job.Completed);
  Alcotest.(check bool) "outcome retained" true
    (done_entry.Registry.job.Job.outcome <> None);
  Alcotest.(check bool) "completed job drops its spec" true
    (done_entry.Registry.spec = None);
  Alcotest.(check bool) "result.sexp written" true
    (Sys.file_exists
       (Filename.concat
          (Filename.concat (Filename.concat dir "jobs") "job-0002")
          "result.sexp"));
  let gone_entry = submit_ok registry () in
  Registry.cancel registry gone_entry ~now:109.;
  Alcotest.(check bool) "cancelled job drops its spec" true
    (gone_entry.Registry.spec = None);
  (* A fresh registry on the same directory sees all three, returns only
     the non-terminal one from rehydrate and continues the sequence. *)
  let registry2 = Registry.create ~state_dir:dir in
  let live = Registry.rehydrate registry2 in
  Alcotest.(check int) "all jobs reloaded" 3
    (List.length (Registry.entries registry2));
  (match live with
  | [ e ] ->
    Alcotest.(check string) "in-flight job" "job-0001" e.Registry.job.Job.id;
    Alcotest.(check bool) "in-flight job reparsed" true (e.Registry.spec <> None)
  | live ->
    Alcotest.failf "expected 1 live entry, got %d" (List.length live));
  (match Registry.find registry2 "job-0002" with
  | Some e ->
    Alcotest.(check bool) "completed survives restart" true
      (e.Registry.job.Job.state = Job.Completed);
    Alcotest.(check bool) "completed job not reparsed" true (e.Registry.spec = None)
  | None -> Alcotest.fail "job-0002 lost across restart");
  let next = submit_ok registry2 () in
  Alcotest.(check string) "sequence continues after restart" "job-0004"
    next.Registry.job.Job.id

(* A restart lists a finished job from its metadata alone: its spec.mms
   is never parsed again, so even a damaged one cannot cost it its
   listing or touch its result.  A job that still has to run needs its
   spec, and is quarantined when that no longer loads. *)
let test_rehydrate_terminal_spec_unparsed () =
  let dir = temp_dir "serve-terminal-spec" in
  let registry = Registry.create ~state_dir:dir in
  let done_entry = submit_ok registry () in
  Registry.mark_running registry done_entry ~now:101.;
  let result =
    Synthesis.run
      ~config:(Server.synthesis_config small_options)
      ~spec:(live_spec done_entry) ~seed:small_options.Job.seed ()
  in
  Registry.complete registry done_entry result ~now:102.;
  ignore (submit_ok registry ~now:103. ());
  let job_file id name =
    Filename.concat (Filename.concat (Filename.concat dir "jobs") id) name
  in
  let result_before = Mm_io.Codec.read_file (job_file "job-0001" "result.sexp") in
  let garbage = "(spec (name" in
  List.iter
    (fun id -> Mm_io.Codec.write_file (job_file id "spec.mms") garbage)
    [ "job-0001"; "job-0002" ];
  let registry2 = Registry.create ~state_dir:dir in
  let live = Registry.rehydrate registry2 in
  Alcotest.(check int) "nothing left to run" 0 (List.length live);
  (match Registry.entries registry2 with
  | [ e ] ->
    Alcotest.(check string) "finished job listed" "job-0001" e.Registry.job.Job.id;
    Alcotest.(check bool) "still completed" true
      (e.Registry.job.Job.state = Job.Completed);
    Alcotest.(check bool) "outcome untouched" true
      (match e.Registry.job.Job.outcome with
      | Some outcome ->
        feq outcome.Job.power (Synthesis.average_power result)
        && outcome.Job.genome = result.Synthesis.genome
      | None -> false);
    Alcotest.(check bool) "no parsed spec" true (e.Registry.spec = None);
    Alcotest.(check string) "spec text kept verbatim" garbage e.Registry.spec_text
  | entries -> Alcotest.failf "expected 1 entry, got %d" (List.length entries));
  Alcotest.(check string) "result.sexp untouched" result_before
    (Mm_io.Codec.read_file (job_file "job-0001" "result.sexp"));
  Alcotest.(check bool) "queued job quarantined" true
    (Sys.file_exists (job_file "job-0002" "job.sexp.corrupt"));
  Alcotest.(check bool) "queued job metadata moved aside" false
    (Sys.file_exists (job_file "job-0002" "job.sexp"))

(* --- memory: finished jobs release their specs ------------------------------- *)

(* Run jobs the way the server does — one coroutine per job on the
   round-robin scheduler, the spec bound once at the start of the body —
   and return weak pointers to the per-mode caches each job filled. *)
let[@inline never] run_to_completion registry entries =
  let sched = Scheduler.create () in
  let weak = Weak.create (List.length entries) in
  List.iteri
    (fun i entry ->
      ignore
        (Scheduler.spawn sched (fun ~yield ->
             let spec = live_spec entry in
             let options = entry.Registry.job.Job.options in
             Registry.mark_running registry entry ~now:111.;
             let result =
               Synthesis.run
                 ~config:(Server.synthesis_config options)
                 ~yield:(fun _ -> yield ())
                 ~spec ~seed:options.Job.seed ()
             in
             let ctx = Mm_cosynth.Spec.compiled spec in
             Weak.set weak i (Some (Mm_cosynth.Spec.mode_eval_cache ctx));
             Registry.complete registry entry result ~now:112.)))
    entries;
  while Scheduler.step sched do
    ()
  done;
  weak

let test_finished_jobs_release_specs () =
  let dir = temp_dir "serve-release" in
  let registry = Registry.create ~state_dir:dir in
  let entries =
    List.init 3 (fun i ->
        submit_ok registry ~options:{ small_options with Job.seed = i + 1 } ())
  in
  let weak = run_to_completion registry entries in
  let cancelled = submit_ok registry ~now:113. () in
  Registry.cancel registry cancelled ~now:114.;
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Registry.job.Job.id ^ " terminal")
        true
        (Job.terminal e.Registry.job.Job.state);
      Alcotest.(check bool)
        (e.Registry.job.Job.id ^ " holds no parsed spec")
        true (e.Registry.spec = None))
    (Registry.entries registry);
  Gc.full_major ();
  for i = 0 to Weak.length weak - 1 do
    if Weak.check weak i then
      Alcotest.failf "caches of finished job %d outlived it" (i + 1)
  done;
  (* The registry itself is still alive and still lists every job. *)
  Alcotest.(check int) "registry still lists every job" 4
    (List.length (Registry.entries registry))

(* --- crash recovery ---------------------------------------------------------- *)

(* The daemon's crash contract, exercised deterministically: run a job
   the way Server does (checkpoint persisted before every yield), kill
   it mid-run by abandoning at a yield point, rehydrate a fresh registry
   from the directory the "crash" left behind and resume — the final
   genome and power must match an uninterrupted run bit-for-bit. *)
let test_crash_resume_bit_identical () =
  let dir = temp_dir "serve-crash" in
  let options =
    { Job.default_options with seed = 3; generations = 60; population = 24; restarts = 2 }
  in
  let config = Server.synthesis_config options in
  let registry = Registry.create ~state_dir:dir in
  let entry =
    match Registry.submit registry ~spec_text ~options ~now:200. with
    | Ok e -> e
    | Error _ -> Alcotest.fail "submit failed"
  in
  Registry.mark_running registry entry ~now:201.;
  let sink0 =
    Snapshot.synth_sink
      ~path:(Registry.checkpoint_path registry entry)
      ~spec:(live_spec entry) ~every:3 ()
  in
  let sink =
    {
      sink0 with
      Synthesis.save =
        (fun state ->
          sink0.Synthesis.save state;
          Registry.checkpointed registry entry ~now:202.);
    }
  in
  let yields = ref 0 in
  (try
     ignore
       (Synthesis.run ~config ~checkpoint:sink
          ~yield:(fun progress ->
            Registry.record_progress registry entry progress ~now:203.;
            incr yields;
            if !yields >= 8 then raise Exit)
          ~spec:(live_spec entry) ~seed:options.Job.seed ())
   with Exit -> () (* the job dies at a yield point, like SIGKILL *));
  let registry2 = Registry.create ~state_dir:dir in
  let e2 =
    match Registry.rehydrate registry2 with
    | [ e ] -> e
    | live -> Alcotest.failf "expected 1 live entry, got %d" (List.length live)
  in
  Alcotest.(check bool) "found checkpointed" true
    (e2.Registry.job.Job.state = Job.Checkpointed);
  let resume =
    match e2.Registry.resume with
    | Some state -> state
    | None -> Alcotest.fail "rehydrate loaded no checkpoint"
  in
  Registry.mark_running registry2 e2 ~now:300.;
  let resumed =
    Synthesis.run ~config ~resume ~spec:(live_spec e2) ~seed:options.Job.seed ()
  in
  Registry.complete registry2 e2 resumed ~now:301.;
  let direct =
    Synthesis.run ~config ~spec:(parse_spec_text e2) ~seed:options.Job.seed ()
  in
  Alcotest.(check bool) "same genome" true
    (resumed.Synthesis.genome = direct.Synthesis.genome);
  Alcotest.(check int) "same generations" direct.Synthesis.generations
    resumed.Synthesis.generations;
  Alcotest.(check bool) "bit-identical power" true
    (feq (Synthesis.average_power resumed) (Synthesis.average_power direct))

(* A restarted daemon re-queues a Running or Checkpointed job with a
   body that has not started.  Cancelling it before its first slice
   must still record the cancellation: the scheduler drops a body that
   never started without running it, so nothing else would, and the job
   would stay non-terminal — keeping its parsed spec and resuming on the
   next restart. *)
let test_cancel_rehydrated_before_first_slice () =
  let dir = temp_dir "serve-cancel-rehydrated" in
  let options = { small_options with Job.generations = 20 } in
  let registry = Registry.create ~state_dir:dir in
  let entry = submit_ok registry ~options () in
  let id = entry.Registry.job.Job.id in
  Registry.mark_running registry entry ~now:201.;
  let sink0 =
    Snapshot.synth_sink
      ~path:(Registry.checkpoint_path registry entry)
      ~spec:(live_spec entry) ~every:2 ()
  in
  let sink =
    {
      sink0 with
      Synthesis.save =
        (fun state ->
          sink0.Synthesis.save state;
          Registry.checkpointed registry entry ~now:202.);
    }
  in
  let yields = ref 0 in
  (try
     ignore
       (Synthesis.run ~config:(Server.synthesis_config options) ~checkpoint:sink
          ~yield:(fun _ ->
            incr yields;
            if !yields >= 5 then raise Exit)
          ~spec:(live_spec entry) ~seed:options.Job.seed ())
   with Exit -> () (* the daemon dies mid-run *));
  Alcotest.(check bool) "checkpointed before the restart" true
    (entry.Registry.job.Job.state = Job.Checkpointed);
  let server = Server.create { Server.default_config with Server.state_dir = dir } in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  (match Server.cancel server id with
  | Protocol.Done -> ()
  | _ -> Alcotest.fail "cancel of a rehydrated job refused");
  while Server.step server do
    ()
  done;
  (match Registry.find (Server.registry server) id with
  | Some e ->
    Alcotest.(check bool) "registry says cancelled" true
      (e.Registry.job.Job.state = Job.Cancelled);
    Alcotest.(check bool) "parsed spec dropped" true (e.Registry.spec = None)
  | None -> Alcotest.fail "job lost");
  let meta =
    Mm_io.Codec.read_file
      (Filename.concat (Filename.concat (Filename.concat dir "jobs") id) "job.sexp")
  in
  Alcotest.(check bool) "job.sexp says cancelled" true (contains meta "cancelled");
  let registry2 = Registry.create ~state_dir:dir in
  Alcotest.(check int) "a second restart resumes nothing" 0
    (List.length (Registry.rehydrate registry2));
  match Registry.find registry2 id with
  | Some e ->
    Alcotest.(check bool) "still cancelled after the restart" true
      (e.Registry.job.Job.state = Job.Cancelled)
  | None -> Alcotest.fail "job lost across the restart"

(* --- client backoff ----------------------------------------------------------- *)

module Prng = Mm_util.Prng
module Fault = Mm_fault.Fault

let test_backoff_schedule () =
  (* Without jitter the schedule is exactly exponential, capped. *)
  let flat =
    { Client.attempts = 8; base_delay = 0.05; max_delay = 2.0; jitter = 0.0 }
  in
  let rng = Prng.create ~seed:1 in
  List.iteri
    (fun attempt expected ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "attempt %d" attempt)
        expected
        (Client.backoff_delay flat ~attempt ~rng))
    [ 0.05; 0.1; 0.2; 0.4; 0.8; 1.6; 2.0; 2.0 ];
  (* Jitter only ever subtracts, bounded by the jitter fraction. *)
  let jittered = { flat with Client.jitter = 0.25 } in
  let rng = Prng.create ~seed:7 in
  for attempt = 0 to 20 do
    let cap = Float.min 2.0 (0.05 *. (2. ** float_of_int attempt)) in
    let d = Client.backoff_delay jittered ~attempt ~rng in
    if not (d <= cap && d >= 0.75 *. cap) then
      Alcotest.failf "attempt %d: %g outside [%g, %g]" attempt d (0.75 *. cap) cap
  done;
  (* Pure in the rng: the same seed replays the same schedule. *)
  let schedule seed =
    let rng = Prng.create ~seed in
    List.init 10 (fun attempt -> Client.backoff_delay jittered ~attempt ~rng)
  in
  Alcotest.(check bool) "deterministic given the rng" true
    (schedule 99 = schedule 99)

(* --- submission nonces --------------------------------------------------------- *)

let test_registry_nonce_idempotence () =
  let dir = temp_dir "serve-nonce" in
  let registry = Registry.create ~state_dir:dir in
  let entry =
    match
      Registry.submit ~nonce:"n-test-1" registry ~spec_text
        ~options:small_options ~now:100.
    with
    | Ok e -> e
    | Error _ -> Alcotest.fail "valid spec rejected"
  in
  (match Registry.find_by_nonce registry "n-test-1" with
  | Some e ->
    Alcotest.(check string) "nonce resolves to the admitted job"
      entry.Registry.job.Job.id e.Registry.job.Job.id
  | None -> Alcotest.fail "nonce not remembered");
  Alcotest.(check bool) "unknown nonce misses" true
    (Registry.find_by_nonce registry "n-other" = None);
  (* The nonce is persisted in job.sexp: a restarted daemon still
     answers a replayed submit with the old job. *)
  let registry2 = Registry.create ~state_dir:dir in
  ignore (Registry.rehydrate registry2);
  match Registry.find_by_nonce registry2 "n-test-1" with
  | Some e ->
    Alcotest.(check string) "nonce survives restart" entry.Registry.job.Job.id
      e.Registry.job.Job.id
  | None -> Alcotest.fail "nonce lost across restart"

(* --- corrupt-state quarantine --------------------------------------------------- *)

let test_rehydrate_quarantines_metadata () =
  let dir = temp_dir "serve-badmeta" in
  let registry = Registry.create ~state_dir:dir in
  ignore (submit_ok registry ());
  ignore (submit_ok registry ());
  let bad_meta =
    Filename.concat (Filename.concat (Filename.concat dir "jobs") "job-0001")
      "job.sexp"
  in
  let oc = open_out_bin bad_meta in
  output_string oc "(job (id job-0001) truncated ga";
  close_out oc;
  (* The poisoned directory is quarantined, not fatal to recovery. *)
  let registry2 = Registry.create ~state_dir:dir in
  let live = Registry.rehydrate registry2 in
  Alcotest.(check int) "one live entry" 1 (List.length live);
  Alcotest.(check int) "one entry total" 1 (List.length (Registry.entries registry2));
  Alcotest.(check bool) "metadata renamed aside" true
    (Sys.file_exists (bad_meta ^ ".corrupt"));
  Alcotest.(check bool) "original gone" false (Sys.file_exists bad_meta);
  (* Later startups skip the quarantined directory quietly. *)
  let registry3 = Registry.create ~state_dir:dir in
  let live = Registry.rehydrate registry3 in
  Alcotest.(check int) "still one live entry" 1 (List.length live)

(* The crash-recovery contract under a corrupted newest checkpoint: with
   rotation the previous generation still resumes, the bad file is
   quarantined, and the resumed result matches the uninterrupted run bit
   for bit (resuming from an older checkpoint replays the same
   trajectory). *)
let test_corrupt_checkpoint_falls_back () =
  let dir = temp_dir "serve-corrupt-ckpt" in
  let options =
    { Job.default_options with seed = 3; generations = 60; population = 24; restarts = 2 }
  in
  let config = Server.synthesis_config options in
  let registry = Registry.create ~state_dir:dir in
  let entry =
    match Registry.submit registry ~spec_text ~options ~now:200. with
    | Ok e -> e
    | Error _ -> Alcotest.fail "submit failed"
  in
  Registry.mark_running registry entry ~now:201.;
  let checkpoint_path = Registry.checkpoint_path registry entry in
  let sink0 =
    Snapshot.synth_sink ~keep:3 ~path:checkpoint_path ~spec:(live_spec entry)
      ~every:3 ()
  in
  let saves = ref 0 in
  let sink =
    {
      sink0 with
      Synthesis.save =
        (fun state ->
          sink0.Synthesis.save state;
          incr saves;
          Registry.checkpointed registry entry ~now:202.);
    }
  in
  let yields = ref 0 in
  (try
     ignore
       (Synthesis.run ~config ~checkpoint:sink
          ~yield:(fun progress ->
            Registry.record_progress registry entry progress ~now:203.;
            incr yields;
            if !yields >= 8 then raise Exit)
          ~spec:(live_spec entry) ~seed:options.Job.seed ())
   with Exit -> ());
  Alcotest.(check bool) "rotated a second generation" true
    (!saves >= 2 && Sys.file_exists (checkpoint_path ^ ".1"));
  (* The crash also tore the newest checkpoint. *)
  let oc = open_out_bin checkpoint_path in
  output_string oc "(mmsyn-snapshot (version 2) torn mid-wri";
  close_out oc;
  let registry2 = Registry.create ~state_dir:dir in
  let e2 =
    match Registry.rehydrate registry2 with
    | [ e ] -> e
    | live -> Alcotest.failf "expected 1 live entry, got %d" (List.length live)
  in
  let resume =
    match e2.Registry.resume with
    | Some state -> state
    | None -> Alcotest.fail "no fallback checkpoint resumed"
  in
  Alcotest.(check bool) "torn file quarantined" true
    (Sys.file_exists (checkpoint_path ^ ".corrupt"));
  Alcotest.(check bool) "torn file no longer scanned" false
    (Sys.file_exists checkpoint_path);
  Registry.mark_running registry2 e2 ~now:300.;
  let resumed =
    Synthesis.run ~config ~resume ~spec:(live_spec e2) ~seed:options.Job.seed ()
  in
  let direct =
    Synthesis.run ~config ~spec:(parse_spec_text entry) ~seed:options.Job.seed ()
  in
  Alcotest.(check bool) "same genome" true
    (resumed.Synthesis.genome = direct.Synthesis.genome);
  Alcotest.(check bool) "bit-identical power" true
    (feq (Synthesis.average_power resumed) (Synthesis.average_power direct))

(* --- auth, admission bounds and idempotent submit over real sockets ------------ *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> Alcotest.fail "no port"
  in
  Unix.close fd;
  port

let wait_for_socket socket =
  let rec go n =
    if Sys.file_exists socket then ()
    else if n = 0 then Alcotest.fail "daemon socket never appeared"
    else (
      Unix.sleepf 0.02;
      go (n - 1))
  in
  go 250

let test_server_auth_and_busy () =
  let dir = temp_dir "serve-auth" in
  let socket = Filename.concat dir "d.sock" in
  let port = free_port () in
  let daemon =
    Domain.spawn (fun () ->
        Server.run
          {
            Server.default_config with
            Server.socket_path = socket;
            tcp = Some ("127.0.0.1", port);
            state_dir = Filename.concat dir "state";
            checkpoint_every = 2;
            max_jobs = 1;
            auth_token = Some "sekrit";
          })
  in
  wait_for_socket socket;
  let unix_client = Client.connect ~socket in
  Fun.protect
    ~finally:(fun () -> Client.close unix_client)
    (fun () ->
      (* Unix-socket clients are never challenged, token or not. *)
      (match Client.request unix_client Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "unix ping unchallenged");
      (* TCP without (or with a wrong) token gets a typed refusal. *)
      let tcp_request ?auth req =
        let t = Client.create ?auth ~retry:Client.no_retry (Client.Tcp ("127.0.0.1", port)) in
        Fun.protect
          ~finally:(fun () -> Client.close t)
          (fun () -> Client.request t req)
      in
      (match tcp_request Protocol.Ping with
      | Ok Protocol.Unauthorized -> ()
      | r ->
        Alcotest.failf "tokenless tcp ping: %s"
          (match r with Ok _ -> "unexpected response" | Error e -> e));
      (match tcp_request ~auth:"wrong" Protocol.Ping with
      | Ok Protocol.Unauthorized -> ()
      | _ -> Alcotest.fail "wrong token accepted");
      (match tcp_request ~auth:"sekrit" Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "right token refused");
      (* Admission bound: one slow job fills the daemon; the second
         submission is refused with a typed Busy carrying the numbers. *)
      let slow_options =
        { Job.default_options with seed = 5; generations = 100_000; population = 16; restarts = 1 }
      in
      let submit ?nonce options =
        Client.request unix_client
          (Protocol.Submit { spec_text; options; nonce })
      in
      let first_id =
        match submit ~nonce:"busy-nonce" slow_options with
        | Ok (Protocol.Accepted view) -> view.Protocol.v_id
        | _ -> Alcotest.fail "first submit refused"
      in
      (match submit { slow_options with Job.seed = 6 } with
      | Ok (Protocol.Busy { active = 1; limit = 1 }) -> ()
      | _ -> Alcotest.fail "second submit not refused as busy");
      (* An idempotent replay bypasses the bound: same nonce, same job,
         no duplicate. *)
      (match submit ~nonce:"busy-nonce" slow_options with
      | Ok (Protocol.Accepted view) ->
        Alcotest.(check string) "replayed submit returns the same job"
          first_id view.Protocol.v_id
      | _ -> Alcotest.fail "nonce replay refused");
      (match Client.request unix_client Protocol.List_jobs with
      | Ok (Protocol.Jobs [ _ ]) -> ()
      | _ -> Alcotest.fail "replay duplicated the job");
      (* Cancelling frees the admission slot. *)
      (match Client.request unix_client (Protocol.Cancel first_id) with
      | Ok Protocol.Done -> ()
      | _ -> Alcotest.fail "cancel");
      (match submit { small_options with Job.generations = 3 } with
      | Ok (Protocol.Accepted _) -> ()
      | _ -> Alcotest.fail "slot not freed after cancel");
      match Client.request unix_client Protocol.Shutdown with
      | Ok Protocol.Done -> ()
      | _ -> Alcotest.fail "shutdown");
  Domain.join daemon

(* --- chaos end to end ----------------------------------------------------------- *)

(* The headline robustness property: under the full default fault plan —
   worker crashes, torn and failed checkpoint writes, dropped accepts,
   EOFs, garbage frames, scheduler stalls — a resilient client still
   drives a job to completion, exactly one job is admitted (the nonce
   absorbs blind retries), and the result equals the fault-free run bit
   for bit. *)
let test_chaos_end_to_end () =
  let dir = temp_dir "serve-chaos" in
  let socket = Filename.concat dir "d.sock" in
  let plan =
    match Fault.plan_of_string Fault.default_plan with
    | Ok plan -> plan
    | Error e -> Alcotest.failf "default plan: %s" e
  in
  Fault.arm ~seed:2024 plan;
  let daemon =
    Domain.spawn (fun () ->
        Server.run
          {
            Server.default_config with
            Server.socket_path = socket;
            state_dir = Filename.concat dir "state";
            checkpoint_every = 2;
          })
  in
  wait_for_socket socket;
  let client = Client.create (Client.Unix_socket socket) in
  let options =
    { Job.default_options with seed = 11; generations = 25; population = 12; restarts = 1 }
  in
  let final =
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        let id =
          match
            Client.rpc client
              (Protocol.Submit
                 {
                   spec_text;
                   options;
                   nonce = Some (Client.fresh_nonce ());
                 })
          with
          | Ok (Protocol.Accepted view) -> view.Protocol.v_id
          | Ok _ -> Alcotest.fail "chaos submit: unexpected response"
          | Error e -> Alcotest.failf "chaos submit: %s" e
        in
        let final =
          match Client.watch_resilient client id ~on_event:(fun _ -> ()) with
          | Ok view -> view
          | Error e -> Alcotest.failf "chaos watch: %s" e
        in
        (match Client.rpc client Protocol.List_jobs with
        | Ok (Protocol.Jobs [ _ ]) -> ()
        | Ok (Protocol.Jobs views) ->
          Alcotest.failf "retries duplicated the job: %d admitted"
            (List.length views)
        | _ -> Alcotest.fail "chaos list");
        (match Client.shutdown client with
        | Ok () -> ()
        | Error e -> Alcotest.failf "chaos shutdown: %s" e);
        final)
  in
  Domain.join daemon;
  Fault.disarm ();
  Alcotest.(check bool) "completed under chaos" true
    (final.Protocol.v_state = Job.Completed);
  let direct =
    Synthesis.run
      ~config:(Server.synthesis_config options)
      ~spec ~seed:options.Job.seed ()
  in
  match final.Protocol.v_power with
  | Some power ->
    Alcotest.(check bool) "bit-identical to the fault-free run" true
      (feq power (Synthesis.average_power direct))
  | None -> Alcotest.fail "no power reported"

(* --- end to end over a real socket ------------------------------------------- *)

let test_server_end_to_end () =
  let dir = temp_dir "serve-e2e" in
  let socket = Filename.concat dir "d.sock" in
  let daemon =
    Domain.spawn (fun () ->
        Server.run
          {
            Server.default_config with
            Server.socket_path = socket;
            state_dir = Filename.concat dir "state";
            pool_jobs = 1;
            checkpoint_every = 2;
          })
  in
  let rec wait_for_socket n =
    if Sys.file_exists socket then ()
    else if n = 0 then Alcotest.fail "daemon socket never appeared"
    else (
      Unix.sleepf 0.02;
      wait_for_socket (n - 1))
  in
  wait_for_socket 250;
  let client = Client.connect ~socket in
  Fun.protect
    ~finally:(fun () -> Client.close client)
    (fun () ->
      (match Client.request client Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "ping");
      (* An invalid spec is rejected at admission with MM0xx codes. *)
      (match
         Client.request client
           (Protocol.Submit
              { spec_text = invalid_spec_text; options = Job.default_options; nonce = None })
       with
      | Ok (Protocol.Rejected diags) ->
        Alcotest.(check bool) "MM code on the wire" true
          (List.exists
             (fun d ->
               String.length d.Protocol.d_code >= 2
               && String.sub d.Protocol.d_code 0 2 = "MM")
             diags)
      | _ -> Alcotest.fail "invalid spec not rejected");
      (match Client.request client (Protocol.Status "job-9999") with
      | Ok (Protocol.Error_response { code = "unknown-job"; _ }) -> ()
      | _ -> Alcotest.fail "unknown job not reported");
      (* Submit a real job and watch it to completion. *)
      let options =
        { Job.default_options with seed = 11; generations = 25; population = 12; restarts = 1 }
      in
      let id =
        match
          Client.request client (Protocol.Submit { spec_text; options; nonce = None })
        with
        | Ok (Protocol.Accepted view) ->
          Alcotest.(check bool) "admitted queued" true
            (view.Protocol.v_state = Job.Queued);
          view.Protocol.v_id
        | _ -> Alcotest.fail "valid spec not accepted"
      in
      let generation_events = ref 0 in
      let final =
        match
          Client.watch client id ~on_event:(fun line ->
              if contains line "\"event\":\"generation\"" then
                incr generation_events)
        with
        | Ok view -> view
        | Error e -> Alcotest.failf "watch: %s" e
      in
      Alcotest.(check bool) "completed" true
        (final.Protocol.v_state = Job.Completed);
      Alcotest.(check bool) "power present" true
        (final.Protocol.v_power <> None);
      Alcotest.(check bool) "streamed generations" true
        (!generation_events > 0);
      (* Timestamps are ordered: admission -> start -> first generation
         -> completion (what the bench derives percentiles from). *)
      (match
         ( final.Protocol.v_started_at,
           final.Protocol.v_first_generation_at,
           final.Protocol.v_finished_at )
       with
      | Some started, Some first_gen, Some finished ->
        Alcotest.(check bool) "submitted <= started" true
          (final.Protocol.v_submitted_at <= started);
        Alcotest.(check bool) "started <= first generation" true
          (started <= first_gen);
        Alcotest.(check bool) "first generation <= finished" true
          (first_gen <= finished)
      | _ -> Alcotest.fail "missing lifecycle timestamps");
      (* Watching a terminal job replays history and returns at once. *)
      let replayed = ref 0 in
      (match Client.watch client id ~on_event:(fun _ -> incr replayed) with
      | Ok view ->
        Alcotest.(check bool) "terminal watch" true
          (view.Protocol.v_state = Job.Completed);
        Alcotest.(check bool) "history replayed" true (!replayed > 0)
      | Error e -> Alcotest.failf "terminal watch: %s" e);
      (match Client.request client Protocol.List_jobs with
      | Ok (Protocol.Jobs [ view ]) ->
        Alcotest.(check string) "listed" id view.Protocol.v_id
      | _ -> Alcotest.fail "list");
      (* The daemon's trajectory equals the library's, bit for bit. *)
      let direct =
        Synthesis.run
          ~config:(Server.synthesis_config options)
          ~spec ~seed:options.Job.seed ()
      in
      (match final.Protocol.v_power with
      | Some power ->
        Alcotest.(check bool) "daemon matches direct run" true
          (feq power (Synthesis.average_power direct))
      | None -> ());
      match Client.request client Protocol.Shutdown with
      | Ok Protocol.Done -> ()
      | _ -> Alcotest.fail "shutdown");
  Domain.join daemon;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket)

let () =
  Alcotest.run "mm_serve"
    [
      ( "framing",
        [
          QCheck_alcotest.to_alcotest prop_framing_roundtrip;
          QCheck_alcotest.to_alcotest prop_framing_truncated;
          Alcotest.test_case "oversized frames are sticky errors" `Quick
            test_framing_oversized_sticky;
        ] );
      ( "protocol codecs",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_codecs_total;
          Alcotest.test_case "bad envelopes rejected" `Quick
            test_codec_rejects_bad_envelopes;
        ] );
      ( "job state machine",
        [
          Alcotest.test_case "state names round-trip" `Quick test_state_strings;
          Alcotest.test_case "legality matrix" `Quick test_legality_matrix;
          Alcotest.test_case "transition enforces edges" `Quick test_transition;
          Alcotest.test_case "metadata codec" `Quick test_job_codec;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "round-robin fairness" `Quick
            test_scheduler_round_robin;
          Alcotest.test_case "cancellation" `Quick test_scheduler_cancel;
          Alcotest.test_case "exceptions stay contained" `Quick
            test_scheduler_exception_isolated;
        ] );
      ( "registry",
        [
          Alcotest.test_case "admission and rejection" `Quick
            test_registry_admission;
          Alcotest.test_case "lifecycle and rehydrate" `Quick
            test_registry_lifecycle_and_rehydrate;
          Alcotest.test_case "submission nonces are idempotent" `Quick
            test_registry_nonce_idempotence;
          Alcotest.test_case "corrupt metadata quarantined" `Quick
            test_rehydrate_quarantines_metadata;
          Alcotest.test_case "finished jobs reload without their spec" `Quick
            test_rehydrate_terminal_spec_unparsed;
          Alcotest.test_case "finished jobs release their specs" `Quick
            test_finished_jobs_release_specs;
        ] );
      ( "client retry",
        [ Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule ] );
      ( "crash recovery",
        [
          Alcotest.test_case "abandon, rehydrate, resume bit-identical" `Quick
            test_crash_resume_bit_identical;
          Alcotest.test_case "corrupt checkpoint falls back a generation" `Quick
            test_corrupt_checkpoint_falls_back;
          Alcotest.test_case "cancel before the first slice after a restart" `Quick
            test_cancel_rehydrated_before_first_slice;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end over a unix socket" `Quick
            test_server_end_to_end;
          Alcotest.test_case "auth, busy and idempotent submit" `Quick
            test_server_auth_and_busy;
          Alcotest.test_case "chaos run is bit-identical" `Quick
            test_chaos_end_to_end;
        ] );
    ]
