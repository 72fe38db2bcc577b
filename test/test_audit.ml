(* Tests for Mm_cosynth.Audit: honest evaluations audit clean (including
   full synthesis runs across evaluation strategies and DVS settings),
   and deliberately tampered evaluations are caught with the right
   violation kind. *)

module Fitness = Mm_cosynth.Fitness
module Mapping = Mm_cosynth.Mapping
module Synthesis = Mm_cosynth.Synthesis
module Audit = Mm_cosynth.Audit
module Transition_time = Mm_cosynth.Transition_time
module Schedule = Mm_sched.Schedule
module Scaling = Mm_dvs.Scaling

let no_dvs = Fitness.default_config

let with_dvs =
  { Fitness.default_config with Fitness.dvs = Fitness.Dvs Scaling.default_config }

let pp_report report = Format.asprintf "%a" Audit.pp_report report

let check_clean name config spec eval =
  let report = Audit.check ~config ~spec eval in
  if not report.Audit.clean then Alcotest.failf "%s:@.%s" name (pp_report report)

(* --- Honest evaluations are clean ------------------------------------------ *)

let test_clean_motivational () =
  let spec = Mm_benchgen.Motivational.spec () in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun arrays ->
          let eval = Fitness.evaluate_mapping config spec (Mapping.of_arrays spec arrays) in
          check_clean (Printf.sprintf "motivational %s" cname) config spec eval)
        [
          (* Fig. 2b, Fig. 2c, all-software. *)
          [| [| 0; 0; 1 |]; [| 0; 1; 0 |] |];
          [| [| 0; 0; 0 |]; [| 0; 1; 1 |] |];
          [| [| 0; 0; 0 |]; [| 0; 0; 0 |] |];
        ])
    [ ("no-DVS", no_dvs); ("DVS", with_dvs) ]

let test_clean_smartphone () =
  let spec = Mm_benchgen.Smartphone.spec () in
  let genome =
    match Synthesis.anchors spec with
    | g :: _ -> g
    | [] -> Alcotest.fail "smartphone has no anchor"
  in
  List.iter
    (fun (cname, config) ->
      check_clean
        (Printf.sprintf "smartphone %s" cname)
        config spec
        (Fitness.evaluate config spec genome))
    [ ("no-DVS", no_dvs); ("DVS", with_dvs) ]

(* Full synthesis runs, audit on: serial, pooled and cached evaluation
   must all hand the auditor a clean winner, with and without DVS. *)
let test_synthesis_audited () =
  let ga =
    {
      Mm_ga.Engine.default_config with
      Mm_ga.Engine.max_generations = 12;
      population_size = 16;
    }
  in
  List.iter
    (fun (bench, spec) ->
      List.iter
        (fun (strategy, jobs) ->
          List.iter
            (fun (cname, fitness) ->
              let config =
                {
                  Synthesis.default_config with
                  Synthesis.fitness;
                  ga;
                  jobs;
                  audit = true;
                }
              in
              let result = Synthesis.run ~config ~spec ~seed:3 () in
              match result.Synthesis.audit with
              | Some report when report.Audit.clean -> ()
              | Some report ->
                Alcotest.failf "%s %s %s:@.%s" bench strategy cname (pp_report report)
              | None -> Alcotest.fail "audit requested but report absent")
            [ ("no-DVS", no_dvs); ("DVS", with_dvs) ])
        [ ("serial", 1); ("pooled", 2) ])
    [
      ("motivational", Mm_benchgen.Motivational.spec ());
      ("smartphone", Mm_benchgen.Smartphone.spec ());
    ]

(* --- Tampered evaluations are caught ---------------------------------------- *)

let kinds report = List.map (fun (v : Audit.violation) -> v.Audit.kind) report.Audit.violations

let expect_kind name kind report =
  if report.Audit.clean then Alcotest.failf "%s: tamper not caught" name;
  if not (List.mem kind (kinds report)) then
    Alcotest.failf "%s: kinds {%s} miss %s" name
      (String.concat ", " (List.map Audit.kind_to_string (kinds report)))
      (Audit.kind_to_string kind)

let tamper_slot mode task f (e : Fitness.eval) =
  let schedules = Array.copy e.Fitness.schedules in
  let s = schedules.(mode) in
  let slots = Array.copy s.Schedule.task_slots in
  slots.(task) <- f slots.(task);
  schedules.(mode) <- { s with Schedule.task_slots = slots };
  { e with Fitness.schedules = schedules }

let tamper_scaling mode f (e : Fitness.eval) =
  let scalings = Array.copy e.Fitness.scalings in
  scalings.(mode) <- f scalings.(mode);
  { e with Fitness.scalings = scalings }

let test_tampering () =
  let spec = Mm_benchgen.Motivational.spec () in
  let eval =
    Fitness.evaluate_mapping no_dvs spec
      (Mapping.of_arrays spec [| [| 0; 0; 1 |]; [| 0; 1; 0 |] |])
  in
  let audit e = Audit.check ~config:no_dvs ~spec e in
  check_clean "untampered" no_dvs spec eval;

  (* Direct fitness tampering: power win out of thin air. *)
  expect_kind "fitness x2" Audit.Fitness_claim
    (audit { eval with Fitness.fitness = eval.Fitness.fitness *. 2.0 });
  (* Timing penalty claimed without any late task. *)
  expect_kind "timing factor" Audit.Deadline_claim
    (audit { eval with Fitness.timing_factor = 2.0 });
  (* Area feasibility flipped against the allocation. *)
  expect_kind "area flip" Audit.Area_claim
    (audit { eval with Fitness.area_feasible = not eval.Fitness.area_feasible });
  (* Reported average power halved. *)
  expect_kind "power x0.5" Audit.Power_mismatch
    (audit { eval with Fitness.true_power = eval.Fitness.true_power /. 2.0 });
  (* Transition times shifted past their OMSM bounds. *)
  let late =
    List.map
      (fun (t : Transition_time.entry) ->
        { t with Transition_time.time = t.Transition_time.time +. 1.0 })
      eval.Fitness.transition_times
  in
  expect_kind "transition +1s" Audit.Transition_bound
    (audit { eval with Fitness.transition_times = late });
  (* A slot claiming half its implementation's execution time. *)
  expect_kind "duration x0.5" Audit.Wrong_duration
    (audit
       (tamper_slot 0 0
          (fun slot -> { slot with Schedule.duration = slot.Schedule.duration /. 2.0 })
          eval));
  (* Two slots overlapping on one software PE (tasks 0 and 1 share PE0). *)
  expect_kind "overlap" Audit.Resource_overlap
    (audit
       (tamper_slot 0 1
          (fun slot ->
            { slot with Schedule.start = eval.Fitness.schedules.(0).Schedule.task_slots.(0).Schedule.start })
          eval));
  (* Consumer moved before its producer, overlap-free: tasks 0 -> 1 on
     PE0 swap places on the timeline. *)
  expect_kind "precedence inversion" Audit.Precedence
    (audit
       (tamper_slot 0 0
          (fun slot -> { slot with Schedule.start = slot.Schedule.start +. 0.1 })
          (tamper_slot 0 1 (fun slot -> { slot with Schedule.start = 0.0 }) eval)));
  (* Task energy doubled: the partition no longer balances. *)
  expect_kind "energy x2" Audit.Energy_mismatch
    (audit
       (tamper_scaling 0
          (fun sc ->
            let task_energy = Array.copy sc.Scaling.task_energy in
            task_energy.(0) <- task_energy.(0) *. 2.0;
            { sc with Scaling.task_energy })
          eval));
  (* Stretched finishes pushed past the period while still claiming
     timing feasibility. *)
  expect_kind "late finish" Audit.Deadline_claim
    (audit
       (tamper_scaling 0
          (fun sc ->
            {
              sc with
              Scaling.stretched_finish =
                Array.map (fun f -> f +. 10.0) sc.Scaling.stretched_finish;
            })
          eval));
  (* A voltage reported for a task on a rail-less PE. *)
  expect_kind "phantom voltage" Audit.Voltage_off_table
    (audit
       (tamper_scaling 0
          (fun sc ->
            let task_voltages = Array.copy sc.Scaling.task_voltages in
            task_voltages.(0) <- 9.99;
            { sc with Scaling.task_voltages })
          eval));
  (* check_exn raises on a dirty report. *)
  match
    Audit.check_exn ~config:no_dvs ~spec
      { eval with Fitness.fitness = eval.Fitness.fitness *. 2.0 }
  with
  | () -> Alcotest.fail "check_exn accepted a tampered evaluation"
  | exception Audit.Audit_violation report ->
    expect_kind "check_exn" Audit.Fitness_claim report

(* Off-table voltages on a DVS rail are caught too. *)
let test_voltage_off_table_dvs () =
  let spec = Mm_benchgen.Smartphone.spec () in
  let genome =
    match Synthesis.anchors spec with
    | g :: _ -> g
    | [] -> Alcotest.fail "smartphone has no anchor"
  in
  let eval = Fitness.evaluate with_dvs spec genome in
  (* Find a mode/task with a finite (rail-backed) voltage and nudge it
     off the discrete table. *)
  let target = ref None in
  Array.iteri
    (fun mode (sc : Scaling.t) ->
      if !target = None then
        Array.iteri
          (fun task v ->
            if !target = None && Float.is_finite v then target := Some (mode, task))
          sc.Scaling.task_voltages)
    eval.Fitness.scalings;
  match !target with
  | None -> Alcotest.fail "no rail-backed task found"
  | Some (mode, task) ->
    let tampered =
      let scalings = Array.copy eval.Fitness.scalings in
      let sc = scalings.(mode) in
      let task_voltages = Array.copy sc.Scaling.task_voltages in
      task_voltages.(task) <- task_voltages.(task) *. 0.917;
      scalings.(mode) <- { sc with Scaling.task_voltages };
      { eval with Fitness.scalings = scalings }
    in
    expect_kind "off-table voltage" Audit.Voltage_off_table
      (Audit.check ~config:with_dvs ~spec tampered)

(* --- Auditing never perturbs the trajectory --------------------------------- *)

let test_fingerprint_invariant () =
  Alcotest.(check string)
    "fingerprint ignores audit"
    (Synthesis.config_fingerprint Synthesis.default_config)
    (Synthesis.config_fingerprint { Synthesis.default_config with Synthesis.audit = true })

let () =
  Alcotest.run "audit"
    [
      ( "clean",
        [
          Alcotest.test_case "motivational evaluations" `Quick test_clean_motivational;
          Alcotest.test_case "smartphone anchor" `Quick test_clean_smartphone;
          Alcotest.test_case "synthesis runs" `Slow test_synthesis_audited;
        ] );
      ( "tampering",
        [
          Alcotest.test_case "injected violations" `Quick test_tampering;
          Alcotest.test_case "off-table DVS voltage" `Quick test_voltage_off_table_dvs;
        ] );
      ( "config",
        [ Alcotest.test_case "fingerprint invariant" `Quick test_fingerprint_invariant ] );
    ]
