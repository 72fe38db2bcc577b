(* End-to-end integration tests: full synthesis runs over generated
   benchmarks and the smart phone, checking the cross-module invariants
   the paper's experiments rely on. *)

module Graph = Mm_taskgraph.Graph
module Mode = Mm_omsm.Mode
module Omsm = Mm_omsm.Omsm
module Schedule = Mm_sched.Schedule
module Scaling = Mm_dvs.Scaling
module Spec = Mm_cosynth.Spec
module Fitness = Mm_cosynth.Fitness
module Synthesis = Mm_cosynth.Synthesis
module Experiment = Mm_cosynth.Experiment
module Engine = Mm_ga.Engine
module Random_system = Mm_benchgen.Random_system
module Stats = Mm_util.Stats

let quick_ga = { Engine.default_config with population_size = 24; max_generations = 40 }

let quick_config ?(weighting = Fitness.True_probabilities) ?(dvs = Fitness.No_dvs) () =
  {
    Synthesis.default_config with
    fitness = { Fitness.default_config with weighting; dvs };
    ga = quick_ga;
  }

(* Every schedule inside a synthesis result must be structurally valid. *)
let check_schedules spec (eval : Fitness.eval) =
  let omsm = Spec.omsm spec in
  Array.iteri
    (fun mode sched ->
      let graph = Mode.graph (Omsm.mode omsm mode) in
      match Schedule.validate sched ~graph with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "mode %d: %s" mode msg))
    eval.Fitness.schedules

let test_mul1_end_to_end () =
  let spec = Random_system.mul 1 in
  let result = Synthesis.run ~config:(quick_config ()) ~spec ~seed:1 () in
  Alcotest.(check bool) "positive power" true (Synthesis.average_power result > 0.0);
  check_schedules spec result.Synthesis.eval

let test_probability_weighting_helps_on_average () =
  (* Over a few benchmarks and seeds, the probability-aware arm must win
     or tie on true average power — the paper's central claim. *)
  let total_base = ref 0.0 and total_prop = ref 0.0 in
  List.iter
    (fun i ->
      let spec = Random_system.mul i in
      let comparison =
        Experiment.compare ~config:(quick_config ()) ~spec ~runs:2 ~seed:100 ()
      in
      total_base := !total_base +. comparison.Experiment.without_probabilities.Experiment.power.Stats.mean;
      total_prop := !total_prop +. comparison.Experiment.with_probabilities.Experiment.power.Stats.mean)
    [ 1; 5 ];
  Alcotest.(check bool) "proposed wins in aggregate" true (!total_prop < !total_base)

let test_dvs_reduces_power_same_mapping () =
  (* For identical genomes, enabling DVS never increases true power. *)
  let spec = Random_system.mul 2 in
  let rng = Mm_util.Prng.create ~seed:4 in
  let counts = Spec.gene_counts spec in
  for _ = 1 to 10 do
    let genome = Mm_ga.Genome.random rng ~counts in
    let nominal = Fitness.evaluate Fitness.default_config spec genome in
    let dvs =
      Fitness.evaluate
        { Fitness.default_config with dvs = Fitness.Dvs Scaling.default_config }
        spec genome
    in
    Alcotest.(check bool) "dvs <= nominal" true
      (dvs.Fitness.true_power <= nominal.Fitness.true_power +. 1e-12)
  done

let test_scaled_schedules_meet_deadlines () =
  (* After DVS, stretched finish times stay within min(deadline, period)
     whenever the input schedule was feasible. *)
  let spec = Random_system.mul 3 in
  let omsm = Spec.omsm spec in
  let result =
    Synthesis.run
      ~config:(quick_config ~dvs:(Fitness.Dvs Scaling.default_config) ())
      ~spec ~seed:2 ()
  in
  Array.iteri
    (fun mode (scaling : Scaling.t) ->
      if scaling.Scaling.feasible then begin
        let mode_rec = Omsm.mode omsm mode in
        let graph = Mode.graph mode_rec in
        Array.iteri
          (fun task finish ->
            let bound =
              match Mm_taskgraph.Task.deadline (Graph.task graph task) with
              | None -> Mode.period mode_rec
              | Some d -> Float.min d (Mode.period mode_rec)
            in
            Alcotest.(check bool)
              (Printf.sprintf "mode %d task %d in time" mode task)
              true
              (finish <= bound +. 1e-9))
          scaling.Scaling.stretched_finish
      end)
    result.Synthesis.eval.Fitness.scalings

let test_smartphone_quick_synthesis () =
  let spec = Mm_benchgen.Smartphone.spec () in
  let result = Synthesis.run ~config:(quick_config ()) ~spec ~seed:5 () in
  check_schedules spec result.Synthesis.eval;
  (* The dominant RLC mode must not keep every component powered: with
     three PEs and eight tasks a good mapping exists, but even a quick
     run must at least produce a structurally sound power report. *)
  Alcotest.(check int) "eight mode powers" 8
    (Array.length result.Synthesis.eval.Fitness.mode_powers);
  Alcotest.(check bool) "positive power" true (Synthesis.average_power result > 0.0)

let test_experiment_comparison_structure () =
  let spec = Random_system.mul 5 in
  let comparison = Experiment.compare ~config:(quick_config ()) ~spec ~runs:3 ~seed:7 () in
  let arm = comparison.Experiment.with_probabilities in
  Alcotest.(check int) "three runs" 3 arm.Experiment.power.Stats.n;
  Alcotest.(check bool) "best <= mean" true
    (Synthesis.average_power arm.Experiment.best <= arm.Experiment.power.Stats.mean +. 1e-12);
  (* Reduction consistent with the two means. *)
  let recomputed =
    Stats.percent_reduction
      ~from:comparison.Experiment.without_probabilities.Experiment.power.Stats.mean
      ~to_:arm.Experiment.power.Stats.mean
  in
  Alcotest.(check (float 1e-9)) "reduction" recomputed comparison.Experiment.reduction_percent

let test_serialisation_preserves_synthesis () =
  (* Export a generated benchmark, reload it, synthesise both: identical
     results — the round-trip loses nothing the synthesis reads. *)
  let spec = Random_system.mul 4 in
  let reloaded = Mm_io.Codec.spec_of_string (Mm_io.Codec.spec_to_string spec) in
  let run spec = Synthesis.run ~config:(quick_config ()) ~spec ~seed:13 () in
  let original = run spec and restored = run reloaded in
  Alcotest.(check (array int)) "same genome" original.Synthesis.genome
    restored.Synthesis.genome;
  Alcotest.(check (float 1e-15)) "same power" (Synthesis.average_power original)
    (Synthesis.average_power restored)

let test_annealing_comparable_to_ga () =
  (* At matched budgets SA should land within an order of magnitude of the
     GA — it shares fitness and anchors, so a wild gap would indicate a
     wiring bug. *)
  let spec = Random_system.mul 5 in
  let ga = Synthesis.run ~config:(quick_config ()) ~spec ~seed:3 () in
  let sa =
    Annealing.run
      ~config:{ Annealing.default_config with Annealing.steps = 2000 }
      ~spec ~seed:3 ()
  in
  let ratio =
    sa.Annealing.eval.Fitness.true_power /. Synthesis.average_power ga
  in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f within [0.2, 10]" ratio)
    true
    (ratio > 0.2 && ratio < 10.0)

let test_synthesis_reproducible_across_processes () =
  (* Fixed seed + fixed benchmark: the exact genome is stable, which the
     EXPERIMENTS.md records depend on. *)
  let spec = Random_system.mul 6 in
  let a = Synthesis.run ~config:(quick_config ()) ~spec ~seed:9 () in
  let b = Synthesis.run ~config:(quick_config ()) ~spec ~seed:9 () in
  Alcotest.(check (array int)) "same genome" a.Synthesis.genome b.Synthesis.genome

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "mul1 synthesis" `Slow test_mul1_end_to_end;
          Alcotest.test_case "probability weighting helps" `Slow
            test_probability_weighting_helps_on_average;
          Alcotest.test_case "dvs reduces power" `Slow test_dvs_reduces_power_same_mapping;
          Alcotest.test_case "scaled deadlines" `Slow test_scaled_schedules_meet_deadlines;
          Alcotest.test_case "smartphone quick" `Slow test_smartphone_quick_synthesis;
          Alcotest.test_case "experiment structure" `Slow test_experiment_comparison_structure;
          Alcotest.test_case "serialisation preserves synthesis" `Slow
            test_serialisation_preserves_synthesis;
          Alcotest.test_case "annealing comparable" `Slow test_annealing_comparable_to_ga;
          Alcotest.test_case "reproducible" `Slow test_synthesis_reproducible_across_processes;
        ] );
    ]
