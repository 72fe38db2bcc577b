(* Benchmark harness: regenerates every table of the paper's evaluation
   section plus the ablation studies DESIGN.md calls out, and owns the
   two perf gates no other harness has.  Timings of whole runs, the
   daemon and the fleet engine belong to benchmark/.

   Usage:
     dune exec bench/main.exe                         # everything
     dune exec bench/main.exe -- table1               # one experiment
     dune exec bench/main.exe -- table2 --runs 5
     dune exec bench/main.exe -- --quick              # smaller GA budget
     dune exec bench/main.exe -- --quick --gate eval  # CI perf gate

   Experiments (see DESIGN.md §4 and EXPERIMENTS.md):
     table1     Tab. 1 — probabilities vs baseline, no DVS, mul1..mul12
     table2     Tab. 2 — same with DVS (SW processors and HW rails)
     table3     Tab. 3 — smart phone, w/o and with DVS
     ablation   improvement operators / HW-rail DVS / population size / ...
     ablation-f DVS slack-distribution strategy alone
     parallel   jobs x islands grid at equal population (BENCH_parallel.json)
     eval       compiled evaluation kernels before/after (BENCH_eval_kernel.json) *)

module Table = Mm_util.Table
module Stats = Mm_util.Stats
module Prng = Mm_util.Prng
module Engine = Mm_ga.Engine
module Fitness = Mm_cosynth.Fitness
module Synthesis = Mm_cosynth.Synthesis
module Experiment = Mm_cosynth.Experiment
module Spec = Mm_cosynth.Spec
module Random_system = Mm_benchgen.Random_system
module Smartphone = Mm_benchgen.Smartphone
module Scaling = Mm_dvs.Scaling
module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode

type options = { runs : int option; quick : bool; gate : bool }

(* Reads a flat one-level JSON object of numeric fields — the committed
   perf thresholds.  Deliberately dumb (line-oriented, no JSON library in
   the dependency cone): each `"key": number` line yields a binding,
   everything else is ignored. *)
let read_flat_json path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "gate: cannot read %s: %s\n%!" path msg;
      exit 1
  in
  let bindings = ref [] in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line ':' with
       | None -> ()
       | Some i ->
         let key = String.trim (String.sub line 0 i) in
         let value =
           String.trim (String.sub line (i + 1) (String.length line - i - 1))
         in
         let key =
           if String.length key >= 2 && key.[0] = '"' then
             String.sub key 1 (String.length key - 2)
           else key
         in
         let value =
           if String.length value > 0 && value.[String.length value - 1] = ',' then
             String.sub value 0 (String.length value - 1)
           else value
         in
         (match float_of_string_opt value with
         | Some v -> bindings := (key, v) :: !bindings
         | None -> ())
     done
   with End_of_file -> ());
  close_in ic;
  !bindings

let ga_config options =
  if options.quick then
    { Engine.default_config with population_size = 24; max_generations = 50 }
  else Engine.default_config

let milliwatt w = w *. 1e3

(* Seconds [f ()] took on the monotonic clock, so a step of the system
   clock can neither pass nor fail a gate. *)
let wall f =
  let started = Monotonic_clock.now () in
  let result = f () in
  (Int64.to_float (Int64.sub (Monotonic_clock.now ()) started) *. 1e-9, result)

let power_cell (s : Stats.summary) =
  Printf.sprintf "%.3f ±%.2f" (milliwatt s.Stats.mean) (milliwatt s.Stats.std)

let cpu_cell (s : Stats.summary) = Printf.sprintf "%.1f" s.Stats.mean

let comparison_row label (c : Experiment.comparison) =
  [
    label;
    power_cell c.Experiment.without_probabilities.Experiment.power;
    cpu_cell c.Experiment.without_probabilities.Experiment.cpu_seconds;
    power_cell c.Experiment.with_probabilities.Experiment.power;
    cpu_cell c.Experiment.with_probabilities.Experiment.cpu_seconds;
    Table.cell_percent c.Experiment.reduction_percent;
  ]

let comparison_columns =
  [
    "Example (modes)";
    "w/o prob. p̄ (mW)";
    "CPU (s)";
    "with prob. p̄ (mW)";
    "CPU (s)";
    "Reduc. (%)";
  ]

let comparison_config ~ga ~dvs =
  { Synthesis.default_config with ga; fitness = { Fitness.default_config with dvs } }

let mul_comparisons ~options ~dvs ~runs_default =
  let runs = Option.value ~default:runs_default options.runs in
  let ga = ga_config options in
  List.init 12 (fun k ->
      let i = k + 1 in
      let spec = Random_system.mul i in
      let label = Printf.sprintf "mul%d (%d)" i (Random_system.mul_mode_count i) in
      let config = comparison_config ~ga ~dvs in
      let comparison = Experiment.compare ~config ~spec ~runs ~seed:(1000 * i) () in
      Format.printf "  %s done@?@." label;
      (label, comparison))

let print_reduction_summary comparisons =
  let reductions = List.map (fun (_, c) -> c.Experiment.reduction_percent) comparisons in
  let s = Stats.summarize reductions in
  Format.printf "reduction over %d benchmarks: mean %.2f%%, min %.2f%%, max %.2f%%@.@."
    s.Stats.n s.Stats.mean s.Stats.min s.Stats.max

let table1 options =
  Format.printf "@.== Table 1: considering execution probabilities (w/o DVS) ==@.";
  let comparisons = mul_comparisons ~options ~dvs:Fitness.No_dvs ~runs_default:5 in
  let t = Table.create ~title:"Table 1 (paper: reductions 4.17-62.18 %)" ~columns:comparison_columns in
  List.iter (fun (label, c) -> Table.add_row t (comparison_row label c)) comparisons;
  Table.print t;
  print_reduction_summary comparisons

let table2 options =
  Format.printf "@.== Table 2: execution probabilities together with DVS ==@.";
  let dvs = Fitness.Dvs Scaling.default_config in
  let comparisons = mul_comparisons ~options ~dvs ~runs_default:3 in
  let t = Table.create ~title:"Table 2 (paper: reductions 5.68-64.02 %)" ~columns:comparison_columns in
  List.iter (fun (label, c) -> Table.add_row t (comparison_row label c)) comparisons;
  Table.print t;
  print_reduction_summary comparisons

let table3 options =
  Format.printf "@.== Table 3: smart phone real-life example ==@.";
  let runs = Option.value ~default:3 options.runs in
  (* The smart phone's 162-position genome needs a larger GA than the mul
     benchmarks to converge reliably. *)
  let ga =
    if options.quick then ga_config options
    else
      {
        Engine.default_config with
        population_size = 60;
        max_generations = 250;
        stagnation_limit = 40;
        tournament_size = 3;
      }
  in
  let spec = Smartphone.spec () in
  let compare dvs =
    Experiment.compare ~config:(comparison_config ~ga ~dvs) ~spec ~runs ~seed:42 ()
  in
  let no_dvs = compare Fitness.No_dvs in
  Format.printf "  w/o DVS done@?@.";
  let with_dvs = compare (Fitness.Dvs Scaling.default_config) in
  Format.printf "  with DVS done@?@.";
  let t =
    Table.create ~title:"Table 3 (paper: 30.76 % w/o DVS, 29.41 % with DVS, ~67 % overall)"
      ~columns:
        ("Smart phone"
        :: List.tl comparison_columns)
  in
  Table.add_row t (comparison_row "w/o DVS" no_dvs);
  Table.add_row t (comparison_row "with DVS" with_dvs);
  Table.print t;
  let overall =
    Stats.percent_reduction
      ~from:no_dvs.Experiment.without_probabilities.Experiment.power.Stats.mean
      ~to_:with_dvs.Experiment.with_probabilities.Experiment.power.Stats.mean
  in
  Format.printf "overall reduction (w/o DVS baseline -> DVS+probabilities): %.2f%% (paper: ~67%%)@.@."
    overall

(* --- Ablations ------------------------------------------------------------ *)

let proposed_power ~ga ~dvs ~use_improvements ~spec ~seeds =
  let config =
    {
      Synthesis.fitness =
        { Fitness.default_config with weighting = Fitness.True_probabilities; dvs };
      ga;
      use_improvements;
      restarts = Synthesis.default_config.Synthesis.restarts;
      jobs = Synthesis.default_config.Synthesis.jobs;
      audit = false;
      islands = Synthesis.default_config.Synthesis.islands;
      migration_interval = Synthesis.default_config.Synthesis.migration_interval;
      migration_count = Synthesis.default_config.Synthesis.migration_count;
      robust = Synthesis.default_config.Synthesis.robust;
    }
  in
  let powers =
    List.map (fun seed -> Synthesis.average_power (Synthesis.run ~config ~spec ~seed ()))
      seeds
  in
  Stats.summarize powers

let ablation_improvements options =
  Format.printf "@.-- Ablation A: the four improvement operators (§4.1) --@.";
  let ga = ga_config options in
  let seeds = [ 1; 2; 3 ] in
  let t =
    Table.create ~title:"GA with vs without improvement operators (proposed arm, no DVS)"
      ~columns:[ "Benchmark"; "with ops p̄ (mW)"; "without ops p̄ (mW)"; "penalty (%)" ]
  in
  List.iter
    (fun i ->
      let spec = Random_system.mul i in
      let with_ops = proposed_power ~ga ~dvs:Fitness.No_dvs ~use_improvements:true ~spec ~seeds in
      let without_ops =
        proposed_power ~ga ~dvs:Fitness.No_dvs ~use_improvements:false ~spec ~seeds
      in
      Table.add_row t
        [
          Printf.sprintf "mul%d" i;
          power_cell with_ops;
          power_cell without_ops;
          Table.cell_percent
            (Stats.percent_reduction ~from:without_ops.Stats.mean ~to_:with_ops.Stats.mean);
        ])
    [ 1; 2; 6 ];
  Table.print t

let ablation_hw_rail options =
  Format.printf "@.-- Ablation B: DVS on hardware rails (Fig. 5 transform, §4.2) --@.";
  let ga = ga_config options in
  let seeds = [ 1; 2; 3 ] in
  let t =
    Table.create ~title:"Proposed arm under different DVS scopes"
      ~columns:[ "Benchmark"; "no DVS (mW)"; "SW-only DVS (mW)"; "SW+HW DVS (mW)" ]
  in
  let specs = [ ("mul2", Random_system.mul 2); ("mul7", Random_system.mul 7) ] in
  List.iter
    (fun (label, spec) ->
      let none = proposed_power ~ga ~dvs:Fitness.No_dvs ~use_improvements:true ~spec ~seeds in
      let sw_only =
        proposed_power ~ga
          ~dvs:(Fitness.Dvs { Scaling.default_config with Scaling.scale_hardware = false })
          ~use_improvements:true ~spec ~seeds
      in
      let both =
        proposed_power ~ga ~dvs:(Fitness.Dvs Scaling.default_config) ~use_improvements:true
          ~spec ~seeds
      in
      Table.add_row t [ label; power_cell none; power_cell sw_only; power_cell both ])
    specs;
  Table.print t

let ablation_population options =
  Format.printf "@.-- Ablation C: GA population size --@.";
  let seeds = [ 1; 2 ] in
  let spec = Random_system.mul 1 in
  let t =
    Table.create ~title:"mul1, proposed arm, no DVS"
      ~columns:[ "population"; "p̄ (mW)"; "note" ]
  in
  List.iter
    (fun population_size ->
      let ga = { (ga_config options) with Engine.population_size } in
      let s = proposed_power ~ga ~dvs:Fitness.No_dvs ~use_improvements:true ~spec ~seeds in
      Table.add_row t
        [ string_of_int population_size; power_cell s;
          (if population_size = (ga_config options).Engine.population_size then "default" else "") ])
    [ 16; 40; 80 ];
  Table.print t

let ablation_ga_vs_sa options =
  Format.printf "@.-- Ablation D: GA vs simulated-annealing baseline mapper --@.";
  let ga = ga_config options in
  let seeds = [ 1; 2; 3 ] in
  (* Match the optimisation budgets: the GA sees roughly population ×
     generations × restarts evaluations per run. *)
  let sa_steps =
    ga.Engine.population_size * ga.Engine.max_generations
    * Synthesis.default_config.Synthesis.restarts
  in
  let t =
    Table.create
      ~title:(Printf.sprintf "proposed arm, no DVS; SA budget %d evaluations" sa_steps)
      ~columns:[ "Benchmark"; "GA p̄ (mW)"; "SA p̄ (mW)"; "GA advantage (%)" ]
  in
  List.iter
    (fun i ->
      let spec = Random_system.mul i in
      let ga_power = proposed_power ~ga ~dvs:Fitness.No_dvs ~use_improvements:true ~spec ~seeds in
      let sa_powers =
        List.map
          (fun seed ->
            let result =
              Annealing.run
                ~config:{ Annealing.default_config with Annealing.steps = sa_steps }
                ~spec ~seed ()
            in
            result.Annealing.eval.Fitness.true_power)
          seeds
      in
      let sa_power = Stats.summarize sa_powers in
      Table.add_row t
        [
          Printf.sprintf "mul%d" i;
          power_cell ga_power;
          power_cell sa_power;
          Table.cell_percent
            (Stats.percent_reduction ~from:sa_power.Stats.mean ~to_:ga_power.Stats.mean);
        ])
    [ 1; 2; 6 ];
  Table.print t

let ablation_scheduler_policy options =
  Format.printf "@.-- Ablation E: inner-loop scheduler policy --@.";
  (* Both experiment arms share the inner loop, so the baseline-vs-
     proposed comparison should survive any reasonable policy (the
     substitution argument of DESIGN.md §3). *)
  let ga = ga_config options in
  let t =
    Table.create ~title:"mul2 comparison under different list-scheduler priorities"
      ~columns:[ "policy"; "w/o prob. (mW)"; "with prob. (mW)"; "Reduc. (%)" ]
  in
  List.iter
    (fun (name, scheduler_policy) ->
      let spec = Random_system.mul 2 in
      let arm weighting =
        let config =
          {
            Synthesis.fitness = { Fitness.default_config with weighting; scheduler_policy };
            ga;
            use_improvements = true;
            restarts = Synthesis.default_config.Synthesis.restarts;
            jobs = Synthesis.default_config.Synthesis.jobs;
            audit = false;
            islands = Synthesis.default_config.Synthesis.islands;
            migration_interval = Synthesis.default_config.Synthesis.migration_interval;
            migration_count = Synthesis.default_config.Synthesis.migration_count;
            robust = Synthesis.default_config.Synthesis.robust;
          }
        in
        let powers =
          List.map
            (fun seed -> Synthesis.average_power (Synthesis.run ~config ~spec ~seed ()))
            [ 1; 2; 3 ]
        in
        Stats.summarize powers
      in
      let base = arm Fitness.Uniform in
      let prop = arm Fitness.True_probabilities in
      Table.add_row t
        [
          name;
          power_cell base;
          power_cell prop;
          Table.cell_percent (Stats.percent_reduction ~from:base.Stats.mean ~to_:prop.Stats.mean);
        ])
    [
      ("mobility", Mm_sched.List_scheduler.Mobility_first);
      ("critical-path", Mm_sched.List_scheduler.Critical_path_first);
      ("topological", Mm_sched.List_scheduler.Topological);
    ];
  Table.print t

let ablation_dvs_strategy _options =
  Format.printf "@.-- Ablation F: DVS slack-distribution strategy --@.";
  (* Fixed mapping (the greedy anchor) so this isolates the voltage
     scaler: per-unit greedy gradient (PV-DVS style) vs the uniform EVEN
     baseline it was measured against.  Scored through the seed oracles,
     which keep the EVEN strategy; the greedy column is bit-identical to
     production's (test_eval_kernels). *)
  let t =
    Table.create ~title:"dynamic energy of the anchor mapping under each scaler"
      ~columns:[ "Benchmark"; "no DVS p̄ (mW)"; "EVEN p̄ (mW)"; "greedy p̄ (mW)" ]
  in
  List.iter
    (fun i ->
      let spec = Random_system.mul i in
      match Synthesis.greedy_timing_anchor spec with
      | None -> ()
      | Some genome ->
        let power ?strategy dvs =
          (Fitness_oracle.evaluate ?strategy { Fitness.default_config with Fitness.dvs }
             spec genome)
            .Fitness.true_power
        in
        let nominal = power Fitness.No_dvs in
        let even = power ~strategy:Scaling_oracle.Even_slack (Fitness.Dvs Scaling.default_config) in
        let greedy = power (Fitness.Dvs Scaling.default_config) in
        Table.add_row t
          [
            Printf.sprintf "mul%d" i;
            Printf.sprintf "%.3f" (milliwatt nominal);
            Printf.sprintf "%.3f" (milliwatt even);
            Printf.sprintf "%.3f" (milliwatt greedy);
          ])
    [ 1; 2; 3; 7; 12 ];
  Table.print t

let ablation options =
  ablation_improvements options;
  ablation_hw_rail options;
  ablation_population options;
  ablation_ga_vs_sa options;
  ablation_scheduler_policy options;
  ablation_dvs_strategy options

(* --- Island-model grid ---------------------------------------------------------- *)

(* Wall time of the island-model GA on mul6 over a jobs x islands grid,
   pool domains scheduling whole islands instead of evaluation batches.
   Every row does equal work: islands x population-per-island is
   [Engine.default_config]'s population at its default generation
   budget, whatever --quick says, because a sub-second run is decided by
   fixed per-run costs.  The (jobs=1, islands=1) row is the baseline;
   islands > jobs is legal (round-robin), only jobs > cores is degraded.
   Jobs never change a trajectory, so every row with the same island
   count must report a bit-identical power (the run exits 1 otherwise);
   islands do change it, so powers differ between island counts.  Each
   row records its evaluations, so a reader can tell how much of an
   island win is the algorithm (jobs=1) and how much is parallelism.
   Written to BENCH_parallel.json. *)

let parallel options =
  Format.printf "@.== Island-model GA: jobs x islands at equal population ==@.";
  let seed = 1 in
  let spec = Random_system.mul 6 in
  let population = Engine.default_config.Engine.population_size in
  let cores = Domain.recommended_domain_count () in
  let degraded jobs = jobs > cores in
  let rows =
    List.concat_map
      (fun jobs ->
        List.map
          (fun islands ->
            let ga =
              { Engine.default_config with population_size = population / islands }
            in
            let config = { Synthesis.default_config with ga; jobs; islands } in
            let seconds, result = wall (fun () -> Synthesis.run ~config ~spec ~seed ()) in
            Format.printf "  %d job%s x %d island%s done@?@." jobs
              (if jobs = 1 then "" else "s")
              islands
              (if islands = 1 then "" else "s");
            (jobs, islands, seconds, result))
          [ 1; 2; 4 ])
      [ 1; 2; 4 ]
  in
  let power (result : Synthesis.result) = result.Synthesis.eval.Fitness.true_power in
  let base_seconds =
    let _, _, s, _ = List.find (fun (j, i, _, _) -> j = 1 && i = 1) rows in
    s
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "island-model GA on mul6, seed %d, population %d, %d CPU core(s) available"
           seed population cores)
      ~columns:
        [
          "jobs"; "islands"; "pop/island"; "wall (s)"; "speedup"; "p̄ (mW)";
          "generations"; "evaluations";
        ]
  in
  List.iter
    (fun (jobs, islands, seconds, (result : Synthesis.result)) ->
      Table.add_row t
        [
          string_of_int jobs;
          string_of_int islands;
          string_of_int (population / islands);
          Printf.sprintf "%.2f" seconds;
          Printf.sprintf "%.2fx%s" (base_seconds /. seconds)
            (if degraded jobs then " (degraded)" else "");
          Printf.sprintf "%.3f" (milliwatt (power result));
          string_of_int result.Synthesis.generations;
          string_of_int result.Synthesis.evaluations;
        ])
    rows;
  Table.print t;
  let diverged =
    List.filter
      (fun (_, islands, _, result) ->
        let _, _, _, serial = List.find (fun (j, i, _, _) -> j = 1 && i = islands) rows in
        Int64.bits_of_float (power result) <> Int64.bits_of_float (power serial))
      rows
  in
  if diverged <> [] then begin
    List.iter
      (fun (jobs, islands, _, _) ->
        Printf.eprintf "determinism: jobs=%d islands=%d diverged from jobs=1\n%!" jobs
          islands)
      diverged;
    exit 1
  end;
  (* The gate's verdict, computed here so the JSON records it whether or
     not --gate is enforcing: on a multi-core machine the best
     non-degraded islands>=2 run with jobs>=2 must not lose wall time to
     the single-population (jobs=1, islands=1) run.  On a 1-core runner
     the wall-clock assertion is meaningless, so the gate is skipped with
     the reason recorded. *)
  let candidates =
    List.filter (fun (j, i, _, _) -> i >= 2 && j >= 2 && not (degraded j)) rows
  in
  let best_island_wall =
    List.fold_left (fun acc (_, _, s, _) -> min acc s) infinity candidates
  in
  let gate_skipped = cores <= 1 || candidates = [] in
  let gate_reason =
    if cores <= 1 then Printf.sprintf "cpu_cores = %d, wall-clock assertion" cores
    else if candidates = [] then "no non-degraded islands>=2 row"
    else ""
  in
  let path = "BENCH_parallel.json" in
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"parallel\",\n";
  p "  \"workload\": \"mul6\",\n";
  p "  \"seed\": %d,\n" seed;
  p "  \"cpu_cores\": %d,\n" cores;
  p "  \"population_size\": %d,\n" population;
  p "  \"max_generations\": %d,\n" Engine.default_config.Engine.max_generations;
  p "  \"islands\": [\n";
  List.iteri
    (fun i (jobs, islands, seconds, (result : Synthesis.result)) ->
      p
        "    { \"jobs\": %d, \"islands\": %d, \"population_per_island\": %d, \
         \"degraded\": %b, \"wall_seconds\": %.3f, \"speedup\": %.3f, \
         \"power_mw\": %.6f, \"generations\": %d, \"evaluations\": %d }%s\n"
        jobs islands (population / islands) (degraded jobs) seconds
        (base_seconds /. seconds)
        (milliwatt (power result))
        result.Synthesis.generations result.Synthesis.evaluations
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  if gate_skipped then
    p "  \"island_gate\": { \"skipped\": true, \"reason\": %S, \"cpu_cores\": %d }\n"
      gate_reason cores
  else
    p
      "  \"island_gate\": { \"skipped\": false, \"cpu_cores\": %d, \
       \"islands1_wall_seconds\": %.3f, \"best_island_wall_seconds\": %.3f }\n"
      cores base_seconds best_island_wall;
  p "}\n";
  close_out oc;
  Format.printf "wrote %s@." path;
  if options.gate then begin
    Format.printf "@.== Parallel gate: islands must make parallelism win ==@.";
    if gate_skipped then
      Format.printf "  gate SKIP islands_speedup (%s)@." gate_reason
    else begin
      (* 5%% measured-noise slack: the requirement is "not slower", the
         slack keeps a same-speed run from flaking the build. *)
      let ceiling = base_seconds *. 1.05 in
      if best_island_wall <= ceiling then
        Format.printf "  gate ok   islands_speedup %26.3fs <= %.3fs@."
          best_island_wall ceiling
      else begin
        Format.printf "  gate FAIL islands_speedup %26.3fs >  %.3fs@."
          best_island_wall ceiling;
        Printf.eprintf
          "gate: islands >= 2 lost wall-clock time to a single population\n%!";
        exit 1
      end;
      Format.printf "gate: all checks passed@."
    end
  end

(* --- Compiled evaluation kernels ---------------------------------------------- *)

(* Before/after comparison of the compile-once evaluation context
   (DESIGN.md §10): the same stream of genomes — parents plus
   single-gene mutants, mimicking a GA population — evaluated once
   through the seed pipeline ([Fitness_oracle.evaluate]) and once
   through the compiled one ([Fitness.evaluate]), with the per-phase
   probe histograms attributing the time.  Written to
   BENCH_eval_kernel.json so later PRs have a perf trajectory. *)

let eval_kernel options =
  Format.printf "@.== Compiled evaluation kernels: before/after ==@.";
  let parents, mutants = if options.quick then (8, 4) else (24, 8) in
  let genome_stream rng spec =
    let counts = Spec.gene_counts spec in
    List.concat_map
      (fun _ ->
        let parent = Mm_ga.Genome.random rng ~counts in
        parent
        :: List.init mutants (fun _ ->
               let child = Array.copy parent in
               let pos = Prng.int rng (Array.length counts) in
               child.(pos) <- Prng.int rng counts.(pos);
               child))
      (List.init parents Fun.id)
  in
  let phases = [ "mobility"; "core_alloc"; "schedule"; "dvs"; "power"; "eval" ] in
  let hist_seconds snap name =
    match List.assoc_opt name snap.Mm_obs.Metrics.histograms with
    | Some h -> h.Mm_obs.Metrics.sum /. 1e6
    | None -> 0.0
  in
  let counter snap name =
    Option.value ~default:0 (List.assoc_opt name snap.Mm_obs.Metrics.counters)
  in
  let gauge snap name =
    Option.value ~default:0.0 (List.assoc_opt name snap.Mm_obs.Metrics.gauges)
  in
  let measure evaluate genomes =
    Mm_obs.Metrics.reset ();
    let seconds, () = wall (fun () -> List.iter (fun g -> ignore (evaluate g)) genomes) in
    (seconds, Mm_obs.Metrics.snapshot ())
  in
  (* DVS on, so the dvs phase is non-trivial in both pipelines. *)
  let config = { Fitness.default_config with Fitness.dvs = Fitness.Dvs Scaling.default_config } in
  Mm_obs.Control.set_metrics true;
  let rows =
    List.map
      (fun (label, spec) ->
        let rng = Prng.create ~seed:7 in
        let genomes = genome_stream rng spec in
        let before_wall, before =
          measure (Fitness_oracle.evaluate config spec) genomes
        in
        let after_wall, after = measure (Fitness.evaluate config spec) genomes in
        Format.printf "  %s done (%d evaluations)@?@." label (List.length genomes);
        (label, List.length genomes, before_wall, before, after_wall, after))
      [
        ("smartphone", Smartphone.spec ());
        ("mul6", Random_system.mul 6);
        ("mul12", Random_system.mul 12);
      ]
  in
  (* Isolated DVS kernel: the same (graph, schedule) pairs through the
     seed greedy loop and the heap-based one, with a float-bit
     equivalence spot-check before timing anything. *)
  let dvs_kernel_stats (label, spec) =
    let arch = Spec.arch spec and tech = Spec.tech spec in
    let dispatch = Spec.dispatch (Spec.compiled spec) in
    let ws = Scaling.create_workspace () in
    let graphs = List.map Mode.graph (Omsm.modes (Spec.omsm spec)) in
    let rng = Prng.create ~seed:11 in
    let counts = Spec.gene_counts spec in
    let pairs =
      List.concat_map
        (fun _ ->
          let g = Mm_ga.Genome.random rng ~counts in
          let eval = Fitness.evaluate config spec g in
          List.mapi (fun i graph -> (graph, eval.Fitness.schedules.(i))) graphs)
        (List.init (if options.quick then 3 else 6) Fun.id)
    in
    List.iter
      (fun (graph, schedule) ->
        let a = Scaling.run ~workspace:ws ~dispatch ~graph ~arch ~tech ~schedule () in
        let b = Scaling_oracle.run ~graph ~arch ~tech ~schedule () in
        if
          Int64.bits_of_float a.Scaling.total_dyn_energy
          <> Int64.bits_of_float b.Scaling.total_dyn_energy
          || a.Scaling.feasible <> b.Scaling.feasible
        then begin
          Printf.eprintf "BUG: heap DVS diverged from the reference on %s\n%!" label;
          exit 1
        end)
      pairs;
    let reps = if options.quick then 60 else 250 in
    let reference_seconds, () =
      wall (fun () ->
          for _ = 1 to reps do
            List.iter
              (fun (graph, schedule) ->
                ignore (Scaling_oracle.run ~graph ~arch ~tech ~schedule ()))
              pairs
          done)
    in
    let heap_seconds, () =
      wall (fun () ->
          for _ = 1 to reps do
            List.iter
              (fun (graph, schedule) ->
                ignore (Scaling.run ~workspace:ws ~dispatch ~graph ~arch ~tech ~schedule ()))
              pairs
          done)
    in
    (List.length pairs, reps, reference_seconds, heap_seconds)
  in
  (* Delta evaluation over a mutation stream: parents evaluated in full,
     children through [Fitness.evaluate_delta], float-bit checked against
     the full pipeline on every pass.  One untimed warm-up pass keeps the
     shared per-mode caches from favouring whichever side runs second.
     A quick-mode pass takes only 1–3 ms, so each side is timed as the
     median of [passes] alternating full/delta passes rather than by one
     pass that a single scheduler hiccup can swing past the gate floor. *)
  let delta_stats (_, spec) =
    let counts = Spec.gene_counts spec in
    let rng = Prng.create ~seed:13 in
    let n_parents, n_children =
      if options.quick then (4, 8) else (12, 24)
    in
    let stream =
      List.init n_parents (fun _ ->
          let parent = Mm_ga.Genome.random rng ~counts in
          let kids =
            List.init n_children (fun _ ->
                let child = Array.copy parent in
                let pos = Prng.int rng (Array.length counts) in
                child.(pos) <- Prng.int rng counts.(pos);
                let dirty = if child.(pos) = parent.(pos) then [] else [ pos ] in
                (child, dirty))
          in
          (parent, kids))
    in
    let full_pass () =
      List.map
        (fun (parent, kids) ->
          ignore (Fitness.evaluate config spec parent);
          List.map
            (fun (child, _) -> (Fitness.evaluate config spec child).Fitness.fitness)
            kids)
        stream
    in
    let delta_pass () =
      List.map
        (fun (parent, kids) ->
          let parent_eval = Fitness.evaluate config spec parent in
          List.map
            (fun (child, dirty) ->
              (Fitness.evaluate_delta config spec ~parent:parent_eval ~dirty child)
                .Fitness.fitness)
            kids)
        stream
    in
    ignore (full_pass ());
    let passes = 9 in
    let full_times = ref [] and delta_times = ref [] and snap = ref None in
    for k = 1 to passes do
      let full_s, full_fitness = wall full_pass in
      (* The delta counters are read from the first delta pass alone. *)
      if k = 1 then Mm_obs.Metrics.reset ();
      let delta_s, delta_fitness = wall delta_pass in
      if k = 1 then snap := Some (Mm_obs.Metrics.snapshot ());
      full_times := full_s :: !full_times;
      delta_times := delta_s :: !delta_times;
      List.iter2
        (List.iter2 (fun a b ->
             if Int64.bits_of_float a <> Int64.bits_of_float b then begin
               Printf.eprintf "BUG: delta evaluation diverged from the full pipeline\n%!";
               exit 1
             end))
        full_fitness delta_fitness
    done;
    let full_seconds = Stats.median !full_times in
    let delta_seconds = Stats.median !delta_times in
    let snap = Option.get !snap in
    ( n_parents,
      n_children,
      full_seconds,
      delta_seconds,
      counter snap "fitness/delta_evals",
      counter snap "fitness/delta_fallbacks",
      counter snap "fitness/delta_mode_reuse" )
  in
  let extras =
    List.map
      (fun (label, spec) -> (label, dvs_kernel_stats (label, spec), delta_stats (label, spec)))
      [
        ("smartphone", Smartphone.spec ());
        ("mul6", Random_system.mul 6);
        ("mul12", Random_system.mul 12);
      ]
  in
  Mm_obs.Control.set_metrics false;
  let t =
    Table.create ~title:"fitness pipeline, reference vs compiled (wall seconds)"
      ~columns:
        [ "workload"; "phase"; "before (s)"; "after (s)"; "speedup"; "cache" ]
  in
  List.iter
    (fun (label, _, before_wall, before, after_wall, after) ->
      let cache_cell =
        let hits = counter after "fitness/mode_cache_hits" in
        let misses = counter after "fitness/mode_cache_misses" in
        Printf.sprintf "%d/%d hits" hits (hits + misses)
      in
      Table.add_row t
        [
          label; "wall";
          Printf.sprintf "%.3f" before_wall;
          Printf.sprintf "%.3f" after_wall;
          Printf.sprintf "%.2fx" (before_wall /. after_wall);
          cache_cell;
        ];
      List.iter
        (fun phase ->
          let name = Printf.sprintf "fitness/%s_us" phase in
          let b = hist_seconds before name and a = hist_seconds after name in
          if b > 0.0 || a > 0.0 then
            Table.add_row t
              [
                label; phase;
                Printf.sprintf "%.3f" b;
                Printf.sprintf "%.3f" a;
                (if a > 0.0 then Printf.sprintf "%.2fx" (b /. a) else "-");
                "";
              ])
        phases)
    rows;
  Table.print t;
  let kt =
    Table.create ~title:"DVS kernel (heap vs reference) and delta evaluation"
      ~columns:
        [
          "workload"; "dvs ref (s)"; "dvs heap (s)"; "dvs speedup"; "full (s)";
          "delta (s)"; "delta speedup"; "reused modes";
        ]
  in
  List.iter
    (fun (label, (_, _, ref_s, heap_s), (_, _, full_s, delta_s, _, _, reuse)) ->
      Table.add_row kt
        [
          label;
          Printf.sprintf "%.3f" ref_s;
          Printf.sprintf "%.3f" heap_s;
          Printf.sprintf "%.2fx" (ref_s /. heap_s);
          Printf.sprintf "%.3f" full_s;
          Printf.sprintf "%.3f" delta_s;
          Printf.sprintf "%.2fx" (full_s /. delta_s);
          string_of_int reuse;
        ])
    extras;
  Table.print kt;
  let path = "BENCH_eval_kernel.json" in
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"eval\",\n";
  p "  \"quick\": %b,\n" options.quick;
  p "  \"cpu_cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"workloads\": [\n";
  List.iteri
    (fun i (label, n_evals, before_wall, before, after_wall, after) ->
      let _, (dvs_pairs, dvs_reps, dvs_ref_s, dvs_heap_s), delta =
        List.find (fun (l, _, _) -> l = label) extras
      in
      let d_parents, d_children, d_full_s, d_delta_s, d_evals, d_fallbacks, d_reuse =
        delta
      in
      p "    {\n";
      p "      \"workload\": \"%s\",\n" label;
      p "      \"evaluations\": %d,\n" n_evals;
      p "      \"dvs_kernel\": {\n";
      p "        \"pairs\": %d,\n" dvs_pairs;
      p "        \"reps\": %d,\n" dvs_reps;
      p "        \"reference_seconds\": %.4f,\n" dvs_ref_s;
      p "        \"heap_seconds\": %.4f,\n" dvs_heap_s;
      p "        \"speedup\": %.3f\n" (dvs_ref_s /. dvs_heap_s);
      p "      },\n";
      p "      \"delta\": {\n";
      p "        \"parents\": %d,\n" d_parents;
      p "        \"children_per_parent\": %d,\n" d_children;
      p "        \"full_seconds\": %.4f,\n" d_full_s;
      p "        \"delta_seconds\": %.4f,\n" d_delta_s;
      p "        \"speedup\": %.3f,\n" (d_full_s /. d_delta_s);
      p "        \"delta_evals\": %d,\n" d_evals;
      p "        \"delta_fallbacks\": %d,\n" d_fallbacks;
      p "        \"delta_mode_reuse\": %d\n" d_reuse;
      p "      },\n";
      let side name wall snap =
        p "      \"%s\": {\n" name;
        p "        \"wall_seconds\": %.4f,\n" wall;
        List.iter
          (fun phase ->
            p "        \"%s_seconds\": %.4f,\n" phase
              (hist_seconds snap (Printf.sprintf "fitness/%s_us" phase)))
          phases;
        p "        \"mode_cache_hits\": %d,\n" (counter snap "fitness/mode_cache_hits");
        p "        \"mode_cache_misses\": %d,\n"
          (counter snap "fitness/mode_cache_misses");
        p "        \"mobility_cache_hits\": %d,\n"
          (counter snap "fitness/mobility_cache_hits");
        p "        \"mobility_cache_misses\": %d,\n"
          (counter snap "fitness/mobility_cache_misses");
        p "        \"route_table_pairs\": %.0f,\n" (gauge snap "sched/route_table_pairs");
        p "        \"route_table_entries\": %.0f\n"
          (gauge snap "sched/route_table_entries");
        p "      },\n"
      in
      side "reference" before_wall before;
      side "compiled" after_wall after;
      p "      \"speedup\": {\n";
      p "        \"wall\": %.3f,\n" (before_wall /. after_wall);
      List.iteri
        (fun j phase ->
          let name = Printf.sprintf "fitness/%s_us" phase in
          let b = hist_seconds before name and a = hist_seconds after name in
          p "        \"%s\": %.3f%s\n" phase
            (if a > 0.0 then b /. a else 0.0)
            (if j = List.length phases - 1 then "" else ","))
        phases;
      p "      }\n";
      p "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Format.printf "wrote %s@." path;
  if options.gate then begin
    let thresholds = read_flat_json "BENCH_eval_thresholds.json" in
    let threshold key =
      match List.assoc_opt key thresholds with
      | Some v -> v
      | None ->
        Printf.eprintf "gate: BENCH_eval_thresholds.json is missing %S\n%!" key;
        exit 1
    in
    let tolerance = 1.0 -. (threshold "max_regression_pct" /. 100.0) in
    let cores = Domain.recommended_domain_count () in
    let failures = ref 0 in
    let check ~wall key measured =
      let floor = threshold key *. tolerance in
      if wall && cores <= 1 then
        Format.printf "  gate SKIP %-36s (cpu_cores = 1, wall-clock assertion)@." key
      else if measured >= floor then
        Format.printf "  gate ok   %-36s %8.3f >= %.3f@." key measured floor
      else begin
        Format.printf "  gate FAIL %-36s %8.3f <  %.3f@." key measured floor;
        incr failures
      end
    in
    Format.printf "@.== Perf-regression gate (thresholds x %.2f) ==@." tolerance;
    List.iter
      (fun (label, _, before_wall, _, after_wall, after) ->
        let hits = counter after "fitness/mode_cache_hits" in
        let misses = counter after "fitness/mode_cache_misses" in
        let rate =
          if hits + misses = 0 then 0.0
          else float_of_int hits /. float_of_int (hits + misses)
        in
        let _, (_, _, dvs_ref_s, dvs_heap_s), (_, _, full_s, delta_s, _, _, _) =
          List.find (fun (l, _, _) -> l = label) extras
        in
        check ~wall:true (label ^ "_wall_speedup") (before_wall /. after_wall);
        check ~wall:false (label ^ "_mode_cache_hit_rate") rate;
        check ~wall:true (label ^ "_dvs_kernel_speedup") (dvs_ref_s /. dvs_heap_s);
        check ~wall:true (label ^ "_delta_speedup") (full_s /. delta_s))
      rows;
    if !failures > 0 then begin
      Printf.eprintf "gate: %d perf-regression check(s) failed\n%!" !failures;
      exit 1
    end;
    Format.printf "gate: all checks passed@."
  end

(* --- Driver -------------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse options selected = function
    | [] -> (options, List.rev selected)
    | "--quick" :: rest -> parse { options with quick = true } selected rest
    | "--gate" :: rest -> parse { options with gate = true } selected rest
    | "--runs" :: n :: rest ->
      parse { options with runs = Some (int_of_string n) } selected rest
    | name :: rest -> parse options (name :: selected) rest
  in
  let options, selected = parse { runs = None; quick = false; gate = false } [] args in
  let selected =
    if selected = [] then
      [ "table1"; "table2"; "table3"; "ablation"; "parallel"; "eval" ]
    else selected
  in
  let total_start = Sys.time () in
  List.iter
    (fun name ->
      match name with
      | "table1" -> table1 options
      | "table2" -> table2 options
      | "table3" -> table3 options
      | "ablation" -> ablation options
      | "ablation-f" -> ablation_dvs_strategy options
      | "parallel" -> parallel options
      | "eval" -> eval_kernel options
      | other ->
        Format.printf
          "unknown experiment %S (expected \
           table1|table2|table3|ablation|ablation-f|parallel|eval)@."
          other;
        exit 1)
    selected;
  Format.printf "total bench CPU time: %.1f s@." (Sys.time () -. total_start)
