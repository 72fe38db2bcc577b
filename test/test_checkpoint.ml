(* Resume equivalence: a run interrupted at ANY generation boundary and
   resumed from its checkpoint must reproduce the uninterrupted run's
   result bit-for-bit (fitness compared by Int64.bits_of_float), at the
   Engine, Synthesis and Experiment levels, serial and pooled, and with
   DVS on or off.  Evaluation counts
   are exempt — a resume re-evaluates the restored population once. *)

module Engine = Mm_ga.Engine
module Synthesis = Mm_cosynth.Synthesis
module Experiment = Mm_cosynth.Experiment
module Fitness = Mm_cosynth.Fitness
module Pool = Mm_parallel.Pool
module Memo = Mm_parallel.Memo
module Prng = Mm_util.Prng

let bits = Int64.bits_of_float
let fitness_bits = Alcotest.testable (fun ppf b -> Fmt.pf ppf "%Lx" b) Int64.equal

(* --- Engine level -------------------------------------------------------------- *)

(* A synthetic minimisation problem with a rugged but pure fitness:
   cheap to evaluate, yet structured enough that the GA's trajectory
   differs between seeds. *)
let synthetic_problem =
  {
    Engine.gene_counts = Array.make 8 5;
    evaluate =
      (fun genome ->
        let acc = ref 0.0 in
        Array.iteri
          (fun i g ->
            acc :=
              !acc
              +. (float_of_int ((g * (i + 3)) mod 7) *. 0.25)
              +. (0.125 *. sin (float_of_int (g + i))))
          genome;
        (!acc, ()));
    improvements = [];
    initial = [];
  }

let engine_config =
  {
    Engine.default_config with
    population_size = 12;
    max_generations = 20;
    stagnation_limit = 50 (* run the full 20 generations *);
  }

let test_engine_resume_any_generation () =
  let straight =
    Engine.run ~config:engine_config ~rng:(Prng.create ~seed:3) synthetic_problem
  in
  let checkpoints = ref [] in
  ignore
    (Engine.run ~config:engine_config
       ~on_generation:(fun ck -> checkpoints := ck :: !checkpoints)
       ~rng:(Prng.create ~seed:3) synthetic_problem);
  let checkpoints = List.rev !checkpoints in
  Alcotest.(check bool) "checkpoints captured" true (List.length checkpoints > 2);
  List.iteri
    (fun i ck ->
      let resumed =
        (* The caller rng is superseded by the checkpoint's state: a
           wrong seed here must not matter. *)
        Engine.run ~config:engine_config ~resume:ck ~rng:(Prng.create ~seed:999)
          synthetic_problem
      in
      Alcotest.check fitness_bits
        (Printf.sprintf "fitness after resume at generation %d" (i + 1))
        (bits straight.Engine.best_fitness)
        (bits resumed.Engine.best_fitness);
      Alcotest.(check (array int))
        (Printf.sprintf "genome after resume at generation %d" (i + 1))
        straight.Engine.best_genome resumed.Engine.best_genome;
      Alcotest.(check int)
        (Printf.sprintf "generations after resume at %d" (i + 1))
        straight.Engine.generations resumed.Engine.generations)
    checkpoints

let test_engine_rejects_stale_checkpoint () =
  let checkpoints = ref [] in
  ignore
    (Engine.run ~config:engine_config
       ~on_generation:(fun ck -> checkpoints := ck :: !checkpoints)
       ~rng:(Prng.create ~seed:3) synthetic_problem);
  let ck = List.hd !checkpoints in
  (* Population size mismatch. *)
  (match
     Engine.run
       ~config:{ engine_config with Engine.population_size = 10 }
       ~resume:ck ~rng:(Prng.create ~seed:3) synthetic_problem
   with
  | _ -> Alcotest.fail "population size mismatch accepted"
  | exception Invalid_argument _ -> ());
  (* A genome that does not fit the problem. *)
  let bad_genome =
    { ck with Engine.best = ([| 99; 0; 0; 0; 0; 0; 0; 0 |], snd ck.Engine.best) }
  in
  (match
     Engine.run ~config:engine_config ~resume:bad_genome ~rng:(Prng.create ~seed:3)
       synthetic_problem
   with
  | _ -> Alcotest.fail "invalid genome accepted"
  | exception Invalid_argument _ -> ());
  (* A stored fitness the pure evaluator contradicts (stale snapshot). *)
  let tampered =
    {
      ck with
      Engine.members =
        Array.map (fun (g, f) -> (g, f +. 1.0)) ck.Engine.members;
    }
  in
  match
    Engine.run ~config:engine_config ~resume:tampered ~rng:(Prng.create ~seed:3)
      synthetic_problem
  with
  | _ -> Alcotest.fail "tampered fitness accepted"
  | exception Invalid_argument _ -> ()

(* --- Synthesis level ------------------------------------------------------------ *)

let spec =
  Fixtures.spec_of_graphs
    ~probabilities:[| 0.2; 0.8 |]
    [ Fixtures.chain_graph (); Fixtures.fork_graph () ]

let tiny_config ~dvs =
  {
    Synthesis.default_config with
    fitness =
      {
        Fitness.default_config with
        dvs = (if dvs then Fitness.Dvs Mm_dvs.Scaling.default_config else Fitness.No_dvs);
      };
    ga =
      {
        Engine.default_config with
        population_size = 8;
        max_generations = 8;
        stagnation_limit = 20;
      };
    restarts = 2;
  }

(* Run to completion while capturing every generation-boundary state. *)
let run_capturing ~config ~seed =
  let states = ref [] in
  let checkpoint =
    { Synthesis.every = 1; save = (fun st -> states := st :: !states) }
  in
  let result = Synthesis.run ~config ~checkpoint ~spec ~seed () in
  (result, List.rev !states)

let check_same_result name (straight : Synthesis.result) (resumed : Synthesis.result) =
  Alcotest.check fitness_bits (name ^ ": power bits")
    (bits straight.Synthesis.eval.Fitness.true_power)
    (bits resumed.Synthesis.eval.Fitness.true_power);
  Alcotest.(check (array int)) (name ^ ": genome") straight.Synthesis.genome
    resumed.Synthesis.genome;
  Alcotest.(check int) (name ^ ": generations") straight.Synthesis.generations
    resumed.Synthesis.generations

let test_synthesis_resume_every_checkpoint ~dvs () =
  let config = tiny_config ~dvs in
  let straight = Synthesis.run ~config ~spec ~seed:5 () in
  let _, states = run_capturing ~config ~seed:5 in
  (* Both whole-restart boundaries and in-flight generation boundaries
     must be covered. *)
  Alcotest.(check bool) "between-restart states captured" true
    (List.exists (fun st -> st.Synthesis.engine = None) states);
  Alcotest.(check bool) "in-flight states captured" true
    (List.exists (fun st -> st.Synthesis.engine <> None) states);
  List.iteri
    (fun i st ->
      let resumed = Synthesis.run ~config ~resume:st ~spec ~seed:5 () in
      check_same_result (Printf.sprintf "state %d" i) straight resumed)
    states

(* The domain count must not affect a resumed trajectory: resume the
   same snapshot serial and pooled. *)
let test_synthesis_resume_across_strategies () =
  let config = tiny_config ~dvs:false in
  let straight = Synthesis.run ~config ~spec ~seed:9 () in
  let _, states = run_capturing ~config ~seed:9 in
  let mid = List.nth states (List.length states / 2) in
  List.iter
    (fun (name, jobs) ->
      let config = { config with Synthesis.jobs } in
      let resumed = Synthesis.run ~config ~resume:mid ~spec ~seed:9 () in
      check_same_result name straight resumed)
    [ ("serial", 1); ("pooled", 2) ]

let test_synthesis_rejects_mismatched_state () =
  let config = tiny_config ~dvs:false in
  let _, states = run_capturing ~config ~seed:5 in
  let st = List.hd states in
  (match Synthesis.run ~config ~resume:st ~spec ~seed:6 () with
  | _ -> Alcotest.fail "wrong seed accepted"
  | exception Invalid_argument _ -> ());
  let other = tiny_config ~dvs:true in
  (match Synthesis.run ~config:other ~resume:st ~spec ~seed:5 () with
  | _ -> Alcotest.fail "wrong configuration accepted"
  | exception Invalid_argument _ -> ());
  (* jobs is excluded from the fingerprint on purpose. *)
  let faster = { config with Synthesis.jobs = 2 } in
  ignore (Synthesis.run ~config:faster ~resume:st ~spec ~seed:5 ())

(* Property: resume from a random checkpoint of a random seed. *)
let prop_resume_random_seed =
  QCheck.Test.make ~name:"resume reproduces the straight run (random seeds)" ~count:8
    QCheck.(pair small_nat small_nat)
    (fun (seed, pick) ->
      let config = tiny_config ~dvs:false in
      let straight = Synthesis.run ~config ~spec ~seed () in
      let _, states = run_capturing ~config ~seed in
      let st = List.nth states (pick mod List.length states) in
      let resumed = Synthesis.run ~config ~resume:st ~spec ~seed () in
      bits straight.Synthesis.eval.Fitness.true_power
      = bits resumed.Synthesis.eval.Fitness.true_power
      && straight.Synthesis.genome = resumed.Synthesis.genome)

(* --- Islands level --------------------------------------------------------------- *)

module Islands = Mm_ga.Islands

let island_topology = { Islands.islands = 3; migration_interval = 4; migration_count = 2 }

let test_islands_resume_every_epoch () =
  (* An archipelago interrupted at ANY migration-epoch boundary and
     resumed from its checkpoint must reproduce the uninterrupted run
     bit for bit — including the ring, which rides in the checkpoint. *)
  let straight =
    Islands.run ~config:engine_config ~topology:island_topology
      ~rng:(Prng.create ~seed:7) synthetic_problem
  in
  let checkpoints = ref [] in
  ignore
    (Islands.run ~config:engine_config ~topology:island_topology
       ~on_epoch:(fun ck -> checkpoints := ck :: !checkpoints)
       ~rng:(Prng.create ~seed:7) synthetic_problem);
  let checkpoints = List.rev !checkpoints in
  Alcotest.(check bool) "epoch checkpoints captured" true (List.length checkpoints > 1);
  List.iteri
    (fun i ck ->
      let resumed =
        (* The caller rng is superseded by the checkpointed streams. *)
        Islands.run ~config:engine_config ~topology:island_topology ~resume:ck
          ~rng:(Prng.create ~seed:999) synthetic_problem
      in
      Alcotest.check fitness_bits
        (Printf.sprintf "fitness after resume at epoch %d" (i + 1))
        (bits straight.Islands.best.Engine.best_fitness)
        (bits resumed.Islands.best.Engine.best_fitness);
      Alcotest.(check (array int))
        (Printf.sprintf "genome after resume at epoch %d" (i + 1))
        straight.Islands.best.Engine.best_genome
        resumed.Islands.best.Engine.best_genome;
      Array.iteri
        (fun j (r : unit Engine.result) ->
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "island %d history after resume at epoch %d" j (i + 1))
            r.Engine.history
            resumed.Islands.per_island.(j).Engine.history)
        straight.Islands.per_island)
    checkpoints

let test_islands_rejects_mismatched_checkpoint () =
  let checkpoints = ref [] in
  ignore
    (Islands.run ~config:engine_config ~topology:island_topology
       ~on_epoch:(fun ck -> checkpoints := ck :: !checkpoints)
       ~rng:(Prng.create ~seed:7) synthetic_problem);
  let ck = List.hd !checkpoints in
  let wrong_count = { island_topology with Islands.islands = 2 } in
  match
    Islands.run ~config:engine_config ~topology:wrong_count ~resume:ck
      ~rng:(Prng.create ~seed:7) synthetic_problem
  with
  | _ -> Alcotest.fail "island count mismatch accepted"
  | exception Invalid_argument _ -> ()

let island_config ~jobs =
  {
    (tiny_config ~dvs:false) with
    Synthesis.jobs;
    islands = 3;
    migration_interval = 3;
    migration_count = 1;
  }

let test_synthesis_islands_resume_every_checkpoint () =
  (* Synthesis-level kill/resume with the island model: every captured
     state (between restarts and at every within-restart epoch
     boundary) resumes bit-identically, and the resumed trajectory is
     invariant across --jobs (serial fallback included). *)
  let config = island_config ~jobs:1 in
  let straight = Synthesis.run ~config ~spec ~seed:5 () in
  let _, states = run_capturing ~config ~seed:5 in
  Alcotest.(check bool) "in-flight island states captured" true
    (List.exists
       (fun st ->
         match st.Synthesis.engine with
         | Some (Synthesis.Sharded _) -> true
         | _ -> false)
       states);
  List.iteri
    (fun i st ->
      List.iter
        (fun jobs ->
          let resumed =
            Synthesis.run ~config:(island_config ~jobs) ~resume:st ~spec ~seed:5 ()
          in
          check_same_result (Printf.sprintf "state %d, jobs %d" i jobs) straight
            resumed)
        [ 1; 2 ])
    states;
  (* The fingerprint pins the variant: an islands run cannot resume a
     single-engine snapshot. *)
  let single = tiny_config ~dvs:false in
  let _, single_states = run_capturing ~config:single ~seed:5 in
  match Synthesis.run ~config ~resume:(List.hd single_states) ~spec ~seed:5 () with
  | _ -> Alcotest.fail "single-engine snapshot accepted by an islands run"
  | exception Invalid_argument _ -> ()

let test_synthesis_islands_jobs_invariant () =
  (* Whole runs agree across job counts under the island model. *)
  let serial = Synthesis.run ~config:(island_config ~jobs:1) ~spec ~seed:11 () in
  let pooled = Synthesis.run ~config:(island_config ~jobs:2) ~spec ~seed:11 () in
  check_same_result "islands across jobs" serial pooled

(* --- Experiment level ----------------------------------------------------------- *)

let experiment_config =
  {
    Synthesis.default_config with
    ga =
      {
        Engine.default_config with
        population_size = 8;
        max_generations = 6;
        stagnation_limit = 20;
      };
  }

let arm_bits (c : Experiment.comparison) =
  ( bits c.Experiment.without_probabilities.Experiment.power.Mm_util.Stats.mean,
    bits c.Experiment.with_probabilities.Experiment.power.Mm_util.Stats.mean,
    c.Experiment.without_probabilities.Experiment.best.Synthesis.genome,
    c.Experiment.with_probabilities.Experiment.best.Synthesis.genome )

(* Every state a checkpointed comparison hands its sink, oldest first. *)
let compare_capturing ~config ~runs ~seed =
  let states = ref [] in
  let checkpoint st = states := st :: !states in
  ignore (Experiment.compare ~config ~checkpoint ~spec ~runs ~seed ());
  List.rev !states

let test_experiment_resume_every_run () =
  let config = experiment_config in
  let runs = 3 and seed = 2 in
  let straight = Experiment.compare ~config ~spec ~runs ~seed () in
  let states = compare_capturing ~config ~runs ~seed in
  Alcotest.(check int) "one state per completed run" (2 * runs) (List.length states);
  List.iteri
    (fun i resume ->
      let resumed = Experiment.compare ~config ~resume ~spec ~runs ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "comparison resumed from state %d is bit-identical" i)
        true
        (arm_bits straight = arm_bits resumed))
    states;
  (* Bookkeeping mismatches are refused. *)
  match Experiment.compare ~config ~resume:(List.hd states) ~spec ~runs ~seed:99 () with
  | _ -> Alcotest.fail "wrong seed accepted"
  | exception Invalid_argument _ -> ()

let test_experiment_rejects_other_config () =
  (* A comparison snapshot replays only under the configuration that
     wrote it: one mid-baseline and one mid-proposed state, resumed under
     a different GA budget or with DVS, are refused — never silently
     mixed with runs of another configuration.  [jobs] and [audit] do not
     change a trajectory, so a change of either still resumes, and
     bit-identically. *)
  let config = experiment_config in
  let runs = 3 and seed = 4 in
  let straight = Experiment.compare ~config ~spec ~runs ~seed () in
  let states = compare_capturing ~config ~runs ~seed in
  let picks = [ List.nth states 1; List.nth states (runs + 1) ] in
  let refused name other =
    List.iter
      (fun resume ->
        match Experiment.compare ~config:other ~resume ~spec ~runs ~seed () with
        | _ -> Alcotest.failf "%s: snapshot of another configuration accepted" name
        | exception Invalid_argument _ -> ())
      picks
  in
  refused "max_generations"
    { config with ga = { config.ga with Engine.max_generations = 7 } };
  refused "DVS"
    {
      config with
      fitness =
        { config.fitness with Fitness.dvs = Fitness.Dvs Mm_dvs.Scaling.default_config };
    };
  List.iter
    (fun (name, other) ->
      List.iter
        (fun resume ->
          let resumed = Experiment.compare ~config:other ~resume ~spec ~runs ~seed () in
          Alcotest.(check bool)
            (name ^ ": resumed comparison is bit-identical")
            true
            (arm_bits straight = arm_bits resumed))
        picks)
    [
      ("jobs 2", { config with jobs = 2 });
      ("audit", { config with audit = true });
      (* Only the arms' own weighting is ever used. *)
      ( "uniform base weighting",
        {
          config with
          fitness = { config.fitness with Fitness.weighting = Fitness.Uniform };
        } );
    ];
  (* A state without a fingerprint (a snapshot older than comparison
     fingerprints) still resumes, unchecked, as it always did. *)
  let legacy = { (List.nth states 1) with Experiment.fingerprint = None } in
  let resumed = Experiment.compare ~config ~resume:legacy ~spec ~runs ~seed () in
  Alcotest.(check bool) "unfingerprinted state resumes" true
    (arm_bits straight = arm_bits resumed)

(* --- Configuration fingerprint --------------------------------------------------- *)

(* The strings below are what every build since the island and robust
   suffixes were introduced writes into its snapshots.  A change to any
   of them strands every checkpoint on disk, so they are pinned byte for
   byte. *)
let default_fingerprint =
  "w=p dvs=none sched=mobility pen=0x1.4p+4:0x1.4p+4:0x1.4p+4:0x1.9p+6 \
   ga=40:2:0x1.ccccccccccccdp-1:0x1.47ae147ae147bp-6:2:150:25:0x1.47ae147ae147bp-7:0x1.ccccccccccccdp+0 \
   improve=true restarts=2"

let robust_usage =
  {
    Synthesis.model = Mm_energy.Fleet_sim.Dirichlet { concentration = 5.0 };
    samples = 64;
    objective = Fitness.Percentile 0.1;
    battery = Mm_energy.Battery.phone_cell;
  }

let test_fingerprint_pinned () =
  let d = Synthesis.default_config in
  List.iter
    (fun (name, config, expected) ->
      Alcotest.(check string) name expected (Synthesis.config_fingerprint config))
    [
      ("default", d, default_fingerprint);
      ( "DVS, uniform",
        Synthesis.config_of_flags ~dvs:true ~uniform:true
          ~generations:Engine.default_config.Engine.max_generations
          ~population:Engine.default_config.Engine.population_size,
        "w=u dvs=true/true/gradient sched=mobility \
         pen=0x1.4p+4:0x1.4p+4:0x1.4p+4:0x1.9p+6 \
         ga=40:2:0x1.ccccccccccccdp-1:0x1.47ae147ae147bp-6:2:150:25:0x1.47ae147ae147bp-7:0x1.ccccccccccccdp+0 \
         improve=true restarts=2" );
      ("islands 4", { d with islands = 4 }, default_fingerprint ^ " islands=4:8:2");
      ( "robust dirichlet:5, 64 samples, p10",
        { d with robust = Some robust_usage },
        default_fingerprint
        ^ " robust=dirichlet:0x1.4p+2:64:p0x1.999999999999ap-4:0x1.4cccccccccccdp-1:0x1.d99999999999ap+1:0x1.0cccccccccccdp+0:0x1.4p+2"
      );
    ]

let test_fingerprint_sensitivity () =
  (* Every field that can move a trajectory moves the string; [jobs] and
     [audit] never do.  The island topology fields count only while the
     island model is active, so they are varied on a 2-island base; the
     robust fields likewise on a robust base. *)
  let d = Synthesis.default_config in
  let with_fitness f = { d with fitness = f d.fitness } in
  let with_ga f = { d with ga = f d.ga } in
  let with_penalties f =
    with_fitness (fun fc -> { fc with Fitness.penalties = f fc.Fitness.penalties })
  in
  let dvs sc = with_fitness (fun fc -> { fc with Fitness.dvs = Fitness.Dvs sc }) in
  let sc = Mm_dvs.Scaling.default_config in
  let islands = { d with islands = 2 } in
  let robust = { d with robust = Some robust_usage } in
  let with_robust f = { d with robust = Some (f robust_usage) } in
  let changed =
    [
      ("weighting", d, with_fitness (fun fc -> { fc with Fitness.weighting = Fitness.Uniform }));
      ("dvs", d, dvs sc);
      ("dvs software", dvs sc, dvs { sc with Mm_dvs.Scaling.scale_software = false });
      ("dvs hardware", dvs sc, dvs { sc with Mm_dvs.Scaling.scale_hardware = false });
      ( "scheduler policy",
        d,
        with_fitness (fun fc ->
            { fc with Fitness.scheduler_policy = Mm_sched.List_scheduler.Topological }) );
      ("timing penalty", d, with_penalties (fun p -> { p with Fitness.timing = 21.0 }));
      ("area penalty", d, with_penalties (fun p -> { p with Fitness.area = 21.0 }));
      ("transition penalty", d, with_penalties (fun p -> { p with Fitness.transition = 21.0 }));
      ("unroutable penalty", d, with_penalties (fun p -> { p with Fitness.unroutable = 101.0 }));
      ("population", d, with_ga (fun g -> { g with Engine.population_size = 41 }));
      ("tournament", d, with_ga (fun g -> { g with Engine.tournament_size = 3 }));
      ("crossover", d, with_ga (fun g -> { g with Engine.crossover_rate = 0.8 }));
      ("mutation", d, with_ga (fun g -> { g with Engine.mutation_rate = 0.03 }));
      ("elite", d, with_ga (fun g -> { g with Engine.elite_count = 3 }));
      ("generations", d, with_ga (fun g -> { g with Engine.max_generations = 151 }));
      ("stagnation", d, with_ga (fun g -> { g with Engine.stagnation_limit = 26 }));
      ("diversity", d, with_ga (fun g -> { g with Engine.diversity_threshold = 0.02 }));
      ("pressure", d, with_ga (fun g -> { g with Engine.selection_pressure = 1.5 }));
      ("improvements", d, { d with use_improvements = false });
      ("restarts", d, { d with restarts = 3 });
      ("islands", d, islands);
      ("island count", islands, { islands with islands = 3 });
      ("migration interval", islands, { islands with migration_interval = 9 });
      ("migration count", islands, { islands with migration_count = 3 });
      ("robust", d, robust);
      ( "robust model",
        robust,
        with_robust (fun r ->
            {
              r with
              Synthesis.model = Mm_energy.Fleet_sim.Dirichlet { concentration = 6.0 };
            }) );
      ("robust samples", robust, with_robust (fun r -> { r with Synthesis.samples = 65 }));
      ( "robust objective",
        robust,
        with_robust (fun r -> { r with Synthesis.objective = Fitness.Expected_lifetime }) );
      ( "robust battery",
        robust,
        with_robust (fun r ->
            {
              r with
              Synthesis.battery =
                Mm_energy.Battery.make ~capacity_ah:0.7 ~voltage:3.7 ~peukert:1.05
                  ~rated_hours:5.0 ();
            }) );
    ]
  in
  List.iter
    (fun (name, base, other) ->
      Alcotest.(check bool)
        (name ^ " changes the fingerprint")
        false
        (String.equal (Synthesis.config_fingerprint base) (Synthesis.config_fingerprint other)))
    changed;
  List.iter
    (fun (name, other) ->
      Alcotest.(check string)
        (name ^ " leaves the fingerprint")
        (Synthesis.config_fingerprint d) (Synthesis.config_fingerprint other))
    [
      ("jobs", { d with jobs = 4 });
      ("audit", { d with audit = true });
      ("topology without islands", { d with migration_interval = 9; migration_count = 3 });
      ( "point robust model",
        { d with robust = Some { robust_usage with model = Mm_energy.Fleet_sim.Point } } );
    ]

(* The fingerprint reads the robust objective off [config.robust]; one
   preset on [config.fitness] would run under the stock fingerprint and
   could resume the other objective's checkpoint, so it is refused. *)
let test_preset_fitness_robust_refused () =
  let spec = Mm_benchgen.Random_system.mul 1 in
  let n_modes = Mm_omsm.Omsm.n_modes (Mm_cosynth.Spec.omsm spec) in
  let config =
    {
      Synthesis.default_config with
      fitness =
        {
          Fitness.default_config with
          Fitness.robust =
            Some
              {
                Fitness.psis = [| Array.make n_modes (1.0 /. float_of_int n_modes) |];
                battery = Mm_energy.Battery.phone_cell;
                objective = Fitness.Expected_lifetime;
              };
        };
    }
  in
  match Synthesis.run ~config ~spec ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a robust objective preset on fitness.robust ran"

let () =
  Alcotest.run "checkpoint-resume"
    [
      ( "engine",
        [
          Alcotest.test_case "resume at any generation" `Quick
            test_engine_resume_any_generation;
          Alcotest.test_case "rejects stale checkpoints" `Quick
            test_engine_rejects_stale_checkpoint;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "resume every checkpoint (no DVS)" `Quick
            (test_synthesis_resume_every_checkpoint ~dvs:false);
          Alcotest.test_case "resume every checkpoint (DVS)" `Quick
            (test_synthesis_resume_every_checkpoint ~dvs:true);
          Alcotest.test_case "resume across strategies" `Quick
            test_synthesis_resume_across_strategies;
          Alcotest.test_case "rejects mismatched state" `Quick
            test_synthesis_rejects_mismatched_state;
          QCheck_alcotest.to_alcotest prop_resume_random_seed;
        ] );
      ( "islands",
        [
          Alcotest.test_case "resume at every epoch boundary" `Quick
            test_islands_resume_every_epoch;
          Alcotest.test_case "rejects mismatched checkpoints" `Quick
            test_islands_rejects_mismatched_checkpoint;
          Alcotest.test_case "synthesis resume every checkpoint" `Quick
            test_synthesis_islands_resume_every_checkpoint;
          Alcotest.test_case "synthesis jobs invariant" `Quick
            test_synthesis_islands_jobs_invariant;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "resume at every completed run" `Quick
            test_experiment_resume_every_run;
          Alcotest.test_case "rejects another configuration" `Quick
            test_experiment_rejects_other_config;
        ] );
      ( "config",
        [
          Alcotest.test_case "fingerprint pinned strings" `Quick test_fingerprint_pinned;
          Alcotest.test_case "fingerprint sensitive to every trajectory field" `Quick
            test_fingerprint_sensitivity;
          Alcotest.test_case "preset fitness.robust refused" `Quick
            test_preset_fitness_robust_refused;
        ] );
    ]
