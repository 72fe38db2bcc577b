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

let test_experiment_resume_every_run () =
  let ga =
    {
      Engine.default_config with
      population_size = 8;
      max_generations = 6;
      stagnation_limit = 20;
    }
  in
  let runs = 3 and seed = 2 in
  let straight = Experiment.compare ~ga ~spec ~runs ~seed () in
  let states = ref [] in
  let checkpoint st = states := st :: !states in
  ignore (Experiment.compare ~ga ~checkpoint ~spec ~runs ~seed ());
  let states = List.rev !states in
  Alcotest.(check int) "one state per completed run" (2 * runs) (List.length states);
  let arm_bits (c : Experiment.comparison) =
    ( bits c.Experiment.without_probabilities.Experiment.power.Mm_util.Stats.mean,
      bits c.Experiment.with_probabilities.Experiment.power.Mm_util.Stats.mean,
      c.Experiment.without_probabilities.Experiment.best.Synthesis.genome,
      c.Experiment.with_probabilities.Experiment.best.Synthesis.genome )
  in
  List.iteri
    (fun i resume ->
      let resumed = Experiment.compare ~ga ~resume ~spec ~runs ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "comparison resumed from state %d is bit-identical" i)
        true
        (arm_bits straight = arm_bits resumed))
    states;
  (* Bookkeeping mismatches are refused. *)
  match Experiment.compare ~ga ~resume:(List.hd states) ~spec ~runs ~seed:99 () with
  | _ -> Alcotest.fail "wrong seed accepted"
  | exception Invalid_argument _ -> ()

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
        ] );
    ]
