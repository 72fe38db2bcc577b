(* Tests for mm_ga: Genome and Engine. *)

module Prng = Mm_util.Prng
module Genome = Mm_ga.Genome
module Engine = Mm_ga.Engine

(* --- Genome ----------------------------------------------------------------- *)

let test_random_genome_valid () =
  let rng = Prng.create ~seed:1 in
  let counts = [| 3; 1; 7; 2 |] in
  for _ = 1 to 100 do
    let g = Genome.random rng ~counts in
    Alcotest.(check bool) "valid" true (Genome.validate ~counts g)
  done

let test_validate_rejects () =
  let counts = [| 2; 2 |] in
  Alcotest.(check bool) "length" false (Genome.validate ~counts [| 0 |]);
  Alcotest.(check bool) "range" false (Genome.validate ~counts [| 0; 2 |]);
  Alcotest.(check bool) "negative" false (Genome.validate ~counts [| -1; 0 |])

let test_crossover_preserves_positions () =
  let rng = Prng.create ~seed:2 in
  let a = Array.make 10 0 and b = Array.make 10 1 in
  for _ = 1 to 50 do
    let child_a, child_b = Genome.two_point_crossover rng a b in
    (* At every position the children hold the parents' genes, swapped or
       not. *)
    Array.iteri
      (fun i ga ->
        let gb = child_b.(i) in
        Alcotest.(check bool) "complementary" true
          ((ga = 0 && gb = 1) || (ga = 1 && gb = 0)))
      child_a
  done;
  (* Parents untouched. *)
  Alcotest.(check bool) "a untouched" true (Array.for_all (( = ) 0) a);
  Alcotest.(check bool) "b untouched" true (Array.for_all (( = ) 1) b)

let test_crossover_actually_mixes () =
  let rng = Prng.create ~seed:3 in
  let a = Array.make 20 0 and b = Array.make 20 1 in
  let mixed = ref false in
  for _ = 1 to 20 do
    let child, _ = Genome.two_point_crossover rng a b in
    let zeros = Array.fold_left (fun acc g -> acc + (1 - g)) 0 child in
    if zeros > 0 && zeros < 20 then mixed := true
  done;
  Alcotest.(check bool) "some crossover mixes genes" true !mixed

let test_point_mutate () =
  let rng = Prng.create ~seed:4 in
  let counts = Array.make 50 5 in
  let g = Array.make 50 0 in
  Genome.point_mutate rng ~counts ~rate:1.0 g;
  Alcotest.(check bool) "still valid" true (Genome.validate ~counts g);
  let untouched = Array.make 50 0 in
  Genome.point_mutate rng ~counts ~rate:0.0 untouched;
  Alcotest.(check bool) "rate 0 no-op" true (Array.for_all (( = ) 0) untouched)

let test_hamming () =
  Alcotest.(check int) "distance" 2 (Genome.hamming [| 0; 1; 2 |] [| 0; 2; 1 |]);
  Alcotest.(check int) "identical" 0 (Genome.hamming [| 1 |] [| 1 |])

(* --- Engine ------------------------------------------------------------------ *)

(* Minimise the sum of genes: optimum all-zero. *)
let sum_problem n alphabet =
  {
    Engine.gene_counts = Array.make n alphabet;
    evaluate = (fun g -> (float_of_int (Array.fold_left ( + ) 0 g), ()));
    improvements = [];
    initial = [];
  }

let test_engine_minimises () =
  let result = Engine.run ~rng:(Prng.create ~seed:5) (sum_problem 12 4) in
  Alcotest.(check (float 1e-9)) "finds optimum" 0.0 result.Engine.best_fitness;
  Alcotest.(check bool) "genome all zero" true
    (Array.for_all (( = ) 0) result.Engine.best_genome)

let test_engine_deterministic () =
  let run seed = Engine.run ~rng:(Prng.create ~seed) (sum_problem 10 5) in
  let a = run 9 and b = run 9 in
  Alcotest.(check (array int)) "same genome" a.Engine.best_genome b.Engine.best_genome;
  Alcotest.(check int) "same evaluations" a.Engine.evaluations b.Engine.evaluations

let test_engine_history_monotone () =
  let result = Engine.run ~rng:(Prng.create ~seed:6) (sum_problem 10 5) in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "best-so-far never worsens" true (decreasing result.Engine.history)

let test_engine_stagnation_stops () =
  let config =
    { Engine.default_config with max_generations = 10_000; stagnation_limit = 5 }
  in
  (* Constant fitness: must stop after stagnation_limit generations. *)
  let problem =
    {
      Engine.gene_counts = [| 2; 2 |];
      evaluate = (fun _ -> (1.0, ()));
      improvements = [];
      initial = [];
    }
  in
  let result = Engine.run ~config ~rng:(Prng.create ~seed:7) problem in
  Alcotest.(check bool) "stops early" true (result.Engine.generations <= 6)

let test_engine_max_generations () =
  let config =
    { Engine.default_config with max_generations = 3; stagnation_limit = 1000 }
  in
  let result = Engine.run ~config ~rng:(Prng.create ~seed:8) (sum_problem 30 10) in
  Alcotest.(check int) "bounded generations" 3 result.Engine.generations

let test_engine_improvement_applied () =
  (* An improvement that zeroes one random gene: with it the engine should
     reach the optimum of a harder problem much faster.  We only verify
     the operator runs (its effect shows in the count). *)
  let applications = ref 0 in
  let improvement =
    {
      Engine.name = "zero-a-gene";
      rate = 0.5;
      apply =
        (fun rng ~snapshot:_ ~info:_ genome ->
          incr applications;
          let i = Prng.int rng (Array.length genome) in
          genome.(i) <- 0;
          true);
    }
  in
  let problem = { (sum_problem 10 5) with Engine.improvements = [ improvement ] } in
  let result = Engine.run ~rng:(Prng.create ~seed:9) problem in
  Alcotest.(check bool) "operator invoked" true (!applications > 0);
  Alcotest.(check (float 1e-9)) "optimum reached" 0.0 result.Engine.best_fitness

let test_engine_info_passed () =
  (* The evaluator's info must reach the improvement operators. *)
  let seen_info = ref false in
  let improvement =
    {
      Engine.name = "check-info";
      rate = 1.0;
      apply =
        (fun _ ~snapshot:_ ~info genome ->
          if info = "tag" then seen_info := true;
          ignore genome;
          false);
    }
  in
  let problem =
    {
      Engine.gene_counts = [| 2 |];
      evaluate = (fun g -> (float_of_int g.(0), "tag"));
      improvements = [ improvement ];
      initial = [];
    }
  in
  ignore (Engine.run ~config:{ Engine.default_config with max_generations = 2 }
            ~rng:(Prng.create ~seed:10) problem);
  Alcotest.(check bool) "info visible" true !seen_info

let test_engine_seeded_initial_population () =
  (* With the optimum injected, the best-ever fitness is optimal from
     generation zero even with a tiny budget. *)
  let problem = { (sum_problem 20 10) with Engine.initial = [ Array.make 20 0 ] } in
  let config = { Engine.default_config with max_generations = 1 } in
  let result = Engine.run ~config ~rng:(Prng.create ~seed:11) problem in
  Alcotest.(check (float 1e-9)) "anchor survives" 0.0 result.Engine.best_fitness

let test_engine_rejects_invalid_initial () =
  let problem = { (sum_problem 5 3) with Engine.initial = [ [| 9; 9; 9; 9; 9 |] ] } in
  match Engine.run ~rng:(Prng.create ~seed:1) problem with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid initial genome accepted"

let test_engine_initial_not_mutated_in_place () =
  let anchor = Array.make 10 0 in
  let problem = { (sum_problem 10 5) with Engine.initial = [ anchor ] } in
  ignore (Engine.run ~config:{ Engine.default_config with max_generations = 5 }
            ~rng:(Prng.create ~seed:12) problem);
  Alcotest.(check bool) "caller's array untouched" true (Array.for_all (( = ) 0) anchor)

let test_engine_diversity_convergence () =
  (* A flat fitness landscape with full-strength mutation disabled: the
     population collapses onto copies of the elites, so the diversity
     criterion fires before the stagnation limit. *)
  let config =
    {
      Engine.default_config with
      max_generations = 5_000;
      stagnation_limit = 4_000;
      diversity_threshold = 0.05;
      mutation_rate = 0.0;
      population_size = 16;
    }
  in
  let problem =
    {
      Engine.gene_counts = Array.make 6 4;
      evaluate = (fun g -> (float_of_int (Array.fold_left ( + ) 0 g), ()));
      improvements = [];
      initial = [];
    }
  in
  let result = Engine.run ~config ~rng:(Prng.create ~seed:13) problem in
  Alcotest.(check bool) "stops well before the stagnation limit" true
    (result.Engine.generations < 4_000)

let test_engine_validation () =
  (match Engine.run ~rng:(Prng.create ~seed:1) (sum_problem 0 2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty genome accepted");
  match
    Engine.run
      ~config:{ Engine.default_config with population_size = 0 }
      ~rng:(Prng.create ~seed:1) (sum_problem 3 2)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty population accepted"

(* --- Evaluation strategies ---------------------------------------------------- *)

module Pool = Mm_parallel.Pool

(* A problem whose optimum the GA has to work for: weighted genes with a
   coupling term, so random problems differ by seed. *)
let strategy_problem ~n ~alphabet =
  {
    Engine.gene_counts = Array.make n alphabet;
    evaluate =
      (fun g ->
        let acc = ref 0.0 in
        Array.iteri
          (fun i x ->
            acc :=
              !acc
              +. (float_of_int ((i mod 3) + 1) *. float_of_int x)
              +. (if i > 0 && g.(i - 1) = x then 0.5 else 0.0))
          g;
        (!acc, ()));
    improvements = [];
    initial = [];
  }

let with_pool ~domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let strategies_equal_check pool ~seed ~n ~alphabet =
  let problem = strategy_problem ~n ~alphabet in
  let config = { Engine.default_config with max_generations = 40 } in
  let serial = Engine.run ~config ~rng:(Prng.create ~seed) problem in
  let pooled = Engine.run ~config ~pool ~rng:(Prng.create ~seed) problem in
  let same label (other : unit Engine.result) =
    Alcotest.(check (array int))
      (label ^ " genome") serial.Engine.best_genome other.Engine.best_genome;
    Alcotest.(check (float 0.0))
      (label ^ " fitness") serial.Engine.best_fitness other.Engine.best_fitness;
    Alcotest.(check int)
      (label ^ " generations") serial.Engine.generations other.Engine.generations;
    Alcotest.(check (list (float 0.0)))
      (label ^ " history") serial.Engine.history other.Engine.history
  in
  same "pooled" pooled;
  Alcotest.(check int) "pooled evaluates as often as serial" serial.Engine.evaluations
    pooled.Engine.evaluations;
  (* Every genome the engine builds is evaluated: the initial population
     once, then every non-elite offspring of every generation. *)
  Alcotest.(check int) "every genome evaluated"
    (config.population_size
    + (serial.Engine.generations * (config.population_size - config.elite_count)))
    serial.Engine.evaluations

let test_strategies_equal () =
  with_pool ~domains:4 (fun pool ->
      strategies_equal_check pool ~seed:17 ~n:24 ~alphabet:5;
      strategies_equal_check pool ~seed:99 ~n:7 ~alphabet:3)

(* Property (the determinism argument of DESIGN.md): serial and pooled
   evaluation produce bit-identical GA trajectories for random problems
   and seeds. *)
let prop_strategies_agree =
  QCheck.Test.make ~name:"eval strategies agree with serial" ~count:12
    QCheck.(triple small_int (int_range 2 20) (int_range 2 6))
    (fun (seed, n, alphabet) ->
      with_pool ~domains:3 (fun pool ->
          let problem = strategy_problem ~n ~alphabet in
          let config = { Engine.default_config with max_generations = 25 } in
          let serial = Engine.run ~config ~rng:(Prng.create ~seed) problem in
          let pooled = Engine.run ~config ~pool ~rng:(Prng.create ~seed) problem in
          serial.Engine.best_genome = pooled.Engine.best_genome
          && serial.Engine.best_fitness = pooled.Engine.best_fitness
          && serial.Engine.history = pooled.Engine.history))

(* Property: the engine never returns an invalid genome and never a
   fitness better than the true optimum. *)
let prop_engine_result_valid =
  QCheck.Test.make ~name:"engine result valid and bounded" ~count:20
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, n) ->
      let counts = Array.make n 3 in
      let problem =
        {
          Engine.gene_counts = counts;
          evaluate = (fun g -> (float_of_int (Array.fold_left ( + ) 0 g), ()));
          improvements = [];
          initial = [];
        }
      in
      let config = { Engine.default_config with max_generations = 30 } in
      let result = Engine.run ~config ~rng:(Prng.create ~seed) problem in
      Genome.validate ~counts result.Engine.best_genome
      && result.Engine.best_fitness >= 0.0)

(* --- Delta evaluation --------------------------------------------------------- *)

module Fitness = Mm_cosynth.Fitness
module Spec = Mm_cosynth.Spec
module Scaling = Mm_dvs.Scaling

let fuzz_count base =
  match Option.bind (Sys.getenv_opt "MM_FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> base

let bits = Int64.bits_of_float
let float_bits_equal a b = bits a = bits b

(* Every scalar the GA and the reporting layer consume, compared
   bit-for-bit — the delta contract is exactness, not closeness. *)
let evals_bit_identical (a : Fitness.eval) (b : Fitness.eval) =
  float_bits_equal a.Fitness.fitness b.Fitness.fitness
  && float_bits_equal a.Fitness.eval_power b.Fitness.eval_power
  && float_bits_equal a.Fitness.true_power b.Fitness.true_power
  && float_bits_equal a.Fitness.timing_factor b.Fitness.timing_factor
  && float_bits_equal a.Fitness.area_factor b.Fitness.area_factor
  && float_bits_equal a.Fitness.transition_factor b.Fitness.transition_factor
  && float_bits_equal a.Fitness.routability_factor b.Fitness.routability_factor
  && a.Fitness.timing_feasible = b.Fitness.timing_feasible
  && a.Fitness.area_feasible = b.Fitness.area_feasible
  && a.Fitness.transition_feasible = b.Fitness.transition_feasible
  && a.Fitness.routable = b.Fitness.routable
  && Array.length a.Fitness.mode_powers = Array.length b.Fitness.mode_powers
  && Array.for_all2
       (fun (p : Mm_energy.Power.mode_power) (q : Mm_energy.Power.mode_power) ->
         p.Mm_energy.Power.mode_id = q.Mm_energy.Power.mode_id
         && float_bits_equal p.Mm_energy.Power.dyn_power q.Mm_energy.Power.dyn_power
         && float_bits_equal p.Mm_energy.Power.static_power
              q.Mm_energy.Power.static_power)
       a.Fitness.mode_powers b.Fitness.mode_powers

let test_diff () =
  Alcotest.(check (list int)) "positions ascending" [ 1; 3 ]
    (Genome.diff [| 0; 1; 2; 3 |] [| 0; 2; 2; 0 |]);
  Alcotest.(check (list int)) "identical" [] (Genome.diff [| 4; 5 |] [| 4; 5 |]);
  match Genome.diff [| 0 |] [| 0; 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted"

(* The canonical delta-vs-full equivalence fuzz (DESIGN §13): random
   specs, random mutation chains drawn by [point_mutate] with the dirty
   set from [Genome.diff] (the engine's own path), every step checked
   float-bit against the full pipeline, and the last one against the
   cache-free reference pipeline too.  The specs are fixture graphs on
   the small fixture platform, the smartphone (all hardware on
   ASICs, so growing a core in one mode changes the static cores every
   mode sees) and mul1–mul12 (ASICs and FPGAs mixed).  The big specs are
   built once, so their per-mode caches carry over between cases the
   way they do across a GA run.  Low rates exercise the per-mode reuse
   path, high rates the wide-dirty-set fallback; chaining feeds each
   delta result back in as the next parent, so reused caches are
   themselves delta-produced. *)
let smartphone_spec = lazy (Mm_benchgen.Smartphone.spec ())
let mul_specs = Array.init 12 (fun i -> lazy (Mm_benchgen.Random_system.mul (i + 1)))

let delta_case seed =
  let rng = Prng.create ~seed in
  let spec =
    match Prng.int rng 4 with
    | 0 -> Lazy.force smartphone_spec
    | 1 -> Lazy.force mul_specs.(Prng.int rng 12)
    | _ ->
      let all =
        [|
          Fixtures.chain_graph (); Fixtures.fork_graph (); Fixtures.parallel_graph ();
        |]
      in
      let graphs = List.init (1 + Prng.int rng 3) (fun _ -> all.(Prng.int rng 3)) in
      Fixtures.spec_of_graphs ~dvs_gpp:(Prng.int rng 2 = 0) graphs
  in
  let config =
    {
      Fitness.default_config with
      Fitness.dvs =
        (if Prng.int rng 2 = 0 then Fitness.Dvs Scaling.default_config
         else Fitness.No_dvs);
      weighting =
        (if Prng.int rng 2 = 0 then Fitness.True_probabilities else Fitness.Uniform);
    }
  in
  let counts = Spec.gene_counts spec in
  let genome = Genome.random rng ~counts in
  let current = ref genome in
  let parent = ref (Fitness.evaluate config spec genome) in
  let ok = ref true in
  for _ = 1 to 3 do
    let rate = [| 0.01; 0.05; 0.2; 0.9 |].(Prng.int rng 4) in
    let child = Array.copy !current in
    Genome.point_mutate rng ~counts ~rate child;
    let dirty = Genome.diff !current child in
    let via_delta = Fitness.evaluate_delta config spec ~parent:!parent ~dirty child in
    let via_full = Fitness.evaluate config spec child in
    if not (evals_bit_identical via_delta via_full) then ok := false;
    parent := via_delta;
    current := child
  done;
  !ok && evals_bit_identical !parent (Fitness_oracle.evaluate config spec !current)

let prop_delta_matches_full =
  QCheck.Test.make ~name:"delta ≡ full (float-bit)" ~count:(fuzz_count 500)
    QCheck.(int_bound 1_000_000)
    delta_case

(* The read-set contract of per-mode reuse (DESIGN §10): a clean mode's
   (schedule, scaling, power) triple depends on the allocation only
   through the instance counts its own hardware tasks see.  Two modes on
   the fixture platform (GPP0 + ASIC1, area 300); a genome places every
   task on GPP0 except the listed (mode, task) pairs, which go to ASIC1.
   The child differs from the parent in mode 0 only. *)
let genome_on spec asic_tasks =
  Array.init (Spec.n_positions spec) (fun i ->
      let { Spec.mode; task } = Spec.position spec i in
      let pe_id = if List.mem (mode, task) asic_tasks then 1 else 0 in
      Option.get (Spec.candidate_index spec i ~pe_id))

let counter name = List.assoc name (Mm_obs.Metrics.snapshot ()).Mm_obs.Metrics.counters

let samples name =
  (List.assoc name (Mm_obs.Metrics.snapshot ()).Mm_obs.Metrics.histograms).Mm_obs.Metrics.count

(* Delta-evaluates the child against the parent and returns the mode-1
   read sets under both allocations and how many clean modes the delta
   path reused and how often it fell back, after checking the result
   float-bit, and its schedules structurally, against the full and the
   reference pipelines, and checking that the one call was one pass: a
   single evaluation span and a single core allocation, fallback or
   not. *)
let read_set_case ~dvs graphs ~parent ~child =
  let spec = Fixtures.spec_of_graphs graphs in
  let config =
    {
      Fitness.default_config with
      Fitness.dvs = (if dvs then Fitness.Dvs Scaling.default_config else Fitness.No_dvs);
    }
  in
  let parent_genome = genome_on spec parent and child_genome = genome_on spec child in
  let parent_eval = Fitness.evaluate config spec parent_genome in
  let dirty = Genome.diff parent_genome child_genome in
  Alcotest.(check bool) "only mode 0 dirty" true
    (dirty <> [] && List.for_all (fun i -> (Spec.position spec i).Spec.mode = 0) dirty);
  Mm_obs.Control.set_metrics true;
  let via_delta, reused, fallbacks =
    Fun.protect ~finally:(fun () -> Mm_obs.Control.set_metrics false) @@ fun () ->
    let reuse0 = counter "fitness/delta_mode_reuse"
    and fallback0 = counter "fitness/delta_fallbacks"
    and evals0 = samples "fitness/eval_us"
    and allocs0 = samples "fitness/core_alloc_us" in
    let e = Fitness.evaluate_delta config spec ~parent:parent_eval ~dirty child_genome in
    Alcotest.(check int) "one fitness/eval_us sample" 1 (samples "fitness/eval_us" - evals0);
    Alcotest.(check int) "one fitness/core_alloc_us sample" 1
      (samples "fitness/core_alloc_us" - allocs0);
    (e, counter "fitness/delta_mode_reuse" - reuse0, counter "fitness/delta_fallbacks" - fallback0)
  in
  List.iter
    (fun (name, (e : Fitness.eval)) ->
      Alcotest.(check bool) name true
        (evals_bit_identical via_delta e && via_delta.Fitness.schedules = e.Fitness.schedules))
    [
      ("delta ≡ full", Fitness.evaluate config spec child_genome);
      ("delta ≡ reference", Fitness_oracle.evaluate config spec child_genome);
    ];
  let row = (Mm_cosynth.Mapping.of_genome spec child_genome :> int array array).(1) in
  let read_set (e : Fitness.eval) =
    Array.to_list (Mm_cosynth.Core_alloc.read_set e.Fitness.alloc spec ~mode:1 row)
  in
  (read_set parent_eval, read_set via_delta, reused, fallbacks)

let test_delta_reuses_mode_with_unchanged_read_set () =
  List.iter
    (fun dvs ->
      (* Mode 0 moves its type-A task onto the ASIC: a new static core
         of a type mode 1 does not run in hardware. *)
      let before, after, reused, fallbacks =
        read_set_case ~dvs
          [ Fixtures.chain_graph (); Fixtures.chain_graph () ]
          ~parent:[ (1, 1) ] ~child:[ (0, 0); (1, 1) ]
      in
      Alcotest.(check (list int)) "mode 1 read set before" [ 0; 1; 0 ] before;
      Alcotest.(check (list int)) "mode 1 read set after" [ 0; 1; 0 ] after;
      Alcotest.(check int) "mode 1 reused" 1 reused;
      Alcotest.(check int) "no fallback" 0 fallbacks)
    [ false; true ]

let test_delta_promotes_mode_whose_read_set_grew () =
  List.iter
    (fun dvs ->
      (* Mode 1 runs two parallel type-B tasks on the ASIC and wants a
         second B core, which does not fit while mode 0's type-C core
         (area 150) sits there too.  Mode 0 moves its C task to the GPP:
         the second B core now fits, and mode 1's tasks run in parallel
         on it — its schedule changes though its row did not.  Promoting
         mode 1 dirties both modes of two, so the pass marks every mode
         dirty and carries on — without starting a second evaluation. *)
      let before, after, reused, fallbacks =
        read_set_case ~dvs
          [ Fixtures.chain_graph (); Fixtures.parallel_graph () ]
          ~parent:[ (0, 2); (1, 0); (1, 1) ] ~child:[ (1, 0); (1, 1) ]
      in
      Alcotest.(check (list int)) "mode 1 read set before" [ 1; 1 ] before;
      Alcotest.(check (list int)) "mode 1 read set after" [ 2; 2 ] after;
      Alcotest.(check int) "mode 1 not reused" 0 reused;
      Alcotest.(check int) "promoted, so fallback" 1 fallbacks)
    [ false; true ]

(* Engine-level: supplying a contract-satisfying delta changes neither
   the trajectory nor the evaluation counts, serial or pooled. *)
let test_engine_delta_identical_trajectory () =
  let evaluate g =
    let s = Array.fold_left ( + ) 0 g in
    (float_of_int s, (Array.copy g, s))
  in
  let problem =
    {
      Engine.gene_counts = Array.make 14 5;
      evaluate;
      improvements = [];
      initial = [];
    }
  in
  let delta_calls = ref 0 in
  let delta ~parent:(pg, ps) ~dirty g =
    incr delta_calls;
    let s = List.fold_left (fun acc i -> acc + g.(i) - pg.(i)) ps dirty in
    (float_of_int s, (Array.copy g, s))
  in
  let config = { Engine.default_config with max_generations = 30 } in
  let plain = Engine.run ~config ~rng:(Prng.create ~seed:31) problem in
  let with_delta = Engine.run ~config ~delta ~rng:(Prng.create ~seed:31) problem in
  Alcotest.(check bool) "delta actually used" true (!delta_calls > 0);
  Alcotest.(check (array int)) "genome" plain.Engine.best_genome
    with_delta.Engine.best_genome;
  Alcotest.(check (float 0.0)) "fitness" plain.Engine.best_fitness
    with_delta.Engine.best_fitness;
  Alcotest.(check int) "generations" plain.Engine.generations
    with_delta.Engine.generations;
  Alcotest.(check int) "evaluations" plain.Engine.evaluations
    with_delta.Engine.evaluations;
  Alcotest.(check (list (float 0.0))) "history" plain.Engine.history
    with_delta.Engine.history;
  let pooled =
    with_pool ~domains:2 (fun pool ->
        Engine.run ~config ~pool ~delta ~rng:(Prng.create ~seed:31) problem)
  in
  Alcotest.(check (array int)) "pooled genome" plain.Engine.best_genome
    pooled.Engine.best_genome;
  Alcotest.(check (list (float 0.0))) "pooled history" plain.Engine.history
    pooled.Engine.history

(* --- Islands ----------------------------------------------------------------- *)

module Islands = Mm_ga.Islands

let islands_same label (a : unit Engine.result) (b : unit Engine.result) =
  Alcotest.(check (array int)) (label ^ " genome") a.Engine.best_genome b.Engine.best_genome;
  Alcotest.(check int)
    (label ^ " fitness bits")
    0
    (Int64.compare
       (Int64.bits_of_float a.Engine.best_fitness)
       (Int64.bits_of_float b.Engine.best_fitness));
  Alcotest.(check int) (label ^ " generations") a.Engine.generations b.Engine.generations;
  Alcotest.(check (list (float 0.0))) (label ^ " history") a.Engine.history b.Engine.history

let test_islands_one_is_engine () =
  (* One island is the single-population engine, bit for bit: stream 0
     of the run seed is the seed's own state. *)
  let problem = strategy_problem ~n:18 ~alphabet:4 in
  let config = { Engine.default_config with max_generations = 40 } in
  let single = Engine.run ~config ~rng:(Prng.create ~seed:11) problem in
  let island =
    Islands.run ~config
      ~topology:{ Islands.islands = 1; migration_interval = 8; migration_count = 2 }
      ~rng:(Prng.create ~seed:11) problem
  in
  islands_same "islands=1" single island.Islands.best;
  Alcotest.(check int) "evaluations" single.Engine.evaluations island.Islands.evaluations

let test_islands_jobs_invariant () =
  (* The archipelago trajectory is a function of (seed, topology,
     problem): serial fallback, a 2-domain pool and a 4-domain pool
     (islands round-robin across 2 domains — the oversubscribed path)
     must agree bit for bit. *)
  let problem = strategy_problem ~n:20 ~alphabet:5 in
  let config = { Engine.default_config with max_generations = 48 } in
  let topology = { Islands.islands = 3; migration_interval = 6; migration_count = 2 } in
  let run ?pool () =
    Islands.run ~config ~topology ?pool ~rng:(Prng.create ~seed:23) problem
  in
  let serial = run () in
  let pooled2 = with_pool ~domains:2 (fun pool -> run ~pool ()) in
  let pooled4 = with_pool ~domains:4 (fun pool -> run ~pool ()) in
  islands_same "pool 2" serial.Islands.best pooled2.Islands.best;
  islands_same "pool 4" serial.Islands.best pooled4.Islands.best;
  Array.iteri
    (fun i r ->
      islands_same
        (Printf.sprintf "island %d pool 2" i)
        r pooled2.Islands.per_island.(i);
      islands_same
        (Printf.sprintf "island %d pool 4" i)
        r pooled4.Islands.per_island.(i))
    serial.Islands.per_island

(* --- Robust (usage-uncertainty) synthesis -------------------------------------- *)

module Synthesis = Mm_cosynth.Synthesis
module Fleet_sim = Mm_energy.Fleet_sim

let robust_spec () =
  Fixtures.spec_of_graphs ~probabilities:[| 0.2; 0.8 |]
    [ Fixtures.chain_graph (); Fixtures.fork_graph () ]

let robust_ga_config robust =
  {
    Synthesis.default_config with
    Synthesis.ga =
      { Engine.default_config with max_generations = 15; population_size = 16 };
    robust;
  }

let robust_usage model =
  {
    Synthesis.model;
    samples = 8;
    objective = Fitness.Percentile 0.25;
    battery = Mm_energy.Battery.phone_cell;
  }

let test_robust_point_is_bypass () =
  (* A Point model draws nothing: fitness, fingerprint and the whole
     trajectory are bit-identical to a run with no robust config — the
     opt-in shows up nowhere unless a spreading model is chosen. *)
  let spec = robust_spec () in
  let stock = robust_ga_config None in
  let point = robust_ga_config (Some (robust_usage Fleet_sim.Point)) in
  Alcotest.(check bool) "point model is inactive" false (Synthesis.robust_active point);
  Alcotest.(check string) "fingerprint unchanged"
    (Synthesis.config_fingerprint stock)
    (Synthesis.config_fingerprint point);
  let a = Synthesis.run ~config:stock ~spec ~seed:4 () in
  let b = Synthesis.run ~config:point ~spec ~seed:4 () in
  Alcotest.(check bool) "eval bit-identical" true
    (evals_bit_identical a.Synthesis.eval b.Synthesis.eval)

let test_robust_deterministic_across_jobs () =
  (* The Ψ sample set is a pure function of the run seed (a dedicated
     Prng stream), so robust runs replay bit-identically, serial or
     pooled. *)
  let spec = robust_spec () in
  let config =
    robust_ga_config (Some (robust_usage (Fleet_sim.Dirichlet { concentration = 40.0 })))
  in
  Alcotest.(check bool) "dirichlet model is active" true (Synthesis.robust_active config);
  let serial = Synthesis.run ~config ~spec ~seed:4 () in
  let replay = Synthesis.run ~config ~spec ~seed:4 () in
  let pooled = Synthesis.run ~config:{ config with Synthesis.jobs = 3 } ~spec ~seed:4 () in
  Alcotest.(check bool) "replay bit-identical" true
    (evals_bit_identical serial.Synthesis.eval replay.Synthesis.eval);
  Alcotest.(check bool) "pooled bit-identical" true
    (evals_bit_identical serial.Synthesis.eval pooled.Synthesis.eval);
  (* An active model fingerprints differently from the stock config, and
     differently again at another sample count. *)
  let stock_fp = Synthesis.config_fingerprint (robust_ga_config None) in
  let active_fp = Synthesis.config_fingerprint config in
  let more_samples =
    Synthesis.config_fingerprint
      {
        config with
        Synthesis.robust =
          Option.map (fun r -> { r with Synthesis.samples = 16 }) config.Synthesis.robust;
      }
  in
  Alcotest.(check bool) "fingerprint gains a robust suffix" false
    (String.equal stock_fp active_fp);
  Alcotest.(check bool) "sample count fingerprinted" false
    (String.equal active_fp more_samples)

(* Property: migration is deterministic under seed replay — two runs
   with the same seed and topology agree bit for bit, across random
   island counts, intervals and export sizes, with and without a pool. *)
let prop_islands_seed_replay =
  QCheck.Test.make ~name:"island migration deterministic under seed replay" ~count:10
    QCheck.(
      quad small_int (int_range 1 4) (int_range 1 7) (int_range 0 3))
    (fun (seed, islands, migration_interval, migration_count) ->
      let problem = strategy_problem ~n:10 ~alphabet:3 in
      let config = { Engine.default_config with max_generations = 20 } in
      let topology = { Islands.islands; migration_interval; migration_count } in
      let run ?pool () =
        Islands.run ~config ~topology ?pool ~rng:(Prng.create ~seed) problem
      in
      let a = run () and b = run () in
      let pooled = with_pool ~domains:3 (fun pool -> run ~pool ()) in
      let agree (x : unit Islands.result) (y : unit Islands.result) =
        x.Islands.best.Engine.best_genome = y.Islands.best.Engine.best_genome
        && Int64.bits_of_float x.Islands.best.Engine.best_fitness
           = Int64.bits_of_float y.Islands.best.Engine.best_fitness
        && x.Islands.generations = y.Islands.generations
        && x.Islands.evaluations = y.Islands.evaluations
        && Array.for_all2
             (fun (p : unit Engine.result) (q : unit Engine.result) ->
               p.Engine.history = q.Engine.history)
             x.Islands.per_island y.Islands.per_island
      in
      agree a b && agree a pooled)

let () =
  Alcotest.run "mm_ga"
    [
      ( "genome",
        [
          Alcotest.test_case "random valid" `Quick test_random_genome_valid;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "crossover positions" `Quick test_crossover_preserves_positions;
          Alcotest.test_case "crossover mixes" `Quick test_crossover_actually_mixes;
          Alcotest.test_case "point mutate" `Quick test_point_mutate;
          Alcotest.test_case "hamming" `Quick test_hamming;
        ] );
      ( "engine",
        [
          Alcotest.test_case "minimises" `Quick test_engine_minimises;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "history monotone" `Quick test_engine_history_monotone;
          Alcotest.test_case "stagnation stops" `Quick test_engine_stagnation_stops;
          Alcotest.test_case "max generations" `Quick test_engine_max_generations;
          Alcotest.test_case "improvement applied" `Quick test_engine_improvement_applied;
          Alcotest.test_case "info passed" `Quick test_engine_info_passed;
          Alcotest.test_case "seeded initial population" `Quick
            test_engine_seeded_initial_population;
          Alcotest.test_case "invalid initial rejected" `Quick
            test_engine_rejects_invalid_initial;
          Alcotest.test_case "initial not mutated" `Quick
            test_engine_initial_not_mutated_in_place;
          Alcotest.test_case "diversity convergence" `Quick test_engine_diversity_convergence;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          QCheck_alcotest.to_alcotest prop_engine_result_valid;
        ] );
      ( "eval strategies",
        [
          Alcotest.test_case "serial/pooled identical" `Quick test_strategies_equal;
          QCheck_alcotest.to_alcotest prop_strategies_agree;
        ] );
      ( "delta evaluation",
        [
          Alcotest.test_case "diff" `Quick test_diff;
          QCheck_alcotest.to_alcotest prop_delta_matches_full;
          Alcotest.test_case "clean mode reused when its read set holds" `Quick
            test_delta_reuses_mode_with_unchanged_read_set;
          Alcotest.test_case "clean mode promoted when its read set grows" `Quick
            test_delta_promotes_mode_whose_read_set_grew;
          Alcotest.test_case "engine trajectory unchanged" `Quick
            test_engine_delta_identical_trajectory;
        ] );
      ( "islands",
        [
          Alcotest.test_case "one island is the engine" `Quick test_islands_one_is_engine;
          Alcotest.test_case "identical across pools and serial" `Quick
            test_islands_jobs_invariant;
          QCheck_alcotest.to_alcotest prop_islands_seed_replay;
        ] );
      ( "robust synthesis",
        [
          Alcotest.test_case "point model is a bit-exact bypass" `Quick
            test_robust_point_is_bypass;
          Alcotest.test_case "deterministic, serial ≡ pooled" `Quick
            test_robust_deterministic_across_jobs;
        ] );
    ]
