(* Equivalence tests for the compile-once evaluation kernels (DESIGN.md
   §10): the route table, the dense technology dispatch, the heap-based
   list scheduler and the per-mode memoized fitness pipeline must be
   bit-identical to the seed implementations they accelerate — same
   tie-breaking, same float-operation order — on randomly generated
   multi-mode systems, across every scheduler policy and with DVS on and
   off. *)

module Spec = Mm_cosynth.Spec
module Fitness = Mm_cosynth.Fitness
module Synthesis = Mm_cosynth.Synthesis
module Mapping = Mm_cosynth.Mapping
module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode
module Arch = Mm_arch.Architecture
module Tech_lib = Mm_arch.Tech_lib
module Task_type = Mm_taskgraph.Task_type
module Comm_mapping = Mm_sched.Comm_mapping
module List_scheduler = Mm_sched.List_scheduler
module Scaling = Mm_dvs.Scaling
module Memo = Mm_parallel.Memo
module Pool = Mm_parallel.Pool
module Prng = Mm_util.Prng
module Random_system = Mm_benchgen.Random_system

let spec_of_seed seed = Random_system.generate ~seed ()
let random_genome rng spec = Mm_ga.Genome.random rng ~counts:(Spec.gene_counts spec)

let all_policies =
  [
    List_scheduler.Mobility_first;
    List_scheduler.Critical_path_first;
    List_scheduler.Topological;
  ]

(* Every scheduler policy, with and without voltage scaling. *)
let all_configs =
  List.concat_map
    (fun policy ->
      [
        { Fitness.default_config with Fitness.scheduler_policy = policy };
        {
          Fitness.default_config with
          Fitness.scheduler_policy = policy;
          dvs = Fitness.Dvs Scaling.default_config;
        };
      ])
    all_policies

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Structural comparison (not [=]) because unscaled task voltages are
   nan by contract. *)
let eval_equal (a : Fitness.eval) (b : Fitness.eval) =
  same_float a.Fitness.fitness b.Fitness.fitness
  && same_float a.Fitness.eval_power b.Fitness.eval_power
  && same_float a.Fitness.true_power b.Fitness.true_power
  && Stdlib.compare a.Fitness.schedules b.Fitness.schedules = 0
  && Stdlib.compare a.Fitness.scalings b.Fitness.scalings = 0
  && Stdlib.compare a.Fitness.mode_powers b.Fitness.mode_powers = 0

(* --- Route table ------------------------------------------------------------ *)

let prop_route_table_equivalent =
  QCheck.Test.make ~name:"route_via ≡ route on every (src, dst, data)" ~count:25
    QCheck.small_int (fun seed ->
      let spec = spec_of_seed (2000 + seed) in
      let arch = Spec.arch spec in
      let table = Comm_mapping.table arch in
      let n = Arch.n_pes arch in
      let ok = ref (Comm_mapping.table_pairs table = n * n) in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          (* data = 0 exercises the all-candidates-tie case, where the
             winner falls through to the link-id tie-break. *)
          List.iter
            (fun data ->
              let a = Comm_mapping.route arch ~src_pe:src ~dst_pe:dst ~data in
              let b = Comm_mapping.route_via table ~src_pe:src ~dst_pe:dst ~data in
              if Stdlib.compare a b <> 0 then ok := false)
            [ 0.0; 1.0; 4096.0 ]
        done
      done;
      !ok)

(* --- Dense dispatch --------------------------------------------------------- *)

let prop_dispatch_equivalent =
  QCheck.Test.make ~name:"dispatch_find ≡ find (incl. out of range)" ~count:25
    QCheck.small_int (fun seed ->
      let spec = spec_of_seed (4000 + seed) in
      let arch = Spec.arch spec in
      let tech = Spec.tech spec in
      let dispatch = Spec.dispatch (Spec.compiled spec) in
      let n_pes = Arch.n_pes arch in
      let types = Task_type.Set.elements (Omsm.all_task_types (Spec.omsm spec)) in
      List.for_all
        (fun ty ->
          let ty_id = Task_type.id ty in
          List.for_all
            (fun pe ->
              Stdlib.compare
                (Tech_lib.find tech ~ty ~pe:(Arch.pe arch pe))
                (Tech_lib.dispatch_find dispatch ~ty_id ~pe_id:pe)
              = 0)
            (List.init n_pes Fun.id))
        types
      && Tech_lib.dispatch_find dispatch ~ty_id:(-1) ~pe_id:0 = None
      && Tech_lib.dispatch_find dispatch ~ty_id:0 ~pe_id:n_pes = None
      && Tech_lib.dispatch_find dispatch ~ty_id:0 ~pe_id:(-1) = None)

(* --- Heap scheduler --------------------------------------------------------- *)

let prop_scheduler_equivalent =
  QCheck.Test.make
    ~name:"heap scheduler ≡ reference (plain and compiled inputs, all policies)"
    ~count:10 QCheck.small_int (fun seed ->
      let spec = spec_of_seed (3000 + seed) in
      let ctx = Spec.compiled spec in
      let arch = Spec.arch spec in
      let tech = Spec.tech spec in
      let omsm = Spec.omsm spec in
      let rng = Prng.create ~seed:(seed + 11) in
      let rows =
        (Mapping.of_genome spec (random_genome rng spec) :> int array array)
      in
      List.for_all
        (fun policy ->
          List.for_all
            (fun mode ->
              let mode_rec = Omsm.mode omsm mode in
              let input ?routes ?dispatch () =
                List_scheduler.make_input ?routes ?dispatch ~mode_id:mode
                  ~graph:(Mode.graph mode_rec) ~arch ~tech ~mapping:rows.(mode)
                  ~instances:(fun ~pe:_ ~ty:_ -> 1)
                  ~period:(Mode.period mode_rec) ()
              in
              let reference = List_scheduler_oracle.run ~policy (input ()) in
              let plain = List_scheduler.run ~policy (input ()) in
              let compiled =
                List_scheduler.run ~policy
                  (input ~routes:(Spec.routes ctx) ~dispatch:(Spec.dispatch ctx) ())
              in
              Stdlib.compare reference plain = 0
              && Stdlib.compare reference compiled = 0)
            (List.init (Omsm.n_modes omsm) Fun.id))
        all_policies)

(* --- Full fitness pipeline -------------------------------------------------- *)

let prop_fitness_equivalent =
  QCheck.Test.make
    ~name:"compiled evaluate ≡ reference evaluate (policies × DVS, warm caches)"
    ~count:6 QCheck.small_int (fun seed ->
      let spec = spec_of_seed (1000 + seed) in
      let rng = Prng.create ~seed:(seed + 1) in
      (* Several genomes per config against one spec, so later
         evaluations run against caches warmed by earlier ones — a wrong
         cache hit (key collision, missing key ingredient) shows up as a
         mismatch with the uncached reference. *)
      List.for_all
        (fun config ->
          List.for_all
            (fun _ ->
              let genome = random_genome rng spec in
              eval_equal
                (Fitness.evaluate config spec genome)
                (Fitness_oracle.evaluate config spec genome))
            [ 1; 2; 3 ])
        all_configs)

(* --- Cache behaviour -------------------------------------------------------- *)

let test_repeat_evaluation_hits_cache () =
  let spec = spec_of_seed 42 in
  let rng = Prng.create ~seed:7 in
  let genome = random_genome rng spec in
  let config = Fitness.default_config in
  let a = Fitness.evaluate config spec genome in
  let ctx = Spec.compiled spec in
  let eval_hits = Memo.hits (Spec.mode_eval_cache ctx) in
  let mob_hits = Memo.hits (Spec.mode_mobility_cache ctx) in
  let b = Fitness.evaluate config spec genome in
  let n_modes = Omsm.n_modes (Spec.omsm spec) in
  Alcotest.(check bool) "identical result" true (eval_equal a b);
  Alcotest.(check bool) "all modes hit the eval cache" true
    (Memo.hits (Spec.mode_eval_cache ctx) >= eval_hits + n_modes);
  Alcotest.(check bool) "all modes hit the mobility cache" true
    (Memo.hits (Spec.mode_mobility_cache ctx) >= mob_hits + n_modes)

let test_mutated_genome_consistent () =
  let spec = spec_of_seed 43 in
  let rng = Prng.create ~seed:9 in
  let config = Fitness.default_config in
  let genome = random_genome rng spec in
  ignore (Fitness.evaluate config spec genome);
  (* Mutate one position of the last mode: the untouched modes answer
     their mobility from cache, and the result still matches the
     uncached reference. *)
  let counts = Spec.gene_counts spec in
  let pos = Array.length counts - 1 in
  let mutated = Array.copy genome in
  mutated.(pos) <- (mutated.(pos) + 1) mod counts.(pos);
  let ctx = Spec.compiled spec in
  let mob_hits = Memo.hits (Spec.mode_mobility_cache ctx) in
  let a = Fitness.evaluate config spec mutated in
  let b = Fitness_oracle.evaluate config spec mutated in
  let n_modes = Omsm.n_modes (Spec.omsm spec) in
  Alcotest.(check bool) "identical to reference" true (eval_equal a b);
  Alcotest.(check bool) "untouched modes hit the mobility cache" true
    (Memo.hits (Spec.mode_mobility_cache ctx) >= mob_hits + (n_modes - 1))

(* The per-mode caches belong to the spec's compiled context, not to the
   domains that filled them: a long-lived daemon evaluates a freshly
   parsed spec per job, so once a spec is dropped every domain's caches
   must become collectable.  Evaluates serially and through the pool,
   checks that every domain used the one cache of the spec, and returns
   only a weak pointer to it. *)
let[@inline never] evaluate_and_forget pool =
  let spec = Mm_io.Codec.spec_of_string (Mm_io.Codec.spec_to_string (spec_of_seed 44)) in
  let rng = Prng.create ~seed:5 in
  let genomes = Array.init 16 (fun _ -> random_genome rng spec) in
  let evaluate genome =
    ignore (Fitness.evaluate Fitness.default_config spec genome);
    Spec.mode_eval_cache (Spec.compiled spec)
  in
  let used = Array.append (Array.map evaluate genomes) (Pool.map pool evaluate genomes) in
  let distinct =
    Array.fold_left (fun acc c -> if List.memq c acc then acc else c :: acc) [] used
  in
  Alcotest.(check int) "one cache shared by every domain" 1 (List.length distinct);
  let weak = Weak.create (List.length distinct) in
  List.iteri (fun i c -> Weak.set weak i (Some c)) distinct;
  weak

let test_caches_die_with_spec () =
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let weak = evaluate_and_forget pool in
  (* The pool stays up: a worker domain that evaluated the spec must not
     keep its caches alive either. *)
  Gc.full_major ();
  for i = 0 to Weak.length weak - 1 do
    if Weak.check weak i then
      Alcotest.failf "per-mode cache %d of %d outlived its spec" (i + 1)
        (Weak.length weak)
  done

let counter name = List.assoc name (Mm_obs.Metrics.snapshot ()).Mm_obs.Metrics.counters

(* Every domain hits on modes any domain computed, so a pooled run
   misses the per-mode cache as often as the serial run of the same
   trajectory, up to two domains racing on one key. *)
let test_pooled_run_shares_mode_cache () =
  let config ~jobs =
    {
      Synthesis.default_config with
      fitness = { Fitness.default_config with dvs = Fitness.Dvs Scaling.default_config };
      ga =
        {
          Mm_ga.Engine.default_config with
          population_size = 16;
          max_generations = 12;
          stagnation_limit = 100;
        };
      restarts = 1;
      jobs;
    }
  in
  let run ~jobs =
    (* A fresh spec per run, so both runs start with cold caches. *)
    let spec = Random_system.mul 6 in
    Mm_obs.Control.set_metrics true;
    Fun.protect ~finally:(fun () -> Mm_obs.Control.set_metrics false) @@ fun () ->
    let misses0 = counter "fitness/mode_cache_misses" in
    let result = Synthesis.run ~config:(config ~jobs) ~spec ~seed:3 () in
    (result, counter "fitness/mode_cache_misses" - misses0)
  in
  let serial, serial_misses = run ~jobs:1 in
  let pooled, pooled_misses = run ~jobs:2 in
  Alcotest.(check bool) "identical result" true
    (eval_equal serial.Synthesis.eval pooled.Synthesis.eval
    && serial.Synthesis.genome = pooled.Synthesis.genome);
  Alcotest.(check bool) "serial run misses" true (serial_misses > 0);
  if 100 * abs (pooled_misses - serial_misses) > serial_misses then
    Alcotest.failf "mode-cache misses: %d at jobs 2 against %d at jobs 1 (over 1 %%)"
      pooled_misses serial_misses

let () =
  Alcotest.run "mm_eval_kernels"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_route_table_equivalent;
          QCheck_alcotest.to_alcotest prop_dispatch_equivalent;
          QCheck_alcotest.to_alcotest prop_scheduler_equivalent;
          QCheck_alcotest.to_alcotest prop_fitness_equivalent;
        ] );
      ( "caching",
        [
          Alcotest.test_case "repeat evaluation hits the per-mode caches" `Quick
            test_repeat_evaluation_hits_cache;
          Alcotest.test_case "mutation keeps cached modes consistent" `Quick
            test_mutated_genome_consistent;
          Alcotest.test_case "caches die with their spec" `Quick
            test_caches_die_with_spec;
          Alcotest.test_case "pooled run shares the mode cache" `Quick
            test_pooled_run_shares_mode_cache;
        ] );
    ]
