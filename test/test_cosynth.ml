(* Tests for mm_cosynth: Spec, Mapping, Core_alloc, Transition_time,
   Fitness, Improvement, Synthesis. *)

module Task_type = Mm_taskgraph.Task_type
module Task = Mm_taskgraph.Task
module Graph = Mm_taskgraph.Graph
module Mobility = Mm_taskgraph.Mobility
module Pe = Mm_arch.Pe
module Cl = Mm_arch.Cl
module Arch = Mm_arch.Architecture
module Tech_lib = Mm_arch.Tech_lib
module Mode = Mm_omsm.Mode
module Transition = Mm_omsm.Transition
module Omsm = Mm_omsm.Omsm
module Spec = Mm_cosynth.Spec
module Mapping = Mm_cosynth.Mapping
module Core_alloc = Mm_cosynth.Core_alloc
module Transition_time = Mm_cosynth.Transition_time
module Fitness = Mm_cosynth.Fitness
module Improvement = Mm_cosynth.Improvement
module Synthesis = Mm_cosynth.Synthesis
module Engine = Mm_ga.Engine
module Prng = Mm_util.Prng
module F = Fixtures

let two_mode_spec ?probabilities () =
  F.spec_of_graphs ?probabilities [ F.chain_graph (); F.fork_graph () ]

(* --- Spec ----------------------------------------------------------------- *)

let test_spec_positions () =
  let spec = two_mode_spec () in
  Alcotest.(check int) "3 + 4 positions" 7 (Spec.n_positions spec);
  let p0 = Spec.position spec 0 and p4 = Spec.position spec 4 in
  Alcotest.(check int) "first mode" 0 p0.Spec.mode;
  Alcotest.(check int) "second mode" 1 p4.Spec.mode;
  Alcotest.(check int) "task within mode" 1 p4.Spec.task;
  Alcotest.(check int) "index_of inverse" 4 (Spec.index_of spec ~mode:1 ~task:1)

let test_spec_candidates () =
  let spec = two_mode_spec () in
  (* Every fixture type runs on both PEs. *)
  for i = 0 to Spec.n_positions spec - 1 do
    Alcotest.(check int) "two candidates" 2 (Array.length (Spec.candidates spec i))
  done;
  Alcotest.(check (option int)) "gene for PE1" (Some 1) (Spec.candidate_index spec 0 ~pe_id:1);
  Alcotest.(check (option int)) "unknown PE" None (Spec.candidate_index spec 0 ~pe_id:9)

let test_spec_rejects_unmappable () =
  (* A type with no implementation anywhere must be rejected. *)
  let orphan = Task_type.make ~id:9 ~name:"orphan" in
  let graph =
    Graph.make ~name:"g" ~tasks:[| Task.make ~id:0 ~name:"t" ~ty:orphan () |] ~edges:[]
  in
  let arch = F.arch () in
  match
    Spec.make ~omsm:(F.omsm_of_graphs [ graph ]) ~arch ~tech:(F.tech arch)
  with
  | exception Spec.Invalid _ -> ()
  | _ -> Alcotest.fail "unmappable task accepted"

let test_spec_core_area () =
  let ctx = Spec.compiled (two_mode_spec ()) in
  Alcotest.(check (float 1e-9)) "A on ASIC" 100.0 (Spec.core_area ctx ~pe:1 ~ty:0);
  Alcotest.(check (float 1e-9)) "sw has no area" 0.0 (Spec.core_area ctx ~pe:0 ~ty:0);
  Alcotest.(check (float 1e-9)) "unknown type" 0.0 (Spec.core_area ctx ~pe:1 ~ty:99);
  Alcotest.(check (float 1e-9)) "unknown PE" 0.0 (Spec.core_area ctx ~pe:9 ~ty:0);
  Alcotest.(check (array int)) "task types of mode 1" [| 0; 1; 1; 2 |]
    (Spec.task_types ctx 1)

(* --- Mapping ----------------------------------------------------------------- *)

let test_mapping_roundtrip () =
  let spec = two_mode_spec () in
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 50 do
    let genome = Mm_ga.Genome.random rng ~counts:(Spec.gene_counts spec) in
    let mapping = Mapping.of_genome spec genome in
    Alcotest.(check (array int)) "roundtrip" genome (Mapping.to_genome spec mapping)
  done

let test_mapping_queries () =
  let spec = two_mode_spec () in
  let mapping = Mapping.of_arrays spec [| [| 0; 1; 0 |]; [| 1; 1; 0; 0 |] |] in
  Alcotest.(check int) "pe_of" 1 (Mapping.pe_of mapping ~mode:0 ~task:1);
  Alcotest.(check (list int)) "tasks on PE1 mode1" [ 0; 1 ]
    (Mapping.tasks_on_pe mapping ~mode:1 ~pe:1);
  Alcotest.(check (list int)) "pes used" [ 0; 1 ] (Mapping.pes_used mapping ~mode:0)

let test_mapping_of_arrays_validates () =
  let spec = two_mode_spec () in
  (match Mapping.of_arrays spec [| [| 0; 0; 0 |] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong mode count accepted");
  match Mapping.of_arrays spec [| [| 0; 0; 9 |]; [| 0; 0; 0; 0 |] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown PE accepted"

(* --- Core_alloc ------------------------------------------------------------- *)

let mobilities_for spec mapping =
  let omsm = Spec.omsm spec in
  Array.init (Omsm.n_modes omsm) (fun mode ->
      let graph = Mode.graph (Omsm.mode omsm mode) in
      Mobility.compute graph
        ~exec_time:(fun task ->
          let pe = Arch.pe (Spec.arch spec) (Mapping.pe_of mapping ~mode ~task:(Task.id task)) in
          (Tech_lib.find_exn (Spec.tech spec) ~ty:(Task.ty task) ~pe).Tech_lib.exec_time)
        ~comm_time:(fun _ -> 0.0)
        ~horizon:(Mode.period (Omsm.mode omsm mode)))

let test_alloc_software_only () =
  let spec = two_mode_spec () in
  let mapping = Mapping.of_arrays spec [| [| 0; 0; 0 |]; [| 0; 0; 0; 0 |] |] in
  let alloc = Core_alloc.allocate spec mapping ~mobilities:(mobilities_for spec mapping) in
  Alcotest.(check (float 1e-9)) "no area used" 0.0 (Core_alloc.area_used alloc ~pe:1);
  Alcotest.(check bool) "feasible" true (Core_alloc.area_feasible alloc);
  Alcotest.(check int) "no instances" 0 (Core_alloc.instances alloc ~mode:0 ~pe:1 ~ty:0)

let test_alloc_asic_union_across_modes () =
  let spec = two_mode_spec () in
  (* Mode 0 puts type A (task 0) on the ASIC; mode 1 puts type C (task 3). *)
  let mapping = Mapping.of_arrays spec [| [| 1; 0; 0 |]; [| 0; 0; 0; 1 |] |] in
  let alloc = Core_alloc.allocate spec mapping ~mobilities:(mobilities_for spec mapping) in
  (* ASIC cores are static: both types occupy area in every mode. *)
  Alcotest.(check int) "A present in mode 1 too" 1
    (Core_alloc.instances alloc ~mode:1 ~pe:1 ~ty:0);
  Alcotest.(check (float 1e-9)) "area = 100 + 150" 250.0 (Core_alloc.area_used alloc ~pe:1);
  Alcotest.(check bool) "feasible" true (Core_alloc.area_feasible alloc)

let test_alloc_area_violation () =
  (* Tiny ASIC: every mapped type overflows. *)
  let spec =
    F.spec_of_graphs ~area:120.0 [ F.chain_graph (); F.fork_graph () ]
  in
  let mapping = Mapping.of_arrays spec [| [| 1; 1; 0 |]; [| 0; 0; 0; 0 |] |] in
  let alloc = Core_alloc.allocate spec mapping ~mobilities:(mobilities_for spec mapping) in
  (* Types A (100) + B (100) = 200 > 120. *)
  Alcotest.(check bool) "infeasible" false (Core_alloc.area_feasible alloc);
  Alcotest.(check (float 1e-9)) "excess" 80.0 (Core_alloc.area_excess alloc ~pe:1);
  Alcotest.(check bool) "ratio positive" true (Core_alloc.excess_ratio_sum alloc > 0.0)

let test_alloc_extra_instances_for_parallel_tasks () =
  (* Fork graph: two parallel type-B tasks on the ASIC with room to spare
     get a second core instance. *)
  let spec = F.spec_of_graphs [ F.fork_graph () ] in
  let mapping = Mapping.of_arrays spec [| [| 0; 1; 1; 0 |] |] in
  let alloc = Core_alloc.allocate spec mapping ~mobilities:(mobilities_for spec mapping) in
  Alcotest.(check int) "two B cores" 2 (Core_alloc.instances alloc ~mode:0 ~pe:1 ~ty:1);
  Alcotest.(check (float 1e-9)) "area doubles" 200.0 (Core_alloc.area_used alloc ~pe:1)

let test_alloc_extra_instances_respect_area () =
  (* Same, but the ASIC only fits one B core. *)
  let spec = F.spec_of_graphs ~area:150.0 [ F.fork_graph () ] in
  let mapping = Mapping.of_arrays spec [| [| 0; 1; 1; 0 |] |] in
  let alloc = Core_alloc.allocate spec mapping ~mobilities:(mobilities_for spec mapping) in
  Alcotest.(check int) "single B core" 1 (Core_alloc.instances alloc ~mode:0 ~pe:1 ~ty:1);
  Alcotest.(check bool) "feasible" true (Core_alloc.area_feasible alloc)

(* --- Transition_time ----------------------------------------------------------- *)

let fpga_spec () =
  (* GPP + FPGA; FPGA reconfigures at 1 ms per area unit. *)
  let gpp = Pe.make ~id:0 ~name:"GPP0" ~kind:Pe.Gpp ~static_power:1e-3 () in
  let fpga =
    Pe.make ~id:1 ~name:"FPGA1" ~kind:Pe.Fpga ~static_power:5e-4 ~area_capacity:300.0
      ~reconfig_time_per_area:1e-3 ()
  in
  let bus =
    Cl.make ~id:0 ~name:"BUS" ~connects:[ 0; 1 ] ~time_per_data:1e-3 ~transfer_power:0.05
      ~static_power:1e-4
  in
  let arch = Arch.make ~name:"fpga" ~pes:[ gpp; fpga ] ~cls:[ bus ] in
  let tech =
    List.fold_left
      (fun tech (ty, sw_ms, hw_ms, sw_p, hw_p, area) ->
        let tech =
          Tech_lib.add tech ~ty ~pe:gpp
            (Tech_lib.impl ~exec_time:(sw_ms *. 1e-3) ~dyn_power:sw_p ())
        in
        Tech_lib.add tech ~ty ~pe:fpga
          (Tech_lib.impl ~exec_time:(hw_ms *. 1e-3) ~dyn_power:hw_p ~area ()))
      Tech_lib.empty
      [
        (F.ty_a, 10.0, 1.0, 0.4, 0.004, 100.0);
        (F.ty_b, 20.0, 2.0, 0.5, 0.005, 100.0);
        (F.ty_c, 30.0, 3.0, 0.6, 0.006, 150.0);
      ]
  in
  let omsm =
    Omsm.make ~name:"fpga"
      ~modes:
        [
          Mode.make ~id:0 ~name:"O0" ~graph:(F.chain_graph ()) ~period:1.0 ~probability:0.5;
          Mode.make ~id:1 ~name:"O1" ~graph:(F.fork_graph ()) ~period:1.0 ~probability:0.5;
        ]
      ~transitions:
        [
          Transition.make ~src:0 ~dst:1 ~max_time:0.05;
          Transition.make ~src:1 ~dst:0 ~max_time:0.5;
        ]
  in
  Spec.make ~omsm ~arch ~tech

let test_transition_reconfig_time () =
  let spec = fpga_spec () in
  (* Mode 0 loads type A on the FPGA, mode 1 loads type B. *)
  let mapping = Mapping.of_arrays spec [| [| 1; 0; 0 |]; [| 0; 1; 0; 0 |] |] in
  let alloc = Core_alloc.allocate spec mapping ~mobilities:(mobilities_for spec mapping) in
  let entries = Transition_time.compute spec alloc in
  (match entries with
  | [ to_mode1; to_mode0 ] ->
    (* Entering mode 1 must load B (area 100 * 1 ms = 0.1 s) > 0.05 limit. *)
    Alcotest.(check (float 1e-9)) "reconfig 0->1" 0.1 to_mode1.Transition_time.time;
    Alcotest.(check bool) "violated" true (to_mode1.Transition_time.violation > 0.0);
    (* Entering mode 0 loads A (0.1 s) < 0.5 limit. *)
    Alcotest.(check (float 1e-9)) "reconfig 1->0" 0.1 to_mode0.Transition_time.time;
    Alcotest.(check (float 1e-9)) "no violation" 0.0 to_mode0.Transition_time.violation
  | _ -> Alcotest.fail "expected two entries");
  Alcotest.(check bool) "overall infeasible" false (Transition_time.feasible entries)

let test_transition_shared_type_no_reconfig () =
  let spec = fpga_spec () in
  (* Both modes use type A on the FPGA (chain task 0 / fork task 0):
     nothing to reconfigure. *)
  let mapping = Mapping.of_arrays spec [| [| 1; 0; 0 |]; [| 1; 0; 0; 0 |] |] in
  let alloc = Core_alloc.allocate spec mapping ~mobilities:(mobilities_for spec mapping) in
  let entries = Transition_time.compute spec alloc in
  List.iter
    (fun (e : Transition_time.entry) ->
      Alcotest.(check (float 1e-9)) "no reconfiguration" 0.0 e.Transition_time.time)
    entries;
  Alcotest.(check bool) "feasible" true (Transition_time.feasible entries)

let test_transition_asic_never_reconfigures () =
  let spec = two_mode_spec () in
  let mapping = Mapping.of_arrays spec [| [| 1; 1; 1 |]; [| 0; 0; 0; 0 |] |] in
  let alloc = Core_alloc.allocate spec mapping ~mobilities:(mobilities_for spec mapping) in
  List.iter
    (fun (e : Transition_time.entry) ->
      Alcotest.(check (float 1e-9)) "ASIC: zero" 0.0 e.Transition_time.time)
    (Transition_time.compute spec alloc)

(* --- Fitness: the Fig. 2 exact numbers ----------------------------------------- *)

let fig2_spec () =
  let table =
    [|
      ("A", 20.0, 10.0, 2.0, 0.010, 240.0);
      ("B", 28.0, 14.0, 2.2, 0.012, 300.0);
      ("C", 32.0, 16.0, 1.6, 0.023, 275.0);
      ("D", 26.0, 13.0, 3.1, 0.047, 245.0);
      ("E", 30.0, 15.0, 1.8, 0.015, 210.0);
      ("F", 24.0, 14.0, 2.2, 0.032, 280.0);
    |]
  in
  let types = Array.mapi (fun id (name, _, _, _, _, _) -> Task_type.make ~id ~name) table in
  let gpp = Pe.make ~id:0 ~name:"PE0" ~kind:Pe.Gpp ~static_power:0.0 () in
  let asic =
    Pe.make ~id:1 ~name:"PE1" ~kind:Pe.Asic ~static_power:0.0 ~area_capacity:600.0 ()
  in
  let bus =
    Cl.make ~id:0 ~name:"CL0" ~connects:[ 0; 1 ] ~time_per_data:1e-6 ~transfer_power:0.0
      ~static_power:0.0
  in
  let arch = Arch.make ~name:"fig2" ~pes:[ gpp; asic ] ~cls:[ bus ] in
  let tech =
    Array.fold_left
      (fun tech (i, (_, sw_ms, sw_mws, hw_ms, hw_mws, area)) ->
        let tech =
          Tech_lib.add tech ~ty:types.(i) ~pe:gpp
            (Tech_lib.impl ~exec_time:(sw_ms /. 1e3) ~dyn_power:(sw_mws /. sw_ms) ())
        in
        Tech_lib.add tech ~ty:types.(i) ~pe:asic
          (Tech_lib.impl ~exec_time:(hw_ms /. 1e3) ~dyn_power:(hw_mws /. hw_ms) ~area ()))
      Tech_lib.empty
      (Array.mapi (fun i row -> (i, row)) table)
  in
  let chain ~name ids =
    let tasks =
      Array.of_list
        (List.mapi (fun id ty_id -> Task.make ~id ~name:"t" ~ty:types.(ty_id) ()) ids)
    in
    let edges =
      List.init (Array.length tasks - 1) (fun i -> { Graph.src = i; dst = i + 1; data = 0.0 })
    in
    Graph.make ~name ~tasks ~edges
  in
  let omsm =
    Omsm.make ~name:"fig2"
      ~modes:
        [
          Mode.make ~id:0 ~name:"O1" ~graph:(chain ~name:"O1" [ 0; 1; 2 ]) ~period:1.0
            ~probability:0.1;
          Mode.make ~id:1 ~name:"O2" ~graph:(chain ~name:"O2" [ 3; 4; 5 ]) ~period:1.0
            ~probability:0.9;
        ]
      ~transitions:
        [
          Transition.make ~src:0 ~dst:1 ~max_time:1.0;
          Transition.make ~src:1 ~dst:0 ~max_time:1.0;
        ]
  in
  Spec.make ~omsm ~arch ~tech

let test_fig2_exact_powers () =
  let spec = fig2_spec () in
  let eval arrays =
    Fitness.evaluate_mapping Fitness.default_config spec (Mapping.of_arrays spec arrays)
  in
  let fig2b = eval [| [| 0; 0; 1 |]; [| 0; 1; 0 |] |] in
  let fig2c = eval [| [| 0; 0; 0 |]; [| 0; 1; 1 |] |] in
  Alcotest.(check (float 1e-7)) "paper 26.7158 mWs" 26.7158e-3 fig2b.Fitness.true_power;
  Alcotest.(check (float 1e-7)) "paper 15.7423 mWs" 15.7423e-3 fig2c.Fitness.true_power;
  Alcotest.(check bool) "both feasible" true
    (Fitness.feasible fig2b && Fitness.feasible fig2c);
  (* Under uniform weighting Fig. 2b evaluates better than Fig. 2c... *)
  let config_uniform = { Fitness.default_config with weighting = Fitness.Uniform } in
  let b_u = Fitness.evaluate_mapping config_uniform spec (Mapping.of_arrays spec [| [| 0; 0; 1 |]; [| 0; 1; 0 |] |]) in
  let c_u = Fitness.evaluate_mapping config_uniform spec (Mapping.of_arrays spec [| [| 0; 0; 0 |]; [| 0; 1; 1 |] |]) in
  Alcotest.(check bool) "uniform prefers 2b" true (b_u.Fitness.fitness < c_u.Fitness.fitness);
  (* ...and under true probabilities Fig. 2c wins. *)
  Alcotest.(check bool) "probabilities prefer 2c" true
    (fig2c.Fitness.fitness < fig2b.Fitness.fitness)

let test_fig2_infeasible_never_beats_feasible () =
  let spec = fig2_spec () in
  (* All six types in hardware: area 1550 > 600.  Its (tiny) power must
     not produce a better fitness than the feasible optimum. *)
  let all_hw =
    Fitness.evaluate_mapping Fitness.default_config spec
      (Mapping.of_arrays spec [| [| 1; 1; 1 |]; [| 1; 1; 1 |] |])
  in
  let feasible_opt =
    Fitness.evaluate_mapping Fitness.default_config spec
      (Mapping.of_arrays spec [| [| 0; 0; 0 |]; [| 0; 1; 1 |] |])
  in
  Alcotest.(check bool) "area infeasible" false all_hw.Fitness.area_feasible;
  Alcotest.(check bool) "power is lower" true
    (all_hw.Fitness.true_power < feasible_opt.Fitness.true_power);
  Alcotest.(check bool) "fitness is worse" true
    (all_hw.Fitness.fitness > feasible_opt.Fitness.fitness)

let test_fitness_timing_penalty () =
  (* Chain in software with an impossible period. *)
  let spec = F.spec_of_graphs ~period:5e-3 [ F.chain_graph () ] in
  let eval =
    Fitness.evaluate_mapping
      { Fitness.default_config with dvs = Fitness.No_dvs }
      spec
      (Mapping.of_arrays spec [| [| 0; 0; 0 |] |])
  in
  Alcotest.(check bool) "timing infeasible" false eval.Fitness.timing_feasible;
  Alcotest.(check bool) "penalised" true (eval.Fitness.timing_factor > 1.0);
  Alcotest.(check bool) "fitness above power" true
    (eval.Fitness.fitness > eval.Fitness.true_power)

let test_fitness_dvs_improves () =
  let spec = F.spec_of_graphs ~period:1.0 [ F.chain_graph () ] in
  let mapping = Mapping.of_arrays spec [| [| 0; 0; 0 |] |] in
  let nominal = Fitness.evaluate_mapping Fitness.default_config spec mapping in
  let dvs =
    Fitness.evaluate_mapping
      { Fitness.default_config with dvs = Fitness.Dvs Mm_dvs.Scaling.default_config }
      spec mapping
  in
  Alcotest.(check bool) "DVS reduces power" true
    (dvs.Fitness.true_power < nominal.Fitness.true_power)

let test_fitness_power_decomposition () =
  (* Hand-checkable single-mode system: chain A->B->C all on the GPP,
     period 100 ms, no DVS.
     Dynamic energy = 0.4·10m + 0.5·20m + 0.6·30m = 32 mJ -> 320 mW.
     Static: only the GPP (1 mW); ASIC and bus shut down. *)
  let spec = F.spec_of_graphs ~period:0.1 [ F.chain_graph () ] in
  let eval =
    Fitness.evaluate_mapping Fitness.default_config spec
      (Mapping.of_arrays spec [| [| 0; 0; 0 |] |])
  in
  let mp = eval.Fitness.mode_powers.(0) in
  Alcotest.(check (float 1e-9)) "dynamic power" 0.32 mp.Mm_energy.Power.dyn_power;
  Alcotest.(check (float 1e-12)) "static power" 1e-3 mp.Mm_energy.Power.static_power;
  Alcotest.(check (list int)) "ASIC shut down" [ 1 ] mp.Mm_energy.Power.shut_down_pes;
  Alcotest.(check (float 1e-9)) "Eq. (1) with one mode" 0.321 eval.Fitness.true_power;
  Alcotest.(check (float 1e-9)) "feasible fitness = power" eval.Fitness.true_power
    eval.Fitness.fitness

let test_fitness_comm_energy_counted () =
  (* Crossing the bus adds the transfer energy to the dynamic budget. *)
  let spec = F.spec_of_graphs ~period:0.1 [ F.chain_graph () ] in
  let all_sw =
    Fitness.evaluate_mapping Fitness.default_config spec
      (Mapping.of_arrays spec [| [| 0; 0; 0 |] |])
  in
  let crossing =
    Fitness.evaluate_mapping Fitness.default_config spec
      (Mapping.of_arrays spec [| [| 0; 1; 0 |] |])
  in
  (* B on the ASIC: dyn = 0.4·10m + 0.005·2m + 0.6·30m + 2 transfers
     (0.05 W · 1 ms each) = 4 + 0.01 + 18 + 0.1 mJ = 22.11 mJ -> 221.1 mW;
     static adds ASIC (0.5 mW) and bus (0.1 mW). *)
  let mp = crossing.Fitness.mode_powers.(0) in
  Alcotest.(check (float 1e-9)) "dyn with comm" 0.2211 mp.Mm_energy.Power.dyn_power;
  Alcotest.(check (float 1e-12)) "static all on" 1.6e-3 mp.Mm_energy.Power.static_power;
  Alcotest.(check bool) "offloading B is cheaper despite the bus" true
    (crossing.Fitness.true_power < all_sw.Fitness.true_power)

let test_evaluate_matches_evaluate_mapping () =
  let spec = two_mode_spec () in
  let rng = Prng.create ~seed:21 in
  for _ = 1 to 10 do
    let genome = Mm_ga.Genome.random rng ~counts:(Spec.gene_counts spec) in
    let via_genome = Fitness.evaluate Fitness.default_config spec genome in
    let via_mapping =
      Fitness.evaluate_mapping Fitness.default_config spec (Mapping.of_genome spec genome)
    in
    Alcotest.(check (float 1e-15)) "same fitness" via_genome.Fitness.fitness
      via_mapping.Fitness.fitness
  done

(* --- Improvement operators -------------------------------------------------------- *)

let snapshot_of infos = { Engine.generation = 1; fitnesses = [| 1.0 |]; infos }

let test_shutdown_improvement_frees_pe () =
  let spec = two_mode_spec () in
  let op = Improvement.shutdown spec in
  let rng = Prng.create ~seed:5 in
  let info =
    Fitness.evaluate Fitness.default_config spec
      (Mapping.to_genome spec (Mapping.of_arrays spec [| [| 0; 1; 0 |]; [| 0; 1; 0; 0 |] |]))
  in
  (* Run the operator many times; whenever it reports a change, some mode
     must have lost a PE relative to before. *)
  let changed = ref 0 in
  for _ = 1 to 100 do
    let genome =
      Mapping.to_genome spec (Mapping.of_arrays spec [| [| 0; 1; 0 |]; [| 0; 1; 0; 0 |] |])
    in
    if op.Engine.apply rng ~snapshot:(snapshot_of [| info |]) ~info genome then begin
      incr changed;
      let mapping = Mapping.of_genome spec genome in
      let pes_mode m = List.length (Mapping.pes_used mapping ~mode:m) in
      Alcotest.(check bool) "some mode now uses one PE" true
        (pes_mode 0 = 1 || pes_mode 1 = 1)
    end
  done;
  Alcotest.(check bool) "operator fires" true (!changed > 0)

let test_area_improvement_moves_to_software () =
  let spec = F.spec_of_graphs ~area:120.0 [ F.chain_graph () ] in
  let genome = Mapping.to_genome spec (Mapping.of_arrays spec [| [| 1; 1; 0 |] |]) in
  let info = Fitness.evaluate Fitness.default_config spec genome in
  Alcotest.(check bool) "area infeasible setup" false info.Fitness.area_feasible;
  let op = Improvement.area spec in
  let rng = Prng.create ~seed:6 in
  let hw_count g =
    let mapping = Mapping.of_genome spec g in
    List.length (Mapping.tasks_on_pe mapping ~mode:0 ~pe:1)
  in
  let fired = ref false in
  for _ = 1 to 50 do
    let g = Array.copy genome in
    if op.Engine.apply rng ~snapshot:(snapshot_of [| info |]) ~info g then begin
      fired := true;
      Alcotest.(check bool) "fewer hardware tasks" true (hw_count g < hw_count genome)
    end
  done;
  Alcotest.(check bool) "operator fires" true !fired

let test_area_improvement_skips_feasible () =
  let spec = F.spec_of_graphs [ F.chain_graph () ] in
  let genome = Mapping.to_genome spec (Mapping.of_arrays spec [| [| 0; 0; 0 |] |]) in
  let info = Fitness.evaluate Fitness.default_config spec genome in
  let op = Improvement.area spec in
  let rng = Prng.create ~seed:7 in
  Alcotest.(check bool) "no-op when feasible" false
    (op.Engine.apply rng ~snapshot:(snapshot_of [| info |]) ~info genome)

let test_timing_improvement_moves_to_hardware () =
  let spec = F.spec_of_graphs ~period:5e-3 [ F.chain_graph () ] in
  let genome = Mapping.to_genome spec (Mapping.of_arrays spec [| [| 0; 0; 0 |] |]) in
  let info = Fitness.evaluate Fitness.default_config spec genome in
  Alcotest.(check bool) "timing infeasible setup" false info.Fitness.timing_feasible;
  let op = Improvement.timing spec in
  let rng = Prng.create ~seed:8 in
  let fired = ref false in
  for _ = 1 to 50 do
    let g = Array.copy genome in
    if op.Engine.apply rng ~snapshot:(snapshot_of [| info |]) ~info g then begin
      fired := true;
      let mapping = Mapping.of_genome spec g in
      Alcotest.(check bool) "some task now on hardware" true
        (Mapping.tasks_on_pe mapping ~mode:0 ~pe:1 <> [])
    end
  done;
  Alcotest.(check bool) "operator fires" true !fired

let test_transition_improvement_leaves_fpga () =
  let spec = fpga_spec () in
  let genome =
    Mapping.to_genome spec (Mapping.of_arrays spec [| [| 1; 0; 0 |]; [| 0; 1; 0; 0 |] |])
  in
  let info = Fitness.evaluate Fitness.default_config spec genome in
  Alcotest.(check bool) "transition infeasible setup" false
    info.Fitness.transition_feasible;
  let op = Improvement.transition spec in
  let rng = Prng.create ~seed:9 in
  let fired = ref false in
  for _ = 1 to 50 do
    let g = Array.copy genome in
    if op.Engine.apply rng ~snapshot:(snapshot_of [| info |]) ~info g then fired := true
  done;
  Alcotest.(check bool) "operator fires" true !fired

let test_shutdown_noop_single_pe () =
  (* Every task of every mode already on one PE: nothing to free. *)
  let spec = two_mode_spec () in
  let genome = Mapping.to_genome spec (Mapping.of_arrays spec [| [| 0; 0; 0 |]; [| 0; 0; 0; 0 |] |]) in
  let info = Fitness.evaluate Fitness.default_config spec genome in
  let op = Improvement.shutdown spec in
  let rng = Prng.create ~seed:31 in
  for _ = 1 to 30 do
    let g = Array.copy genome in
    Alcotest.(check bool) "no-op" false
      (op.Engine.apply rng ~snapshot:(snapshot_of [| info |]) ~info g);
    Alcotest.(check (array int)) "genome untouched" genome g
  done

let test_transition_improvement_noop_when_feasible () =
  let spec = two_mode_spec () in
  let genome = Mapping.to_genome spec (Mapping.of_arrays spec [| [| 0; 1; 0 |]; [| 0; 0; 0; 0 |] |]) in
  let info = Fitness.evaluate Fitness.default_config spec genome in
  Alcotest.(check bool) "setup feasible" true info.Fitness.transition_feasible;
  let op = Improvement.transition spec in
  let rng = Prng.create ~seed:32 in
  Alcotest.(check bool) "no-op" false
    (op.Engine.apply rng ~snapshot:(snapshot_of [| info |]) ~info genome)

let prop_improvements_preserve_validity =
  QCheck.Test.make ~name:"improvement operators keep genomes valid" ~count:100
    QCheck.small_int
    (fun seed ->
      let spec = two_mode_spec () in
      let counts = Spec.gene_counts spec in
      let rng = Prng.create ~seed in
      let genome = Mm_ga.Genome.random rng ~counts in
      let info = Fitness.evaluate Fitness.default_config spec genome in
      List.for_all
        (fun (op : Fitness.eval Engine.improvement) ->
          let g = Array.copy genome in
          ignore (op.Engine.apply rng ~snapshot:(snapshot_of [| info |]) ~info g);
          Mm_ga.Genome.validate ~counts g)
        (Improvement.all spec))

(* --- Synthesis --------------------------------------------------------------- *)

let test_synthesis_finds_fig2_optima () =
  let spec = fig2_spec () in
  let run weighting =
    let config =
      { Synthesis.default_config with fitness = { Fitness.default_config with weighting } }
    in
    Synthesis.run ~config ~spec ~seed:3 ()
  in
  let baseline = run Fitness.Uniform in
  let proposed = run Fitness.True_probabilities in
  Alcotest.(check (float 1e-7)) "baseline = Fig. 2b power" 26.7158e-3
    (Synthesis.average_power baseline);
  Alcotest.(check (float 1e-7)) "proposed = Fig. 2c power" 15.7423e-3
    (Synthesis.average_power proposed)

let test_synthesis_deterministic () =
  let spec = two_mode_spec () in
  let config =
    {
      Synthesis.default_config with
      ga = { Engine.default_config with max_generations = 15 };
    }
  in
  let a = Synthesis.run ~config ~spec ~seed:42 () in
  let b = Synthesis.run ~config ~spec ~seed:42 () in
  Alcotest.(check (array int)) "same genome" a.Synthesis.genome b.Synthesis.genome;
  Alcotest.(check (float 1e-12)) "same power" (Synthesis.average_power a)
    (Synthesis.average_power b)

let test_software_anchors () =
  let spec = two_mode_spec () in
  let anchors = Synthesis.software_anchors spec in
  Alcotest.(check bool) "at least one anchor" true (anchors <> []);
  List.iter
    (fun genome ->
      Alcotest.(check bool) "valid genome" true
        (Mm_ga.Genome.validate ~counts:(Spec.gene_counts spec) genome);
      let mapping = Mapping.of_genome spec genome in
      (* Every task lands on a software PE: no core area used. *)
      let eval = Fitness.evaluate_mapping Fitness.default_config spec mapping in
      Alcotest.(check bool) "zero-area" true (Core_alloc.area_feasible eval.Fitness.alloc);
      Alcotest.(check (float 1e-9)) "nothing on the ASIC" 0.0
        (Core_alloc.area_used eval.Fitness.alloc ~pe:1))
    anchors

let test_greedy_timing_anchor_repairs () =
  (* A spec whose all-software mapping misses deadlines: the greedy
     anchor must offload enough work to hardware to become feasible. *)
  let spec = F.spec_of_graphs ~period:45e-3 [ F.chain_graph () ] in
  let all_sw =
    Fitness.evaluate_mapping Fitness.default_config spec
      (Mapping.of_arrays spec [| [| 0; 0; 0 |] |])
  in
  Alcotest.(check bool) "software-only is late" false all_sw.Fitness.timing_feasible;
  match Synthesis.greedy_timing_anchor spec with
  | None -> Alcotest.fail "no anchor"
  | Some genome ->
    let eval = Fitness.evaluate Fitness.default_config spec genome in
    Alcotest.(check bool) "repaired to feasibility" true eval.Fitness.timing_feasible;
    Alcotest.(check bool) "fully feasible" true (Fitness.feasible eval)

let test_anchors_deduplicated_and_valid () =
  let spec = two_mode_spec () in
  let anchors = Synthesis.anchors spec in
  Alcotest.(check bool) "non-empty" true (anchors <> []);
  Alcotest.(check int) "deduplicated" (List.length anchors)
    (List.length (List.sort_uniq compare anchors));
  List.iter
    (fun genome ->
      Alcotest.(check bool) "valid" true
        (Mm_ga.Genome.validate ~counts:(Spec.gene_counts spec) genome))
    anchors

let test_synthesis_without_improvements () =
  let spec = two_mode_spec () in
  let config =
    {
      Synthesis.default_config with
      use_improvements = false;
      ga = { Engine.default_config with max_generations = 15 };
    }
  in
  let result = Synthesis.run ~config ~spec ~seed:1 () in
  Alcotest.(check bool) "still produces a result" true
    (Synthesis.average_power result > 0.0)

(* --- Annealing -------------------------------------------------------------- *)

let test_annealing_finds_fig2_optimum () =
  let spec = fig2_spec () in
  let result = Annealing.run ~spec ~seed:3 () in
  (* SA over the same fitness must reach the Fig. 2c optimum on this tiny
     landscape. *)
  Alcotest.(check (float 1e-7)) "fig2c power" 15.7423e-3
    result.Annealing.eval.Fitness.true_power

let test_annealing_deterministic () =
  let spec = two_mode_spec () in
  let config = { Annealing.default_config with Annealing.steps = 500 } in
  let a = Annealing.run ~config ~spec ~seed:5 () in
  let b = Annealing.run ~config ~spec ~seed:5 () in
  Alcotest.(check (array int)) "same genome" a.Annealing.genome b.Annealing.genome

let test_annealing_validation () =
  let spec = two_mode_spec () in
  (match Annealing.run ~config:{ Annealing.default_config with Annealing.steps = 0 } ~spec ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero steps accepted");
  match
    Annealing.run ~config:{ Annealing.default_config with Annealing.cooling = 1.5 } ~spec
      ~seed:1 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad cooling accepted"

let test_annealing_genome_valid () =
  let spec = two_mode_spec () in
  let config = { Annealing.default_config with Annealing.steps = 300 } in
  let result = Annealing.run ~config ~spec ~seed:7 () in
  Alcotest.(check bool) "valid genome" true
    (Mm_ga.Genome.validate ~counts:(Spec.gene_counts spec) result.Annealing.genome);
  Alcotest.(check bool) "some moves accepted" true (result.Annealing.accepted > 0)

let () =
  Alcotest.run "mm_cosynth"
    [
      ( "spec",
        [
          Alcotest.test_case "positions" `Quick test_spec_positions;
          Alcotest.test_case "candidates" `Quick test_spec_candidates;
          Alcotest.test_case "unmappable rejected" `Quick test_spec_rejects_unmappable;
          Alcotest.test_case "core area" `Quick test_spec_core_area;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "roundtrip" `Quick test_mapping_roundtrip;
          Alcotest.test_case "queries" `Quick test_mapping_queries;
          Alcotest.test_case "of_arrays validates" `Quick test_mapping_of_arrays_validates;
        ] );
      ( "core-alloc",
        [
          Alcotest.test_case "software only" `Quick test_alloc_software_only;
          Alcotest.test_case "asic union" `Quick test_alloc_asic_union_across_modes;
          Alcotest.test_case "area violation" `Quick test_alloc_area_violation;
          Alcotest.test_case "extra instances" `Quick
            test_alloc_extra_instances_for_parallel_tasks;
          Alcotest.test_case "extras respect area" `Quick
            test_alloc_extra_instances_respect_area;
        ] );
      ( "transition-time",
        [
          Alcotest.test_case "reconfiguration" `Quick test_transition_reconfig_time;
          Alcotest.test_case "shared type" `Quick test_transition_shared_type_no_reconfig;
          Alcotest.test_case "asic static" `Quick test_transition_asic_never_reconfigures;
        ] );
      ( "fitness",
        [
          Alcotest.test_case "fig2 exact powers" `Quick test_fig2_exact_powers;
          Alcotest.test_case "infeasible never wins" `Quick
            test_fig2_infeasible_never_beats_feasible;
          Alcotest.test_case "timing penalty" `Quick test_fitness_timing_penalty;
          Alcotest.test_case "dvs improves" `Quick test_fitness_dvs_improves;
          Alcotest.test_case "power decomposition" `Quick test_fitness_power_decomposition;
          Alcotest.test_case "comm energy counted" `Quick test_fitness_comm_energy_counted;
          Alcotest.test_case "evaluate = evaluate_mapping" `Quick
            test_evaluate_matches_evaluate_mapping;
        ] );
      ( "improvement",
        [
          Alcotest.test_case "shutdown" `Quick test_shutdown_improvement_frees_pe;
          Alcotest.test_case "area" `Quick test_area_improvement_moves_to_software;
          Alcotest.test_case "area skips feasible" `Quick test_area_improvement_skips_feasible;
          Alcotest.test_case "timing" `Quick test_timing_improvement_moves_to_hardware;
          Alcotest.test_case "transition" `Quick test_transition_improvement_leaves_fpga;
          Alcotest.test_case "shutdown no-op" `Quick test_shutdown_noop_single_pe;
          Alcotest.test_case "transition no-op" `Quick
            test_transition_improvement_noop_when_feasible;
          QCheck_alcotest.to_alcotest prop_improvements_preserve_validity;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "finds fig2 optima" `Slow test_synthesis_finds_fig2_optima;
          Alcotest.test_case "deterministic" `Quick test_synthesis_deterministic;
          Alcotest.test_case "software anchors" `Quick test_software_anchors;
          Alcotest.test_case "greedy anchor repairs" `Quick test_greedy_timing_anchor_repairs;
          Alcotest.test_case "anchors deduplicated" `Quick test_anchors_deduplicated_and_valid;
          Alcotest.test_case "without improvements" `Quick test_synthesis_without_improvements;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "finds fig2 optimum" `Slow test_annealing_finds_fig2_optimum;
          Alcotest.test_case "deterministic" `Quick test_annealing_deterministic;
          Alcotest.test_case "validation" `Quick test_annealing_validation;
          Alcotest.test_case "genome valid" `Quick test_annealing_genome_valid;
        ] );
    ]
