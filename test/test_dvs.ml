(* Tests for mm_dvs: Hw_transform and Scaling.

   Fixture recap: GPP0 carries a 2.0/1.0 V rail with Vt = 0, so dropping
   to half voltage doubles execution time and quarters dynamic energy. *)

module Graph = Mm_taskgraph.Graph
module Arch = Mm_arch.Architecture
module Voltage = Mm_arch.Voltage
module List_scheduler = Mm_sched.List_scheduler
module Schedule = Mm_sched.Schedule
module Resource = Mm_sched.Resource
module Hw = Mm_dvs.Hw_transform
module Scaling = Mm_dvs.Scaling
module F = Fixtures

let schedule ?(arch = F.arch ()) ?(mapping = [| 0; 0; 0 |]) ?(period = 1.0)
    ?(instances = fun ~pe:_ ~ty:_ -> 1) ?(graph = F.chain_graph ()) () =
  List_scheduler.run
    (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech:(F.tech arch) ~mapping
       ~instances ~period ())

let hw_slot ~task ~instance ~start ~duration ~power =
  ( {
      Schedule.task;
      resource = Resource.Hw_core { pe = 1; ty = 0; instance };
      start;
      duration;
    },
    power )

(* --- Hw_transform ---------------------------------------------------------- *)

let test_fig5_segments () =
  (* Two overlapping tasks on two cores: three segments. *)
  let slots =
    [
      hw_slot ~task:0 ~instance:0 ~start:0.0 ~duration:4.0 ~power:0.01;
      hw_slot ~task:1 ~instance:1 ~start:2.0 ~duration:4.0 ~power:0.02;
    ]
  in
  match Hw.segments ~slots with
  | [ s0; s1; s2 ] ->
    Alcotest.(check (float 1e-9)) "s0 duration" 2.0 s0.Hw.duration;
    Alcotest.(check (float 1e-9)) "s0 power" 0.01 s0.Hw.power;
    Alcotest.(check (float 1e-9)) "s1 power summed" 0.03 s1.Hw.power;
    Alcotest.(check (float 1e-9)) "s2 power" 0.02 s2.Hw.power;
    Alcotest.(check (list int)) "s1 runs both" [ 0; 1 ] (List.sort compare s1.Hw.running);
    Alcotest.(check (list int)) "s1 finishes τ0" [ 0 ] s1.Hw.finishing;
    Alcotest.(check (list int)) "s0 starts τ0" [ 0 ] s0.Hw.starting
  | segs -> Alcotest.fail (Printf.sprintf "expected 3 segments, got %d" (List.length segs))

let test_segments_skip_idle () =
  let slots =
    [
      hw_slot ~task:0 ~instance:0 ~start:0.0 ~duration:1.0 ~power:0.01;
      hw_slot ~task:1 ~instance:0 ~start:5.0 ~duration:1.0 ~power:0.01;
    ]
  in
  let segs = Hw.segments ~slots in
  Alcotest.(check int) "idle gap skipped" 2 (List.length segs);
  Alcotest.(check (float 1e-9)) "second starts at 5" 5.0 (List.nth segs 1).Hw.start

let test_segments_preserve_energy () =
  let slots =
    [
      hw_slot ~task:0 ~instance:0 ~start:0.0 ~duration:2.0 ~power:0.012;
      hw_slot ~task:1 ~instance:1 ~start:0.0 ~duration:3.0 ~power:0.02;
      hw_slot ~task:2 ~instance:0 ~start:2.0 ~duration:2.5 ~power:0.014;
    ]
  in
  let direct =
    List.fold_left
      (fun acc ((s : Schedule.task_slot), p) -> acc +. (p *. s.Schedule.duration))
      0.0 slots
  in
  Alcotest.(check (float 1e-9)) "energy preserved" direct
    (Hw.total_energy_nominal (Hw.segments ~slots))

let test_first_last_segment () =
  let slots =
    [
      hw_slot ~task:0 ~instance:0 ~start:0.0 ~duration:4.0 ~power:0.01;
      hw_slot ~task:1 ~instance:1 ~start:2.0 ~duration:4.0 ~power:0.02;
    ]
  in
  let segs = Hw.segments ~slots in
  Alcotest.(check int) "τ0 first" 0 (Hw.first_segment_of segs 0);
  Alcotest.(check int) "τ0 last" 1 (Hw.last_segment_of segs 0);
  Alcotest.(check int) "τ1 first" 1 (Hw.first_segment_of segs 1);
  Alcotest.(check int) "τ1 last" 2 (Hw.last_segment_of segs 1);
  Alcotest.check_raises "unknown task" Not_found (fun () ->
      ignore (Hw.first_segment_of segs 9))

let prop_segments_energy_preserved =
  QCheck.Test.make ~name:"serialisation preserves nominal energy" ~count:200
    QCheck.(small_int)
    (fun seed ->
      let rng = Mm_util.Prng.create ~seed in
      let n = 1 + Mm_util.Prng.int rng 8 in
      (* Random slots on 3 core instances, sequential per instance. *)
      let next_free = Array.make 3 0.0 in
      let slots =
        List.init n (fun task ->
            let instance = Mm_util.Prng.int rng 3 in
            let gap = Mm_util.Prng.float rng 2.0 in
            let duration = 0.1 +. Mm_util.Prng.float rng 3.0 in
            let start = next_free.(instance) +. gap in
            next_free.(instance) <- start +. duration;
            hw_slot ~task ~instance ~start ~duration
              ~power:(0.001 +. Mm_util.Prng.float rng 0.05))
      in
      let direct =
        List.fold_left
          (fun acc ((s : Schedule.task_slot), p) -> acc +. (p *. s.Schedule.duration))
          0.0 slots
      in
      let via_segments = Hw.total_energy_nominal (Hw.segments ~slots) in
      Float.abs (direct -. via_segments) < 1e-9 *. Float.max 1.0 direct)

(* --- Scaling: software tasks ----------------------------------------------- *)

let chain_energy_at_vmax = (0.4 *. 10e-3) +. (0.5 *. 20e-3) +. (0.6 *. 30e-3)

let test_nominal_energy () =
  let graph = F.chain_graph () in
  let arch = F.arch () in
  let sched = schedule ~arch ~graph () in
  let result = Scaling.nominal ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
  Alcotest.(check bool) "feasible" true result.Scaling.feasible;
  Alcotest.(check (float 1e-12)) "nominal energy" chain_energy_at_vmax
    result.Scaling.total_dyn_energy;
  Alcotest.(check int) "no segments" 0 (List.length result.Scaling.hw_segments)

let test_scaling_uses_slack () =
  (* Chain needs 60 ms at Vmax; with period 1 s there is plenty of slack,
     so every task drops to 1.0 V: 2x time (still < 1 s), 1/4 energy. *)
  let graph = F.chain_graph () in
  let arch = F.arch () in
  let sched = schedule ~arch ~graph ~period:1.0 () in
  let result = Scaling.run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
  Alcotest.(check bool) "feasible" true result.Scaling.feasible;
  Alcotest.(check (float 1e-12)) "quartered energy" (chain_energy_at_vmax /. 4.0)
    result.Scaling.total_dyn_energy;
  Array.iter
    (fun v -> Alcotest.(check (float 1e-9)) "all at 1.0V" 1.0 v)
    result.Scaling.task_voltages;
  (* Stretched schedule: 20 + 40 + 60 = 120 ms. *)
  Alcotest.(check (float 1e-9)) "stretched finish" 120e-3
    result.Scaling.stretched_finish.(2)

let test_scaling_respects_tight_period () =
  (* Period 60 ms: zero slack, nothing can be scaled. *)
  let graph = F.chain_graph () in
  let arch = F.arch () in
  let sched = schedule ~arch ~graph ~period:60e-3 () in
  let result = Scaling.run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
  Alcotest.(check bool) "feasible" true result.Scaling.feasible;
  Alcotest.(check (float 1e-12)) "no scaling possible" chain_energy_at_vmax
    result.Scaling.total_dyn_energy

let test_scaling_partial_slack () =
  (* Period 80 ms: 20 ms of slack.  Scaling τ0 (A, 10 ms) to 1.0 V adds
     10 ms; scaling τ1/τ2 would add 20/30 ms.  The greedy picks the best
     gain/delay ratios that fit: only one of τ0 (+10) or τ1 (+20) or a
     combination within 20 ms — τ1 alone adds exactly 20 ms and saves
     0.5*20m*3/4 = 7.5 mJ; τ0 saves 3 mJ for 10 ms.  Ratios are equal
     (0.375 mW), ties break toward the larger absolute gain: τ1. *)
  let graph = F.chain_graph () in
  let arch = F.arch () in
  let sched = schedule ~arch ~graph ~period:80e-3 () in
  let result = Scaling.run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
  Alcotest.(check bool) "feasible" true result.Scaling.feasible;
  Alcotest.(check (float 1e-9)) "τ1 scaled" 1.0 result.Scaling.task_voltages.(1);
  Alcotest.(check (float 1e-9)) "τ0 not scaled" 2.0 result.Scaling.task_voltages.(0);
  Alcotest.(check (float 1e-9)) "τ2 not scaled" 2.0 result.Scaling.task_voltages.(2);
  let expected =
    (0.4 *. 10e-3) +. (0.5 *. 20e-3 /. 4.0) +. (0.6 *. 30e-3)
  in
  Alcotest.(check (float 1e-12)) "energy" expected result.Scaling.total_dyn_energy

let test_infeasible_schedule_not_scaled () =
  (* Period 50 ms < 60 ms makespan: infeasible, scaling refuses. *)
  let graph = F.chain_graph () in
  let arch = F.arch () in
  let sched = schedule ~arch ~graph ~period:50e-3 () in
  let result = Scaling.run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
  Alcotest.(check bool) "not feasible" false result.Scaling.feasible;
  Alcotest.(check (float 1e-12)) "energy unchanged" chain_energy_at_vmax
    result.Scaling.total_dyn_energy

let test_config_disables_software_scaling () =
  let graph = F.chain_graph () in
  let arch = F.arch () in
  let sched = schedule ~arch ~graph ~period:1.0 () in
  let result =
    Scaling.run
      ~config:{ Scaling.default_config with Scaling.scale_software = false }
      ~graph ~arch ~tech:(F.tech arch) ~schedule:sched ()
  in
  Alcotest.(check (float 1e-12)) "software untouched" chain_energy_at_vmax
    result.Scaling.total_dyn_energy

let test_scaling_multi_level_descent () =
  (* A three-level rail (2.0 / 1.5 / 1.0, Vt = 0): delay factors 1, 4/3,
     2; energy factors 1, 0.5625, 0.25.  A single 10 ms task of type A
     (0.4 W) with period 15 ms can only afford the middle level. *)
  let rail = Mm_arch.Voltage.make ~levels:[ 2.0; 1.5; 1.0 ] ~threshold:0.0 in
  let gpp =
    Mm_arch.Pe.make ~id:0 ~name:"GPP0" ~kind:Mm_arch.Pe.Gpp ~static_power:0.0 ~rail ()
  in
  let arch = Arch.make ~name:"tri" ~pes:[ gpp ] ~cls:[] in
  let tech =
    Mm_arch.Tech_lib.add Mm_arch.Tech_lib.empty ~ty:F.ty_a ~pe:gpp
      (Mm_arch.Tech_lib.impl ~exec_time:10e-3 ~dyn_power:0.4 ())
  in
  let graph =
    Mm_taskgraph.Graph.make ~name:"single" ~tasks:[| F.task 0 F.ty_a |] ~edges:[]
  in
  let sched =
    Mm_sched.List_scheduler.run
      (Mm_sched.List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech
         ~mapping:[| 0 |]
         ~instances:(fun ~pe:_ ~ty:_ -> 1)
         ~period:15e-3 ())
  in
  let result = Scaling.run ~graph ~arch ~tech ~schedule:sched () in
  Alcotest.(check (float 1e-9)) "middle level" 1.5 result.Scaling.task_voltages.(0);
  Alcotest.(check (float 1e-12)) "energy at 0.5625x" (0.4 *. 10e-3 *. 0.5625)
    result.Scaling.total_dyn_energy;
  (* 10 ms * 4/3 = 13.33 ms <= 15 ms. *)
  Alcotest.(check bool) "fits the period" true
    (result.Scaling.stretched_finish.(0) <= 15e-3 +. 1e-9)

(* --- Even-slack baseline ----------------------------------------------------- *)

(* The EVEN baseline lives in the seed oracle only; its greedy
   counterpart there is bit-identical to [Scaling.run] (heap-vs-reference
   below). *)
let even_run ~graph ~arch ~tech ~schedule =
  Scaling_oracle.run ~strategy:Scaling_oracle.Even_slack ~graph ~arch ~tech ~schedule ()

let test_even_slack_ample_slack_matches_greedy () =
  (* Period 1 s: both strategies drop everything to the bottom level. *)
  let graph = F.chain_graph () in
  let arch = F.arch () in
  let sched = schedule ~arch ~graph ~period:1.0 () in
  let even = even_run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched in
  Alcotest.(check (float 1e-12)) "quartered too" (chain_energy_at_vmax /. 4.0)
    even.Scaling.total_dyn_energy

let test_even_slack_wastes_discrete_slack () =
  (* Period 80 ms: the uniform factor is 80/60 = 1.33, below the only
     available slowdown (2.0), so EVEN scales nothing — while the greedy
     gradient converts the same slack into a 7.5 mJ saving on τ1.  This
     is precisely the power-variation argument of [10]. *)
  let graph = F.chain_graph () in
  let arch = F.arch () in
  let sched = schedule ~arch ~graph ~period:80e-3 () in
  let even = even_run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched in
  let greedy = Scaling.run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
  Alcotest.(check (float 1e-12)) "even saves nothing" chain_energy_at_vmax
    even.Scaling.total_dyn_energy;
  Alcotest.(check bool) "greedy beats even" true
    (greedy.Scaling.total_dyn_energy < even.Scaling.total_dyn_energy)

let test_even_slack_meets_deadlines () =
  let graph = F.fork_graph () in
  let arch = F.arch ~dvs_asic:true () in
  let sched = schedule ~arch ~graph ~mapping:[| 0; 1; 1; 0 |] ~period:0.2 () in
  let even = even_run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched in
  Alcotest.(check bool) "feasible" true even.Scaling.feasible;
  Array.iter
    (fun finish -> Alcotest.(check bool) "within period" true (finish <= 0.2 +. 1e-9))
    even.Scaling.stretched_finish

let prop_greedy_never_worse_than_even =
  QCheck.Test.make ~name:"greedy gradient <= even slack energy" ~count:100
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, graph_kind) ->
      let graph =
        match graph_kind with
        | 0 -> F.chain_graph ()
        | 1 -> F.fork_graph ()
        | _ -> F.parallel_graph ()
      in
      let rng = Mm_util.Prng.create ~seed in
      let mapping = Array.init (Graph.n_tasks graph) (fun _ -> Mm_util.Prng.int rng 2) in
      let period = 0.05 +. Mm_util.Prng.float rng 0.3 in
      let arch = F.arch ~dvs_asic:(Mm_util.Prng.bool rng) () in
      let sched =
        List_scheduler.run
          (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech:(F.tech arch)
             ~mapping
             ~instances:(fun ~pe:_ ~ty:_ -> 2)
             ~period ())
      in
      let even = even_run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched in
      let greedy = Scaling.run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
      greedy.Scaling.total_dyn_energy <= even.Scaling.total_dyn_energy +. 1e-12)

(* --- Scaling: hardware components (Fig. 5 path) ---------------------------- *)

let test_hw_component_scaled_through_segments () =
  (* Both B tasks on a DVS ASIC with 2 cores, no other work, period 1 s:
     the whole component scales to 1.0 V. *)
  let arch = F.arch ~dvs_asic:true () in
  let graph = F.parallel_graph () in
  let sched =
    schedule ~arch ~graph ~mapping:[| 1; 1 |]
      ~instances:(fun ~pe ~ty:_ -> if pe = 1 then 2 else 1)
      ~period:1.0 ()
  in
  let result = Scaling.run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
  Alcotest.(check bool) "feasible" true result.Scaling.feasible;
  Alcotest.(check bool) "has segments" true (result.Scaling.hw_segments <> []);
  List.iter
    (fun (hs : Scaling.hw_segment) ->
      Alcotest.(check (float 1e-9)) "segment at vmin" 1.0 hs.Scaling.voltage)
    result.Scaling.hw_segments;
  (* Nominal energy 2 * 0.005 * 2ms = 20 µJ; quartered at half voltage. *)
  Alcotest.(check (float 1e-12)) "quartered hw energy" (2.0 *. 0.005 *. 2e-3 /. 4.0)
    result.Scaling.total_dyn_energy

let test_hw_scaling_disabled_by_config () =
  let arch = F.arch ~dvs_asic:true () in
  let graph = F.parallel_graph () in
  let sched = schedule ~arch ~graph ~mapping:[| 1; 1 |] ~period:1.0 () in
  let result =
    Scaling.run
      ~config:{ Scaling.default_config with Scaling.scale_hardware = false }
      ~graph ~arch ~tech:(F.tech arch) ~schedule:sched ()
  in
  Alcotest.(check int) "no segments" 0 (List.length result.Scaling.hw_segments);
  Alcotest.(check (float 1e-12)) "nominal hw energy" (2.0 *. 0.005 *. 2e-3)
    result.Scaling.total_dyn_energy

let test_hw_segment_energy_prorated () =
  (* Energy bookkeeping: per-task energies must sum to the segment total. *)
  let arch = F.arch ~dvs_asic:true () in
  let graph = F.parallel_graph () in
  let sched =
    schedule ~arch ~graph ~mapping:[| 1; 1 |]
      ~instances:(fun ~pe ~ty:_ -> if pe = 1 then 2 else 1)
      ~period:1.0 ()
  in
  let result = Scaling.run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
  let task_sum = Array.fold_left ( +. ) 0.0 result.Scaling.task_energy in
  let segment_sum =
    List.fold_left (fun acc (hs : Scaling.hw_segment) -> acc +. hs.Scaling.energy) 0.0
      result.Scaling.hw_segments
  in
  Alcotest.(check (float 1e-15)) "prorated share sums" segment_sum task_sum

(* --- Heap fast path vs seed reference (float-bit equivalence) --------------- *)

(* The flat heap implementation behind [Scaling.run] must reproduce the
   seed's greedy choices — and hence every output float — bit for bit
   (DESIGN.md §13).  Platforms are randomised over 1–4 PEs and rails of
   1–4 discrete levels; both strategies and all config toggles are
   exercised, plus the degenerate shapes (zero slack, single slot). *)

let fuzz_count default =
  match Option.bind (Sys.getenv_opt "MM_FUZZ_COUNT") int_of_string_opt with
  | Some n -> n
  | None -> default

let bits = Int64.bits_of_float
let float_bits_equal a b = bits a = bits b

let farray_bits_equal a b =
  Array.length a = Array.length b && Array.for_all2 float_bits_equal a b

let results_bit_identical (a : Scaling.t) (b : Scaling.t) =
  a.Scaling.feasible = b.Scaling.feasible
  && farray_bits_equal a.Scaling.task_voltages b.Scaling.task_voltages
  && farray_bits_equal a.Scaling.task_energy b.Scaling.task_energy
  && farray_bits_equal a.Scaling.stretched_finish b.Scaling.stretched_finish
  && float_bits_equal a.Scaling.comm_energy b.Scaling.comm_energy
  && float_bits_equal a.Scaling.total_dyn_energy b.Scaling.total_dyn_energy
  && List.length a.Scaling.hw_segments = List.length b.Scaling.hw_segments
  && List.for_all2
       (fun (x : Scaling.hw_segment) (y : Scaling.hw_segment) ->
         x.Scaling.pe = y.Scaling.pe
         && x.Scaling.segment = y.Scaling.segment
         && float_bits_equal x.Scaling.voltage y.Scaling.voltage
         && float_bits_equal x.Scaling.scaled_duration y.Scaling.scaled_duration
         && float_bits_equal x.Scaling.energy y.Scaling.energy)
       a.Scaling.hw_segments b.Scaling.hw_segments

let random_rail rng =
  (* 1–4 strictly descending levels, threshold well below Vmin. *)
  let n_levels = 1 + Mm_util.Prng.int rng 4 in
  let vmax = 1.8 +. Mm_util.Prng.float rng 0.8 in
  let v = ref vmax in
  let levels =
    List.init n_levels (fun k ->
        if k > 0 then v := !v -. (0.15 +. Mm_util.Prng.float rng 0.2);
        !v)
  in
  Voltage.make ~levels ~threshold:(Mm_util.Prng.float rng 0.3)

let random_platform rng =
  let module Pe = Mm_arch.Pe in
  let module Cl = Mm_arch.Cl in
  let module Tech_lib = Mm_arch.Tech_lib in
  let n_pes = 1 + Mm_util.Prng.int rng 4 in
  let pes =
    List.init n_pes (fun id ->
        let name = Printf.sprintf "PE%d" id in
        let hardware = id > 0 && Mm_util.Prng.bool rng in
        if hardware then
          if Mm_util.Prng.bool rng then
            Pe.make ~id ~name ~kind:Pe.Asic ~static_power:1e-4 ~area_capacity:600.0
              ~rail:(random_rail rng) ()
          else Pe.make ~id ~name ~kind:Pe.Asic ~static_power:1e-4 ~area_capacity:600.0 ()
        else if Mm_util.Prng.bool rng then
          Pe.make ~id ~name ~kind:Pe.Gpp ~static_power:1e-3 ~rail:(random_rail rng) ()
        else Pe.make ~id ~name ~kind:Pe.Gpp ~static_power:1e-3 ())
  in
  let cls =
    if n_pes < 2 then []
    else
      [
        Cl.make ~id:0 ~name:"BUS" ~connects:(List.init n_pes Fun.id)
          ~time_per_data:(0.1e-3 +. Mm_util.Prng.float rng 1e-3)
          ~transfer_power:0.05 ~static_power:1e-4;
      ]
  in
  let arch = Arch.make ~name:"rand" ~pes ~cls in
  let tech =
    List.fold_left
      (fun tech ty ->
        List.fold_left
          (fun tech pe ->
            let hw = Pe.is_hardware pe in
            let exec_time = (1.0 +. Mm_util.Prng.float rng 20.0) *. 1e-3 in
            let exec_time = if hw then exec_time /. 8.0 else exec_time in
            let dyn_power = 0.01 +. Mm_util.Prng.float rng 0.5 in
            let impl =
              if hw then
                Tech_lib.impl ~exec_time ~dyn_power
                  ~area:(50.0 +. Mm_util.Prng.float rng 120.0)
                  ()
              else Tech_lib.impl ~exec_time ~dyn_power ()
            in
            Tech_lib.add tech ~ty ~pe impl)
          tech pes)
      Tech_lib.empty [ F.ty_a; F.ty_b; F.ty_c ]
  in
  let dispatch = Tech_lib.dispatch tech ~n_types:3 ~n_pes in
  (arch, tech, dispatch)

(* [zero_data_pct] makes that share of the edges carry no data (drawn
   only when positive, so the default leaves the random stream alone);
   [max_tasks] bounds the task count (default 7, the stream every
   property had before it existed). *)
let random_graph ?(zero_data_pct = 0) ?(max_tasks = 7) rng =
  let n = 1 + Mm_util.Prng.int rng max_tasks in
  let tys = [| F.ty_a; F.ty_b; F.ty_c |] in
  let tasks =
    Array.init n (fun id ->
        let deadline =
          if Mm_util.Prng.int rng 4 = 0 then
            Some (0.02 +. Mm_util.Prng.float rng 0.3)
          else None
        in
        F.task ?deadline id tys.(Mm_util.Prng.int rng 3))
  in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Mm_util.Prng.int rng 100 < 35 then begin
        let data =
          if zero_data_pct > 0 && Mm_util.Prng.int rng 100 < zero_data_pct then 0.0
          else Mm_util.Prng.float rng 2.0
        in
        edges := { Graph.src = i; dst = j; data } :: !edges
      end
    done
  done;
  Graph.make ~name:"rand" ~tasks ~edges:!edges

(* One shared workspace across all cases: buffer reuse (growth, stale
   contents) is part of what the property must not be able to observe. *)
let shared_ws = Scaling.create_workspace ()

let random_config rng =
  {
    Scaling.scale_software = Mm_util.Prng.int rng 4 > 0;
    scale_hardware = Mm_util.Prng.int rng 4 > 0;
  }

let check_equivalence ?dispatch ~config ~graph ~arch ~tech ~schedule () =
  let reference = Scaling_oracle.run ~config ~graph ~arch ~tech ~schedule () in
  let fast =
    Scaling.run ~config ~workspace:shared_ws ?dispatch ~graph ~arch ~tech ~schedule ()
  in
  results_bit_identical reference fast

let prop_heap_matches_reference =
  QCheck.Test.make ~name:"flat heap scaling = reference, float-bit"
    ~count:(fuzz_count 300) QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Mm_util.Prng.create ~seed in
      let arch, tech, dispatch = random_platform rng in
      let graph = random_graph ~max_tasks:24 rng in
      let n_pes = Arch.n_pes arch in
      let mapping = Array.init (Graph.n_tasks graph) (fun _ -> Mm_util.Prng.int rng n_pes) in
      let inst = 1 + Mm_util.Prng.int rng 2 in
      let period = 0.005 +. Mm_util.Prng.float rng 0.4 in
      let sched =
        List_scheduler.run
          (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech ~mapping
             ~instances:(fun ~pe:_ ~ty:_ -> inst)
             ~period ())
      in
      let config = random_config rng in
      let dispatch = if Mm_util.Prng.bool rng then Some dispatch else None in
      check_equivalence ?dispatch ~config ~graph ~arch ~tech ~schedule:sched ())

let prop_heap_matches_reference_zero_slack =
  QCheck.Test.make ~name:"flat heap scaling = reference at zero slack"
    ~count:(fuzz_count 150) QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Mm_util.Prng.create ~seed in
      let arch, tech, dispatch = random_platform rng in
      let graph = random_graph ~max_tasks:24 rng in
      let n_pes = Arch.n_pes arch in
      let mapping = Array.init (Graph.n_tasks graph) (fun _ -> Mm_util.Prng.int rng n_pes) in
      let instances ~pe:_ ~ty:_ = 1 in
      let loose =
        List_scheduler.run
          (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech ~mapping ~instances
             ~period:10.0 ())
      in
      let nominal = Scaling_oracle.nominal ~graph ~arch ~tech ~schedule:loose () in
      let makespan =
        Array.fold_left Float.max 0.0 nominal.Scaling.stretched_finish
      in
      (* Reschedule at exactly the makespan: every unit on the critical
         path has zero slack. *)
      let sched =
        List_scheduler.run
          (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech ~mapping ~instances
             ~period:makespan ())
      in
      let config = random_config rng in
      check_equivalence ~dispatch ~config ~graph ~arch ~tech ~schedule:sched ())

let test_heap_matches_reference_single_slot () =
  (* Single task on a single DVS PE: the smallest DAG the heap sees. *)
  let rail = Mm_arch.Voltage.make ~levels:[ 2.0; 1.5; 1.0 ] ~threshold:0.0 in
  let gpp =
    Mm_arch.Pe.make ~id:0 ~name:"GPP0" ~kind:Mm_arch.Pe.Gpp ~static_power:0.0 ~rail ()
  in
  let arch = Arch.make ~name:"single" ~pes:[ gpp ] ~cls:[] in
  let tech =
    Mm_arch.Tech_lib.add Mm_arch.Tech_lib.empty ~ty:F.ty_a ~pe:gpp
      (Mm_arch.Tech_lib.impl ~exec_time:10e-3 ~dyn_power:0.4 ())
  in
  let graph =
    Mm_taskgraph.Graph.make ~name:"single" ~tasks:[| F.task 0 F.ty_a |] ~edges:[]
  in
  List.iter
    (fun period ->
      let sched =
        Mm_sched.List_scheduler.run
          (Mm_sched.List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech
             ~mapping:[| 0 |]
             ~instances:(fun ~pe:_ ~ty:_ -> 1)
             ~period ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "single slot, period %g" period)
        true
        (check_equivalence ~config:Scaling.default_config ~graph ~arch ~tech
           ~schedule:sched ()))
    [ 10e-3 (* zero slack *); 15e-3; 1.0 (* bottom level *); 5e-3 (* infeasible *) ]

(* Random per-(PE, type) instance counts in 1–3. *)
let random_instances rng arch =
  let counts = Array.init (Arch.n_pes arch * 3) (fun _ -> 1 + Mm_util.Prng.int rng 3) in
  fun ~pe ~ty -> counts.((pe * 3) + ty)

let prop_nominal_matches_reference =
  QCheck.Test.make ~name:"flat nominal = reference nominal, float-bit"
    ~count:(fuzz_count 100) QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Mm_util.Prng.create ~seed in
      let arch, tech, dispatch = random_platform rng in
      let graph = random_graph ~zero_data_pct:20 rng in
      let n_pes = Arch.n_pes arch in
      let mapping = Array.init (Graph.n_tasks graph) (fun _ -> Mm_util.Prng.int rng n_pes) in
      let sched =
        List_scheduler.run
          (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech ~mapping
             ~instances:(random_instances rng arch)
             ~period:(0.01 +. Mm_util.Prng.float rng 0.3)
             ())
      in
      let reference = Scaling_oracle.nominal ~graph ~arch ~tech ~schedule:sched () in
      results_bit_identical reference
        (Scaling.nominal ~graph ~arch ~tech ~schedule:sched ())
      && results_bit_identical reference
           (Scaling.nominal ~dispatch ~graph ~arch ~tech ~schedule:sched ()))

(* The invariant [Scaling.nominal] stands on: with nothing scaled, the
   reference's unit-DAG compaction of a list schedule is the schedule
   itself — every task finishes at [Schedule.finish] bit for bit, and
   its deadline verdict is the per-slot one — for both schedulers, every
   priority policy, several core instances per type and zero-data
   edges. *)
let prop_nominal_reference_is_the_schedule =
  QCheck.Test.make ~name:"reference nominal compaction = list schedule"
    ~count:(fuzz_count 100) QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Mm_util.Prng.create ~seed in
      let arch, tech, _ = random_platform rng in
      let graph = random_graph ~zero_data_pct:30 rng in
      let n_pes = Arch.n_pes arch in
      let mapping = Array.init (Graph.n_tasks graph) (fun _ -> Mm_util.Prng.int rng n_pes) in
      let input =
        List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech ~mapping
          ~instances:(random_instances rng arch)
          ~period:(0.005 +. Mm_util.Prng.float rng 0.3)
          ()
      in
      let matches (sched : Schedule.t) =
        let nominal = Scaling_oracle.nominal ~graph ~arch ~tech ~schedule:sched () in
        let finishes = Array.make (Graph.n_tasks graph) nan in
        Array.iter
          (fun (slot : Schedule.task_slot) ->
            finishes.(slot.Schedule.task) <- Schedule.finish slot)
          sched.Schedule.task_slots;
        let period = sched.Schedule.period in
        let per_slot =
          Array.for_all
            (fun (slot : Schedule.task_slot) ->
              let bound =
                match Mm_taskgraph.Task.deadline (Graph.task graph slot.Schedule.task) with
                | None -> period
                | Some d -> Float.min d period
              in
              Schedule.finish slot <= bound +. 1e-9)
            sched.Schedule.task_slots
          && List.for_all
               (fun c -> Schedule.comm_finish c <= period +. 1e-9)
               sched.Schedule.comm_slots
        in
        farray_bits_equal nominal.Scaling.stretched_finish finishes
        && nominal.Scaling.feasible = per_slot
      in
      List.for_all
        (fun policy ->
          matches (List_scheduler.run ~policy input)
          && matches (List_scheduler_oracle.run ~policy input))
        List_scheduler.[ Mobility_first; Critical_path_first; Topological ])

(* --- Property: scaling never increases energy nor breaks deadlines -------- *)

let prop_scaling_saves_energy_and_meets_deadlines =
  QCheck.Test.make ~name:"DVS: energy <= nominal, deadlines kept" ~count:150
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, graph_kind) ->
      let graph =
        match graph_kind with
        | 0 -> F.chain_graph ()
        | 1 -> F.fork_graph ()
        | _ -> F.parallel_graph ()
      in
      let rng = Mm_util.Prng.create ~seed in
      let mapping = Array.init (Graph.n_tasks graph) (fun _ -> Mm_util.Prng.int rng 2) in
      let period = 0.05 +. Mm_util.Prng.float rng 0.3 in
      let arch = F.arch ~dvs_asic:(Mm_util.Prng.bool rng) () in
      let sched =
        List_scheduler.run
          (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech:(F.tech arch)
             ~mapping
             ~instances:(fun ~pe:_ ~ty:_ -> 2)
             ~period ())
      in
      let nominal = Scaling.nominal ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
      let scaled = Scaling.run ~graph ~arch ~tech:(F.tech arch) ~schedule:sched () in
      let saves = scaled.Scaling.total_dyn_energy <= nominal.Scaling.total_dyn_energy +. 1e-12 in
      let deadlines_ok =
        (not scaled.Scaling.feasible)
        || Array.for_all (fun f -> f <= period +. 1e-9) scaled.Scaling.stretched_finish
      in
      saves && deadlines_ok)

let () =
  Alcotest.run "mm_dvs"
    [
      ( "hw-transform",
        [
          Alcotest.test_case "fig5 segments" `Quick test_fig5_segments;
          Alcotest.test_case "idle gaps skipped" `Quick test_segments_skip_idle;
          Alcotest.test_case "energy preserved" `Quick test_segments_preserve_energy;
          Alcotest.test_case "first/last segment" `Quick test_first_last_segment;
          QCheck_alcotest.to_alcotest prop_segments_energy_preserved;
        ] );
      ( "scaling-software",
        [
          Alcotest.test_case "nominal energy" `Quick test_nominal_energy;
          Alcotest.test_case "uses slack" `Quick test_scaling_uses_slack;
          Alcotest.test_case "tight period" `Quick test_scaling_respects_tight_period;
          Alcotest.test_case "partial slack" `Quick test_scaling_partial_slack;
          Alcotest.test_case "infeasible not scaled" `Quick test_infeasible_schedule_not_scaled;
          Alcotest.test_case "config disables sw" `Quick test_config_disables_software_scaling;
          Alcotest.test_case "multi-level descent" `Quick test_scaling_multi_level_descent;
        ] );
      ( "even-slack",
        [
          Alcotest.test_case "ample slack matches greedy" `Quick
            test_even_slack_ample_slack_matches_greedy;
          Alcotest.test_case "discrete slack wasted" `Quick
            test_even_slack_wastes_discrete_slack;
          Alcotest.test_case "meets deadlines" `Quick test_even_slack_meets_deadlines;
          QCheck_alcotest.to_alcotest prop_greedy_never_worse_than_even;
        ] );
      ( "scaling-hardware",
        [
          Alcotest.test_case "segments scaled" `Quick test_hw_component_scaled_through_segments;
          Alcotest.test_case "config disables hw" `Quick test_hw_scaling_disabled_by_config;
          Alcotest.test_case "energy prorated" `Quick test_hw_segment_energy_prorated;
        ] );
      ( "heap-vs-reference",
        [
          QCheck_alcotest.to_alcotest prop_heap_matches_reference;
          QCheck_alcotest.to_alcotest prop_heap_matches_reference_zero_slack;
          QCheck_alcotest.to_alcotest prop_nominal_matches_reference;
          QCheck_alcotest.to_alcotest prop_nominal_reference_is_the_schedule;
          Alcotest.test_case "single-slot degenerates" `Quick
            test_heap_matches_reference_single_slot;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_scaling_saves_energy_and_meets_deadlines ] );
    ]
