(* Tests for mm_energy: the Eq. (1) power model and shutdown analysis. *)

module Arch = Mm_arch.Architecture
module List_scheduler = Mm_sched.List_scheduler
module Schedule = Mm_sched.Schedule
module Power = Mm_energy.Power
module F = Fixtures

let schedule ~arch ~mapping ~graph ~period =
  List_scheduler.run
    (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech:(F.tech arch) ~mapping
       ~instances:(fun ~pe:_ ~ty:_ -> 1)
       ~period ())

let test_mode_power_all_software () =
  let arch = F.arch () in
  let graph = F.chain_graph () in
  let sched = schedule ~arch ~mapping:[| 0; 0; 0 |] ~graph ~period:0.1 in
  let mp = Power.mode_power ~arch ~schedule:sched ~dyn_energy:5e-3 in
  Alcotest.(check (float 1e-12)) "dyn = E/period" 5e-2 mp.Power.dyn_power;
  Alcotest.(check (list int)) "only GPP active" [ 0 ] mp.Power.active_pes;
  Alcotest.(check (list int)) "ASIC shut down" [ 1 ] mp.Power.shut_down_pes;
  Alcotest.(check (list int)) "bus shut down" [ 0 ] mp.Power.shut_down_cls;
  (* Static power: only the GPP's 1 mW. *)
  Alcotest.(check (float 1e-12)) "static" 1e-3 mp.Power.static_power;
  Alcotest.(check (float 1e-12)) "total" (5e-2 +. 1e-3) (Power.total mp)

let test_mode_power_crossing () =
  let arch = F.arch () in
  let graph = F.chain_graph () in
  let sched = schedule ~arch ~mapping:[| 0; 1; 0 |] ~graph ~period:0.1 in
  let mp = Power.mode_power ~arch ~schedule:sched ~dyn_energy:1e-3 in
  Alcotest.(check (list int)) "both PEs active" [ 0; 1 ] mp.Power.active_pes;
  Alcotest.(check (list int)) "bus active" [ 0 ] mp.Power.active_cls;
  Alcotest.(check (list int)) "nothing shut down" [] mp.Power.shut_down_pes;
  (* 1 mW GPP + 0.5 mW ASIC + 0.1 mW bus. *)
  Alcotest.(check (float 1e-12)) "static sums" 1.6e-3 mp.Power.static_power

let test_average_weighted () =
  let arch = F.arch () in
  let graph = F.chain_graph () in
  let sched0 = schedule ~arch ~mapping:[| 0; 0; 0 |] ~graph ~period:0.1 in
  let sched1 = { (schedule ~arch ~mapping:[| 0; 0; 0 |] ~graph ~period:0.1) with Schedule.mode_id = 1 } in
  let mp0 = Power.mode_power ~arch ~schedule:sched0 ~dyn_energy:1e-3 in
  let mp1 = Power.mode_power ~arch ~schedule:sched1 ~dyn_energy:3e-3 in
  let avg = Power.average ~probabilities:[| 0.25; 0.75 |] [| mp0; mp1 |] in
  let expected = (0.25 *. Power.total mp0) +. (0.75 *. Power.total mp1) in
  Alcotest.(check (float 1e-12)) "Eq. (1)" expected avg

let test_average_length_mismatch () =
  let arch = F.arch () in
  let graph = F.chain_graph () in
  let sched = schedule ~arch ~mapping:[| 0; 0; 0 |] ~graph ~period:0.1 in
  let mp = Power.mode_power ~arch ~schedule:sched ~dyn_energy:1e-3 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Power.average: length mismatch")
    (fun () -> ignore (Power.average ~probabilities:[| 1.0 |] [| mp; mp |]))

let test_average_of_omsm () =
  let spec =
    F.spec_of_graphs ~probabilities:[| 0.1; 0.9 |] [ F.chain_graph (); F.chain_graph () ]
  in
  let omsm = Mm_cosynth.Spec.omsm spec in
  let arch = Mm_cosynth.Spec.arch spec in
  let graph = F.chain_graph () in
  let sched0 = schedule ~arch ~mapping:[| 0; 0; 0 |] ~graph ~period:1.0 in
  let sched1 = { sched0 with Schedule.mode_id = 1 } in
  let mp0 = Power.mode_power ~arch ~schedule:sched0 ~dyn_energy:1e-3 in
  let mp1 = Power.mode_power ~arch ~schedule:sched1 ~dyn_energy:2e-3 in
  let expected = (0.1 *. Power.total mp0) +. (0.9 *. Power.total mp1) in
  Alcotest.(check (float 1e-12)) "weights from OMSM" expected
    (Power.average_of_omsm ~omsm [| mp0; mp1 |])

let prop_average_between_extremes =
  QCheck.Test.make ~name:"weighted average within [min,max] mode power" ~count:200
    QCheck.(pair (float_range 0.0 1.0) (pair (float_range 0.0 10.0) (float_range 0.0 10.0)))
    (fun (p, (e0, e1)) ->
      let arch = F.arch () in
      let graph = F.chain_graph () in
      let sched0 = schedule ~arch ~mapping:[| 0; 0; 0 |] ~graph ~period:1.0 in
      let sched1 = { sched0 with Schedule.mode_id = 1 } in
      let mp0 = Power.mode_power ~arch ~schedule:sched0 ~dyn_energy:e0 in
      let mp1 = Power.mode_power ~arch ~schedule:sched1 ~dyn_energy:e1 in
      let avg = Power.average ~probabilities:[| p; 1.0 -. p |] [| mp0; mp1 |] in
      let lo = Float.min (Power.total mp0) (Power.total mp1) in
      let hi = Float.max (Power.total mp0) (Power.total mp1) in
      avg >= lo -. 1e-9 && avg <= hi +. 1e-9)

(* --- Trace_sim (the single-device oracle walk) ------------------------------ *)

let two_mode_spec () =
  F.spec_of_graphs ~probabilities:[| 0.2; 0.8 |] [ F.chain_graph (); F.chain_graph () ]

let mode_powers_for spec dyn_energies =
  let arch = Mm_cosynth.Spec.arch spec in
  let graph = F.chain_graph () in
  Array.mapi
    (fun mode dyn_energy ->
      let sched =
        { (schedule ~arch ~mapping:[| 0; 0; 0 |] ~graph ~period:1.0) with
          Schedule.mode_id = mode }
      in
      Power.mode_power ~arch ~schedule:sched ~dyn_energy)
    dyn_energies

let test_holding_times_match_profile () =
  let spec = two_mode_spec () in
  let omsm = Mm_cosynth.Spec.omsm spec in
  let h = Trace_sim.holding_times_for omsm in
  (* Two modes alternating: π uniform, so h ∝ Ψ. *)
  Alcotest.(check (float 1e-6)) "ratio follows probabilities" (0.8 /. 0.2)
    (h.(1) /. h.(0))

let test_simulate_structure () =
  let spec = two_mode_spec () in
  let omsm = Mm_cosynth.Spec.omsm spec in
  let mode_powers = mode_powers_for spec [| 1e-3; 2e-3 |] in
  let rng = Mm_util.Prng.create ~seed:5 in
  let result = Trace_sim.simulate ~omsm ~mode_powers ~horizon:100.0 rng in
  (* Times add up to the horizon. *)
  let total = Array.fold_left ( +. ) 0.0 result.Trace_sim.time_in_mode in
  Alcotest.(check (float 1e-6)) "covers horizon" 100.0 total;
  (* Segments are chronological and contiguous. *)
  let rec check_contiguous = function
    | (a : Trace_sim.segment) :: (b :: _ as rest) ->
      Alcotest.(check (float 1e-9)) "contiguous" a.Trace_sim.leave b.Trace_sim.enter;
      check_contiguous rest
    | [ last ] -> Alcotest.(check (float 1e-9)) "ends at horizon" 100.0 last.Trace_sim.leave
    | [] -> Alcotest.fail "no segments"
  in
  check_contiguous result.Trace_sim.segments

let test_simulate_converges_to_analytic () =
  let spec = two_mode_spec () in
  let omsm = Mm_cosynth.Spec.omsm spec in
  let mode_powers = mode_powers_for spec [| 1e-3; 2e-3 |] in
  let analytic = Power.average_of_omsm ~omsm mode_powers in
  let rng = Mm_util.Prng.create ~seed:9 in
  (* Long horizon: thousands of visits. *)
  let result = Trace_sim.simulate ~omsm ~mode_powers ~horizon:50_000.0 rng in
  let relative_error = Float.abs (result.Trace_sim.empirical_power -. analytic) /. analytic in
  Alcotest.(check bool)
    (Printf.sprintf "within 5%% (got %.2f%%)" (relative_error *. 100.0))
    true (relative_error < 0.05);
  (* Empirical usage matches the published profile. *)
  Alcotest.(check bool) "mode 1 dominates" true
    (result.Trace_sim.empirical_probability.(1) > 0.7)

let test_simulate_absorbing_mode () =
  (* One mode with no outgoing transition absorbs the horizon. *)
  let graph = F.chain_graph () in
  let arch = F.arch () in
  let omsm =
    Mm_omsm.Omsm.make ~name:"absorbing"
      ~modes:
        [ Mm_omsm.Mode.make ~id:0 ~name:"only" ~graph ~period:1.0 ~probability:1.0 ]
      ~transitions:[]
  in
  let sched = schedule ~arch ~mapping:[| 0; 0; 0 |] ~graph ~period:1.0 in
  let mode_powers = [| Power.mode_power ~arch ~schedule:sched ~dyn_energy:5e-3 |] in
  let rng = Mm_util.Prng.create ~seed:1 in
  let result = Trace_sim.simulate ~omsm ~mode_powers ~horizon:10.0 rng in
  Alcotest.(check int) "no transitions" 0 result.Trace_sim.n_transitions;
  Alcotest.(check (float 1e-9)) "all time in mode 0" 10.0 result.Trace_sim.time_in_mode.(0);
  Alcotest.(check (float 1e-9)) "power equals the mode's" (Power.total mode_powers.(0))
    result.Trace_sim.empirical_power

let test_simulate_validation () =
  let spec = two_mode_spec () in
  let omsm = Mm_cosynth.Spec.omsm spec in
  let mode_powers = mode_powers_for spec [| 1e-3; 2e-3 |] in
  let rng = Mm_util.Prng.create ~seed:1 in
  (match Trace_sim.simulate ~omsm ~mode_powers ~horizon:0.0 rng with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero horizon accepted");
  match Trace_sim.simulate ~omsm ~mode_powers:[| mode_powers.(0) |] ~horizon:1.0 rng with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted"

(* Random OMSMs with 3–6 modes: a directed cycle through every mode
   (so the chain is irreducible) plus random extra transitions, which
   make out-degrees, and so π, uneven; Ψ is random too. *)
let random_omsm seed =
  let rng = Mm_util.Prng.create ~seed in
  let n = 3 + Mm_util.Prng.int rng 4 in
  let weights = Array.init n (fun _ -> 0.1 +. Mm_util.Prng.float rng 1.0) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let graph = F.chain_graph () in
  let modes =
    List.init n (fun id ->
        Mm_omsm.Mode.make ~id ~name:(Printf.sprintf "m%d" id) ~graph ~period:1.0
          ~probability:(weights.(id) /. total))
  in
  let transitions =
    List.concat
      (List.init n (fun src ->
           List.filter_map
             (fun dst ->
               if dst = src then None
               else if dst = (src + 1) mod n || Mm_util.Prng.chance rng 0.4 then
                 Some (Mm_omsm.Transition.make ~src ~dst ~max_time:1.0)
               else None)
             (List.init n Fun.id)))
  in
  Mm_omsm.Omsm.make ~name:"random" ~modes ~transitions

(* The oracle walk is the reference the closed-form fleet is tested
   against, so its own long-run behaviour is pinned here: over 24
   independent walks of 20,000 time units (about 20,000 transitions
   each), every mode's mean time share lies within 5 standard errors of
   its Ψ, and the mean power within 5 standard errors of Eq. (1).  A
   holding-time table built on any π but the embedded chain's exact one
   misses by more. *)
let prop_walk_realises_psi =
  QCheck.Test.make ~name:"oracle walk's time shares match Ψ (random OMSMs)"
    ~count:40 QCheck.small_nat (fun seed ->
      let omsm = random_omsm seed in
      let n = Mm_omsm.Omsm.n_modes omsm in
      let mode_powers =
        Array.init n (fun mode_id ->
            {
              Power.mode_id;
              dyn_power = 1e-3 *. float_of_int (1 + (mode_id * mode_id));
              static_power = 0.0;
              active_pes = [];
              active_cls = [];
              shut_down_pes = [];
              shut_down_cls = [];
            })
      in
      let walks = 24 in
      let base = Mm_util.Prng.create ~seed:(1000 + seed) in
      let runs =
        Array.init walks (fun i ->
            Trace_sim.simulate ~omsm ~mode_powers ~horizon:20_000.0
              (Mm_util.Prng.stream base i))
      in
      let within target samples =
        let k = float_of_int walks in
        let mean = Array.fold_left ( +. ) 0.0 samples /. k in
        let var =
          Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples /. (k -. 1.0)
        in
        Float.abs (mean -. target) <= 5.0 *. sqrt (var /. k)
      in
      List.for_all
        (fun i ->
          within
            (Mm_omsm.Mode.probability (Mm_omsm.Omsm.mode omsm i))
            (Array.map (fun r -> r.Trace_sim.empirical_probability.(i)) runs))
        (List.init n Fun.id)
      && within
           (Power.average_of_omsm ~omsm mode_powers)
           (Array.map (fun r -> r.Trace_sim.empirical_power) runs))

(* --- Battery ---------------------------------------------------------------- *)

module Battery = Mm_energy.Battery

let test_battery_linear_case () =
  (* k = 1: plain capacity / current. *)
  let cell = Battery.make ~capacity_ah:1.0 ~voltage:2.0 ~peukert:1.0 () in
  (* 0.2 W at 2 V = 0.1 A; 1 Ah / 0.1 A = 10 h. *)
  Alcotest.(check (float 1e-9)) "ten hours" 10.0
    (Battery.lifetime_hours cell ~average_power:0.2)

let test_battery_peukert_penalises_high_current () =
  let ideal = Battery.make ~capacity_ah:1.0 ~voltage:2.0 ~peukert:1.0 ~rated_hours:20.0 () in
  let real = Battery.make ~capacity_ah:1.0 ~voltage:2.0 ~peukert:1.3 ~rated_hours:20.0 () in
  (* Above the rated current, a higher exponent shortens life. *)
  let heavy_draw = 2.0 (* W -> 1 A >> C/rated_hours *) in
  Alcotest.(check bool) "peukert shortens life under heavy draw" true
    (Battery.lifetime_hours real ~average_power:heavy_draw
    < Battery.lifetime_hours ideal ~average_power:heavy_draw)

let test_battery_monotone () =
  let cell = Battery.phone_cell in
  let l1 = Battery.lifetime_hours cell ~average_power:1e-3 in
  let l2 = Battery.lifetime_hours cell ~average_power:2e-3 in
  Alcotest.(check bool) "less power, longer life" true (l1 > l2)

let test_battery_extension () =
  let cell = Battery.make ~capacity_ah:1.0 ~voltage:2.0 ~peukert:1.0 () in
  (* Halving power doubles lifetime: +100 %. *)
  Alcotest.(check (float 1e-6)) "halving doubles" 100.0
    (Battery.extension_percent cell ~from_power:0.2 ~to_power:0.1)

let test_battery_validation () =
  (match Battery.make ~capacity_ah:0.0 ~voltage:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero capacity accepted");
  (match Battery.make ~capacity_ah:1.0 ~voltage:1.0 ~peukert:0.9 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "peukert < 1 accepted");
  match Battery.current Battery.phone_cell ~average_power:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero power accepted"

let () =
  Alcotest.run "mm_energy"
    [
      ( "power",
        [
          Alcotest.test_case "all software mode" `Quick test_mode_power_all_software;
          Alcotest.test_case "crossing mode" `Quick test_mode_power_crossing;
          Alcotest.test_case "weighted average" `Quick test_average_weighted;
          Alcotest.test_case "length mismatch" `Quick test_average_length_mismatch;
          Alcotest.test_case "omsm weights" `Quick test_average_of_omsm;
          QCheck_alcotest.to_alcotest prop_average_between_extremes;
        ] );
      ( "trace-sim",
        [
          Alcotest.test_case "holding times" `Quick test_holding_times_match_profile;
          Alcotest.test_case "structure" `Quick test_simulate_structure;
          Alcotest.test_case "converges to Eq.(1)" `Quick test_simulate_converges_to_analytic;
          Alcotest.test_case "absorbing mode" `Quick test_simulate_absorbing_mode;
          Alcotest.test_case "validation" `Quick test_simulate_validation;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2003 |])
            prop_walk_realises_psi;
        ] );
      ( "battery",
        [
          Alcotest.test_case "linear case" `Quick test_battery_linear_case;
          Alcotest.test_case "peukert penalty" `Quick test_battery_peukert_penalises_high_current;
          Alcotest.test_case "monotone" `Quick test_battery_monotone;
          Alcotest.test_case "extension" `Quick test_battery_extension;
          Alcotest.test_case "validation" `Quick test_battery_validation;
        ] );
    ]
