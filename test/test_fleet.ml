(* Tests for the fleet-scale Monte Carlo engine and the task-network
   JSON export (ISSUE 9).

   The load-bearing properties, each held by a fuzz or bit-level check:
   - a 1-device point-model or holding-jitter fleet is segment-for-
     segment and float-bit identical to the oracle walk
     [Trace_sim.simulate] of mm_oracle, and leaves its generator in the
     oracle's state (the walk steps SplitMix64 inline, so this is what
     holds the copy equal to [Prng]);
   - σ = 0 jitter draws the published Ψ, and the robust objective over
     jitter draws stays within a mapping's per-mode power extremes;
   - a point-model walk allocates nothing per transition;
   - the fleet mean power converges to the analytic Eq. (1) figure;
   - every report bit is invariant under --jobs and --batch, and the
     smartphone anchor's report is pinned by digest;
   - export-json → parse → re-emit is byte-identical, and the exporter
     never raises on a synthesizable benchmark. *)

module Fleet_sim = Mm_energy.Fleet_sim
module Battery = Mm_energy.Battery
module Power = Mm_energy.Power
module Prng = Mm_util.Prng
module Pool = Mm_parallel.Pool
module Spec = Mm_cosynth.Spec
module Fitness = Mm_cosynth.Fitness
module Mapping = Mm_cosynth.Mapping
module Synthesis = Mm_cosynth.Synthesis
module Export_json = Mm_cosynth.Export_json
module Schedule = Mm_sched.Schedule
module F = Fixtures

let fuzz_count base =
  match Option.bind (Sys.getenv_opt "MM_FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> base

let bits = Int64.bits_of_float

(* --- Fixture: a two-mode system with hand-built mode powers ------------------- *)

let schedule ~arch ~mapping ~graph ~period =
  Mm_sched.List_scheduler.run
    (Mm_sched.List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech:(F.tech arch)
       ~mapping
       ~instances:(fun ~pe:_ ~ty:_ -> 1)
       ~period ())

let two_mode_spec () =
  F.spec_of_graphs ~probabilities:[| 0.2; 0.8 |] [ F.chain_graph (); F.chain_graph () ]

let mode_powers_for spec dyn_energies =
  let arch = Spec.arch spec in
  let graph = F.chain_graph () in
  Array.mapi
    (fun mode dyn_energy ->
      let sched =
        {
          (schedule ~arch ~mapping:[| 0; 0; 0 |] ~graph ~period:1.0) with
          Schedule.mode_id = mode;
        }
      in
      Power.mode_power ~arch ~schedule:sched ~dyn_energy)
    dyn_energies

let two_mode () =
  let spec = two_mode_spec () in
  (Spec.omsm spec, mode_powers_for spec [| 1e-3; 2e-3 |])

(* Hand-set per-mode powers: the walk only reads [Power.total]. *)
let flat_powers watts =
  Array.mapi
    (fun mode_id dyn_power ->
      {
        Power.mode_id;
        dyn_power;
        static_power = 0.0;
        active_pes = [];
        active_cls = [];
        shut_down_pes = [];
        shut_down_cls = [];
      })
    watts

(* The smartphone OMSM: out-degrees 1, 4, 3, 1, 2, 2, 2, 1, so unlike
   [two_mode] its walk really picks among destinations. *)
let smartphone () =
  let omsm = Spec.omsm (Mm_benchgen.Smartphone.spec ()) in
  let n = Mm_omsm.Omsm.n_modes omsm in
  (omsm, flat_powers (Array.init n (fun i -> 1e-3 *. float_of_int (i + 1))))

(* --- Differential: 1 device ≡ Trace_sim --------------------------------------- *)

(* Device 0's stream is the run seed's own state (Prng.stream _ 0), so
   the fleet kernel must replay the oracle walk exactly: same segments,
   same transition count, same float-bit empirical power, and the same
   generator state afterwards.  Given [sigma] the device runs
   [Holding_jitter]: the test draws the jittered holding times itself,
   with [device_holding]'s formula on the oracle's copy of the
   generator, and hands them to the oracle. *)
let one_device_case ?sigma ~omsm ~mode_powers ~horizon seed =
  let oracle_rng = Prng.create ~seed in
  let model, holding_times =
    match sigma with
    | None -> (Fleet_sim.Point, None)
    | Some sigma ->
      ( Fleet_sim.Holding_jitter { sigma },
        Some
          (Array.map
             (fun h ->
               h *. exp ((sigma *. Prng.gaussian oracle_rng) -. (0.5 *. sigma *. sigma)))
             (Trace_sim.holding_times_for omsm)) )
  in
  let oracle = Trace_sim.simulate ?holding_times ~omsm ~mode_powers ~horizon oracle_rng in
  let sim = Fleet_sim.compile ~omsm ~mode_powers in
  let segments = ref [] in
  let on_segment ~mode ~enter ~leave =
    segments := { Trace_sim.mode; enter; leave } :: !segments
  in
  let rng = Prng.stream (Prng.create ~seed) 0 in
  let power, transitions = Fleet_sim.simulate_device ~on_segment sim ~model ~horizon rng in
  let segments = List.rev !segments in
  bits power = bits oracle.Trace_sim.empirical_power
  && transitions = oracle.Trace_sim.n_transitions
  && Int64.equal (Prng.state rng) (Prng.state oracle_rng)
  && List.length segments = List.length oracle.Trace_sim.segments
  && List.for_all2
       (fun (a : Trace_sim.segment) (b : Trace_sim.segment) ->
         a.Trace_sim.mode = b.Trace_sim.mode
         && bits a.Trace_sim.enter = bits b.Trace_sim.enter
         && bits a.Trace_sim.leave = bits b.Trace_sim.leave)
       segments oracle.Trace_sim.segments

let prop_one_device_matches_trace_sim =
  let omsm, mode_powers = two_mode () in
  QCheck.Test.make ~name:"1-device fleet ≡ Trace_sim (segments, float-bit)"
    ~count:(fuzz_count 200) QCheck.small_int (fun seed ->
      one_device_case ~omsm ~mode_powers ~horizon:200.0 seed)

let test_smartphone_out_degrees () =
  let omsm, _ = smartphone () in
  Alcotest.(check (list int)) "out-degree per mode" [ 1; 4; 3; 1; 2; 2; 2; 1 ]
    (List.init (Mm_omsm.Omsm.n_modes omsm) (fun mode ->
         List.length
           (List.filter
              (fun tr -> Mm_omsm.Transition.src tr = mode)
              (Mm_omsm.Omsm.transitions omsm))))

let prop_smartphone_matches_trace_sim =
  let omsm, mode_powers = smartphone () in
  let sigmas = [| None; Some 0.0; Some 0.3 |] in
  QCheck.Test.make ~name:"smartphone 1-device fleet ≡ Trace_sim (picks, jitter)"
    ~count:(fuzz_count 300)
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, s) ->
      one_device_case ?sigma:sigmas.(s) ~omsm ~mode_powers ~horizon:1000.0 seed)

let test_one_device_absorbing () =
  (* A single-mode system absorbs the whole horizon: the double-
     accumulation tail of the walk must match the oracle too. *)
  let spec = F.spec_of_graphs ~probabilities:[| 1.0 |] [ F.chain_graph () ] in
  let omsm = Spec.omsm spec in
  let mode_powers = mode_powers_for spec [| 1e-3 |] in
  Alcotest.(check bool) "absorbing walk identical" true
    (one_device_case ~omsm ~mode_powers ~horizon:50.0 7)

let test_run_one_device_matches_kernel () =
  let omsm, mode_powers = two_mode () in
  let sim = Fleet_sim.compile ~omsm ~mode_powers in
  let power, transitions =
    Fleet_sim.simulate_device sim ~model:Fleet_sim.Point ~horizon:100.0
      (Prng.stream (Prng.create ~seed:11) 0)
  in
  let fleet = Fleet_sim.run ~devices:1 ~horizon:100.0 ~omsm ~mode_powers ~seed:11 () in
  Alcotest.(check bool) "device 0 power" true
    (bits fleet.Fleet_sim.powers.{0} = bits power);
  Alcotest.(check (float 0.0)) "device 0 transitions" (float_of_int transitions)
    fleet.Fleet_sim.transitions.{0};
  Alcotest.(check bool) "device 0 lifetime through the battery" true
    (bits fleet.Fleet_sim.lifetimes.{0}
    = bits (Battery.lifetime_hours Battery.phone_cell ~average_power:power))

(* --- Convergence to Eq. (1) ---------------------------------------------------- *)

let test_converges_to_analytic () =
  let spec = two_mode_spec () in
  let omsm = Spec.omsm spec in
  let mode_powers = mode_powers_for spec [| 1e-3; 2e-3 |] in
  let fleet = Fleet_sim.run ~devices:400 ~horizon:2000.0 ~omsm ~mode_powers ~seed:3 () in
  let analytic = Power.average ~probabilities:[| 0.2; 0.8 |] mode_powers in
  Alcotest.(check bool) "analytic field is Eq. (1)" true
    (bits fleet.Fleet_sim.stats.Fleet_sim.analytic_power = bits analytic);
  let relative =
    Float.abs (fleet.Fleet_sim.stats.Fleet_sim.mean_power -. analytic) /. analytic
  in
  Alcotest.(check bool)
    (Printf.sprintf "fleet mean within 2%% (got %.4f%%)" (100.0 *. relative))
    true (relative < 0.02)

(* --- Percentiles --------------------------------------------------------------- *)

let test_percentiles_monotone () =
  let omsm, mode_powers = two_mode () in
  let fleet =
    Fleet_sim.run ~devices:500 ~horizon:300.0
      ~model:(Fleet_sim.Dirichlet { concentration = 10.0 })
      ~omsm ~mode_powers ~seed:5 ()
  in
  let s = fleet.Fleet_sim.stats in
  let p rank = List.assoc rank s.Fleet_sim.percentiles in
  Alcotest.(check (list int)) "ranks" [ 1; 10; 50; 90; 99 ]
    (List.map fst s.Fleet_sim.percentiles);
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check bool) (Printf.sprintf "p%d <= p%d" lo hi) true (p lo <= p hi))
    [ (1, 10); (10, 50); (50, 90); (90, 99) ];
  Alcotest.(check bool) "min <= p1" true (s.Fleet_sim.min_hours <= p 1);
  Alcotest.(check bool) "p99 <= max" true (p 99 <= s.Fleet_sim.max_hours);
  Alcotest.(check bool) "mean within range" true
    (s.Fleet_sim.min_hours <= s.Fleet_sim.mean_hours
    && s.Fleet_sim.mean_hours <= s.Fleet_sim.max_hours)

let test_percentile_of_sorted () =
  let sorted = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50 of 1..10" 5.0
    (Fleet_sim.percentile_of_sorted sorted 0.5);
  Alcotest.(check (float 0.0)) "p1 clamps to first" 1.0
    (Fleet_sim.percentile_of_sorted sorted 0.01);
  Alcotest.(check (float 0.0)) "p100 is the max" 10.0
    (Fleet_sim.percentile_of_sorted sorted 1.0)

(* --- Bit-invariance under jobs and batch --------------------------------------- *)

let test_jobs_batch_bit_invariance () =
  let omsm, mode_powers = two_mode () in
  let run ?pool ?batch () =
    Fleet_sim.run ?pool ?batch
      ~model:(Fleet_sim.Holding_jitter { sigma = 0.3 })
      ~devices:257 ~horizon:100.0 ~omsm ~mode_powers ~seed:13 ()
  in
  let lifetime_bits result =
    Array.map bits (Fleet_sim.sorted_lifetimes result)
  in
  let check_same name expected result =
    Alcotest.(check string) name expected (Fleet_sim.to_json result);
    Alcotest.(check (array int64))
      (name ^ " lifetimes")
      (lifetime_bits (run ()))
      (lifetime_bits result)
  in
  let reference = Fleet_sim.to_json (run ()) in
  check_same "batch 17" reference (run ~batch:17 ());
  check_same "batch 1" reference (run ~batch:1 ());
  let pool = Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> check_same "pooled, batch 64" reference (run ~pool ~batch:64 ()));
  (* Same seed, fresh run: the report is a pure function of its inputs. *)
  check_same "replay" reference (run ())

(* Golden pin: the smartphone greedy-timing anchor (the benchmark's
   fleet design), 2,000 devices, horizon 1000, seed 1000.  The digests
   come from a walk that called [Prng] directly; any change to the
   walk's arithmetic or draw order moves them. *)
let test_golden_report () =
  let spec = Mm_benchgen.Smartphone.spec () in
  let anchor = Option.get (Synthesis.greedy_timing_anchor spec) in
  let mode_powers =
    (Fitness.evaluate Fitness.default_config spec anchor).Fitness.mode_powers
  in
  List.iter
    (fun (model, digest) ->
      let fleet =
        Fleet_sim.run ~model ~horizon:1000.0 ~devices:2_000 ~omsm:(Spec.omsm spec)
          ~mode_powers ~seed:1000 ()
      in
      Alcotest.(check string)
        (Fleet_sim.model_to_string model)
        digest
        (Digest.to_hex (Digest.string (Fleet_sim.to_json fleet))))
    [
      (Fleet_sim.Point, "5468b834baaac2de96bc95a2c82b9eed");
      (Fleet_sim.Dirichlet { concentration = 50. }, "1065b6d42747845f0fc5a52e81a75ef6");
    ]

(* The walk's state lives in unboxed locals, so a point-model device
   allocates nothing per transition; a walk that calls [Prng.float] and
   [Prng.int] boxes about 18 words per transition. *)
let test_point_walk_allocation () =
  let omsm, mode_powers = smartphone () in
  let sim = Fleet_sim.compile ~omsm ~mode_powers in
  let rng = Prng.create ~seed:5 in
  let walk () =
    Fleet_sim.simulate_device sim ~model:Fleet_sim.Point ~horizon:100_000.0 rng
  in
  ignore (walk ());
  let before = Gc.minor_words () in
  let _, transitions = walk () in
  let per_transition = (Gc.minor_words () -. before) /. float_of_int transitions in
  Alcotest.(check bool) "at least 10,000 transitions" true (transitions >= 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per transition < 1" per_transition)
    true (per_transition < 1.0)

let test_report_shape () =
  let omsm, mode_powers = two_mode () in
  let fleet = Fleet_sim.run ~devices:32 ~horizon:50.0 ~omsm ~mode_powers ~seed:2 () in
  let json = Mini_json.parse_json (Fleet_sim.to_json fleet) in
  Alcotest.(check string) "format" "mmsyn-fleet-report"
    Mini_json.(as_string (member_exn "format" json));
  Alcotest.(check (float 0.0)) "devices" 32.0
    Mini_json.(as_number (member_exn "devices" json));
  let lifetime = Mini_json.member_exn "lifetime_hours" json in
  List.iter
    (fun key -> ignore Mini_json.(as_number (member_exn key lifetime)))
    [ "mean"; "stddev"; "min"; "max"; "p1"; "p10"; "p50"; "p90"; "p99" ];
  Alcotest.(check (float 0.0)) "p50 matches stats"
    (List.assoc 50 fleet.Fleet_sim.stats.Fleet_sim.percentiles)
    Mini_json.(as_number (member_exn "p50" lifetime))

(* --- Usage models --------------------------------------------------------------- *)

let test_sample_psi () =
  let base = [| 0.2; 0.8 |] in
  let rng = Prng.create ~seed:1 in
  Alcotest.(check bool) "point is base itself" true
    (Fleet_sim.sample_psi Fleet_sim.Point ~base rng == base);
  let normalised psi =
    Array.for_all (fun p -> p >= 0.0) psi
    && Float.abs (Array.fold_left ( +. ) 0.0 psi -. 1.0) < 1e-9
  in
  for _ = 1 to 100 do
    Alcotest.(check bool) "dirichlet normalised" true
      (normalised
         (Fleet_sim.sample_psi (Fleet_sim.Dirichlet { concentration = 20.0 }) ~base rng));
    Alcotest.(check bool) "jitter normalised" true
      (normalised
         (Fleet_sim.sample_psi (Fleet_sim.Holding_jitter { sigma = 0.5 }) ~base rng))
  done;
  let profiles =
    [
      { Fleet_sim.name = "light"; weight = 1.0; psi = [| 0.9; 0.1 |] };
      { Fleet_sim.name = "heavy"; weight = 3.0; psi = [| 0.1; 0.9 |] };
    ]
  in
  for _ = 1 to 50 do
    let psi = Fleet_sim.sample_psi (Fleet_sim.Mixture profiles) ~base rng in
    Alcotest.(check bool) "mixture draws a profile" true
      (psi = [| 0.9; 0.1 |] || psi = [| 0.1; 0.9 |])
  done

let test_validate_model () =
  let rejects model =
    match Fleet_sim.validate_model ~n_modes:2 model with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "malformed model accepted"
  in
  rejects (Fleet_sim.Dirichlet { concentration = 0.0 });
  rejects (Fleet_sim.Holding_jitter { sigma = -1.0 });
  rejects (Fleet_sim.Mixture []);
  rejects
    (Fleet_sim.Mixture [ { Fleet_sim.name = "bad"; weight = 0.0; psi = [| 0.5; 0.5 |] } ]);
  rejects
    (Fleet_sim.Mixture [ { Fleet_sim.name = "short"; weight = 1.0; psi = [| 1.0 |] } ]);
  Fleet_sim.validate_model ~n_modes:2 Fleet_sim.Point;
  Fleet_sim.validate_model ~n_modes:2 (Fleet_sim.Dirichlet { concentration = 5.0 })

let test_prng_gamma_dirichlet () =
  let rng = Prng.create ~seed:9 in
  List.iter
    (fun shape ->
      let n = 20_000 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum := !sum +. Prng.gamma rng ~shape
      done;
      let mean = !sum /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "gamma(%.1f) mean ~ shape (got %.3f)" shape mean)
        true
        (Float.abs (mean -. shape) /. shape < 0.05))
    [ 0.5; 3.0 ];
  let w = Prng.dirichlet rng [| 2.0; 5.0; 1.0 |] in
  Alcotest.(check int) "dirichlet length" 3 (Array.length w);
  Alcotest.(check (float 1e-12)) "dirichlet sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 w);
  Alcotest.(check bool) "dirichlet positive" true (Array.for_all (fun x -> x > 0.0) w);
  (match Prng.gamma rng ~shape:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gamma shape 0 accepted");
  match Prng.dirichlet rng [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty dirichlet accepted"

(* --- Battery inverse ------------------------------------------------------------ *)

let test_battery_inverse () =
  List.iter
    (fun power ->
      let hours = Battery.lifetime_hours Battery.phone_cell ~average_power:power in
      let back = Battery.power_for_lifetime Battery.phone_cell ~hours in
      Alcotest.(check bool)
        (Printf.sprintf "inverse at %g W" power)
        true
        (Float.abs (back -. power) /. power < 1e-9))
    [ 1e-3; 0.05; 0.3; 2.0 ];
  match Battery.power_for_lifetime Battery.phone_cell ~hours:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero lifetime accepted"

(* --- Robust fitness objective --------------------------------------------------- *)

let test_robust_power () =
  let _, mode_powers = two_mode () in
  let p0 = Power.total mode_powers.(0) and p1 = Power.total mode_powers.(1) in
  let robust psis objective =
    Fitness.robust_power
      { Fitness.psis; battery = Battery.phone_cell; objective }
      mode_powers
  in
  (* One point draw is exactly the Eq. (1) average. *)
  Alcotest.(check bool) "single draw = Power.average" true
    (bits (robust [| [| 0.2; 0.8 |] |] Fitness.Expected_lifetime)
    = bits
        (Battery.power_for_lifetime Battery.phone_cell
           ~hours:
             (Battery.lifetime_hours Battery.phone_cell
                ~average_power:(Power.average ~probabilities:[| 0.2; 0.8 |] mode_powers))));
  (* Two extreme draws: p10 is the worst (highest-power) draw, p100 the
     best one. *)
  let extremes = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  Alcotest.(check bool) "p10 is the worst draw" true
    (bits (robust extremes (Fitness.Percentile 0.1)) = bits (Float.max p0 p1));
  Alcotest.(check bool) "p100 is the best draw" true
    (bits (robust extremes (Fitness.Percentile 1.0)) = bits (Float.min p0 p1));
  let mean_power = robust extremes Fitness.Expected_lifetime in
  Alcotest.(check bool) "mean objective lies between the draws" true
    (mean_power >= Float.min p0 p1 && mean_power <= Float.max p0 p1);
  (match robust [||] Fitness.Expected_lifetime with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty sample set accepted");
  match robust extremes (Fitness.Percentile 0.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "percentile 0 accepted"

(* Ψ drift through the fleet model's log-normal jitter: σ = 0 is the
   published profile, and whatever the draws, the robust objective of a
   fixed mapping stays within its per-mode power extremes. *)
let test_jitter_zero_is_published () =
  let spec = two_mode_spec () in
  let omsm = Spec.omsm spec in
  let base =
    Array.init (Mm_omsm.Omsm.n_modes omsm) (fun i ->
        Mm_omsm.Mode.probability (Mm_omsm.Omsm.mode omsm i))
  in
  let rng = Prng.create ~seed:1 in
  for _ = 1 to 50 do
    Alcotest.(check (array (float 1e-12))) "published Ψ" base
      (Fleet_sim.sample_psi (Fleet_sim.Holding_jitter { sigma = 0.0 }) ~base rng)
  done

let test_jitter_robust_power_bounds () =
  let spec = two_mode_spec () in
  let mapping = Mapping.of_arrays spec [| [| 0; 1; 0 |]; [| 1; 0; 0 |] |] in
  let eval = Fitness.evaluate_mapping Fitness.default_config spec mapping in
  let totals = Array.map Power.total eval.Fitness.mode_powers in
  let lo = Array.fold_left Float.min infinity totals in
  let hi = Array.fold_left Float.max 0.0 totals in
  let base = [| 0.2; 0.8 |] in
  let rng = Prng.create ~seed:2 in
  let psis =
    Array.init 500 (fun _ ->
        Fleet_sim.sample_psi (Fleet_sim.Holding_jitter { sigma = 0.5 }) ~base rng)
  in
  let robust objective =
    Fitness.robust_power
      { Fitness.psis; battery = Battery.phone_cell; objective }
      eval.Fitness.mode_powers
  in
  List.iter
    (fun (name, objective) ->
      let power = robust objective in
      Alcotest.(check bool) (name ^ " within mode-power extremes") true
        (power >= lo -. 1e-12 && power <= hi +. 1e-12))
    [
      ("mean", Fitness.Expected_lifetime);
      ("p10", Fitness.Percentile 0.1);
      ("p50", Fitness.Percentile 0.5);
      ("p100", Fitness.Percentile 1.0);
    ];
  Alcotest.(check bool) "p10 draw no better than p100" true
    (robust (Fitness.Percentile 0.1) >= robust (Fitness.Percentile 1.0))

(* --- Task-network JSON export ---------------------------------------------------- *)

let motivational_eval () =
  let spec = Mm_benchgen.Motivational.spec () in
  let eval =
    Fitness.evaluate_mapping Fitness.default_config spec
      (Mapping.of_arrays spec [| [| 0; 0; 0 |]; [| 0; 1; 1 |] |])
  in
  (spec, eval)

let test_export_round_trip () =
  let spec, eval = motivational_eval () in
  let exported = Export_json.to_string spec eval in
  let parsed = Mini_json.parse_json exported in
  Alcotest.(check string) "parse → re-emit is byte-identical" exported
    (Mini_json.emit parsed);
  Alcotest.(check string) "format" "mmsyn-task-network"
    Mini_json.(as_string (member_exn "format" parsed));
  (match Mini_json.member_exn "tasks" parsed with
  | Mini_json.Array tasks -> Alcotest.(check int) "3 tasks × 2 modes" 6 (List.length tasks)
  | _ -> Alcotest.fail "tasks is not an array");
  Alcotest.(check (float 0.0)) "power matches the evaluation"
    eval.Fitness.true_power
    Mini_json.(as_number (member_exn "average_power_w" parsed))

let test_export_shape_mismatch () =
  let _, eval = motivational_eval () in
  let other = F.spec_of_graphs ~probabilities:[| 1.0 |] [ F.chain_graph () ] in
  match Export_json.to_string other eval with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mode-count mismatch accepted"

let prop_export_never_raises =
  QCheck.Test.make ~name:"export-json total on synthesizable benchmarks"
    ~count:(fuzz_count 3) QCheck.small_int (fun seed ->
      let spec = Mm_benchgen.Random_system.generate ~seed () in
      let config =
        {
          Synthesis.default_config with
          Synthesis.ga =
            {
              Mm_ga.Engine.default_config with
              Mm_ga.Engine.max_generations = 10;
              population_size = 12;
            };
        }
      in
      let result = Synthesis.run ~config ~spec ~seed () in
      let exported = Export_json.to_string spec result.Synthesis.eval in
      match Mini_json.parse_json exported with
      | Mini_json.Object _ -> true
      | _ -> false
      | exception Mini_json.Bad_json _ -> false)

let () =
  Alcotest.run "mm_fleet"
    [
      ( "differential vs Trace_sim",
        [
          QCheck_alcotest.to_alcotest prop_one_device_matches_trace_sim;
          Alcotest.test_case "absorbing mode" `Quick test_one_device_absorbing;
          Alcotest.test_case "run ≡ kernel for device 0" `Quick
            test_run_one_device_matches_kernel;
          Alcotest.test_case "smartphone out-degrees" `Quick test_smartphone_out_degrees;
          QCheck_alcotest.to_alcotest prop_smartphone_matches_trace_sim;
          Alcotest.test_case "point walk allocation" `Quick test_point_walk_allocation;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "converges to Eq. (1)" `Quick test_converges_to_analytic;
          Alcotest.test_case "percentiles monotone" `Quick test_percentiles_monotone;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile_of_sorted;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "bit-invariant under jobs and batch" `Quick
            test_jobs_batch_bit_invariance;
          Alcotest.test_case "golden report digests" `Quick test_golden_report;
          Alcotest.test_case "report shape" `Quick test_report_shape;
        ] );
      ( "usage models",
        [
          Alcotest.test_case "sample_psi" `Quick test_sample_psi;
          Alcotest.test_case "validation" `Quick test_validate_model;
          Alcotest.test_case "gamma and dirichlet" `Quick test_prng_gamma_dirichlet;
          Alcotest.test_case "battery inverse" `Quick test_battery_inverse;
          Alcotest.test_case "robust objective" `Quick test_robust_power;
          Alcotest.test_case "zero jitter keeps Ψ" `Quick
            test_jitter_zero_is_published;
          Alcotest.test_case "jitter power bounds" `Quick
            test_jitter_robust_power_bounds;
        ] );
      ( "export-json",
        [
          Alcotest.test_case "round trip" `Quick test_export_round_trip;
          Alcotest.test_case "shape mismatch" `Quick test_export_shape_mismatch;
          QCheck_alcotest.to_alcotest prop_export_never_raises;
        ] );
    ]
