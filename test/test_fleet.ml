(* Tests for the closed-form fleet Monte Carlo and the task-network
   JSON export.

   The load-bearing properties:
   - per-device powers follow the oracle walk's distribution
     ([Trace_sim], in mm_oracle): a two-sample Kolmogorov–Smirnov test
     on fixed seeds, 4,000 devices per arm, on the smartphone, mul3 and
     mul12 under three usage models (the full 13-spec grid is
     test/ks_gate, run in CI), and each reported percentile lies in the
     walks' order-statistic interval;
   - the fleet mean power converges to the analytic Eq. (1) figure,
     within 4 standard errors on the smartphone at 10^4 devices and
     horizon 10^4;
   - horizons under the floor, and OMSMs without a unique long-run
     usage, are rejected;
   - the percentiles from quickselect equal the sorted reference bit
     for bit, ties and +∞ included;
   - σ = 0 jitter draws the published Ψ, and the robust objective over
     jitter draws stays within a mapping's per-mode power extremes;
   - every report bit is invariant under --jobs, the smartphone
     anchor's report is pinned by digest under all four usage models,
     and a device allocates at most 64 minor words;
   - the in-place gamma, Dirichlet and normal samplers reproduce the
     allocating ones ([Prng_oracle]) bit for bit;
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

(* Hand-set per-mode powers: the fleet only reads [Power.total]. *)
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

let smartphone_omsm () = Spec.omsm (Mm_benchgen.Smartphone.spec ())

(* The benchmark's fleet design: the smartphone's greedy timing anchor. *)
let smartphone_anchor () =
  let spec = Mm_benchgen.Smartphone.spec () in
  let anchor = Option.get (Synthesis.greedy_timing_anchor spec) in
  (Spec.omsm spec, (Fitness.evaluate Fitness.default_config spec anchor).Fitness.mode_powers)

(* --- Against the oracle walk ---------------------------------------------------- *)

let test_smartphone_out_degrees () =
  let omsm = smartphone_omsm () in
  Alcotest.(check (list int)) "out-degree per mode" [ 1; 4; 3; 1; 2; 2; 2; 1 ]
    (List.init (Mm_omsm.Omsm.n_modes omsm) (fun mode ->
         List.length
           (List.filter
              (fun tr -> Mm_omsm.Transition.src tr = mode)
              (Mm_omsm.Omsm.transitions omsm))))

let test_one_device_absorbing () =
  (* A single-mode system absorbs the whole horizon: the closed form has
     no variance and no bias, so every device reads the mode's power,
     as the oracle walk does. *)
  let spec = F.spec_of_graphs ~probabilities:[| 1.0 |] [ F.chain_graph () ] in
  let omsm = Spec.omsm spec in
  let mode_powers = mode_powers_for spec [| 1e-3 |] in
  let expected = Power.total mode_powers.(0) in
  let walk =
    Trace_sim.simulate ~omsm ~mode_powers ~horizon:500.0 (Prng.create ~seed:7)
  in
  Alcotest.(check (float (1e-12 *. expected))) "oracle walk" expected
    walk.Trace_sim.empirical_power;
  let fleet = Fleet_sim.run ~devices:5 ~horizon:500.0 ~omsm ~mode_powers ~seed:7 () in
  let s = fleet.Fleet_sim.stats in
  Alcotest.(check (float (1e-12 *. expected))) "fleet mean" expected s.Fleet_sim.mean_power;
  Alcotest.(check bool) "no spread" true (s.Fleet_sim.min_hours = s.Fleet_sim.max_hours);
  Alcotest.(check (float 0.0)) "no transitions" 0.0 s.Fleet_sim.mean_transitions

let test_run_one_device_matches_kernel () =
  let omsm, mode_powers = two_mode () in
  let sim = Fleet_sim.compile ~omsm ~mode_powers in
  let model = Fleet_sim.Dirichlet { concentration = 20.0 } in
  let power, transitions =
    Fleet_sim.device sim ~model ~horizon:500.0 (Prng.stream (Prng.create ~seed:11) 0)
  in
  let fleet = Fleet_sim.run ~model ~devices:1 ~horizon:500.0 ~omsm ~mode_powers ~seed:11 () in
  let s = fleet.Fleet_sim.stats in
  Alcotest.(check bool) "device 0 power" true (bits s.Fleet_sim.mean_power = bits power);
  Alcotest.(check bool) "device 0 transitions" true
    (bits s.Fleet_sim.mean_transitions = bits transitions);
  Alcotest.(check bool) "device 0 lifetime through the battery" true
    (bits fleet.Fleet_sim.lifetimes.(0)
    = bits (Battery.lifetime_hours Battery.phone_cell ~average_power:power))

let test_ks_gate () =
  let cells =
    Fleet_gate.grid ~names:[ "smartphone"; "mul3"; "mul12" ] ~horizons:[ 1000.0 ] ()
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) (Format.asprintf "%a" Fleet_gate.pp_cell c) true
        (Fleet_gate.passes c))
    cells

(* Distribution-free interval for the q-quantile ξ from the ascending
   sample [sorted] of size m: the number B of samples below ξ is
   Binomial(m, q), so with l the largest rank where P(B < l) ≤ α/2 and
   u the smallest where P(B ≥ u) ≤ α/2, [X_(l), X_(u)] holds ξ with
   probability at least 1 − α (a missing rank is ∓∞).  The binomial
   masses are summed from log space. *)
let order_statistic_interval ~alpha ~q sorted =
  let m = Array.length sorted in
  let pmf = Array.make (m + 1) 0.0 in
  let log_mass = ref (float_of_int m *. log1p (-.q)) in
  for k = 0 to m do
    pmf.(k) <- exp !log_mass;
    if k < m then
      log_mass :=
        !log_mass
        +. log (float_of_int (m - k) /. float_of_int (k + 1))
        +. log q -. log1p (-.q)
  done;
  let below = ref 0.0 and l = ref 0 in
  while !below +. pmf.(!l) <= alpha /. 2.0 do
    below := !below +. pmf.(!l);
    incr l
  done;
  let above = ref 0.0 and u = ref (m + 1) in
  while !above +. pmf.(!u - 1) <= alpha /. 2.0 do
    above := !above +. pmf.(!u - 1);
    decr u
  done;
  ( (if !l >= 1 then sorted.(!l - 1) else Float.neg_infinity),
    if !u <= m then sorted.(!u - 1) else Float.infinity )

(* Each reported percentile of a 50,000-device closed-form fleet
   (smartphone anchor, T = 1000) must lie in the order-statistic
   interval above of the same quantile over Fleet_gate's 4,000 oracle
   walks, mapped through the same battery.  Ten checks (p1, p10, p50,
   p90, p99 under point and dirichlet:50) share α = 0.01 by Bonferroni,
   0.001 each.  The fleet's own percentile is a sample too, but from
   12.5 times as many devices, so its standard error is about a third
   of the walks'. *)
let test_percentiles_within_walk_intervals () =
  (* The textbook case: the 95 % interval of a median from 10 samples
     is [X_(2), X_(9)]. *)
  Alcotest.(check (pair (float 0.0) (float 0.0))) "median of 10 at 95 %" (2.0, 9.0)
    (order_statistic_interval ~alpha:0.05 ~q:0.5 (Array.init 10 (fun i -> float_of_int (i + 1))));
  let omsm, mode_powers = smartphone_anchor () in
  let horizon = 1000.0 in
  let models = [ Fleet_sim.Point; Fleet_sim.Dirichlet { concentration = 50.0 } ] in
  let alpha = 0.01 /. 10.0 in
  List.iter
    (fun model ->
      let fleet = Fleet_sim.run ~model ~horizon ~devices:50_000 ~omsm ~mode_powers ~seed:1 () in
      let walks =
        Array.map
          (fun power ->
            if power > 0.0 then Battery.lifetime_hours Battery.phone_cell ~average_power:power
            else Float.infinity)
          (Fleet_gate.walks ~omsm ~mode_powers ~model ~horizon ())
      in
      Array.sort Float.compare walks;
      List.iter
        (fun (rank, hours) ->
          let lo, hi =
            order_statistic_interval ~alpha ~q:(float_of_int rank /. 100.0) walks
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s p%d = %.4f h within the walks' [%.4f, %.4f] h"
               (Fleet_sim.model_to_string model) rank hours lo hi)
            true
            (lo <= hours && hours <= hi))
        fleet.Fleet_sim.stats.Fleet_sim.percentiles)
    models

(* Modes 1 and 2 both absorb: two closed classes, so the long-run usage
   depends on the first step and there is no unique π. *)
let test_compile_rejects_two_closed_classes () =
  let graph = F.chain_graph () in
  let mode id probability =
    Mm_omsm.Mode.make ~id ~name:(Printf.sprintf "m%d" id) ~graph ~period:1.0 ~probability
  in
  let omsm =
    Mm_omsm.Omsm.make ~name:"two-sinks"
      ~modes:[ mode 0 0.5; mode 1 0.25; mode 2 0.25 ]
      ~transitions:
        [
          Mm_omsm.Transition.make ~src:0 ~dst:1 ~max_time:1.0;
          Mm_omsm.Transition.make ~src:0 ~dst:2 ~max_time:1.0;
        ]
  in
  match Fleet_sim.compile ~omsm ~mode_powers:(flat_powers [| 1e-3; 2e-3; 3e-3 |]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "two closed classes accepted"

(* The floor is 200 expected transitions under the published Ψ; the
   mean holding time ⟨π, h⟩ is then Σ Ψ = 1, so 200 time units. *)
let test_horizon_floor () =
  let omsm, mode_powers = smartphone_anchor () in
  let run horizon = Fleet_sim.run ~devices:10 ~horizon ~omsm ~mode_powers ~seed:1 () in
  List.iter
    (fun horizon ->
      match run horizon with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "horizon %g accepted" horizon))
    [ 199.99; 100.0; 0.0; -1.0; Float.nan ];
  ignore (run 200.001 : Fleet_sim.result)

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

(* The smartphone's chain is not symmetric, so its π is not uniform: a
   fleet that used any π but the exact one would spend the wrong time
   shares and miss Eq. (1) by far more than its standard error (a
   damped π read −1.32 %, about 90 standard errors). *)
let test_smartphone_eq1_within_4_se () =
  let omsm, mode_powers = smartphone_anchor () in
  let devices = 10_000 in
  let fleet = Fleet_sim.run ~devices ~horizon:10_000.0 ~omsm ~mode_powers ~seed:3 () in
  let s = fleet.Fleet_sim.stats in
  let powers =
    Array.map
      (fun hours -> Battery.power_for_lifetime Battery.phone_cell ~hours)
      fleet.Fleet_sim.lifetimes
  in
  let n = float_of_int devices in
  let mean = Array.fold_left ( +. ) 0.0 powers /. n in
  let sd =
    sqrt (Array.fold_left (fun acc p -> acc +. ((p -. mean) ** 2.0)) 0.0 powers /. (n -. 1.0))
  in
  let se = sd /. sqrt n in
  let off = (s.Fleet_sim.mean_power -. s.Fleet_sim.analytic_power) /. se in
  Alcotest.(check bool)
    (Printf.sprintf "fleet mean %.6g W vs Eq. 1 %.6g W: %.2f standard errors (SE %.3g W)"
       s.Fleet_sim.mean_power s.Fleet_sim.analytic_power off se)
    true
    (Float.abs off <= 4.0)

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

(* Selection against the sorted reference on arrays drawn from a few
   values (ties everywhere), with +∞ standing for a zero-power device's
   lifetime. *)
let prop_selection_matches_sorted =
  let values = [| 0.5; 1.0; 1.0; 2.5; 3.0; 7.0; 1e6; Float.infinity |] in
  QCheck.Test.make ~name:"selected percentiles ≡ sorted reference (ties, +∞)"
    ~count:(fuzz_count 500)
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 300) (pair (int_bound 7) (float_bound_inclusive 1.0)))
        (list_of_size Gen.(0 -- 6) (float_range 1e-6 1.0)))
    (fun (draws, qs) ->
      let a =
        Array.of_list (List.map (fun (k, x) -> if k = 0 then x else values.(k)) draws)
      in
      let qs = List.sort Float.compare ([ 0.01; 0.1; 0.5; 0.9; 0.99; 1.0 ] @ qs) in
      let sorted = Array.copy a in
      Array.sort compare sorted;
      let before = Array.map bits a in
      List.map bits (Fleet_sim.nearest_rank_percentiles a qs)
      = List.map (fun q -> bits (Fleet_sim.percentile_of_sorted sorted q)) qs
      && Array.map bits a = before)

(* --- Bit-invariance under jobs -------------------------------------------------- *)

(* 9,000 devices span three of the fixed-size batches, so the pooled run
   really sums partial batches on other domains. *)
let test_jobs_bit_invariance () =
  let omsm, mode_powers = two_mode () in
  let run ?pool () =
    Fleet_sim.run ?pool
      ~model:(Fleet_sim.Holding_jitter { sigma = 0.3 })
      ~devices:9_000 ~horizon:300.0 ~omsm ~mode_powers ~seed:13 ()
  in
  let reference = run () in
  let check_same name result =
    Alcotest.(check string) name (Fleet_sim.to_json reference) (Fleet_sim.to_json result);
    Alcotest.(check (array int64))
      (name ^ " lifetimes")
      (Array.map bits reference.Fleet_sim.lifetimes)
      (Array.map bits result.Fleet_sim.lifetimes)
  in
  let pool = Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> check_same "pooled" (run ~pool ()));
  (* Same seed, fresh run: the report is a pure function of its inputs. *)
  check_same "replay" (run ())

(* Two smartphone usage profiles: the published Ψ, and a heavy user who
   lives in the modes the published profile rarely visits (unnormalised,
   as a profile may be). *)
let smartphone_mixture =
  Fleet_sim.Mixture
    [
      {
        Fleet_sim.name = "published";
        weight = 3.0;
        psi = [| 0.09; 0.74; 0.01; 0.02; 0.02; 0.10; 0.01; 0.01 |];
      };
      { Fleet_sim.name = "heavy"; weight = 1.0; psi = [| 2.0; 1.0; 1.0; 3.0; 1.0; 1.0; 2.0; 1.0 |] };
    ]

(* Golden pin: the smartphone greedy-timing anchor (the benchmark's
   fleet design), 2,000 devices, horizon 1000, seed 1000, under all four
   usage models.  Any change to the closed form's arithmetic or draw
   order moves the digests. *)
let test_golden_report () =
  let omsm, mode_powers = smartphone_anchor () in
  List.iter
    (fun (model, digest) ->
      let fleet =
        Fleet_sim.run ~model ~horizon:1000.0 ~devices:2_000 ~omsm ~mode_powers ~seed:1000 ()
      in
      Alcotest.(check string)
        (Fleet_sim.model_to_string model)
        digest
        (Digest.to_hex (Digest.string (Fleet_sim.to_json fleet))))
    [
      (Fleet_sim.Point, "7e3fc1bf404cfa987fe0d58eef7918fc");
      (Fleet_sim.Dirichlet { concentration = 50. }, "5f4786a10b7d754998fcc43257968388");
      (Fleet_sim.Holding_jitter { sigma = 0.3 }, "0178856637ee12ae74d2221e2992d543");
      (smartphone_mixture, "5dbed6011db9e04df4ca588f8b547a15");
    ]

(* A device draws into buffers allocated once per query: what it still
   allocates is its generator and the boxed results of its few PRNG and
   battery calls, about 20 words, where the allocating kernel took 400
   (point) to 930 (dirichlet:50). *)
let test_device_allocation () =
  let omsm, mode_powers = smartphone_anchor () in
  let devices = 10_000 in
  List.iter
    (fun model ->
      let run () =
        ignore
          (Fleet_sim.run ~model ~horizon:1000.0 ~devices ~omsm ~mode_powers ~seed:1 ()
            : Fleet_sim.result)
      in
      run ();
      let before = Gc.minor_words () in
      run ();
      let words = (Gc.minor_words () -. before) /. float_of_int devices in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words a device, at most 64"
           (Fleet_sim.model_to_string model) words)
        true (words <= 64.0))
    [
      Fleet_sim.Point;
      Fleet_sim.Dirichlet { concentration = 50. };
      Fleet_sim.Holding_jitter { sigma = 0.3 };
      smartphone_mixture;
    ]

let test_report_shape () =
  let omsm, mode_powers = two_mode () in
  let fleet = Fleet_sim.run ~devices:32 ~horizon:300.0 ~omsm ~mode_powers ~seed:2 () in
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

(* Shapes log-uniform over [1e-9, 200], so four in five are below 1 and
   take the boosting path, with the edges and 1 itself mixed in. *)
let shape_gen =
  QCheck.Gen.(
    frequency
      [
        ( 9,
          map
            (fun u -> exp (log 1e-9 +. (u *. (log 200.0 -. log 1e-9))))
            (float_bound_inclusive 1.0) );
        (1, oneofl [ 1e-9; 0.5; 1.0; 200.0 ]);
      ])

(* The in-place samplers draw on an unboxed local state word; the
   allocating ones they replaced ([Prng_oracle]) are the reference, bit
   for bit in every draw and in the generator state left behind.  The
   robust objective's Ψ samples go through [Prng.dirichlet], so this
   also keeps them unchanged. *)
let prop_samplers_match_oracle =
  QCheck.Test.make ~name:"in-place samplers ≡ allocating oracle (bits and state)"
    ~count:(fuzz_count 300)
    QCheck.(
      pair int (make ~print:Print.(array float) Gen.(array_size (1 -- 12) shape_gen)))
    (fun (seed, alpha) ->
      let n = Array.length alpha in
      let same draw reference =
        let oracle = Prng.create ~seed and rng = Prng.create ~seed in
        let expected = reference oracle and got = draw rng in
        Array.map bits got = Array.map bits expected && Prng.state rng = Prng.state oracle
      in
      same (fun rng -> Prng.dirichlet rng alpha) (fun o -> Prng_oracle.dirichlet o alpha)
      && same
           (fun rng ->
             let out = Array.make n Float.nan in
             Prng.dirichlet_into rng alpha out;
             out)
           (fun o -> Prng_oracle.dirichlet o alpha)
      && same
           (fun rng -> Array.map (fun shape -> Prng.gamma rng ~shape) alpha)
           (fun o -> Array.map (fun shape -> Prng_oracle.gamma o ~shape) alpha)
      && same
           (fun rng -> Array.init n (fun _ -> Prng.gaussian rng))
           (fun o -> Array.init n (fun _ -> Prng_oracle.gaussian o))
      && same
           (fun rng ->
             let out = Array.make n Float.nan in
             Prng.gaussians_into rng out;
             out)
           (fun o -> Array.init n (fun _ -> Prng_oracle.gaussian o)))

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
          Alcotest.test_case "absorbing mode" `Quick test_one_device_absorbing;
          Alcotest.test_case "run ≡ kernel for device 0" `Quick
            test_run_one_device_matches_kernel;
          Alcotest.test_case "smartphone out-degrees" `Quick test_smartphone_out_degrees;
          Alcotest.test_case "Kolmogorov–Smirnov gate, T = 1000" `Quick test_ks_gate;
          Alcotest.test_case "percentiles within the walks' intervals" `Quick
            test_percentiles_within_walk_intervals;
          Alcotest.test_case "two closed classes rejected" `Quick
            test_compile_rejects_two_closed_classes;
          Alcotest.test_case "horizon floor" `Quick test_horizon_floor;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "converges to Eq. (1)" `Quick test_converges_to_analytic;
          Alcotest.test_case "smartphone Eq. (1) within 4 SE" `Quick
            test_smartphone_eq1_within_4_se;
          Alcotest.test_case "percentiles monotone" `Quick test_percentiles_monotone;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile_of_sorted;
          QCheck_alcotest.to_alcotest prop_selection_matches_sorted;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "bit-invariant under jobs and replay" `Quick
            test_jobs_bit_invariance;
          Alcotest.test_case "golden report digests" `Quick test_golden_report;
          Alcotest.test_case "device allocation" `Quick test_device_allocation;
          Alcotest.test_case "report shape" `Quick test_report_shape;
        ] );
      ( "usage models",
        [
          Alcotest.test_case "sample_psi" `Quick test_sample_psi;
          Alcotest.test_case "validation" `Quick test_validate_model;
          Alcotest.test_case "gamma and dirichlet" `Quick test_prng_gamma_dirichlet;
          QCheck_alcotest.to_alcotest prop_samplers_match_oracle;
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
