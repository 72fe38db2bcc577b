(* The distribution gate of the closed-form fleet: a two-sample
   Kolmogorov–Smirnov test of [Fleet_sim.device] powers against
   [Trace_sim] walks of the same OMSM, design and usage model. *)

module Prng = Mm_util.Prng
module Fleet_sim = Mm_energy.Fleet_sim
module Spec = Mm_cosynth.Spec
module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode

(* D = sup |F_a − F_b| over the two empirical CDFs. *)
let ks_statistic a b =
  let a = Array.copy a and b = Array.copy b in
  Array.sort Float.compare a;
  Array.sort Float.compare b;
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and d = ref 0.0 in
  while !i < na && !j < nb do
    let x = Float.min a.(!i) b.(!j) in
    while !i < na && a.(!i) <= x do incr i done;
    while !j < nb && b.(!j) <= x do incr j done;
    d :=
      Float.max !d
        (Float.abs ((float_of_int !i /. float_of_int na) -. (float_of_int !j /. float_of_int nb)))
  done;
  !d

(* Asymptotic critical value of D at level [alpha]. *)
let critical ~alpha ~n ~m =
  sqrt (-.log (alpha /. 2.0) /. 2.0)
  *. sqrt (float_of_int (n + m) /. float_of_int (n * m))

let spec_of_name = function
  | "smartphone" -> Mm_benchgen.Smartphone.spec ()
  | name ->
    Mm_benchgen.Random_system.mul (int_of_string (String.sub name 3 (String.length name - 3)))

(* The benchmark's fleet design: the greedy timing anchor. *)
let mode_powers spec =
  match Mm_cosynth.Synthesis.greedy_timing_anchor spec with
  | Some genome ->
    (Mm_cosynth.Fitness.evaluate Mm_cosynth.Fitness.default_config spec genome)
      .Mm_cosynth.Fitness.mode_powers
  | None -> failwith "Fleet_gate: the spec has no software anchor"

(* One walk device: the same usage model as [Fleet_sim], with the
   oracle's own π and holding times [base]. *)
let walk_power ~omsm ~mode_powers ~pi ~base ~model ~horizon rng =
  let holding_times =
    match model with
    | Fleet_sim.Point -> base
    | Fleet_sim.Holding_jitter { sigma } ->
      Array.map
        (fun h -> h *. exp ((sigma *. Prng.gaussian rng) -. (0.5 *. sigma *. sigma)))
        base
    | Fleet_sim.Dirichlet _ | Fleet_sim.Mixture _ ->
      let psi =
        Fleet_sim.sample_psi model
          ~base:(Array.init (Omsm.n_modes omsm) (fun i -> Mode.probability (Omsm.mode omsm i)))
          rng
      in
      Array.mapi
        (fun i p -> if p <= 0.0 then 1e-9 else Float.max 1e-9 (psi.(i) /. p))
        pi
  in
  (Trace_sim.simulate ~holding_times ~omsm ~mode_powers ~horizon rng).Trace_sim.empirical_power

type cell = {
  name : string;
  model : Fleet_sim.usage_model;
  horizon : float;
  d : float;
  critical : float;
}

let passes c = c.d <= c.critical

(* The oracle walks a cell on [seed] compares against: [devices] walk
   powers on seed [seed + 1]. *)
let walks ?(devices = 4000) ?(seed = 7) ~omsm ~mode_powers ~model ~horizon () =
  let walk_base = Prng.create ~seed:(seed + 1) in
  let pi = Trace_sim.stationary omsm and base = Trace_sim.holding_times_for omsm in
  Array.init devices (fun i ->
      walk_power ~omsm ~mode_powers ~pi ~base ~model ~horizon (Prng.stream walk_base i))

(* [devices] closed-form draws on seed [seed] against as many walks on
   seed [seed + 1]; [alpha] is the cell's own level. *)
let cell ?(devices = 4000) ?(seed = 7) ~alpha ~name ~model ~horizon () =
  let spec = spec_of_name name in
  let omsm = Spec.omsm spec in
  let mode_powers = mode_powers spec in
  let sim = Fleet_sim.compile ~omsm ~mode_powers in
  let closed_base = Prng.create ~seed in
  let closed =
    Array.init devices (fun i ->
        fst (Fleet_sim.device sim ~model ~horizon (Prng.stream closed_base i)))
  in
  {
    name;
    model;
    horizon;
    d = ks_statistic closed (walks ~devices ~seed ~omsm ~mode_powers ~model ~horizon ());
    critical = critical ~alpha ~n:devices ~m:devices;
  }

let models =
  [
    Fleet_sim.Point;
    Fleet_sim.Dirichlet { concentration = 50.0 };
    Fleet_sim.Holding_jitter { sigma = 0.3 };
  ]

(* Every (name, model, horizon) combination, each at the Bonferroni
   level [alpha] / number of cells. *)
let grid ?devices ?(alpha = 0.01) ~names ~horizons () =
  let combos =
    List.concat_map
      (fun horizon ->
        List.concat_map (fun name -> List.map (fun model -> (name, model, horizon)) models) names)
      horizons
  in
  let alpha = alpha /. float_of_int (List.length combos) in
  List.map
    (fun (name, model, horizon) -> cell ?devices ~alpha ~name ~model ~horizon ())
    combos

let pp_cell ppf c =
  Format.fprintf ppf "%-10s %-14s T=%-7g D=%.4f crit=%.4f %s" c.name
    (Fleet_sim.model_to_string c.model)
    c.horizon c.d c.critical
    (if passes c then "pass" else "FAIL")
