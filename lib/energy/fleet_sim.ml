module Prng = Mm_util.Prng
module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode
module Transition = Mm_omsm.Transition
module Pool = Mm_parallel.Pool
module Json = Mm_obs.Json

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type profile = { name : string; weight : float; psi : float array }

type usage_model =
  | Point
  | Dirichlet of { concentration : float }
  | Holding_jitter of { sigma : float }
  | Mixture of profile list

let is_point = function Point -> true | _ -> false

let validate_model ~n_modes = function
  | Point -> ()
  | Dirichlet { concentration } ->
    if not (concentration > 0.0 && Float.is_finite concentration) then
      invalid_arg "Fleet_sim: Dirichlet concentration must be positive and finite"
  | Holding_jitter { sigma } ->
    if not (sigma >= 0.0 && Float.is_finite sigma) then
      invalid_arg "Fleet_sim: holding-time jitter sigma must be non-negative and finite"
  | Mixture profiles ->
    if profiles = [] then invalid_arg "Fleet_sim: empty usage mixture";
    List.iter
      (fun { name; weight; psi } ->
        if not (weight > 0.0 && Float.is_finite weight) then
          invalid_arg
            (Printf.sprintf "Fleet_sim: profile %S has non-positive weight" name);
        if Array.length psi <> n_modes then
          invalid_arg
            (Printf.sprintf "Fleet_sim: profile %S has %d probabilities, OMSM has %d modes"
               name (Array.length psi) n_modes);
        Array.iter
          (fun p ->
            if not (p >= 0.0 && Float.is_finite p) then
              invalid_arg
                (Printf.sprintf "Fleet_sim: profile %S has a negative probability" name))
          psi;
        if Array.fold_left ( +. ) 0.0 psi <= 0.0 then
          invalid_arg (Printf.sprintf "Fleet_sim: profile %S sums to zero" name))
      profiles

let model_to_string = function
  | Point -> "point"
  | Dirichlet { concentration } -> Printf.sprintf "dirichlet:%g" concentration
  | Holding_jitter { sigma } -> Printf.sprintf "jitter:%g" sigma
  | Mixture profiles ->
    Printf.sprintf "mixture:%s"
      (String.concat "," (List.map (fun p -> p.name) profiles))

(* Hex-float spelling for config fingerprints: two models fingerprint
   equal iff they sample identically. *)
let model_fingerprint = function
  | Point -> "point"
  | Dirichlet { concentration } -> Printf.sprintf "dirichlet:%h" concentration
  | Holding_jitter { sigma } -> Printf.sprintf "jitter:%h" sigma
  | Mixture profiles ->
    Printf.sprintf "mixture:%s"
      (String.concat ","
         (List.map
            (fun p ->
              Printf.sprintf "%s=%h@%s" p.name p.weight
                (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") p.psi))))
            profiles))

let normalise psi =
  let total = Array.fold_left ( +. ) 0.0 psi in
  Array.map (fun p -> p /. total) psi

(* One Ψ draw for a device.  [Point] consumes no randomness, so a
   point-model device stream is bit-identical to handing the same
   generator to the single-device oracle walk.  [Holding_jitter] perturbs holding
   times, not the embedded chain; its long-run profile is
   Ψ'_i ∝ Ψ_i·j_i with j_i the per-mode log-normal factor, which is what
   this returns so robust fitness sees the same distribution the walk
   realises. *)
let sample_psi model ~base rng =
  match model with
  | Point -> base
  | Dirichlet { concentration } ->
    let alpha = Array.map (fun p -> concentration *. Float.max 1e-9 p) base in
    Prng.dirichlet rng alpha
  | Holding_jitter { sigma } ->
    normalise
      (Array.map
         (fun p ->
           p *. exp ((sigma *. Prng.gaussian rng) -. (0.5 *. sigma *. sigma)))
         base)
  | Mixture profiles ->
    let total = List.fold_left (fun acc p -> acc +. p.weight) 0.0 profiles in
    let u = Prng.float rng 1.0 *. total in
    let rec pick acc = function
      | [ last ] -> last
      | p :: rest -> if u < acc +. p.weight then p else pick (acc +. p.weight) rest
      | [] -> assert false
    in
    normalise (Array.copy (pick 0.0 profiles).psi)

(* --- Compiled walk table ------------------------------------------------ *)

type sim = {
  n_modes : int;
  start : int;
  power : float array;  (* Power.total per mode *)
  base_psi : float array;
  pi : float array;  (* stationary distribution of the embedded chain *)
  base_holding : float array;  (* holding_of_psi pi base_psi *)
  dsts : int array array;  (* outgoing destinations, transition-list order *)
}

(* Mean residence times h_i = Ψ_i / π_i, with π the stationary
   distribution of the embedded jump chain: the semi-Markov walk then
   spends the long-run share Ψ_i in mode i.  A mode with π_i = 0 or
   Ψ_i = 0 gets a vanishing holding time. *)
let holding_of_psi pi psi =
  Array.init (Array.length pi) (fun i ->
      if pi.(i) <= 0.0 then 1e-9 else Float.max 1e-9 (psi.(i) /. pi.(i)))

let compile ~omsm ~mode_powers =
  let n = Omsm.n_modes omsm in
  if Array.length mode_powers <> n then
    invalid_arg "Fleet_sim.compile: mode_powers length mismatch";
  let base_psi = Array.init n (fun i -> Mode.probability (Omsm.mode omsm i)) in
  let start =
    let best = ref 0 in
    for i = 1 to n - 1 do
      if base_psi.(i) > base_psi.(!best) then best := i
    done;
    !best
  in
  let pi =
    let observations =
      List.map
        (fun tr ->
          {
            Mm_omsm.Usage_profile.src = Transition.src tr;
            dst = Transition.dst tr;
            count = 1.0;
          })
        (Omsm.transitions omsm)
    in
    match observations with
    | [] -> Array.make n (1.0 /. float_of_int n)
    | _ ->
      Mm_omsm.Usage_profile.stationary
        (Mm_omsm.Usage_profile.embedded_chain ~n_modes:n observations)
  in
  let dsts =
    Array.init n (fun mode ->
        Omsm.transitions omsm
        |> List.filter (fun tr -> Transition.src tr = mode)
        |> List.map Transition.dst
        |> Array.of_list)
  in
  {
    n_modes = n;
    start;
    power = Array.map Power.total mode_powers;
    base_psi;
    pi;
    base_holding = holding_of_psi pi base_psi;
    dsts;
  }

(* Per-device holding times.  Draw order matches [sample_psi] so the
   usage models consume the stream identically whether they drive the
   walk or the robust-fitness Ψ samples. *)
let device_holding sim model rng =
  match model with
  | Point -> sim.base_holding
  | Holding_jitter { sigma } ->
    Array.map
      (fun h -> h *. exp ((sigma *. Prng.gaussian rng) -. (0.5 *. sigma *. sigma)))
      sim.base_holding
  | Dirichlet _ | Mixture _ -> holding_of_psi sim.pi (sample_psi model ~base:sim.base_psi rng)

(* SplitMix64, stepped on a bare word: [Prng.bits64] is [mix64] of the
   word after one Weyl step, and [unit_of] is the [\[0, 1)] draw that
   [Prng.float] and [Prng.int] both take from its top 53 bits.  These
   are copies, not calls, and must match [Prng] bit for bit: dune's
   dev profile compiles with [-opaque], so no call into [Prng] is
   inlined, and each one boxes the stored word, [bits64]'s result and
   the returned float (8 words a draw; DESIGN.md §16 has the
   measurements).  The differential tests in [test_fleet.ml] hold the
   copies equal to [Prng]. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] unit_of word =
  Int64.to_float (Int64.shift_right_logical (mix64 word) 11) /. 9007199254740992.0

(* The walk is a float-for-float transliteration of
   the oracle walk's inner loop (same exponential expression, same
   accumulation order, a [Prng.int] draw over the precompiled
   destination array standing in for [Prng.pick] over the filtered
   transition list), so a point-model device with stream 0 reproduces
   the oracle bit-for-bit and leaves the generator in the oracle's
   state.  It is one [while] loop over local refs that no closure
   captures, so mode, clock, energy and the generator word stay
   unboxed: a point-model step allocates nothing.  The word is read
   once from [rng] and written back once at the end. *)
let simulate_device ?on_segment sim ~model ~horizon rng =
  if horizon <= 0.0 then invalid_arg "Fleet_sim.simulate_device: non-positive horizon";
  let holding = device_holding sim model rng in
  let word = ref (Prng.state rng) in
  let mode = ref sim.start in
  let now = ref 0.0 in
  let energy = ref 0.0 in
  let transitions = ref 0 in
  let walking = ref true in
  while !walking do
    let m = !mode and enter = !now in
    (* [Prng.float rng 1.0]. *)
    word := Int64.add !word golden_gamma;
    let u = unit_of !word *. 1.0 in
    let dwell = -.holding.(m) *. log (Float.max 1e-300 (1.0 -. u)) in
    let leave = Float.min horizon (enter +. dwell) in
    let duration = leave -. enter in
    energy := !energy +. (sim.power.(m) *. duration);
    (match on_segment with Some f -> f ~mode:m ~enter ~leave | None -> ());
    if leave < horizon then begin
      let dsts = sim.dsts.(m) in
      let k = Array.length dsts in
      if k = 0 then begin
        (* Absorbing: finish the horizon here. *)
        energy := !energy +. (sim.power.(m) *. (horizon -. leave));
        (match on_segment with
        | Some f -> f ~mode:m ~enter:leave ~leave:horizon
        | None -> ());
        walking := false
      end
      else begin
        incr transitions;
        (* [Prng.int rng k], clamp included. *)
        word := Int64.add !word golden_gamma;
        let v = int_of_float (unit_of !word *. float_of_int k) in
        mode := dsts.(if v >= k then k - 1 else v);
        now := leave
      end
    end
    else walking := false
  done;
  Prng.set_state rng !word;
  (!energy /. horizon, !transitions)

(* --- Fleet runs --------------------------------------------------------- *)

type stats = {
  mean_power : float;
  analytic_power : float;
  mean_transitions : float;
  mean_hours : float;
  stddev_hours : float;
  min_hours : float;
  max_hours : float;
  percentiles : (int * float) list;
}

type result = {
  devices : int;
  horizon : float;
  seed : int;
  model : usage_model;
  battery : Battery.t;
  lifetimes : vec;
  powers : vec;
  transitions : vec;
  stats : stats;
}

let percentile_ranks = [ 1; 10; 50; 90; 99 ]

(* Nearest-rank percentile over an ascending-sorted array. *)
let percentile_of_sorted sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let sorted_lifetimes result =
  let a = Array.init result.devices (fun i -> Bigarray.Array1.get result.lifetimes i) in
  Array.sort compare a;
  a

let run ?pool ?(batch = 4096) ?(model = Point) ?(battery = Battery.phone_cell)
    ?(horizon = 10_000.0) ~devices ~omsm ~mode_powers ~seed () =
  if devices <= 0 then invalid_arg "Fleet_sim.run: need at least one device";
  if batch <= 0 then invalid_arg "Fleet_sim.run: non-positive batch size";
  if horizon <= 0.0 then invalid_arg "Fleet_sim.run: non-positive horizon";
  validate_model ~n_modes:(Omsm.n_modes omsm) model;
  let sim = compile ~omsm ~mode_powers in
  let base = Prng.create ~seed in
  let lifetimes = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout devices in
  let powers = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout devices in
  let transitions = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout devices in
  (* Device [i]'s generator is a pure function of (seed, i): results do
     not depend on how devices are partitioned into batches or spread
     over domains, which is what makes the percentile output bit-stable
     across [--jobs] and batch sizes. *)
  let one i =
    let rng = Prng.stream base i in
    let power, n_transitions = simulate_device sim ~model ~horizon rng in
    Bigarray.Array1.set powers i power;
    Bigarray.Array1.set transitions i (float_of_int n_transitions);
    Bigarray.Array1.set lifetimes i
      (if power > 0.0 then Battery.lifetime_hours battery ~average_power:power
       else Float.infinity)
  in
  let n_batches = (devices + batch - 1) / batch in
  let run_batch b =
    let lo = b * batch in
    let hi = min devices (lo + batch) - 1 in
    for i = lo to hi do
      one i
    done
  in
  let batches = Array.init n_batches (fun b -> b) in
  (match pool with
  | Some pool -> ignore (Pool.map pool run_batch batches : unit array)
  | None -> Array.iter run_batch batches);
  let sum v =
    let acc = ref 0.0 in
    for i = 0 to devices - 1 do
      acc := !acc +. Bigarray.Array1.get v i
    done;
    !acc
  in
  let nf = float_of_int devices in
  let sorted = Array.init devices (fun i -> Bigarray.Array1.get lifetimes i) in
  Array.sort compare sorted;
  let mean_hours = sum lifetimes /. nf in
  let stddev_hours =
    if Float.is_finite mean_hours then begin
      let acc = ref 0.0 in
      for i = 0 to devices - 1 do
        let d = Bigarray.Array1.get lifetimes i -. mean_hours in
        acc := !acc +. (d *. d)
      done;
      sqrt (!acc /. nf)
    end
    else Float.nan
  in
  let stats =
    {
      mean_power = sum powers /. nf;
      analytic_power = Power.average ~probabilities:sim.base_psi mode_powers;
      mean_transitions = sum transitions /. nf;
      mean_hours;
      stddev_hours;
      min_hours = sorted.(0);
      max_hours = sorted.(devices - 1);
      percentiles =
        List.map
          (fun p -> (p, percentile_of_sorted sorted (float_of_int p /. 100.0)))
          percentile_ranks;
    }
  in
  { devices; horizon; seed; model; battery; lifetimes; powers; transitions; stats }

(* Deterministic report: no wall-clock or host fields, so equal seeds
   give byte-identical files. *)
let to_json result =
  let b = Buffer.create 512 in
  Buffer.add_string b "{";
  Json.str b "format";
  Buffer.add_string b ":";
  Json.str b "mmsyn-fleet-report";
  let field name =
    Buffer.add_string b ",";
    Json.str b name;
    Buffer.add_string b ":"
  in
  field "version";
  Json.int b 1;
  field "devices";
  Json.int b result.devices;
  field "horizon_s";
  Json.number b result.horizon;
  field "seed";
  Json.int b result.seed;
  field "usage_model";
  Json.str b (model_to_string result.model);
  field "battery";
  Buffer.add_string b "{";
  Json.str b "capacity_ah";
  Buffer.add_string b ":";
  Json.number b result.battery.Battery.capacity_ah;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b ",";
      Json.str b name;
      Buffer.add_string b ":";
      Json.number b v)
    [
      ("voltage", result.battery.Battery.voltage);
      ("peukert", result.battery.Battery.peukert);
      ("rated_hours", result.battery.Battery.rated_hours);
    ];
  Buffer.add_string b "}";
  field "analytic_power_w";
  Json.number b result.stats.analytic_power;
  field "mean_power_w";
  Json.number b result.stats.mean_power;
  field "mean_transitions";
  Json.number b result.stats.mean_transitions;
  field "lifetime_hours";
  Buffer.add_string b "{";
  Json.str b "mean";
  Buffer.add_string b ":";
  Json.number b result.stats.mean_hours;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b ",";
      Json.str b name;
      Buffer.add_string b ":";
      Json.number b v)
    ([
       ("stddev", result.stats.stddev_hours);
       ("min", result.stats.min_hours);
       ("max", result.stats.max_hours);
     ]
    @ List.map
        (fun (p, v) -> (Printf.sprintf "p%d" p, v))
        result.stats.percentiles);
  Buffer.add_string b "}}";
  Buffer.contents b

let pp ppf result =
  let s = result.stats in
  Format.fprintf ppf "fleet: %d devices, horizon %g s, seed %d, usage %s@,"
    result.devices result.horizon result.seed (model_to_string result.model);
  Format.fprintf ppf "power: mean %.6f W (analytic %.6f W), %.1f transitions/device@,"
    s.mean_power s.analytic_power s.mean_transitions;
  Format.fprintf ppf "lifetime: mean %.2f h, stddev %.2f h, min %.2f h, max %.2f h@,"
    s.mean_hours s.stddev_hours s.min_hours s.max_hours;
  Format.fprintf ppf "percentiles:";
  List.iter (fun (p, v) -> Format.fprintf ppf " p%d=%.2fh" p v) s.percentiles
