module Prng = Mm_util.Prng
module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode
module Transition = Mm_omsm.Transition
module Json = Mm_obs.Json

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

(* One Ψ draw for a device.  [Point] consumes no randomness.
   [Holding_jitter] perturbs holding times, not the embedded chain; its
   long-run profile is Ψ'_i ∝ Ψ_i·j_i with j_i the per-mode log-normal
   factor, which is what this returns so robust fitness sees the same
   distribution the fleet realises. *)
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

(* --- Compiled chain ------------------------------------------------------ *)

type sim = {
  start : int;
  power : float array;  (* Power.total per mode *)
  lo_power : float;
  hi_power : float;
  base_psi : float array;
  pi : float array;  (* exact stationary distribution of the embedded chain *)
  live : float;  (* Σ π_i over modes with an outgoing transition *)
  base_holding : float array;  (* holding_of_psi pi base_psi *)
  z : float array array;  (* fundamental matrix, Usage_profile.fundamental *)
}

(* Mean residence times h_i = Ψ_i / π_i, with π the stationary
   distribution of the embedded jump chain: the chain then spends the
   long-run share Ψ_i in mode i.  A mode with π_i = 0 or Ψ_i = 0 gets a
   vanishing holding time. *)
let holding_into pi psi h =
  for i = 0 to Array.length pi - 1 do
    h.(i) <- (if pi.(i) <= 0.0 then 1e-9 else Float.max 1e-9 (psi.(i) /. pi.(i)))
  done

let holding_of_psi pi psi =
  let h = Array.make (Array.length pi) 0.0 in
  holding_into pi psi h;
  h

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
  let p =
    Mm_omsm.Usage_profile.embedded_chain ~n_modes:n
      (List.map
         (fun tr ->
           {
             Mm_omsm.Usage_profile.src = Transition.src tr;
             dst = Transition.dst tr;
             count = 1.0;
           })
         (Omsm.transitions omsm))
  in
  let pi, z = Mm_omsm.Usage_profile.fundamental p in
  let power = Array.map Power.total mode_powers in
  {
    start;
    power;
    lo_power = Array.fold_left Float.min Float.infinity power;
    hi_power = Array.fold_left Float.max Float.neg_infinity power;
    base_psi;
    pi;
    (* An absorbing mode is the only one the chain self-loops in. *)
    live =
      Array.fold_left ( +. ) 0.0
        (Array.mapi (fun i q -> if p.(i).(i) < 1.0 then q else 0.0) pi);
    base_holding = holding_of_psi pi base_psi;
    z;
  }

(* A usage model with its per-query constants worked out, so that a
   device's draw only reads them. *)
type usage =
  | Published
  | Jitter of float
  | Concentrations of float array  (* c·max(1e-9, Ψ_i), [sample_psi]'s α *)
  | Profiles of {
      weights : float array;
      total : float;  (* Σ weights, summed in profile order *)
      holdings : float array array;  (* each profile's normalised holding times *)
    }

(* One device's result, a flat float record so that storing it
   allocates nothing. *)
type draw = { mutable watts : float; mutable transitions : float }

(* Everything a device works in, allocated once per query: a device
   then allocates only its generator and the boxed results of its few
   calls into other modules, about 20 words. *)
type scratch = {
  usage : usage;
  h : float array;  (* the device's holding times h′ *)
  v : float array;  (* its Ψ′, then h′∘f̃ *)
  out : draw;
}

let scratch sim model =
  let n = Array.length sim.pi in
  let usage =
    match model with
    | Point -> Published
    | Holding_jitter { sigma } -> Jitter sigma
    | Dirichlet { concentration } ->
      Concentrations (Array.map (fun p -> concentration *. Float.max 1e-9 p) sim.base_psi)
    | Mixture profiles ->
      let profiles = Array.of_list profiles in
      let weights = Array.map (fun p -> p.weight) profiles in
      Profiles
        {
          weights;
          total = Array.fold_left ( +. ) 0.0 weights;
          holdings = Array.map (fun p -> holding_of_psi sim.pi (normalise p.psi)) profiles;
        }
  in
  { usage; h = Array.make n 0.0; v = Array.make n 0.0; out = { watts = 0.0; transitions = 0.0 } }

(* Per-device holding times.  Draw order matches [sample_psi] so the
   usage models consume the stream identically whether they drive the
   fleet or the robust-fitness Ψ samples. *)
let draw_holding sim sc rng =
  let h = sc.h in
  match sc.usage with
  | Published -> sim.base_holding
  | Jitter sigma ->
    Prng.gaussians_into rng h;
    for i = 0 to Array.length h - 1 do
      h.(i) <- sim.base_holding.(i) *. exp ((sigma *. h.(i)) -. (0.5 *. sigma *. sigma))
    done;
    h
  | Concentrations alpha ->
    Prng.dirichlet_into rng alpha sc.v;
    holding_into sim.pi sc.v h;
    h
  | Profiles { weights; total; holdings } ->
    let u = Prng.float rng 1.0 *. total in
    let last = Array.length weights - 1 in
    let k = ref 0 and acc = ref 0.0 in
    while !k < last && not (u < !acc +. weights.(!k)) do
      acc := !acc +. weights.(!k);
      incr k
    done;
    holdings.(!k)

(* With holding times h, the device is a continuous-time Markov chain
   whose time shares are s = π∘h/⟨π,h⟩.  Its time-averaged power over a
   horizon T has mean m = ⟨s, power⟩ plus the start mode's bias
   (g_start − ⟨s,g⟩)/T, and variance σ²/T with σ² = 2 Σ s_i f̃_i g_i,
   where f̃ = power − m and g = Z(h∘f̃) solves the Poisson equation
   (I − P) g = h∘f̃.  The draw is clamped to the mode powers' range,
   where every time average lies.  The result goes to [sc.out]. *)
let draw_device sim sc ~horizon rng =
  let h = draw_holding sim sc rng in
  let pi = sim.pi and power = sim.power and z = sim.z and v = sc.v in
  let n = Array.length pi in
  let d = ref 0.0 and e = ref 0.0 in
  for i = 0 to n - 1 do
    let w = pi.(i) *. h.(i) in
    d := !d +. w;
    e := !e +. (w *. power.(i))
  done;
  let d = !d in
  let m = !e /. d in
  for i = 0 to n - 1 do
    v.(i) <- h.(i) *. (power.(i) -. m)
  done;
  let variance = ref 0.0 and s_g = ref 0.0 and g_start = ref 0.0 in
  for i = 0 to n - 1 do
    let zi = z.(i) in
    let g = ref 0.0 in
    for j = 0 to n - 1 do
      g := !g +. (zi.(j) *. v.(j))
    done;
    let g = !g in
    variance := !variance +. (pi.(i) *. v.(i) *. g);
    s_g := !s_g +. (pi.(i) *. h.(i) *. g);
    if i = sim.start then g_start := g
  done;
  let variance = Float.max 0.0 (2.0 *. !variance /. d) in
  let mean = m +. ((!g_start -. (!s_g /. d)) /. horizon) in
  let watts = mean +. (sqrt (variance /. horizon) *. Prng.gaussian rng) in
  sc.out.watts <- Float.min sim.hi_power (Float.max sim.lo_power watts);
  sc.out.transitions <- horizon *. sim.live /. d

let device sim ~model ~horizon rng =
  let sc = scratch sim model in
  draw_device sim sc ~horizon rng;
  (sc.out.watts, sc.out.transitions)

(* The smallest horizon, in expected transitions of the embedded chain
   under the published Ψ, at which the normal law above passes the
   two-sample Kolmogorov–Smirnov gate against the oracle walk (see
   [test_fleet.ml]). *)
let min_transitions = 200.0

let min_horizon sim =
  min_transitions *. Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) sim.pi sim.base_holding)

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
  lifetimes : float array;
  stats : stats;
}

let percentile_ranks = [ 1; 10; 50; 90; 99 ]

let nearest_rank n q = max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

(* Nearest-rank percentile over an ascending-sorted array. *)
let percentile_of_sorted sorted q = sorted.(nearest_rank (Array.length sorted) q)

let sorted_lifetimes result =
  let a = Array.copy result.lifetimes in
  Array.sort compare a;
  a

(* Three-way quickselect: afterwards a.(k) holds the rank-k value of
   a.(lo..hi), everything left of it is no larger and everything right
   of it no smaller.  A run of values equal to the pivot (+∞ lifetimes,
   a fleet without spread) ends a round at once. *)
let select (a : float array) lo hi k =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let lt = ref !lo and i = ref !lo and gt = ref !hi in
    while !i <= !gt do
      let v = a.(!i) in
      if v < pivot then begin
        a.(!i) <- a.(!lt);
        a.(!lt) <- v;
        incr lt;
        incr i
      end
      else if pivot < v then begin
        a.(!i) <- a.(!gt);
        a.(!gt) <- v;
        decr gt
      end
      else incr i
    done;
    if k < !lt then hi := !lt - 1 else if k > !gt then lo := !gt + 1 else lo := !hi
  done;
  a.(k)

let nearest_rank_percentiles values qs =
  let a = Array.copy values in
  let n = Array.length a in
  let lo = ref 0 in
  List.map
    (fun q ->
      let k = nearest_rank n q in
      let v = select a (if k < !lo then 0 else !lo) (n - 1) k in
      lo := k;
      v)
    qs

(* [pool] is accepted and not used.  A device costs about 0.3 µs under
   [point] and 1 µs under [dirichlet:50] on a 2-vCPU Xeon, so the
   benchmark's 50,000-device query takes about 50 ms on one domain.
   Fanning the former 2–3 µs device over a 2-domain pool halved the
   query, but in a process that also spawns and joins other domains
   between queries (the benchmark's set-up samples) it raised the peak
   RSS from about 15 to 20 MB; the serial loop stays at about 15 MB. *)
let run ?pool:_ ?(model = Point) ?(battery = Battery.phone_cell) ?(horizon = 10_000.0)
    ~devices ~omsm ~mode_powers ~seed () =
  if devices <= 0 then invalid_arg "Fleet_sim.run: need at least one device";
  validate_model ~n_modes:(Omsm.n_modes omsm) model;
  let sim = compile ~omsm ~mode_powers in
  if not (horizon >= min_horizon sim) then
    invalid_arg
      (Printf.sprintf
         "Fleet_sim.run: horizon %g is under %g, the time of %.0f expected transitions"
         horizon (min_horizon sim) min_transitions);
  (* Device [i]'s generator is a pure function of (seed, i). *)
  let base = Prng.create ~seed in
  let sc = scratch sim model in
  let lifetimes = Array.make devices 0.0 in
  let power_sum = ref 0.0 and transition_sum = ref 0.0 in
  for i = 0 to devices - 1 do
    draw_device sim sc ~horizon (Prng.stream base i);
    let power = sc.out.watts in
    power_sum := !power_sum +. power;
    transition_sum := !transition_sum +. sc.out.transitions;
    lifetimes.(i) <-
      (if power > 0.0 then Battery.lifetime_hours battery ~average_power:power
       else Float.infinity)
  done;
  let nf = float_of_int devices in
  let min_hours = ref Float.infinity and max_hours = ref Float.neg_infinity in
  let hour_sum = ref 0.0 in
  for i = 0 to devices - 1 do
    let l = lifetimes.(i) in
    if l < !min_hours then min_hours := l;
    if l > !max_hours then max_hours := l;
    hour_sum := !hour_sum +. l
  done;
  let mean_hours = !hour_sum /. nf in
  let stddev_hours =
    if Float.is_finite mean_hours then begin
      let square_dev = ref 0.0 in
      for i = 0 to devices - 1 do
        let dev = lifetimes.(i) -. mean_hours in
        square_dev := !square_dev +. (dev *. dev)
      done;
      sqrt (!square_dev /. nf)
    end
    else Float.nan
  in
  let stats =
    {
      mean_power = !power_sum /. nf;
      analytic_power = Power.average ~probabilities:sim.base_psi mode_powers;
      mean_transitions = !transition_sum /. nf;
      mean_hours;
      stddev_hours;
      min_hours = !min_hours;
      max_hours = !max_hours;
      percentiles =
        List.combine percentile_ranks
          (nearest_rank_percentiles lifetimes
             (List.map (fun p -> float_of_int p /. 100.0) percentile_ranks));
    }
  in
  { devices; horizon; seed; model; battery; lifetimes; stats }

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
