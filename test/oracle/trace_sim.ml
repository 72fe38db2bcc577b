module Prng = Mm_util.Prng
module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode
module Transition = Mm_omsm.Transition
module Usage_profile = Mm_omsm.Usage_profile
module Power = Mm_energy.Power

type segment = { mode : int; enter : float; leave : float }

type result = {
  segments : segment list;
  time_in_mode : float array;
  empirical_probability : float array;
  empirical_power : float;
  n_transitions : int;
}

let outgoing omsm mode =
  List.filter (fun tr -> Transition.src tr = mode) (Omsm.transitions omsm)

let holding_times_for omsm =
  let n = Omsm.n_modes omsm in
  let observations =
    List.map
      (fun tr -> { Usage_profile.src = Transition.src tr; dst = Transition.dst tr; count = 1.0 })
      (Omsm.transitions omsm)
  in
  let pi =
    match observations with
    | [] -> Array.make n (1.0 /. float_of_int n)
    | _ -> Usage_profile.stationary (Usage_profile.embedded_chain ~n_modes:n observations)
  in
  Array.init n (fun i ->
      let psi = Mode.probability (Omsm.mode omsm i) in
      if pi.(i) <= 0.0 then 1e-9 else Float.max 1e-9 (psi /. pi.(i)))

(* Exponential draw with the given mean (inverse-CDF method). *)
let exponential rng ~mean = -.mean *. log (Float.max 1e-300 (1.0 -. Prng.float rng 1.0))

let simulate ?holding_times ?start ~omsm ~mode_powers ~horizon rng =
  if horizon <= 0.0 then invalid_arg "Trace_sim.simulate: non-positive horizon";
  let n = Omsm.n_modes omsm in
  if Array.length mode_powers <> n then
    invalid_arg "Trace_sim.simulate: mode_powers length mismatch";
  let holding_times =
    match holding_times with
    | Some h ->
      if Array.length h <> n then
        invalid_arg "Trace_sim.simulate: holding_times length mismatch";
      h
    | None -> holding_times_for omsm
  in
  let start =
    match start with
    | Some mode ->
      if mode < 0 || mode >= n then invalid_arg "Trace_sim.simulate: bad start mode";
      mode
    | None ->
      (* Most probable mode. *)
      let best = ref 0 in
      for i = 1 to n - 1 do
        if
          Mode.probability (Omsm.mode omsm i)
          > Mode.probability (Omsm.mode omsm !best)
        then best := i
      done;
      !best
  in
  let time_in_mode = Array.make n 0.0 in
  let energy = ref 0.0 in
  let segments = ref [] in
  let transitions = ref 0 in
  let rec walk mode now =
    let dwell = exponential rng ~mean:holding_times.(mode) in
    let leave = Float.min horizon (now +. dwell) in
    let duration = leave -. now in
    time_in_mode.(mode) <- time_in_mode.(mode) +. duration;
    energy := !energy +. (Power.total mode_powers.(mode) *. duration);
    segments := { mode; enter = now; leave } :: !segments;
    if leave < horizon then begin
      match outgoing omsm mode with
      | [] ->
        (* Absorbing: finish the horizon here. *)
        time_in_mode.(mode) <- time_in_mode.(mode) +. (horizon -. leave);
        energy := !energy +. (Power.total mode_powers.(mode) *. (horizon -. leave));
        segments := { mode; enter = leave; leave = horizon } :: !segments
      | choices ->
        incr transitions;
        walk (Transition.dst (Prng.pick rng choices)) leave
    end
  in
  walk start 0.0;
  {
    segments = List.rev !segments;
    time_in_mode;
    empirical_probability = Array.map (fun t -> t /. horizon) time_in_mode;
    empirical_power = !energy /. horizon;
    n_transitions = !transitions;
  }
