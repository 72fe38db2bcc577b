module Prng = Mm_util.Prng
module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode
module Transition = Mm_omsm.Transition
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

(* π of the embedded chain by power iteration of the lazy chain
   (I + P)/2, which has the same stationary distribution and is
   aperiodic, from the uniform start down to an L1 step of 1e-15.  This
   shares no code with [Usage_profile.stationary]'s exact solve, which
   production uses. *)
let stationary omsm =
  let n = Omsm.n_modes omsm in
  let p = Array.make_matrix n n 0.0 in
  for mode = 0 to n - 1 do
    match outgoing omsm mode with
    | [] -> p.(mode).(mode) <- 1.0
    | choices ->
      let w = 1.0 /. float_of_int (List.length choices) in
      List.iter
        (fun tr ->
          let dst = Transition.dst tr in
          p.(mode).(dst) <- p.(mode).(dst) +. w)
        choices
  done;
  let pi = ref (Array.make n (1.0 /. float_of_int n)) in
  let step = ref infinity and k = ref 0 in
  while !step > 1e-15 && !k < 1_000_000 do
    let next = Array.map (fun x -> 0.5 *. x) !pi in
    Array.iteri
      (fun i x ->
        for j = 0 to n - 1 do
          next.(j) <- next.(j) +. (0.5 *. x *. p.(i).(j))
        done)
      !pi;
    step := 0.0;
    Array.iteri (fun j x -> step := !step +. Float.abs (x -. !pi.(j))) next;
    pi := next;
    incr k
  done;
  !pi

let holding_times_for omsm =
  let n = Omsm.n_modes omsm in
  let pi = stationary omsm in
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
  let outgoing = Array.init n (outgoing omsm) in
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
      match outgoing.(mode) with
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
