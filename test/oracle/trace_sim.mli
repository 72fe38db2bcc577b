(** Trace-driven validation of the analytic power model: the
    single-device walk, kept as the oracle whose power distribution the
    closed-form {!Mm_energy.Fleet_sim} must reproduce.

    Eq. (1) computes average power analytically from the mode execution
    probabilities.  This simulator performs the complementary check: it
    walks the OMSM's transition graph as a semi-Markov process (random
    outgoing transition, exponentially distributed residence times) and
    accumulates the {e empirical} average power from the per-mode powers
    of a synthesised implementation.  With holding times chosen by
    {!holding_times_for}, the empirical figure converges to Eq. (1) as
    the horizon grows — the property test in [test_energy.ml] checks
    this, closing the loop with {!Mm_omsm.Usage_profile}, which goes the
    opposite way (observations → probabilities).  The Kolmogorov–Smirnov
    gate in [test_fleet.ml] holds the fleet's per-device powers to the
    distribution of this walk's. *)

type segment = {
  mode : int;
  enter : float;
  leave : float;
}

type result = {
  segments : segment list;  (** Chronological visit log. *)
  time_in_mode : float array;  (** Accumulated residence per mode. *)
  empirical_probability : float array;  (** time_in_mode / horizon. *)
  empirical_power : float;  (** Time-weighted average of the mode powers (W). *)
  n_transitions : int;
}

val stationary : Mm_omsm.Omsm.t -> float array
(** Stationary distribution π of the embedded jump chain, by power
    iteration of the lazy chain (I + P)/2 to an L1 step of 1e-15; a
    mode without outgoing transitions self-loops. *)

val holding_times_for : Mm_omsm.Omsm.t -> float array
(** Mean residence times h_i (in arbitrary units) that make the
    semi-Markov walk's long-run usage profile equal the OMSM's published
    probabilities: h_i = Ψ_i / π_i with π the stationary distribution of
    the embedded jump chain (uniform choice over outgoing transitions)
    from {!stationary}, independently of the production solver.  Modes with probability 0 get a vanishing
    holding time. *)

val simulate :
  ?holding_times:float array ->
  ?start:int ->
  omsm:Mm_omsm.Omsm.t ->
  mode_powers:Mm_energy.Power.mode_power array ->
  horizon:float ->
  Mm_util.Prng.t ->
  result
(** [holding_times] defaults to {!holding_times_for}; [start] to the most
    probable mode.  A mode without outgoing transitions absorbs the rest
    of the horizon.  Raises [Invalid_argument] on a non-positive horizon
    or mismatched array lengths. *)
