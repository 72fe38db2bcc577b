(** Fleet-scale usage Monte Carlo, in closed form.

    A device's usage is a walk over the OMSM's modes: the next mode is
    uniform over the outgoing transitions, and a visit to mode i lasts
    an exponential time of mean h_i = Ψ_i / π_i, with π the exact
    stationary distribution of the embedded jump chain, so the long-run
    share of mode i is Ψ_i.  That walk is a continuous-time Markov
    chain, so its time-averaged power over a horizon T is asymptotically
    normal: mean Eq. (1) under the device's own Ψ′ plus an O(1/T)
    start-mode bias, variance σ²(Ψ′)/T from the chain's Poisson
    equation.  {!compile} solves the chain once per query; a device then
    costs one Ψ′ draw, one n-vector product with the fundamental matrix
    and one normal draw, on its own SplitMix64 stream
    ({!Mm_util.Prng.stream} of the run seed), so a report depends on
    nothing but its inputs.  The report is a lifetime distribution
    (mean, stddev, min/max and p1/p10/p50/p90/p99 nearest-rank
    percentiles via {!Battery.lifetime_hours}).

    The law is held to the walk itself (kept in the test suite as an
    oracle) by a two-sample Kolmogorov–Smirnov test, and {!run}
    refuses horizons under 200 expected transitions of the embedded
    chain under the published Ψ (200 mean holding times ⟨π, h⟩), near
    where that test starts to fail.  A one-device fleet
    is one draw from the law, not a trace. *)

(** {1 Usage models}

    How an individual device's usage deviates from the OMSM's published
    point probabilities Ψ. *)

type profile = {
  name : string;
  weight : float;  (** Relative share of the fleet; > 0. *)
  psi : float array;  (** Per-mode probabilities; normalised on use. *)
}

type usage_model =
  | Point  (** Every device follows the published Ψ exactly. *)
  | Dirichlet of { concentration : float }
      (** Per-device Ψ ~ Dirichlet(concentration·Ψ): larger concentration
          hugs the point estimate tighter. *)
  | Holding_jitter of { sigma : float }
      (** Per-device log-normal factors (mean-corrected, parameter
          [sigma]) on the mode holding times. *)
  | Mixture of profile list
      (** Each device follows one named profile, drawn by weight. *)

val is_point : usage_model -> bool

val validate_model : n_modes:int -> usage_model -> unit
(** Raises [Invalid_argument] on malformed parameters (non-positive
    concentration/weights, negative sigma, wrong-length or negative
    profiles). *)

val model_to_string : usage_model -> string
(** Human-readable spelling ([point], [dirichlet:<c>], [jitter:<sigma>],
    [mixture:<names>]), used in reports. *)

val model_fingerprint : usage_model -> string
(** Like {!model_to_string} but with hex-float ([%h]) parameters: two
    models fingerprint equal iff they sample identically.  Used in
    {!Mm_cosynth.Synthesis.config_fingerprint}. *)

val sample_psi : usage_model -> base:float array -> Mm_util.Prng.t -> float array
(** One per-device Ψ draw.  [Point] consumes no randomness and returns
    [base] itself; the others return a fresh normalised vector.  The
    draw order matches the fleet's own per-device sampling, and for
    [Holding_jitter] the returned Ψ is the long-run profile the jittered
    holding times realise (Ψ'_i ∝ Ψ_i·j_i). *)

(** {1 Single-device kernel} *)

type sim
(** The embedded chain compiled once per (OMSM, mode powers) pair:
    start mode, per-mode total powers, exact stationary distribution π,
    holding times and the fundamental matrix. *)

val compile : omsm:Mm_omsm.Omsm.t -> mode_powers:Power.mode_power array -> sim
(** Raises [Invalid_argument] when [mode_powers] doesn't match the
    OMSM's mode count, or when the embedded chain has more than one
    closed class of modes (π, and so the long-run usage, is not
    unique). *)

val device : sim -> model:usage_model -> horizon:float -> Mm_util.Prng.t -> float * float
(** One device: draws its Ψ′ (as {!sample_psi} would), then its
    time-averaged power over [horizon] from the normal law above, clamped
    to the range of the mode powers.  Returns (power, expected number of
    transitions).  It runs {!run}'s per-device kernel on a scratch of its
    own, so device [i] of a run is [device] on [Prng.stream] [i] of the
    run seed, bit for bit.  No horizon floor is checked here; {!run}
    does. *)

(** {1 Fleet runs} *)

type stats = {
  mean_power : float;  (** Fleet mean of the drawn device powers (W). *)
  analytic_power : float;  (** Eq. 1 average under the point Ψ (W). *)
  mean_transitions : float;  (** Fleet mean of the expected transition counts. *)
  mean_hours : float;
  stddev_hours : float;  (** Population standard deviation. *)
  min_hours : float;
  max_hours : float;
  percentiles : (int * float) list;
      (** Nearest-rank (rank, lifetime hours) for ranks 1, 10, 50, 90, 99. *)
}

type result = {
  devices : int;
  horizon : float;
  seed : int;
  model : usage_model;
  battery : Battery.t;
  lifetimes : float array;  (** Hours, device order; +∞ for a zero-power device. *)
  stats : stats;
}

val run :
  ?pool:Mm_parallel.Pool.t ->
  ?model:usage_model ->
  ?battery:Battery.t ->
  ?horizon:float ->
  devices:int ->
  omsm:Mm_omsm.Omsm.t ->
  mode_powers:Power.mode_power array ->
  seed:int ->
  unit ->
  result
(** Draw the fleet, on the calling domain, every device in one scratch
    allocated per query.  [pool] is accepted and not used: the closed
    form is cheap enough (about 1 µs a device under [dirichlet:50]) that
    a fan-out's memory cost outweighs its wall-clock gain.  [model] defaults to
    [Point], [battery] to {!Battery.phone_cell}, [horizon] to 10\,000
    time units.  Percentiles come from quickselect on one copy of the
    lifetimes, not a sort.  Raises [Invalid_argument] on non-positive
    [devices], a horizon under 200 expected transitions, a malformed
    model or an OMSM {!compile} rejects. *)

val sorted_lifetimes : result -> float array
(** Ascending copy of the lifetimes (the reference for the selected
    percentiles). *)

val percentile_of_sorted : float array -> float -> float
(** [percentile_of_sorted sorted q] is the nearest-rank [q]-quantile
    ([0 < q <= 1]) of an ascending-sorted non-empty array. *)

val nearest_rank_percentiles : float array -> float list -> float list
(** [nearest_rank_percentiles values qs] is [percentile_of_sorted] of
    the sorted [values] at each quantile of [qs], found by quickselect
    on one copy of the non-empty, NaN-free [values] (left untouched);
    with ascending [qs] each rank narrows the next one's range. *)

val to_json : result -> string
(** Deterministic single-object report (no wall-clock fields): equal
    seeds and parameters give byte-identical strings. *)

val pp : Format.formatter -> result -> unit
(** Multi-line summary for CLI reports. *)
