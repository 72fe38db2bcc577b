(** Fleet-scale Monte Carlo usage simulation.

    One device's usage is a semi-Markov walk over the OMSM's mode
    sequence; production questions are about the *fleet*: what does the
    battery-life distribution look like across millions of devices whose
    usage profiles differ?  This module runs that walk at fleet scale:

    - every device [i] gets its own SplitMix64 stream derived from the
      run seed ({!Mm_util.Prng.stream}), a pure function of (seed, i) —
      results are bit-identical regardless of batch size or how many
      pool domains the fleet is spread over;
    - devices are scored in flat [Bigarray] batches against a
      synthesized design's per-mode powers, fanning out over an existing
      {!Mm_parallel.Pool};
    - the report is a lifetime *distribution* — mean, stddev, min/max
      and p1/p10/p50/p90/p99 nearest-rank percentiles via
      {!Battery.lifetime_hours} — not just the Eq. 1 average.

    The inner walk is a float-for-float transliteration of the
    single-device oracle walk kept in the test-only [mm_oracle] library,
    written as one allocation-free loop that steps the device's
    SplitMix64 word in a local with {!Mm_util.Prng.bits64}'s
    arithmetic: a 1-device point-model fleet is segment-for-segment and
    bit-for-bit identical to the oracle and leaves the generator in the
    oracle's state (held by the differential tests in [test_fleet.ml]).
    So a one-device fleet ([mmsynth synth --fleet --devices 1
    --fleet-horizon T]) is the trace-driven check of Eq. (1): {!pp}
    prints its empirical power against the analytic one. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

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
    draw order matches the fleet walk's own per-device sampling, and for
    [Holding_jitter] the returned Ψ is the long-run profile the jittered
    walk realises (Ψ'_i ∝ Ψ_i·j_i). *)

(** {1 Single-device kernel} *)

type sim
(** Walk table compiled once per (OMSM, mode powers) pair: start mode,
    per-mode total powers, holding times, stationary distribution and
    outgoing-destination arrays. *)

val compile : omsm:Mm_omsm.Omsm.t -> mode_powers:Power.mode_power array -> sim
(** Raises [Invalid_argument] when [mode_powers] doesn't match the
    OMSM's mode count. *)

val simulate_device :
  ?on_segment:(mode:int -> enter:float -> leave:float -> unit) ->
  sim ->
  model:usage_model ->
  horizon:float ->
  Mm_util.Prng.t ->
  float * int
(** One device walk; returns (empirical average power, transition
    count).  [on_segment] observes the chronological visit log —
    segment-for-segment identical to the oracle walk's visit log under
    the point model with the same generator.  The generator ends
    where the equivalent {!Mm_util.Prng.float}/{!Mm_util.Prng.int}
    calls would leave it.  Without [on_segment], a point-model walk
    allocates nothing per transition.  Raises [Invalid_argument] on a
    non-positive horizon. *)

(** {1 Fleet runs} *)

type stats = {
  mean_power : float;  (** Fleet mean of the empirical device powers (W). *)
  analytic_power : float;  (** Eq. 1 average under the point Ψ (W). *)
  mean_transitions : float;
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
  lifetimes : vec;  (** Hours, device order; +∞ for a zero-power device. *)
  powers : vec;  (** Empirical average power per device (W). *)
  transitions : vec;
  stats : stats;
}

val run :
  ?pool:Mm_parallel.Pool.t ->
  ?batch:int ->
  ?model:usage_model ->
  ?battery:Battery.t ->
  ?horizon:float ->
  devices:int ->
  omsm:Mm_omsm.Omsm.t ->
  mode_powers:Power.mode_power array ->
  seed:int ->
  unit ->
  result
(** Simulate the fleet.  [batch] (default 4096) is the number of devices
    per pool work item; neither it nor [pool] affect any output bit.
    [model] defaults to [Point], [battery] to {!Battery.phone_cell},
    [horizon] to 10\,000 time units.  Raises [Invalid_argument] on
    non-positive [devices]/[batch]/[horizon] or a malformed model. *)

val sorted_lifetimes : result -> float array
(** Ascending copy of the lifetime vector (the array percentiles are
    read from). *)

val percentile_of_sorted : float array -> float -> float
(** [percentile_of_sorted sorted q] is the nearest-rank [q]-quantile
    ([0 < q <= 1]) of an ascending-sorted non-empty array. *)

val to_json : result -> string
(** Deterministic single-object report (no wall-clock fields): equal
    seeds and parameters give byte-identical strings. *)

val pp : Format.formatter -> result -> unit
(** Multi-line summary for CLI reports. *)
