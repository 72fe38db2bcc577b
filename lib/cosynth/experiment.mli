(** The paper's experimental protocol: synthesise each benchmark twice —
    once neglecting mode execution probabilities (uniform weighting, the
    baseline of every table) and once with the proposed
    probability-weighted fitness — over several repeated GA runs, and
    report averaged powers, CPU times and the percentage reduction. *)

type arm = {
  power : Mm_util.Stats.summary;  (** True average power over the runs (W). *)
  cpu_seconds : Mm_util.Stats.summary;
  best : Synthesis.result;  (** The run with the lowest true average power. *)
}

type comparison = {
  without_probabilities : arm;  (** Weighting = Uniform. *)
  with_probabilities : arm;  (** Weighting = True_probabilities (proposed). *)
  reduction_percent : float;
      (** 100·(baseline − proposed)/baseline on mean powers; the
          "Reduc. (%)" column. *)
}

type run_summary = {
  genome : int array;
  power : float;  (** True average power of the run's best mapping (W). *)
  cpu_seconds : float;
  generations : int;
  evaluations : int;
  history : float list;
}
(** One completed synthesis run of an arm, reduced to what resuming the
    comparison needs (the winning evaluation is recomputable from the
    genome because fitness evaluation is pure). *)

type state = {
  seed : int;
  runs : int;  (** Runs per arm the comparison was started with. *)
  fingerprint : string option;
      (** {!Synthesis.config_fingerprint} of the comparison's baseline-arm
          configuration — the arms differ in weighting alone, so it pins
          every trajectory-relevant field of both.  [None] only in a
          state decoded from a snapshot written before comparisons were
          fingerprinted; such a state resumes unchecked. *)
  baseline_done : run_summary list;  (** Completed Uniform-arm runs, oldest first. *)
  proposed_done : run_summary list;
      (** Completed True_probabilities-arm runs; always empty until the
          baseline arm is complete. *)
}
(** Comparison progress at a completed-run boundary — the checkpoint
    granularity of {!compare}.  Coarser than {!Synthesis.run_state} on
    purpose: a comparison is many short runs, so a killed run loses at
    most one run's work. *)

val compare :
  ?config:Synthesis.config ->
  ?checkpoint:(state -> unit) ->
  ?resume:state ->
  spec:Spec.t ->
  runs:int ->
  seed:int ->
  unit ->
  comparison
(** [runs] repeated synthesis runs per arm (the paper used 40), seeded
    [seed], [seed+1], …; both arms share seeds so the comparison is
    paired.  Every run of both arms uses [config] (default
    {!Synthesis.default_config}) with its [fitness.weighting] replaced by
    the arm's — [Uniform] for the baseline, [True_probabilities] for the
    proposed arm; every other field, the GA budget, DVS, island topology
    and robust objective included, is shared, so the comparison stays
    paired.  As in {!Synthesis.run}, [config.jobs] and [config.audit]
    never change a result; a dirty audit report is logged by
    {!Synthesis.run} but never aborts the comparison.

    [checkpoint] is called with the comparison's {!state} after every
    completed run; [resume] skips the runs a state already holds.  The
    resumed comparison's powers and best mappings are bit-identical to
    the uninterrupted one's, and so are its evaluation counts.  Raises
    [Invalid_argument] when the state's seed/runs bookkeeping does not
    match this comparison, or when its fingerprint differs from this
    [config]'s (a [jobs] or [audit] change still resumes). *)
