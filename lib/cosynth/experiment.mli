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
  ?ga:Mm_ga.Engine.config ->
  ?dvs:Fitness.dvs ->
  ?use_improvements:bool ->
  ?restarts:int ->
  ?jobs:int ->
  ?audit:bool ->
  ?islands:int ->
  ?migration_interval:int ->
  ?migration_count:int ->
  ?robust:Synthesis.robust_usage option ->
  ?checkpoint:(state -> unit) ->
  ?resume:state ->
  spec:Spec.t ->
  runs:int ->
  seed:int ->
  unit ->
  comparison
(** [runs] repeated synthesis runs per arm (the paper used 40), seeded
    [seed], [seed+1], …; both arms share seeds so the comparison is
    paired.  [jobs] is forwarded to {!Synthesis.config}; it never
    changes the synthesised results, only how fast they are computed.  [islands], [migration_interval] and
    [migration_count] select the island-model GA for every run of both
    arms — unlike [jobs] they {e do} change each run's trajectory (see
    {!Synthesis.config}), but both arms share the topology so the
    comparison stays paired.  [audit] (default [false]) runs
    {!Audit.check} on every synthesis result; a dirty report is logged
    by {!Synthesis.run} but never aborts the comparison.

    [checkpoint] is called with the comparison's {!state} after every
    completed run; [resume] skips the runs a state already holds.  The
    resumed comparison's powers and best mappings are bit-identical to
    the uninterrupted one's, and so are its evaluation counts.  Raises [Invalid_argument] when the state's seed/runs bookkeeping
    does not match this comparison. *)
