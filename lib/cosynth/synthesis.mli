(** The outer optimisation loop: the mapping/core-allocation GA driving
    the inner scheduling loop (paper §4).

    A single [run] synthesises one implementation candidate set and
    returns the best mapping found, its full evaluation and run
    statistics.  Determinism: equal [seed]s give equal results — also
    across [jobs] settings, because fitness evaluation is a pure
    function of the genome and all randomness is consumed while
    breeding, before evaluation batches are dispatched. *)

type robust_usage = {
  model : Mm_energy.Fleet_sim.usage_model;
      (** How per-device Ψ vectors deviate from the published point
          estimate; {!Mm_energy.Fleet_sim.Point} makes the whole option
          a no-op bypass. *)
  samples : int;  (** Ψ samples drawn per run (> 0). *)
  objective : Fitness.robust_objective;
  battery : Mm_energy.Battery.t;
}

type config = {
  fitness : Fitness.config;
  ga : Mm_ga.Engine.config;
  use_improvements : bool;
      (** Disable to ablate the paper's four improvement operators. *)
  restarts : int;
      (** Independent GA restarts per run; the best final fitness wins.
          Restarting is the standard defence against the multi-modal
          mapping landscape (default 2). *)
  jobs : int;
      (** Domains evaluating each generation's offspring batch; [<= 1]
          keeps evaluation on the calling domain (default 1). *)
  audit : bool;
      (** Re-derive the winning evaluation's schedules, DVS math and
          penalty claims through {!Audit.check} and attach the report to
          the result (default false; the [--audit] CLI flag and the test
          suite force it on).  Like [jobs], auditing never
          perturbs the synthesis trajectory, so it is absent from
          {!config_fingerprint}. *)
  islands : int;
      (** Number of GA islands per restart (default 1).  With
          [islands > 1] each restart runs {!Mm_ga.Islands.run}: the
          population is sharded into that many independent engines with
          periodic deterministic migration, and [jobs] domains schedule
          whole islands instead of evaluation batches.  Unlike [jobs],
          this {e changes the trajectory} (a sharded search explores
          differently), so it is part of {!config_fingerprint} whenever
          it is active. *)
  migration_interval : int;
      (** Generations between migration epochs (default 8); only
          meaningful with [islands > 1], fingerprinted with it. *)
  migration_count : int;
      (** Members each island exports per epoch (default 2); only
          meaningful with [islands > 1], fingerprinted with it. *)
  robust : robust_usage option;
      (** Opt-in synthesis under usage uncertainty (default [None]): the
          run draws [samples] Ψ vectors from the usage model — from a
          dedicated child stream of the run seed, so resumes re-derive
          them exactly — and minimises {!Fitness.robust_power} over them
          instead of the point-Ψ average.  A [Point] model is bypassed
          entirely and bit-identical to [None].  Part of
          {!config_fingerprint} exactly when active. *)
}

val default_config : config

val config_of_flags :
  dvs:bool -> uniform:bool -> generations:int -> population:int -> config
(** The one mapping from the user-facing search knobs to a
    configuration, shared by the [mmsynth] command line ([--dvs],
    [--neglect-probabilities], [--generations], [--population]) and the
    daemon's job options of the same names: [dvs] selects
    {!Fitness.Dvs} with {!Mm_dvs.Scaling.default_config}, [uniform]
    selects {!Fitness.Uniform} weighting (else
    {!Fitness.True_probabilities}), and the budget goes into
    {!Mm_ga.Engine.default_config}.  Every other field is
    {!default_config}'s. *)

type result = {
  genome : int array;
  eval : Fitness.eval;
  generations : int;
  evaluations : int;  (** Fitness-pipeline invocations, full and delta. *)
  cpu_seconds : float;
      (** Process CPU time of the run (the paper's "CPU time" column).
          With [jobs > 1] this sums time across domains and can exceed
          wall-clock time. *)
  history : float list;  (** Best fitness trajectory. *)
  audit : Audit.report option;
      (** Present iff [config.audit]; a dirty report is attached, never
          raised. *)
}

val software_anchors : Spec.t -> int array list
(** Known-good genomes mapping every task onto software PEs (all on the
    first software PE, and round-robin across them); injected into the
    GA's initial population so the search starts from a zero-area,
    zero-reconfiguration candidate.  Empty when the architecture has no
    software PE. *)

val greedy_timing_anchor : Spec.t -> int array option
(** A constructively repaired anchor for specifications whose
    all-software mapping misses deadlines (e.g. the smart phone's MP3
    mode): starting from the serial software mapping, repeatedly move the
    longest-running software task of a deadline-missing mode onto its
    fastest hardware implementation until the candidate is
    timing-feasible (or no move remains).  [None] when there is no
    software anchor to start from. *)

val anchors : Spec.t -> int array list
(** {!software_anchors} plus {!greedy_timing_anchor}, deduplicated — the
    initial genomes every synthesis run is seeded with. *)

(** {2 Checkpoint & resume}

    A synthesis run can be checkpointed at every GA generation boundary
    and resumed later with a bit-identical trajectory (final fitness
    equal by [Int64.bits_of_float]).  The run state is a plain data
    value; persisting it is the caller's business ({!Mm_io.Snapshot}
    provides the versioned file codec), which keeps this library free of
    I/O concerns. *)

type restart_summary = {
  r_genome : int array;
  r_fitness : float;
  r_generations : int;
  r_evaluations : int;
  r_history : float list;
}
(** What a completed GA restart contributes to the final result.  The
    full {!Fitness.eval} is not stored: evaluation is pure, so the
    winning genome's evaluation can always be recomputed bit-for-bit. *)

type run_state = {
  seed : int;  (** The seed the interrupted run was started with. *)
  fingerprint : string;
      (** {!config_fingerprint} of the interrupted run's configuration;
          resume refuses a mismatch. *)
  next_restart : int;  (** Index of the restart to run (or continue) next. *)
  completed : restart_summary list;
      (** Summaries of restarts [0 .. next_restart - 1], oldest first. *)
  outer_rng : int64;
      (** The outer PRNG stream: the post-split state when [engine]
          holds an in-flight restart, the pre-split state of restart
          [next_restart] otherwise. *)
  engine : engine_state option;
      (** The in-flight restart's generation-boundary state, or [None]
          for a checkpoint taken between restarts. *)
}
(** Full synthesis run state at a checkpoint boundary. *)

and engine_state =
  | Single of Mm_ga.Engine.checkpoint
      (** A plain single-population restart ([config.islands <= 1]). *)
  | Sharded of Mm_ga.Islands.checkpoint
      (** An island-model restart, captured at a migration-epoch
          boundary.  The config fingerprint pins which variant a
          snapshot may carry, so a resume can never feed one shape into
          the other. *)

type checkpoint_sink = {
  every : int;  (** Emit a within-restart checkpoint every N generations. *)
  save : run_state -> unit;
}
(** Where checkpoints go.  [save] is called with the current state every
    [every] generations and once after each completed restart; each call
    is wrapped in a [synthesis/checkpoint] probe span. *)

type progress = {
  p_restart : int;
  p_generation : int;  (** Completed generations within that restart. *)
  p_best_fitness : float;
  p_evaluations : int;
}
(** What the [yield] hook of {!run} sees at every generation boundary
    (and once more after each completed restart). *)

val config_fingerprint : config -> string
(** A stable digest of every configuration field that can alter the
    synthesis trajectory for a given seed ([jobs] is excluded — the
    domain count never perturbs results).  Stored
    in {!run_state} and checked on resume. *)

val robust_active : config -> bool
(** Whether the robust objective actually changes the trajectory: a
    [robust] option with a [Point] model is a bypass and reports
    [false]. *)

val effective_fitness_config : config -> spec:Spec.t -> seed:int -> Fitness.config
(** The fitness configuration {!run} actually evaluates with: when
    {!robust_active}, [config.fitness] with the Ψ samples materialised
    from the run seed's dedicated child stream (a pure function of seed
    and model, so callers replaying a run's genomes — the experiment
    harness, the auditor — reproduce the exact fitness).  Raises
    [Invalid_argument] on a malformed model or non-positive sample
    count, and when [config.fitness.robust] is already set: the robust
    objective is requested through [config.robust], which is what
    {!config_fingerprint} reads. *)

val run :
  ?config:config ->
  ?checkpoint:checkpoint_sink ->
  ?resume:run_state ->
  ?yield:(progress -> unit) ->
  ?pool:Mm_parallel.Pool.t ->
  spec:Spec.t ->
  seed:int ->
  unit ->
  result
(** [checkpoint] streams {!run_state} values to a sink during the run;
    [resume] continues from one instead of starting fresh.  A resumed
    run reproduces the uninterrupted run's result bit-for-bit (except
    [evaluations]/[cpu_seconds], which additionally count
    the restore work).  Raises [Invalid_argument] when the state's seed,
    configuration fingerprint, or restart bookkeeping does not match
    this run.

    [yield] is the cooperative-multiplexing hook: called after every
    completed generation (after any due checkpoint has been persisted,
    so on-disk state is current at every suspension point) and once
    after each completed restart.  It may suspend the run arbitrarily
    long — or never return, if the caller abandons the coroutine.  Like
    [jobs], it never perturbs the trajectory and is absent from
    {!config_fingerprint}.

    [pool] makes evaluation batches run on an externally owned worker
    pool instead of a run-private one; the run never shuts it down, so
    one bounded pool can serve many multiplexed runs. *)

val average_power : result -> float
(** The result's average power under the true mode probabilities. *)
