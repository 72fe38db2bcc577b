(** Fitness evaluation of multi-mode mapping candidates (paper Fig. 4,
    lines 03–14).

    Pipeline per candidate: decode genome → per-mode mobility analysis →
    core allocation (+ area penalty) → per-mode communication mapping and
    list scheduling → optional voltage scaling → dynamic and static power
    → transition times → fitness

    F_M = p̄ · timing_factor · area_factor · transition_factor ·
          routability_factor,

    every factor >= 1, so a fully feasible candidate's fitness is exactly
    its average power under the configured weighting.

    The {e weighting} distinguishes the paper's two compared approaches:
    [True_probabilities] optimises Eq. (1) with the real mode execution
    probabilities; [Uniform] neglects them (every mode weighted 1/|Ω|),
    exactly reproducing the baseline columns of Tables 1–3.  Reported
    [true_power] is always evaluated under the real probabilities. *)

type weighting = True_probabilities | Uniform

type dvs = No_dvs | Dvs of Mm_dvs.Scaling.config

type penalties = {
  timing : float;
  area : float;
  transition : float;
  unroutable : float;
}

val default_penalties : penalties

type robust_objective =
  | Expected_lifetime
      (** Minimise the power equivalent of the mean battery life over
          the Ψ samples. *)
  | Percentile of float
      (** Optimise a low lifetime percentile (e.g. [Percentile 0.1] for
          p10 — the worst-served decile of the fleet); must be in
          (0, 1]. *)

type robust = {
  psis : float array array;  (** Ψ samples drawn from the usage model. *)
  battery : Mm_energy.Battery.t;
  objective : robust_objective;
}

type config = {
  weighting : weighting;
  dvs : dvs;
  penalties : penalties;
  scheduler_policy : Mm_sched.List_scheduler.policy;
      (** Priority policy of the inner-loop list scheduler (default
          [Mobility_first]); the ablation bench uses this to show the
          baseline-vs-proposed comparison is insensitive to the inner
          loop, supporting DESIGN.md §3's substitution argument. *)
  robust : robust option;
      (** When set, the fitness objective becomes {!robust_power} over
          the Ψ samples instead of the point-Ψ [eval_power]; the penalty
          factors and every reported [eval] field are unchanged.
          [None] (the default) is bit-identical to the seed formula. *)
}

val default_config : config
(** True probabilities, no DVS, default penalties, mobility-first
    scheduling, no robust objective. *)

val robust_power : robust -> Mm_energy.Power.mode_power array -> float
(** The scalar a robust run minimises: Eq. 1 evaluated per Ψ sample,
    summarised per the objective.  [Percentile q] picks the power of the
    q-th worst lifetime (no battery inversion needed — lifetime is
    strictly decreasing in power); [Expected_lifetime] maps the mean of
    the per-sample lifetimes back to a power through
    {!Mm_energy.Battery.power_for_lifetime}.  Exposed so the auditor can
    re-derive the fitness claim with the exact same float path. *)

type eval = {
  fitness : float;
  eval_power : float;  (** Average power under [config.weighting] (W). *)
  true_power : float;  (** Average power under the OMSM probabilities (W). *)
  timing_factor : float;
  area_factor : float;
  transition_factor : float;
  routability_factor : float;
  timing_feasible : bool;
  area_feasible : bool;
  transition_feasible : bool;
  routable : bool;
  mode_powers : Mm_energy.Power.mode_power array;
  schedules : Mm_sched.Schedule.t array;
  scalings : Mm_dvs.Scaling.t array;
  alloc : Core_alloc.t;
  transition_times : Transition_time.entry list;
  mapping : Mapping.t;
  mobilities : Mm_taskgraph.Mobility.t array;
      (** Per-mode mobility analyses; carried so {!evaluate_delta} can
          reuse them for modes a mutation did not touch. *)
}

val feasible : eval -> bool
(** All four feasibility flags. *)

val evaluate : config -> Spec.t -> int array -> eval
(** Full evaluation of a genome.  Runs against the specification's
    compile-once context ({!Spec.compiled}): route table, dense
    technology dispatch, and the per-mode mobility and
    (schedule, scaling, power) caches, so offspring that mutate only
    some modes answer the untouched modes from cache.  Bit-identical to
    the seed pipeline the test suite keeps as its oracle (DESIGN.md
    §10). *)

val evaluate_mapping : config -> Spec.t -> Mapping.t -> eval
(** Evaluate an explicit mapping (used by examples and tests). *)

val evaluate_delta :
  config -> Spec.t -> parent:eval -> dirty:int list -> int array -> eval
(** Incremental evaluation of a genome that differs from the already
    evaluated [parent] exactly at the genome positions in [dirty]
    (ascending; typically [Mm_ga.Genome.diff] of parent and child).
    Bit-identical to {!evaluate} (enforced by the delta equivalence
    tests), and the same pass: modes untouched by [dirty] reuse the
    parent's mobility analysis and (schedule, scaling, power) triple;
    dirty modes run the full compiled per-mode path.  Core allocation is
    global and always recomputed; a clean mode whose read set
    ({!Core_alloc.read_set}) moved is promoted to dirty.  When more
    than half the modes are dirty, before or after promotion, every
    mode is computed as in {!evaluate}.  An over-approximate [dirty]
    set (genes listed but unchanged) is safe; an under-approximate one
    is not. *)

val assemble :
  config ->
  Spec.t ->
  Mapping.t ->
  alloc:Core_alloc.t ->
  mobilities:Mm_taskgraph.Mobility.t array ->
  schedules:Mm_sched.Schedule.t array ->
  scalings:Mm_dvs.Scaling.t array ->
  mode_powers:Mm_energy.Power.mode_power array ->
  eval
(** Everything downstream of the per-mode (schedule, scaling, power)
    triples: timing violations, Eq. 1 powers, penalty factors and the
    fitness.  Exported so the seed oracle of the test suite shares this
    code byte for byte with the production pass. *)
