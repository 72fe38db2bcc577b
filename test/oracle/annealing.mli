(** Simulated-annealing baseline for the mapping problem.

    The multi-mode co-synthesis literature the paper builds on commonly
    uses simulated annealing for hardware/software partitioning (e.g.
    Kalavade & Subrahmanyam's multifunction partitioning [7]); this
    module provides such a baseline over exactly the same genome encoding
    and fitness as the GA, so the two mappers can be compared
    head-to-head (bench target: [ablation]).

    Moves re-map one to three randomly chosen (mode, task) positions to a
    different candidate PE.  Acceptance follows Metropolis with a
    geometric cooling schedule; the search keeps the best candidate ever
    visited. *)

type config = {
  initial_temperature : float;
      (** Relative to the initial fitness: the starting temperature is
          [initial_temperature *. fitness(start)]. *)
  cooling : float;  (** Geometric factor per step, in (0, 1). *)
  steps : int;  (** Total number of proposed moves. *)
  moves_per_step : int;  (** Gene re-assignments per proposal (upper bound). *)
}

val default_config : config

type result = {
  genome : int array;
  eval : Mm_cosynth.Fitness.eval;
  accepted : int;  (** Accepted moves. *)
  evaluations : int;
  cpu_seconds : float;
}

val run :
  ?config:config ->
  ?fitness:Mm_cosynth.Fitness.config ->
  spec:Mm_cosynth.Spec.t ->
  seed:int ->
  unit ->
  result
(** Starts from the best software anchor (see {!Mm_cosynth.Synthesis}) when one
    exists, otherwise from a random genome. *)
