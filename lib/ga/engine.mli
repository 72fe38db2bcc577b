(** A generational genetic algorithm minimising a fitness function over
    integer-string genomes (paper §4.1, Fig. 4).

    Per generation: individuals are ranked by fitness and assigned
    linearly scaled selection weights; tournament selection picks mating
    pairs; two-point crossover and per-gene mutation produce offspring;
    problem-specific {e improvement operators} (the paper's lines 19–22)
    then rewrite randomly chosen offspring using evaluation feedback; the
    best individuals survive unchanged (elitism).  The run converges when
    the best fitness has stagnated for a configured number of
    generations.

    The engine is polymorphic in ['info], the side information the
    evaluator attaches to each candidate (the mapping GA uses it to expose
    area / timing / transition feasibility to the improvement
    operators).

    {2 Batched evaluation}

    Each generation's offspring are bred sequentially (selection,
    crossover, mutation and the improvement operators all consume the
    run's PRNG) and then evaluated as one batch, serially or on a
    {!Mm_parallel.Pool} of domains.  Because no randomness is drawn
    during evaluation, the pool cannot perturb the random stream: equal
    seeds give bit-identical results at any domain count. *)

type config = {
  population_size : int;
  tournament_size : int;
  crossover_rate : float;  (** Probability that a selected pair mates. *)
  mutation_rate : float;  (** Per-gene reset probability. *)
  elite_count : int;
  max_generations : int;
  stagnation_limit : int;
      (** Convergence: stop after this many generations without
          improvement of the best-ever fitness. *)
  diversity_threshold : float;
      (** Convergence (paper §4.1: "based on the diversity in the current
          population and the number of elapsed iterations without any
          improved individual"): additionally stop once the population's
          mean normalised Hamming distance to the best individual falls
          below this threshold while the search has stagnated for at
          least half the stagnation limit.  0 disables the criterion. *)
  selection_pressure : float;
      (** Linear-ranking slope in [\[1, 2\]]: expected offspring count of
          the best-ranked individual. *)
}

val default_config : config

type 'info snapshot = {
  generation : int;
  fitnesses : float array;
  infos : 'info array;
}
(** What improvement operators can see of the current population. *)

type 'info improvement = {
  name : string;
  rate : float;  (** Probability of applying to each offspring. *)
  apply :
    Mm_util.Prng.t -> snapshot:'info snapshot -> info:'info -> int array -> bool;
      (** Rewrite the genome in place; return [false] to signal that no
          change was made.  [info] is the evaluation feedback of the
          genome's {e parent generation} incarnation when available. *)
}

type 'info problem = {
  gene_counts : int array;
  evaluate : int array -> float * 'info;
      (** Must be a pure function of the genome: no internal randomness,
          no observable side effects, thread-safe.  Batches may run on a
          pool, and checkpoint resume re-evaluates stored genomes and
          requires bit-identical fitnesses. *)
  improvements : 'info improvement list;
  initial : int array list;
      (** Genomes injected into the initial population (e.g. known-
          feasible anchors such as an all-software mapping); the rest of
          the population is random.  Must satisfy [gene_counts]; at most
          [population_size] are used. *)
}

type 'info delta = parent:'info -> dirty:int list -> int array -> float * 'info
(** Optional incremental evaluator: [delta ~parent ~dirty genome]
    evaluates a child [genome] that differs from an already evaluated
    parent (whose side data is [parent]) exactly at the ascending genome
    positions [dirty].  MUST return float-bit-identical results to
    [problem.evaluate genome] — the engine freely substitutes one for
    the other (checkpoint resume assumes it), so an inexact delta
    silently corrupts trajectories.
    The engine derives [dirty] with {!Genome.diff} after crossover,
    mutation and improvement operators have all run. *)

type 'info result = {
  best_genome : int array;
  best_fitness : float;
  best_info : 'info;
  generations : int;
  evaluations : int;  (** Evaluator invocations, full and delta. *)
  history : float list;  (** Best-ever fitness after each generation, oldest first. *)
}

type checkpoint = {
  generation : int;  (** Number of completed generations. *)
  members : (int array * float) array;
      (** The population in its exact post-sort order.  A resumed run
          must not re-sort it: [Array.sort] is unstable, so only this
          order reproduces the original trajectory. *)
  best : int array * float;
      (** Best-ever individual.  Kept separately from [members] because
          the best-ever may beat [members.(0)] by less than the strict
          improvement threshold. *)
  stagnation : int;
  history : float list;  (** Oldest first, as in {!result}. *)
  evaluations : int;
  rng_state : int64;  (** {!Mm_util.Prng.state} at the boundary. *)
}
(** Everything the engine needs to continue a run from a generation
    boundary.  ['info] side data is deliberately absent — it is
    recomputed on resume by re-evaluating the genomes — so checkpoints
    are monomorphic and serialisable without caring what the evaluator
    attaches. *)

type 'info member = { genome : int array; fitness : float; info : 'info }
(** One evaluated individual.  Exposed so the island layer
    ({!Islands}) can move individuals between engines; the genome array
    of a member returned by {!best_members} is a private copy. *)

type 'info state
(** A run paused at a generation boundary: the fitness-sorted
    population, the best-ever individual, the convergence bookkeeping
    and the PRNG word.  Created by {!init}, advanced in place by
    {!step}; {!run} is [init] followed by one [step] to
    [max_generations].  A [state] is single-owner mutable data — it may
    migrate between domains (the island scheduler steps different
    islands on different domains), but must never be stepped from two
    domains concurrently. *)

val init :
  ?config:config ->
  ?pool:Mm_parallel.Pool.t ->
  ?delta:'info delta ->
  ?on_generation:(checkpoint -> unit) ->
  ?resume:checkpoint ->
  rng:Mm_util.Prng.t ->
  'info problem ->
  'info state
(** Validate the problem and build the boundary state {!run} starts
    from: either a fresh evaluated-and-sorted random population (seeded
    with [problem.initial], consuming [rng] in index order) or, with
    [resume], the verbatim checkpointed population with its ['info]
    side data recomputed (see {!run} for the resume contract).  Raises
    [Invalid_argument] exactly where {!run} does. *)

val step : 'info state -> until:int -> unit
(** Advance the state while [generation st < min until max_generations]
    and the run has not converged.  [step st ~until:max_generations]
    runs to completion; smaller [until] values pause at an intermediate
    generation boundary, from which a later [step] continues
    bit-identically — the split points are invisible to the
    trajectory. *)

val generation : 'info state -> int
(** Completed generations so far. *)

val finished : 'info state -> bool
(** Whether {!step} would be a no-op: the generation cap is reached or
    the run has converged (stagnation / diversity criteria).  A
    converged state can become unfinished again if {!inject} adopts a
    strictly better migrant (stagnation resets). *)

val to_checkpoint : 'info state -> checkpoint
(** Capture the boundary state (genomes are copies; the caller may
    retain them).  Equal to what [on_generation] was last called with,
    except after {!inject}, which edits the boundary state in place. *)

val to_result : 'info state -> 'info result
(** The run result as of the current boundary. *)

val best_members : 'info state -> int -> 'info member list
(** [best_members st m] returns copies of the [m] fittest members of
    the current population, best first (fewer if the population is
    smaller).  Genome arrays are fresh copies. *)

val inject : 'info state -> 'info member list -> unit
(** Migration intake: replace the worst [List.length migrants]
    residents (the tail of the fitness-sorted population) with the
    given members and re-sort.  A migrant that strictly improves on the
    island's best-ever fitness (by the engine's [1e-15] threshold)
    becomes the new best and resets stagnation, so migration can revive
    a converged island.  Consumes no randomness and evaluates nothing —
    migrants carry their fitness and ['info], which is sound exactly
    because evaluation is pure and genome-determined. *)

val run :
  ?config:config ->
  ?pool:Mm_parallel.Pool.t ->
  ?delta:'info delta ->
  ?on_generation:(checkpoint -> unit) ->
  ?resume:checkpoint ->
  rng:Mm_util.Prng.t ->
  'info problem ->
  'info result
(** Without [pool] every batch is evaluated on the calling domain.  The
    result is independent of the pool; see the determinism note above.
    Raises
    [Invalid_argument] on an empty genome or a non-positive
    population.

    [delta], when supplied, is used for offspring whose parent was
    evaluated this run (initial populations and checkpoint restores
    always take the full evaluator).  Because a {!delta} is contractually
    bit-identical to [problem.evaluate], supplying it changes wall time
    only, never the trajectory.

    [on_generation] is called at the end of every generation with a
    {!checkpoint} capturing the boundary state (genomes are copies; the
    callback may retain them).

    [resume] continues a run from a checkpoint instead of breeding a
    fresh population: the stored genomes are re-evaluated in one batch
    to recover their ['info] (so resuming costs one population's worth
    of evaluations), the stored fitnesses
    and convergence state are restored verbatim, and the PRNG stream
    continues from [rng_state] — the caller's [rng] is superseded.  The
    resumed run is bit-identical to the uninterrupted one with or
    without a pool.  Raises [Invalid_argument] when the checkpoint does
    not fit the problem: wrong population size, genomes outside
    [gene_counts], or stored fitnesses that the evaluator no longer
    reproduces bit-for-bit. *)
