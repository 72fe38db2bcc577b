(** An island-model GA: N independent {!Engine} populations with
    periodic deterministic migration on a seeded ring.

    A pooled {!Engine.run} only fans out {e evaluation}; breeding stays
    serial and every generation pays a pool fan-out/fan-in.  The island
    model shards the population instead: each island runs the whole GA
    loop — breeding {e and} evaluation — locally, and the pool schedules
    islands, not evaluations, so domains synchronise only at migration
    epochs.

    {2 Determinism}

    The trajectory is a function of (seed, topology, problem) alone:

    - island [i] consumes only its own PRNG stream,
      [Prng.stream rng i], so islands never race for randomness;
      stream 0 is the run seed's own state, which is why a 1-island run
      is bit-identical to {!Engine.run};
    - the ring is a seed-derived permutation (stream [n], which no
      island uses), fixed for the whole run and carried in the
      {!checkpoint};
    - every [migration_interval] generations all islands stand at the
      same generation-boundary target, and migration is plain array
      surgery applied in island index order on the owner domain:
      island [ring.(p)] sends copies of its [migration_count] best
      members to island [ring.((p+1) mod n)], where they replace the
      worst residents ({!Engine.inject}).

    Hence equal seeds give bit-identical results at any [--jobs] value,
    with the serial fallback, and across checkpoint/resume. *)

type topology = {
  islands : int;  (** Number of islands, >= 1. *)
  migration_interval : int;
      (** Generations between migration epochs (clamped to >= 1). *)
  migration_count : int;
      (** Members each island exports per epoch (clamped to
          [\[0, population_size\]]; 0 disables migration). *)
}

val default_topology : topology
(** One island (no sharding, no migration), interval 8, count 2 — the
    interval/count defaults used when [--islands] is raised. *)

type checkpoint = {
  ring : int array;
      (** The seed-derived ring permutation; position [p] holds an
          island index and sends to position [(p+1) mod n].  Stored
          because the run seed is not available on resume. *)
  members : Engine.checkpoint array;
      (** Per-island engine state (population, best, stagnation,
          history, PRNG word), indexed by island. *)
}
(** Captured at an epoch boundary, after migration: every island is at
    a generation boundary with migrants already merged, so a resumed
    run re-enters exactly where the original left off. *)

type 'info result = {
  best : 'info Engine.result;
      (** The winning island's result (lowest best fitness, ties to the
          lowest island index). *)
  per_island : 'info Engine.result array;
  generations : int;  (** Summed across islands (total work, not wall). *)
  evaluations : int;  (** Summed across islands. *)
}

val run :
  ?config:Engine.config ->
  ?topology:topology ->
  ?pool:Mm_parallel.Pool.t ->
  ?delta:'info Engine.delta ->
  ?on_epoch:(checkpoint -> unit) ->
  ?resume:checkpoint ->
  rng:Mm_util.Prng.t ->
  'info Engine.problem ->
  'info result
(** Run the island model to completion: epochs advance every island to
    the next common generation-boundary target (a multiple of
    [migration_interval], capped at [max_generations]), then migrate,
    until every island has finished ({!Engine.finished}; a migrant that
    revives a converged island keeps it running).

    [pool] schedules one island per domain slot and round-robins when
    there are more islands than domains (a warning is printed on
    stderr, mirroring the CLI oversubscription warning).  The pool must
    not retry failed jobs — island stepping is not idempotent — so it
    must be created without [max_retries].  Without a pool (or with a
    1-domain pool) islands are stepped serially in index order —
    bit-identical, just not parallel.

    [on_epoch] fires after every migration with a {!checkpoint} of the
    whole archipelago (copies; the callback may retain them).

    [resume] rebuilds every island from its checkpointed state — each
    island's ['info] side data is recovered by one re-evaluation batch,
    with the same fitness-verification contract as {!Engine.run} — and
    continues bit-identically to the uninterrupted run.  The caller's
    [rng] is superseded.  Raises [Invalid_argument] when the checkpoint
    does not fit (wrong island count, ring size, or any per-island
    mismatch {!Engine.init} would reject). *)
