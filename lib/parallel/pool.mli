(** A persistent pool of OCaml 5 domains for embarrassingly parallel
    array maps.

    The pool is built for the synthesis fitness pipeline: one generation
    of GA offspring is evaluated per {!map} call, every element is
    independent, and the caller needs results back in input order.  Work
    is handed out in chunks through a shared atomic cursor, so uneven
    per-element cost (e.g. the smart phone's 162-position genomes next
    to mul-scale ones) self-balances instead of being pinned to a static
    partition.  Chunk granularity is auto-tuned: the pool keeps an EWMA
    of measured per-item cost and sizes each batch's chunks to a fixed
    work target, so cheap items get coarse chunks (amortising cursor
    contention) and expensive items stay fine-grained for balance.

    Threading model: one {e owner}.  A pool is driven from the domain
    that created it; {!map} is not reentrant and must not be called from
    two domains at once, nor from inside a mapped function.  The mapped
    function itself runs on several domains concurrently and must be
    thread-safe (pure functions are).

    Determinism: [map pool f input] returns exactly [Array.map f input]
    for a pure [f] — result slots are fixed by input index, only the
    execution schedule varies with the domain count.

    {2 Fault tolerance}

    A raising job is re-run up to [max_retries] times (see {!create})
    with capped exponential backoff — 0.1 ms doubling per attempt, at
    most 0.1 s — before its exception is allowed to propagate.  Each
    retry increments the [pool/retries] metric and the per-pool
    {!stats}. *)

type t
(** A pool handle.  The creating domain participates in every {!map},
    so a pool of size [n] runs work on [n] domains total ([n - 1]
    spawned workers plus the caller). *)

type stats = {
  retries : int;  (** Jobs re-run after raising. *)
  queue_wait_seconds : float;
      (** Summed time workers spent parked between batches — the
          dispatch (fan-out/fan-in) cost of driving the pool. *)
  barrier_wait_seconds : float;
      (** Summed time the owner spent blocked on straggler chunks after
          finishing its own share — load imbalance within batches.  The
          old conflated [pool_wait_seconds] was the sum of both; keeping
          them apart is what makes dispatch-overhead work measurable. *)
}

val clamp_jobs : ?allow_oversubscribe:bool -> int -> int
(** The effective domain count for a requested [--jobs]: clamped to
    [\[1, 64\]] and — unless [allow_oversubscribe] — to
    [Domain.recommended_domain_count ()].  Oversubscribing cores never
    helps this workload (the parallel bench records speedups below 1
    whenever jobs exceed cores), so callers opt into it
    explicitly or not at all. *)

val create : ?domains:int -> ?max_retries:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains.  [domains]
    defaults to {!Domain.recommended_domain_count}; it is clamped to
    [\[1, 64\]].  A pool of 1 spawns nothing and {!map} degrades to
    [Array.map].  [max_retries] (default 0: the first failure raises,
    as a plain [Array.map] would) is how often a raising job is re-run
    before its exception propagates; only pure jobs may be retried. *)

val size : t -> int
(** Number of domains that execute work during a {!map}, including the
    caller.  [size t >= 1]. *)

val stats : t -> stats
(** Retry and wait counters of this pool (the metrics counters
    aggregate across pools and are gated on the global metrics switch;
    these are always live). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f input] applies [f] to every element of [input] on the
    pool's domains and returns the results in input order.

    If an application of [f] raises (after exhausting the configured
    retries), the first exception observed is re-raised in the caller
    (with its backtrace) after all domains have stopped picking up new
    elements; remaining elements may or may not have been evaluated.
    Raises [Invalid_argument] if the pool has been {!shutdown}. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  Idempotent.  The pool cannot
    be used afterwards. *)
