(** Mobility-driven list scheduling of one mode onto a mapped
    architecture (the deterministic inner loop; see DESIGN.md §3 for why
    a deterministic stand-in for the GA-based inner loop of [12] is a
    faithful substitution).

    Tasks become ready when all predecessors are scheduled; among ready
    tasks the one with the smallest mobility (most critical) is placed
    first.  Incoming inter-PE communications are placed on their mapped
    link immediately before the consumer, respecting link occupancy.

    The scheduler routes every edge exactly once per run and keeps the
    ready set in a binary heap keyed (priority, task id); with the
    optional compiled inputs ([mobility], [routes], [dispatch]) it also
    skips the per-run mobility recomputation, the per-edge link
    filtering and the balanced-tree technology lookups.  All of this is
    pure plumbing: schedules are bit-identical to the seed
    implementation, which the test suite keeps as its oracle (see
    DESIGN.md §10). *)

type input = {
  mode_id : int;
  graph : Mm_taskgraph.Graph.t;
  arch : Mm_arch.Architecture.t;
  tech : Mm_arch.Tech_lib.t;
  mapping : int array;  (** [mapping.(task)] = PE id. *)
  instances : pe:int -> ty:int -> int;
      (** Allocated core instances per (hardware PE, task type); must
          return >= 1 for every pair actually used by [mapping].  Ignored
          for software PEs. *)
  period : float;
  mobility : Mm_taskgraph.Mobility.t option;
      (** Pre-computed mapped mobility (execution times of the mapped
          implementations, communication times of the routed links,
          horizon [period]) for the [Mobility_first] policy.  [None]
          recomputes it; a caller that already ran the mobility analysis
          (the fitness pipeline does, for core allocation) threads it
          through here instead. *)
  routes : Comm_mapping.table option;
      (** Compile-once route table of [arch]; [None] falls back to
          [Comm_mapping.route].  Either way each edge is routed once per
          run. *)
  dispatch : Mm_arch.Tech_lib.dispatch option;
      (** Dense technology dispatch of [tech]; [None] falls back to
          [Tech_lib.find]. *)
}

val make_input :
  ?mobility:Mm_taskgraph.Mobility.t ->
  ?routes:Comm_mapping.table ->
  ?dispatch:Mm_arch.Tech_lib.dispatch ->
  mode_id:int ->
  graph:Mm_taskgraph.Graph.t ->
  arch:Mm_arch.Architecture.t ->
  tech:Mm_arch.Tech_lib.t ->
  mapping:int array ->
  instances:(pe:int -> ty:int -> int) ->
  period:float ->
  unit ->
  input
(** Plain constructor; the compiled fields default to [None]. *)

type policy =
  | Mobility_first
      (** Smallest ALAP−ASAP mobility first (the default; critical tasks
          cannot wait). *)
  | Critical_path_first
      (** Largest bottom level first (HLFET): longest remaining
          exec+comm path to a sink. *)
  | Topological
      (** Deterministic topological (FIFO-like) order — the naive
          baseline for the scheduler-policy ablation. *)

exception Unsupported_mapping of { task : int; pe : int }
(** Raised when [mapping] sends a task to a PE with no implementation of
    its type in the technology library. *)

val run : ?policy:policy -> input -> Schedule.t

val exec_times : input -> float array
(** Nominal execution time of each task under the mapping (also used by
    callers for mobility analysis). *)
