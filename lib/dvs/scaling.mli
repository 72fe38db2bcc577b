(** Voltage scaling of a scheduled mode (extension of the PV-DVS scheme
    of [10] to multi-mode systems and to hardware components, paper §4.2).

    The fixed execution order produced by the list scheduler is kept; the
    algorithm only stretches activities into available slack by lowering
    discrete supply voltages.  Scalable units are:

    - task slots on DVS-enabled {e software} PEs, scaled individually;
    - Fig. 5 {e segments} of DVS-enabled {e hardware} PEs, because all
      cores of a component share one rail (see {!Hw_transform}).

    The greedy loop repeatedly lowers the voltage of the unit with the
    best energy-gain-per-added-delay ratio among all units whose added
    delay fits into their slack, recomputing slacks after every step.
    Slack is computed on the unit DAG (resource chains + data edges) by a
    backward pass from deadlines, so every accepted step keeps the whole
    mode schedule feasible. *)

type config = {
  scale_software : bool;  (** Scale tasks on DVS software PEs. *)
  scale_hardware : bool;
      (** Apply the Fig. 5 transform and scale DVS hardware components;
          disabling this reproduces the software-only DVS of earlier work
          (used by the ablation bench). *)
}

val default_config : config
(** Both enabled. *)

type hw_segment = {
  pe : int;
  segment : Hw_transform.segment;
  voltage : float;
  scaled_duration : float;
  energy : float;  (** power · duration · (v/vmax)² *)
}

type t = {
  feasible : bool;
      (** Whether the input schedule met all deadlines; when [false] no
          scaling is attempted and all voltages stay nominal. *)
  task_voltages : float array;
      (** Per task: assigned supply voltage; nominal voltage of the PE's
          rail when the task was not scaled (or the PE has no rail, in
          which case the value is [nan] and unused). *)
  task_energy : float array;
      (** Per task dynamic energy after scaling.  Tasks on DVS hardware
          PEs carry their power-proportional share of their segments'
          energy so the array totals correctly. *)
  hw_segments : hw_segment list;  (** Scaled segments of DVS hardware PEs. *)
  comm_energy : float;  (** Total communication energy (never scaled). *)
  total_dyn_energy : float;
      (** Σ task_energy + comm_energy: dynamic energy of one mode
          activation. *)
  stretched_finish : float array;
      (** Per-task finish times after scaling (equals segment-chain
          finishes for tasks on DVS hardware PEs). *)
}

type workspace
(** Reusable scratch buffers for {!run}: flat unit/CSR arrays and the
    gradient heap (DESIGN.md §13).  A workspace is not thread-safe; use
    one per domain ({!domain_workspace}).  Buffers grow on demand and
    are rebuilt on every call, so a workspace may be shared freely
    across modes, graphs, configs and specifications. *)

val create_workspace : unit -> workspace

val domain_workspace : unit -> workspace
(** The calling domain's workspace, created on first use and kept for
    the domain's lifetime (its size is that of the largest graph the
    domain has scaled). *)

val run :
  ?config:config ->
  ?workspace:workspace ->
  ?dispatch:Mm_arch.Tech_lib.dispatch ->
  graph:Mm_taskgraph.Graph.t ->
  arch:Mm_arch.Architecture.t ->
  tech:Mm_arch.Tech_lib.t ->
  schedule:Mm_sched.Schedule.t ->
  unit ->
  t
(** Bit-identical to the seed implementation that the test suite keeps
    as its oracle (property-tested in [test_dvs.ml]), but built on
    reusable flat arrays, cached per-unit durations/gradients and a
    binary max-heap over gradient ratios.
    Each rail's levels, delay and energy factors and next-lower level
    are tabulated once per call with the {!Mm_arch.Voltage} functions,
    so the greedy loop reads the same floats without a power law.  The
    latest finishes are computed once before the greedy loop; after each
    accepted step only the lowered unit's descendants (finishes) and
    ancestors (latest finishes) are re-evaluated, stopping wherever a
    value came out bit-identical (DESIGN.md §13).  The DAG's resource
    and link chains come from one (start, id) ordering of the units.
    [workspace] avoids per-call allocation; [dispatch] replaces the
    O(log n) [Tech_lib.find_exn] power lookups with O(1) table hits. *)

val nominal :
  ?dispatch:Mm_arch.Tech_lib.dispatch ->
  graph:Mm_taskgraph.Graph.t ->
  arch:Mm_arch.Architecture.t ->
  tech:Mm_arch.Tech_lib.t ->
  schedule:Mm_sched.Schedule.t ->
  unit ->
  t
(** The no-DVS evaluation: every activity at nominal voltage, with the
    same energy accounting as {!run} so DVS and non-DVS experiments are
    directly comparable.

    Precondition: [schedule] is a list schedule, as
    {!Mm_sched.List_scheduler.run} and the seed scheduler produce — every
    slot starts at the latest of its resource's previous finish and its
    data arrivals, and every task duration is positive.  The unit DAG's
    forward pass then reproduces the schedule exactly, so [nominal]
    reads finishes, energies and the deadline check straight off the
    task and communication slots in one pass, builds no DAG, and
    returns no [hw_segments].  Bit-identical to the seed's DAG pass
    under the precondition (property-tested in [test_dvs.ml]); a
    hand-built schedule that delays a slot past that bound may differ.
    [dispatch] replaces the [Tech_lib.find_exn] power lookups. *)
