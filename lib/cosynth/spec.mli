(** A co-synthesis problem: OMSM specification + allocated architecture +
    technology library, with the gene/position bookkeeping shared by the
    mapping GA, the fitness evaluation and the improvement operators. *)

type t

type position = { mode : int; task : int }
(** One slot of the multi-mode mapping string. *)

exception Invalid of string

val make :
  omsm:Mm_omsm.Omsm.t ->
  arch:Mm_arch.Architecture.t ->
  tech:Mm_arch.Tech_lib.t ->
  t
(** Validates that every task of every mode has at least one candidate PE
    in the technology library; raises {!Invalid} otherwise. *)

val omsm : t -> Mm_omsm.Omsm.t
val arch : t -> Mm_arch.Architecture.t
val tech : t -> Mm_arch.Tech_lib.t

type compiled
(** The compile-once evaluation context (DESIGN.md §10): the
    architecture's route table, the technology library's dense dispatch
    table, the per-mode task-type and per-(PE, type) core-area tables
    that core allocation reads, and the per-mode memo caches of the
    fitness pipeline — everything mapping-independent, hoisted out of
    the per-candidate path.  Every domain shares one pair of caches held
    in this record, so they become unreachable together with the
    specification. *)

val compiled : t -> compiled
(** The context of this specification, built on first use and memoized
    (domain-safe: concurrent first calls race benignly, and every caller
    gets the one context that won).  Purely an accelerator — results never depend on when or
    whether it was built. *)

val routes : compiled -> Mm_sched.Comm_mapping.table
val dispatch : compiled -> Mm_arch.Tech_lib.dispatch

val n_types : compiled -> int
(** One past the largest task-type id appearing in the OMSM. *)

val task_types : compiled -> int -> int array
(** [task_types c mode]: the type id of every task of the mode, indexed
    by task id.  Shared; callers must not mutate it. *)

val core_area : compiled -> pe:int -> ty:int -> float
(** Core area the type occupies on the PE; 0 when the pair has no
    implementation, the PE is software, or the type does not appear in
    the OMSM.  One array load. *)

val mode_mobility_cache : compiled -> Mm_taskgraph.Mobility.t Mm_parallel.Memo.t
(** The per-mode mobility cache for this specification, keyed by
    (mode, mapping row).  One per compiled context, shared by every
    domain ({!Mm_parallel.Memo} is mutex-guarded), and collected with
    the specification. *)

val mode_eval_cache :
  compiled ->
  (Mm_sched.Schedule.t * Mm_dvs.Scaling.t * Mm_energy.Power.mode_power)
  Mm_parallel.Memo.t
(** The per-mode (schedule, scaling, power) cache for this
    specification, keyed by (mode, scheduler/DVS config
    fingerprint, mapping row, [Core_alloc.read_set]).  Same ownership
    as {!mode_mobility_cache}. *)

val n_positions : t -> int
(** Genome length: Σ_O |T_O|. *)

val position : t -> int -> position
val index_of : t -> mode:int -> task:int -> int
(** Inverse of {!position}. *)

val candidates : t -> int -> Mm_arch.Pe.t array
(** Candidate PEs of a position (PEs implementing the task's type), in id
    order.  Gene value [g] at position [i] selects [(candidates t i).(g)]. *)

val gene_counts : t -> int array
val candidate_index : t -> int -> pe_id:int -> int option
(** Gene value mapping the position onto the given PE, when supported. *)

val mode_task_count : t -> int -> int
val task_at : t -> int -> Mm_taskgraph.Task.t
(** The task behind a position. *)

val type_of_id : t -> int -> Mm_taskgraph.Task_type.t option
(** Look a task type up by its id (types appearing in the OMSM only). *)
