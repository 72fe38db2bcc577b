(** Hardware core allocation (paper §4.1, lines 4–6).

    Every task type mapped to a hardware PE needs a core of that type.
    ASIC cores are static: once a type is implemented on an ASIC it
    occupies area in {e every} mode.  FPGA cores can be exchanged at mode
    changes, so their area constraint applies per mode and swapping them
    costs reconfiguration time (handled by {!Transition_time}).

    On top of the one-core-per-type baseline, additional core instances
    are allocated to types whose tasks can run in parallel (overlapping
    ASAP–ALAP execution windows), lowest-mobility types first, as long as
    the area constraint allows — increasing exploitable parallelism and,
    under DVS, the slack available for voltage scaling.

    The allocation reads the compiled per-mode task-type and
    per-(PE, type) core-area tables of {!Spec.compiled} and counts
    instances in a dense per-domain scratch table.  What it returns is
    sparse — the static ASIC cores once and the FPGA cores per mode, as
    flat int triples — so an evaluation cached with its allocation holds
    three ints per loaded core type (DESIGN.md §10).

    Ties and float sums follow one fixed order, which every result
    depends on bit for bit: a type's average mobility sums its tasks in
    descending task id; wishes rank on (average mobility, mode, PE, type,
    desired count); a window finish sorts before a start at equal times;
    area sums run in ascending type id over loaded types only. *)

type t

val allocate :
  Spec.t ->
  Mapping.t ->
  mobilities:Mm_taskgraph.Mobility.t array ->
  t
(** [mobilities.(mode)] must be the mode's analysis under the same
    mapping. *)

val instances : t -> mode:int -> pe:int -> ty:int -> int
(** Allocated core instances usable by the mode (0 when the type is not
    loaded).  For ASICs this is the static global count. *)

val area_used : t -> pe:int -> float
(** ASIC: total static core area.  FPGA: worst mode's loaded area.
    Software PEs: 0. *)

val area_excess : t -> pe:int -> float
(** max(0, used − capacity). *)

val excess_ratio_sum : t -> float
(** Σ_π excess/capacity over violating hardware PEs — the area penalty's
    raw magnitude. *)

val static_cores : t -> int array
(** The ASIC cores, the same in every mode: flat [(pe, type id, count)]
    triples ascending by (pe, type id), counts [>= 1].  Shared; callers
    must not mutate it. *)

val mode_cores : t -> mode:int -> int array
(** The FPGA cores loaded during the mode (its working set), in the
    same triple layout.  Shared; callers must not mutate it. *)

val read_set : t -> Spec.t -> mode:int -> int array -> int array
(** [read_set t spec ~mode row]: per task of the mode's mapping row, the
    core-instance count the list scheduler sees for it —
    [max 1 (instances t ~mode ~pe ~ty)] for a task on a hardware PE, 0
    for a software task.  The scheduler reads the allocation through
    exactly these counts, and nothing downstream of it (DVS, power)
    reads the allocation at all, so with the row it determines the
    mode's (schedule, scaling, power) triple: it is the suffix of the
    per-mode cache key and the test for reusing a clean mode in delta
    evaluation (DESIGN.md §10).  An ASIC core that only other modes'
    tasks use does not appear in it.  Fresh array. *)

val area_feasible : t -> bool
