(** Integer-string genomes.

    A genome is an [int array] where position [i] holds a value in
    [\[0, counts.(i))] — for the mapping GA, position [i] selects one of
    the candidate PEs of the i-th (mode, task) pair. *)

val random : Mm_util.Prng.t -> counts:int array -> int array
(** Fresh uniform genome. *)

val validate : counts:int array -> int array -> bool
(** Length matches and every gene is within its alphabet. *)

val two_point_crossover :
  Mm_util.Prng.t -> int array -> int array -> int array * int array
(** Classic two-point crossover; parents are not modified.  Parents must
    have equal lengths (>= 1). *)

val point_mutate : Mm_util.Prng.t -> counts:int array -> rate:float -> int array -> unit
(** In place: each gene is reset to a uniform value with probability
    [rate]. *)

val diff : int array -> int array -> int list
(** Positions where the two genomes differ, ascending.  Suitable as the
    dirty set of a delta evaluation. *)

val hamming : int array -> int array -> int
(** Number of differing positions (for diversity measurement). *)
