(** An LRU-bounded memoization cache keyed on integer arrays.

    The compiled evaluation context ([Mm_cosynth.Spec.compiled]) keeps
    two of these per specification, shared by every domain: mode-mobility
    tables keyed on a mode's mapping, and per-mode (schedule, scaling,
    power) results keyed on the genes a mode reads.  Successive GA
    candidates share most of their per-mode mappings, so those repeats
    are answered from the cache instead of re-running the scheduler and
    the DVS pass.

    Keys are hashed over the {e whole} array (FNV-1a), not with
    [Hashtbl.hash]'s truncated traversal, so long keys that differ only
    in their tail do not collide systematically.  Keys are copied on
    insertion; the cache never aliases caller arrays.

    The cache is safe to share between domains: one mutex guards every
    lookup and insertion.  It holds the lock for a hash lookup and an
    LRU splice only, never while the caller computes a value, so two
    domains missing on one key both compute it and the second [add]
    overwrites the first.  Values must therefore be pure functions of
    their keys. *)

type 'v t

val create : capacity:int -> unit -> 'v t
(** [create ~capacity ()] makes an empty cache holding at most
    [capacity] entries; beyond that the least-recently-used entry is
    evicted.  Raises [Invalid_argument] if [capacity < 1]. *)

val find : 'v t -> int array -> 'v option
(** Lookup; counts a hit or a miss and refreshes the entry's recency. *)

val add : 'v t -> int array -> 'v -> unit
(** Insert (or overwrite) a binding, copying the key, and evict the
    least-recently-used entry if the cache is over capacity. *)

val mem : 'v t -> int array -> bool
(** Membership test without touching recency or the hit/miss counters. *)

val length : 'v t -> int

val capacity : 'v t -> int

val hits : 'v t -> int
(** Number of successful {!find}s over the cache's lifetime. *)

val misses : 'v t -> int
(** Number of failed {!find}s over the cache's lifetime. *)

val evictions : 'v t -> int
(** Number of entries dropped by the LRU bound. *)
