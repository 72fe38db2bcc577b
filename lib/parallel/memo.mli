(** An LRU-bounded memoization cache keyed on integer arrays.

    The compiled evaluation context ([Mm_cosynth.Spec.compiled]) keeps
    two of these per domain: mode-mobility tables keyed on a mode's
    mapping, and per-mode (schedule, scaling, power) results keyed on
    the genes a mode reads.  Successive GA candidates share most of
    their per-mode mappings, so those repeats are answered from the
    cache instead of re-running the scheduler and the DVS pass.

    Keys are hashed over the {e whole} array (FNV-1a), not with
    [Hashtbl.hash]'s truncated traversal, so long keys that differ only
    in their tail do not collide systematically.  Keys are copied on
    insertion; the cache never aliases caller arrays.

    The cache is not thread-safe: each domain owns its own caches. *)

type 'v t

val create : capacity:int -> unit -> 'v t
(** [create ~capacity ()] makes an empty cache holding at most
    [capacity] entries; beyond that the least-recently-used entry is
    evicted.  Raises [Invalid_argument] if [capacity < 1]. *)

val find : ?pin:bool -> 'v t -> int array -> 'v option
(** Lookup; counts a hit or a miss and refreshes the entry's recency.
    [~pin:true] additionally exempts a found entry from eviction until
    {!unpin_all} — see {e Pinning} below. *)

val add : ?pin:bool -> 'v t -> int array -> 'v -> unit
(** Insert (or overwrite) a binding, copying the key, and evict the
    least-recently-used {e unpinned} entry if the cache is over
    capacity.  [~pin:true] pins the inserted entry. *)

val mem : 'v t -> int array -> bool
(** Membership test without touching recency or the hit/miss counters. *)

(** {2 Pinning}

    When one logical operation performs several lookups and insertions
    against the same cache (e.g. a fitness evaluation touching one entry
    per mode), a later insertion can evict an entry an earlier step of
    the {e same} operation just inserted or retrieved — at full capacity
    the operation then invalidates its own working set.  Pinning marks
    the operation's entries as off-limits to the LRU bound for its
    duration: eviction skips pinned entries (temporarily overflowing
    capacity when everything is pinned), and {!unpin_all} releases them
    and trims the cache back down.  Pins are not reference-counted;
    callers bracket each operation with [unpin_all] (typically via
    [Fun.protect]). *)

val unpin_all : 'v t -> unit
(** Release every pin, then evict down to capacity (oldest first). *)

val pinned : 'v t -> int
(** Number of currently pinned entries. *)

val length : 'v t -> int

val capacity : 'v t -> int

val hits : 'v t -> int
(** Number of successful {!find}s over the cache's lifetime. *)

val misses : 'v t -> int
(** Number of failed {!find}s over the cache's lifetime. *)

val evictions : 'v t -> int
(** Number of entries dropped by the LRU bound. *)
