(** Deterministic pseudo-random number generation.

    All randomness in mmsyn flows through this module so that benchmark
    generation and synthesis runs are reproducible from a single integer
    seed.  The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014):
    a 64-bit state advanced by a Weyl sequence and finalised by a mixing
    function.  It is fast, passes BigCrush, and — crucially for us — can be
    split into independent streams, which keeps per-benchmark and per-run
    randomness decoupled. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a new generator from [t]'s stream.  The child's
    stream is statistically independent of the parent's subsequent
    output. *)

val copy : t -> t
(** [copy t] duplicates the current state; both generators then produce
    the same future stream. *)

val stream : t -> int -> t
(** [stream t i] derives the [i]-th child stream from [t]'s current
    state {e without advancing} [t]: unlike {!split}, repeated calls
    with the same index give the same child.  [stream t 0] is {!copy},
    so a consumer of exactly one stream is bit-identical to using [t]
    directly; distinct indices give statistically independent streams.
    This is how the island model gives each of its N islands a
    reproducible generator derived from the run seed and the island
    index alone. *)

val state : t -> int64
(** The generator's raw internal state.  Together with {!of_state} this
    is what lets a checkpoint capture a run's randomness exactly: a
    generator rebuilt from the captured word continues the stream
    bit-for-bit. *)

val of_state : int64 -> t
(** [of_state s] rebuilds the generator whose {!state} was [s].  Unlike
    {!create} the word is used verbatim (no mixing), so
    [of_state (state t)] produces exactly [t]'s future stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).  Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)].  [bound] must be
    positive and finite. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)].  Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val gaussian : t -> float
(** Standard normal draw (Box–Muller). *)

val gaussians_into : t -> float array -> unit
(** [gaussians_into t out] fills [out] with independent standard normal
    draws, in index order: bit for bit the values of
    [Array.length out] successive {!gaussian} calls, leaving [t] in the
    same state, without allocating. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.  Raises [Invalid_argument] on an
    empty list. *)

val pick_array : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list
(** Functional shuffle. *)

val sample_without_replacement : t -> int -> 'a list -> 'a list
(** [sample_without_replacement t k xs] picks [k] distinct elements of
    [xs] (all of them when [k >= List.length xs]), in random order. *)

val gamma : t -> shape:float -> float
(** Gamma(shape, 1) draw via the Marsaglia–Tsang squeeze, with the
    [U^(1/a)] boost for [shape < 1].  Consumes a variable number of
    underlying draws (rejection sampling).  [shape] must be positive and
    finite. *)

val dirichlet : t -> float array -> float array
(** [dirichlet t alpha] draws from the Dirichlet distribution with
    concentration vector [alpha] (normalised independent gamma draws).
    Every entry of [alpha] must be positive and finite; the result is
    positive and sums to 1.  Raises [Invalid_argument] on an empty
    vector. *)

val dirichlet_into : t -> float array -> float array -> unit
(** [dirichlet_into t alpha out] is {!dirichlet} written into [out]
    (which must have [alpha]'s length): the same weights bit for bit,
    and the same state of [t] afterwards.  It draws on a local copy of
    the state word, stored back once, and allocates nothing.  Raises
    [Invalid_argument] as {!dirichlet} does, or on a length mismatch,
    before drawing. *)

val dirichlet_like : t -> int -> skew:float -> float array
(** [dirichlet_like t n ~skew] draws [n] positive weights summing to 1.
    [skew >= 1.] controls unevenness: 1 gives roughly uniform weights,
    larger values concentrate mass on few entries (used for mode execution
    probabilities, which the paper observes to be highly uneven). *)
