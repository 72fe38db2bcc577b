(** Deriving mode execution probabilities from usage statistics.

    The paper assumes the probabilities Ψ_O are given, noting they come
    from "an average usage profile based on statistical information
    collected from several different users" (§2.1.1).  This module
    closes that gap: given observed {e transition frequencies} between
    modes and the {e mean residence time} spent in a mode per visit, it
    computes the long-run fraction of operational time per mode — the
    stationary distribution of the semi-Markov usage process:

    Ψ_i = π_i·h_i / Σ_j π_j·h_j,

    where π is the stationary distribution of the embedded jump chain
    (solved exactly) and h the mean holding times. *)

type observation = {
  src : int;
  dst : int;
  count : float;  (** Observed number (or rate) of src→dst switches; > 0. *)
}

exception Invalid of string

val embedded_chain : n_modes:int -> observation list -> float array array
(** Row-stochastic jump matrix from the observations.  Rows without any
    outgoing observation self-loop (an absorbing mode).  Raises
    {!Invalid} on out-of-range mode ids or non-positive counts. *)

val stationary : float array array -> float array
(** The exact stationary distribution π of a row-stochastic matrix P:
    the solution of π(I − P) = 0 with Σπ = 1, by a dense solve, with
    exactly 0 on transient modes.  Periodic chains are fine.  Raises
    [Invalid_argument] on a non-square or non-stochastic matrix, or when
    the chain has more than one closed class, where π is not unique. *)

val fundamental : float array array -> float array * float array array
(** [(π, Z)]: {!stationary}'s π and a fundamental matrix
    Z = (I − P + 1uᵀ)⁻¹ with u uniform.  For any r with ⟨π, r⟩ = 0,
    g = Z r solves the Poisson equation (I − P) g = r (normalised by
    Σg = 0 rather than ⟨π, g⟩ = 0).  Raises as {!stationary}. *)

val probabilities :
  n_modes:int ->
  holding_time:(int -> float) ->
  observation list ->
  float array
(** The full pipeline: Ψ per mode, summing to 1.  [holding_time mode] is
    the mean time spent in the mode per visit (> 0). *)

val apply :
  Omsm.t -> holding_time:(int -> float) -> observation list -> Omsm.t
(** Rebuild an OMSM with probabilities replaced by the derived profile
    (modes and transitions otherwise unchanged). *)
