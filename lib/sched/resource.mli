(** Sequential execution resources seen by the list scheduler.

    A software PE is one sequential resource.  A hardware PE contributes
    one sequential resource per allocated core instance — tasks on
    different cores run in parallel, tasks contending for the same core
    are sequentialised (paper §2.2).  Every communication link is also a
    sequential resource. *)

type t =
  | Sw_pe of int  (** Software PE id. *)
  | Hw_core of { pe : int; ty : int; instance : int }
      (** A core instance on hardware PE [pe] implementing task type
          [ty]. *)
  | Link of int  (** Communication link id. *)

val compare : t -> t -> int
(** The order [Stdlib.compare] gives: [Sw_pe] < [Hw_core] < [Link],
    then the fields left to right.  Monomorphic, so it skips the generic
    structural walk; {!Map}, {!Set} and every resource-ordered output
    keep the order they always had. *)

val equal : t -> t -> bool
(** [compare a b = 0]. *)

val hash : t -> int
(** A hash consistent with {!equal}, for {!Tbl}. *)

val pe_id : t -> int option
(** The owning PE for task resources; [None] for links. *)

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Tbl : Hashtbl.S with type key = t
(** Hash tables on {!equal} and {!hash}: no polymorphic hash or compare
    per lookup. *)
