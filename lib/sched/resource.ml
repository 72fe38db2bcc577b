type t =
  | Sw_pe of int
  | Hw_core of { pe : int; ty : int; instance : int }
  | Link of int

(* The order [Stdlib.compare] gives the variant — constructors in
   declaration order, then fields left to right — without the generic
   structural walk. *)
let rank = function Sw_pe _ -> 0 | Hw_core _ -> 1 | Link _ -> 2

let compare a b =
  match (a, b) with
  | Sw_pe x, Sw_pe y | Link x, Link y -> Int.compare x y
  | Hw_core x, Hw_core y ->
    let c = Int.compare x.pe y.pe in
    if c <> 0 then c
    else
      let c = Int.compare x.ty y.ty in
      if c <> 0 then c else Int.compare x.instance y.instance
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Sw_pe pe -> 3 * pe
  | Hw_core { pe; ty; instance } -> (3 * ((((pe * 65599) + ty) * 65599) + instance)) + 1
  | Link cl -> (3 * cl) + 2

let pe_id = function
  | Sw_pe pe -> Some pe
  | Hw_core { pe; _ } -> Some pe
  | Link _ -> None

let pp ppf = function
  | Sw_pe pe -> Format.fprintf ppf "sw-pe%d" pe
  | Hw_core { pe; ty; instance } -> Format.fprintf ppf "pe%d.core(ty%d,#%d)" pe ty instance
  | Link cl -> Format.fprintf ppf "cl%d" cl

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
