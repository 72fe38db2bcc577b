module Task_type = Mm_taskgraph.Task_type

type impl = { exec_time : float; dyn_power : float; area : float }

module Key = struct
  type t = int * int (* task type id, PE id *)

  let compare (ty_a, pe_a) (ty_b, pe_b) =
    let c = Int.compare ty_a ty_b in
    if c <> 0 then c else Int.compare pe_a pe_b
end

module Key_map = Map.Make (Key)

type t = impl Key_map.t

let impl ~exec_time ~dyn_power ?(area = 0.0) () =
  if exec_time <= 0.0 then invalid_arg "Tech_lib.impl: non-positive exec_time";
  if dyn_power < 0.0 then invalid_arg "Tech_lib.impl: negative dyn_power";
  if area < 0.0 then invalid_arg "Tech_lib.impl: negative area";
  { exec_time; dyn_power; area }

let empty = Key_map.empty

let add t ~ty ~pe point =
  if Pe.is_software pe && point.area > 0.0 then
    invalid_arg "Tech_lib.add: software implementation cannot occupy core area";
  let key = (Task_type.id ty, Pe.id pe) in
  if Key_map.mem key t then invalid_arg "Tech_lib.add: duplicate entry";
  Key_map.add key point t

let find t ~ty ~pe = Key_map.find_opt (Task_type.id ty, Pe.id pe) t
let find_exn t ~ty ~pe = Key_map.find (Task_type.id ty, Pe.id pe) t
let supports t ~ty ~pe = Key_map.mem (Task_type.id ty, Pe.id pe) t

let supported_pes t ~ty arch =
  List.filter (fun pe -> supports t ~ty ~pe) (Architecture.pes arch)

let energy point = point.dyn_power *. point.exec_time
let n_entries t = Key_map.cardinal t

let iter f t =
  Key_map.iter (fun (ty_id, pe_id) point -> f ~ty_id ~pe_id point) t

(* Dense dispatch: the balanced-tree lookup of [find] costs a pointer
   chase per level on every task of every candidate evaluation; the GA's
   inner loop does millions of them.  A flat [(ty × pe) → impl option]
   array resolves the same query with one multiply and one load.  Built
   once per specification (see Spec.compiled); lookups outside the built
   id ranges answer [None], exactly like [find] on an absent key. *)

type dispatch = { n_types : int; n_pes : int; impls : impl option array }

let dispatch t ~n_types ~n_pes =
  if n_types < 0 || n_pes < 0 then invalid_arg "Tech_lib.dispatch: negative dimension";
  let impls = Array.make (n_types * n_pes) None in
  Key_map.iter
    (fun (ty_id, pe_id) point ->
      if ty_id < n_types && pe_id < n_pes then
        impls.((ty_id * n_pes) + pe_id) <- Some point)
    t;
  { n_types; n_pes; impls }

let dispatch_find d ~ty_id ~pe_id =
  if ty_id < 0 || ty_id >= d.n_types || pe_id < 0 || pe_id >= d.n_pes then None
  else d.impls.((ty_id * d.n_pes) + pe_id)
