module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode
module Graph = Mm_taskgraph.Graph
module Task = Mm_taskgraph.Task
module Arch = Mm_arch.Architecture
module Pe = Mm_arch.Pe
module Tech_lib = Mm_arch.Tech_lib

type position = { mode : int; task : int }

module Int_map = Map.Make (Int)

(* Everything mapping-independent that the fitness pipeline needs per
   candidate, hoisted out of the per-evaluation path and built exactly
   once per specification (paper Fig. 4's inner loop runs thousands of
   times per synthesis; see DESIGN.md §10).  Everything here is shared
   by every domain: the tables are immutable, and the two per-mode memo
   caches are mutex-guarded and hold values that are pure functions of
   their keys.  The caches live here rather than in domain-local
   storage, so they die with the specification.  The type and area
   tables feed core allocation, which reads a task's type id and a
   core's area once per task on every evaluation. *)
type compiled = {
  routes : Mm_sched.Comm_mapping.table;
  dispatch : Tech_lib.dispatch;
  n_types : int;
  task_types : int array array;  (** Per mode: task -> type id. *)
  core_areas : float array;  (** [pe * n_types + ty] -> core area, 0 when absent. *)
  mobility : Mm_taskgraph.Mobility.t Mm_parallel.Memo.t;
  evals :
    (Mm_sched.Schedule.t * Mm_dvs.Scaling.t * Mm_energy.Power.mode_power)
    Mm_parallel.Memo.t;
}

type t = {
  omsm : Omsm.t;
  arch : Arch.t;
  tech : Tech_lib.t;
  positions : position array;
  offsets : int array;  (** offsets.(mode) = first position index of the mode. *)
  candidates : Pe.t array array;  (** Per position, in PE id order. *)
  types_by_id : Mm_taskgraph.Task_type.t Int_map.t;
  compiled_ctx : compiled option Atomic.t;
}

exception Invalid of string

let make ~omsm ~arch ~tech =
  let positions =
    List.concat_map
      (fun mode ->
        List.init (Mode.n_tasks mode) (fun task -> { mode = Mode.id mode; task }))
      (Omsm.modes omsm)
    |> Array.of_list
  in
  let offsets = Array.make (Omsm.n_modes omsm) 0 in
  Array.iteri
    (fun i pos -> if pos.task = 0 then offsets.(pos.mode) <- i)
    positions;
  let candidates =
    Array.map
      (fun pos ->
        let graph = Mode.graph (Omsm.mode omsm pos.mode) in
        let ty = Task.ty (Graph.task graph pos.task) in
        let pes = Tech_lib.supported_pes tech ~ty arch in
        if pes = [] then
          raise
            (Invalid
               (Printf.sprintf "task %d of mode %d (type %s) has no candidate PE"
                  pos.task pos.mode
                  (Mm_taskgraph.Task_type.name ty)));
        Array.of_list pes)
      positions
  in
  let types_by_id =
    Mm_taskgraph.Task_type.Set.fold
      (fun ty acc -> Int_map.add (Mm_taskgraph.Task_type.id ty) ty acc)
      (Omsm.all_task_types omsm) Int_map.empty
  in
  {
    omsm;
    arch;
    tech;
    positions;
    offsets;
    candidates;
    types_by_id;
    compiled_ctx = Atomic.make None;
  }

(* Capacity of each per-mode cache, in entries.  An entry a lookup just
   touched survives the next capacity - 1 insertions, far more than the
   domains × modes entries that concurrent evaluations touch at once;
   an evaluation keeps its own results in local arrays anyway, so an
   early eviction costs a recomputation, never a wrong answer. *)
let mode_cache_capacity = 4096

let compile t =
  let n_types =
    Mm_taskgraph.Task_type.Set.fold
      (fun ty acc -> max acc (Mm_taskgraph.Task_type.id ty + 1))
      (Omsm.all_task_types t.omsm) 0
  in
  let n_pes = Arch.n_pes t.arch in
  let task_types =
    Array.init (Omsm.n_modes t.omsm) (fun mode ->
        let graph = Mode.graph (Omsm.mode t.omsm mode) in
        Array.init (Graph.n_tasks graph) (fun i ->
            Mm_taskgraph.Task_type.id (Task.ty (Graph.task graph i))))
  in
  let core_areas = Array.make (n_pes * n_types) 0.0 in
  Int_map.iter
    (fun ty_id ty ->
      for pe = 0 to n_pes - 1 do
        match Tech_lib.find t.tech ~ty ~pe:(Arch.pe t.arch pe) with
        | Some impl -> core_areas.((pe * n_types) + ty_id) <- impl.Tech_lib.area
        | None -> ()
      done)
    t.types_by_id;
  {
    routes = Mm_sched.Comm_mapping.table t.arch;
    dispatch = Tech_lib.dispatch t.tech ~n_types ~n_pes;
    n_types;
    task_types;
    core_areas;
    mobility = Mm_parallel.Memo.create ~capacity:mode_cache_capacity ();
    evals = Mm_parallel.Memo.create ~capacity:mode_cache_capacity ();
  }

let compiled t =
  match Atomic.get t.compiled_ctx with
  | Some c -> c
  | None ->
    let c = compile t in
    if Atomic.compare_and_set t.compiled_ctx None (Some c) then c
    else (
      match Atomic.get t.compiled_ctx with
      | Some c -> c
      | None -> assert false (* the context is only ever set, never cleared *))

let routes c = c.routes
let dispatch c = c.dispatch
let n_types c = c.n_types
let task_types c mode = c.task_types.(mode)

let core_area c ~pe ~ty =
  let i = (pe * c.n_types) + ty in
  if pe < 0 || ty < 0 || ty >= c.n_types || i >= Array.length c.core_areas then 0.0
  else c.core_areas.(i)

let mode_mobility_cache c = c.mobility
let mode_eval_cache c = c.evals

let omsm t = t.omsm
let arch t = t.arch
let tech t = t.tech
let n_positions t = Array.length t.positions
let position t i = t.positions.(i)
let index_of t ~mode ~task = t.offsets.(mode) + task
let candidates t i = t.candidates.(i)
let gene_counts t = Array.map Array.length t.candidates

let candidate_index t i ~pe_id =
  let cands = t.candidates.(i) in
  let rec scan k =
    if k >= Array.length cands then None
    else if Pe.id cands.(k) = pe_id then Some k
    else scan (k + 1)
  in
  scan 0

let mode_task_count t mode = Mode.n_tasks (Omsm.mode t.omsm mode)

let task_at t i =
  let pos = t.positions.(i) in
  Graph.task (Mode.graph (Omsm.mode t.omsm pos.mode)) pos.task

let type_of_id t ty_id = Int_map.find_opt ty_id t.types_by_id
