module Graph = Mm_taskgraph.Graph
module Task = Mm_taskgraph.Task
module Task_type = Mm_taskgraph.Task_type
module Mobility = Mm_taskgraph.Mobility
module Arch = Mm_arch.Architecture
module Pe = Mm_arch.Pe
module Cl = Mm_arch.Cl
module Tech_lib = Mm_arch.Tech_lib

type input = {
  mode_id : int;
  graph : Graph.t;
  arch : Arch.t;
  tech : Tech_lib.t;
  mapping : int array;
  instances : pe:int -> ty:int -> int;
  period : float;
  mobility : Mobility.t option;
  routes : Comm_mapping.table option;
  dispatch : Tech_lib.dispatch option;
}

let make_input ?mobility ?routes ?dispatch ~mode_id ~graph ~arch ~tech ~mapping
    ~instances ~period () =
  { mode_id; graph; arch; tech; mapping; instances; period; mobility; routes; dispatch }

type policy = Mobility_first | Critical_path_first | Topological

exception Unsupported_mapping of { task : int; pe : int }

let impl_of input task_id =
  let task = Graph.task input.graph task_id in
  let pe_id = input.mapping.(task_id) in
  let found =
    match input.dispatch with
    | Some d -> Tech_lib.dispatch_find d ~ty_id:(Task_type.id (Task.ty task)) ~pe_id
    | None -> Tech_lib.find input.tech ~ty:(Task.ty task) ~pe:(Arch.pe input.arch pe_id)
  in
  match found with
  | Some impl -> impl
  | None -> raise (Unsupported_mapping { task = task_id; pe = pe_id })

let exec_times input =
  Array.init (Graph.n_tasks input.graph) (fun i -> (impl_of input i).Tech_lib.exec_time)

(* One routing decision per edge, resolved once per run and shared by
   the mobility, bottom-level and comm-scheduling passes (the seed code
   re-routed each edge in every pass, up to three times per run). *)
let route_decisions input =
  let graph = input.graph and mapping = input.mapping in
  match input.routes with
  | Some table ->
    Array.init (Graph.n_edges graph) (fun id ->
        let e = Graph.edge graph id in
        Comm_mapping.route_via table ~src_pe:mapping.(e.src) ~dst_pe:mapping.(e.dst)
          ~data:e.data)
  | None ->
    Array.init (Graph.n_edges graph) (fun id ->
        let e = Graph.edge graph id in
        Comm_mapping.route input.arch ~src_pe:mapping.(e.src) ~dst_pe:mapping.(e.dst)
          ~data:e.data)

let comm_time_of decisions id =
  match decisions.(id) with
  | Comm_mapping.Local | Comm_mapping.Unroutable -> 0.0
  | Comm_mapping.Via { time; _ } -> time

(* Mobility under the concrete mapping: execution times from the mapped
   implementations, communication times from the routed links. *)
let mapped_mobility input exec decisions =
  Mobility.compute_indexed input.graph ~exec ~comm_time:(comm_time_of decisions)
    ~horizon:input.period

(* Bottom level (HLFET rank): longest exec+comm path from the task to any
   sink, inclusive. *)
let bottom_levels input exec decisions =
  let graph = input.graph in
  let n = Graph.n_tasks graph in
  let level = Array.make n 0.0 in
  let topo = Graph.topological_order graph in
  for k = n - 1 downto 0 do
    let i = topo.(k) in
    let tail = ref 0.0 in
    Graph.iter_succ_edges graph i (fun id (e : Graph.edge) ->
        tail := Float.max !tail (comm_time_of decisions id +. level.(e.dst)));
    level.(i) <- exec.(i) +. !tail
  done;
  level

(* Binary max-heap of ready tasks ordered by (priority desc, id asc) —
   the exact total order of the seed's O(n) ready rescan, so every pop
   returns the element that scan would have picked.  The order is total
   (ids are distinct), so the heap's choice of maximum is unique. *)
module Ready_heap = struct
  type t = { priority : float array; heap : int array; mutable len : int }

  let create priority =
    { priority; heap = Array.make (max 1 (Array.length priority)) 0; len = 0 }

  let before t i j =
    t.priority.(i) > t.priority.(j) || (t.priority.(i) = t.priority.(j) && i < j)

  let push t i =
    let k = ref t.len in
    t.heap.(!k) <- i;
    t.len <- t.len + 1;
    while
      !k > 0
      &&
      let parent = (!k - 1) / 2 in
      before t t.heap.(!k) t.heap.(parent)
    do
      let parent = (!k - 1) / 2 in
      let tmp = t.heap.(!k) in
      t.heap.(!k) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      k := parent
    done

  let pop t =
    if t.len = 0 then None
    else begin
      let top = t.heap.(0) in
      t.len <- t.len - 1;
      t.heap.(0) <- t.heap.(t.len);
      let k = ref 0 in
      let continue = ref (t.len > 1) in
      while !continue do
        let l = (2 * !k) + 1 and r = (2 * !k) + 2 in
        let best = ref !k in
        if l < t.len && before t t.heap.(l) t.heap.(!best) then best := l;
        if r < t.len && before t t.heap.(r) t.heap.(!best) then best := r;
        if !best = !k then continue := false
        else begin
          let tmp = t.heap.(!k) in
          t.heap.(!k) <- t.heap.(!best);
          t.heap.(!best) <- tmp;
          k := !best
        end
      done;
      Some top
    end
end

(* Fine-grained: one span per scheduled mode, nested under the fitness
   evaluation that requested it. *)
let p_run = Mm_obs.Probe.create ~fine:true "sched/list"

let run ?(policy = Mobility_first) input =
  Mm_obs.Probe.run
    ~args:(fun () -> [ ("mode", string_of_int input.mode_id) ])
    p_run
  @@ fun () ->
  let n = Graph.n_tasks input.graph in
  if Array.length input.mapping <> n then
    invalid_arg "List_scheduler.run: mapping length mismatch";
  let exec = exec_times input in
  let decisions = route_decisions input in
  (* Higher priority value = scheduled earlier (ties: lower task id). *)
  let priority =
    match policy with
    | Mobility_first ->
      let mobility =
        match input.mobility with
        | Some m -> m
        | None -> mapped_mobility input exec decisions
      in
      Array.init n (fun i -> -.Mobility.mobility mobility i)
    | Critical_path_first -> bottom_levels input exec decisions
    | Topological ->
      let order = Graph.topological_order input.graph in
      let rank = Array.make n 0.0 in
      Array.iteri (fun position i -> rank.(i) <- -.float_of_int position) order;
      rank
  in
  let avail : float Resource.Tbl.t = Resource.Tbl.create 16 in
  let avail_of r = Option.value ~default:0.0 (Resource.Tbl.find_opt avail r) in
  let task_slots = Array.make n None in
  let comm_slots = ref [] in
  let unroutable = ref [] in
  let remaining_preds = Array.init n (fun i -> Graph.in_degree input.graph i) in
  let ready = Ready_heap.create priority in
  for i = 0 to n - 1 do
    if remaining_preds.(i) = 0 then Ready_heap.push ready i
  done;
  let finish_of i =
    match task_slots.(i) with
    | Some (s : Schedule.task_slot) -> Schedule.finish s
    | None -> assert false
  in
  let schedule_incoming_comms task_id =
    let pred_edges = ref [] in
    Graph.iter_pred_edges input.graph task_id (fun id e ->
        pred_edges := (id, e) :: !pred_edges);
    let pred_edges =
      (* The sort key (producer finish, producer id) is unique per edge
         of one consumer, so the result does not depend on the input
         order or on sort stability. *)
      List.sort
        (fun (_, (a : Graph.edge)) (_, (b : Graph.edge)) ->
          let c = Float.compare (finish_of a.src) (finish_of b.src) in
          if c <> 0 then c else Int.compare a.src b.src)
        !pred_edges
    in
    List.fold_left
      (fun latest_arrival (id, (e : Graph.edge)) ->
        let produced = finish_of e.src in
        let arrival =
          match decisions.(id) with
          | Comm_mapping.Local -> produced
          | Comm_mapping.Unroutable ->
            unroutable := e :: !unroutable;
            produced
          | Comm_mapping.Via { cl; time; energy } ->
            let link = Resource.Link (Cl.id cl) in
            let start = Float.max (avail_of link) produced in
            Resource.Tbl.replace avail link (start +. time);
            comm_slots :=
              { Schedule.edge = e; cl = Cl.id cl; start; duration = time; energy }
              :: !comm_slots;
            start +. time
        in
        Float.max latest_arrival arrival)
      0.0 pred_edges
  in
  let resource_for task_id =
    let pe = Arch.pe input.arch input.mapping.(task_id) in
    if Pe.is_software pe then Resource.Sw_pe (Pe.id pe)
    else
      let ty = Task_type.id (Task.ty (Graph.task input.graph task_id)) in
      let count = max 1 (input.instances ~pe:(Pe.id pe) ~ty) in
      let rec best_instance best best_avail k =
        if k >= count then best
        else
          let r = Resource.Hw_core { pe = Pe.id pe; ty; instance = k } in
          let a = avail_of r in
          if a < best_avail then best_instance r a (k + 1)
          else best_instance best best_avail (k + 1)
      in
      let first = Resource.Hw_core { pe = Pe.id pe; ty; instance = 0 } in
      best_instance first (avail_of first) 1
  in
  let rec loop () =
    match Ready_heap.pop ready with
    | None -> ()
    | Some task_id ->
      let arrival = schedule_incoming_comms task_id in
      let resource = resource_for task_id in
      let start = Float.max (avail_of resource) arrival in
      let duration = exec.(task_id) in
      Resource.Tbl.replace avail resource (start +. duration);
      task_slots.(task_id) <- Some { Schedule.task = task_id; resource; start; duration };
      Graph.iter_succ_edges input.graph task_id (fun _ (e : Graph.edge) ->
          remaining_preds.(e.dst) <- remaining_preds.(e.dst) - 1;
          if remaining_preds.(e.dst) = 0 then Ready_heap.push ready e.dst);
      loop ()
  in
  loop ();
  let slots =
    Array.map
      (function Some s -> s | None -> assert false (* all tasks scheduled: DAG *))
      task_slots
  in
  {
    Schedule.mode_id = input.mode_id;
    period = input.period;
    task_slots = slots;
    comm_slots = List.rev !comm_slots;
    unroutable = List.rev !unroutable;
  }
