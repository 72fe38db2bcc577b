(* The seed list scheduler, kept verbatim as the equivalence oracle for
   [Mm_sched.List_scheduler.run]: per-edge routing through
   [Comm_mapping.route] in every pass, balanced-tree technology lookups,
   mobility recomputed per call, and an O(n) ready rescan per scheduled
   task.  The production scheduler must produce bit-identical
   schedules.  It records under the production probe name, so the
   [bench eval] harness attributes per-phase time to either
   implementation. *)

module Graph = Mm_taskgraph.Graph
module Task = Mm_taskgraph.Task
module Task_type = Mm_taskgraph.Task_type
module Mobility = Mm_taskgraph.Mobility
module Arch = Mm_arch.Architecture
module Pe = Mm_arch.Pe
module Cl = Mm_arch.Cl
module Tech_lib = Mm_arch.Tech_lib
module Comm_mapping = Mm_sched.Comm_mapping
module Resource = Mm_sched.Resource
module Schedule = Mm_sched.Schedule
open Mm_sched.List_scheduler

let p_run = Mm_obs.Probe.create ~fine:true "sched/list"

let impl_of input task_id =
  let task = Graph.task input.graph task_id in
  let pe = Arch.pe input.arch input.mapping.(task_id) in
  match Tech_lib.find input.tech ~ty:(Task.ty task) ~pe with
  | Some impl -> impl
  | None -> raise (Unsupported_mapping { task = task_id; pe = Pe.id pe })

let run ?(policy = Mobility_first) input =
  Mm_obs.Probe.run
    ~args:(fun () -> [ ("mode", string_of_int input.mode_id) ])
    p_run
  @@ fun () ->
  let n = Graph.n_tasks input.graph in
  if Array.length input.mapping <> n then
    invalid_arg "List_scheduler.run: mapping length mismatch";
  let exec =
    Array.init n (fun i -> (impl_of input i).Tech_lib.exec_time)
  in
  let comm_time (e : Graph.edge) =
    match
      Comm_mapping.route input.arch ~src_pe:input.mapping.(e.src)
        ~dst_pe:input.mapping.(e.dst) ~data:e.data
    with
    | Comm_mapping.Local | Comm_mapping.Unroutable -> 0.0
    | Comm_mapping.Via { time; _ } -> time
  in
  let priority =
    match policy with
    | Mobility_first ->
      let mobility =
        Mobility.compute input.graph
          ~exec_time:(fun t -> exec.(Task.id t))
          ~comm_time ~horizon:input.period
      in
      Array.init n (fun i -> -.Mobility.mobility mobility i)
    | Critical_path_first ->
      let level = Array.make n 0.0 in
      let topo = Graph.topological_order input.graph in
      for k = n - 1 downto 0 do
        let i = topo.(k) in
        let tail =
          List.fold_left
            (fun acc (e : Graph.edge) -> Float.max acc (comm_time e +. level.(e.dst)))
            0.0
            (Graph.succ_edges input.graph i)
        in
        level.(i) <- exec.(i) +. tail
      done;
      level
    | Topological ->
      let order = Graph.topological_order input.graph in
      let rank = Array.make n 0.0 in
      Array.iteri (fun position i -> rank.(i) <- -.float_of_int position) order;
      rank
  in
  let avail : (Resource.t, float) Hashtbl.t = Hashtbl.create 16 in
  let avail_of r = Option.value ~default:0.0 (Hashtbl.find_opt avail r) in
  let task_slots = Array.make n None in
  let comm_slots = ref [] in
  let unroutable = ref [] in
  let remaining_preds = Array.init n (fun i -> List.length (Graph.preds input.graph i)) in
  let scheduled = Array.make n false in
  let finish_of i =
    match task_slots.(i) with
    | Some (s : Schedule.task_slot) -> Schedule.finish s
    | None -> assert false
  in
  (* Pick the ready task with the highest priority, lowest id on ties. *)
  let pick_ready () =
    let best = ref None in
    for i = n - 1 downto 0 do
      if (not scheduled.(i)) && remaining_preds.(i) = 0 then
        match !best with
        | Some j when priority.(j) > priority.(i) -> ()
        | Some j when priority.(j) = priority.(i) && j < i -> ()
        | Some _ | None -> best := Some i
    done;
    !best
  in
  let schedule_incoming_comms task_id =
    let pred_edges =
      Graph.pred_edges input.graph task_id
      |> List.sort (fun (a : Graph.edge) b ->
             compare (finish_of a.src, a.src) (finish_of b.src, b.src))
    in
    List.fold_left
      (fun latest_arrival (e : Graph.edge) ->
        let produced = finish_of e.src in
        let arrival =
          match
            Comm_mapping.route input.arch ~src_pe:input.mapping.(e.src)
              ~dst_pe:input.mapping.(e.dst) ~data:e.data
          with
          | Comm_mapping.Local -> produced
          | Comm_mapping.Unroutable ->
            unroutable := e :: !unroutable;
            produced
          | Comm_mapping.Via { cl; time; energy } ->
            let link = Resource.Link (Cl.id cl) in
            let start = Float.max (avail_of link) produced in
            Hashtbl.replace avail link (start +. time);
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
    match pick_ready () with
    | None -> ()
    | Some task_id ->
      let arrival = schedule_incoming_comms task_id in
      let resource = resource_for task_id in
      let start = Float.max (avail_of resource) arrival in
      let duration = exec.(task_id) in
      Hashtbl.replace avail resource (start +. duration);
      task_slots.(task_id) <- Some { Schedule.task = task_id; resource; start; duration };
      scheduled.(task_id) <- true;
      List.iter
        (fun succ -> remaining_preds.(succ) <- remaining_preds.(succ) - 1)
        (Graph.succs input.graph task_id);
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
