(* The seed DVS implementation, kept verbatim as the bit-exactness
   oracle for [Mm_dvs.Scaling.run] and [Mm_dvs.Scaling.nominal]: a unit
   DAG on lists and an O(units) linear scan per accepted greedy step with
   epsilon-chained tie-breaking.  The flat fast path must reproduce its
   choices — and hence every output float — exactly (test_dvs.ml).  It
   records under the production probe name, so the [bench eval]
   harness attributes per-phase time to either implementation.  It also
   keeps the EVEN slack baseline ([run ~strategy:Even_slack]), which
   production does not carry: bench ablation F and test_dvs measure the
   greedy gradient against it. *)

module Graph = Mm_taskgraph.Graph
module Task = Mm_taskgraph.Task
module Arch = Mm_arch.Architecture
module Pe = Mm_arch.Pe
module Voltage = Mm_arch.Voltage
module Tech_lib = Mm_arch.Tech_lib
module Schedule = Mm_sched.Schedule
module Hw_transform = Mm_dvs.Hw_transform
open Mm_dvs.Scaling

let deadline_of_task graph period task_id =
  match Task.deadline (Graph.task graph task_id) with
  | None -> period
  | Some d -> Float.min d period

let p_run = Mm_obs.Probe.create ~fine:true "dvs/scale"

(* How the slack is spent.  Production runs only the greedy gradient. *)
type strategy =
  | Greedy_gradient
      (** The PV-DVS-style heuristic: repeatedly lower the voltage of the
          unit with the best energy-gain/added-delay ratio. *)
  | Even_slack
      (** The naive baseline PV-DVS was measured against: one uniform
          slowdown factor for every scalable unit, the largest that still
          meets all deadlines (found by bisection), then the slowest
          discrete level within that factor per unit.  Ignores power
          variation between tasks. *)

type unit_kind =
  | Task_unit of int
  | Segment_unit of { pe : int; seg : Hw_transform.segment }
  | Comm_unit of Schedule.comm_slot

type unit_state = {
  kind : unit_kind;
  nominal : float;
  power : float;
  rail : Voltage.t option;  (** [Some _] iff the unit may be scaled. *)
  deadline : float;
  mutable voltage : float;
  mutable start : float;
  mutable finish : float;
  mutable lft : float;
}

let duration u =
  match u.rail with
  | None -> u.nominal
  | Some rail -> Voltage.scaled_time rail ~tmin:u.nominal u.voltage

(* The unit DAG: scalable/fixed activities with resource-order and
   data-dependency edges.  Built once per (schedule, config). *)
type dag = {
  units : unit_state array;
  preds : int list array;
  succs : int list array;
  topo : int array;
  (* Per task: the unit carrying it, or its first/last segment units when
     the task lives on a scaled hardware component. *)
  task_site : [ `Unit of int | `Segments of int * int ] array;
}

let topological_sort n preds succs =
  let indegree = Array.init n (fun i -> List.length preds.(i)) in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if indegree.(i) = 0 then Queue.add i queue
  done;
  let order = Array.make n (-1) in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order.(!k) <- i;
    incr k;
    List.iter
      (fun j ->
        indegree.(j) <- indegree.(j) - 1;
        if indegree.(j) = 0 then Queue.add j queue)
      succs.(i)
  done;
  assert (!k = n) (* the schedule's time order rules out cycles *);
  order

let build_dag ~config ~graph ~arch ~tech ~(schedule : Schedule.t) =
  let n_tasks = Graph.n_tasks graph in
  let period = schedule.Schedule.period in
  let units = ref [] in
  let n_units = ref 0 in
  let fresh u =
    let id = !n_units in
    incr n_units;
    units := u :: !units;
    id
  in
  let power_of task_id =
    let task = Graph.task graph task_id in
    let pe = Arch.pe arch (Schedule.pe_of_slot schedule.Schedule.task_slots.(task_id)) in
    (Tech_lib.find_exn tech ~ty:(Task.ty task) ~pe).Tech_lib.dyn_power
  in
  let task_site = Array.make n_tasks (`Unit (-1)) in
  (* Hardware components whose cores are scaled through segments. *)
  let scaled_hw_pe pe =
    config.scale_hardware && Pe.is_hardware pe && Pe.is_dvs_enabled pe
  in
  (* Task units for everything not living on a scaled hardware component. *)
  Array.iter
    (fun (slot : Schedule.task_slot) ->
      let pe = Arch.pe arch (Schedule.pe_of_slot slot) in
      if not (scaled_hw_pe pe) then begin
        let rail =
          if config.scale_software && Pe.is_software pe then Pe.rail pe else None
        in
        let vstart = match rail with Some r -> Voltage.vmax r | None -> nan in
        let id =
          fresh
            {
              kind = Task_unit slot.Schedule.task;
              nominal = slot.Schedule.duration;
              power = power_of slot.Schedule.task;
              rail;
              deadline = deadline_of_task graph period slot.Schedule.task;
              voltage = vstart;
              start = 0.0;
              finish = 0.0;
              lft = infinity;
            }
        in
        task_site.(slot.Schedule.task) <- `Unit id
      end)
    schedule.Schedule.task_slots;
  (* Segment units for scaled hardware components. *)
  let segment_chains = ref [] in
  List.iter
    (fun pe ->
      if scaled_hw_pe pe then begin
        let slots =
          Array.to_list schedule.Schedule.task_slots
          |> List.filter (fun (s : Schedule.task_slot) ->
                 Schedule.pe_of_slot s = Pe.id pe)
        in
        if slots <> [] then begin
          let rail =
            match Pe.rail pe with Some r -> r | None -> assert false
          in
          let segs =
            Hw_transform.segments
              ~slots:(List.map (fun s -> (s, power_of s.Schedule.task)) slots)
          in
          let seg_deadline seg =
            List.fold_left
              (fun acc task_id -> Float.min acc (deadline_of_task graph period task_id))
              infinity seg.Hw_transform.finishing
          in
          let ids =
            List.map
              (fun seg ->
                fresh
                  {
                    kind = Segment_unit { pe = Pe.id pe; seg };
                    nominal = seg.Hw_transform.duration;
                    power = seg.Hw_transform.power;
                    rail = Some rail;
                    deadline = seg_deadline seg;
                    voltage = Voltage.vmax rail;
                    start = 0.0;
                    finish = 0.0;
                    lft = infinity;
                  })
              segs
          in
          let id_of_index = Array.of_list ids in
          segment_chains := ids :: !segment_chains;
          List.iter
            (fun (s : Schedule.task_slot) ->
              let first = Hw_transform.first_segment_of segs s.Schedule.task in
              let last = Hw_transform.last_segment_of segs s.Schedule.task in
              task_site.(s.Schedule.task) <-
                `Segments (id_of_index.(first), id_of_index.(last)))
            slots
        end
      end)
    (Arch.pes arch);
  (* Communication units. *)
  let comm_unit = Hashtbl.create 16 in
  List.iter
    (fun (c : Schedule.comm_slot) ->
      let id =
        fresh
          {
            kind = Comm_unit c;
            nominal = c.Schedule.duration;
            power = 0.0;
            rail = None;
            deadline = period;
            voltage = nan;
            start = 0.0;
            finish = 0.0;
            lft = infinity;
          }
      in
      Hashtbl.replace comm_unit (c.Schedule.edge.Graph.src, c.Schedule.edge.Graph.dst) id)
    schedule.Schedule.comm_slots;
  let units = Array.of_list (List.rev !units) in
  let n = Array.length units in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  let add_edge a b =
    if a <> b then begin
      succs.(a) <- b :: succs.(a);
      preds.(b) <- a :: preds.(b)
    end
  in
  (* Resource chains: task units grouped by resource in start order. *)
  let by_resource = Hashtbl.create 16 in
  Array.iteri
    (fun id u ->
      match u.kind with
      | Task_unit task_id ->
        let slot = schedule.Schedule.task_slots.(task_id) in
        let key = slot.Schedule.resource in
        let existing = Option.value ~default:[] (Hashtbl.find_opt by_resource key) in
        Hashtbl.replace by_resource key ((slot.Schedule.start, id) :: existing)
      | Segment_unit _ | Comm_unit _ -> ())
    units;
  Hashtbl.iter
    (fun _ entries ->
      let sorted = List.sort compare entries in
      ignore
        (List.fold_left
           (fun prev (_, id) ->
             (match prev with Some p -> add_edge p id | None -> ());
             Some id)
           None sorted))
    by_resource;
  (* Segment chains. *)
  List.iter
    (fun ids ->
      ignore
        (List.fold_left
           (fun prev id ->
             (match prev with Some p -> add_edge p id | None -> ());
             Some id)
           None ids))
    !segment_chains;
  (* Link chains. *)
  let by_cl = Hashtbl.create 8 in
  Array.iteri
    (fun id u ->
      match u.kind with
      | Comm_unit c ->
        let existing = Option.value ~default:[] (Hashtbl.find_opt by_cl c.Schedule.cl) in
        Hashtbl.replace by_cl c.Schedule.cl ((c.Schedule.start, id) :: existing)
      | Task_unit _ | Segment_unit _ -> ())
    units;
  Hashtbl.iter
    (fun _ entries ->
      let sorted = List.sort compare entries in
      ignore
        (List.fold_left
           (fun prev (_, id) ->
             (match prev with Some p -> add_edge p id | None -> ());
             Some id)
           None sorted))
    by_cl;
  (* Data edges. *)
  let finishing_unit task_id =
    match task_site.(task_id) with `Unit id -> id | `Segments (_, last) -> last
  in
  let starting_unit task_id =
    match task_site.(task_id) with `Unit id -> id | `Segments (first, _) -> first
  in
  List.iter
    (fun (e : Graph.edge) ->
      let producer = finishing_unit e.src in
      let consumer = starting_unit e.dst in
      match Hashtbl.find_opt comm_unit (e.src, e.dst) with
      | Some comm ->
        add_edge producer comm;
        add_edge comm consumer
      | None -> add_edge producer consumer)
    (Graph.edges graph);
  let topo = topological_sort n preds succs in
  { units; preds; succs; topo; task_site }

let forward dag =
  Array.iter
    (fun id ->
      let u = dag.units.(id) in
      let ready =
        List.fold_left (fun acc p -> Float.max acc dag.units.(p).finish) 0.0 dag.preds.(id)
      in
      u.start <- ready;
      u.finish <- ready +. duration u)
    dag.topo

let backward dag =
  let n = Array.length dag.units in
  for k = n - 1 downto 0 do
    let id = dag.topo.(k) in
    let u = dag.units.(id) in
    let from_succs =
      List.fold_left
        (fun acc s ->
          let su = dag.units.(s) in
          Float.min acc (su.lft -. duration su))
        infinity dag.succs.(id)
    in
    u.lft <- Float.min u.deadline from_succs
  done

let all_deadlines_met dag =
  Array.for_all (fun u -> u.finish <= u.deadline +. 1e-9) dag.units

(* One greedy step: lower the voltage of the unit with the best
   energy-gain / added-delay ratio whose added delay fits its slack. *)
let greedy_step dag =
  let best = ref None in
  Array.iteri
    (fun id u ->
      match u.rail with
      | None -> ()
      | Some rail -> (
        match Voltage.next_lower rail u.voltage with
        | None -> ()
        | Some v' ->
          let added_delay =
            u.nominal *. (Voltage.delay_factor rail v' -. Voltage.delay_factor rail u.voltage)
          in
          let slack = u.lft -. u.finish in
          if added_delay <= slack +. 1e-12 then begin
            let energy_gain =
              u.power *. u.nominal
              *. (Voltage.energy_factor rail u.voltage -. Voltage.energy_factor rail v')
            in
            let ratio = if added_delay > 0.0 then energy_gain /. added_delay else infinity in
            match !best with
            | Some (_, _, best_ratio, best_gain) ->
              if
                ratio > best_ratio +. 1e-15
                || (Float.abs (ratio -. best_ratio) <= 1e-15 && energy_gain > best_gain)
              then best := Some (id, v', ratio, energy_gain)
            | None -> best := Some (id, v', ratio, energy_gain)
          end))
    dag.units;
  match !best with
  | Some (id, v', _, gain) when gain > 0.0 ->
    dag.units.(id).voltage <- v';
    true
  | Some _ | None -> false

(* The EVEN baseline: one uniform slowdown factor for all scalable units.
   Feasibility is monotone in the factor (larger factor, longer
   durations), so bisection finds the largest workable one. *)
let even_slack_scale dag =
  let slowest_within rail factor =
    (* The lowest level whose delay factor fits; Vmax (factor 1) always
       does. *)
    List.fold_left
      (fun best v -> if Voltage.delay_factor rail v <= factor +. 1e-12 then v else best)
      (Voltage.vmax rail) (Voltage.levels rail)
  in
  let apply factor =
    Array.iter
      (fun u ->
        match u.rail with
        | Some rail -> u.voltage <- slowest_within rail factor
        | None -> ())
      dag.units
  in
  let feasible_at factor =
    apply factor;
    forward dag;
    all_deadlines_met dag
  in
  let max_factor =
    Array.fold_left
      (fun acc u ->
        match u.rail with
        | Some rail -> Float.max acc (Voltage.delay_factor rail (Voltage.vmin rail))
        | None -> acc)
      1.0 dag.units
  in
  let rec bisect lo hi k =
    (* Invariant: lo feasible, hi not (or untested upper bound). *)
    if k = 0 then lo
    else
      let mid = (lo +. hi) /. 2.0 in
      if feasible_at mid then bisect mid hi (k - 1) else bisect lo mid (k - 1)
  in
  let best =
    if feasible_at max_factor then max_factor else bisect 1.0 max_factor 40
  in
  ignore (feasible_at best)

let scale ~strategy dag =
  forward dag;
  let feasible = all_deadlines_met dag in
  if feasible then begin
    match strategy with
    | Greedy_gradient ->
      let continue_ = ref true in
      while !continue_ do
        backward dag;
        if greedy_step dag then forward dag else continue_ := false
      done
    | Even_slack -> even_slack_scale dag
  end;
  feasible

let assemble ~graph ~arch ~(schedule : Schedule.t) dag feasible =
  let n_tasks = Graph.n_tasks graph in
  let task_voltages = Array.make n_tasks nan in
  let task_energy = Array.make n_tasks 0.0 in
  let stretched_finish = Array.make n_tasks 0.0 in
  let hw_segments = ref [] in
  Array.iter
    (fun u ->
      match u.kind with
      | Task_unit task_id ->
        let energy =
          match u.rail with
          | None -> u.power *. u.nominal
          | Some rail -> Voltage.scaled_energy rail ~pmax:u.power ~tmin:u.nominal u.voltage
        in
        task_energy.(task_id) <- energy;
        stretched_finish.(task_id) <- u.finish;
        let pe = Arch.pe arch (Schedule.pe_of_slot schedule.Schedule.task_slots.(task_id)) in
        task_voltages.(task_id) <-
          (match u.rail with
          | Some _ -> u.voltage
          | None -> (
            match Pe.rail pe with Some r -> Voltage.vmax r | None -> nan))
      | Segment_unit { pe; seg } ->
        let rail = match u.rail with Some r -> r | None -> assert false in
        let energy =
          Voltage.scaled_energy rail ~pmax:u.power ~tmin:u.nominal u.voltage
        in
        hw_segments :=
          {
            pe;
            segment = seg;
            voltage = u.voltage;
            scaled_duration = duration u;
            energy;
          }
          :: !hw_segments
      | Comm_unit _ -> ())
    dag.units;
  (* Fill per-task shares and finishes for segment-resident tasks. *)
  Array.iteri
    (fun task_id site ->
      match site with
      | `Unit _ -> ()
      | `Segments (_, last_unit) ->
        stretched_finish.(task_id) <- dag.units.(last_unit).finish)
    dag.task_site;
  let comm_energy =
    List.fold_left (fun acc (c : Schedule.comm_slot) -> acc +. c.Schedule.energy) 0.0
      schedule.Schedule.comm_slots
  in
  (task_voltages, task_energy, stretched_finish, List.rev !hw_segments, comm_energy, feasible)

let run ?(strategy = Greedy_gradient) ?(config = default_config) ~graph ~arch ~tech
    ~schedule () =
  Mm_obs.Probe.run p_run @@ fun () ->
  let dag = build_dag ~config ~graph ~arch ~tech ~schedule in
  let feasible = scale ~strategy dag in
  let task_voltages, task_energy, stretched_finish, hw_segments, comm_energy, feasible =
    assemble ~graph ~arch ~schedule dag feasible
  in
  (* Prorate segment energies onto their running tasks. *)
  let power_of task_id =
    let task = Graph.task graph task_id in
    let pe = Arch.pe arch (Schedule.pe_of_slot schedule.Schedule.task_slots.(task_id)) in
    (Tech_lib.find_exn tech ~ty:(Task.ty task) ~pe).Tech_lib.dyn_power
  in
  List.iter
    (fun hs ->
      let seg = hs.segment in
      let total_power = seg.Hw_transform.power in
      if total_power > 0.0 then
        List.iter
          (fun task_id ->
            let share = power_of task_id /. total_power in
            task_energy.(task_id) <- task_energy.(task_id) +. (share *. hs.energy))
          seg.Hw_transform.running;
      (* Segment-resident tasks report the rail's nominal voltage in
         task_voltages; the real (time-varying) voltages live in
         hw_segments. *)
      List.iter
        (fun task_id ->
          if Float.is_nan task_voltages.(task_id) then
            task_voltages.(task_id) <-
              (match Pe.rail (Arch.pe arch hs.pe) with
              | Some r -> Voltage.vmax r
              | None -> nan))
        seg.Hw_transform.running)
    hw_segments;
  let total_task_energy = Array.fold_left ( +. ) 0.0 task_energy in
  {
    feasible;
    task_voltages;
    task_energy;
    hw_segments;
    comm_energy;
    total_dyn_energy = total_task_energy +. comm_energy;
    stretched_finish;
  }

let nominal ~graph ~arch ~tech ~schedule () =
  run
    ~config:{ scale_software = false; scale_hardware = false }
    ~graph ~arch ~tech ~schedule ()
