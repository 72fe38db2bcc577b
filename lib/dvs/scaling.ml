module Graph = Mm_taskgraph.Graph
module Task = Mm_taskgraph.Task
module Task_type = Mm_taskgraph.Task_type
module Arch = Mm_arch.Architecture
module Pe = Mm_arch.Pe
module Voltage = Mm_arch.Voltage
module Tech_lib = Mm_arch.Tech_lib
module Schedule = Mm_sched.Schedule
module Resource = Mm_sched.Resource

type config = { scale_software : bool; scale_hardware : bool }

let default_config = { scale_software = true; scale_hardware = true }

type hw_segment = {
  pe : int;
  segment : Hw_transform.segment;
  voltage : float;
  scaled_duration : float;
  energy : float;
}

type t = {
  feasible : bool;
  task_voltages : float array;
  task_energy : float array;
  hw_segments : hw_segment list;
  comm_energy : float;
  total_dyn_energy : float;
  stretched_finish : float array;
}

let deadline_of_task graph period task_id =
  match Task.deadline (Graph.task graph task_id) with
  | None -> period
  | Some d -> Float.min d period

(* Fine-grained: one span per voltage-scaled mode ([nominal] too).  The
   seed oracle of the test suite records under the same name, so the
   bench harness can attribute per-phase time to either implementation. *)
let p_run = Mm_obs.Probe.create ~fine:true "dvs/scale"

(* The unit DAG lives in reusable flat arrays (a [workspace], one per
   domain: [domain_workspace]) with CSR predecessor/successor slices
   (DESIGN.md §13).  Each rail's levels and [Voltage] factors are
   tabulated once per call, so the loops never evaluate a power law;
   per-unit durations and next-lower-level gradient candidates are
   cached; the greedy selection pops a binary max-heap of gradient
   ratios instead of rescanning every unit; and after an accepted step
   only the changed unit's descendants (finishes) and ancestors (latest
   finishes) are re-evaluated.  The result must equal the seed
   implementation's (the test suite's [Scaling_oracle]) bit for bit:
   - candidate quantities are computed by the seed's expressions over
     the very floats [Voltage] returns, so cached values equal rescanned
     ones;
   - a unit's pass value is a fold over its neighbours' values, so
     re-evaluating exactly the units whose neighbours changed, in
     topological order, reproduces the full pass;
   - slack (lft - finish) is non-increasing per unit while its voltage
     is unchanged (voltages only drop, durations only grow), so a popped
     candidate whose delay no longer fits can be discarded for good;
   - the seed comparator chains absolute epsilons (1e-15) and is not a
     total order, so the heap only pre-filters: each step pops every
     candidate not provably outside the epsilon window of the collected
     maximum and replays the seed's fold over them in ascending unit
     order.  A candidate [e] is excluded only when [e.ratio +. 1e-15 < w]
     and [w -. e.ratio > 1e-15] for the window minimum [w] — evaluated
     as written, in float arithmetic — so [e] can neither capture nor
     survive any fold state the window can reach. *)

type workspace = {
  (* Per-unit arrays, valid in [0, cap). *)
  mutable cap : int;
  mutable u_task : int array;  (* task id for task units, -1 otherwise *)
  mutable u_rail : int array;  (* PE whose rail scales the unit, -1 = never *)
  mutable u_nominal : float array;
  mutable u_power : float array;
  mutable u_deadline : float array;
  mutable u_level : int array;  (* index into the rail's level table *)
  mutable u_dur : float array;  (* duration at the current level *)
  mutable u_start : float array;
  mutable u_finish : float array;
  mutable u_lft : float array;
  mutable u_pos : int array;  (* position in [topo] *)
  (* Next-lower-level gradient candidate per scalable unit. *)
  mutable cand_level : int array;
  mutable cand_delay : float array;
  mutable cand_gain : float array;
  mutable cand_ratio : float array;
  mutable heap : int array;
  (* Edge buffer and CSR adjacency, valid in [0, ecap). *)
  mutable ecap : int;
  mutable e_src : int array;
  mutable e_dst : int array;
  mutable pred_adj : int array;
  mutable succ_adj : int array;
  (* cap + 1 cells. *)
  mutable pred_off : int array;
  mutable succ_off : int array;
  mutable topo : int array;
  (* In-degree counters while the DAG is built; all zero once Kahn's
     algorithm has consumed them, and the incremental passes' marks
     (kept zero between passes) after that. *)
  mutable scratch : int array;
}

let create_workspace () =
  {
    cap = 0;
    u_task = [||];
    u_rail = [||];
    u_nominal = [||];
    u_power = [||];
    u_deadline = [||];
    u_level = [||];
    u_dur = [||];
    u_start = [||];
    u_finish = [||];
    u_lft = [||];
    u_pos = [||];
    cand_level = [||];
    cand_delay = [||];
    cand_gain = [||];
    cand_ratio = [||];
    heap = [||];
    ecap = 0;
    e_src = [||];
    e_dst = [||];
    pred_adj = [||];
    succ_adj = [||];
    pred_off = [||];
    succ_off = [||];
    topo = [||];
    scratch = [||];
  }

(* One workspace per domain, shared by every specification that domain
   evaluates: [run] rebuilds it from scratch on each call and never
   yields mid-call, and a domain runs one evaluation at a time. *)
let workspace_key = Domain.DLS.new_key create_workspace
let domain_workspace () = Domain.DLS.get workspace_key

(* Unit counts and edge counts are known before any array is filled, so
   growth never needs to preserve contents. *)
let ensure_units ws n =
  if n > ws.cap then begin
    let cap = max n (2 * ws.cap) in
    ws.cap <- cap;
    ws.u_task <- Array.make cap 0;
    ws.u_rail <- Array.make cap 0;
    ws.u_nominal <- Array.make cap 0.0;
    ws.u_power <- Array.make cap 0.0;
    ws.u_deadline <- Array.make cap 0.0;
    ws.u_level <- Array.make cap 0;
    ws.u_dur <- Array.make cap 0.0;
    ws.u_start <- Array.make cap 0.0;
    ws.u_finish <- Array.make cap 0.0;
    ws.u_lft <- Array.make cap 0.0;
    ws.u_pos <- Array.make cap 0;
    ws.cand_level <- Array.make cap 0;
    ws.cand_delay <- Array.make cap 0.0;
    ws.cand_gain <- Array.make cap 0.0;
    ws.cand_ratio <- Array.make cap 0.0;
    ws.heap <- Array.make cap 0;
    ws.pred_off <- Array.make (cap + 1) 0;
    ws.succ_off <- Array.make (cap + 1) 0;
    ws.topo <- Array.make cap 0;
    ws.scratch <- Array.make cap 0
  end

let ensure_edges ws m =
  if m > ws.ecap then begin
    let cap = max m (2 * ws.ecap) in
    ws.ecap <- cap;
    ws.e_src <- Array.make cap 0;
    ws.e_dst <- Array.make cap 0;
    ws.pred_adj <- Array.make cap 0;
    ws.succ_adj <- Array.make cap 0
  end

(* A rail's discrete levels with everything the scaling loops read of
   them, computed once per call by the [Voltage] functions themselves:
   the loops then take the very floats those functions return, from a
   table, with no power law in between.  [lower.(k)] is the index of
   [Voltage.next_lower] of level [k], or -1 at the bottom.  A PE without
   a rail gets the empty table; no unit refers to it. *)
type rail_table = {
  levels : float array;  (* descending, as [Voltage.levels] *)
  delay : float array;  (* [Voltage.delay_factor] per level *)
  energy : float array;  (* [Voltage.energy_factor] per level *)
  lower : int array;
}

let no_rail = { levels = [||]; delay = [||]; energy = [||]; lower = [||] }

let rail_table rail =
  let levels = Array.of_list (Voltage.levels rail) in
  let index_of v =
    let rec find k = if levels.(k) = v then k else find (k + 1) in
    find 0
  in
  {
    levels;
    delay = Array.map (Voltage.delay_factor rail) levels;
    energy = Array.map (Voltage.energy_factor rail) levels;
    lower =
      Array.map
        (fun v -> match Voltage.next_lower rail v with Some v' -> index_of v' | None -> -1)
        levels;
  }

(* The flat DAG: [n] workspace units plus what [run] assembles from. *)
type fdag = {
  ws : workspace;
  n : int;
  rails : rail_table array;  (* by PE id *)
  (* (unit, pe, segment) per segment unit, latest first. *)
  seg_units : (int * int * Hw_transform.segment) list;
  (* (task, last unit) per segment-resident task. *)
  seg_sites : (int * int) list;
}

(* Nominal dynamic power of a scheduled task: one load from the dense
   dispatch table when given, a technology-library lookup otherwise. *)
let task_power ?dispatch ~graph ~arch ~tech (schedule : Schedule.t) task_id =
  let ty = Task.ty (Graph.task graph task_id) in
  let pe_id = Schedule.pe_of_slot schedule.Schedule.task_slots.(task_id) in
  match dispatch with
  | Some dispatch -> (
    match Tech_lib.dispatch_find dispatch ~ty_id:(Task_type.id ty) ~pe_id with
    | Some impl -> impl.Tech_lib.dyn_power
    | None -> raise Not_found)
  | None -> (Tech_lib.find_exn tech ~ty ~pe:(Arch.pe arch pe_id)).Tech_lib.dyn_power

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

let build_flat ws ~config ~graph ~arch ~tech ~dispatch ~(schedule : Schedule.t) =
  let n_tasks = Graph.n_tasks graph in
  let period = schedule.Schedule.period in
  let power_of = task_power ?dispatch ~graph ~arch ~tech schedule in
  let scaled_hw_pe pe =
    config.scale_hardware && Pe.is_hardware pe && Pe.is_dvs_enabled pe
  in
  (* Bucket the slots of scaled hardware components per PE (in task-slot
     order, like the seed's filter) and serialise them into
     segments up front, so the exact unit count is known before any
     workspace array is touched. *)
  let n_pes = Arch.n_pes arch in
  let hw_slots = Array.make n_pes [] in
  let n_task_units = ref 0 in
  Array.iter
    (fun (slot : Schedule.task_slot) ->
      let pe_id = Schedule.pe_of_slot slot in
      if scaled_hw_pe (Arch.pe arch pe_id) then
        hw_slots.(pe_id) <- slot :: hw_slots.(pe_id)
      else incr n_task_units)
    schedule.Schedule.task_slots;
  let hw_components =
    List.filter_map
      (fun pe ->
        if not (scaled_hw_pe pe) then None
        else
          match List.rev hw_slots.(Pe.id pe) with
          | [] -> None
          | slots ->
            let segs =
              Hw_transform.segments
                ~slots:
                  (List.map (fun (s : Schedule.task_slot) -> (s, power_of s.Schedule.task)) slots)
            in
            Some (Pe.id pe, slots, segs))
      (Arch.pes arch)
  in
  let n_segments =
    List.fold_left (fun acc (_, _, segs) -> acc + List.length segs) 0 hw_components
  in
  let comms = Array.of_list schedule.Schedule.comm_slots in
  let n_comms = Array.length comms in
  let n = !n_task_units + n_segments + n_comms in
  ensure_units ws n;
  ensure_edges ws (n + (2 * Graph.n_edges graph));
  let rails =
    Array.init n_pes (fun pe ->
        match Pe.rail (Arch.pe arch pe) with Some r -> rail_table r | None -> no_rail)
  in
  let next = ref 0 in
  (* [rail] is the PE whose rail scales the unit, -1 for none; scalable
     units start at level 0, Vmax. *)
  let fresh ~task ~rail ~nominal ~power ~deadline =
    let id = !next in
    incr next;
    ws.u_task.(id) <- task;
    ws.u_rail.(id) <- rail;
    ws.u_nominal.(id) <- nominal;
    ws.u_power.(id) <- power;
    ws.u_deadline.(id) <- deadline;
    ws.u_level.(id) <- 0;
    ws.u_dur.(id) <- (if rail >= 0 then nominal *. rails.(rail).delay.(0) else nominal);
    id
  in
  (* Sites: the unit whose start/finish carries the task boundary. *)
  let site_first = Array.make n_tasks (-1) in
  let site_last = Array.make n_tasks (-1) in
  (* Task units, in task-slot order. *)
  Array.iter
    (fun (slot : Schedule.task_slot) ->
      let pe_id = Schedule.pe_of_slot slot in
      let pe = Arch.pe arch pe_id in
      if not (scaled_hw_pe pe) then begin
        let rail =
          if config.scale_software && Pe.is_software pe && Pe.is_dvs_enabled pe then pe_id
          else -1
        in
        let id =
          fresh ~task:slot.Schedule.task ~rail ~nominal:slot.Schedule.duration
            ~power:(power_of slot.Schedule.task)
            ~deadline:(deadline_of_task graph period slot.Schedule.task)
        in
        site_first.(slot.Schedule.task) <- id;
        site_last.(slot.Schedule.task) <- id
      end)
    schedule.Schedule.task_slots;
  (* Segment units per scaled hardware component, chained in place. *)
  let seg_units = ref [] in
  let seg_sites = ref [] in
  let n_edges = ref 0 in
  let add_edge a b =
    if a <> b then begin
      ws.e_src.(!n_edges) <- a;
      ws.e_dst.(!n_edges) <- b;
      incr n_edges
    end
  in
  List.iter
    (fun (pe_id, slots, segs) ->
      let first_id = !next in
      List.iter
        (fun (seg : Hw_transform.segment) ->
          let seg_deadline =
            List.fold_left
              (fun acc task_id -> Float.min acc (deadline_of_task graph period task_id))
              infinity seg.Hw_transform.finishing
          in
          let id =
            fresh ~task:(-1) ~rail:pe_id ~nominal:seg.Hw_transform.duration
              ~power:seg.Hw_transform.power ~deadline:seg_deadline
          in
          if id > first_id then add_edge (id - 1) id;
          seg_units := (id, pe_id, seg) :: !seg_units)
        segs;
      List.iter
        (fun (s : Schedule.task_slot) ->
          let first = Hw_transform.first_segment_of segs s.Schedule.task in
          let last = Hw_transform.last_segment_of segs s.Schedule.task in
          site_first.(s.Schedule.task) <- first_id + first;
          site_last.(s.Schedule.task) <- first_id + last;
          seg_sites := (s.Schedule.task, first_id + last) :: !seg_sites)
        slots)
    hw_components;
  (* Communication units, in scheduling order, found by (src, dst). *)
  let comm_base = !next in
  let comm_unit = Int_tbl.create 16 in
  Array.iter
    (fun (c : Schedule.comm_slot) ->
      let id =
        fresh ~task:(-1) ~rail:(-1) ~nominal:c.Schedule.duration ~power:0.0
          ~deadline:period
      in
      Int_tbl.replace comm_unit
        ((c.Schedule.edge.Graph.src * n_tasks) + c.Schedule.edge.Graph.dst)
        id)
    comms;
  assert (!next = n);
  (* Resource chains (task units) and link chains (comm units): walk the
     units of both kinds in one (start, id) order and link each to the
     last unit seen on its sequential resource — the same edges the
     seed derives from its per-resource buckets. *)
  let chained = Array.init (!n_task_units + n_comms) (fun k ->
      if k < !n_task_units then k else comm_base + k - !n_task_units)
  in
  let start_of id =
    if id < comm_base then schedule.Schedule.task_slots.(ws.u_task.(id)).Schedule.start
    else comms.(id - comm_base).Schedule.start
  in
  Array.sort
    (fun a b ->
      let c = Float.compare (start_of a) (start_of b) in
      if c <> 0 then c else Int.compare a b)
    chained;
  let last_on = Resource.Tbl.create 16 in
  Array.iter
    (fun id ->
      let resource =
        if id < comm_base then schedule.Schedule.task_slots.(ws.u_task.(id)).Schedule.resource
        else Resource.Link comms.(id - comm_base).Schedule.cl
      in
      (match Resource.Tbl.find_opt last_on resource with
      | Some prev -> add_edge prev id
      | None -> ());
      Resource.Tbl.replace last_on resource id)
    chained;
  (* Data edges. *)
  List.iter
    (fun (e : Graph.edge) ->
      let producer = site_last.(e.src) in
      let consumer = site_first.(e.dst) in
      match Int_tbl.find_opt comm_unit ((e.src * n_tasks) + e.dst) with
      | Some comm ->
        add_edge producer comm;
        add_edge comm consumer
      | None -> add_edge producer consumer)
    (Graph.edges graph);
  (* CSR adjacency by counting sort. *)
  let m = !n_edges in
  Array.fill ws.pred_off 0 (n + 1) 0;
  Array.fill ws.succ_off 0 (n + 1) 0;
  for k = 0 to m - 1 do
    ws.succ_off.(ws.e_src.(k) + 1) <- ws.succ_off.(ws.e_src.(k) + 1) + 1;
    ws.pred_off.(ws.e_dst.(k) + 1) <- ws.pred_off.(ws.e_dst.(k) + 1) + 1
  done;
  for i = 1 to n do
    ws.pred_off.(i) <- ws.pred_off.(i) + ws.pred_off.(i - 1);
    ws.succ_off.(i) <- ws.succ_off.(i) + ws.succ_off.(i - 1)
  done;
  Array.blit ws.succ_off 0 ws.scratch 0 n;
  for k = 0 to m - 1 do
    let s = ws.e_src.(k) in
    ws.succ_adj.(ws.scratch.(s)) <- ws.e_dst.(k);
    ws.scratch.(s) <- ws.scratch.(s) + 1
  done;
  Array.blit ws.pred_off 0 ws.scratch 0 n;
  for k = 0 to m - 1 do
    let d = ws.e_dst.(k) in
    ws.pred_adj.(ws.scratch.(d)) <- ws.e_src.(k);
    ws.scratch.(d) <- ws.scratch.(d) + 1
  done;
  (* Kahn's algorithm with the topo array as the work queue; any valid
     topological order yields the same pass fixpoints (max/min folds). *)
  for i = 0 to n - 1 do
    ws.scratch.(i) <- ws.pred_off.(i + 1) - ws.pred_off.(i)
  done;
  let tail = ref 0 in
  for i = 0 to n - 1 do
    if ws.scratch.(i) = 0 then begin
      ws.topo.(!tail) <- i;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let i = ws.topo.(!head) in
    ws.u_pos.(i) <- !head;
    incr head;
    for k = ws.succ_off.(i) to ws.succ_off.(i + 1) - 1 do
      let j = ws.succ_adj.(k) in
      ws.scratch.(j) <- ws.scratch.(j) - 1;
      if ws.scratch.(j) = 0 then begin
        ws.topo.(!tail) <- j;
        incr tail
      end
    done
  done;
  assert (!tail = n) (* the schedule's time order rules out cycles *);
  {
    ws;
    n;
    rails;
    seg_units = !seg_units;
    seg_sites = !seg_sites;
  }

(* One unit of the forward (earliest start/finish) and the backward
   (latest finish) pass: the fold over the unit's CSR slice, which the
   full passes and the incremental ones share.

   Plain float comparisons stand in for [Float.max]/[Float.min], which
   call out to C for the sign bit: the two agree unless an operand is
   NaN or −0, and neither occurs here.  Durations are finite and
   non-negative (positive task times, non-negative transfer times,
   positive delay factors), starts fold up from +0, and deadlines are
   positive or infinite ([Task.make], [Mode.make] and validation rule
   MM027 reject non-positive ones).  Adding such a duration to a finish,
   or subtracting it from a latest finish, that is neither NaN nor −0
   gives neither NaN nor −0 (an exact zero difference is +0), so by
   induction over the passes no operand ever is. *)
let forward_unit ws u =
  let ready = ref 0.0 in
  for i = ws.pred_off.(u) to ws.pred_off.(u + 1) - 1 do
    let f = ws.u_finish.(ws.pred_adj.(i)) in
    if f > !ready then ready := f
  done;
  ws.u_start.(u) <- !ready;
  ws.u_finish.(u) <- !ready +. ws.u_dur.(u)

let backward_unit ws u =
  let lft = ref infinity in
  for i = ws.succ_off.(u) to ws.succ_off.(u + 1) - 1 do
    let s = ws.succ_adj.(i) in
    let l = ws.u_lft.(s) -. ws.u_dur.(s) in
    if l < !lft then lft := l
  done;
  let deadline = ws.u_deadline.(u) in
  ws.u_lft.(u) <- (if deadline < !lft then deadline else !lft)

let forward_flat d =
  let ws = d.ws in
  for k = 0 to d.n - 1 do
    forward_unit ws ws.topo.(k)
  done

let backward_flat d =
  let ws = d.ws in
  for k = d.n - 1 downto 0 do
    backward_unit ws ws.topo.(k)
  done

(* Incremental passes after unit [u]'s duration changed.  Finishes can
   move only in [u] and its descendants, latest finishes only in its
   ancestors (a unit's own latest finish reads its successors alone).
   Each pass re-evaluates the marked units in (reverse) topological
   order with the full pass's own fold, marking the neighbours of a unit
   only when its value changed, so every unit it leaves alone already
   holds the value a full pass would compute. *)
let mark ws pending v =
  if ws.scratch.(v) = 0 then begin
    ws.scratch.(v) <- 1;
    incr pending
  end

let forward_from d u =
  let ws = d.ws in
  let pending = ref 0 in
  let k = ref ws.u_pos.(u) in
  mark ws pending u;
  while !pending > 0 do
    let v = ws.topo.(!k) in
    if ws.scratch.(v) <> 0 then begin
      ws.scratch.(v) <- 0;
      decr pending;
      let before = ws.u_finish.(v) in
      forward_unit ws v;
      if ws.u_finish.(v) <> before then
        for i = ws.succ_off.(v) to ws.succ_off.(v + 1) - 1 do
          mark ws pending ws.succ_adj.(i)
        done
    end;
    incr k
  done

let backward_from d u =
  let ws = d.ws in
  let pending = ref 0 in
  let k = ref (ws.u_pos.(u) - 1) in
  for i = ws.pred_off.(u) to ws.pred_off.(u + 1) - 1 do
    mark ws pending ws.pred_adj.(i)
  done;
  while !pending > 0 do
    let v = ws.topo.(!k) in
    if ws.scratch.(v) <> 0 then begin
      ws.scratch.(v) <- 0;
      decr pending;
      let before = ws.u_lft.(v) in
      backward_unit ws v;
      if ws.u_lft.(v) <> before then
        for i = ws.pred_off.(v) to ws.pred_off.(v + 1) - 1 do
          mark ws pending ws.pred_adj.(i)
        done
    end;
    decr k
  done

let all_deadlines_met_flat d =
  let ws = d.ws in
  let ok = ref true in
  for u = 0 to d.n - 1 do
    if not (ws.u_finish.(u) <= ws.u_deadline.(u) +. 1e-9) then ok := false
  done;
  !ok

(* Binary max-heap over candidate ratios (ties towards smaller unit ids;
   the secondary order never affects the result — equal ratios always
   land in the same epsilon window). *)
let heap_before ws i j =
  ws.cand_ratio.(i) > ws.cand_ratio.(j)
  || (ws.cand_ratio.(i) = ws.cand_ratio.(j) && i < j)

let heap_push ws size u =
  let i = ref !size in
  ws.heap.(!i) <- u;
  incr size;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if heap_before ws ws.heap.(!i) ws.heap.(parent) then begin
      let tmp = ws.heap.(parent) in
      ws.heap.(parent) <- ws.heap.(!i);
      ws.heap.(!i) <- tmp;
      i := parent
    end
    else continue_ := false
  done

let heap_pop ws size =
  let top = ws.heap.(0) in
  decr size;
  if !size > 0 then begin
    ws.heap.(0) <- ws.heap.(!size);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref !i in
      if l < !size && heap_before ws ws.heap.(l) ws.heap.(!best) then best := l;
      if r < !size && heap_before ws ws.heap.(r) ws.heap.(!best) then best := r;
      if !best = !i then continue_ := false
      else begin
        let tmp = ws.heap.(!best) in
        ws.heap.(!best) <- ws.heap.(!i);
        ws.heap.(!i) <- tmp;
        i := !best
      end
    done
  end;
  top

(* The gradient candidate of a unit at its current level: the seed
   expressions over the table's copies of the [Voltage] factors, cached
   until the unit's level changes. *)
let compute_candidate ws rails u =
  let table = rails.(ws.u_rail.(u)) in
  let k = ws.u_level.(u) in
  let j = table.lower.(k) in
  j >= 0
  && begin
       let added_delay = ws.u_nominal.(u) *. (table.delay.(j) -. table.delay.(k)) in
       let energy_gain =
         ws.u_power.(u) *. ws.u_nominal.(u) *. (table.energy.(k) -. table.energy.(j))
       in
       ws.cand_level.(u) <- j;
       ws.cand_delay.(u) <- added_delay;
       ws.cand_gain.(u) <- energy_gain;
       ws.cand_ratio.(u) <-
         (if added_delay > 0.0 then energy_gain /. added_delay else infinity);
       true
     end

let rec insert_ascending id = function
  | [] -> [ id ]
  | x :: _ as l when id < x -> id :: l
  | x :: tl -> x :: insert_ascending id tl

let greedy_scale_flat d =
  let ws = d.ws in
  let rails = d.rails in
  let size = ref 0 in
  for u = 0 to d.n - 1 do
    if ws.u_rail.(u) >= 0 && compute_candidate ws rails u then heap_push ws size u
  done;
  backward_flat d;
  let continue_ = ref true in
  while !continue_ do
    (* Pop the epsilon window: every candidate not provably below the
       collected minimum under the seed's chained 1e-15 epsilon.
       Ineligible pops are discarded permanently (slack shrinks
       monotonically while a unit's voltage — and hence its candidate —
       is unchanged). *)
    let collected = ref [] in
    let min_ratio = ref nan in
    let stop = ref false in
    while (not !stop) && !size > 0 do
      let top = ws.heap.(0) in
      let r = ws.cand_ratio.(top) in
      if !collected <> [] && r +. 1e-15 < !min_ratio && !min_ratio -. r > 1e-15 then
        stop := true
      else begin
        ignore (heap_pop ws size);
        let slack = ws.u_lft.(top) -. ws.u_finish.(top) in
        if ws.cand_delay.(top) <= slack +. 1e-12 then begin
          collected := insert_ascending top !collected;
          min_ratio := r
        end
      end
    done;
    match !collected with
    | [] -> continue_ := false
    | first :: rest ->
      (* Replay the seed fold over the window in ascending unit
         order — its comparator is not transitive at epsilon scale, so
         the winner depends on the scan order. *)
      let best = ref first in
      List.iter
        (fun id ->
          let best_ratio = ws.cand_ratio.(!best) and best_gain = ws.cand_gain.(!best) in
          let ratio = ws.cand_ratio.(id) and energy_gain = ws.cand_gain.(id) in
          if
            ratio > best_ratio +. 1e-15
            || (Float.abs (ratio -. best_ratio) <= 1e-15 && energy_gain > best_gain)
          then best := id)
        rest;
      let best = !best in
      if ws.cand_gain.(best) > 0.0 then begin
        List.iter (fun id -> if id <> best then heap_push ws size id) !collected;
        let level = ws.cand_level.(best) in
        ws.u_level.(best) <- level;
        ws.u_dur.(best) <- ws.u_nominal.(best) *. rails.(ws.u_rail.(best)).delay.(level);
        if compute_candidate ws rails best then heap_push ws size best;
        forward_from d best;
        backward_from d best
      end
      else continue_ := false
  done

let run ?(config = default_config) ?workspace ?dispatch ~graph ~arch ~tech ~schedule () =
  Mm_obs.Probe.run p_run @@ fun () ->
  let ws = match workspace with Some ws -> ws | None -> create_workspace () in
  let d = build_flat ws ~config ~graph ~arch ~tech ~dispatch ~schedule in
  forward_flat d;
  let feasible = all_deadlines_met_flat d in
  if feasible then greedy_scale_flat d;
  (* A scaled unit's energy: [Voltage.scaled_energy] at its level. *)
  let scaled_energy u =
    ws.u_power.(u) *. ws.u_nominal.(u) *. d.rails.(ws.u_rail.(u)).energy.(ws.u_level.(u))
  in
  let voltage u = d.rails.(ws.u_rail.(u)).levels.(ws.u_level.(u)) in
  let n_tasks = Graph.n_tasks graph in
  let task_voltages = Array.make n_tasks nan in
  let task_energy = Array.make n_tasks 0.0 in
  let stretched_finish = Array.make n_tasks 0.0 in
  for u = 0 to d.n - 1 do
    let task_id = ws.u_task.(u) in
    if task_id >= 0 then begin
      task_energy.(task_id) <-
        (if ws.u_rail.(u) < 0 then ws.u_power.(u) *. ws.u_nominal.(u) else scaled_energy u);
      stretched_finish.(task_id) <- ws.u_finish.(u);
      task_voltages.(task_id) <-
        (if ws.u_rail.(u) >= 0 then voltage u
         else
           let pe = Arch.pe arch (Schedule.pe_of_slot schedule.Schedule.task_slots.(task_id)) in
           match Pe.rail pe with Some r -> Voltage.vmax r | None -> nan)
    end
  done;
  let hw_segments =
    List.rev_map
      (fun (u, pe, seg) ->
        {
          pe;
          segment = seg;
          voltage = voltage u;
          scaled_duration = ws.u_dur.(u);
          energy = scaled_energy u;
        })
      d.seg_units
  in
  List.iter
    (fun (task_id, last_unit) -> stretched_finish.(task_id) <- ws.u_finish.(last_unit))
    d.seg_sites;
  let comm_energy =
    List.fold_left (fun acc (c : Schedule.comm_slot) -> acc +. c.Schedule.energy) 0.0
      schedule.Schedule.comm_slots
  in
  (* Prorate segment energies onto their running tasks. *)
  let power_of = task_power ?dispatch ~graph ~arch ~tech schedule in
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

(* The no-DVS evaluation reads its answer off the schedule.  With no
   unit scaled, [run]'s forward pass over the unit DAG has the list
   schedule itself as its fixpoint: [List_scheduler] starts every slot
   at the [Float.max] of its resource's last finish and its data (or
   link) arrivals — the very predecessor sets the pass maxes over — and
   with positive durations a resource chain sorted by start is the
   placement order.  So every finish is [Schedule.finish], every energy
   is power × duration, and no DAG is built.  The seed oracle's DAG pass
   stays the reference; test_dvs.ml checks the fixpoint claim itself. *)
let nominal ?dispatch ~graph ~arch ~tech ~(schedule : Schedule.t) () =
  Mm_obs.Probe.run p_run @@ fun () ->
  let n_tasks = Graph.n_tasks graph in
  let period = schedule.Schedule.period in
  let task_voltages = Array.make n_tasks nan in
  let task_energy = Array.make n_tasks 0.0 in
  let stretched_finish = Array.make n_tasks 0.0 in
  let feasible = ref true in
  Array.iter
    (fun (slot : Schedule.task_slot) ->
      let task_id = slot.Schedule.task in
      let pe = Arch.pe arch (Schedule.pe_of_slot slot) in
      let finish = Schedule.finish slot in
      task_energy.(task_id) <-
        task_power ?dispatch ~graph ~arch ~tech schedule task_id *. slot.Schedule.duration;
      stretched_finish.(task_id) <- finish;
      task_voltages.(task_id) <-
        (match Pe.rail pe with Some r -> Voltage.vmax r | None -> nan);
      if not (finish <= deadline_of_task graph period task_id +. 1e-9) then
        feasible := false)
    schedule.Schedule.task_slots;
  let comm_energy =
    List.fold_left
      (fun acc (c : Schedule.comm_slot) ->
        if not (Schedule.comm_finish c <= period +. 1e-9) then feasible := false;
        acc +. c.Schedule.energy)
      0.0 schedule.Schedule.comm_slots
  in
  let total_task_energy = Array.fold_left ( +. ) 0.0 task_energy in
  {
    feasible = !feasible;
    task_voltages;
    task_energy;
    hw_segments = [];
    comm_energy;
    total_dyn_energy = total_task_energy +. comm_energy;
    stretched_finish;
  }
