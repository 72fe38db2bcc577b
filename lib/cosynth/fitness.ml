module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode
module Graph = Mm_taskgraph.Graph
module Task = Mm_taskgraph.Task
module Task_type = Mm_taskgraph.Task_type
module Mobility = Mm_taskgraph.Mobility
module Arch = Mm_arch.Architecture
module Pe = Mm_arch.Pe
module Tech_lib = Mm_arch.Tech_lib
module Schedule = Mm_sched.Schedule
module List_scheduler = Mm_sched.List_scheduler
module Comm_mapping = Mm_sched.Comm_mapping
module Scaling = Mm_dvs.Scaling
module Power = Mm_energy.Power
module Memo = Mm_parallel.Memo
module Metrics = Mm_obs.Metrics

(* Per-phase probes of the fitness pipeline (paper Fig. 4's inner loop):
   with metrics on, each phase feeds a latency histogram; with fine
   tracing on, each phase is a span nested under "fitness/eval".  All
   fine-grained — thousands of evaluations per GA run would swamp a
   coarse trace. *)
let p_eval = Mm_obs.Probe.create ~fine:true "fitness/eval"
let p_mobility = Mm_obs.Probe.create ~fine:true "fitness/mobility"
let p_alloc = Mm_obs.Probe.create ~fine:true "fitness/core_alloc"
let p_schedule = Mm_obs.Probe.create ~fine:true "fitness/schedule"
let p_dvs = Mm_obs.Probe.create ~fine:true "fitness/dvs"
let p_power = Mm_obs.Probe.create ~fine:true "fitness/power"

(* Per-mode cache traffic (DESIGN.md §10): offspring that mutate only
   some modes answer the untouched modes from the compiled context's
   caches.  Counters rather than Memo-internal stats so `synth
   --metrics` and the report can show them without holding the cache. *)
let c_mode_hit = Metrics.counter "fitness/mode_cache_hits"
let c_mode_miss = Metrics.counter "fitness/mode_cache_misses"
let c_mob_hit = Metrics.counter "fitness/mobility_cache_hits"
let c_mob_miss = Metrics.counter "fitness/mobility_cache_misses"

(* Delta evaluation traffic (DESIGN.md §13): how often the incremental
   path ran, how often it had to fall back to the full compiled path,
   and how many per-mode triples it lifted straight from the parent. *)
let c_delta_evals = Metrics.counter "fitness/delta_evals"
let c_delta_fallbacks = Metrics.counter "fitness/delta_fallbacks"
let c_delta_mode_reuse = Metrics.counter "fitness/delta_mode_reuse"
let g_route_pairs = Metrics.gauge "sched/route_table_pairs"
let g_route_entries = Metrics.gauge "sched/route_table_entries"

type weighting = True_probabilities | Uniform

type dvs = No_dvs | Dvs of Scaling.config

type penalties = {
  timing : float;
  area : float;
  transition : float;
  unroutable : float;
}

let default_penalties = { timing = 20.0; area = 20.0; transition = 20.0; unroutable = 100.0 }

type robust_objective = Expected_lifetime | Percentile of float

type robust = {
  psis : float array array;
  battery : Mm_energy.Battery.t;
  objective : robust_objective;
}

type config = {
  weighting : weighting;
  dvs : dvs;
  penalties : penalties;
  scheduler_policy : List_scheduler.policy;
  robust : robust option;
}

let default_config =
  {
    weighting = True_probabilities;
    dvs = No_dvs;
    penalties = default_penalties;
    scheduler_policy = List_scheduler.Mobility_first;
    robust = None;
  }

(* The scalar a robust run minimises: a power figure summarising the
   battery-life distribution over the Ψ samples, so it composes with the
   multiplicative penalty factors exactly like [eval_power] does.
   Percentile objectives need no lifetime inversion at all — lifetime is
   strictly decreasing in power, so the q-th worst lifetime is the
   (1−q)-th highest power; sorting powers descending keeps the selection
   exact even for samples whose power would be non-positive. *)
let robust_power r mode_powers =
  let n = Array.length r.psis in
  if n = 0 then invalid_arg "Fitness: robust Ψ sample set is empty";
  let powers = Array.map (fun psi -> Power.average ~probabilities:psi mode_powers) r.psis in
  match r.objective with
  | Percentile q ->
    if not (q > 0.0 && q <= 1.0) then
      invalid_arg "Fitness: robust percentile must be in (0, 1]";
    Array.sort (fun a b -> compare b a) powers;
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    powers.(max 0 (min (n - 1) rank))
  | Expected_lifetime ->
    let battery = r.battery in
    let total_hours =
      Array.fold_left
        (fun acc p ->
          acc
          +.
          if p > 0.0 then Mm_energy.Battery.lifetime_hours battery ~average_power:p
          else Float.infinity)
        0.0 powers
    in
    let mean_hours = total_hours /. float_of_int n in
    if Float.is_finite mean_hours && mean_hours > 0.0 then
      Mm_energy.Battery.power_for_lifetime battery ~hours:mean_hours
    else 0.0

type eval = {
  fitness : float;
  eval_power : float;
  true_power : float;
  timing_factor : float;
  area_factor : float;
  transition_factor : float;
  routability_factor : float;
  timing_feasible : bool;
  area_feasible : bool;
  transition_feasible : bool;
  routable : bool;
  mode_powers : Power.mode_power array;
  schedules : Schedule.t array;
  scalings : Scaling.t array;
  alloc : Core_alloc.t;
  transition_times : Transition_time.entry list;
  mapping : Mapping.t;
  mobilities : Mobility.t array;
      (** Per-mode mobility analyses; carried so {!evaluate_delta} can
          reuse them for modes a mutation did not touch. *)
}

let feasible e = e.timing_feasible && e.area_feasible && e.transition_feasible && e.routable

(* Per-mode mobility analysis under the mapping row against the compiled
   context: dense dispatch for execution times, the route table for
   communication times, each edge routed once.  Bit-identical to the
   seed's per-edge analysis (the test oracle's [mode_mobility]). *)
let compiled_mode_mobility spec ~routes ~dispatch row mode =
  let mode_rec = Omsm.mode (Spec.omsm spec) mode in
  let graph = Mode.graph mode_rec in
  let exec =
    Array.init (Graph.n_tasks graph) (fun i ->
        let task = Graph.task graph i in
        match
          Tech_lib.dispatch_find dispatch
            ~ty_id:(Task_type.id (Task.ty task))
            ~pe_id:row.(i)
        with
        | Some impl -> impl.Tech_lib.exec_time
        | None -> raise Not_found)
  in
  let decisions =
    Array.init (Graph.n_edges graph) (fun id ->
        let e = Graph.edge graph id in
        Comm_mapping.route_via routes ~src_pe:row.(e.src) ~dst_pe:row.(e.dst)
          ~data:e.data)
  in
  let comm_time id =
    match decisions.(id) with
    | Comm_mapping.Local | Comm_mapping.Unroutable -> 0.0
    | Comm_mapping.Via { time; _ } -> time
  in
  Mobility.compute_indexed graph ~exec ~comm_time ~horizon:(Mode.period mode_rec)

(* Cache-key ingredients.  The per-mode caches answer (schedule,
   scaling, power) triples, which depend on the mode's mapping row, the
   core instances its hardware tasks see, the scheduler policy and the
   DVS configuration — but not on weighting or penalties (those only
   shape the factors computed from the triples). *)
let config_fingerprint config =
  let policy =
    match config.scheduler_policy with
    | List_scheduler.Mobility_first -> 0
    | List_scheduler.Critical_path_first -> 1
    | List_scheduler.Topological -> 2
  in
  match config.dvs with
  | No_dvs -> [| policy; 0; 0; 0 |]
  | Dvs c ->
    [|
      policy;
      1;
      Bool.to_int c.Scaling.scale_software;
      Bool.to_int c.Scaling.scale_hardware;
    |]

let mobility_key ~mode row = Array.append [| mode |] row

(* (mode, config fingerprint, row, read set).  The read set
   ([Core_alloc.read_set]) is the part of the global allocation the
   triple depends on: the instance count each hardware task of the mode
   is scheduled against.  Cores only other modes use stay out of the
   key, so a mutation that grows an ASIC elsewhere leaves it alone. *)
let eval_key ~fingerprint ~read_set ~mode row =
  Array.concat [ [| mode |]; fingerprint; row; read_set ]

(* Everything downstream of the per-mode triples: timing violations,
   powers averaged under the mode probabilities, penalty factors and the
   final fitness.  Shared verbatim by the per-mode pass below and the
   seed oracle of the test suite, so the two can only differ in how the
   triples are produced. *)
let assemble config spec mapping ~alloc ~mobilities ~schedules ~scalings ~mode_powers =
  let omsm = Spec.omsm spec in
  let n_modes = Omsm.n_modes omsm in
  (* Timing: post-compaction / post-scaling finish times against
     min(deadline, period), normalised by the period. *)
  let timing_violation = ref 0.0 in
  for mode = 0 to n_modes - 1 do
    let mode_rec = Omsm.mode omsm mode in
    let graph = Mode.graph mode_rec in
    let period = Mode.period mode_rec in
    Array.iteri
      (fun task finish ->
        let bound =
          match Task.deadline (Graph.task graph task) with
          | None -> period
          | Some d -> Float.min d period
        in
        let excess = finish -. bound in
        if excess > 1e-9 then timing_violation := !timing_violation +. (excess /. period))
      scalings.(mode).Scaling.stretched_finish
  done;
  let true_probabilities =
    Array.init n_modes (fun mode -> Mode.probability (Omsm.mode omsm mode))
  in
  let eval_probabilities =
    match config.weighting with
    | True_probabilities -> true_probabilities
    | Uniform -> Array.make n_modes (1.0 /. float_of_int n_modes)
  in
  let true_power = Power.average ~probabilities:true_probabilities mode_powers in
  let eval_power = Power.average ~probabilities:eval_probabilities mode_powers in
  let transition_times = Transition_time.compute spec alloc in
  let unroutable_count =
    Array.fold_left
      (fun acc s -> acc + List.length s.Schedule.unroutable)
      0 schedules
  in
  let timing_factor = 1.0 +. (config.penalties.timing *. !timing_violation) in
  let area_factor = 1.0 +. (config.penalties.area *. Core_alloc.excess_ratio_sum alloc) in
  let transition_factor =
    1.0 +. (config.penalties.transition *. Transition_time.violation_sum transition_times)
  in
  let routability_factor =
    1.0 +. (config.penalties.unroutable *. float_of_int unroutable_count)
  in
  let timing_feasible = !timing_violation <= 1e-12 in
  let area_feasible = Core_alloc.area_feasible alloc in
  let transition_feasible = Transition_time.feasible transition_times in
  let routable = unroutable_count = 0 in
  (* Robust mode swaps the point-Ψ power for a distribution summary; the
     penalty factors are unchanged, and [robust = None] leaves the
     product bit-identical to the seed formula. *)
  let objective_power =
    match config.robust with
    | None -> eval_power
    | Some r -> robust_power r mode_powers
  in
  let raw_fitness =
    objective_power *. timing_factor *. area_factor *. transition_factor
    *. routability_factor
  in
  (* Infeasible candidates must never outrank feasible ones, however small
     their power (hardware energies can undercut software ones by three
     orders of magnitude, which multiplicative penalties alone cannot
     bridge); the factors still grade infeasible candidates against each
     other so the GA can climb back into the feasible region. *)
  let fitness =
    if timing_feasible && area_feasible && transition_feasible && routable then
      raw_fitness
    else raw_fitness *. 1e6
  in
  {
    fitness;
    eval_power;
    true_power;
    timing_factor;
    area_factor;
    transition_factor;
    routability_factor;
    timing_feasible;
    area_feasible;
    transition_feasible;
    routable;
    mode_powers;
    schedules;
    scalings;
    alloc;
    transition_times;
    mapping;
    mobilities;
  }

let scaling_of config ?workspace ?dispatch ~graph ~arch ~tech ~schedule () =
  match config.dvs with
  | No_dvs -> Scaling.nominal ?dispatch ~graph ~arch ~tech ~schedule ()
  | Dvs scaling_config ->
    Scaling.run ~config:scaling_config ?workspace ?dispatch ~graph ~arch ~tech
      ~schedule ()

let int_arrays_equal x y =
  let n = Array.length x in
  n = Array.length y
  &&
  let rec eq i = i >= n || (x.(i) = y.(i) && eq (i + 1)) in
  eq 0

let count_dirty = Array.fold_left (fun n d -> if d then n + 1 else n) 0

(* The one evaluation pass (DESIGN.md §13), mode by mode in the paper's
   order: mobility, core allocation, list schedule, DVS, power.
   [dirty.(mode)] says whether the mode must be computed; a clean mode
   shares its mapping row with [parent] and takes the parent's mobility
   analysis and (schedule, scaling, power) triple.  Without a parent
   every mode is computed.  Computed modes go through the per-mode
   caches.  Core allocation is global, so it always runs, and a clean
   mode whose read set ([Core_alloc.read_set], the dependency [eval_key]
   encodes) moved is promoted to dirty; when that leaves more than half
   the modes dirty, every mode is marked dirty — the per-mode caches
   make the full pass nearly as cheap, and a narrow dirty set is where
   the savings are. *)
let pass config spec ?parent ~dirty mapping =
  Mm_obs.Probe.run p_eval @@ fun () ->
  let omsm = Spec.omsm spec in
  let arch = Spec.arch spec in
  let tech = Spec.tech spec in
  let n_modes = Omsm.n_modes omsm in
  let ctx = Spec.compiled spec in
  let routes = Spec.routes ctx in
  let dispatch = Spec.dispatch ctx in
  Metrics.set g_route_pairs (float_of_int (Comm_mapping.table_pairs routes));
  Metrics.set g_route_entries (float_of_int (Comm_mapping.table_entries routes));
  let rows = (mapping : Mapping.t :> int array array) in
  let mobility_cache = Spec.mode_mobility_cache ctx in
  let eval_cache = Spec.mode_eval_cache ctx in
  let from_parent mode = if dirty.(mode) then None else parent in
  let mobilities =
    Mm_obs.Probe.run p_mobility (fun () ->
        Array.init n_modes (fun mode ->
            match from_parent mode with
            | Some p -> p.mobilities.(mode)
            | None -> (
              let key = mobility_key ~mode rows.(mode) in
              match Memo.find mobility_cache key with
              | Some m ->
                Metrics.incr c_mob_hit;
                m
              | None ->
                Metrics.incr c_mob_miss;
                let m = compiled_mode_mobility spec ~routes ~dispatch rows.(mode) mode in
                Memo.add mobility_cache key m;
                m)))
  in
  let alloc =
    Mm_obs.Probe.run p_alloc (fun () -> Core_alloc.allocate spec mapping ~mobilities)
  in
  let read_sets =
    Array.init n_modes (fun mode -> Core_alloc.read_set alloc spec ~mode rows.(mode))
  in
  (match parent with
  | None -> ()
  | Some p ->
    for mode = 0 to n_modes - 1 do
      if
        (not dirty.(mode))
        && not
             (int_arrays_equal read_sets.(mode)
                (Core_alloc.read_set p.alloc spec ~mode rows.(mode)))
      then dirty.(mode) <- true
    done;
    if 2 * count_dirty dirty > n_modes then begin
      Metrics.incr c_delta_fallbacks;
      Array.fill dirty 0 n_modes true
    end);
  let fingerprint = config_fingerprint config in
  let key mode = eval_key ~fingerprint ~read_set:read_sets.(mode) ~mode rows.(mode) in
  (* Triples already at hand: the parent's for clean modes, cache hits
     for dirty ones. *)
  let known =
    Array.init n_modes (fun mode ->
        match from_parent mode with
        | Some p ->
          Metrics.incr c_delta_mode_reuse;
          Some (p.schedules.(mode), p.scalings.(mode), p.mode_powers.(mode))
        | None ->
          let found = Memo.find eval_cache (key mode) in
          Metrics.incr (if Option.is_some found then c_mode_hit else c_mode_miss);
          found)
  in
  let schedules =
    Mm_obs.Probe.run p_schedule (fun () ->
        Array.init n_modes (fun mode ->
            match known.(mode) with
            | Some (schedule, _, _) -> schedule
            | None ->
              let mode_rec = Omsm.mode omsm mode in
              List_scheduler.run ~policy:config.scheduler_policy
                (List_scheduler.make_input ~mobility:mobilities.(mode) ~routes
                   ~dispatch ~mode_id:mode ~graph:(Mode.graph mode_rec) ~arch ~tech
                   ~mapping:rows.(mode)
                   ~instances:(fun ~pe ~ty ->
                     max 1 (Core_alloc.instances alloc ~mode ~pe ~ty))
                   ~period:(Mode.period mode_rec) ())))
  in
  let scalings =
    Mm_obs.Probe.run p_dvs (fun () ->
        let workspace = Scaling.domain_workspace () in
        Array.init n_modes (fun mode ->
            match known.(mode) with
            | Some (_, scaling, _) -> scaling
            | None ->
              let graph = Mode.graph (Omsm.mode omsm mode) in
              scaling_of config ~workspace ~dispatch ~graph ~arch ~tech
                ~schedule:schedules.(mode) ()))
  in
  let mode_powers =
    Mm_obs.Probe.run p_power (fun () ->
        Array.init n_modes (fun mode ->
            match known.(mode) with
            | Some (_, _, power) -> power
            | None ->
              Power.mode_power ~arch ~schedule:schedules.(mode)
                ~dyn_energy:scalings.(mode).Scaling.total_dyn_energy))
  in
  Array.iteri
    (fun mode triple ->
      if Option.is_none triple then
        Memo.add eval_cache (key mode)
          (schedules.(mode), scalings.(mode), mode_powers.(mode)))
    known;
  assemble config spec mapping ~alloc ~mobilities ~schedules ~scalings ~mode_powers

let evaluate_mapping config spec mapping =
  pass config spec ~dirty:(Array.make (Omsm.n_modes (Spec.omsm spec)) true) mapping

let evaluate config spec genome =
  evaluate_mapping config spec (Mapping.of_genome spec genome)

(* [dirty] lists genome positions; the pass works on the modes they
   fall in.  The parent stands for an unchanged genome, and a dirty set
   spanning more than half the modes skips the parent from the start. *)
let evaluate_delta config spec ~parent ~dirty genome =
  let mapping = Mapping.of_genome spec genome in
  let n_modes = Omsm.n_modes (Spec.omsm spec) in
  let dirty_modes = Array.make n_modes false in
  List.iter (fun gene -> dirty_modes.((Spec.position spec gene).Spec.mode) <- true) dirty;
  let n_dirty = count_dirty dirty_modes in
  if n_dirty = 0 then parent
  else if 2 * n_dirty > n_modes then begin
    Metrics.incr c_delta_fallbacks;
    evaluate_mapping config spec mapping
  end
  else begin
    Metrics.incr c_delta_evals;
    pass config spec ~parent ~dirty:dirty_modes mapping
  end
