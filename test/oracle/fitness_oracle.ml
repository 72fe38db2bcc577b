(* The seed fitness pipeline, kept as the equivalence oracle for
   [Mm_cosynth.Fitness]: per-edge routing, balanced-tree technology
   lookups, the seed scheduler and DVS, no caches.  Everything downstream
   of the per-mode triples is [Fitness.assemble] itself, so the two can
   only differ in how the triples are produced.  Same probe names as
   production, so the [bench eval] harness can attribute per-phase time
   to either implementation. *)

module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode
module Graph = Mm_taskgraph.Graph
module Task = Mm_taskgraph.Task
module Mobility = Mm_taskgraph.Mobility
module Arch = Mm_arch.Architecture
module Tech_lib = Mm_arch.Tech_lib
module Comm_mapping = Mm_sched.Comm_mapping
module List_scheduler = Mm_sched.List_scheduler
module Power = Mm_energy.Power
module Spec = Mm_cosynth.Spec
module Mapping = Mm_cosynth.Mapping
module Core_alloc = Mm_cosynth.Core_alloc
module Scaling = Mm_dvs.Scaling
open Mm_cosynth.Fitness

let p_eval = Mm_obs.Probe.create ~fine:true "fitness/eval"
let p_mobility = Mm_obs.Probe.create ~fine:true "fitness/mobility"
let p_alloc = Mm_obs.Probe.create ~fine:true "fitness/core_alloc"
let p_schedule = Mm_obs.Probe.create ~fine:true "fitness/schedule"
let p_dvs = Mm_obs.Probe.create ~fine:true "fitness/dvs"
let p_power = Mm_obs.Probe.create ~fine:true "fitness/power"

let mode_mobility spec mapping mode =
  let omsm = Spec.omsm spec in
  let arch = Spec.arch spec in
  let tech = Spec.tech spec in
  let mode_rec = Omsm.mode omsm mode in
  let graph = Mode.graph mode_rec in
  let per_task = (mapping : Mapping.t :> int array array).(mode) in
  let exec_time task =
    let pe = Arch.pe arch per_task.(Task.id task) in
    (Tech_lib.find_exn tech ~ty:(Task.ty task) ~pe).Tech_lib.exec_time
  in
  let comm_time (e : Graph.edge) =
    match
      Comm_mapping.route arch ~src_pe:per_task.(e.src) ~dst_pe:per_task.(e.dst)
        ~data:e.data
    with
    | Comm_mapping.Local | Comm_mapping.Unroutable -> 0.0
    | Comm_mapping.Via { time; _ } -> time
  in
  Mobility.compute graph ~exec_time ~comm_time ~horizon:(Mode.period mode_rec)

let scaling_of ?strategy config ~graph ~arch ~tech ~schedule =
  match config.dvs with
  | No_dvs -> Scaling_oracle.nominal ~graph ~arch ~tech ~schedule ()
  | Dvs scaling_config ->
    Scaling_oracle.run ?strategy ~config:scaling_config ~graph ~arch ~tech ~schedule ()

(* [strategy] (default the greedy gradient) picks the oracle's DVS
   slack strategy when [config.dvs] is on. *)
let evaluate_mapping ?strategy config spec mapping =
  Mm_obs.Probe.run p_eval @@ fun () ->
  let omsm = Spec.omsm spec in
  let arch = Spec.arch spec in
  let tech = Spec.tech spec in
  let n_modes = Omsm.n_modes omsm in
  let mobilities =
    Mm_obs.Probe.run p_mobility (fun () ->
        Array.init n_modes (mode_mobility spec mapping))
  in
  let alloc =
    Mm_obs.Probe.run p_alloc (fun () -> Core_alloc.allocate spec mapping ~mobilities)
  in
  let schedules =
    Mm_obs.Probe.run p_schedule (fun () ->
        Array.init n_modes (fun mode ->
            let mode_rec = Omsm.mode omsm mode in
            List_scheduler_oracle.run ~policy:config.scheduler_policy
              (List_scheduler.make_input ~mode_id:mode ~graph:(Mode.graph mode_rec)
                 ~arch ~tech
                 ~mapping:(mapping : Mapping.t :> int array array).(mode)
                 ~instances:(fun ~pe ~ty ->
                   max 1 (Core_alloc.instances alloc ~mode ~pe ~ty))
                 ~period:(Mode.period mode_rec) ())))
  in
  let scalings =
    Mm_obs.Probe.run p_dvs (fun () ->
        Array.init n_modes (fun mode ->
            let graph = Mode.graph (Omsm.mode omsm mode) in
            scaling_of ?strategy config ~graph ~arch ~tech ~schedule:schedules.(mode)))
  in
  let mode_powers =
    Mm_obs.Probe.run p_power (fun () ->
        Array.init n_modes (fun mode ->
            Power.mode_power ~arch ~schedule:schedules.(mode)
              ~dyn_energy:scalings.(mode).Scaling.total_dyn_energy))
  in
  assemble config spec mapping ~alloc ~mobilities ~schedules ~scalings ~mode_powers

let evaluate ?strategy config spec genome =
  evaluate_mapping ?strategy config spec (Mapping.of_genome spec genome)
