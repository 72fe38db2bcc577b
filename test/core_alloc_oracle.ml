(* The seed core allocation (paper §4.1, lines 4–6) and the seed
   transition-time computation on top of it, kept verbatim as the
   differential oracle for [Mm_cosynth.Core_alloc] and
   [Mm_cosynth.Transition_time]: per-(mode, PE) [Int_map] working sets,
   endpoint and wish tuples sorted with polymorphic [compare], every map
   re-folded per candidate extra core, and core areas looked up through
   [Spec.type_of_id] and [Tech_lib.find].  The production kernels must
   reproduce every instance count and every area and time float bit for
   bit (test_core_alloc.ml). *)

module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode
module Transition = Mm_omsm.Transition
module Graph = Mm_taskgraph.Graph
module Task = Mm_taskgraph.Task
module Task_type = Mm_taskgraph.Task_type
module Mobility = Mm_taskgraph.Mobility
module Arch = Mm_arch.Architecture
module Pe = Mm_arch.Pe
module Tech_lib = Mm_arch.Tech_lib
module Spec = Mm_cosynth.Spec
module Mapping = Mm_cosynth.Mapping
module Int_map = Map.Make (Int)

type t = {
  arch : Arch.t;
  (* per mode, per PE: type id -> instance count actually loaded. *)
  loaded : int Int_map.t array array;
  area_used : float array;
  area_excess : float array;
  cut_wishes : int;
      (** Wishes the area constraint stopped short of their desired
          count — test instrumentation, not part of the seed. *)
}

let type_area spec ~pe ~ty_id =
  match Spec.type_of_id spec ty_id with
  | None -> 0.0
  | Some ty -> (
    match Tech_lib.find (Spec.tech spec) ~ty ~pe:(Arch.pe (Spec.arch spec) pe) with
    | Some impl -> impl.Tech_lib.area
    | None -> 0.0)

let max_window_overlap mobility tasks =
  let events =
    List.concat_map
      (fun task ->
        let start = mobility.Mobility.asap.(task) in
        let finish = mobility.Mobility.alap.(task) +. mobility.Mobility.exec.(task) in
        [ (start, 1); (finish, -1) ])
      tasks
  in
  let sorted = List.sort compare events in
  let best = ref 0 and current = ref 0 in
  List.iter
    (fun (_, delta) ->
      current := !current + delta;
      best := max !best !current)
    sorted;
  !best

let allocate spec mapping ~mobilities =
  let omsm = Spec.omsm spec in
  let arch = Spec.arch spec in
  let n_modes = Omsm.n_modes omsm in
  let n_pes = Arch.n_pes arch in
  let loaded = Array.init n_modes (fun _ -> Array.make n_pes Int_map.empty) in
  let wishes = ref [] in
  for mode = 0 to n_modes - 1 do
    let graph = Mode.graph (Omsm.mode omsm mode) in
    for pe = 0 to n_pes - 1 do
      if Pe.is_hardware (Arch.pe arch pe) then begin
        let tasks = Mapping.tasks_on_pe mapping ~mode ~pe in
        let by_type =
          List.fold_left
            (fun acc task ->
              let ty_id = Task_type.id (Task.ty (Graph.task graph task)) in
              let existing = Option.value ~default:[] (Int_map.find_opt ty_id acc) in
              Int_map.add ty_id (task :: existing) acc)
            Int_map.empty tasks
        in
        Int_map.iter
          (fun ty_id ty_tasks ->
            loaded.(mode).(pe) <- Int_map.add ty_id 1 loaded.(mode).(pe);
            let desired = max_window_overlap mobilities.(mode) ty_tasks in
            if desired > 1 then begin
              let avg_mobility =
                List.fold_left
                  (fun acc task -> acc +. Mobility.mobility mobilities.(mode) task)
                  0.0 ty_tasks
                /. float_of_int (List.length ty_tasks)
              in
              wishes := (avg_mobility, mode, pe, ty_id, desired) :: !wishes
            end)
          by_type
      end
    done
  done;
  for pe = 0 to n_pes - 1 do
    let pe_rec = Arch.pe arch pe in
    if Pe.kind pe_rec = Pe.Asic then begin
      let union =
        Array.fold_left
          (fun acc per_pe ->
            Int_map.union (fun _ a b -> Some (max a b)) acc per_pe.(pe))
          Int_map.empty loaded
      in
      Array.iter (fun per_pe -> per_pe.(pe) <- union) loaded
    end
  done;
  let area_of_map pe m =
    Int_map.fold
      (fun ty_id count acc -> acc +. (float_of_int count *. type_area spec ~pe ~ty_id))
      m 0.0
  in
  let pe_area_used pe =
    let pe_rec = Arch.pe arch pe in
    if not (Pe.is_hardware pe_rec) then 0.0
    else
      Array.fold_left
        (fun acc per_pe -> Float.max acc (area_of_map pe per_pe.(pe)))
        0.0 loaded
  in
  let sorted_wishes = List.sort compare !wishes in
  let cut_wishes = ref 0 in
  List.iter
    (fun (_, mode, pe, ty_id, desired) ->
      let pe_rec = Arch.pe arch pe in
      let capacity = Pe.area_capacity pe_rec in
      let unit_area = type_area spec ~pe ~ty_id in
      let raise_count per_pe =
        per_pe.(pe) <-
          Int_map.update ty_id
            (function Some c -> Some (c + 1) | None -> Some 1)
            per_pe.(pe)
      in
      let current () = Option.value ~default:0 (Int_map.find_opt ty_id loaded.(mode).(pe)) in
      let fits_after_raise () =
        if unit_area <= 0.0 then true
        else if Pe.kind pe_rec = Pe.Asic then pe_area_used pe +. unit_area <= capacity +. 1e-9
        else area_of_map pe loaded.(mode).(pe) +. unit_area <= capacity +. 1e-9
      in
      let rec grow () =
        if current () < desired && fits_after_raise () then begin
          if Pe.kind pe_rec = Pe.Asic then Array.iter raise_count loaded
          else raise_count loaded.(mode);
          grow ()
        end
      in
      grow ();
      if current () < desired then incr cut_wishes)
    sorted_wishes;
  let area_used = Array.init n_pes pe_area_used in
  let area_excess =
    Array.init n_pes (fun pe ->
        let pe_rec = Arch.pe arch pe in
        if Pe.is_hardware pe_rec then
          Float.max 0.0 (area_used.(pe) -. Pe.area_capacity pe_rec)
        else 0.0)
  in
  { arch; loaded; area_used; area_excess; cut_wishes = !cut_wishes }

let instances t ~mode ~pe ~ty =
  Option.value ~default:0 (Int_map.find_opt ty t.loaded.(mode).(pe))

let area_used t ~pe = t.area_used.(pe)
let area_excess t ~pe = t.area_excess.(pe)
let loaded_types t ~mode ~pe = Int_map.bindings t.loaded.(mode).(pe)

let reconfig_time spec alloc ~src ~dst =
  let arch = Spec.arch spec in
  List.fold_left
    (fun acc pe_rec ->
      if not (Pe.is_reconfigurable pe_rec) then acc
      else
        let pe = Pe.id pe_rec in
        let src_loaded = loaded_types alloc ~mode:src ~pe in
        let dst_loaded = loaded_types alloc ~mode:dst ~pe in
        let count_in l ty = Option.value ~default:0 (List.assoc_opt ty l) in
        let area_to_load =
          List.fold_left
            (fun acc (ty, dst_count) ->
              let missing = max 0 (dst_count - count_in src_loaded ty) in
              acc +. (float_of_int missing *. type_area spec ~pe ~ty_id:ty))
            0.0 dst_loaded
        in
        acc +. (area_to_load *. Pe.reconfig_time_per_area pe_rec))
    0.0 (Arch.pes arch)

(* (time, violation) per OMSM transition, in [Omsm.transitions] order. *)
let transition_times spec alloc =
  List.map
    (fun transition ->
      let time =
        reconfig_time spec alloc ~src:(Transition.src transition)
          ~dst:(Transition.dst transition)
      in
      (time, Float.max 0.0 ((time /. Transition.max_time transition) -. 1.0)))
    (Omsm.transitions (Spec.omsm spec))
