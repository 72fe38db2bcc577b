module Omsm = Mm_omsm.Omsm
module Transition = Mm_omsm.Transition
module Arch = Mm_arch.Architecture
module Pe = Mm_arch.Pe

type entry = {
  transition : Transition.t;
  time : float;
  violation : float;
}

(* Walks the destination mode's FPGA cores once, PE by PE in ascending
   id; each FPGA sums the area of the cores it must load in ascending
   type id, already-loaded types contributing their zero terms. *)
let reconfig_time spec alloc ~src ~dst =
  let arch = Spec.arch spec in
  let ctx = Spec.compiled spec in
  let loaded = Core_alloc.mode_cores alloc ~mode:dst in
  let n = Array.length loaded in
  let k = ref 0 in
  let time = ref 0.0 in
  for pe = 0 to Arch.n_pes arch - 1 do
    let area_to_load = ref 0.0 in
    while !k < n && loaded.(!k) = pe do
      let ty = loaded.(!k + 1) and dst_count = loaded.(!k + 2) in
      let missing = max 0 (dst_count - Core_alloc.instances alloc ~mode:src ~pe ~ty) in
      area_to_load := !area_to_load +. (float_of_int missing *. Spec.core_area ctx ~pe ~ty);
      k := !k + 3
    done;
    let pe_rec = Arch.pe arch pe in
    if Pe.is_reconfigurable pe_rec then
      time := !time +. (!area_to_load *. Pe.reconfig_time_per_area pe_rec)
  done;
  !time

let compute spec alloc =
  List.map
    (fun transition ->
      let time =
        reconfig_time spec alloc ~src:(Transition.src transition)
          ~dst:(Transition.dst transition)
      in
      let violation = Float.max 0.0 ((time /. Transition.max_time transition) -. 1.0) in
      { transition; time; violation })
    (Omsm.transitions (Spec.omsm spec))

let violation_sum entries =
  List.fold_left (fun acc e -> acc +. e.violation) 0.0 entries

let feasible entries = List.for_all (fun e -> e.violation <= 0.0) entries
