module Mobility = Mm_taskgraph.Mobility
module Arch = Mm_arch.Architecture
module Pe = Mm_arch.Pe

type t = {
  arch : Arch.t;
  (* Loaded cores as flat (pe, type, count) triples, ascending by
     (pe, type), counts >= 1.  ASIC cores are the same in every mode, so
     they are kept once; FPGA cores per mode. *)
  static_cores : int array;
  mode_cores : int array array;
  area_used : float array;
  area_excess : float array;
}

(* The dense (mode, pe, type) -> instances table the allocation works
   on: per-domain scratch, grown on demand and cleared by every call.
   Only the core triples and the area arrays outlive a call. *)
let counts_key = Domain.DLS.new_key (fun () -> ref [||])

let scratch_counts cells =
  let counts = Domain.DLS.get counts_key in
  if Array.length !counts < cells then counts := Array.make cells 0
  else Array.fill !counts 0 cells 0;
  !counts

(* Maximum number of simultaneously executable tasks of a group, from
   their ASAP..(ALAP+exec) windows: sweep the sorted endpoints, a finish
   before a start at equal times. *)
let max_window_overlap mob tasks =
  let starts = Array.map (fun task -> mob.Mobility.asap.(task)) tasks in
  let finishes =
    Array.map (fun task -> mob.Mobility.alap.(task) +. mob.Mobility.exec.(task)) tasks
  in
  Array.sort Float.compare starts;
  Array.sort Float.compare finishes;
  let best = ref 0 and current = ref 0 and j = ref 0 in
  Array.iter
    (fun start ->
      while !j < Array.length finishes && finishes.(!j) <= start do
        decr current;
        incr j
      done;
      incr current;
      if !current > !best then best := !current)
    starts;
  !best

type wish = { avg : float; w_mode : int; w_pe : int; w_ty : int; desired : int }

let compare_wish a b =
  let c = Float.compare a.avg b.avg in
  if c <> 0 then c
  else
    let c = Int.compare a.w_mode b.w_mode in
    if c <> 0 then c
    else
      let c = Int.compare a.w_pe b.w_pe in
      if c <> 0 then c
      else
        let c = Int.compare a.w_ty b.w_ty in
        if c <> 0 then c else Int.compare a.desired b.desired

let allocate spec mapping ~mobilities =
  let arch = Spec.arch spec in
  let ctx = Spec.compiled spec in
  let rows = (mapping : Mapping.t :> int array array) in
  let n_modes = Array.length rows in
  let n_pes = Arch.n_pes arch in
  let n_types = Spec.n_types ctx in
  let stride = n_pes * n_types in
  let hardware = Array.init n_pes (fun pe -> Pe.is_hardware (Arch.pe arch pe)) in
  let asic = Array.init n_pes (fun pe -> Pe.kind (Arch.pe arch pe) = Pe.Asic) in
  let counts = scratch_counts (n_modes * stride) in
  let area pe ty = Spec.core_area ctx ~pe ~ty in
  (* Base allocation: one instance per (mode, hw PE, used type); wishes
     for extra instances collected alongside. *)
  let wishes = ref [] in
  for mode = 0 to n_modes - 1 do
    let row = rows.(mode) and types = Spec.task_types ctx mode in
    let mob = mobilities.(mode) in
    let key task = (row.(task) * n_types) + types.(task) in
    (* The mode's hardware tasks grouped by (pe, type), each group in
       descending task id: the order its mobility sum has always used. *)
    let tasks =
      Array.of_list
        (List.filter (fun task -> hardware.(row.(task))) (List.init (Array.length row) Fun.id))
    in
    Array.sort
      (fun a b ->
        let c = Int.compare (key a) (key b) in
        if c <> 0 then c else Int.compare b a)
      tasks;
    let lo = ref 0 in
    while !lo < Array.length tasks do
      let k = key tasks.(!lo) in
      let hi = ref (!lo + 1) in
      while !hi < Array.length tasks && key tasks.(!hi) = k do
        incr hi
      done;
      counts.((mode * stride) + k) <- 1;
      let size = !hi - !lo in
      if size > 1 then begin
        let group = Array.sub tasks !lo size in
        let desired = max_window_overlap mob group in
        if desired > 1 then begin
          let sum =
            Array.fold_left (fun acc task -> acc +. Mobility.mobility mob task) 0.0 group
          in
          wishes :=
            {
              avg = sum /. float_of_int size;
              w_mode = mode;
              w_pe = k / n_types;
              w_ty = k mod n_types;
              desired;
            }
            :: !wishes
        end
      end;
      lo := !hi
    done
  done;
  (* ASIC cores are static: replicate the union of per-mode working sets
     into every mode (a type mapped to an ASIC anywhere exists always). *)
  for pe = 0 to n_pes - 1 do
    if asic.(pe) then
      for ty = 0 to n_types - 1 do
        let key = (pe * n_types) + ty in
        let union = ref 0 in
        for mode = 0 to n_modes - 1 do
          union := max !union counts.((mode * stride) + key)
        done;
        for mode = 0 to n_modes - 1 do
          counts.((mode * stride) + key) <- !union
        done
      done
  done;
  (* Loaded area of one (mode, PE): ascending type id, absent types
     skipped. *)
  let mode_area mode pe =
    let base = (mode * stride) + (pe * n_types) in
    let acc = ref 0.0 in
    for ty = 0 to n_types - 1 do
      let count = counts.(base + ty) in
      if count > 0 then acc := !acc +. (float_of_int count *. area pe ty)
    done;
    !acc
  in
  let pe_area_used pe =
    if not hardware.(pe) then 0.0
    else begin
      let acc = ref 0.0 in
      for mode = 0 to n_modes - 1 do
        acc := Float.max !acc (mode_area mode pe)
      done;
      !acc
    end
  in
  (* Grant extra instances lowest-mobility wishes first while the area
     constraint holds. *)
  List.iter
    (fun w ->
      let capacity = Pe.area_capacity (Arch.pe arch w.w_pe) in
      let unit_area = area w.w_pe w.w_ty in
      let key = (w.w_pe * n_types) + w.w_ty in
      let fits_after_raise () =
        if unit_area <= 0.0 then true
        else if asic.(w.w_pe) then pe_area_used w.w_pe +. unit_area <= capacity +. 1e-9
        else mode_area w.w_mode w.w_pe +. unit_area <= capacity +. 1e-9
      in
      while counts.((w.w_mode * stride) + key) < w.desired && fits_after_raise () do
        if asic.(w.w_pe) then
          for mode = 0 to n_modes - 1 do
            let cell = (mode * stride) + key in
            counts.(cell) <- counts.(cell) + 1
          done
        else
          let cell = (w.w_mode * stride) + key in
          counts.(cell) <- counts.(cell) + 1
      done)
    (List.sort compare_wish !wishes);
  let area_used = Array.init n_pes pe_area_used in
  let area_excess =
    Array.init n_pes (fun pe ->
        if hardware.(pe) then
          Float.max 0.0 (area_used.(pe) -. Pe.area_capacity (Arch.pe arch pe))
        else 0.0)
  in
  (* The mode's triples over the PEs [keep] selects. *)
  let triples mode keep =
    let base = mode * stride in
    let n = ref 0 in
    for key = 0 to stride - 1 do
      if counts.(base + key) > 0 && keep (key / n_types) then incr n
    done;
    let cores = Array.make (3 * !n) 0 in
    let k = ref 0 in
    for key = 0 to stride - 1 do
      let count = counts.(base + key) in
      if count > 0 && keep (key / n_types) then begin
        cores.(!k) <- key / n_types;
        cores.(!k + 1) <- key mod n_types;
        cores.(!k + 2) <- count;
        k := !k + 3
      end
    done;
    cores
  in
  {
    arch;
    static_cores = triples 0 (fun pe -> asic.(pe));
    mode_cores = Array.init n_modes (fun mode -> triples mode (fun pe -> not asic.(pe)));
    area_used;
    area_excess;
  }

let static_cores t = t.static_cores
let mode_cores t ~mode = t.mode_cores.(mode)

let instances t ~mode ~pe ~ty =
  let s =
    if Pe.kind (Arch.pe t.arch pe) = Pe.Asic then t.static_cores else t.mode_cores.(mode)
  in
  let rec search lo hi =
    if lo >= hi then 0
    else
      let mid = (lo + hi) / 2 in
      let p = s.(3 * mid) and y = s.((3 * mid) + 1) in
      if p = pe && y = ty then s.((3 * mid) + 2)
      else if p < pe || (p = pe && y < ty) then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length s / 3)

let read_set t spec ~mode row =
  let types = Spec.task_types (Spec.compiled spec) mode in
  Array.mapi
    (fun task pe ->
      if Pe.is_hardware (Arch.pe t.arch pe) then max 1 (instances t ~mode ~pe ~ty:types.(task))
      else 0)
    row

let area_used t ~pe = t.area_used.(pe)
let area_excess t ~pe = t.area_excess.(pe)

let excess_ratio_sum t =
  let acc = ref 0.0 in
  Array.iteri
    (fun pe excess ->
      if excess > 0.0 then
        acc := !acc +. (excess /. Pe.area_capacity (Arch.pe t.arch pe)))
    t.area_excess;
  !acc

let area_feasible t = Array.for_all (fun e -> e <= 1e-9) t.area_excess
