type observation = { src : int; dst : int; count : float }

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let embedded_chain ~n_modes observations =
  if n_modes <= 0 then invalid "Usage_profile: no modes";
  let totals = Array.make n_modes 0.0 in
  List.iter
    (fun { src; dst; count } ->
      if src < 0 || src >= n_modes || dst < 0 || dst >= n_modes then
        invalid "Usage_profile: observation %d->%d out of range" src dst;
      if count <= 0.0 then invalid "Usage_profile: non-positive count on %d->%d" src dst;
      totals.(src) <- totals.(src) +. count)
    observations;
  let matrix = Array.make_matrix n_modes n_modes 0.0 in
  List.iter
    (fun { src; dst; count } -> matrix.(src).(dst) <- matrix.(src).(dst) +. (count /. totals.(src)))
    observations;
  (* Absorbing rows (no observed departure) self-loop to stay
     stochastic. *)
  Array.iteri (fun i total -> if total = 0.0 then matrix.(i).(i) <- 1.0) totals;
  matrix

let check_stochastic matrix =
  let n = Array.length matrix in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Usage_profile.stationary: non-square";
      let total = Array.fold_left ( +. ) 0.0 row in
      if Float.abs (total -. 1.0) > 1e-6 then
        invalid_arg "Usage_profile.stationary: rows must sum to 1";
      Array.iter
        (fun p ->
          if p < -.1e-12 then invalid_arg "Usage_profile.stationary: negative entry")
        row)
    matrix

(* [reach.(i).(j)]: j can be reached from i in zero or more steps
   (Warshall's transitive closure over the positive entries). *)
let reachability matrix =
  let reach = Array.mapi (fun i row -> Array.mapi (fun j p -> i = j || p > 0.0) row) matrix in
  Array.iteri
    (fun k via ->
      Array.iter
        (fun from -> if from.(k) then Array.iteri (fun j r -> if r then from.(j) <- true) via)
        reach)
    reach;
  reach

(* Gauss–Jordan inverse with partial pivoting of a non-singular matrix. *)
let invert m =
  let n = Array.length m in
  let a =
    Array.init n (fun i ->
        Array.init (2 * n) (fun j -> if j < n then m.(i).(j) else if j - n = i then 1.0 else 0.0))
  in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
    done;
    let row = Array.map (fun x -> x /. a.(!pivot).(col)) a.(!pivot) in
    a.(!pivot) <- a.(col);
    a.(col) <- row;
    for r = 0 to n - 1 do
      let factor = a.(r).(col) in
      if r <> col && factor <> 0.0 then
        Array.iteri (fun c x -> a.(r).(c) <- a.(r).(c) -. (factor *. x)) a.(col)
    done
  done;
  Array.map (fun row -> Array.sub row n n) a

(* π is unique iff the chain has one closed class: the modes every mode
   can reach.  Then M = I − P + 1uᵀ is non-singular for any u with
   Σu = 1, and πM = π − π + uᵀ = uᵀ, so π = uᵀM⁻¹; here u is uniform.
   Modes outside the closed class are transient and get exactly 0. *)
let fundamental matrix =
  check_stochastic matrix;
  let n = Array.length matrix in
  let reach = reachability matrix in
  let closed j = Array.for_all (fun row -> row.(j)) reach in
  if not (List.exists closed (List.init n Fun.id)) then
    invalid_arg
      "Usage_profile: more than one closed class of modes, so no unique long-run usage";
  let u = 1.0 /. float_of_int n in
  let z =
    invert
      (Array.init n (fun i ->
           Array.init n (fun j -> (if i = j then 1.0 else 0.0) -. matrix.(i).(j) +. u)))
  in
  let pi =
    Array.init n (fun j ->
        if not (closed j) then 0.0
        else Float.max 0.0 (Array.fold_left (fun acc row -> acc +. (u *. row.(j))) 0.0 z))
  in
  let total = Array.fold_left ( +. ) 0.0 pi in
  (Array.map (fun p -> p /. total) pi, z)

let stationary matrix = fst (fundamental matrix)

let probabilities ~n_modes ~holding_time observations =
  let pi = stationary (embedded_chain ~n_modes observations) in
  let weighted =
    Array.mapi
      (fun i p ->
        let h = holding_time i in
        if h <= 0.0 then invalid "Usage_profile: non-positive holding time for mode %d" i;
        p *. h)
      pi
  in
  let total = Array.fold_left ( +. ) 0.0 weighted in
  Array.map (fun w -> w /. total) weighted

let apply omsm ~holding_time observations =
  let n_modes = Omsm.n_modes omsm in
  let profile = probabilities ~n_modes ~holding_time observations in
  let modes =
    List.map
      (fun mode ->
        Mode.make ~id:(Mode.id mode) ~name:(Mode.name mode) ~graph:(Mode.graph mode)
          ~period:(Mode.period mode) ~probability:profile.(Mode.id mode))
      (Omsm.modes omsm)
  in
  Omsm.make ~name:(Omsm.name omsm) ~modes ~transitions:(Omsm.transitions omsm)
