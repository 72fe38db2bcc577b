type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix64 (Int64.of_int seed) }

let[@inline] bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let child_seed = bits64 t in
  { state = mix64 child_seed }

let copy t = { state = t.state }
let state t = t.state
let of_state state = { state }

(* Weyl-sequence stream derivation: child [i]'s state is the parent's
   current word pushed [i] steps along an independent odd-constant
   sequence and remixed.  Stream 0 is the parent's own state verbatim
   (so a 1-stream consumer is bit-identical to using the parent
   directly), and the parent is never advanced. *)
let stream t i =
  if i = 0 then { state = t.state }
  else
    { state = mix64 (Int64.add t.state (Int64.mul (Int64.of_int i) 0xD1B54A32D192ED03L)) }

(* Rejection-free bounded draw: take the top bits scaled into [0,bound).
   The scaling bias is < 2^-53 for any bound below 2^53, far below
   anything observable in synthesis workloads. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let raw = Int64.shift_right_logical (bits64 t) 11 in
  let unit = Int64.to_float raw /. 9007199254740992.0 in
  let v = int_of_float (unit *. float_of_int bound) in
  if v >= bound then bound - 1 else v

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  if not (bound > 0.0 && Float.is_finite bound) then
    invalid_arg "Prng.float: bound must be positive and finite";
  let raw = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float raw /. 9007199254740992.0 *. bound

let float_in t lo hi =
  if lo > hi then invalid_arg "Prng.float_in: lo > hi";
  if lo = hi then lo else lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p =
  if p >= 1.0 then true
  else if p <= 0.0 then false
  else float t 1.0 < p

(* The draws below run on a local copy of the state word, stored back
   once, so that the word stays unboxed.  [unit_of_word z] is
   [float t 1.0] for the state [z] that draw advances [t] to. *)
let[@inline] unit_of_word z =
  Int64.to_float (Int64.shift_right_logical (mix64 z) 11) /. 9007199254740992.0

(* Box–Muller on the two words after [s]; u1 bounded away from 0 so log
   stays finite.  The caller advances its word by two steps. *)
let[@inline] gaussian_after s =
  let s1 = Int64.add s golden_gamma in
  let u1 = Float.max 1e-300 (unit_of_word s1) in
  let u2 = unit_of_word (Int64.add s1 golden_gamma) in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let two_steps = Int64.add golden_gamma golden_gamma

let gaussian t =
  let s = t.state in
  t.state <- Int64.add s two_steps;
  gaussian_after s

let gaussians_into t out =
  let s = ref t.state in
  for i = 0 to Array.length out - 1 do
    out.(i) <- gaussian_after !s;
    s := Int64.add !s two_steps
  done;
  t.state <- !s

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Prng.pick_array: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list t xs =
  let a = Array.of_list xs in
  shuffle t a;
  Array.to_list a

let sample_without_replacement t k xs =
  let a = Array.of_list xs in
  shuffle t a;
  let n = min k (Array.length a) in
  Array.to_list (Array.sub a 0 n)

let[@inline] check_shape shape =
  if not (shape > 0.0 && Float.is_finite shape) then
    invalid_arg "Prng.gamma: shape must be positive and finite"

(* One Gamma(shape, 1) draw on the word [s]: writes it to [out.(i)] and
   returns the advanced word.  Marsaglia–Tsang squeeze (ACM TOMS 2000):
   accept d·v with v = (1+cx)^3 against a log bound on the normal draw
   x.  For shape < 1 it boosts, G(a) = G(a+1)·U^(1/a), drawing U
   first. *)
let[@inline] gamma_word s shape (out : float array) i =
  let boosted = shape < 1.0 in
  let s = ref (if boosted then Int64.add s golden_gamma else s) in
  let boost = if boosted then Float.max 1e-300 (unit_of_word !s) ** (1.0 /. shape) else 1.0 in
  let shape = if boosted then shape +. 1.0 else shape in
  let d = shape -. (1.0 /. 3.0) in
  let c = 1.0 /. sqrt (9.0 *. d) in
  let draw = ref 0.0 and accepted = ref false in
  while not !accepted do
    let x = gaussian_after !s in
    s := Int64.add !s two_steps;
    let v = 1.0 +. (c *. x) in
    if not (v <= 0.0) then begin
      let v = v *. v *. v in
      s := Int64.add !s golden_gamma;
      let u = Float.max 1e-300 (unit_of_word !s) in
      if log u < (0.5 *. x *. x) +. (d *. (1.0 -. v +. log v)) then begin
        draw := d *. v;
        accepted := true
      end
    end
  done;
  out.(i) <- !draw *. boost;
  !s

let gamma t ~shape =
  check_shape shape;
  let out = [| 0.0 |] in
  t.state <- gamma_word t.state shape out 0;
  out.(0)

let dirichlet_into t alpha out =
  let n = Array.length alpha in
  if n = 0 then invalid_arg "Prng.dirichlet: empty concentration vector";
  if Array.length out <> n then invalid_arg "Prng.dirichlet_into: length mismatch";
  for i = 0 to n - 1 do
    check_shape alpha.(i)
  done;
  let s = ref t.state in
  for i = 0 to n - 1 do
    s := gamma_word !s alpha.(i) out i
  done;
  t.state <- !s;
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = Float.max 1e-300 out.(i) in
    out.(i) <- w;
    total := !total +. w
  done;
  let total = !total in
  for i = 0 to n - 1 do
    out.(i) <- out.(i) /. total
  done

let dirichlet t alpha =
  let out = Array.make (Array.length alpha) 0.0 in
  dirichlet_into t alpha out;
  out

let dirichlet_like t n ~skew =
  if n <= 0 then invalid_arg "Prng.dirichlet_like: n must be positive";
  let skew = Float.max 1.0 skew in
  (* Raising uniform draws to the [skew] power concentrates mass: for
     skew = 1 the weights are roughly even, for large skew a single mode
     dominates — matching the paper's observation that devices spend most
     of their time in one mode (e.g. 74 % in RLC). *)
  let w = Array.init n (fun _ -> Float.max 1e-9 (float t 1.0 ** skew)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w
