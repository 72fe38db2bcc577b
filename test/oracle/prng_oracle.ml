(* The allocating Box–Muller, gamma and Dirichlet samplers that
   [Mm_util.Prng] had before it drew on an unboxed local state word,
   kept verbatim (each draw through [Prng.float]) as the reference the
   in-place samplers must reproduce bit for bit, weights and final
   generator state alike. *)

module Prng = Mm_util.Prng

let gaussian t =
  (* Box–Muller; u1 bounded away from 0 so log stays finite. *)
  let u1 = Float.max 1e-300 (Prng.float t 1.0) in
  let u2 = Prng.float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let rec gamma t ~shape =
  if not (shape > 0.0 && Float.is_finite shape) then
    invalid_arg "Prng.gamma: shape must be positive and finite";
  if shape < 1.0 then begin
    (* Boosting: G(a) = G(a+1) · U^(1/a) for a < 1. *)
    let u = Float.max 1e-300 (Prng.float t 1.0) in
    gamma t ~shape:(shape +. 1.0) *. (u ** (1.0 /. shape))
  end
  else begin
    (* Marsaglia–Tsang squeeze (ACM TOMS 2000): accept d·v with
       v = (1+cx)^3 against a log bound on the normal draw x. *)
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec loop () =
      let x = gaussian t in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then loop ()
      else begin
        let v = v *. v *. v in
        let u = Float.max 1e-300 (Prng.float t 1.0) in
        if log u < (0.5 *. x *. x) +. (d *. (1.0 -. v +. log v)) then d *. v
        else loop ()
      end
    in
    loop ()
  end

let dirichlet t alpha =
  let n = Array.length alpha in
  if n = 0 then invalid_arg "Prng.dirichlet: empty concentration vector";
  let w = Array.map (fun a -> Float.max 1e-300 (gamma t ~shape:a)) alpha in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w
