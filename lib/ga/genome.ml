module Prng = Mm_util.Prng

let random rng ~counts = Array.map (fun c -> Prng.int rng c) counts

let validate ~counts genome =
  Array.length genome = Array.length counts
  && Array.for_all2 (fun g c -> g >= 0 && g < c) genome counts

let two_point_crossover rng a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Genome.two_point_crossover: length mismatch";
  if n = 0 then invalid_arg "Genome.two_point_crossover: empty genome";
  let p = Prng.int rng n and q = Prng.int rng n in
  let lo = min p q and hi = max p q in
  let child_a = Array.copy a and child_b = Array.copy b in
  for i = lo to hi do
    child_a.(i) <- b.(i);
    child_b.(i) <- a.(i)
  done;
  (child_a, child_b)

let point_mutate rng ~counts ~rate genome =
  Array.iteri
    (fun i _ -> if Prng.chance rng rate then genome.(i) <- Prng.int rng counts.(i))
    genome

let diff a b =
  if Array.length a <> Array.length b then invalid_arg "Genome.diff: length mismatch";
  let d = ref [] in
  for i = Array.length a - 1 downto 0 do
    if a.(i) <> b.(i) then d := i :: !d
  done;
  !d

let hamming a b =
  if Array.length a <> Array.length b then invalid_arg "Genome.hamming: length mismatch";
  let d = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr d) a;
  !d
