module Prng = Mm_util.Prng
module Fitness = Mm_cosynth.Fitness
module Spec = Mm_cosynth.Spec
module Synthesis = Mm_cosynth.Synthesis

type config = {
  initial_temperature : float;
  cooling : float;
  steps : int;
  moves_per_step : int;
}

let default_config =
  { initial_temperature = 0.3; cooling = 0.999; steps = 6000; moves_per_step = 3 }

type result = {
  genome : int array;
  eval : Fitness.eval;
  accepted : int;
  evaluations : int;
  cpu_seconds : float;
}

let propose rng spec ~moves genome =
  let candidate = Array.copy genome in
  let n = Array.length candidate in
  let changes = 1 + Prng.int rng moves in
  for _ = 1 to changes do
    let position = Prng.int rng n in
    let alphabet = Array.length (Spec.candidates spec position) in
    if alphabet > 1 then begin
      (* Draw a different gene value uniformly. *)
      let shifted = 1 + Prng.int rng (alphabet - 1) in
      candidate.(position) <- (candidate.(position) + shifted) mod alphabet
    end
  done;
  candidate

let run ?(config = default_config) ?(fitness = Fitness.default_config) ~spec ~seed () =
  if config.steps <= 0 then invalid_arg "Annealing.run: steps must be positive";
  if not (config.cooling > 0.0 && config.cooling < 1.0) then
    invalid_arg "Annealing.run: cooling must be in (0, 1)";
  let rng = Prng.create ~seed in
  let started = Sys.time () in
  let evaluations = ref 0 in
  let eval genome =
    incr evaluations;
    Fitness.evaluate fitness spec genome
  in
  let start =
    match Synthesis.software_anchors spec with
    | anchor :: _ -> anchor
    | [] -> Mm_ga.Genome.random rng ~counts:(Spec.gene_counts spec)
  in
  let current = ref start in
  let current_eval = ref (eval start) in
  let best = ref start in
  let best_eval = ref !current_eval in
  let temperature = ref (config.initial_temperature *. !current_eval.Fitness.fitness) in
  let accepted = ref 0 in
  for _ = 1 to config.steps do
    let candidate = propose rng spec ~moves:config.moves_per_step !current in
    let candidate_eval = eval candidate in
    let delta = candidate_eval.Fitness.fitness -. !current_eval.Fitness.fitness in
    let accept =
      delta <= 0.0
      || (!temperature > 0.0 && Prng.chance rng (exp (-.delta /. !temperature)))
    in
    if accept then begin
      incr accepted;
      current := candidate;
      current_eval := candidate_eval;
      if candidate_eval.Fitness.fitness < !best_eval.Fitness.fitness then begin
        best := candidate;
        best_eval := candidate_eval
      end
    end;
    temperature := !temperature *. config.cooling
  done;
  {
    genome = !best;
    eval = !best_eval;
    accepted = !accepted;
    evaluations = !evaluations;
    cpu_seconds = Sys.time () -. started;
  }
