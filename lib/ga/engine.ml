module Prng = Mm_util.Prng
module Pool = Mm_parallel.Pool
module Metrics = Mm_obs.Metrics

(* GA observability: one span per generation (coarse), per-generation
   convergence series, and counters mirroring the per-run [result]
   fields so a whole process's GA activity is visible in metrics.json.
   Everything is gated on the global metrics/tracing switches and
   records no random state, so instrumentation cannot perturb a run. *)
let p_generation = Mm_obs.Probe.create "ga/generation"
let m_generations = Metrics.counter "ga/generations"
let m_evaluations = Metrics.counter "ga/evaluations"
let m_delta_evaluations = Metrics.counter "ga/delta_evaluations"
let s_best = Metrics.series "ga/best_fitness"
let s_mean = Metrics.series "ga/mean_fitness"
let s_diversity = Metrics.series "ga/diversity"
let s_stagnation = Metrics.series "ga/stagnation"

type config = {
  population_size : int;
  tournament_size : int;
  crossover_rate : float;
  mutation_rate : float;
  elite_count : int;
  max_generations : int;
  stagnation_limit : int;
  diversity_threshold : float;
  selection_pressure : float;
}

let default_config =
  {
    population_size = 40;
    tournament_size = 2;
    crossover_rate = 0.9;
    mutation_rate = 0.02;
    elite_count = 2;
    max_generations = 150;
    stagnation_limit = 25;
    diversity_threshold = 0.01;
    selection_pressure = 1.8;
  }

type 'info snapshot = {
  generation : int;
  fitnesses : float array;
  infos : 'info array;
}

type 'info improvement = {
  name : string;
  rate : float;
  apply :
    Prng.t -> snapshot:'info snapshot -> info:'info -> int array -> bool;
}

type 'info problem = {
  gene_counts : int array;
  evaluate : int array -> float * 'info;
  improvements : 'info improvement list;
  initial : int array list;
}

type 'info delta = parent:'info -> dirty:int list -> int array -> float * 'info

type 'info result = {
  best_genome : int array;
  best_fitness : float;
  best_info : 'info;
  generations : int;
  evaluations : int;
  history : float list;
}

type checkpoint = {
  generation : int;
  members : (int array * float) array;
  best : int array * float;
  stagnation : int;
  history : float list;
  evaluations : int;
  rng_state : int64;
}

type 'info member = { genome : int array; fitness : float; info : 'info }

(* Linear-ranking weights: best rank gets [pressure], worst gets
   [2 - pressure]; tournament selection then picks by weight. *)
let ranking_weights n pressure =
  if n = 1 then [| 1.0 |]
  else
    Array.init n (fun rank ->
        pressure
        -. ((2.0 *. (pressure -. 1.0)) *. float_of_int rank /. float_of_int (n - 1)))

(* Batch evaluator: all RNG-driven genome construction happens before a
   batch is submitted, so the evaluation schedule (serial or pooled)
   cannot perturb the random stream — equal seeds give bit-identical
   runs at any domain count.  A 1-domain pool degrades to the serial
   path.

   Each batch item optionally carries a delta context — the parent's
   ['info] plus the genes the child differs in — consumed by the
   problem's [delta] evaluator when one is supplied.  A delta evaluator
   must be bit-identical to [problem.evaluate] (the contract of
   {!Engine.delta}), so resumed trajectories are unaffected by which
   path computed a result. *)
type 'info batcher = {
  batch : (int array * ('info * int list) option) array -> 'info member array;
  evaluations : int ref;
}

let make_batcher ?delta ?pool problem =
  let evaluations = ref 0 in
  let pool = match pool with Some p when Pool.size p > 1 -> Some p | _ -> None in
  let eval_one (genome, ctx) =
    match (delta, ctx) with
    | Some d, Some (parent, dirty) -> d ~parent ~dirty genome
    | _ -> problem.evaluate genome
  in
  let eval_all items =
    evaluations := !evaluations + Array.length items;
    Metrics.incr ~by:(Array.length items) m_evaluations;
    (match delta with
    | None -> ()
    | Some _ ->
      let n_delta =
        Array.fold_left
          (fun acc (_, ctx) -> match ctx with Some _ -> acc + 1 | None -> acc)
          0 items
      in
      if n_delta > 0 then Metrics.incr ~by:n_delta m_delta_evaluations);
    match pool with
    | Some p ->
      (* Dispatch through one flat shared slab: the gene words of every
         item are packed into a Bigarray and the pool items are plain
         indices, so the array every domain scans through the shared
         cursor is small and pointer-free, and workers reconstruct each
         genome from the slab instead of chasing per-item heap tuples.
         Results are float/info pairs; the caller keeps the original
         genome arrays, so the copies never escape the batch. *)
      let len = Array.length problem.gene_counts in
      let n = Array.length items in
      let slab =
        Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 (n * len))
      in
      Array.iteri
        (fun i (g, _) ->
          let base = i * len in
          for j = 0 to len - 1 do
            slab.{base + j} <- g.(j)
          done)
        items;
      let ctxs = Array.map snd items in
      let eval_slot i =
        let base = i * len in
        let genome = Array.init len (fun j -> slab.{base + j}) in
        eval_one (genome, ctxs.(i))
      in
      Pool.map p eval_slot (Array.init n (fun i -> i))
    | None -> Array.map eval_one items
  in
  let batch items =
    Array.mapi
      (fun i (fitness, info) -> { genome = fst items.(i); fitness; info })
      (eval_all items)
  in
  { batch; evaluations }

(* A paused run at a generation boundary: the sorted population, the
   convergence bookkeeping and the PRNG.  [step] advances it in place;
   everything else ([to_checkpoint], [to_result], [best_members],
   [inject]) reads or edits the boundary state.  This is the unit the
   island model schedules: each island owns one [state] and steps it to
   the next migration epoch on whatever domain the pool hands it. *)
type 'info state = {
  st_config : config;
  st_problem : 'info problem;
  st_batcher : 'info batcher;
  st_delta : 'info delta option;
  st_weights : float array;
  st_on_generation : (checkpoint -> unit) option;
  st_rng : Prng.t;
  mutable st_population : 'info member array;
  mutable st_best : 'info member;
  mutable st_stagnation : int;
  mutable st_history : float list; (* newest first *)
  mutable st_generation : int;
}

let by_fitness a b = compare a.fitness b.fitness

let init ?(config = default_config) ?pool ?delta ?on_generation ?resume ~rng
    problem =
  if Array.length problem.gene_counts = 0 then invalid_arg "Engine.run: empty genome";
  if config.population_size <= 0 then invalid_arg "Engine.run: non-positive population";
  Array.iter
    (fun c -> if c <= 0 then invalid_arg "Engine.run: empty gene alphabet")
    problem.gene_counts;
  let batcher = make_batcher ?delta ?pool problem in
  let full genomes = Array.map (fun g -> (g, None)) genomes in
  List.iter
    (fun genome ->
      if not (Genome.validate ~counts:problem.gene_counts genome) then
        invalid_arg "Engine.run: invalid initial genome")
    problem.initial;
  let rng, population, best, history, stagnation, generation =
    match resume with
    | None ->
      let seeded = Array.of_list problem.initial in
      (* Genome construction consumes the RNG in index order; evaluation
         is deferred to one batch. *)
      let genomes =
        Array.init config.population_size (fun i ->
            if i < Array.length seeded then Array.copy seeded.(i)
            else Genome.random rng ~counts:problem.gene_counts)
      in
      let population = batcher.batch (full genomes) in
      Array.sort by_fitness population;
      let best = population.(0) in
      (rng, population, best, [ best.fitness ], 0, 0)
    | Some (ck : checkpoint) ->
      if Array.length ck.members <> config.population_size then
        invalid_arg "Engine.run: checkpoint population size mismatch";
      let check_genome (genome, _) =
        if not (Genome.validate ~counts:problem.gene_counts genome) then
          invalid_arg "Engine.run: checkpoint genome does not fit the problem"
      in
      Array.iter check_genome ck.members;
      check_genome ck.best;
      (* Recover the ['info] side data by re-evaluating the stored
         genomes as one batch (the best-ever genome rides along at the
         end).  The evaluator must reproduce the checkpointed
         fitnesses bit-for-bit — a mismatch means the snapshot belongs
         to a different problem.  The restored array is NOT re-sorted:
         [Array.sort] is unstable, so only the order captured at the
         generation boundary reproduces the original run. *)
      let stored_genome (g, _) = Array.copy g in
      let evaluated =
        batcher.batch
          (full
             (Array.append (Array.map stored_genome ck.members)
                [| stored_genome ck.best |]))
      in
      let restore m stored_fitness =
        if Int64.bits_of_float m.fitness <> Int64.bits_of_float stored_fitness then invalid_arg "Engine.run: checkpoint fitness mismatch (stale snapshot?)";
        { m with fitness = stored_fitness }
      in
      let n = Array.length ck.members in
      let members = Array.init n (fun i -> restore evaluated.(i) (snd ck.members.(i))) in
      let best = restore evaluated.(n) (snd ck.best) in
      (* The restore batch already bumped the counters by its own cost;
         stack the checkpointed totals on top so the resumed run reports
         the work of the whole trajectory. *)
      batcher.evaluations := !(batcher.evaluations) + ck.evaluations;
      (* The caller's [rng] is superseded: the stream continues from the
         captured state, which is what makes the resumed trajectory
         bit-identical to the uninterrupted one. *)
      ( Prng.of_state ck.rng_state,
        members,
        best,
        List.rev ck.history,
        ck.stagnation,
        ck.generation )
  in
  {
    st_config = config;
    st_problem = problem;
    st_batcher = batcher;
    st_delta = delta;
    st_weights = ranking_weights config.population_size config.selection_pressure;
    st_on_generation = on_generation;
    st_rng = rng;
    st_population = population;
    st_best = best;
    st_stagnation = stagnation;
    st_history = history;
    st_generation = generation;
  }

(* Mean normalised Hamming distance of the population to its best
   member — a cheap proxy for population diversity. *)
let diversity st =
  let members = st.st_population in
  let best_genome = members.(0).genome in
  let len = Array.length best_genome in
  let total =
    Array.fold_left
      (fun acc m -> acc + Genome.hamming best_genome m.genome)
      0 members
  in
  float_of_int total /. float_of_int (Array.length members * len)

let converged st =
  let config = st.st_config in
  st.st_stagnation >= config.stagnation_limit
  || (config.diversity_threshold > 0.0
     && st.st_stagnation >= (config.stagnation_limit + 1) / 2
     && diversity st < config.diversity_threshold)

let generation st = st.st_generation

let finished st =
  st.st_generation >= st.st_config.max_generations || converged st

(* Tournament over rank positions: smaller weighted draw wins. *)
let select st =
  let config = st.st_config and rng = st.st_rng and weights = st.st_weights in
  let draw () = Prng.int rng config.population_size in
  let rec tournament best_rank k =
    if k = 0 then best_rank
    else
      let candidate = draw () in
      (* Higher linear-ranking weight wins the tournament. *)
      let winner = if weights.(candidate) > weights.(best_rank) then candidate else best_rank in
      tournament winner (k - 1)
  in
  st.st_population.(tournament (draw ()) (config.tournament_size - 1))

(* Per-generation convergence statistics; [diversity st] is recomputed
   only when metrics are on (it is O(population × genome)). *)
let record_generation st =
  if Mm_obs.Control.metrics_on () then begin
    Metrics.incr m_generations;
    let members = st.st_population in
    let n = Array.length members in
    let sum = Array.fold_left (fun acc m -> acc +. m.fitness) 0.0 members in
    Metrics.append s_best st.st_best.fitness;
    Metrics.append s_mean (sum /. float_of_int n);
    Metrics.append s_diversity (diversity st);
    Metrics.append s_stagnation (float_of_int st.st_stagnation)
  end

let to_checkpoint st =
  {
    generation = st.st_generation;
    members =
      Array.map (fun m -> (Array.copy m.genome, m.fitness)) st.st_population;
    best = (Array.copy st.st_best.genome, st.st_best.fitness);
    stagnation = st.st_stagnation;
    history = List.rev st.st_history;
    evaluations = !(st.st_batcher.evaluations);
    rng_state = Prng.state st.st_rng;
  }

let to_result st =
  {
    best_genome = Array.copy st.st_best.genome;
    best_fitness = st.st_best.fitness;
    best_info = st.st_best.info;
    generations = st.st_generation;
    evaluations = !(st.st_batcher.evaluations);
    history = List.rev st.st_history;
  }

let best_members st m =
  let pop = st.st_population in
  let m = max 0 (min m (Array.length pop)) in
  List.init m (fun i ->
      let r = pop.(i) in
      { r with genome = Array.copy r.genome })

(* Migration intake: the [migrants] replace the worst residents (the
   tail of the fitness-sorted population), the merged array is re-sorted
   with the same comparator the engine uses everywhere, and — when a
   migrant strictly improves on the island's best-ever (the engine's
   usual [1e-15] threshold) — the best is adopted and stagnation resets,
   so migration can revive a converged island.  Everything is plain
   deterministic array surgery on boundary state: no randomness is
   consumed, so injection composes with the bit-identity contract. *)
let inject st migrants =
  match migrants with
  | [] -> ()
  | migrants ->
    let pop = st.st_population in
    let n = Array.length pop in
    let m = min (List.length migrants) n in
    let arriving =
      Array.of_list
        (List.filteri (fun i _ -> i < m) migrants
        |> List.map (fun r -> { r with genome = Array.copy r.genome }))
    in
    let next = Array.append (Array.sub pop 0 (n - m)) arriving in
    Array.sort by_fitness next;
    st.st_population <- next;
    Array.iter
      (fun (r : _ member) ->
        if r.fitness < st.st_best.fitness -. 1e-15 then begin
          st.st_best <- { r with genome = Array.copy r.genome };
          st.st_stagnation <- 0
        end)
      arriving

let step st ~until =
  let config = st.st_config in
  let problem = st.st_problem in
  let rng = st.st_rng in
  let until = min until config.max_generations in
  while st.st_generation < until && not (converged st) do
    st.st_generation <- st.st_generation + 1;
    Mm_obs.Probe.run
      ~args:(fun () -> [ ("generation", string_of_int st.st_generation) ])
      p_generation
    @@ fun () ->
    let snapshot =
      {
        generation = st.st_generation;
        fitnesses = Array.map (fun m -> m.fitness) st.st_population;
        infos = Array.map (fun m -> m.info) st.st_population;
      }
    in
    let n_elite = min config.elite_count config.population_size in
    (* Offspring genomes are bred sequentially — selection, crossover,
       mutation and the improvement operators all draw from [rng] — and
       only then evaluated as one batch. *)
    let pending = ref [] in
    let n_offspring = ref n_elite in
    let emit genome parent =
      (* Improvement operators (paper lines 19-22) act on offspring with
         their configured rates, guided by parent evaluation feedback. *)
      List.iter
        (fun op ->
          if Prng.chance rng op.rate then
            ignore (op.apply rng ~snapshot ~info:parent.info genome))
        problem.improvements;
      (* The delta context is derived after the improvement operators so
         the dirty set covers everything that touched the child.  The
         diff consumes no randomness, so supplying [delta] does not
         perturb the trajectory. *)
      let ctx =
        match st.st_delta with
        | None -> None
        | Some _ -> Some (parent.info, Genome.diff genome parent.genome)
      in
      pending := (genome, ctx) :: !pending;
      incr n_offspring
    in
    while !n_offspring < config.population_size do
      let parent_a = select st and parent_b = select st in
      if Prng.chance rng config.crossover_rate then begin
        let child_a, child_b =
          Genome.two_point_crossover rng parent_a.genome parent_b.genome
        in
        Genome.point_mutate rng ~counts:problem.gene_counts ~rate:config.mutation_rate
          child_a;
        Genome.point_mutate rng ~counts:problem.gene_counts ~rate:config.mutation_rate
          child_b;
        emit child_a parent_a;
        if !n_offspring < config.population_size then emit child_b parent_b
      end
      else begin
        let child = Array.copy parent_a.genome in
        Genome.point_mutate rng ~counts:problem.gene_counts ~rate:config.mutation_rate
          child;
        emit child parent_a
      end
    done;
    let children = st.st_batcher.batch (Array.of_list (List.rev !pending)) in
    (* Rebuild the survivor array in the exact order the serial engine
       used (elites pushed first, children on top, list reversed by
       [Array.of_list]) so the unstable sort below sees the same input
       and equal seeds keep giving bit-identical populations. *)
    let offspring = ref [] in
    for i = 0 to n_elite - 1 do
      offspring := st.st_population.(i) :: !offspring
    done;
    Array.iter (fun m -> offspring := m :: !offspring) children;
    let next = Array.of_list !offspring in
    Array.sort by_fitness next;
    st.st_population <- next;
    if next.(0).fitness < st.st_best.fitness -. 1e-15 then begin
      st.st_best <- next.(0);
      st.st_stagnation <- 0
    end
    else st.st_stagnation <- st.st_stagnation + 1;
    st.st_history <- st.st_best.fitness :: st.st_history;
    record_generation st;
    (* The generation boundary is the only point where no randomness is
       in flight: everything the next iteration reads is the sorted
       population, the convergence state and the PRNG word captured
       here.  That is exactly what a [checkpoint] carries. *)
    match st.st_on_generation with
    | None -> ()
    | Some emit -> emit (to_checkpoint st)
  done

let run ?config ?pool ?delta ?on_generation ?resume ~rng problem =
  let st = init ?config ?pool ?delta ?on_generation ?resume ~rng problem in
  step st ~until:st.st_config.max_generations;
  to_result st
