module Prng = Mm_util.Prng
module Engine = Mm_ga.Engine
module Islands = Mm_ga.Islands
module Pool = Mm_parallel.Pool
module Log = Mm_obs.Log

(* Coarse spans: one per synthesis run, one per GA restart inside it,
   one per checkpoint handed to a sink. *)
let p_run = Mm_obs.Probe.create "synthesis/run"
let p_restart = Mm_obs.Probe.create "synthesis/restart"
let p_checkpoint = Mm_obs.Probe.create "synthesis/checkpoint"

type robust_usage = {
  model : Mm_energy.Fleet_sim.usage_model;
  samples : int;
  objective : Fitness.robust_objective;
  battery : Mm_energy.Battery.t;
}

type config = {
  fitness : Fitness.config;
  ga : Engine.config;
  use_improvements : bool;
  restarts : int;
  jobs : int;
  audit : bool;
  islands : int;
  migration_interval : int;
  migration_count : int;
  robust : robust_usage option;
}

let default_config =
  {
    fitness = Fitness.default_config;
    ga = Engine.default_config;
    use_improvements = true;
    restarts = 2;
    jobs = 1;
    audit = false;
    islands = 1;
    migration_interval = Islands.default_topology.Islands.migration_interval;
    migration_count = Islands.default_topology.Islands.migration_count;
    robust = None;
  }

let config_of_flags ~dvs ~uniform ~generations ~population =
  {
    default_config with
    fitness =
      {
        Fitness.default_config with
        weighting = (if uniform then Fitness.Uniform else Fitness.True_probabilities);
        dvs = (if dvs then Fitness.Dvs Mm_dvs.Scaling.default_config else Fitness.No_dvs);
      };
    ga =
      { Engine.default_config with max_generations = generations; population_size = population };
  }

(* A robust request with the point model samples the published Ψ
   verbatim — structurally the seed objective — so it is bypassed
   entirely: no Ψ sampling, no fingerprint suffix, bit-identical
   trajectories (held by the equivalence test in test_ga.ml). *)
let robust_active config =
  match config.robust with
  | Some r -> not (Mm_energy.Fleet_sim.is_point r.model)
  | None -> false

(* Child-stream index the robust Ψ samples are drawn from.  Any fixed
   non-zero index works (stream 0 is the outer generator itself); what
   matters is that it never changes, because resumed runs re-derive the
   samples from (seed, index) alone. *)
let robust_psi_stream = 7919

(* Materialise the Ψ samples a robust run evaluates against.  Deriving a
   child stream never advances the outer generator, and the samples are
   a pure function of (seed, model): resumed runs and replayed-run
   recomputes (Experiment) re-derive them exactly rather than carrying
   them in snapshots. *)
let effective_fitness_config config ~spec ~seed =
  (* The fingerprint reads the robust objective off [config.robust]
     only, so a preset one would run unfingerprinted. *)
  if Option.is_some config.fitness.Fitness.robust then
    invalid_arg
      "Synthesis: set the robust objective through Synthesis.config.robust, not \
       fitness.robust";
  if not (robust_active config) then config.fitness
  else
    match config.robust with
    | None -> assert false
    | Some r ->
      let omsm = Spec.omsm spec in
      let n_modes = Mm_omsm.Omsm.n_modes omsm in
      Mm_energy.Fleet_sim.validate_model ~n_modes r.model;
      if r.samples <= 0 then
        invalid_arg "Synthesis.run: robust sample count must be positive";
      let base =
        Array.init n_modes (fun i ->
            Mm_omsm.Mode.probability (Mm_omsm.Omsm.mode omsm i))
      in
      let psi_rng = Prng.stream (Prng.create ~seed) robust_psi_stream in
      let psis =
        Array.init r.samples (fun _ ->
            Mm_energy.Fleet_sim.sample_psi r.model ~base psi_rng)
      in
      {
        config.fitness with
        Fitness.robust =
          Some { Fitness.psis; battery = r.battery; objective = r.objective };
      }

type restart_summary = {
  r_genome : int array;
  r_fitness : float;
  r_generations : int;
  r_evaluations : int;
  r_history : float list;
}

(* In-flight engine state inside a restart: a plain single-population
   engine checkpoint, or the per-island archipelago of the island
   model.  Which variant a snapshot carries is pinned by the config
   fingerprint ([islands=...] is part of it whenever islands > 1), so a
   resume can never feed one shape into the other silently. *)
type engine_state =
  | Single of Engine.checkpoint
  | Sharded of Islands.checkpoint

type run_state = {
  seed : int;
  fingerprint : string;
  next_restart : int;
  completed : restart_summary list;
  outer_rng : int64;
  engine : engine_state option;
}

type checkpoint_sink = { every : int; save : run_state -> unit }

type progress = {
  p_restart : int;
  p_generation : int;
  p_best_fitness : float;
  p_evaluations : int;
}

(* Everything that can change the synthesis trajectory for a given seed
   goes into the fingerprint; [jobs] is deliberately absent because it
   does not perturb the result (see the determinism note in the module
   doc).  Floats are printed in hex so the fingerprint compares them
   bit-for-bit. *)
let config_fingerprint config =
  let weighting =
    match config.fitness.Fitness.weighting with
    | Fitness.True_probabilities -> "p"
    | Fitness.Uniform -> "u"
  in
  let dvs =
    match config.fitness.Fitness.dvs with
    | Fitness.No_dvs -> "none"
    | Fitness.Dvs sc ->
      (* The literal "gradient" keeps every pinned fingerprint and every
         DVS checkpoint on disk valid. *)
      Printf.sprintf "%b/%b/gradient" sc.Mm_dvs.Scaling.scale_software
        sc.Mm_dvs.Scaling.scale_hardware
  in
  let policy =
    match config.fitness.Fitness.scheduler_policy with
    | Mm_sched.List_scheduler.Mobility_first -> "mobility"
    | Mm_sched.List_scheduler.Critical_path_first -> "critical-path"
    | Mm_sched.List_scheduler.Topological -> "topological"
  in
  let p = config.fitness.Fitness.penalties in
  let ga = config.ga in
  Printf.sprintf
    "w=%s dvs=%s sched=%s pen=%h:%h:%h:%h ga=%d:%d:%h:%h:%d:%d:%d:%h:%h \
     improve=%b restarts=%d"
    weighting dvs policy p.Fitness.timing p.Fitness.area p.Fitness.transition
    p.Fitness.unroutable ga.Engine.population_size ga.Engine.tournament_size
    ga.Engine.crossover_rate ga.Engine.mutation_rate ga.Engine.elite_count
    ga.Engine.max_generations ga.Engine.stagnation_limit
    ga.Engine.diversity_threshold ga.Engine.selection_pressure
    config.use_improvements (max 1 config.restarts)
  ^
  (* Appended only when the island model is active, so every fingerprint
     ever written by an islands=1 run — including pre-island snapshots —
     stays valid verbatim. *)
  (if config.islands > 1 then
     Printf.sprintf " islands=%d:%d:%d" config.islands
       (max 1 config.migration_interval)
       (max 0 config.migration_count)
   else "")
  ^
  (* Same appended-only-when-active rule for the robust objective: the
     point model is a bypass, and every pre-robust fingerprint stays
     valid verbatim. *)
  (if robust_active config then
     match config.robust with
     | Some r ->
       let b = r.battery in
       Printf.sprintf " robust=%s:%d:%s:%h:%h:%h:%h"
         (Mm_energy.Fleet_sim.model_fingerprint r.model)
         (max 1 r.samples)
         (match r.objective with
         | Fitness.Expected_lifetime -> "mean"
         | Fitness.Percentile q -> Printf.sprintf "p%h" q)
         b.Mm_energy.Battery.capacity_ah b.Mm_energy.Battery.voltage
         b.Mm_energy.Battery.peukert b.Mm_energy.Battery.rated_hours
     | None -> assert false
   else "")

type result = {
  genome : int array;
  eval : Fitness.eval;
  generations : int;
  evaluations : int;
  cpu_seconds : float;
  history : float list;
  audit : Audit.report option;
}

(* Known-good anchors injected into the initial population: all-software
   mappings use no core area and no reconfiguration, so whenever the
   specification admits a software-only schedule the GA's best-ever
   individual is feasible from generation zero and the search can only
   improve on it. *)
let software_anchors spec =
  let arch = Spec.arch spec in
  let sw_ids = List.map Mm_arch.Pe.id (Mm_arch.Architecture.software_pes arch) in
  match sw_ids with
  | [] -> []
  | first :: _ ->
    let genome_with assign =
      Array.init (Spec.n_positions spec) (fun i ->
          match Spec.candidate_index spec i ~pe_id:(assign i) with
          | Some gene -> gene
          | None -> 0)
    in
    let serial = genome_with (fun _ -> first) in
    let round_robin = genome_with (fun i -> List.nth sw_ids (i mod List.length sw_ids)) in
    if serial = round_robin then [ serial ] else [ serial; round_robin ]

let greedy_timing_anchor spec =
  match software_anchors spec with
  | [] -> None
  | base :: _ ->
    let genome = Array.copy base in
    let arch = Spec.arch spec in
    let tech = Spec.tech spec in
    let omsm = Spec.omsm spec in
    let repair_config = { Fitness.default_config with Fitness.dvs = Fitness.No_dvs } in
    let exec_time_on position pe_id =
      let task = Spec.task_at spec position in
      match
        Mm_arch.Tech_lib.find tech
          ~ty:(Mm_taskgraph.Task.ty task)
          ~pe:(Mm_arch.Architecture.pe arch pe_id)
      with
      | Some impl -> impl.Mm_arch.Tech_lib.exec_time
      | None -> infinity
    in
    (* Gene value of the fastest hardware candidate at a position. *)
    let fastest_hw position =
      let cands = Spec.candidates spec position in
      let best = ref None in
      Array.iteri
        (fun gene pe ->
          if Mm_arch.Pe.is_hardware pe then
            let time = exec_time_on position (Mm_arch.Pe.id pe) in
            match !best with
            | Some (_, t) when t <= time -> ()
            | Some _ | None -> best := Some (gene, time))
        cands;
      Option.map fst !best
    in
    let late_modes eval =
      List.filteri
        (fun mode _ ->
          let mode_rec = Mm_omsm.Omsm.mode omsm mode in
          let graph = Mm_omsm.Mode.graph mode_rec in
          let period = Mm_omsm.Mode.period mode_rec in
          Array.exists
            (fun (finish, task) ->
              let bound =
                match Mm_taskgraph.Task.deadline (Mm_taskgraph.Graph.task graph task) with
                | None -> period
                | Some d -> Float.min d period
              in
              finish > bound +. 1e-9)
            (Array.mapi
               (fun task finish -> (finish, task))
               eval.Fitness.scalings.(mode).Mm_dvs.Scaling.stretched_finish))
        (List.init (Mm_omsm.Omsm.n_modes omsm) Fun.id)
    in
    let rec repair budget =
      if budget > 0 then begin
        let eval = Fitness.evaluate repair_config spec genome in
        if not eval.Fitness.timing_feasible then begin
          let late = late_modes eval in
          (* The longest-running software task of a late mode that has a
             hardware alternative removes the most load per move. *)
          let best = ref None in
          for position = 0 to Spec.n_positions spec - 1 do
            let { Spec.mode; _ } = Spec.position spec position in
            if List.mem mode late then begin
              let current_pe = (Spec.candidates spec position).(genome.(position)) in
              if Mm_arch.Pe.is_software current_pe then
                match fastest_hw position with
                | None -> ()
                | Some gene ->
                  let load = exec_time_on position (Mm_arch.Pe.id current_pe) in
                  (match !best with
                  | Some (_, _, heaviest) when heaviest >= load -> ()
                  | Some _ | None -> best := Some (position, gene, load))
            end
          done;
          match !best with
          | None -> () (* nothing left to move *)
          | Some (position, gene, _) ->
            genome.(position) <- gene;
            repair (budget - 1)
        end
      end
    in
    repair 64;
    Some genome

let anchors spec =
  let base = software_anchors spec in
  let all = match greedy_timing_anchor spec with Some g -> base @ [ g ] | None -> base in
  List.sort_uniq compare all

let run ?(config = default_config) ?checkpoint ?resume ?yield ?pool ~spec ~seed
    () =
  Mm_obs.Probe.run ~args:(fun () -> [ ("seed", string_of_int seed) ]) p_run
  @@ fun () ->
  let fingerprint = config_fingerprint config in
  let restarts = max 1 config.restarts in
  (match resume with
  | None -> ()
  | Some state ->
    (* A snapshot only replays faithfully against the run that produced
       it: same seed, same trajectory-relevant configuration, and a
       restart index that the run can actually reach. *)
    if state.seed <> seed then
      invalid_arg
        (Printf.sprintf "Synthesis.run: snapshot was taken with seed %d, not %d"
           state.seed seed);
    if not (String.equal state.fingerprint fingerprint) then
      invalid_arg "Synthesis.run: snapshot configuration does not match this run";
    if
      state.next_restart > restarts
      || (state.next_restart = restarts && Option.is_some state.engine)
    then invalid_arg "Synthesis.run: snapshot restart index out of range";
    if List.length state.completed <> state.next_restart then
      invalid_arg "Synthesis.run: snapshot restart summaries are inconsistent");
  let rng =
    match resume with
    | None -> Prng.create ~seed
    | Some state -> Prng.of_state state.outer_rng
  in
  let fitness_config = effective_fitness_config config ~spec ~seed in
  let problem =
    {
      Engine.gene_counts = Spec.gene_counts spec;
      evaluate =
        (fun genome ->
          let eval = Fitness.evaluate fitness_config spec genome in
          (eval.Fitness.fitness, eval));
      improvements = (if config.use_improvements then Improvement.all spec else []);
      initial = anchors spec;
    }
  in
  (* One pool for the whole run.  An externally supplied pool (the daemon
     shares one across all jobs) is used as-is and never shut down here —
     its owner may be multiplexing other runs over it. *)
  let owned_pool =
    match pool with
    | Some _ -> None
    | None ->
      if config.jobs > 1 then Some (Pool.create ~domains:config.jobs ())
      else None
  in
  let pool = match pool with Some _ -> pool | None -> owned_pool in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown owned_pool)
  @@ fun () ->
  let use_islands = config.islands > 1 in
  (* Force the compiled spec context on the owner domain before any
     work fans out: [Spec.compiled] memoises through an atomic CAS, so
     racing first evaluations across K domains would each compile the
     whole context and discard K-1 copies.  Warmed here, every domain
     shares the one read-only context. *)
  if pool <> None || use_islands then ignore (Spec.compiled spec);
  (* Delta evaluation is exact (Fitness.evaluate_delta is bit-identical
     to Fitness.evaluate), so it changes wall time only, never the
     trajectory. *)
  let delta ~parent ~dirty genome =
    let eval = Fitness.evaluate_delta fitness_config spec ~parent ~dirty genome in
    (eval.Fitness.fitness, eval)
  in
  let started = Sys.time () in
  let save_state sink state =
    Mm_obs.Probe.run
      ~args:(fun () ->
        [
          ("restart", string_of_int state.next_restart);
          ( "generation",
            match state.engine with
            | Some (Single ck) -> string_of_int ck.Engine.generation
            | Some (Sharded ck) ->
              string_of_int
                (Array.fold_left
                   (fun acc (m : Engine.checkpoint) -> max acc m.Engine.generation)
                   0 ck.Islands.members)
            | None -> "-" );
        ])
      p_checkpoint
      (fun () -> sink.save state)
  in
  let summarize (r : _ Engine.result) =
    {
      r_genome = Array.copy r.Engine.best_genome;
      r_fitness = r.Engine.best_fitness;
      r_generations = r.Engine.generations;
      r_evaluations = r.Engine.evaluations;
      r_history = r.Engine.history;
    }
  in
  (* Summaries stay oldest-first so the best-candidate fold below sees
     restarts in their original order (first strict improvement wins
     ties, exactly as in an uninterrupted run).  Replayed summaries carry
     no [Fitness.eval]; if one of them wins, its evaluation is recomputed
     from the genome at the end. *)
  let first_restart, engine_resume =
    match resume with
    | None -> (0, ref None)
    | Some state -> (state.next_restart, ref state.engine)
  in
  let summaries =
    ref
      (match resume with
      | None -> []
      | Some state -> List.map (fun s -> (s, None)) state.completed)
  in
  for restart = first_restart to restarts - 1 do
    Mm_obs.Probe.run
      ~args:(fun () -> [ ("restart", string_of_int restart) ])
      p_restart
      (fun () ->
        let resume_ck = !engine_resume in
        engine_resume := None;
        (* An in-flight engine checkpoint was taken after this restart's
           [Prng.split]; splitting again would desynchronise the outer
           stream.  The child rng passed alongside a resume is superseded
           by the checkpointed state and never consumed. *)
        let child_rng =
          match resume_ck with None -> Prng.split rng | Some _ -> rng
        in
        let outer_state = Prng.state rng in
        let state_of engine =
          {
            seed;
            fingerprint;
            next_restart = restart;
            completed = List.map fst !summaries;
            outer_rng = outer_state;
            engine;
          }
        in
        (* Checkpoint persistence runs {e before} the yield callback: a
           cooperative scheduler suspends (and may be SIGKILLed) inside
           [yield], and the contract is that on-disk state is current at
           every suspension point. *)
        let summary, best_info =
          if use_islands then begin
            let topology =
              {
                Islands.islands = config.islands;
                migration_interval = config.migration_interval;
                migration_count = config.migration_count;
              }
            in
            let resume_islands =
              match resume_ck with
              | None -> None
              | Some (Sharded ck) -> Some ck
              | Some (Single _) ->
                invalid_arg
                  "Synthesis.run: snapshot carries single-engine state but \
                   islands are enabled"
            in
            (* The island model suspends at migration epochs, not at
               every generation: checkpoints and yields fire once per
               epoch (epochs are [migration_interval] generations
               apart), always from the owner domain. *)
            let on_epoch =
              match (checkpoint, yield) with
              | None, None -> None
              | _ ->
                Some
                  (fun (ck : Islands.checkpoint) ->
                    let fold f init =
                      Array.fold_left
                        (fun acc (m : Engine.checkpoint) -> f acc m)
                        init ck.Islands.members
                    in
                    (match checkpoint with
                    | Some sink when sink.every > 0 ->
                      save_state sink (state_of (Some (Sharded ck)))
                    | Some _ | None -> ());
                    match yield with
                    | None -> ()
                    | Some f ->
                      f
                        {
                          p_restart = restart;
                          p_generation =
                            fold (fun acc m -> max acc m.Engine.generation) 0;
                          p_best_fitness =
                            fold
                              (fun acc m -> Float.min acc (snd m.Engine.best))
                              infinity;
                          p_evaluations =
                            fold (fun acc m -> acc + m.Engine.evaluations) 0;
                        })
            in
            let r =
              Islands.run ~config:config.ga ~topology ?pool ~delta ?on_epoch
                ?resume:resume_islands ~rng:child_rng problem
            in
            let best = r.Islands.best in
            ( {
                r_genome = Array.copy best.Engine.best_genome;
                r_fitness = best.Engine.best_fitness;
                r_generations = r.Islands.generations;
                r_evaluations = r.Islands.evaluations;
                r_history = best.Engine.history;
              },
              best.Engine.best_info )
          end
          else begin
            let resume_engine =
              match resume_ck with
              | None -> None
              | Some (Single ck) -> Some ck
              | Some (Sharded _) ->
                invalid_arg
                  "Synthesis.run: snapshot carries island state but islands \
                   are disabled"
            in
            let on_generation =
              match (checkpoint, yield) with
              | None, None -> None
              | _ ->
                Some
                  (fun (ck : Engine.checkpoint) ->
                    (match checkpoint with
                    | Some sink
                      when sink.every > 0
                           && ck.Engine.generation mod sink.every = 0 ->
                      save_state sink (state_of (Some (Single ck)))
                    | Some _ | None -> ());
                    match yield with
                    | None -> ()
                    | Some f ->
                      f
                        {
                          p_restart = restart;
                          p_generation = ck.Engine.generation;
                          p_best_fitness = snd ck.Engine.best;
                          p_evaluations = ck.Engine.evaluations;
                        })
            in
            let result =
              Engine.run ~config:config.ga ?pool ~delta ?on_generation
                ?resume:resume_engine ~rng:child_rng problem
            in
            (summarize result, result.Engine.best_info)
          end
        in
        Log.debug (fun () ->
            Printf.sprintf "seed %d restart %d/%d: fitness %.6g in %d generations"
              seed (restart + 1) restarts summary.r_fitness
              summary.r_generations);
        summaries := !summaries @ [ (summary, Some best_info) ];
        (match checkpoint with
        | None -> ()
        | Some sink ->
          save_state sink
            {
              seed;
              fingerprint;
              next_restart = restart + 1;
              completed = List.map fst !summaries;
              outer_rng = Prng.state rng;
              engine = None;
            });
        (* One more suspension point between restarts, right after the
           between-restart checkpoint: a cancel or crash here resumes
           from restart + 1 with nothing lost. *)
        match yield with
        | None -> ()
        | Some f ->
          f
            {
              p_restart = restart;
              p_generation = summary.r_generations;
              p_best_fitness = summary.r_fitness;
              p_evaluations = summary.r_evaluations;
            })
  done;
  let cpu_seconds = Sys.time () -. started in
  let best_summary, best_eval =
    match !summaries with
    | [] -> assert false (* restarts >= 1 and resume summaries are checked *)
    | first :: rest ->
      List.fold_left
        (fun ((bs, _) as acc) ((s, _) as cand) ->
          if s.r_fitness < bs.r_fitness then cand else acc)
        first rest
  in
  let eval =
    match best_eval with
    | Some eval -> eval
    | None ->
      (* The winning restart was replayed from a snapshot; evaluation is
         pure, so recomputing it from the genome reproduces the
         evaluation the interrupted run held, bit-for-bit. *)
      Fitness.evaluate fitness_config spec best_summary.r_genome
  in
  let total f = List.fold_left (fun acc (s, _) -> acc + f s) 0 !summaries in
  Log.info (fun () ->
      Printf.sprintf
        "synthesis seed %d: power %.6g W, fitness %.6g, %d evaluations, %.2fs CPU" seed
        eval.Fitness.true_power best_summary.r_fitness
        (total (fun s -> s.r_evaluations))
        cpu_seconds);
  (* The audit re-derives the winning evaluation's claims independently
     of the scheduler and the scaler; a dirty report is surfaced, not
     raised — the caller decides whether it is fatal. *)
  let audit =
    if config.audit then begin
      let report = Audit.check ~config:fitness_config ~spec eval in
      if not report.Audit.clean then
        Log.warn (fun () -> Format.asprintf "%a" Audit.pp_report report);
      Some report
    end
    else None
  in
  {
    genome = best_summary.r_genome;
    eval;
    generations = total (fun s -> s.r_generations);
    evaluations = total (fun s -> s.r_evaluations);
    cpu_seconds;
    history = best_summary.r_history;
    audit;
  }

let average_power result = result.eval.Fitness.true_power
