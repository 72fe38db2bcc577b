module Stats = Mm_util.Stats

let p_checkpoint = Mm_obs.Probe.create "experiment/checkpoint"

type arm = {
  power : Stats.summary;
  cpu_seconds : Stats.summary;
  best : Synthesis.result;
}

type comparison = {
  without_probabilities : arm;
  with_probabilities : arm;
  reduction_percent : float;
}

type run_summary = {
  genome : int array;
  power : float;
  cpu_seconds : float;
  generations : int;
  evaluations : int;
  history : float list;
}

type state = {
  seed : int;
  runs : int;
  fingerprint : string option;
  baseline_done : run_summary list;
  proposed_done : run_summary list;
}

let summarize_run (r : Synthesis.result) =
  {
    genome = Array.copy r.Synthesis.genome;
    power = Synthesis.average_power r;
    cpu_seconds = r.Synthesis.cpu_seconds;
    generations = r.Synthesis.generations;
    evaluations = r.Synthesis.evaluations;
    history = r.Synthesis.history;
  }

let run_arm ~config ~spec ~runs ~seed ~completed ~on_run =
  if runs <= 0 then invalid_arg "Experiment.compare: runs must be positive";
  if List.length completed > runs then
    invalid_arg "Experiment.compare: snapshot holds more runs than requested";
  (* Oldest-first; replayed runs carry no [Synthesis.result] — if one of
     them ends up best, the result is rebuilt from its genome below. *)
  let pairs = ref (List.map (fun s -> (s, None)) completed) in
  for r = List.length completed to runs - 1 do
    let result = Synthesis.run ~config ~spec ~seed:(seed + r) () in
    pairs := !pairs @ [ (summarize_run result, Some result) ];
    match on_run with
    | None -> ()
    | Some save ->
      Mm_obs.Probe.run
        ~args:(fun () -> [ ("run", string_of_int r) ])
        p_checkpoint
        (fun () -> save (List.map fst !pairs))
  done;
  let powers = List.map (fun (s, _) -> s.power) !pairs in
  let cpu = List.map (fun (s, _) -> s.cpu_seconds) !pairs in
  let best_index, best_summary, best_result =
    match List.mapi (fun i (s, r) -> (i, s, r)) !pairs with
    | [] -> assert false (* runs >= 1 *)
    | first :: rest ->
      List.fold_left
        (fun ((_, bs, _) as acc) ((_, s, _) as cand) ->
          if s.power < bs.power then cand else acc)
        first rest
  in
  let best =
    match best_result with
    | Some result -> result
    | None ->
      (* Pure evaluation: recomputing from the genome reproduces the
         replayed run's evaluation bit-for-bit.  The effective config
         re-derives any robust Ψ samples from the replayed run's own
         seed. *)
      let fitness =
        Synthesis.effective_fitness_config config ~spec ~seed:(seed + best_index)
      in
      {
        Synthesis.genome = best_summary.genome;
        eval = Fitness.evaluate fitness spec best_summary.genome;
        generations = best_summary.generations;
        evaluations = best_summary.evaluations;
        cpu_seconds = best_summary.cpu_seconds;
        history = best_summary.history;
        audit = None;
      }
  in
  ( { power = Stats.summarize powers; cpu_seconds = Stats.summarize cpu; best },
    List.map fst !pairs )

let with_weighting weighting (config : Synthesis.config) =
  { config with Synthesis.fitness = { config.Synthesis.fitness with Fitness.weighting } }

let compare ?(config = Synthesis.default_config) ?checkpoint ?resume ~spec ~runs ~seed () =
  let baseline = with_weighting Fitness.Uniform config in
  (* The arms differ in weighting alone, so the baseline arm's
     fingerprint pins every trajectory-relevant field of both. *)
  let fingerprint = Synthesis.config_fingerprint baseline in
  (match resume with
  | None -> ()
  | Some st ->
    if st.seed <> seed || st.runs <> runs then
      invalid_arg "Experiment.compare: snapshot seed/runs do not match this comparison";
    (match st.fingerprint with
    | Some found when not (String.equal found fingerprint) ->
      invalid_arg
        "Experiment.compare: snapshot configuration does not match this comparison"
    | Some _ | None -> ());
    if List.length st.baseline_done > runs || List.length st.proposed_done > runs then
      invalid_arg "Experiment.compare: snapshot holds more runs than requested";
    (* The proposed arm only starts once the baseline arm is complete. *)
    if st.proposed_done <> [] && List.length st.baseline_done < runs then
      invalid_arg "Experiment.compare: snapshot proposed-arm runs precede a full baseline");
  let baseline_done = match resume with None -> [] | Some st -> st.baseline_done in
  let proposed_done = match resume with None -> [] | Some st -> st.proposed_done in
  let save baseline_done proposed_done =
    { seed; runs; fingerprint = Some fingerprint; baseline_done; proposed_done }
  in
  let without_probabilities, baseline_all =
    run_arm ~config:baseline ~spec ~runs ~seed ~completed:baseline_done
      ~on_run:
        (Option.map (fun sink summaries -> sink (save summaries [])) checkpoint)
  in
  let with_probabilities, _ =
    run_arm
      ~config:(with_weighting Fitness.True_probabilities config)
      ~spec ~runs ~seed ~completed:proposed_done
      ~on_run:
        (Option.map (fun sink summaries -> sink (save baseline_all summaries)) checkpoint)
  in
  {
    without_probabilities;
    with_probabilities;
    reduction_percent =
      Stats.percent_reduction ~from:without_probabilities.power.Stats.mean
        ~to_:with_probabilities.power.Stats.mean;
  }
