module Omsm = Mm_omsm.Omsm
module Mode = Mm_omsm.Mode
module Transition = Mm_omsm.Transition
module Power = Mm_energy.Power
module Pe = Mm_arch.Pe
module Arch = Mm_arch.Architecture

let pp_watts ppf w =
  if w < 1e-3 then Format.fprintf ppf "%.4gµW" (w *. 1e6)
  else if w < 1.0 then Format.fprintf ppf "%.4gmW" (w *. 1e3)
  else Format.fprintf ppf "%.4gW" w

let pp_eval spec ppf (eval : Fitness.eval) =
  let omsm = Spec.omsm spec in
  Format.fprintf ppf "average power (true Ψ): %a@." pp_watts eval.Fitness.true_power;
  Format.fprintf ppf "feasible: %b (timing %b, area %b, transition %b, routable %b)@."
    (Fitness.feasible eval) eval.Fitness.timing_feasible eval.Fitness.area_feasible
    eval.Fitness.transition_feasible eval.Fitness.routable;
  Array.iteri
    (fun i mp ->
      let mode = Omsm.mode omsm i in
      Format.fprintf ppf "  %s (Ψ=%g): dyn %a, stat %a" (Mode.name mode)
        (Mode.probability mode) pp_watts mp.Power.dyn_power pp_watts
        mp.Power.static_power;
      (match mp.Power.shut_down_pes with
      | [] -> ()
      | pes ->
        Format.fprintf ppf ", shut down PEs: %a"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
             Format.pp_print_int)
          pes);
      Format.fprintf ppf "@.")
    eval.Fitness.mode_powers;
  Format.fprintf ppf "  mapping:@.";
  Array.iteri
    (fun mode per_task ->
      Format.fprintf ppf "    %s:" (Mode.name (Omsm.mode omsm mode));
      Array.iteri
        (fun task pe ->
          Format.fprintf ppf " τ%d→%s" task (Pe.name (Arch.pe (Spec.arch spec) pe)))
        per_task;
      Format.fprintf ppf "@.")
    (eval.Fitness.mapping : Mapping.t :> int array array);
  match eval.Fitness.transition_times with
  | [] -> ()
  | entries ->
    Format.fprintf ppf "  transitions:@.";
    List.iter
      (fun (e : Transition_time.entry) ->
        Format.fprintf ppf "    %a: t=%g (limit %g)%s@." Transition.pp e.transition
          e.time
          (Transition.max_time e.transition)
          (if e.violation > 0.0 then "  VIOLATED" else ""))
      entries

let pp_result spec ppf (result : Synthesis.result) =
  pp_eval spec ppf result.Synthesis.eval;
  Format.fprintf ppf "GA: %d generations, %d evaluations, %.2fs CPU@."
    result.Synthesis.generations result.Synthesis.evaluations
    result.Synthesis.cpu_seconds;
  match result.Synthesis.audit with
  | None -> ()
  | Some report ->
    if report.Audit.clean then
      Format.fprintf ppf "audit: clean (%d modes checked)@."
        report.Audit.modes_checked
    else Format.fprintf ppf "%a" Audit.pp_report report

let print_result spec result =
  Format.printf "%a@?" (pp_result spec) result

let pp_fleet ppf fleet =
  Format.fprintf ppf "@[<v>%a@]@." Mm_energy.Fleet_sim.pp fleet

let print_fleet fleet = Format.printf "%a@?" pp_fleet fleet

let pp_metrics ppf () =
  let snap = Mm_obs.Metrics.snapshot () in
  let nonzero_counters = List.filter (fun (_, v) -> v <> 0) snap.Mm_obs.Metrics.counters in
  let nonzero_gauges = List.filter (fun (_, v) -> v <> 0.0) snap.Mm_obs.Metrics.gauges in
  let live_histograms =
    List.filter
      (fun (_, h) -> h.Mm_obs.Metrics.count > 0)
      snap.Mm_obs.Metrics.histograms
  in
  if nonzero_counters <> [] || nonzero_gauges <> [] || live_histograms <> [] then begin
    Format.fprintf ppf "metrics:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-24s %d@." name v)
      nonzero_counters;
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-24s %g@." name v)
      nonzero_gauges;
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf "  %-24s n=%-7d total %.1f ms, mean %.0f µs, max %.0f µs@."
          name h.Mm_obs.Metrics.count
          (h.Mm_obs.Metrics.sum /. 1e3)
          (h.Mm_obs.Metrics.sum /. float_of_int h.Mm_obs.Metrics.count)
          h.Mm_obs.Metrics.max)
      live_histograms;
    (* Derived per-mode cache hit rate (DESIGN.md §10): how many of the
       fitness pipeline's per-mode (schedule, scaling, power) lookups
       were answered from the compiled context's cache. *)
    let count name = try List.assoc name nonzero_counters with Not_found -> 0 in
    let hits = count "fitness/mode_cache_hits" in
    let misses = count "fitness/mode_cache_misses" in
    if hits + misses > 0 then
      Format.fprintf ppf "  %-24s %.1f%% (%d/%d)@." "mode cache hit rate"
        (100.0 *. float_of_int hits /. float_of_int (hits + misses))
        hits (hits + misses)
  end

let print_metrics () = Format.printf "%a@?" pp_metrics ()
