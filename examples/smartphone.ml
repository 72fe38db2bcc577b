(* The smart phone real-life benchmark (paper §5, Table 3), single run:
   synthesise the 8-mode OMSM of Fig. 1a onto the DVS-GPP + 2-ASIC
   architecture, with and without consideration of the mode usage
   profile, both without and with DVS.

   Run with:  dune exec examples/smartphone.exe
   (Pass --fast to use a smaller GA budget.) *)

module F = Mm_cosynth.Fitness
module Synthesis = Mm_cosynth.Synthesis
module Report = Mm_cosynth.Report
module Stats = Mm_util.Stats

let () =
  let fast = Array.exists (( = ) "--fast") Sys.argv in
  let spec = Mm_benchgen.Smartphone.spec () in
  let omsm = Mm_cosynth.Spec.omsm spec in
  Format.printf "smart phone: %a@." Mm_omsm.Omsm.pp omsm;
  List.iter
    (fun m ->
      Format.printf "  %-32s Ψ=%-5.2f φ=%gms, %d tasks@." (Mm_omsm.Mode.name m)
        (Mm_omsm.Mode.probability m)
        (Mm_omsm.Mode.period m *. 1e3)
        (Mm_omsm.Mode.n_tasks m))
    (Mm_omsm.Omsm.modes omsm);
  let ga =
    if fast then
      { Mm_ga.Engine.default_config with population_size = 24; max_generations = 40 }
    else Mm_ga.Engine.default_config
  in
  let synthesise ~weighting ~dvs =
    let config =
      { Synthesis.default_config with fitness = { F.default_config with weighting; dvs }; ga }
    in
    Synthesis.run ~config ~spec ~seed:11 ()
  in
  let report label result =
    Format.printf "@.--- %s: %.4g mW ---@." label
      (Synthesis.average_power result *. 1e3);
    Report.print_result spec result
  in
  let base_nodvs = synthesise ~weighting:F.Uniform ~dvs:F.No_dvs in
  let prop_nodvs = synthesise ~weighting:F.True_probabilities ~dvs:F.No_dvs in
  let dvs = F.Dvs Mm_dvs.Scaling.default_config in
  let base_dvs = synthesise ~weighting:F.Uniform ~dvs in
  let prop_dvs = synthesise ~weighting:F.True_probabilities ~dvs in
  report "w/o DVS, probabilities neglected " base_nodvs;
  report "w/o DVS, probabilities considered" prop_nodvs;
  report "DVS, probabilities neglected     " base_dvs;
  report "DVS, probabilities considered    " prop_dvs;
  let p r = Synthesis.average_power r in
  Format.printf
    "@.summary (paper Table 3 shape): %.4g -> %.4g mW (%.1f%%) w/o DVS; %.4g -> %.4g mW (%.1f%%) with DVS; overall %.1f%%@."
    (p base_nodvs *. 1e3) (p prop_nodvs *. 1e3)
    (Stats.percent_reduction ~from:(p base_nodvs) ~to_:(p prop_nodvs))
    (p base_dvs *. 1e3) (p prop_dvs *. 1e3)
    (Stats.percent_reduction ~from:(p base_dvs) ~to_:(p prop_dvs))
    (Stats.percent_reduction ~from:(p base_nodvs) ~to_:(p prop_dvs));
  (* Check the analytic Eq. (1) figure against simulated usage of the
     final implementation: a fleet of devices at the published
     probabilities. *)
  let fleet =
    Mm_energy.Fleet_sim.run ~devices:10_000 ~horizon:10_000.0
      ~omsm:(Mm_cosynth.Spec.omsm spec)
      ~mode_powers:prop_dvs.Synthesis.eval.F.mode_powers ~seed:2026 ()
  in
  let s = fleet.Mm_energy.Fleet_sim.stats in
  Format.printf
    "fleet simulation (10^4 devices, %.0f mode changes each): mean %.4g mW vs analytic %.4g mW@."
    s.Mm_energy.Fleet_sim.mean_transitions
    (s.Mm_energy.Fleet_sim.mean_power *. 1e3)
    (s.Mm_energy.Fleet_sim.analytic_power *. 1e3);
  (* What the reduction buys in the unit users care about. *)
  let cell = Mm_energy.Battery.phone_cell in
  Format.printf
    "battery (650 mAh at 3.7 V): %.0f h -> %.0f h standby-mix lifetime (+%.0f%%)@."
    (Mm_energy.Battery.lifetime_hours cell ~average_power:(p base_nodvs))
    (Mm_energy.Battery.lifetime_hours cell ~average_power:(p prop_dvs))
    (Mm_energy.Battery.extension_percent cell ~from_power:(p base_nodvs)
       ~to_power:(p prop_dvs))
