(* The fleet workload: Monte Carlo battery-life queries against one
   fixed smartphone design — the greedy timing anchor, so no GA runs. *)

module Synthesis = Mm_cosynth.Synthesis
module Fitness = Mm_cosynth.Fitness
module Spec = Mm_cosynth.Spec
module Fleet_sim = Mm_energy.Fleet_sim
module Pool = Mm_parallel.Pool
module Metrics = Mm_obs.Metrics
module Control = Mm_obs.Control

let model = Fleet_sim.Dirichlet { concentration = 50. }
let horizon = 1000.
let domains = 2

(* Everything a query needs before it can run: the spec, the design's
   mode powers, the walk table and the worker pool. *)
let setup text =
  let spec = Synth_work.parse text in
  let anchor =
    match Synthesis.greedy_timing_anchor spec with
    | Some g -> g
    | None -> failwith "fleet: the spec has no software anchor"
  in
  let mode_powers = (Fitness.evaluate Fitness.default_config spec anchor).Fitness.mode_powers in
  let sim = Fleet_sim.compile ~omsm:(Spec.omsm spec) ~mode_powers in
  (spec, mode_powers, sim, Pool.create ~domains ())

let run (o : Run.opts) report =
  let devices = if o.Run.smoke then 2_000 else 50_000 in
  let text = Mm_io.Codec.spec_to_string (Mm_benchgen.Smartphone.spec ()) in
  (* Set-up samples: a few now, two more after every repetition, so
     they sample the whole run. *)
  let setups = ref [] in
  let sample_setup () =
    let (_, _, _, pool), wall, _ = Measure.timed (fun () -> setup text) in
    Pool.shutdown pool;
    setups := wall :: !setups
  in
  for _ = 1 to 3 do
    sample_setup ()
  done;
  let between () =
    sample_setup ();
    sample_setup ()
  in
  let spec, mode_powers, _, pool = setup text in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let omsm = Spec.omsm spec in
  let query () =
    Fleet_sim.run ~pool ~model ~horizon ~devices ~omsm ~mode_powers ~seed:o.Run.seed ()
  in
  (* The discarded warm-up repetition's report is what every later one
     must reproduce byte for byte. *)
  let reference = Fleet_sim.to_json (query ()) in
  let walls = ref [] and cpus = ref [] and overheads = ref [] in
  let timed_rep () =
    let r, wall, cpu = Measure.timed query in
    walls := wall :: !walls;
    cpus := cpu :: !cpus;
    (match Checks.fleet_rep ~reference r with
    | Ok () -> Report.check report true "fleet rep"
    | Error e -> Report.check report false e);
    wall
  in
  let budget = if o.Run.smoke then 0. else o.Run.seconds in
  if not o.Run.trace then begin
    ignore (Run.repeat ~between ~seconds:budget ~min:3 (fun _ -> ignore (timed_rep ())));
    Report.set_median report "setup_s" (Array.of_list !setups);
    let walls = Array.of_list !walls in
    Report.set report "op_ms" ~samples:(Array.map (fun s -> s *. 1e3) walls)
      (Some (1e3 *. Measure.median walls));
    Report.set_median report "cpu_ms" (Array.map (fun s -> s *. 1e3) (Array.of_list !cpus));
    Report.set_median report "work_per_s" (Array.map (fun s -> float_of_int devices /. s) walls);
    Report.detail report "%d devices, Dirichlet(50) usage, horizon %.0f, %d domains, %d reps" devices
      horizon domains (Array.length walls)
  end
  else begin
    let compile_ms = ref [] and run_ms = ref [] and layer = ref [] in
    ignore (Run.repeat ~seconds:budget ~min:1 (fun _ ->
        let wall = timed_rep () in
        Metrics.reset ();
        Control.set_metrics true;
        Spans.enabled := true;
        let r =
          Fun.protect
            ~finally:(fun () ->
              Control.set_metrics false;
              Spans.enabled := false)
            (fun () ->
              Spans.run "bench/rep" (fun () ->
                  let _, c = Spans.measure "energy/fleet_compile" (fun () -> Fleet_sim.compile ~omsm ~mode_powers) in
                  let r, ms = Spans.measure "energy/fleet_run" query in
                  compile_ms := c :: !compile_ms;
                  run_ms := ms :: !run_ms;
                  overheads := (100. *. ((ms /. (wall *. 1e3)) -. 1.)) :: !overheads;
                  r))
        in
        (match Checks.fleet_rep ~reference r with
        | Ok () -> Report.check report true "traced fleet rep"
        | Error e -> Report.check report false ("traced: " ^ e));
        layer := (Metrics.snapshot (), r) :: !layer));
    let arr l = Array.of_list !l in
    Report.set_median report "energy.fleet_compile_ms" (arr compile_ms);
    Report.set_median report "energy.fleet_run_ms" (arr run_ms);
    Report.set_median report "obs.trace_overhead_pct" (arr overheads);
    let snap, r = List.hd !layer in
    Report.set report "energy.transitions_per_device" (Some r.Fleet_sim.stats.Fleet_sim.mean_transitions);
    List.iter (fun (name, v) -> Report.set report name v) (Measure.pool_values snap ~domains);
    let run = List.hd !run_ms in
    let batches = Option.value ~default:0. (Measure.hist_sum_ms snap "pool/batch_us") in
    Report.detail report
      "last traced rep: compile %.2f ms; run %.1f ms = pool batches %.1f ms + outside the pool %.1f ms (unattributed, %.1f%% of the run)"
      (List.hd !compile_ms) run batches (run -. batches)
      (100. *. (run -. batches) /. run)
  end;
  Report.set report "peak_rss_mb" (Some (Measure.peak_rss_mb ()))
