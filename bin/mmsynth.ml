(* mmsynth — command-line front end of the multi-mode co-synthesis
   library.

     mmsynth show <benchmark>                inspect a benchmark
     mmsynth check <spec> [--json]           validate, print diagnostics
     mmsynth synth <benchmark> [options]     synthesise one implementation
     mmsynth compare <benchmark> [options]   baseline vs proposed comparison
     mmsynth gantt <benchmark> [options]     synthesise and chart a mode
     mmsynth fleet <benchmark> <report>      Monte Carlo a device fleet
     mmsynth export <benchmark>              print the spec as S-expressions
     mmsynth export-json <benchmark>         task-network JSON of a synthesis
     mmsynth dot <benchmark> --mode N        dump a mode's task graph

   Benchmarks: "smartphone", "motivational", "mul1".."mul12",
   "random:<seed>", or "file:<path>" for a spec exported with
   `mmsynth export`.  Loading a file benchmark refuses on validation
   errors; `synth` and `compare` accept --force to proceed anyway.

   `synth` and `compare` accept --checkpoint FILE / --checkpoint-every N
   to periodically snapshot their state, --resume FILE to continue an
   interrupted run with bit-identical results, and --audit to re-derive
   the winning result's schedule/DVS invariants. *)

module Arch = Mm_arch.Architecture
module Pe = Mm_arch.Pe
module Cl = Mm_arch.Cl
module Mode = Mm_omsm.Mode
module Omsm = Mm_omsm.Omsm
module Graph = Mm_taskgraph.Graph
module Spec = Mm_cosynth.Spec
module Fitness = Mm_cosynth.Fitness
module Synthesis = Mm_cosynth.Synthesis
module Experiment = Mm_cosynth.Experiment
module Report = Mm_cosynth.Report
module Engine = Mm_ga.Engine
module Stats = Mm_util.Stats
module Validate = Mm_cosynth.Validate
module Audit = Mm_cosynth.Audit
open Cmdliner

let ( let* ) = Result.bind

let prefixed ~prefix name =
  if
    String.length name > String.length prefix
    && String.sub name 0 (String.length prefix) = prefix
  then Some (String.sub name (String.length prefix) (String.length name - String.length prefix))
  else None

(* Loading a spec file goes through the total decoder: validation errors
   come back as MM0xx diagnostics, and --force (synth/compare only)
   downgrades them to stderr noise as long as a spec is constructible at
   all. *)
let load_spec_file ~force path =
  if force then
    match Mm_io.Codec.check_file ~path with
    | Some spec, diags ->
      let errors = Validate.errors diags in
      if errors <> [] then
        Format.eprintf "%s: proceeding under --force despite:@.%a@." path
          Validate.pp_list errors;
      Ok spec
    | None, diags ->
      Error
        (`Msg
           (Format.asprintf "%s is beyond --force (no spec constructible):@.%a" path
              Validate.pp_list (Validate.errors diags)))
  else
    match Mm_io.Codec.load_spec_result ~path with
    | Ok spec -> Ok spec
    | Error diags ->
      Error
        (`Msg
           (Format.asprintf
              "cannot load %s:@.%a@.(inspect with `mmsynth check`; synth and compare \
               accept --force)"
              path Validate.pp_list diags))

let spec_of_benchmark ?(force = false) name =
  match name with
  | "smartphone" -> Ok (Mm_benchgen.Smartphone.spec ())
  | "motivational" -> Ok (Mm_benchgen.Motivational.spec ())
  | _ -> (
    match prefixed ~prefix:"mul" name with
    | Some digits -> (
      match int_of_string_opt digits with
      | Some i when i >= 1 && i <= 12 -> Ok (Mm_benchgen.Random_system.mul i)
      | Some _ | None -> Error (`Msg (Printf.sprintf "unknown benchmark %S" name)))
    | None -> (
      match prefixed ~prefix:"random:" name with
      | Some digits -> (
        match int_of_string_opt digits with
        | Some seed -> Ok (Mm_benchgen.Random_system.generate ~seed ())
        | None -> Error (`Msg "random:<seed> needs an integer seed"))
      | None -> (
        match prefixed ~prefix:"file:" name with
        | Some path -> load_spec_file ~force path
        | None -> Error (`Msg (Printf.sprintf "unknown benchmark %S" name)))))

(* The benchmark is resolved inside each subcommand, not in the argument
   parser, so flags parsed alongside it (--force) can steer the load. *)
let benchmark_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCHMARK"
        ~doc:
          "Benchmark to operate on: smartphone, motivational, mul1..mul12, \
           random:<seed>, or file:<path>.")

let force_arg =
  Arg.(
    value & flag
    & info [ "force" ]
        ~doc:
          "Load a file: benchmark even when validation reports error diagnostics \
           (they are still printed to stderr).")

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Re-derive the winning result's schedules, DVS voltages and penalty claims \
           through the invariant auditor; any violation fails the command after the \
           report.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Synthesis random seed.")

let dvs_arg =
  Arg.(value & flag & info [ "dvs" ] ~doc:"Enable dynamic voltage scaling.")

let runs_arg =
  Arg.(
    value & opt int 5
    & info [ "runs" ] ~docv:"N" ~doc:"Repeated synthesis runs per arm (paper: 40).")

let uniform_arg =
  Arg.(
    value & flag
    & info [ "neglect-probabilities" ]
        ~doc:"Optimise with uniform mode weights (the paper's baseline).")

let generations_arg =
  Arg.(
    value
    & opt int Engine.default_config.Engine.max_generations
    & info [ "generations" ] ~docv:"N" ~doc:"GA generation limit.")

let population_arg =
  Arg.(
    value
    & opt int Engine.default_config.Engine.population_size
    & info [ "population" ] ~docv:"N" ~doc:"GA population size.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains evaluating each GA generation in parallel (default 1 = serial). \
           Results are identical at any job count; only wall-clock time changes. \
           Clamped to the machine's cores unless $(b,--allow-oversubscribe) is \
           given.")

let allow_oversubscribe_arg =
  Arg.(
    value & flag
    & info [ "allow-oversubscribe" ]
        ~doc:
          "Permit $(b,--jobs) beyond the machine's cores.  Oversubscription \
           consistently loses wall-clock time on this workload (see \
           BENCH_parallel.json), so the default clamps.")

let effective_jobs ~allow_oversubscribe jobs =
  let clamped = Mm_parallel.Pool.clamp_jobs ~allow_oversubscribe jobs in
  if clamped <> jobs then
    Printf.eprintf
      "mmsynth: clamping --jobs %d to %d (cores; pass --allow-oversubscribe to \
       override)\n\
       %!"
      jobs clamped;
  clamped

let islands_arg =
  Arg.(
    value & opt int 1
    & info [ "islands" ] ~docv:"N"
        ~doc:
          "GA islands per restart (default 1 = a single population).  With N > 1 \
           the population is sharded into N independent islands with periodic \
           deterministic migration; $(b,--jobs) domains then schedule whole \
           islands instead of evaluation batches.  Unlike $(b,--jobs) this \
           changes the search trajectory (still deterministic per seed, \
           identical at any job count).")

let migration_every_arg =
  Arg.(
    value
    & opt int Mm_ga.Islands.default_topology.Mm_ga.Islands.migration_interval
    & info [ "migration-every" ] ~docv:"N"
        ~doc:
          "Generations between island migration epochs (only meaningful with \
           $(b,--islands) > 1).")

let migrants_arg =
  Arg.(
    value
    & opt int Mm_ga.Islands.default_topology.Mm_ga.Islands.migration_count
    & info [ "migrants" ] ~docv:"N"
        ~doc:
          "Members each island exports to its ring successor per migration epoch \
           (0 disables migration; only meaningful with $(b,--islands) > 1).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace_event file of the run (open it in Perfetto or \
           chrome://tracing). Tracing never changes synthesis results.")

let trace_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"FILE"
        ~doc:"Record the trace as one JSON event per line (for ad-hoc tooling).")

let trace_fine_arg =
  Arg.(
    value & flag
    & info [ "trace-fine" ]
        ~doc:
          "Include fine-grained spans (per-evaluation fitness phases, scheduler and \
           DVS invocations) in the trace. Large: expect one span per fitness phase \
           per evaluation.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect counters, latency histograms and per-generation GA series, write \
           them to FILE as JSON and print a summary after the report.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Periodically snapshot the run's state to FILE (atomic write-rename), so \
           an interrupted run can be continued with --resume. Checkpointing never \
           changes synthesis results.")

let checkpoint_every_arg =
  Arg.(
    value & opt int 5
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Snapshot every N GA generations (synth; compare always snapshots per \
           completed run).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Continue from a snapshot written by --checkpoint instead of starting \
           fresh. The snapshot must belong to the same benchmark and configuration; \
           its recorded seed overrides --seed. The resumed run's result is \
           bit-identical to the uninterrupted one's.")

let kill_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill-after-checkpoints" ] ~docv:"N"
        ~doc:
          "Testing aid: SIGKILL this process right after the N-th checkpoint write, \
           simulating a crash mid-run (used by the CI soak test).")

let log_level_arg =
  let parse s =
    match Mm_obs.Log.level_of_string s with
    | Ok level -> Ok level
    | Stdlib.Error message -> Error (`Msg message)
  in
  let print ppf level = Format.pp_print_string ppf (Mm_obs.Log.level_to_string level) in
  Arg.(
    value
    & opt (conv (parse, print)) Mm_obs.Log.Warn
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Diagnostic verbosity on stderr: quiet, error, warn, info or debug.")

(* --- fleet simulation and robust-usage arguments ----------------------------- *)

(* Spelling shared by --usage and --robust: point, dirichlet:<c>,
   jitter:<sigma> or mixture:<name>=<weight>@<p,p,...>[;...] — one
   named persona per ';'-separated entry, probabilities normalised on
   use (mode-count agreement with the spec is checked at the use site
   by Fleet_sim.validate_model). *)
let usage_model_conv =
  let module F = Mm_energy.Fleet_sim in
  let parse_profile entry =
    match String.index_opt entry '=' with
    | None ->
      Error
        (Printf.sprintf "mixture entry %S: expected <name>=<weight>@<p,p,...>"
           entry)
    | Some eq -> (
      let name = String.sub entry 0 eq in
      let rest = String.sub entry (eq + 1) (String.length entry - eq - 1) in
      if name = "" then Error (Printf.sprintf "mixture entry %S: empty persona name" entry)
      else
        match String.index_opt rest '@' with
        | None ->
          Error
            (Printf.sprintf "mixture entry %S: missing '@<p,p,...>' probabilities"
               entry)
        | Some at -> (
          let weight_text = String.sub rest 0 at in
          let psi_text = String.sub rest (at + 1) (String.length rest - at - 1) in
          match float_of_string_opt weight_text with
          | Some w when w > 0.0 && Float.is_finite w -> (
            let fields = String.split_on_char ',' psi_text in
            let psi = List.map float_of_string_opt fields in
            let bad p = match p with
              | Some v -> not (v >= 0.0 && Float.is_finite v)
              | None -> true
            in
            if psi = [] || List.exists bad psi then
              Error
                (Printf.sprintf
                   "mixture entry %S: probabilities must be non-negative numbers"
                   entry)
            else
              let psi = Array.of_list (List.map Option.get psi) in
              if Array.for_all (fun p -> p = 0.0) psi then
                Error
                  (Printf.sprintf "mixture entry %S: probabilities are all zero"
                     entry)
              else Ok { F.name; weight = w; psi })
          | Some _ | None ->
            Error
              (Printf.sprintf "mixture entry %S: weight must be a positive number"
                 entry)))
  in
  let parse s =
    if s = "point" then Ok F.Point
    else
      match prefixed ~prefix:"dirichlet:" s with
      | Some c -> (
        match float_of_string_opt c with
        | Some c when c > 0.0 && Float.is_finite c ->
          Ok (F.Dirichlet { concentration = c })
        | Some _ | None ->
          Error
            (`Msg
               (Printf.sprintf "Dirichlet concentration must be a positive number: %S" c)))
      | None -> (
        match prefixed ~prefix:"jitter:" s with
        | Some sigma -> (
          match float_of_string_opt sigma with
          | Some v when v >= 0.0 && Float.is_finite v -> Ok (F.Holding_jitter { sigma = v })
          | Some _ | None ->
            Error
              (`Msg (Printf.sprintf "jitter sigma must be a non-negative number: %S" sigma)))
        | None -> (
          match prefixed ~prefix:"mixture:" s with
          | Some body -> (
            let entries =
              List.filter (fun e -> e <> "") (String.split_on_char ';' body)
            in
            if entries = [] then
              Error (`Msg "mixture: needs at least one <name>=<weight>@<p,...> entry")
            else
              let rec collect acc = function
                | [] -> Ok (F.Mixture (List.rev acc))
                | entry :: rest -> (
                  match parse_profile entry with
                  | Ok profile -> collect (profile :: acc) rest
                  | Error message -> Error (`Msg message))
              in
              collect [] entries)
          | None ->
            Error
              (`Msg
                 (Printf.sprintf
                    "unknown usage model %S (expected point, dirichlet:<c>, \
                     jitter:<sigma> or mixture:<name>=<weight>@<p,p,...>[;...])"
                    s))))
  in
  let print ppf model =
    Format.pp_print_string ppf (Mm_energy.Fleet_sim.model_to_string model)
  in
  Arg.conv (parse, print)

let usage_arg =
  Arg.(
    value
    & opt usage_model_conv Mm_energy.Fleet_sim.Point
    & info [ "usage" ] ~docv:"MODEL"
        ~doc:
          "Per-device usage model for the fleet simulation: $(b,point) (every device \
           follows the published Ψ), $(b,dirichlet:<c>) (per-device Ψ ~ \
           Dirichlet(c·Ψ)), $(b,jitter:<sigma>) (log-normal holding-time \
           factors) or $(b,mixture:name=weight@p,p,...;...) (named personas \
           drawn by weight; probabilities are normalised and must match the \
           spec's mode count).")

let devices_arg =
  Arg.(
    value & opt int 10_000
    & info [ "devices" ] ~docv:"N" ~doc:"Fleet size for the Monte Carlo simulation.")

let fleet_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fleet-seed" ] ~docv:"SEED"
        ~doc:"Fleet simulation seed (default: synthesis seed + 1).")

let fleet_horizon_arg =
  Arg.(
    value & opt float 10_000.0
    & info [ "fleet-horizon" ] ~docv:"T"
        ~doc:
          "Operational time per device (seconds).  It must cover at least 200 expected \
           mode transitions under the published probabilities.")

let fleet_flag =
  Arg.(
    value & flag
    & info [ "fleet" ]
        ~doc:
          "After the report, Monte Carlo a device fleet against the winning \
           implementation and print the battery-life distribution (see $(b,--devices), \
           $(b,--usage), $(b,--fleet-horizon), $(b,--fleet-seed)).")

let robust_arg =
  Arg.(
    value
    & opt (some usage_model_conv) None
    & info [ "robust" ] ~docv:"MODEL"
        ~doc:
          "Optimise for a usage-uncertainty model instead of the point Ψ: fitness \
           scores each candidate against $(b,--robust-samples) Ψ draws from MODEL \
           ($(b,dirichlet:<c>) or $(b,jitter:<sigma>); $(b,point) is a no-op that \
           keeps the stock fitness bit-for-bit).")

let robust_samples_arg =
  Arg.(
    value & opt int 64
    & info [ "robust-samples" ] ~docv:"N"
        ~doc:"Ψ draws per fitness evaluation under $(b,--robust).")

let robust_objective_conv =
  let parse s =
    if s = "mean" then Ok Fitness.Expected_lifetime
    else
      match prefixed ~prefix:"p" s with
      | Some pct -> (
        match float_of_string_opt pct with
        | Some p when p > 0.0 && p <= 100.0 -> Ok (Fitness.Percentile (p /. 100.0))
        | Some _ | None ->
          Error (`Msg (Printf.sprintf "percentile must be in (0, 100]: %S" s)))
      | None ->
        Error
          (`Msg (Printf.sprintf "unknown robust objective %S (expected mean or p<q>)" s))
  in
  let print ppf = function
    | Fitness.Expected_lifetime -> Format.pp_print_string ppf "mean"
    | Fitness.Percentile q -> Format.fprintf ppf "p%g" (q *. 100.0)
  in
  Arg.conv (parse, print)

let robust_objective_arg =
  Arg.(
    value
    & opt robust_objective_conv Fitness.Expected_lifetime
    & info [ "robust-objective" ] ~docv:"OBJ"
        ~doc:
          "What $(b,--robust) optimises across the Ψ draws: $(b,mean) (power \
           equivalent to the expected battery lifetime) or $(b,p<q>) (worst-case \
           q-th lifetime percentile, e.g. $(b,p10)).")

(* Flip the observability switches requested on the command line, run the
   subcommand body, then flush the sinks and write the metrics file.
   Unwritable paths surface as ordinary CLI errors, not crashes. *)
let with_obs trace trace_jsonl trace_fine metrics log_level f =
  let finish () =
    Mm_obs.Trace.close ();
    match metrics with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Mm_obs.Metrics.to_json_string ());
      output_char oc '\n';
      close_out oc;
      Report.print_metrics ();
      Format.printf "metrics written to %s@." path
  in
  match
    Mm_obs.Log.set_level log_level;
    Option.iter (fun path -> Mm_obs.Trace.open_chrome ~path) trace;
    Option.iter (fun path -> Mm_obs.Trace.open_jsonl ~path) trace_jsonl;
    if trace_fine then Mm_obs.Control.set_fine true;
    if Option.is_some metrics then Mm_obs.Control.set_metrics true;
    Fun.protect ~finally:finish f
  with
  | result -> result
  | exception Sys_error message ->
    Mm_obs.Trace.close ();
    Error (`Msg message)
  | exception Fun.Finally_raised (Sys_error message) -> Error (`Msg message)

(* Synthesis done: Monte Carlo the device fleet against the winning
   implementation, print the distribution, optionally persist the JSON
   report.  The fleet seed defaults to the synthesis seed + 1. *)
let run_fleet devices usage fleet_seed horizon ~seed ~report spec
    (result : Synthesis.result) =
  let omsm = Spec.omsm spec in
  let mode_powers = result.Synthesis.eval.Fitness.mode_powers in
  let seed = Option.value fleet_seed ~default:(seed + 1) in
  match
    let fleet =
      Mm_energy.Fleet_sim.run ~model:usage ~horizon ~devices ~omsm ~mode_powers ~seed ()
    in
    Report.print_fleet fleet;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Mm_energy.Fleet_sim.to_json fleet);
        output_char oc '\n';
        close_out oc;
        Format.printf "fleet report written to %s@." path)
      report
  with
  | () -> Ok ()
  | exception Invalid_argument message -> Error (`Msg message)
  | exception Sys_error message -> Error (`Msg message)

(* --- shared terms: run configuration, observability, fleet ------------------- *)

(* A verb's [Synthesis.config] is one term: the search flags it offers,
   mapped by [Synthesis.config_of_flags] (the mapping the daemon's job
   options go through too), with a flag the verb lacks held at its
   default; then whichever option groups the verb takes, each a
   [config -> config] term layered on with [+>]. *)
let search_config ~uniform ~generations ~population =
  Term.(
    const (fun dvs uniform generations population ->
        Synthesis.config_of_flags ~dvs ~uniform ~generations ~population)
    $ dvs_arg $ uniform $ generations $ population)

(* --dvs, --neglect-probabilities, --generations, --population. *)
let config_term =
  search_config ~uniform:uniform_arg ~generations:generations_arg
    ~population:population_arg

(* compare runs both weightings, so it has no --neglect-probabilities. *)
let compare_config_term =
  search_config ~uniform:(Term.const false) ~generations:generations_arg
    ~population:population_arg

(* --dvs alone, at the default GA budget. *)
let dvs_config_term =
  search_config ~uniform:(Term.const false)
    ~generations:(Term.const Engine.default_config.Engine.max_generations)
    ~population:(Term.const Engine.default_config.Engine.population_size)

let ( +> ) config update =
  Term.(const (fun config update -> update config) $ config $ update)

(* --jobs, clamped to the cores unless --allow-oversubscribe. *)
let jobs_term =
  Term.(
    const (fun jobs allow_oversubscribe config ->
        { config with Synthesis.jobs = effective_jobs ~allow_oversubscribe jobs })
    $ jobs_arg $ allow_oversubscribe_arg)

(* --islands, --migration-every, --migrants. *)
let islands_term =
  Term.(
    const (fun islands migration_interval migration_count config ->
        { config with Synthesis.islands; migration_interval; migration_count })
    $ islands_arg $ migration_every_arg $ migrants_arg)

(* --robust, --robust-samples, --robust-objective, against the phone cell. *)
let robust_term =
  Term.(
    const (fun robust samples objective config ->
        let robust =
          Option.map
            (fun model ->
              {
                Synthesis.model;
                samples;
                objective;
                battery = Mm_energy.Battery.phone_cell;
              })
            robust
        in
        { config with Synthesis.robust })
    $ robust_arg $ robust_samples_arg $ robust_objective_arg)

let audit_term =
  Term.(const (fun audit (config : Synthesis.config) -> { config with audit }) $ audit_arg)

(* --trace, --trace-jsonl, --trace-fine, --metrics, --log-level: yields
   [with_obs] with those settings, to wrap a verb's body. *)
let obs_term =
  Term.(
    const with_obs $ trace_arg $ trace_jsonl_arg $ trace_fine_arg $ metrics_arg
    $ log_level_arg)

(* --devices, --usage, --fleet-seed, --fleet-horizon: yields
   [run_fleet] with those settings. *)
let fleet_term =
  Term.(
    const run_fleet $ devices_arg $ usage_arg $ fleet_seed_arg
    $ fleet_horizon_arg)

(* --- show ------------------------------------------------------------------- *)

let show name =
  let* spec = spec_of_benchmark name in
  let omsm = Spec.omsm spec in
  let arch = Spec.arch spec in
  Format.printf "%a@." Omsm.pp omsm;
  Format.printf "probability entropy: %.3f nats@." (Omsm.probability_entropy omsm);
  Format.printf "@.modes:@.";
  List.iter
    (fun mode ->
      let metrics = Mm_taskgraph.Metrics.compute (Mode.graph mode) in
      Format.printf
        "  %-34s Ψ=%-6.3f φ=%-8gms %3d tasks %3d edges depth %2d width %2d par %.2f@."
        (Mode.name mode) (Mode.probability mode)
        (Mode.period mode *. 1e3)
        metrics.Mm_taskgraph.Metrics.n_tasks metrics.Mm_taskgraph.Metrics.n_edges
        metrics.Mm_taskgraph.Metrics.depth metrics.Mm_taskgraph.Metrics.width
        metrics.Mm_taskgraph.Metrics.parallelism)
    (Omsm.modes omsm);
  Format.printf "@.architecture:@.";
  List.iter (fun pe -> Format.printf "  %a@." Pe.pp pe) (Arch.pes arch);
  List.iter (fun cl -> Format.printf "  %a@." Cl.pp cl) (Arch.cls arch);
  let shared = Omsm.shared_task_types omsm in
  Format.printf "@.%d task types, %d shared across modes: %s@."
    (Mm_taskgraph.Task_type.Set.cardinal (Omsm.all_task_types omsm))
    (Mm_taskgraph.Task_type.Set.cardinal shared)
    (String.concat ", "
       (List.map Mm_taskgraph.Task_type.name
          (Mm_taskgraph.Task_type.Set.elements shared)));
  Ok ()

let show_cmd =
  let term = Term.(term_result (const show $ benchmark_arg)) in
  Cmd.v (Cmd.info "show" ~doc:"Inspect a benchmark's OMSM and architecture.") term

(* --- check ------------------------------------------------------------------ *)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the diagnostics as one JSON object on stdout.")

let diags_to_json ~target diags =
  let module J = Mm_obs.Json in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"target\":";
  J.str b target;
  Buffer.add_string b ",\"errors\":";
  J.int b (List.length (Validate.errors diags));
  Buffer.add_string b ",\"warnings\":";
  J.int b (List.length (Validate.warnings diags));
  Buffer.add_string b ",\"diagnostics\":[";
  let first = ref true in
  List.iter
    (fun (d : Validate.diag) ->
      J.field_sep b ~first;
      Buffer.add_string b "{\"code\":";
      J.str b d.Validate.code;
      Buffer.add_string b ",\"severity\":";
      J.str b
        (match d.Validate.severity with
        | Validate.Error -> "error"
        | Validate.Warning -> "warning");
      Buffer.add_string b ",\"path\":";
      J.str b d.Validate.path;
      Buffer.add_string b ",\"message\":";
      J.str b d.Validate.message;
      (match d.Validate.pos with
      | None -> ()
      | Some (line, column) ->
        Buffer.add_string b ",\"line\":";
        J.int b line;
        Buffer.add_string b ",\"column\":";
        J.int b column);
      Buffer.add_char b '}')
    diags;
  Buffer.add_string b "]}";
  Buffer.contents b

(* A spec file (bare path or file:<path>) goes through the total decoder;
   a builtin benchmark name is generated and cross-checked with
   [Validate.check_spec].  Exit status: 0 clean, 1 warnings only, 2 any
   error — machine-usable from CI. *)
let check_impl target json =
  let* spec, diags =
    match prefixed ~prefix:"file:" target with
    | Some path -> Ok (Mm_io.Codec.check_file ~path)
    | None ->
      if Sys.file_exists target && not (Sys.is_directory target) then
        Ok (Mm_io.Codec.check_file ~path:target)
      else
        let* spec = spec_of_benchmark target in
        Ok (Some spec, Validate.check_spec spec)
  in
  if json then print_endline (diags_to_json ~target diags)
  else begin
    if diags <> [] then Format.printf "%a@." Validate.pp_list diags;
    let n_errors = List.length (Validate.errors diags) in
    let n_warnings = List.length (Validate.warnings diags) in
    if n_errors = 0 && n_warnings = 0 then Format.printf "%s: OK@." target
    else
      Format.printf "%s: %d error%s, %d warning%s%s@." target n_errors
        (if n_errors = 1 then "" else "s")
        n_warnings
        (if n_warnings = 1 then "" else "s")
        (if spec = None then " (no spec constructible)" else "")
  end;
  Stdlib.exit (Validate.exit_code diags)

let check_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC"
          ~doc:
            "What to validate: a spec file path (bare or file:<path>) or a builtin \
             benchmark name.")
  in
  let term = Term.(term_result (const check_impl $ target_arg $ json_arg)) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a specification and print structured MM0xx diagnostics (exit 0 \
          clean, 1 warnings only, 2 errors).")
    term

(* --- synth ------------------------------------------------------------------- *)

(* Load a snapshot for --resume, mapping every failure to a CLI error. *)
let load_snapshot ~spec path =
  match Mm_io.Snapshot.load ~path ~spec with
  | Ok payload -> Ok payload
  | Error e ->
    Error (`Msg (Printf.sprintf "%s: %s" path (Mm_io.Snapshot.error_to_string e)))

(* Wrap a checkpoint-writing function so the process SIGKILLs itself
   right after the [kill_after]-th write — the CI soak test's simulated
   crash. *)
let with_kill_switch ~kill_after save =
  match kill_after with
  | None -> save
  | Some n ->
    let written = ref 0 in
    fun state ->
      save state;
      incr written;
      if !written >= n then Unix.kill (Unix.getpid ()) Sys.sigkill

let synth name force seed config fleet run_fleet checkpoint checkpoint_every resume
    kill_after with_obs =
  with_obs @@ fun () ->
  let* spec = spec_of_benchmark ~force name in
  let* resume =
    match resume with
    | None -> Ok None
    | Some path -> (
      match load_snapshot ~spec path with
      | Ok (Mm_io.Snapshot.Synth state) -> Ok (Some state)
      | Ok (Mm_io.Snapshot.Compare _) ->
        Error
          (`Msg
             (Printf.sprintf
                "%s holds a comparison snapshot; resume it with `mmsynth compare`" path))
      | Error _ as e -> e)
  in
  (* The snapshot records the seed the interrupted run was started with;
     resuming under any other seed could not reproduce it. *)
  let seed =
    match resume with Some state -> state.Synthesis.seed | None -> seed
  in
  let checkpoint =
    Option.map
      (fun path ->
        let sink = Mm_io.Snapshot.synth_sink ~path ~spec ~every:checkpoint_every () in
        { sink with Synthesis.save = with_kill_switch ~kill_after sink.Synthesis.save })
      checkpoint
  in
  match Synthesis.run ~config ?checkpoint ?resume ~spec ~seed () with
  | result -> (
    Report.print_result spec result;
    let* () =
      if fleet then run_fleet ~seed ~report:None spec result
      else Ok ()
    in
    match result.Synthesis.audit with
    | Some report when not report.Audit.clean ->
      Error
        (`Msg
           (Printf.sprintf "audit failed: %d violation(s), see report above"
              (List.length report.Audit.violations)))
    | Some _ | None -> Ok ())
  | exception Invalid_argument message -> Error (`Msg message)

let synth_cmd =
  let term =
    Term.(
      term_result
        (const synth $ benchmark_arg $ force_arg $ seed_arg
        $ (config_term +> jobs_term +> islands_term +> robust_term +> audit_term)
        $ fleet_flag $ fleet_term $ checkpoint_arg $ checkpoint_every_arg $ resume_arg
        $ kill_after_arg $ obs_term))
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Synthesise one implementation and print the mapping and power report.")
    term

(* --- compare ------------------------------------------------------------------ *)

let compare_cmd_impl name force seed runs config fleet run_fleet checkpoint resume
    kill_after with_obs =
  with_obs @@ fun () ->
  let* spec = spec_of_benchmark ~force name in
  let* resume =
    match resume with
    | None -> Ok None
    | Some path -> (
      match load_snapshot ~spec path with
      | Ok (Mm_io.Snapshot.Compare state) -> Ok (Some state)
      | Ok (Mm_io.Snapshot.Synth _) ->
        Error
          (`Msg
             (Printf.sprintf
                "%s holds a single-run snapshot; resume it with `mmsynth synth`" path))
      | Error _ as e -> e)
  in
  let seed, runs =
    match resume with
    | Some state -> (state.Experiment.seed, state.Experiment.runs)
    | None -> (seed, runs)
  in
  let checkpoint =
    Option.map
      (fun path ->
        with_kill_switch ~kill_after (fun state ->
            Mm_io.Snapshot.save ~path ~spec (Mm_io.Snapshot.Compare state)))
      checkpoint
  in
  let* c =
    match Experiment.compare ~config ?checkpoint ?resume ~spec ~runs ~seed () with
    | c -> Ok c
    | exception Invalid_argument message -> Error (`Msg message)
  in
  let pp_arm name (arm : Experiment.arm) =
    Format.printf "%s: %.4g mW (std %.2g, %d runs, %.1fs CPU/run)@." name
      (arm.Experiment.power.Stats.mean *. 1e3)
      (arm.Experiment.power.Stats.std *. 1e3)
      arm.Experiment.power.Stats.n arm.Experiment.cpu_seconds.Stats.mean
  in
  pp_arm "without probabilities (baseline)" c.Experiment.without_probabilities;
  pp_arm "with probabilities    (proposed)" c.Experiment.with_probabilities;
  Format.printf "reduction: %.2f%%@." c.Experiment.reduction_percent;
  (* Both arms' best designs fleet-simulate under the SAME usage draws
     (one --fleet-seed), so the distributions differ only by design. *)
  let* () =
    if not fleet then Ok ()
    else
      let simulate label (arm : Experiment.arm) =
        Format.printf "fleet of %s best:@." label;
        run_fleet ~seed ~report:None spec arm.Experiment.best
      in
      let* () = simulate "baseline" c.Experiment.without_probabilities in
      simulate "proposed" c.Experiment.with_probabilities
  in
  (* Replayed (resumed) best runs carry no live audit report; only runs
     executed here can fail the command. *)
  let dirty (arm : Experiment.arm) =
    match arm.Experiment.best.Synthesis.audit with
    | Some report -> not report.Audit.clean
    | None -> false
  in
  if dirty c.Experiment.without_probabilities || dirty c.Experiment.with_probabilities
  then Error (`Msg "audit failed: violations in a winning result (see warnings above)")
  else Ok ()

let compare_cmd =
  let term =
    Term.(
      term_result
        (const compare_cmd_impl $ benchmark_arg $ force_arg $ seed_arg $ runs_arg
        $ (compare_config_term +> jobs_term +> islands_term +> robust_term +> audit_term)
        $ fleet_flag $ fleet_term $ checkpoint_arg $ resume_arg $ kill_after_arg
        $ obs_term))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run the paper's experiment: synthesis with vs without mode execution \
          probabilities.")
    term

(* --- dot ------------------------------------------------------------------------ *)

let dot name mode =
  let* spec = spec_of_benchmark name in
  let omsm = Spec.omsm spec in
  if mode < 0 || mode >= Omsm.n_modes omsm then
    Error (`Msg (Printf.sprintf "mode %d out of range" mode))
  else begin
    print_string (Graph.to_dot (Mode.graph (Omsm.mode omsm mode)));
    Ok ()
  end

let mode_arg =
  Arg.(value & opt int 0 & info [ "mode" ] ~docv:"N" ~doc:"Mode id to dump.")

let dot_cmd =
  let term = Term.(term_result (const dot $ benchmark_arg $ mode_arg)) in
  Cmd.v (Cmd.info "dot" ~doc:"Print a mode's task graph in Graphviz format.") term

(* --- export ---------------------------------------------------------------- *)

let export name =
  let* spec = spec_of_benchmark name in
  print_string (Mm_io.Codec.spec_to_string spec);
  Ok ()

let export_cmd =
  let term = Term.(term_result (const export $ benchmark_arg)) in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Print the benchmark's full specification as S-expressions (reload \
             with file:<path>).")
    term

(* --- export-json ------------------------------------------------------------- *)

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the JSON to FILE instead of stdout.")

let export_json name force seed config output =
  let* spec = spec_of_benchmark ~force name in
  match Synthesis.run ~config ~spec ~seed () with
  | result -> (
    let json = Mm_cosynth.Export_json.to_string spec result.Synthesis.eval in
    match output with
    | None ->
      print_string json;
      print_newline ();
      Ok ()
    | Some path -> (
      match
        let oc = open_out path in
        output_string oc json;
        output_char oc '\n';
        close_out oc
      with
      | () ->
        Format.printf "task network written to %s@." path;
        Ok ()
      | exception Sys_error message -> Error (`Msg message)))
  | exception Invalid_argument message -> Error (`Msg message)

let export_json_cmd =
  let term =
    Term.(
      term_result
        (const export_json $ benchmark_arg $ force_arg $ seed_arg
        $ (config_term +> jobs_term) $ output_arg))
  in
  Cmd.v
    (Cmd.info "export-json"
       ~doc:
         "Synthesise and export the winning implementation as one task-network JSON \
          object (schema mmsyn-task-network, version 1).")
    term

(* --- gantt ----------------------------------------------------------------- *)

let gantt name seed config mode =
  let* spec = spec_of_benchmark name in
  let omsm = Spec.omsm spec in
  if mode < 0 || mode >= Omsm.n_modes omsm then
    Error (`Msg (Printf.sprintf "mode %d out of range" mode))
  else begin
    let result = Synthesis.run ~config ~spec ~seed () in
    let eval = result.Synthesis.eval in
    let sched = eval.Fitness.schedules.(mode) in
    (match config.Synthesis.fitness.Fitness.dvs with
    | Fitness.Dvs _ ->
      print_string
        (Mm_sched.Gantt.render_scaled sched
           ~stretched_finish:eval.Fitness.scalings.(mode).Mm_dvs.Scaling.stretched_finish)
    | Fitness.No_dvs -> print_string (Mm_sched.Gantt.render sched));
    Ok ()
  end

let gantt_cmd =
  let term =
    Term.(
      term_result (const gantt $ benchmark_arg $ seed_arg $ dvs_config_term $ mode_arg))
  in
  Cmd.v
    (Cmd.info "gantt" ~doc:"Synthesise, then chart one mode's schedule as ASCII Gantt.")
    term

(* --- fleet ------------------------------------------------------------------- *)

let fleet_report_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"REPORT" ~doc:"Path the fleet JSON report is written to.")

let fleet_cmd_impl name force seed config run_fleet report =
  let* spec = spec_of_benchmark ~force name in
  match Synthesis.run ~config ~spec ~seed () with
  | result ->
    Format.printf "synthesised: average power %.4g mW, feasible %b@."
      (Synthesis.average_power result *. 1e3)
      (Fitness.feasible result.Synthesis.eval);
    run_fleet ~seed ~report:(Some report) spec result
  | exception Invalid_argument message -> Error (`Msg message)

let fleet_cmd =
  let term =
    Term.(
      term_result
        (const fleet_cmd_impl $ benchmark_arg $ force_arg $ seed_arg
        $ (config_term +> jobs_term +> robust_term)
        $ fleet_term $ fleet_report_arg))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Synthesise, then Monte Carlo a device fleet against the result: \
          battery-life distribution to stdout, JSON report to REPORT.")
    term

(* --- client (talk to a running mmsynthd) -------------------------------------- *)

module Serve_client = Mm_serve.Client
module Serve_protocol = Mm_serve.Protocol
module Serve_job = Mm_serve.Job

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/mmsynthd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's Unix-domain socket.")

let client_tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Reach the daemon over TCP instead of the Unix socket.")

let client_auth_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "auth-token" ] ~docv:"TOKEN"
        ~doc:
          "Shared-secret token attached to every request (required by TCP \
           listeners started with $(b,--auth-token)).")

let client_retries_arg =
  Arg.(
    value
    & opt int Serve_client.default_retry.Serve_client.attempts
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Total attempts per request (1 = never retry).  Connection \
           failures, lost replies and busy responses are retried under \
           exponential backoff with jitter; submissions carry an \
           idempotency nonce so a blind retry never duplicates a job.")

let job_id_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB" ~doc:"Job id.")

let endpoint_of socket tcp =
  match tcp with
  | None -> Ok (Serve_client.Unix_socket socket)
  | Some spec -> (
    match String.rindex_opt spec ':' with
    | Some i -> (
      let host = String.sub spec 0 i in
      match
        int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
      with
      | Some port -> Ok (Serve_client.Tcp (host, port))
      | None -> Error (`Msg ("invalid port in --tcp " ^ spec)))
    | None -> Error (`Msg ("expected HOST:PORT in --tcp " ^ spec)))

let endpoint_to_string = function
  | Serve_client.Unix_socket path -> path
  | Serve_client.Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let with_client socket tcp auth retries f =
  let* endpoint = endpoint_of socket tcp in
  let retry =
    { Serve_client.default_retry with Serve_client.attempts = max 1 retries }
  in
  let c = Serve_client.create ?auth ~retry endpoint in
  Fun.protect
    ~finally:(fun () -> Serve_client.close c)
    (fun () ->
      match f c with
      | Ok _ as ok -> ok
      | Error (`Msg message) ->
        Error
          (`Msg
            (Printf.sprintf "mmsynthd at %s: %s" (endpoint_to_string endpoint)
               message)))

let print_view (v : Serve_protocol.job_view) =
  let part name = function
    | None -> ""
    | Some x -> Printf.sprintf "  %s %.6g" name x
  in
  Printf.printf "%s  %-12s  restart %d  generation %d%s%s%s\n" v.v_id
    (Serve_job.state_to_string v.v_state)
    v.v_restart v.v_generation
    (part "fitness" v.v_best_fitness)
    (part "power" v.v_power)
    (match v.v_error with None -> "" | Some e -> "  error: " ^ e)

let unexpected response =
  Error
    (`Msg
      (match response with
      | Serve_protocol.Error_response { code; message } ->
        Printf.sprintf "daemon refused: %s: %s" code message
      | Serve_protocol.Busy { active; limit } ->
        Printf.sprintf
          "daemon busy (%d/%d jobs active) and retries exhausted — try again \
           later or raise --retries"
          active limit
      | Serve_protocol.Unauthorized ->
        "unauthorized: this listener requires --auth-token"
      | _ -> "unexpected response from the daemon"))

let client_submit socket tcp auth retries file seed dvs uniform generations
    population restarts islands migration_every migrants watch =
  let* spec_text =
    try Ok (Mm_io.Codec.read_file file) with Sys_error m -> Error (`Msg m)
  in
  let options =
    {
      Serve_job.seed;
      generations;
      population;
      restarts;
      dvs;
      uniform;
      islands;
      migration_interval = migration_every;
      migration_count = migrants;
    }
  in
  (* The nonce makes a blindly retried submit idempotent: if the first
     attempt was admitted but its reply lost, the daemon answers the
     retry with the same job instead of a duplicate. *)
  let nonce = Some (Serve_client.fresh_nonce ()) in
  with_client socket tcp auth retries @@ fun c ->
  match Serve_client.rpc c (Serve_protocol.Submit { spec_text; options; nonce }) with
  | Error message -> Error (`Msg message)
  | Ok (Serve_protocol.Rejected diags) ->
    List.iter
      (fun d -> print_endline (Serve_protocol.diag_to_string d))
      diags;
    Error (`Msg (Printf.sprintf "%s rejected" file))
  | Ok (Serve_protocol.Accepted view) ->
    print_view view;
    if not watch then Ok ()
    else begin
      match
        Serve_client.watch_resilient c view.Serve_protocol.v_id
          ~on_event:print_endline
      with
      | Error message -> Error (`Msg message)
      | Ok final ->
        print_view final;
        Ok ()
    end
  | Ok other -> unexpected other

let client_status socket tcp auth retries id =
  with_client socket tcp auth retries @@ fun c ->
  match Serve_client.rpc c (Serve_protocol.Status id) with
  | Error message -> Error (`Msg message)
  | Ok (Serve_protocol.Job_info view) ->
    print_view view;
    Ok ()
  | Ok other -> unexpected other

let client_cancel socket tcp auth retries id =
  with_client socket tcp auth retries @@ fun c ->
  match Serve_client.rpc c (Serve_protocol.Cancel id) with
  | Error message -> Error (`Msg message)
  | Ok Serve_protocol.Done ->
    Printf.printf "%s: cancellation requested\n" id;
    Ok ()
  | Ok other -> unexpected other

let client_list socket tcp auth retries =
  with_client socket tcp auth retries @@ fun c ->
  match Serve_client.rpc c Serve_protocol.List_jobs with
  | Error message -> Error (`Msg message)
  | Ok (Serve_protocol.Jobs views) ->
    List.iter print_view views;
    Ok ()
  | Ok other -> unexpected other

let client_watch socket tcp auth retries id =
  with_client socket tcp auth retries @@ fun c ->
  match Serve_client.watch_resilient c id ~on_event:print_endline with
  | Error message -> Error (`Msg message)
  | Ok final ->
    print_view final;
    Ok ()

let client_ping socket tcp auth retries =
  with_client socket tcp auth retries @@ fun c ->
  match Serve_client.rpc c Serve_protocol.Ping with
  | Ok Serve_protocol.Pong ->
    print_endline "pong";
    Ok ()
  | Ok other -> unexpected other
  | Error message -> Error (`Msg message)

let client_shutdown socket tcp auth retries =
  with_client socket tcp auth retries @@ fun c ->
  match Serve_client.shutdown c with
  | Ok () ->
    print_endline "daemon stopping (in-flight jobs stay checkpointed)";
    Ok ()
  | Error message -> Error (`Msg message)

let client_cmd =
  let restarts_arg =
    Arg.(
      value & opt int Serve_job.default_options.Serve_job.restarts
      & info [ "restarts" ] ~docv:"N" ~doc:"Independent GA restarts.")
  in
  let watch_flag =
    Arg.(
      value & flag
      & info [ "watch" ] ~doc:"Stream the job's progress events until it finishes.")
  in
  let spec_file_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"SPEC" ~doc:"Specification file (.mms) to submit.")
  in
  let submit =
    Cmd.v
      (Cmd.info "submit" ~doc:"Validate and enqueue a specification.")
      Term.(
        term_result
          (const client_submit $ socket_arg $ client_tcp_arg $ client_auth_arg
         $ client_retries_arg $ spec_file_arg $ seed_arg $ dvs_arg
         $ uniform_arg $ generations_arg $ population_arg $ restarts_arg
         $ islands_arg $ migration_every_arg $ migrants_arg $ watch_flag))
  in
  let status =
    Cmd.v
      (Cmd.info "status" ~doc:"Show one job.")
      Term.(
        term_result
          (const client_status $ socket_arg $ client_tcp_arg $ client_auth_arg
         $ client_retries_arg $ job_id_arg))
  in
  let cancel =
    Cmd.v
      (Cmd.info "cancel" ~doc:"Cancel a queued or running job.")
      Term.(
        term_result
          (const client_cancel $ socket_arg $ client_tcp_arg $ client_auth_arg
         $ client_retries_arg $ job_id_arg))
  in
  let list =
    Cmd.v
      (Cmd.info "list" ~doc:"List every job the daemon knows.")
      Term.(
        term_result
          (const client_list $ socket_arg $ client_tcp_arg $ client_auth_arg
         $ client_retries_arg))
  in
  let watch =
    Cmd.v
      (Cmd.info "watch"
         ~doc:"Stream a job's JSONL progress events until it finishes.")
      Term.(
        term_result
          (const client_watch $ socket_arg $ client_tcp_arg $ client_auth_arg
         $ client_retries_arg $ job_id_arg))
  in
  let ping =
    Cmd.v
      (Cmd.info "ping" ~doc:"Check the daemon is alive.")
      Term.(
        term_result
          (const client_ping $ socket_arg $ client_tcp_arg $ client_auth_arg
         $ client_retries_arg))
  in
  let shutdown =
    Cmd.v
      (Cmd.info "shutdown"
         ~doc:"Stop the daemon, leaving in-flight jobs checkpointed on disk.")
      Term.(
        term_result
          (const client_shutdown $ socket_arg $ client_tcp_arg $ client_auth_arg
         $ client_retries_arg))
  in
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running mmsynthd.")
    [ submit; status; cancel; list; watch; ping; shutdown ]

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "mmsynth" ~version:"1.0.0"
      ~doc:"Energy-efficient multi-mode co-synthesis (Schmitz et al., DATE 2003)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            show_cmd; check_cmd; synth_cmd; compare_cmd; gantt_cmd; fleet_cmd;
            export_cmd; export_json_cmd; dot_cmd; client_cmd;
          ]))
