(* The metric catalogue (names, units, directions, bounds), one
   workload's results, and the two ways they are printed: a table for
   people and one JSON line for machines.  BENCHMARK.json at the root of
   the repository is generated from this catalogue ([main.exe
   --benchmark-json]); a test holds the two equal. *)

type better = Lower | Higher

type def = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** End-to-end metrics only. *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let workloads =
  [
    ( "synth-phone",
      "Smartphone spec with DVS on a 2-domain pool: evaluation-bound, so kernel and pool \
       changes show here and genome-cache changes should not." );
    ( "synth-mul",
      "mul1-mul12 without DVS, serial: small genomes make GA bookkeeping, setup and caches a \
       large share, and there is no pool." );
    ( "serve",
      "mmsynthd over its socket: open-loop arrivals, bursts, shutdown with jobs in flight and \
       restarts; the only path through protocol, registry and snapshots." );
    ( "fleet",
      "Fleet Monte Carlo of a fixed smartphone design on a 2-domain pool: no GA, coarse pool \
       batches, PRNG-heavy device walks." );
  ]

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "op_ms" "ms" Lower 0.25;
    e2e "cpu_ms" "ms" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.2;
    e2e "work_per_s" "1/s" Higher 0.25;
  ]

let per_layer =
  [
    layer "host.cpu_cores" "count" Higher;
    layer "host.calib_ms" "ms" Lower;
    layer "host.steal_pct" "%" Lower;
    layer "io.spec_load_ms" "ms" Lower;
    layer "io.state_kb_per_job" "KB" Lower;
    layer "io.snap_files_per_job" "count" Lower;
    layer "cosynth.run_ms" "ms" Lower;
    layer "cosynth.eval_ms" "ms" Lower;
    layer "cosynth.core_alloc_ms" "ms" Lower;
    layer "cosynth.mode_cache_hit_ratio" "ratio" Higher;
    layer "cosynth.delta_fallback_ratio" "ratio" Lower;
    layer "cosynth.delta_mode_reuse" "count" Higher;
    layer "cosynth.audit_ms" "ms" Lower;
    layer "cosynth.power_mw" "mW" Lower;
    layer "taskgraph.mobility_ms" "ms" Lower;
    layer "taskgraph.mobility_cache_hit_ratio" "ratio" Higher;
    layer "sched.schedule_ms" "ms" Lower;
    layer "dvs.scale_ms" "ms" Lower;
    layer "energy.power_ms" "ms" Lower;
    layer "energy.fleet_compile_ms" "ms" Lower;
    layer "energy.fleet_run_ms" "ms" Lower;
    layer "energy.transitions_per_device" "count" Lower;
    layer "ga.generations" "count" Lower;
    layer "ga.evaluations" "count" Lower;
    layer "ga.delta_evaluations" "count" Higher;
    layer "ga.genome_cache_hit_ratio" "ratio" Higher;
    layer "ga.generation_ms_p50" "ms" Lower;
    layer "ga.owner_ms" "ms" Lower;
    layer "ga.unattributed_pct" "%" Lower;
    layer "parallel.pool_batches" "count" Lower;
    layer "parallel.pool_items" "count" Lower;
    layer "parallel.pool_busy_ms" "ms" Lower;
    layer "parallel.pool_queue_wait_ms" "ms" Lower;
    layer "parallel.pool_barrier_wait_ms" "ms" Lower;
    layer "parallel.pool_util" "ratio" Higher;
    layer "serve.cold_start_ms" "ms" Lower;
    layer "serve.ping_ms_p50" "ms" Lower;
    layer "serve.admit_p50_ms" "ms" Lower;
    layer "serve.first_gen_p50_ms" "ms" Lower;
    layer "serve.done_p90_ms" "ms" Lower;
    layer "serve.queue_wait_ms_p50" "ms" Lower;
    layer "serve.init_ms_p50" "ms" Lower;
    layer "serve.run_ms_p50" "ms" Lower;
    layer "serve.gen_gap_ms_p50" "ms" Lower;
    layer "serve.events_per_job" "count" Lower;
    layer "serve.backlog_max" "count" Lower;
    layer "serve.gen_late_ms_max" "ms" Lower;
    layer "serve.rehydrated_jobs" "count" Higher;
    layer "serve.jobs_submitted" "count" Higher;
    layer "serve.jobs_failed" "count" Lower;
    layer "obs.trace_overhead_pct" "%" Lower;
  ]

let catalogue = end_to_end @ per_layer
let find_def name = List.find_opt (fun d -> d.name = name) catalogue

(* --- one workload's results -------------------------------------------------- *)

type entry = {
  value : float option;  (** [None]: the library no longer keeps the counter. *)
  samples : float array;  (** What the value was aggregated from, if anything. *)
}

type t = {
  workload : string;
  seed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** Newest first. *)
  values : (string, entry) Hashtbl.t;
  mutable details : string list;  (** Extra printed rows, newest first. *)
}

let create ~workload ~seed =
  {
    workload;
    seed;
    attempted = 0;
    failed = 0;
    failures = [];
    values = Hashtbl.create 64;
    details = [];
  }

let set ?(samples = [||]) t name value =
  if find_def name = None then invalid_arg ("Report.set: unknown metric " ^ name);
  Hashtbl.replace t.values name { value; samples }

(* A metric aggregated as the median of its samples. *)
let set_median t name samples =
  set t name ~samples (if samples = [||] then None else Some (Measure.median samples))

let value t name = Option.bind (Hashtbl.find_opt t.values name) (fun e -> e.value)

let detail t fmt = Printf.ksprintf (fun s -> t.details <- s :: t.details) fmt

(* One checked operation; a failed check is a failed operation. *)
let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.failures <- what :: t.failures
  end

let correct t = t.failed = 0 && t.attempted > 0

(* --- printing ---------------------------------------------------------------- *)

(* Every metric the run produced, end-to-end ones first. *)
let print_table t =
  Printf.printf "\n== %s (seed %d) ==\n" t.workload t.seed;
  Printf.printf "%-36s %-6s %5s %12s %12s %9s\n" "metric" "unit" "n" "value" "median" "IQR%";
  List.iter
    (fun d ->
      match Hashtbl.find_opt t.values d.name with
      | None -> ()
      | Some { value; samples } ->
        let value = match value with Some v -> Printf.sprintf "%.4f" v | None -> "null" in
        let n = Array.length samples in
        let median, iqr =
          if n = 0 then ("-", "-")
          else
            ( Printf.sprintf "%.4f" (Measure.median samples),
              Printf.sprintf "%.1f" (100. *. Measure.spread samples) )
        in
        Printf.printf "%-36s %-6s %5d %12s %12s %9s\n" d.name d.unit_ n value median iqr)
    catalogue;
  List.iter (Printf.printf "  %s\n") (List.rev t.details);
  Printf.printf "ops %d, failed %d\n" t.attempted t.failed;
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev t.failures)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else invalid_arg "Report: non-finite value"

(* The result line: every end-to-end metric, or with [trace] every
   per-layer one.  A metric the workload does not exercise, or whose
   counter the libraries no longer keep, counts zero events.  A run that
   attempted nothing reports one attempt and is not correct. *)
let json_line t ~trace =
  let defs = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun d ->
        let v = Option.value ~default:0. (value t d.name) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" d.name (json_number v) d.unit_)
      defs
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct t) (max 1 t.attempted) t.failed (String.concat ", " metrics)

(* --- BENCHMARK.json ---------------------------------------------------------- *)

let run_seconds = 20

let benchmark_json () =
  let better = function Lower -> "lower" | Higher -> "higher" in
  let workload (name, why) = Printf.sprintf "    {\"name\": %S, \"why\": %S}" name why in
  let e2e d =
    Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %s}" d.name
      d.unit_ (better d.better)
      (Printf.sprintf "%g" (Option.get d.bound))
  in
  let layer d =
    Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S}" d.name d.unit_
      (better d.better)
  in
  String.concat "\n"
    [
      "{";
      "  \"command\": [\"dune\", \"exec\", \"--root\", \".\", \"--cache=disabled\", \
       \"--display=quiet\", \"benchmark/main.exe\", \"--\"],";
      "  \"paths\": [\"benchmark\"],";
      Printf.sprintf "  \"run_seconds\": %d," run_seconds;
      "  \"workloads\": [";
      String.concat ",\n" (List.map workload workloads);
      "  ],";
      "  \"end_to_end\": [";
      String.concat ",\n" (List.map e2e end_to_end);
      "  ],";
      "  \"per_layer\": [";
      String.concat ",\n" (List.map layer per_layer);
      "  ]";
      "}";
      "";
    ]
