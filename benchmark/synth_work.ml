(* The synth-phone and synth-mul workloads: whole [Synthesis.run]s, each
   in a fresh child process on a spec parsed afresh from text, as a CLI
   [synth file:...] run would be.

   A fresh process per run also keeps runs from leaking into each other:
   [Spec.compiled] keeps its per-mode caches in domain-local storage
   under keys made per spec, and a domain never drops a key's value, so
   on one long-lived domain every run's caches would stay reachable. *)

module Synthesis = Mm_cosynth.Synthesis
module Fitness = Mm_cosynth.Fitness
module Spec = Mm_cosynth.Spec
module Audit = Mm_cosynth.Audit
module Validate = Mm_cosynth.Validate
module Codec = Mm_io.Codec
module Engine = Mm_ga.Engine
module Metrics = Mm_obs.Metrics
module Control = Mm_obs.Control

type input = { label : string; text : string }

type workload = {
  name : string;
  inputs : input array;
  config : Synthesis.config;
  traced : int list;  (** Inputs the traced pass covers. *)
}

let parse text =
  match Codec.check_string text with
  | Some spec, diags when not (Validate.has_errors diags) -> spec
  | _ -> failwith "benchmark input does not parse"

(* Every run does the same work: a fixed generation count per restart,
   with the early-stop criteria off, so no seed finishes sooner than
   another. *)
let ga_config ~generations ~population =
  {
    Engine.default_config with
    max_generations = generations;
    population_size = population;
    stagnation_limit = generations;
    diversity_threshold = 0.;
  }

let phone (o : Run.opts) =
  let generations, population = if o.Run.smoke then (4, 8) else (75, 40) in
  {
    name = "synth-phone";
    inputs =
      [| { label = "smartphone"; text = Codec.spec_to_string (Mm_benchgen.Smartphone.spec ()) } |];
    config =
      {
        Synthesis.default_config with
        fitness = { Fitness.default_config with dvs = Fitness.Dvs Mm_dvs.Scaling.default_config };
        ga = ga_config ~generations ~population;
        restarts = 1;
        jobs = 2;
      };
    traced = [ 0 ];
  }

let mul (o : Run.opts) =
  let generations, population, systems = if o.Run.smoke then (4, 8, 2) else (75, 40, 12) in
  {
    name = "synth-mul";
    inputs =
      Array.init systems (fun i ->
          {
            label = Printf.sprintf "mul%d" (i + 1);
            text = Codec.spec_to_string (Mm_benchgen.Random_system.mul (i + 1));
          });
    config =
      { Synthesis.default_config with ga = ga_config ~generations ~population; restarts = 1 };
    traced = List.filter (fun i -> i mod 3 = 0) (List.init systems Fun.id);
  }

let of_name name o = if name = "synth-phone" then phone o else mul o

(* The GA seed of repetition [rep] of input [i]. *)
let ga_seed (o : Run.opts) ~rep i = o.Run.seed + (100 * rep) + i + 1

(* Parse a fresh spec and build its compiled context: the set-up a run
   needs before any work can start. *)
let setup text =
  let spec = parse text in
  ignore (Spec.compiled spec);
  spec

(* --- one repetition, in the child ------------------------------------------------- *)

let phases = [ "mobility"; "core_alloc"; "schedule"; "dvs"; "power" ]

(* The per-layer values of one traced run, from the metrics registry
   and the durations the benchmark's spans measured. *)
let layer_values w ~load_ms ~run_ms ~audit_ms ~gaps =
  let snap = Metrics.snapshot () in
  let c = Measure.counter snap and h = Measure.hist_sum_ms snap in
  let open Measure in
  let eval_ms =
    if w.config.Synthesis.jobs <= 1 then
      List.fold_left (fun acc p -> acc +? h ("fitness/" ^ p ^ "_us")) (Some 0.) phases
    else h "pool/batch_us"
  in
  let run_ms = Some run_ms in
  let owner_ms = run_ms -? eval_ms in
  let evaluations = c "ga/evaluations" in
  pool_values snap ~domains:(max 1 w.config.Synthesis.jobs)
  @ [
    ("io.spec_load_ms", Some load_ms);
    ("cosynth.run_ms", run_ms);
    ("cosynth.eval_ms", eval_ms);
    ("cosynth.core_alloc_ms", h "fitness/core_alloc_us");
    ( "cosynth.mode_cache_hit_ratio",
      ratio (c "fitness/mode_cache_hits")
        (c "fitness/mode_cache_hits" +? c "fitness/mode_cache_misses") );
    ( "cosynth.delta_fallback_ratio",
      ratio (c "fitness/delta_fallbacks") (c "fitness/delta_evals" +? c "fitness/delta_fallbacks") );
    ("cosynth.delta_mode_reuse", c "fitness/delta_mode_reuse");
    ("cosynth.audit_ms", Some audit_ms);
    ("taskgraph.mobility_ms", h "fitness/mobility_us");
    ( "taskgraph.mobility_cache_hit_ratio",
      ratio (c "fitness/mobility_cache_hits")
        (c "fitness/mobility_cache_hits" +? c "fitness/mobility_cache_misses") );
    ("sched.schedule_ms", h "fitness/schedule_us");
    ("dvs.scale_ms", h "fitness/dvs_us");
    ("energy.power_ms", h "fitness/power_us");
    ("ga.generations", c "ga/generations");
    ("ga.evaluations", evaluations);
    ("ga.delta_evaluations", c "ga/delta_evaluations");
    ("ga.genome_cache_hit_ratio", ratio (c "ga/cache_hits") (c "ga/cache_hits" +? evaluations));
    ("ga.generation_ms_p50", if gaps = [||] then None else Some (median gaps));
    ("ga.owner_ms", owner_ms);
    ("ga.unattributed_pct", Option.map (fun r -> 100. *. r) (ratio owner_ms run_ms));
  ]

(* A traced run: metrics on, spans around each call into a layer, and a
   span per GA generation between two [yield] calls. *)
let traced_run w text ~seed =
  Control.set_metrics true;
  Spans.enabled := true;
  let gaps = ref [] in
  let spec, result, load_ms, run_ms, audit_ms =
    Spans.run "bench/rep" (fun () ->
        let spec, load_ms = Spans.measure "io/check_string" (fun () -> parse text) in
        Spans.run "cosynth/compiled" (fun () -> ignore (Spec.compiled spec));
        let last = ref (Measure.now ()) in
        let yield _ =
          let t = Measure.now () in
          Spans.add "ga/generation" ~start:!last ~stop:t;
          gaps := ((t -. !last) *. 1e3) :: !gaps;
          last := t
        in
        let result, run_ms =
          Spans.measure "cosynth/run" (fun () -> Synthesis.run ~config:w.config ~spec ~seed ~yield ())
        in
        let _, audit_ms =
          Spans.measure "cosynth/audit" (fun () ->
              Audit.check ~config:w.config.Synthesis.fitness ~spec result.Synthesis.eval)
        in
        (spec, result, load_ms, run_ms, audit_ms))
  in
  Control.set_metrics false;
  Spans.enabled := false;
  let layer = layer_values w ~load_ms ~run_ms ~audit_ms ~gaps:(Array.of_list !gaps) in
  (spec, result, run_ms /. 1e3, layer)

(* The child side of [--rep]: one run, reported as lines of
   [key value]; floats in hexadecimal, so they cross bit for bit. *)
let rep_main w (o : Run.opts) ~input =
  let text = w.inputs.(input).text in
  let seed = o.Run.seed in
  let spec, result, wall, cpu, layer =
    if o.Run.trace then
      let spec, result, wall, layer = traced_run w text ~seed in
      (spec, result, wall, nan, layer)
    else
      let spec = setup text in
      let result, wall, cpu =
        Measure.timed (fun () -> Synthesis.run ~config:w.config ~spec ~seed ())
      in
      (spec, result, wall, cpu, [])
  in
  let verdict = Checks.synth_winner ~config:w.config ~spec result in
  Printf.printf "wall %h\ncpu %h\nrss %h\npower %h\n" wall cpu (Measure.peak_rss_mb ())
    (Synthesis.average_power result);
  Printf.printf "genome %s\n"
    (String.concat "," (Array.to_list (Array.map string_of_int result.Synthesis.genome)));
  (match verdict with Ok () -> print_endline "verdict ok" | Error e -> Printf.printf "verdict %s\n" e);
  List.iter
    (fun (name, v) ->
      Printf.printf "layer %s %s\n" name (match v with Some v -> Printf.sprintf "%h" v | None -> "null"))
    layer;
  List.iter
    (fun (s : Spans.span) ->
      Printf.printf "span %s %d %d %h %h\n" s.Spans.name s.Spans.id s.Spans.parent s.Spans.start
        s.Spans.stop)
    (List.rev !Spans.recorded)

(* --- the parent side ------------------------------------------------------------------ *)

type rep = {
  wall : float;  (** Seconds, [Synthesis.run] alone. *)
  cpu : float;
  rss_mb : float;  (** The child's peak resident set. *)
  power : float;
  genome : string;
  verdict : string;  (** ["ok"] when every output check passed. *)
  layer : (string * float option) list;
  spans : Spans.span list;
}

let spawn_rep w (o : Run.opts) ~input ~seed ~trace =
  let lines =
    Run.child
      ([ "--workload"; w.name; "--rep"; string_of_int input; "--seed"; string_of_int seed;
         "--trace"; (if trace then "1" else "0") ]
      @ if o.Run.smoke then [ "--smoke" ] else [])
  in
  let r =
    ref { wall = nan; cpu = nan; rss_mb = nan; power = nan; genome = ""; verdict = "no verdict"; layer = []; spans = [] }
  in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | None -> ()
      | Some i -> (
        let key = String.sub line 0 i and v = String.sub line (i + 1) (String.length line - i - 1) in
        match (key, String.split_on_char ' ' v) with
        | "wall", [ x ] -> r := { !r with wall = float_of_string x }
        | "cpu", [ x ] -> r := { !r with cpu = float_of_string x }
        | "rss", [ x ] -> r := { !r with rss_mb = float_of_string x }
        | "power", [ x ] -> r := { !r with power = float_of_string x }
        | "genome", [ x ] -> r := { !r with genome = x }
        | "verdict", _ -> r := { !r with verdict = v }
        | "layer", [ name; x ] ->
          r := { !r with layer = (name, float_of_string_opt x) :: !r.layer }
        | "span", [ name; id; parent; start; stop ] ->
          let span =
            { Spans.name; id = int_of_string id; parent = int_of_string parent;
              start = float_of_string start; stop = float_of_string stop }
          in
          r := { !r with spans = span :: !r.spans }
        | _ -> ()))
    lines;
  { !r with layer = List.rev !r.layer; spans = List.rev !r.spans }

let aggregate w samples =
  if Array.length w.inputs = 1 then Measure.median samples else Measure.geomean samples

let run w (o : Run.opts) report =
  let n = Array.length w.inputs in
  (* Set-up cost: a few samples per input now, two more after every
     repetition, so they sample the whole run. *)
  let setups = Array.make n [] in
  let sample_setups () =
    Array.iteri
      (fun i input ->
        let _, wall, _ = Measure.timed (fun () -> setup input.text) in
        setups.(i) <- wall :: setups.(i))
      w.inputs
  in
  for _ = 1 to 3 do
    sample_setups ()
  done;
  let between () =
    sample_setups ();
    sample_setups ()
  in
  (* One discarded warm-up repetition. *)
  ignore (spawn_rep w o ~input:0 ~seed:o.Run.seed ~trace:false);
  let reps = Array.make n [] in
  let rep_input ~rep ~trace i =
    let seed = ga_seed o ~rep i in
    let r = spawn_rep w o ~input:i ~seed ~trace in
    Report.check report (r.verdict = "ok")
      (Printf.sprintf "%s seed %d%s: %s" w.inputs.(i).label seed (if trace then " traced" else "")
         r.verdict);
    r
  in
  let budget = if o.Run.smoke then 0. else o.Run.seconds in
  if not o.Run.trace then begin
    ignore
      (Run.repeat ~between ~seconds:budget ~min:(if n = 1 then 3 else 1) (fun rep ->
           for i = 0 to n - 1 do
             reps.(i) <- rep_input ~rep ~trace:false i :: reps.(i)
           done));
    (* Samples: every repetition for one input, per-input medians for many. *)
    let metric_of name per_input =
      let m = Array.map Measure.median per_input in
      Report.set report name ~samples:(if n = 1 then per_input.(0) else m) (Some (aggregate w m))
    in
    let metric name f = metric_of name (Array.map (fun l -> Array.of_list (List.map f l)) reps) in
    metric_of "setup_s" (Array.map Array.of_list setups);
    metric "op_ms" (fun r -> r.wall *. 1e3);
    metric "cpu_ms" (fun r -> r.cpu *. 1e3);
    metric "peak_rss_mb" (fun r -> r.rss_mb);
    (* Every run breeds the same number of offspring (no early stop). *)
    let ga = w.config.Synthesis.ga in
    let offspring = ga.Engine.max_generations * w.config.Synthesis.restarts * ga.Engine.population_size in
    Option.iter
      (fun op_ms -> Report.set report "work_per_s" (Some (float_of_int offspring /. (op_ms /. 1e3))))
      (Report.value report "op_ms");
    Array.iteri
      (fun i input ->
        let med f = Measure.median (Array.of_list (List.map f reps.(i))) in
        Report.detail report "%-10s reps %d  wall median %.1f ms  cpu median %.1f ms  power %.4f mW"
          input.label (List.length reps.(i)) (med (fun r -> r.wall *. 1e3)) (med (fun r -> r.cpu *. 1e3))
          (med (fun r -> r.power *. 1e3)))
      w.inputs
  end
  else begin
    (* Traced pass: each traced input runs timed, then traced, with the
       same seed; the pair gives the tracing overhead. *)
    let values = Hashtbl.create 64 and overheads = ref [] and powers = ref [] in
    ignore
      (Run.repeat ~seconds:budget ~min:1 (fun rep ->
           List.iter
             (fun i ->
               let timed = rep_input ~rep ~trace:false i in
               let traced = rep_input ~rep ~trace:true i in
               (match
                  Checks.same_winner ~timed:(timed.genome, timed.power)
                    ~traced:(traced.genome, traced.power)
                with
               | Ok () -> Report.check report true "traced reproduces timed"
               | Error e -> Report.check report false (w.inputs.(i).label ^ ": " ^ e));
               Spans.import traced.spans;
               powers := (1e3 *. traced.power) :: !powers;
               List.iter
                 (fun (name, v) ->
                   Hashtbl.replace values name (v :: Option.value ~default:[] (Hashtbl.find_opt values name)))
                 traced.layer;
               overheads := (100. *. ((traced.wall /. timed.wall) -. 1.)) :: !overheads)
             w.traced));
    Hashtbl.iter
      (fun name vs ->
        if List.mem None vs then Report.set report name None
        else Report.set_median report name (Array.of_list (List.filter_map Fun.id vs)))
      values;
    Report.set_median report "cosynth.power_mw" (Array.of_list !powers);
    Report.set_median report "obs.trace_overhead_pct" (Array.of_list !overheads);
    let get name = Option.value ~default:nan (Report.value report name) in
    Report.detail report
      "median traced run: spec load %.1f ms; run %.1f ms = evaluation %.1f ms + GA owner %.1f ms (unattributed, %.1f%% of the run)"
      (get "io.spec_load_ms") (get "cosynth.run_ms") (get "cosynth.eval_ms") (get "ga.owner_ms")
      (get "ga.unattributed_pct");
    List.iter
      (fun (name, (self_ms, count)) ->
        Report.detail report "span %-18s x%-4d self %10.1f ms" name count self_ms)
      (Spans.self_times ())
  end
