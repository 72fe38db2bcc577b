(* Tests of the benchmark itself: its statistics, its open-loop
   schedule, its output checkers (each must reject a tampered result),
   its catalogue against BENCHMARK.json, and a smoke run of all four
   workloads at toy scale. *)

open Mm_benchmark
module Synthesis = Mm_cosynth.Synthesis
module Fitness = Mm_cosynth.Fitness
module Fleet_sim = Mm_energy.Fleet_sim
module Protocol = Mm_serve.Protocol
module Job = Mm_serve.Job

let check_float = Alcotest.(check (float 1e-9))
let range a b = Array.init (b - a + 1) (fun i -> float_of_int (a + i))

(* --- statistics ------------------------------------------------------------------ *)

(* Expected values are Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let q1, m, q3 = Measure.quartiles (range 1 10) in
  check_float "q1 of 1..10" 2.75 q1;
  check_float "median of 1..10" 5.5 m;
  check_float "q3 of 1..10" 8.25 q3;
  let q1, m, q3 = Measure.quartiles [| 4.; 1.; 3.; 2. |] in
  check_float "q1 of 1..4" 1.25 q1;
  check_float "median of 1..4" 2.5 m;
  check_float "q3 of 1..4" 3.75 q3;
  check_float "odd median" 3. (Measure.median [| 5.; 1.; 3. |]);
  check_float "one sample" 7. (Measure.median [| 7. |]);
  check_float "spread" ((8.25 -. 2.75) /. 5.5) (Measure.spread (range 1 10))

let test_percentile () =
  let a = range 1 10 in
  check_float "p50" 5. (Measure.percentile a 0.5);
  check_float "p90" 9. (Measure.percentile a 0.9);
  check_float "p95" 10. (Measure.percentile a 0.95);
  check_float "p100" 10. (Measure.percentile a 1.0);
  check_float "p10" 1. (Measure.percentile a 0.1);
  check_float "unsorted input" 2. (Measure.percentile [| 3.; 1.; 2. |] 0.5)

let test_tail () =
  let tail n = Measure.tail (range 1 n) in
  Alcotest.(check bool) "19 samples: no tail" true (tail 19 = None);
  Alcotest.(check bool) "20 samples: the median" true (tail 20 = Some (0.5, 10.));
  Alcotest.(check bool) "39 samples: p50" true (tail 39 = Some (0.5, 20.));
  Alcotest.(check bool) "40 samples: p75" true (tail 40 = Some (0.75, 30.));
  Alcotest.(check bool) "100 samples: p90" true (tail 100 = Some (0.9, 90.));
  Alcotest.(check bool) "1000 samples: p99" true (tail 1000 = Some (0.99, 990.));
  Alcotest.(check bool) "10000 samples: p99.9" true (tail 10000 = Some (0.999, 9990.))

let test_geomean () =
  check_float "two" 2. (Measure.geomean [| 1.; 4. |]);
  check_float "three" 4. (Measure.geomean [| 2.; 8.; 4. |]);
  check_float "constant" 3. (Measure.geomean [| 3.; 3.; 3. |])

(* --- the open-loop schedule ---------------------------------------------------------- *)

let test_schedule () =
  let a = Serve_work.schedule ~seed:7 ~rate:5. ~jobs:300 in
  let b = Serve_work.schedule ~seed:7 ~rate:5. ~jobs:300 in
  let c = Serve_work.schedule ~seed:8 ~rate:5. ~jobs:300 in
  Alcotest.(check bool) "same seed, same due times" true (a = b);
  Alcotest.(check bool) "another seed, other due times" true (a <> c);
  Alcotest.(check int) "one due time per job" 300 (Array.length a);
  Array.iteri
    (fun i t -> Alcotest.(check bool) "increasing" true (t > if i = 0 then 0. else a.(i - 1)))
    a;
  let long = Serve_work.schedule ~seed:1 ~rate:5. ~jobs:10_000 in
  (* 10 000 exponential gaps of mean 0.2 s: 2000 s, standard deviation 20 s. *)
  Alcotest.(check bool) "rate" true (Float.abs (long.(9_999) -. 2000.) < 100.)

(* --- output checkers ---------------------------------------------------------------------- *)

let expect_error what = function
  | Ok () -> Alcotest.failf "%s: the checker accepted a tampered result" what
  | Error _ -> ()

let expect_ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

let small_synthesis () =
  let spec = Mm_benchgen.Random_system.mul 1 in
  let config =
    {
      Synthesis.default_config with
      ga = Synth_work.ga_config ~generations:4 ~population:8;
      restarts = 1;
    }
  in
  (config, spec, Synthesis.run ~config ~spec ~seed:3 ())

let test_synth_checker () =
  let config, spec, r = small_synthesis () in
  expect_ok "untouched winner" (Checks.synth_winner ~config ~spec r);
  let e = r.Synthesis.eval in
  let tampered eval = Checks.synth_winner ~config ~spec { r with Synthesis.eval } in
  expect_error "fitness" (tampered { e with Fitness.fitness = e.Fitness.fitness *. 0.5 });
  expect_error "power" (tampered { e with Fitness.true_power = e.Fitness.true_power *. 0.9 });
  let genome = Array.copy r.Synthesis.genome in
  (* Point every gene at another candidate PE where one exists. *)
  Array.iteri
    (fun i g -> genome.(i) <- (g + 1) mod (Mm_cosynth.Spec.gene_counts spec).(i))
    genome;
  expect_error "genome" (Checks.synth_winner ~config ~spec { r with Synthesis.genome })

let test_same_winner () =
  let run = ("1,2,3", 0.0125) in
  expect_ok "identical" (Checks.same_winner ~timed:run ~traced:run);
  expect_error "genome" (Checks.same_winner ~timed:run ~traced:("1,2,4", 0.0125));
  expect_error "power bits"
    (Checks.same_winner ~timed:run ~traced:("1,2,3", Float.succ 0.0125))

let test_fleet_checker () =
  let spec = Mm_benchgen.Smartphone.spec () in
  let anchor = Option.get (Synthesis.greedy_timing_anchor spec) in
  let mode_powers = (Fitness.evaluate Fitness.default_config spec anchor).Fitness.mode_powers in
  let r =
    Fleet_sim.run ~model:Fleet_work.model ~horizon:Fleet_work.horizon ~devices:1000
      ~omsm:(Mm_cosynth.Spec.omsm spec) ~mode_powers ~seed:5 ()
  in
  let reference = Fleet_sim.to_json r in
  expect_ok "untouched report" (Checks.fleet_rep ~reference r);
  expect_error "another report" (Checks.fleet_rep ~reference:(reference ^ " ") r);
  let s = r.Fleet_sim.stats in
  let off = { r with Fleet_sim.stats = { s with Fleet_sim.mean_power = s.Fleet_sim.analytic_power *. 1.05 } } in
  expect_error "mean power off Eq. 1" (Checks.fleet_rep ~reference:(Fleet_sim.to_json off) off)

(* A daemon's view of a job, made the daemon's way and then edited. *)
let view ?(state = Job.Completed) ?(power = Some 0.02) () =
  let job = Job.create ~seq:1 ~options:Job.default_options ~spec_fingerprint:"f" ~now:1. () in
  { (Protocol.view job) with Protocol.v_state = state; v_power = power }

let test_daemon_checker () =
  expect_ok "completed" (Checks.daemon_job (view ()));
  expect_ok "completed, verified" (Checks.daemon_job ~expected:0.02 (view ()));
  expect_error "other power bits" (Checks.daemon_job ~expected:(Float.succ 0.02) (view ()));
  expect_error "failed job" (Checks.daemon_job (view ~state:Job.Failed ()));
  expect_error "still running" (Checks.daemon_job (view ~state:Job.Running ()));
  expect_error "no power" (Checks.daemon_job (view ~power:None ()))

(* --- the catalogue and the result line ------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_benchmark_json () =
  Alcotest.(check string) "BENCHMARK.json is generated from the catalogue"
    (Report.benchmark_json ()) (read_file "../../BENCHMARK.json")

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Every metric of [defs] appears in [line] with its unit. *)
let has_metrics line (defs : Report.def list) =
  List.for_all
    (fun (d : Report.def) ->
      contains line (Printf.sprintf "%S: {\"value\": " d.Report.name)
      && contains line (Printf.sprintf "\"unit\": %S}" d.Report.unit_))
    defs

let test_json_line () =
  let r = Report.create ~workload:"synth-mul" ~seed:1 in
  Report.set r "op_ms" (Some 12.5);
  Report.set r "ga.genome_cache_hit_ratio" None;
  Report.check r true "op";
  let e2e = Report.json_line r ~trace:false and layer = Report.json_line r ~trace:true in
  Alcotest.(check bool) "every end-to-end metric" true (has_metrics e2e Report.end_to_end);
  Alcotest.(check bool) "every per-layer metric" true (has_metrics layer Report.per_layer);
  Alcotest.(check bool) "value with all its digits" true (contains e2e "\"op_ms\": {\"value\": 12.5,");
  Alcotest.(check bool) "an absent counter counts zero events" true
    (contains layer "\"ga.genome_cache_hit_ratio\": {\"value\": 0,");
  Alcotest.(check bool) "correct" true (String.starts_with ~prefix:"{\"correct\": true, \"attempted\": 1, \"failed\": 0" e2e);
  Report.check r false "tampered";
  Alcotest.(check bool) "a failed check" true
    (String.starts_with ~prefix:"{\"correct\": false, \"attempted\": 2, \"failed\": 1" (Report.json_line r ~trace:false))

(* --- smoke ---------------------------------------------------------------------------------- *)

let test_smoke () =
  let t0 = Unix.gettimeofday () in
  let ic = Unix.open_process_args_in "../main.exe" [| "../main.exe"; "--smoke" |] in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  Alcotest.(check bool) "exits 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
  let results = List.filter (fun l -> String.starts_with ~prefix:"{\"correct\"" l && contains l "\"metrics\"") lines in
  Alcotest.(check int) "four timed and four traced results" 8 (List.length results);
  List.iter
    (fun line ->
      Alcotest.(check bool) ("correct: " ^ line) true (String.starts_with ~prefix:"{\"correct\": true" line))
    results;
  let timed, traced = List.partition (fun l -> has_metrics l Report.end_to_end) results in
  Alcotest.(check int) "every end-to-end metric, with its unit" 4 (List.length timed);
  Alcotest.(check int) "every per-layer metric, with its unit" 4
    (List.length (List.filter (fun l -> has_metrics l Report.per_layer) traced));
  let last = List.hd (List.rev (List.filter (( <> ) "") lines)) in
  Alcotest.(check bool) ("the suite reports success: " ^ last) true
    (String.starts_with ~prefix:"{\"correct\": true" last && contains last "\"failed\": 0}");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "within 10 s (took %.1f s)" elapsed) true (elapsed <= 10.)

let () =
  Alcotest.run "benchmark"
    [
      ( "statistics",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
        ] );
      ("open loop", [ Alcotest.test_case "seeded schedule" `Quick test_schedule ]);
      ( "checkers",
        [
          Alcotest.test_case "synthesis winner" `Quick test_synth_checker;
          Alcotest.test_case "traced reproduces timed" `Quick test_same_winner;
          Alcotest.test_case "fleet report" `Quick test_fleet_checker;
          Alcotest.test_case "daemon job" `Quick test_daemon_checker;
        ] );
      ( "report",
        [
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
          Alcotest.test_case "result line" `Quick test_json_line;
        ] );
      ("smoke", [ Alcotest.test_case "all four workloads" `Quick test_smoke ]);
    ]
