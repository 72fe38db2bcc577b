(* The benchmark of the synthesis flow: synth, daemon and fleet, end to
   end, plus a traced per-layer breakdown.  See README.md.

     main.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]
         one workload in this process; the last line of output is its
         JSON result
     main.exe [--workload NAME]... [--seed S] [--seconds T] [--smoke]
         the suite: each workload in a fresh child process, timed, then
         once more traced
     main.exe --benchmark-json
         the BENCHMARK.json this catalogue describes *)

open Mm_benchmark

let workloads =
  [
    ("synth-phone", fun o r -> Synth_work.run (Synth_work.phone o) o r);
    ("synth-mul", fun o r -> Synth_work.run (Synth_work.mul o) o r);
    ("serve", Serve_work.run);
    ("fleet", Fleet_work.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1] [--smoke]\n\
    \       main.exe --benchmark-json\n\
     workloads: synth-phone synth-mul serve fleet";
  exit 2

let run_one name (o : Run.opts) =
  let report = Report.create ~workload:name ~seed:o.Run.seed in
  let host = Measure.host_start () in
  (match (List.assoc name workloads) o report with
  | () -> ()
  | exception e ->
    Printf.eprintf "benchmark: %s failed: %s\n%!" name (Printexc.to_string e);
    exit 1);
  let calib, steal = Measure.host_finish host in
  let cores = Domain.recommended_domain_count () in
  Report.set report "host.cpu_cores" (Some (float_of_int cores));
  Report.set report "host.calib_ms" (Some calib);
  Report.set report "host.steal_pct" (Some steal);
  Report.detail report "host: %d cores, calibration loop %.2f ms, CPU steal %.2f%%" cores calib steal;
  if !Spans.recorded <> [] then begin
    let path = Run.scratch (Printf.sprintf "%s-%d.trace.json" name o.Run.seed) in
    Spans.write_chrome path;
    Report.detail report "spans of the traced pass: %s" path
  end;
  Report.print_table report;
  print_endline (Report.json_line report ~trace:o.Run.trace)

(* The integer after ["key": ] in a result line. *)
let field line key =
  let key = Printf.sprintf "\"%s\": " key in
  let n = String.length line and m = String.length key in
  let rec find i =
    if i + m > n then 0
    else if String.sub line i m = key then
      let j = ref (i + m) in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      int_of_string (String.sub line (i + m) (!j - i - m))
    else find (i + 1)
  in
  find 0

(* Each workload in a fresh child process: first timed, then traced. *)
let suite names (o : Run.opts) =
  let child name ~trace =
    let args =
      [ "--workload"; name; "--seed"; string_of_int o.Run.seed; "--seconds";
        Printf.sprintf "%g" o.Run.seconds; "--trace"; (if trace then "1" else "0") ]
      @ if o.Run.smoke then [ "--smoke" ] else []
    in
    match List.rev (Run.child ~echo:true args) with
    | last :: _ -> (name, trace, field last "attempted", field last "failed")
    | [] | (exception Failure _) -> (name, trace, 0, 1)
  in
  let runs =
    List.map (fun n -> child n ~trace:false) names @ List.map (fun n -> child n ~trace:true) names
  in
  print_endline "\n== suite ==";
  List.iter
    (fun (name, trace, attempted, failed) ->
      Printf.printf "%-12s %-7s ops %4d  failed %d\n" name (if trace then "traced" else "timed")
        attempted failed)
    runs;
  let attempted = List.fold_left (fun a (_, _, n, _) -> a + n) 0 runs in
  let failed = List.fold_left (fun a (_, _, _, f) -> a + f) 0 runs in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d}\n" (failed = 0 && attempted > 0)
    attempted failed;
  if failed > 0 then exit 1

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "--daemon"; socket; state_dir ] -> Serve_work.daemon_main ~socket ~state_dir
  | [ "--benchmark-json" ] -> print_string (Report.benchmark_json ())
  | args ->
    let int s = match int_of_string_opt s with Some i -> i | None -> usage () in
    let rec parse (o : Run.opts) rep names = function
      | [] -> (o, rep, List.rev names)
      | "--workload" :: w :: rest when List.mem_assoc w workloads -> parse o rep (w :: names) rest
      | "--seed" :: s :: rest -> parse { o with seed = int s } rep names rest
      | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some t when t > 0. -> parse { o with seconds = t } rep names rest
        | _ -> usage ())
      | "--trace" :: ("0" | "1" as t) :: rest -> parse { o with trace = t = "1" } rep names rest
      | "--smoke" :: rest -> parse { o with smoke = true } rep names rest
      (* One synthesis run of a synth workload, for the parent to time. *)
      | "--rep" :: i :: rest -> parse o (Some (int i)) names rest
      | _ -> usage ()
    in
    let defaults =
      { Run.seed = 1000; seconds = float_of_int Report.run_seconds; trace = false; smoke = false }
    in
    match parse defaults None [] args with
    | o, Some input, [ ("synth-phone" | "synth-mul") as name ] ->
      Synth_work.rep_main (Synth_work.of_name name o) o ~input
    | _, Some _, _ -> usage ()
    | o, None, [ name ] -> run_one name o
    | o, None, [] -> suite (List.map fst workloads) o
    | o, None, names -> suite names o
