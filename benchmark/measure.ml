(* Clocks, process and host probes, and the order statistics every
   benchmark number goes through.  Nothing here knows about a workload. *)

module Metrics = Mm_obs.Metrics

(* --- clocks -------------------------------------------------------------- *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  let c0 = cpu () in
  let r = f () in
  (r, now () -. t0, cpu () -. c0)

(* --- order statistics ------------------------------------------------------ *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Quartiles by linear interpolation on the (n + 1) grid — the
   "exclusive" method, identical to Python's
   [statistics.quantiles(values, n=4)], so a spread computed here agrees
   with one computed from the printed samples. *)
let quartiles samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = (n + 1) * i in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = float_of_int (m - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median samples =
  let _, m, _ = quartiles samples in
  m

(* Relative interquartile range: (q3 - q1) / median. *)
let spread samples =
  let q1, m, q3 = quartiles samples in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* The 1-based nearest rank of quantile [q] among [n] samples: the
   smallest rank with at least [q] of the samples at or below it.  The
   epsilon keeps q * n = 90.00000000000001 at rank 90. *)
let rank n q = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))

let percentile samples q =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  a.(max 0 (min (n - 1) (rank n q - 1)))

let tail_candidates = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The highest candidate percentile that still has at least ten samples
   strictly beyond its nearest rank, with its value; [None] below 20
   samples, where not even the median has ten samples above it. *)
let tail samples =
  let n = Array.length samples in
  List.find_map
    (fun q -> if n - rank n q >= 10 then Some (q, percentile samples q) else None)
    tail_candidates

let geomean samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Measure.geomean: no samples";
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. samples /. float_of_int n)

(* --- /proc ----------------------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])

let words line =
  String.map (fun c -> if c = '\t' then ' ' else c) line
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")

(* The peak resident set (VmHWM) of a process, in megabytes. *)
let peak_rss_mb ?(pid = "self") () =
  List.find_map
    (fun line ->
      match words line with
      | "VmHWM:" :: kb :: _ -> Option.map (fun kb -> kb /. 1024.) (float_of_string_opt kb)
      | _ -> None)
    (read_lines (Printf.sprintf "/proc/%s/status" pid))
  |> Option.value ~default:0.

(* User + system CPU seconds of another process, from /proc/<pid>/stat
   (fields 14 and 15, in USER_HZ = 100 ticks). *)
let process_cpu pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | line :: _ -> (
    (* The command field may contain spaces: count from the last ')',
       after which field 3 (the state) comes first. *)
    let close = String.rindex line ')' in
    let f = Array.of_list (words (String.sub line (close + 1) (String.length line - close - 1))) in
    if Array.length f < 13 then 0.
    else
      match (float_of_string_opt f.(11), float_of_string_opt f.(12)) with
      | Some utime, Some stime -> (utime +. stime) /. 100.
      | _ -> 0.)
  | [] -> 0.

(* --- host state ------------------------------------------------------------ *)

(* (steal, total) jiffies of the aggregate "cpu" line of /proc/stat. *)
let cpu_jiffies () =
  match read_lines "/proc/stat" with
  | line :: _ -> (
    match words line with
    | "cpu" :: fields ->
      let v = List.map (fun f -> Option.value ~default:0. (float_of_string_opt f)) fields in
      let total = List.fold_left ( +. ) 0. v in
      let steal = match List.nth_opt v 7 with Some s -> s | None -> 0. in
      (steal, total)
    | _ -> (0., 0.))
  | [] -> (0., 0.)

(* A fixed integer loop owned by the benchmark: when it slows down
   between two results, the host did, not the code under test.  Every
   timing is kept for {!host_finish}. *)
let calibrations = ref []

let calibrate () =
  let x = ref 1 in
  let t0 = now () in
  for i = 1 to 10_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  calibrations := ((now () -. t0) *. 1e3) :: !calibrations

let host_start () =
  for _ = 1 to 3 do
    calibrate ()
  done;
  cpu_jiffies ()

(* The median calibration loop over the run (timed before, between
   and after the repetitions), and the share of CPU time the hypervisor
   stole since [host_start]. *)
let host_finish (steal0, total0) =
  for _ = 1 to 3 do
    calibrate ()
  done;
  let steal1, total1 = cpu_jiffies () in
  let steal_pct =
    if total1 > total0 then 100. *. (steal1 -. steal0) /. (total1 -. total0) else 0.
  in
  (median (Array.of_list !calibrations), steal_pct)

(* --- library counters, read by name ------------------------------------------ *)

(* Counters and histograms are read by name from a snapshot, so a later
   change that deletes one turns its metric into [None] instead of
   breaking this build. *)
let counter (snap : Metrics.snapshot) name =
  Option.map float_of_int (List.assoc_opt name snap.Metrics.counters)

let hist_sum_ms (snap : Metrics.snapshot) name =
  Option.map
    (fun (h : Metrics.histogram_snapshot) -> h.Metrics.sum /. 1e3)
    (List.assoc_opt name snap.Metrics.histograms)

let ratio num den =
  match (num, den) with
  | Some a, Some b when b > 0. -> Some (a /. b)
  | Some _, Some _ -> Some 0.
  | _ -> None

let ( +? ) a b = match (a, b) with Some x, Some y -> Some (x +. y) | _ -> None
let ( -? ) a b = match (a, b) with Some x, Some y -> Some (x -. y) | _ -> None

(* The [parallel.*] metrics of a pool of [domains] domains, from the
   [pool/*] counters and batch histogram. *)
let pool_values snap ~domains =
  let ms name = Option.map (fun us -> us /. 1e3) (counter snap name) in
  [
    ("parallel.pool_batches", counter snap "pool/batches");
    ("parallel.pool_items", counter snap "pool/items");
    ("parallel.pool_busy_ms", ms "pool/busy_us");
    ("parallel.pool_queue_wait_ms", ms "pool/queue_wait_us");
    ("parallel.pool_barrier_wait_ms", ms "pool/barrier_wait_us");
    ( "parallel.pool_util",
      ratio (ms "pool/busy_us")
        (Option.map (fun b -> b *. float_of_int domains) (hist_sum_ms snap "pool/batch_us")) );
  ]
