(* What every workload receives, and the loops that spend its time
   budget. *)

type opts = {
  seed : int;
  seconds : float;  (** Measurement budget of the timed phase. *)
  trace : bool;  (** Report per-layer metrics from a traced pass. *)
  smoke : bool;  (** Toy scale: every code path, a few seconds in all. *)
}

(* Scratch space for sockets, daemon state and trace files, inside the
   directory the benchmark runs from. *)
let scratch_dir = ".benchmark"

let scratch path =
  if not (Sys.file_exists scratch_dir) then Unix.mkdir scratch_dir 0o755;
  Filename.concat scratch_dir path

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Run this executable again with [args] and wait for it; returns its
   standard output lines, each also echoed when [echo] is set.  Raises
   [Failure] unless the child exits with code 0. *)
let child ?(echo = false) args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let rec read acc =
    match input_line ic with
    | line ->
      if echo then print_endline line;
      read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> failwith ("child failed: " ^ String.concat " " args)

(* Run [step i] for i = 0, 1, ... until the budget would be overrun by
   one more step of the last step's length, and at least [min] times.
   After each step the host calibration loop runs, and [between], so
   that set-up samples are spread over the whole run rather than taken
   in one burst.  Returns the number of steps run. *)
let repeat ?(between = ignore) ~seconds ~min step =
  let start = Measure.now () in
  let rec go i last =
    let elapsed = Measure.now () -. start in
    if i >= min && elapsed +. last > seconds then i
    else begin
      let t0 = Measure.now () in
      step i;
      let last = Measure.now () -. t0 in
      Measure.calibrate ();
      between ();
      go (i + 1) last
    end
  in
  go 0 0.
