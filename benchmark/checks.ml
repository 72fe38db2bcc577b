(* Output checks.  Each returns [Error reason] on a wrong result; the
   workloads run them outside every timed interval and count a failed
   check as a failed operation. *)

module Synthesis = Mm_cosynth.Synthesis
module Fitness = Mm_cosynth.Fitness
module Audit = Mm_cosynth.Audit
module Fleet_sim = Mm_energy.Fleet_sim
module Protocol = Mm_serve.Protocol
module Job = Mm_serve.Job

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A synthesis winner must pass the auditor, re-evaluate to the same
   fitness bits from its genome, and be no worse than any anchor the GA
   was seeded with (elitism keeps the best). *)
let synth_winner ~(config : Synthesis.config) ~spec (r : Synthesis.result) =
  let fitness = config.Synthesis.fitness in
  let report = Audit.check ~config:fitness ~spec r.Synthesis.eval in
  let winner = r.Synthesis.eval.Fitness.fitness in
  if not report.Audit.clean then
    Error (Printf.sprintf "audit found %d violations" (List.length report.Audit.violations))
  else if not (bits_equal (Fitness.evaluate fitness spec r.Synthesis.genome).Fitness.fitness winner)
  then Error "winner genome does not re-evaluate to its reported fitness"
  else if
    List.exists
      (fun g -> (Fitness.evaluate fitness spec g).Fitness.fitness < winner)
      (Synthesis.anchors spec)
  then Error "winner is worse than a seeded anchor"
  else Ok ()

(* The traced repetition of a seed must reproduce the timed one's
   (genome, power). *)
let same_winner ~timed:(genome, power) ~traced:(genome', power') =
  if genome <> genome' then Error "the traced run found another genome"
  else if not (bits_equal power power') then Error "the traced run reports other power bits"
  else Ok ()

(* Every fleet repetition prints the same report, and its Monte Carlo
   mean power lands within 2 % of the analytic Eq. 1 value. *)
let fleet_rep ~reference (r : Fleet_sim.result) =
  let s = r.Fleet_sim.stats in
  if not (String.equal reference (Fleet_sim.to_json r)) then
    Error "fleet report differs from the first repetition"
  else if Float.abs ((s.Fleet_sim.mean_power /. s.Fleet_sim.analytic_power) -. 1.) > 0.02 then
    Error
      (Printf.sprintf "fleet mean power %.6g W is not within 2%% of Eq. 1's %.6g W"
         s.Fleet_sim.mean_power s.Fleet_sim.analytic_power)
  else Ok ()

(* A daemon job must complete; when [expected] is given (an in-process
   run of the same spec, options and seed) its power must match it bit
   for bit. *)
let daemon_job ?expected (v : Protocol.job_view) =
  match (v.Protocol.v_state, v.Protocol.v_power, expected) with
  | Job.Completed, Some p, Some e when not (bits_equal p e) ->
    Error (Printf.sprintf "%s: power %h differs from the in-process run's %h" v.Protocol.v_id p e)
  | Job.Completed, Some _, _ -> Ok ()
  | Job.Completed, None, _ -> Error (v.Protocol.v_id ^ ": completed without a power")
  | state, _, _ -> Error (Printf.sprintf "%s ended %s" v.Protocol.v_id (Job.state_to_string state))
