(** The distribution gate of the closed-form fleet: a two-sample
    Kolmogorov–Smirnov test of {!Mm_energy.Fleet_sim.device} powers
    against {!Trace_sim} walks, on the benchmark's fleet design (each
    spec's greedy timing anchor), under a usage model and horizon. *)

val ks_statistic : float array -> float array -> float
(** Two-sample statistic D = sup |F_a − F_b| of two non-empty samples. *)

val critical : alpha:float -> n:int -> m:int -> float
(** Asymptotic critical value of D at level [alpha] for sample sizes
    [n] and [m]. *)

type cell = {
  name : string;  (** [smartphone] or [mul1] .. [mul12]. *)
  model : Mm_energy.Fleet_sim.usage_model;
  horizon : float;
  d : float;
  critical : float;
}

val passes : cell -> bool

val models : Mm_energy.Fleet_sim.usage_model list
(** [point], [dirichlet:50] and [jitter:0.3]. *)

val walks :
  ?devices:int ->
  ?seed:int ->
  omsm:Mm_omsm.Omsm.t ->
  mode_powers:Mm_energy.Power.mode_power array ->
  model:Mm_energy.Fleet_sim.usage_model ->
  horizon:float ->
  unit ->
  float array
(** The time-averaged powers of the oracle walks a {!cell} on the same
    [devices] and [seed] compares against: [devices] (default 4000)
    walks on streams of seed [seed + 1] (default 8). *)

val cell :
  ?devices:int ->
  ?seed:int ->
  alpha:float ->
  name:string ->
  model:Mm_energy.Fleet_sim.usage_model ->
  horizon:float ->
  unit ->
  cell
(** [devices] (default 4000) closed-form draws against as many oracle
    walks, on fixed seeds. *)

val grid :
  ?devices:int -> ?alpha:float -> names:string list -> horizons:float list -> unit -> cell list
(** Every name × {!models} × horizon cell, each tested at [alpha]
    (default 0.01) divided by the number of cells (Bonferroni). *)

val pp_cell : Format.formatter -> cell -> unit
