(** The mmsynthd daemon: one domain multiplexing every connection and
    every synthesis job.

    A single [select]-driven event loop owns the listening sockets, all
    client connections (non-blocking, one {!Protocol.Framing} decoder
    and one outgoing byte buffer each) and the cooperative
    {!Scheduler}: each loop iteration services the ready sockets, then
    runs {e one} generation slice of the front job.  Fitness-evaluation
    batches inside a slice fan out over the shared bounded {!Mm_parallel.Pool}
    (which survives worker crashes by respawning).  Because everything
    else happens on one domain, no state in {!Registry} needs locking,
    and events emitted mid-slice are simply appended to the watchers'
    buffers and flushed on the next iteration.

    Crash recovery: on start the server {!Registry.rehydrate}s the state
    directory and re-queues every non-terminal job — resumed from its
    snapshot when one exists, rerun from scratch (same seed, same
    trajectory) otherwise.  A [shutdown] request stops the loop
    immediately, abandoning in-flight coroutines at their last yield
    point; since checkpoints are persisted {e before} each yield, that
    is indistinguishable from [kill -9] to the next daemon. *)

type config = {
  socket_path : string;  (** Unix-domain listening socket. *)
  tcp : (string * int) option;  (** Optional additional TCP listener. *)
  state_dir : string;
  pool_jobs : int;
      (** Domains of the shared evaluation pool; [<= 1] evaluates on the
          scheduler domain.  Callers clamp with
          {!Mm_parallel.Pool.clamp_jobs}. *)
  checkpoint_every : int;  (** Snapshot cadence in GA generations. *)
  keep_checkpoints : int;
      (** Snapshot generations rotated per job ({!Mm_io.Snapshot.save}'s
          [keep]); [1] keeps only the newest, >= 2 lets recovery fall
          back past a corrupted write. *)
  max_jobs : int;
      (** Admission bound: submissions past this many non-terminal jobs
          receive a typed {!Protocol.Busy} instead of queueing without
          bound.  [0] = unbounded. *)
  read_deadline : float;
      (** Seconds a connection may sit idle {e mid-frame} before it is
          dropped ([0.] = never).  Clients idle between requests are
          never dropped. *)
  auth_token : string option;
      (** Shared secret every TCP request must carry in its envelope
          (verified in constant time; wrong or missing tokens get a
          typed {!Protocol.Unauthorized}).  Unix-socket clients are
          never challenged: the socket file's permissions are their
          credential. *)
}

val default_config : config
(** The CLI defaults: Unix socket only, 3 rotated checkpoint
    generations, 30 s mid-frame read deadline, no admission bound, no
    auth. *)

val default_checkpoint_every : int
(** 5, like the CLI's [--checkpoint-every] default. *)

val default_keep_checkpoints : int
(** 3: survives one corrupt generation with one still behind it. *)

val default_read_deadline : float
(** 30 seconds. *)

val synthesis_config : Job.options -> Mm_cosynth.Synthesis.config
(** The per-job synthesis configuration a daemon derives from submitted
    options.  The search knobs go through
    {!Mm_cosynth.Synthesis.config_of_flags}, the mapping [mmsynth]'s
    flags of the same names use; restarts and the island topology are
    copied as given, and [jobs] is 1 because evaluation runs on the
    daemon's shared pool, which never changes a result.  So a daemon job
    and a [mmsynth synth] run with the same flags share one trajectory
    (test/serve_smoke.sh checks that power and generation count agree) and one
    {!Mm_cosynth.Synthesis.config_fingerprint}, which is what lets a
    restarted daemon resume a snapshot taken by its predecessor. *)

type t
(** A daemon's job side: the registry, the scheduler with one coroutine
    per live job, and the shared pool — everything but the sockets. *)

val create : config -> t
(** Open the state directory, start the pool, and {!Registry.rehydrate}
    and re-queue every non-terminal job.  Opens no socket. *)

val registry : t -> Registry.t

val step : t -> bool
(** Run one generation slice of the front job ({!Scheduler.step}). *)

val cancel : t -> string -> Protocol.response
(** The [cancel] request: [Done], or a typed error for an unknown or
    already terminal job.  A job whose body has not started — queued,
    or rehydrated and not resumed yet — is recorded Cancelled at once
    (its body will never run); a running body cancels itself at its
    next yield. *)

val close : t -> unit
(** Shut the pool down. *)

val run : config -> unit
(** Serve until a [shutdown] request.  Installs nothing but a [SIGPIPE]
    ignore; the caller owns daemonisation. *)
