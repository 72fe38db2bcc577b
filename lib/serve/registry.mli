(** The daemon's job table and its on-disk mirror.

    Every job owns one directory under [<state_dir>/jobs/<id>/]:

    {v
    spec.mms         the submitted specification, verbatim
    job.sexp         Job.to_sexp metadata (atomic write, every change)
    checkpoint.snap  Mm_io.Snapshot of the in-flight run state
    events.jsonl     append-only progress event log (the trace schema)
    result.sexp      final outcome, written once on completion
    v}

    Admission runs {!Mm_io.Codec.check_string}: a spec with
    error-severity MM0xx diagnostics is rejected before a directory is
    ever created.  {!rehydrate} is the crash-recovery path — it reloads
    every job directory, returns the non-terminal ones (oldest first)
    with their checkpoint states ready to resume, and continues the
    submission sequence where the dead daemon stopped, so job ids stay
    stable across restarts.

    All metadata writes go through {!Mm_io.Codec.write_file_atomic}: a
    [kill -9] at any instant leaves every file either previous or new,
    never torn. *)

type entry = {
  job : Job.t;
  mutable spec : Mm_cosynth.Spec.t option;
      (** The parsed spec, held only while the job can still run: set at
          admission and by {!rehydrate} for non-terminal jobs, dropped by
          {!complete}, {!fail} and {!cancel}.  A parsed spec owns the
          per-mode caches of its compiled context, so a daemon that kept
          it for finished jobs would grow without bound. *)
  spec_text : string;  (** The submitted text, kept for every job. *)
  mutable resume : Mm_cosynth.Synthesis.run_state option;
      (** Loaded by {!rehydrate}; the server consumes it at restart. *)
}

type t

val create : state_dir:string -> t
(** Create (or reopen) the state directory. *)

val set_on_event : t -> (Job.t -> string -> unit) -> unit
(** Called with every JSONL event line as it is appended — the live
    feed behind [watch]. *)

val submit :
  ?nonce:string ->
  t ->
  spec_text:string ->
  options:Job.options ->
  now:float ->
  (entry, Mm_cosynth.Validate.diag list) result
(** Validate and admit a submission.  [Error] carries every diagnostic
    (warnings included) when any has error severity; admission with
    warnings succeeds, as [mmsynth check] would.  [nonce] is the
    client's idempotency key, remembered (and persisted) so a retried
    submit can be answered with the existing job — the server checks
    {!find_by_nonce} before admitting. *)

val rehydrate : t -> entry list
(** Reload all job directories into the table and return the
    non-terminal entries in submission order, each with
    [entry.resume] populated from the newest {e decodable} generation
    of its [checkpoint.snap] chain ({!Mm_io.Snapshot.load_latest}).
    Corrupt checkpoint generations are quarantined as [*.corrupt] and
    resume falls back to the next older one.  A directory whose
    [job.sexp] no longer loads has it quarantined as
    [job.sexp.corrupt] (and is skipped quietly on later startups)
    instead of poisoning the whole recovery; so has a non-terminal job
    whose [spec.mms] no longer parses.  Terminal jobs keep their spec as
    text only and are never parsed, so a damaged [spec.mms] cannot cost
    a finished job its listing. *)

val find : t -> string -> entry option

val find_by_nonce : t -> string -> entry option
(** The job admitted under this submission nonce, if any — the
    server's idempotent-submit lookup.  Survives daemon restarts (the
    nonce is persisted in [job.sexp]). *)

val entries : t -> entry list
(** All known jobs, submission order. *)

(* Lifecycle mutators: each transitions the state machine (illegal moves
   raise [Invalid_argument] — they are daemon bugs, not wire input),
   persists [job.sexp] and appends an event.  The terminal ones
   ([complete], [fail], [cancel]) also drop [entry.spec]. *)

val mark_running : t -> entry -> now:float -> unit
(** Queued/Checkpointed → Running; a no-op when already Running (a
    rehydrated job that died before its first checkpoint). *)

val record_progress :
  t -> entry -> Mm_cosynth.Synthesis.progress -> now:float -> unit
(** Update progress counters and append a [generation] event; stamps
    [first_generation_at] on the first call.  Does {e not} rewrite
    [job.sexp] — that happens at checkpoint boundaries. *)

val checkpointed : t -> entry -> now:float -> unit
(** Record that a snapshot was just persisted: Running → Checkpointed
    (idempotent once checkpointed) and [job.sexp] rewritten so the
    metadata agrees with the snapshot a crash would find. *)

val complete : t -> entry -> Mm_cosynth.Synthesis.result -> now:float -> unit
(** → Completed; writes [result.sexp] (genome and bit-exact
    power/fitness — the file the crash-recovery smoke test diffs). *)

val fail : t -> entry -> string -> now:float -> unit
val cancel : t -> entry -> now:float -> unit

val checkpoint_path : t -> entry -> string
val events_path : t -> entry -> string

val read_events : t -> entry -> string list
(** The event lines appended so far (the [watch] replay prefix). *)
