(** Durable snapshots of interrupted synthesis work.

    A snapshot file carries one {!payload} — the full
    {!Mm_cosynth.Synthesis.run_state} of a single synthesis run, or the
    {!Mm_cosynth.Experiment.state} of a baseline-vs-proposed comparison
    — wrapped in a header with a format version and a fingerprint of the
    specification the run was working on.  Loading refuses a snapshot
    whose version this build does not understand or whose fingerprint
    does not match the given specification, with a typed {!error} (never
    an exception from the S-expression internals).

    Writes are atomic ({!Codec.write_file_atomic}: a uniquely named
    [.tmp] sibling, then [rename]), so a crash mid-checkpoint never
    corrupts the previous snapshot and concurrent writers never collide.

    Format (S-expression, human-readable):
    {v
    (mmsyn-snapshot
      (version 2)
      (spec fnv1a64:<16 hex digits>)
      (payload (synth ...) | (compare ...)))
    v}

    An in-flight single-engine restart is stored as the [(engine ...)]
    field of the synth payload; an in-flight island-model restart
    (version 2) as [(islands (ring ...) (island ...) ...)] — the ring
    permutation plus one engine section per island, in island index
    order.  Version-1 snapshots (no [islands] field) are still read, and
    so are snapshots carrying the [cache-hits] counters that earlier
    builds wrote (the field is ignored).  A compare payload carries its
    configuration fingerprint as [(config ...)], like a synth payload;
    compare snapshots written without it still load (the state's
    [fingerprint] is then [None]).

    PRNG states are 64-bit words and appear as decimal atoms; floats are
    printed with {!Sexp.float}, which round-trips bit-exactly. *)

val format_version : int
(** The version this build writes (currently 2); reads back to
    {!min_format_version}. *)

val min_format_version : int
(** The oldest format version this build still reads (currently 1). *)

type payload =
  | Synth of Mm_cosynth.Synthesis.run_state
  | Compare of Mm_cosynth.Experiment.state

type error =
  | Io_error of string  (** File could not be read. *)
  | Malformed of string
      (** Unparseable or structurally wrong content (truncated file,
          corrupted bytes, missing fields). *)
  | Version_mismatch of { found : int }
      (** Header carries a format version this build does not read;
          nothing past the header is decoded. *)
  | Spec_mismatch of { found : string; expected : string }
      (** The snapshot belongs to a different specification. *)

val error_to_string : error -> string

val fingerprint : Mm_cosynth.Spec.t -> string
(** FNV-1a 64-bit digest of the specification's canonical textual form
    ({!Codec.spec_to_string}), as stored in the snapshot header. *)

val to_string : spec:Mm_cosynth.Spec.t -> payload -> string
(** Encode a snapshot document (including header) for [spec]. *)

val of_string : spec:Mm_cosynth.Spec.t -> string -> (payload, error) result
(** Decode a snapshot document, verifying its header against [spec].
    Total: every failure mode maps to an {!error}. *)

val save : ?keep:int -> path:string -> spec:Mm_cosynth.Spec.t -> payload -> unit
(** Atomically write the snapshot to [path] (via
    {!Codec.write_file_atomic}).  Raises [Sys_error] when the directory
    is not writable.

    With [keep > 1] (default 1: the pre-rotation behaviour), the
    previous snapshot is first rotated into a generation chain —
    [path] becomes [path.1], [path.1] becomes [path.2], … up to
    [path.(keep-1)], oldest dropped — each step a single atomic
    [rename], so a corrupted newest generation never erases the last
    good state. *)

val load : path:string -> spec:Mm_cosynth.Spec.t -> (payload, error) result

type scan = {
  found : (payload * int) option;
      (** The newest generation that decodes, with its index (0 =
          [path] itself, [i] = [path.i]); [None] when no generation
          does. *)
  quarantined : string list;
      (** Corrupt generations renamed aside during this scan (their
          new [*.corrupt] paths), newest first. *)
}

val load_latest :
  ?max_index:int ->
  ?quarantine:bool ->
  path:string ->
  spec:Mm_cosynth.Spec.t ->
  unit ->
  scan
(** Scan the generation chain [path], [path.1], … (up to [max_index],
    default 16) for the newest snapshot that still decodes.  Missing
    generations are skipped (rotation crash gaps are legal).  A
    {e malformed} generation — truncated or garbage bytes — is
    renamed to [<file>.corrupt] when [quarantine] is set, so the next
    startup never re-reads it; version- or spec-mismatched files are
    skipped but left untouched (they are somebody else's data, not
    corruption).  Total: never raises on file content. *)

val synth_sink :
  ?keep:int ->
  path:string ->
  spec:Mm_cosynth.Spec.t ->
  every:int ->
  unit ->
  Mm_cosynth.Synthesis.checkpoint_sink
(** A {!Mm_cosynth.Synthesis.checkpoint_sink} that {!save}s a [Synth]
    snapshot to [path] every [every] generations (and after every
    completed restart), rotating [keep] generations (default 1: no
    rotation). *)
