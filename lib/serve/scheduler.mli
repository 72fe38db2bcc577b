(** Fair round-robin multiplexing of synthesis jobs on one domain.

    Each job body runs as an OCaml-effects coroutine: it receives a
    [yield] thunk and calls it once per GA generation (the hook
    {!Mm_cosynth.Synthesis.run} exposes), which suspends the body and
    puts it at the back of the run queue.  {!step} resumes the job at
    the front for exactly one slice, so N in-flight jobs each advance
    one generation per N steps — fair regardless of spec size.

    Cancellation is cooperative: {!request_cancel} marks the handle and
    the next resume raises {!Cancelled} inside the body (at the yield
    point), unwinding through the synthesis engine's cleanup.  Bodies
    are expected to catch it and record their own terminal state.

    Single-domain, like {!Mm_parallel.Pool}: spawn and step only from
    the domain that created the scheduler. *)

type t

exception Cancelled
(** Raised inside a job body at its next suspension point after
    {!request_cancel}. *)

type handle

val create : unit -> t

val spawn : t -> (yield:(unit -> unit) -> unit) -> handle
(** Enqueue a new job body.  The body must not let exceptions escape
    (they are reported to {!spawn}'s caller via {!step} as a normal
    return — the body is simply dropped) and must call [yield] only
    from within its own extent. *)

val request_cancel : handle -> bool
(** Idempotent; a no-op once the body has finished.  Answers whether
    the body has started.  A started body observes the cancellation at
    its next resume (or has already finished) and records its own
    terminal state; a body that never started is dropped by {!step}
    without running, so the caller must record the cancellation
    itself. *)

val finished : handle -> bool

val step : t -> bool
(** Run one slice of the front job: [true] when a slice ran, [false]
    when the queue is empty.  An exception escaping a body terminates
    that body (the exception is swallowed — bodies own their error
    reporting) and still counts as a slice. *)

val busy : t -> bool
(** Jobs queued or suspended remain. *)

val pending : t -> int
