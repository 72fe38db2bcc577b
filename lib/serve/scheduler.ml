exception Cancelled

type _ Effect.t += Yield : unit Effect.t

type resume =
  | Start of (yield:(unit -> unit) -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Finished

type handle = { mutable resume : resume; mutable cancel_requested : bool }
type t = { queue : handle Queue.t }

let create () = { queue = Queue.create () }

let spawn t body =
  let handle = { resume = Start body; cancel_requested = false } in
  Queue.push handle t.queue;
  handle

let request_cancel handle =
  match handle.resume with
  | Finished -> true
  | Suspended _ ->
    handle.cancel_requested <- true;
    true
  | Start _ ->
    handle.cancel_requested <- true;
    false

let finished handle =
  match handle.resume with Finished -> true | Start _ | Suspended _ -> false

let yield () = Effect.perform Yield

(* The deep handler stays attached to the continuation, so it is
   installed once per body (at its first slice): every later [continue]
   returns through the same [retc]/[exnc]/[effc]. *)
let start t handle body =
  let open Effect.Deep in
  match_with (fun () -> body ~yield) ()
    {
      retc = (fun () -> handle.resume <- Finished);
      exnc = (fun _exn -> handle.resume <- Finished)
      (* bodies own their error reporting; nothing may escape [step] *);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some
              (fun (k : (a, unit) continuation) ->
                handle.resume <- Suspended k;
                Queue.push handle t.queue)
          | _ -> None);
    }

let step t =
  match Queue.take_opt t.queue with
  | None -> false
  | Some handle ->
    (match handle.resume with
    | Finished -> () (* cancelled or finished while still enqueued *)
    | Start body ->
      if handle.cancel_requested then handle.resume <- Finished
      else start t handle body
    | Suspended k ->
      if handle.cancel_requested then Effect.Deep.discontinue k Cancelled
      else Effect.Deep.continue k ());
    true

let busy t = not (Queue.is_empty t.queue)
let pending t = Queue.length t.queue
