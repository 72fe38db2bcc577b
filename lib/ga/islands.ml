module Prng = Mm_util.Prng
module Pool = Mm_parallel.Pool
module Metrics = Mm_obs.Metrics

let p_epoch = Mm_obs.Probe.create "islands/epoch"
let m_epochs = Metrics.counter "islands/epochs"
let m_migrants = Metrics.counter "islands/migrants"

type topology = { islands : int; migration_interval : int; migration_count : int }

let default_topology = { islands = 1; migration_interval = 8; migration_count = 2 }

type checkpoint = { ring : int array; members : Engine.checkpoint array }

type 'info result = {
  best : 'info Engine.result;
  per_island : 'info Engine.result array;
  generations : int;
  evaluations : int;
}

(* One island = one Engine.state stepped to successive epoch boundaries.
   All randomness an island ever consumes comes from its own stream
   ([Prng.stream rng i] at the start, or its checkpointed word on
   resume), and migration is plain deterministic array surgery applied
   island-by-island in index order on the owner domain — so the
   trajectory is a function of (seed, topology, problem) alone, never
   of the domain count or the schedule. *)

let run ?(config = Engine.default_config) ?(topology = default_topology) ?pool
    ?delta ?on_epoch ?resume ~rng problem =
  let n = topology.islands in
  if n < 1 then invalid_arg "Islands.run: need at least one island";
  let interval = max 1 topology.migration_interval in
  let count = max 0 (min topology.migration_count config.population_size) in
  (* Each island breeds and evaluates serially on whatever domain steps
     it.  The pool never sees individual evaluations; it schedules whole
     islands, so the per-generation batch fan-out/fan-in disappears from
     the hot path. *)
  let ring, states =
    match resume with
    | Some (ck : checkpoint) ->
      if Array.length ck.members <> n then
        invalid_arg "Islands.run: checkpoint island count mismatch";
      if Array.length ck.ring <> n then
        invalid_arg "Islands.run: checkpoint ring size mismatch";
      (* Each island's stream continues from its checkpointed word; the
         caller's [rng] is superseded, exactly as in [Engine.run]. *)
      ( Array.copy ck.ring,
        Array.map
          (fun (eck : Engine.checkpoint) ->
            Engine.init ~config ?delta ~resume:eck
              ~rng:(Prng.of_state eck.rng_state) problem)
          ck.members )
    | None ->
      (* Island [i] draws from the [i]-th child stream of the run seed;
         stream 0 is the seed's own state, so a single island is
         bit-identical to [Engine.run] with the same [rng].  The ring
         permutation comes from stream [n] — a stream no island uses. *)
      let ring = Array.init n (fun i -> i) in
      if n > 1 then Prng.shuffle (Prng.stream rng n) ring;
      ( ring,
        Array.init n (fun i ->
            Engine.init ~config ?delta ~rng:(Prng.stream rng i) problem) )
  in
  (match pool with
  | Some p when n > Pool.size p ->
    (* Mirrors the CLI oversubscription warning: more islands than
       domains is legal — the pool round-robins several islands per
       domain slot — it just will not speed things up further. *)
    Printf.eprintf
      "warning: %d islands across %d pool domain%s; islands will share domain slots\n%!"
      n (Pool.size p)
      (if Pool.size p = 1 then "" else "s")
  | _ -> ());
  let max_generation () =
    Array.fold_left (fun acc st -> max acc (Engine.generation st)) 0 states
  in
  let unfinished () =
    Array.exists (fun st -> not (Engine.finished st)) states
  in
  let advance target =
    let todo = ref [] in
    Array.iteri
      (fun i st -> if not (Engine.finished st) then todo := i :: !todo)
      states;
    let todo = Array.of_list (List.rev !todo) in
    match pool with
    | Some p when Array.length todo > 1 && Pool.size p > 1 ->
      (* Island stepping is NOT idempotent, so the pool must not retry
         these jobs; pools built without [max_retries] satisfy that.
         Each job touches only its
         own island's state, and the batch barrier publishes the
         mutations back to the owner. *)
      ignore
        (Pool.map p
           (fun i ->
             Engine.step states.(i) ~until:target;
             i)
           todo)
    | _ -> Array.iter (fun i -> Engine.step states.(i) ~until:target) todo
  in
  (* Deterministic ring migration, applied in island index order on the
     owner domain: island [ring.(p)] exports copies of its [count] best
     members to island [ring.((p+1) mod n)].  Exports are all taken
     before any injection, so migration is order-independent — the same
     individuals move regardless of how islands are numbered on the
     ring. *)
  let migrate () =
    if n > 1 && count > 0 then begin
      let exports = Array.map (fun st -> Engine.best_members st count) states in
      let incoming = Array.make n [] in
      Array.iteri
        (fun p island -> incoming.(ring.((p + 1) mod n)) <- exports.(island))
        ring;
      Array.iteri (fun i st -> Engine.inject st incoming.(i)) states;
      Metrics.incr ~by:(n * count) m_migrants
    end
  in
  let capture () =
    { ring = Array.copy ring; members = Array.map Engine.to_checkpoint states }
  in
  while unfinished () do
    let target =
      min config.max_generations (((max_generation () / interval) + 1) * interval)
    in
    Mm_obs.Probe.run
      ~args:(fun () ->
        [ ("target", string_of_int target); ("islands", string_of_int n) ])
      p_epoch
    @@ fun () ->
    advance target;
    migrate ();
    Metrics.incr m_epochs;
    (* The epoch boundary after migration is the island run's checkpoint
       point: every island is at a generation boundary and the migrants
       are already in place, so a resume re-enters exactly here. *)
    match on_epoch with None -> () | Some emit -> emit (capture ())
  done;
  let per_island = Array.map Engine.to_result states in
  let best_i = ref 0 in
  Array.iteri
    (fun i (r : _ Engine.result) ->
      (* Strict < with ties to the lowest island index. *)
      if r.best_fitness < per_island.(!best_i).best_fitness then best_i := i)
    per_island;
  {
    best = per_island.(!best_i);
    per_island;
    generations =
      Array.fold_left (fun acc (r : _ Engine.result) -> acc + r.generations) 0 per_island;
    evaluations =
      Array.fold_left (fun acc (r : _ Engine.result) -> acc + r.evaluations) 0 per_island;
  }
