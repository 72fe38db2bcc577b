(* Worker domains park on [work_ready] until the owner publishes a new
   batch (epoch bump), run the shared batch closure to exhaustion, then
   report in on [work_done].  The batch closure itself pulls chunks of
   the input through an atomic cursor, so domains steal work from each
   other rather than owning fixed slices.

   Fault tolerance: a raising job is retried with capped exponential
   backoff, up to [max_retries] times. *)

module Clock = Mm_obs.Clock
module Control = Mm_obs.Control
module Metrics = Mm_obs.Metrics
module Fault = Mm_fault.Fault

(* Chaos sites (no-ops unless a plan is armed): a worker that raises on
   its first attempt at an item — only ever injected when the pool is
   configured to retry, so the injected failure is always recovered and
   the map's results are unchanged — and a worker that stalls before
   its first attempt, which delays the batch without changing its
   results. *)
let site_worker_raise = Fault.site "pool.worker_raise"
let site_worker_stall = Fault.site "pool.worker_stall"

(* Pool utilisation metrics (recorded only when metrics are enabled):
   batches/items dispatched, summed domain busy time inside batch
   closures, and the two idle components — queue wait (workers parked
   between batches, i.e. dispatch cost) and barrier wait (the owner
   blocked on stragglers at the end of a batch, i.e. imbalance).  The
   retry counter mirrors the per-pool [stats] so a whole process's pool
   trouble is visible in metrics.json. *)
let m_batches = Metrics.counter "pool/batches"
let m_items = Metrics.counter "pool/items"
let m_busy_us = Metrics.counter "pool/busy_us"
let m_queue_wait_us = Metrics.counter "pool/queue_wait_us"
let m_barrier_wait_us = Metrics.counter "pool/barrier_wait_us"
let m_retries = Metrics.counter "pool/retries"
let p_batch = Mm_obs.Probe.create "pool/batch"

(* Sleep before retry [k] is [backoff * 2^k] seconds, capped at
   [backoff_max]. *)
let backoff = 1e-4
let backoff_max = 0.1

type t = {
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  max_retries : int;
  mutable job : (unit -> unit) option;
  mutable epoch : int;
  mutable pending : int;  (* workers still inside the current epoch's job *)
  mutable closed : bool;
  mutable workers : unit Domain.t array;
  n_retries : int Atomic.t;  (* bumped from worker domains *)
  queue_wait_us : int Atomic.t;  (* worker park time, bumped from workers *)
  mutable barrier_wait_us : int;  (* owner time blocked on stragglers *)
  mutable est_item_us : float;  (* EWMA per-item cost; 0.0 = no batch seen *)
}

type stats = {
  retries : int;
  queue_wait_seconds : float;
  barrier_wait_seconds : float;
}

(* Auto-tuned chunking aims each cursor fetch at roughly this much
   estimated work: cheap items get coarse chunks (the fetch amortises),
   expensive items fall back to fine-grained stealing for balance. *)
let chunk_target_us = 200.0

let max_domains = 64

let worker pool () =
  (* Workers are spawned before any batch exists, so epoch 0 is the one
     they have seen; reading [pool.epoch] here instead would race with
     the owner publishing a first batch. *)
  let seen = ref 0 in
  let running = ref true in
  while !running do
    (* Queue wait is measured unconditionally (two clock reads per
       batch) so [stats] can always report it; the metrics counter
       stays gated as before. *)
    let wait_t0 = Clock.now_us () in
    Mutex.lock pool.mutex;
    while (not pool.closed) && pool.epoch = !seen do
      Condition.wait pool.work_ready pool.mutex
    done;
    let waited = int_of_float (Clock.now_us () -. wait_t0) in
    ignore (Atomic.fetch_and_add pool.queue_wait_us waited);
    if Control.metrics_on () then Metrics.incr ~by:waited m_queue_wait_us;
    if pool.closed then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      seen := pool.epoch;
      let job = pool.job in
      Mutex.unlock pool.mutex;
      (* The batch closure built by [map] already captures any exception
         its elements raise; this catch-all only guards the pool against
         a closure that escapes that net (it must never skip the
         [pending] bookkeeping below, or [map] would wait forever). *)
      (match job with
      | Some run -> ( try run () with _ -> ())
      | None -> ());
      Mutex.lock pool.mutex;
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.mutex
    end
  done

let clamp_jobs ?(allow_oversubscribe = false) requested =
  let ceiling =
    if allow_oversubscribe then max_domains
    else min max_domains (Domain.recommended_domain_count ())
  in
  max 1 (min requested ceiling)

let create ?domains ?(max_retries = 0) () =
  let requested =
    match domains with Some d -> d | None -> Domain.recommended_domain_count ()
  in
  let size = max 1 (min requested max_domains) in
  let pool =
    {
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      max_retries;
      job = None;
      epoch = 0;
      pending = 0;
      closed = false;
      workers = [||];
      n_retries = Atomic.make 0;
      queue_wait_us = Atomic.make 0;
      barrier_wait_us = 0;
      est_item_us = 0.0;
    }
  in
  pool.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let size pool = Array.length pool.workers + 1

let stats pool =
  Mutex.lock pool.mutex;
  let s =
    {
      retries = Atomic.get pool.n_retries;
      queue_wait_seconds = float_of_int (Atomic.get pool.queue_wait_us) *. 1e-6;
      barrier_wait_seconds = float_of_int pool.barrier_wait_us *. 1e-6;
    }
  in
  Mutex.unlock pool.mutex;
  s

(* Run one job, retrying a raising [f] up to [max_retries] times with
   capped exponential backoff.  The final failure re-raises with its
   original backtrace. *)
let apply pool f x =
  let rec attempt k =
    try
      if k = 0 then begin
        let stall = Fault.fire_delay site_worker_stall in
        if stall > 0.0 then Unix.sleepf stall;
        (* Raise only on the first attempt and only when the retry
           budget can absorb it: every injected failure is recovered,
           so a chaos run's map results are bit-identical. *)
        if pool.max_retries > 0 then Fault.raise_if site_worker_raise
      end;
      f x
    with _ when k < pool.max_retries ->
      Atomic.incr pool.n_retries;
      Metrics.incr m_retries;
      Unix.sleepf (Float.min backoff_max (backoff *. (2.0 ** float_of_int k)));
      attempt (k + 1)
  in
  attempt 0

let map pool f input =
  if pool.closed then invalid_arg "Pool.map: pool is shut down";
  let n = Array.length input in
  let n_workers = Array.length pool.workers in
  if n = 0 then [||]
  else if n_workers = 0 || n = 1 then Array.map (apply pool f) input
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let failure = Atomic.make None in
    let element i =
      if Atomic.get failure = None then
        match apply pool f input.(i) with
        | v -> results.(i) <- Some v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt)))
    in
    (* Chunk granularity: the first batch of a pool falls back to the
       fixed few-chunks-per-domain heuristic; once a batch has been
       measured, chunks are sized so each cursor fetch covers roughly
       [chunk_target_us] of estimated work — cheap items get coarse
       chunks (amortising cursor contention), expensive items stay
       fine-grained for balance.  Capped so every domain can still grab
       at least one chunk. *)
    let chunk =
      if pool.est_item_us > 0.0 then
        let by_cost = int_of_float (ceil (chunk_target_us /. pool.est_item_us)) in
        max 1 (min by_cost (max 1 (n / (n_workers + 1))))
      else max 1 (n / ((n_workers + 1) * 4))
    in
    let run () =
      let running = ref true in
      while !running do
        let start = Atomic.fetch_and_add cursor chunk in
        if start >= n then running := false
        else
          for i = start to min n (start + chunk) - 1 do
            element i
          done
      done
    in
    (* Each domain's time inside the batch closure, summed: against the
       batch wall time this gives the pool's effective utilisation, and
       (divided by the item count) it feeds the chunk-size estimate for
       the next batch.  Measured unconditionally — two clock reads per
       domain per batch — with the metrics counter gated as before. *)
    let batch_busy_us = Atomic.make 0 in
    let run () =
      let t0 = Clock.now_us () in
      Fun.protect
        ~finally:(fun () ->
          let dt = int_of_float (Clock.now_us () -. t0) in
          ignore (Atomic.fetch_and_add batch_busy_us dt);
          if Control.metrics_on () then Metrics.incr ~by:dt m_busy_us)
        run
    in
    Metrics.incr m_batches;
    Metrics.incr ~by:n m_items;
    Mm_obs.Probe.run
      ~args:(fun () ->
        [
          ("items", string_of_int n);
          ("domains", string_of_int (n_workers + 1));
        ])
      p_batch
      (fun () ->
        Mutex.lock pool.mutex;
        pool.job <- Some run;
        pool.epoch <- pool.epoch + 1;
        pool.pending <- n_workers;
        Condition.broadcast pool.work_ready;
        Mutex.unlock pool.mutex;
        run ();
        (* Everything from here until [pending] drains is barrier wait:
           the owner has finished its share and is blocked on straggler
           chunks (imbalance), as opposed to the workers' queue wait
           between batches (dispatch cost). *)
        let barrier_t0 = Clock.now_us () in
        Mutex.lock pool.mutex;
        while pool.pending > 0 do
          Condition.wait pool.work_done pool.mutex
        done;
        pool.job <- None;
        let barrier_us = int_of_float (Clock.now_us () -. barrier_t0) in
        pool.barrier_wait_us <- pool.barrier_wait_us + barrier_us;
        if Control.metrics_on () then Metrics.incr ~by:barrier_us m_barrier_wait_us;
        (* Feed the chunk-size estimate: EWMA of measured per-item cost,
           so one anomalous batch cannot wreck the tuning. *)
        let busy = Atomic.get batch_busy_us in
        if busy > 0 then begin
          let per_item = float_of_int busy /. float_of_int n in
          pool.est_item_us <-
            (if pool.est_item_us > 0.0 then (pool.est_item_us +. per_item) /. 2.0
             else per_item)
        end;
        Mutex.unlock pool.mutex);
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map (function Some v -> v | None -> assert false) results
  end

let shutdown pool =
  Mutex.lock pool.mutex;
  let workers = pool.workers in
  pool.workers <- [||];
  if not pool.closed then begin
    pool.closed <- true;
    Condition.broadcast pool.work_ready
  end;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join workers
