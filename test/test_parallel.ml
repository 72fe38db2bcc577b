(* Tests for mm_parallel: the domain Pool and the LRU Memo cache. *)

module Pool = Mm_parallel.Pool
module Memo = Mm_parallel.Memo

(* --- Pool -------------------------------------------------------------------- *)

let with_pool ~domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_matches_array_map () =
  with_pool ~domains:4 (fun pool ->
      List.iter
        (fun n ->
          let input = Array.init n (fun i -> i) in
          let f x = (x * x) - (3 * x) in
          Alcotest.(check (array int))
            (Printf.sprintf "size %d" n)
            (Array.map f input) (Pool.map pool f input))
        [ 0; 1; 2; 3; 7; 64; 1000 ])

let test_pool_single_domain () =
  with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "serial pool size" 1 (Pool.size pool);
      let input = Array.init 100 string_of_int in
      Alcotest.(check (array string))
        "serial fallback" input
        (Pool.map pool Fun.id input))

let test_pool_size_clamped () =
  with_pool ~domains:(-3) (fun pool ->
      Alcotest.(check int) "negative request clamps to 1" 1 (Pool.size pool));
  with_pool ~domains:3 (fun pool -> Alcotest.(check int) "three" 3 (Pool.size pool))

let test_pool_reuse_across_batches () =
  (* The same pool must serve many consecutive maps (one per GA
     generation) without wedging or cross-talk. *)
  with_pool ~domains:3 (fun pool ->
      for batch = 1 to 50 do
        let input = Array.init (10 + (batch mod 17)) (fun i -> (batch * 1000) + i) in
        Alcotest.(check (array int))
          (Printf.sprintf "batch %d" batch)
          (Array.map succ input) (Pool.map pool succ input)
      done)

exception Boom of int

let test_pool_propagates_exception () =
  with_pool ~domains:4 (fun pool ->
      let input = Array.init 100 (fun i -> i) in
      match Pool.map pool (fun x -> if x = 57 then raise (Boom x) else x) input with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Boom 57 -> ()
      | exception Boom _ -> Alcotest.fail "wrong element blamed");
  (* The pool survives a failed batch. *)
  with_pool ~domains:4 (fun pool ->
      (try ignore (Pool.map pool (fun _ -> raise Exit) [| 1; 2; 3 |])
       with Exit -> ());
      Alcotest.(check (array int)) "usable after failure" [| 2; 3; 4 |]
        (Pool.map pool succ [| 1; 2; 3 |]))

let test_pool_all_elements_raise () =
  (* Every element raises, so every worker domain fails mid-batch; the
     batch must still terminate with the exception rather than hang on
     the unfinished-items count. *)
  with_pool ~domains:4 (fun pool ->
      (match Pool.map pool (fun x -> raise (Boom x)) (Array.init 64 Fun.id) with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Boom _ -> ());
      Alcotest.(check (array int)) "usable after all-fail batch" [| 1; 2 |]
        (Pool.map pool Fun.id [| 1; 2 |]))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:3 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.map pool succ [| 1 |] with
  | _ -> Alcotest.fail "map on a shut-down pool must fail"
  | exception Invalid_argument _ -> ()

let test_pool_nonuniform_cost () =
  (* Chunked stealing must still fill every result slot when the
     per-element cost varies wildly. *)
  with_pool ~domains:4 (fun pool ->
      let input = Array.init 200 (fun i -> i) in
      let f x =
        let spin = if x mod 17 = 0 then 10_000 else 10 in
        let acc = ref 0 in
        for i = 1 to spin do
          acc := !acc + (i mod 7)
        done;
        x + (!acc * 0)
      in
      Alcotest.(check (array int)) "all slots" input (Pool.map pool f input))

(* --- Pool fault tolerance ----------------------------------------------------- *)

let test_pool_retry_heals_flaky_jobs () =
  (* Every element fails twice before succeeding; with a retry budget of
     three the batch must complete with the serial oracle's result and
     account one retry per failure. *)
  let n = 32 in
  let attempts = Array.init n (fun _ -> Atomic.make 0) in
  let f x =
    if Atomic.fetch_and_add attempts.(x) 1 < 2 then raise (Boom x);
    x * x
  in
  let pool = Pool.create ~domains:4 ~max_retries:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let input = Array.init n Fun.id in
  Alcotest.(check (array int))
    "matches the serial oracle"
    (Array.map (fun x -> x * x) input)
    (Pool.map pool f input);
  Alcotest.(check int) "two retries per element" (2 * n) (Pool.stats pool).Pool.retries

let test_pool_retry_budget_exhausted () =
  (* A persistently failing job must still propagate its exception after
     the retries run out, and the pool must survive. *)
  let pool = Pool.create ~domains:2 ~max_retries:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (match Pool.map pool (fun x -> raise (Boom x)) [| 1; 2; 3; 4 |] with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Boom _ -> ());
  Alcotest.(check bool) "retries counted" true ((Pool.stats pool).Pool.retries >= 2);
  Alcotest.(check (array int)) "usable after exhausted retries" [| 2; 3 |]
    (Pool.map pool succ [| 1; 2 |])

(* Chaos injection at the pool's own site: armed worker raises are
   indistinguishable from flaky jobs, so a retry budget absorbs every
   one of them and the batch result matches the serial oracle exactly. *)
let test_pool_absorbs_injected_faults () =
  let module Fault = Mm_fault.Fault in
  Fault.arm ~seed:77
    [
      ("pool.worker_raise", { Fault.probability = 0.3; limit = -1; delay = 0.0 });
      ("pool.worker_stall", { Fault.probability = 0.1; limit = 4; delay = 0.001 });
    ];
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let pool = Pool.create ~domains:4 ~max_retries:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let input = Array.init 200 Fun.id in
  Alcotest.(check (array int))
    "matches the serial oracle under injection"
    (Array.map (fun x -> x * x) input)
    (Pool.map pool (fun x -> x * x) input);
  let site = Fault.site "pool.worker_raise" in
  Alcotest.(check bool) "faults actually fired" true (Fault.injected site > 0);
  Alcotest.(check bool) "each injection retried" true
    ((Pool.stats pool).Pool.retries >= Fault.injected site)

(* Injected raises with NO retry budget must not fire at all — the
   injection site is compiled to respect [max_retries], so chaos never
   turns a configuration that cannot recover into one that fails. *)
let test_pool_injection_respects_budget () =
  let module Fault = Mm_fault.Fault in
  Fault.arm ~seed:77
    [
      ("pool.worker_raise", { Fault.probability = 1.0; limit = -1; delay = 0.0 });
    ];
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check (array int))
    "no injection without a retry budget" [| 1; 4; 9 |]
    (Pool.map pool (fun x -> x * x) [| 1; 2; 3 |])

(* --- Memo -------------------------------------------------------------------- *)

let test_memo_hit_and_miss_accounting () =
  let cache = Memo.create ~capacity:8 () in
  Alcotest.(check (option int)) "cold miss" None (Memo.find cache [| 1; 2; 3 |]);
  Memo.add cache [| 1; 2; 3 |] 42;
  Alcotest.(check (option int)) "hit" (Some 42) (Memo.find cache [| 1; 2; 3 |]);
  Alcotest.(check (option int)) "other key misses" None (Memo.find cache [| 3; 2; 1 |]);
  Alcotest.(check int) "hits" 1 (Memo.hits cache);
  Alcotest.(check int) "misses" 2 (Memo.misses cache);
  Alcotest.(check int) "one entry" 1 (Memo.length cache)

let test_memo_lru_eviction () =
  let cache = Memo.create ~capacity:3 () in
  Memo.add cache [| 1 |] 1;
  Memo.add cache [| 2 |] 2;
  Memo.add cache [| 3 |] 3;
  (* Touch [|1|] so [|2|] becomes the LRU entry, then overflow. *)
  ignore (Memo.find cache [| 1 |]);
  Memo.add cache [| 4 |] 4;
  Alcotest.(check bool) "evicted the LRU entry" false (Memo.mem cache [| 2 |]);
  Alcotest.(check bool) "recently used survives" true (Memo.mem cache [| 1 |]);
  Alcotest.(check bool) "newest survives" true (Memo.mem cache [| 4 |]);
  Alcotest.(check int) "bounded" 3 (Memo.length cache);
  Alcotest.(check int) "eviction counted" 1 (Memo.evictions cache)

let test_memo_eviction_order_is_recency () =
  let cache = Memo.create ~capacity:2 () in
  Memo.add cache [| 1 |] 1;
  Memo.add cache [| 2 |] 2;
  Memo.add cache [| 3 |] 3;
  (* [|1|] was least recent. *)
  Alcotest.(check bool) "1 gone" false (Memo.mem cache [| 1 |]);
  Memo.add cache [| 4 |] 4;
  Alcotest.(check bool) "2 gone" false (Memo.mem cache [| 2 |]);
  Alcotest.(check bool) "3 and 4 present" true
    (Memo.mem cache [| 3 |] && Memo.mem cache [| 4 |])

let test_memo_overwrite_no_eviction () =
  let cache = Memo.create ~capacity:2 () in
  Memo.add cache [| 1 |] 1;
  Memo.add cache [| 2 |] 2;
  Memo.add cache [| 1 |] 10;
  Alcotest.(check int) "still 2 entries" 2 (Memo.length cache);
  Alcotest.(check int) "no eviction" 0 (Memo.evictions cache);
  Alcotest.(check (option int)) "overwritten" (Some 10) (Memo.find cache [| 1 |])

let test_memo_does_not_alias_keys () =
  let cache = Memo.create ~capacity:4 () in
  let key = [| 1; 2; 3 |] in
  Memo.add cache key 7;
  key.(0) <- 99;
  Alcotest.(check (option int)) "mutated caller array does not corrupt the cache"
    (Some 7)
    (Memo.find cache [| 1; 2; 3 |])

let test_memo_capacity_one () =
  let cache = Memo.create ~capacity:1 () in
  Memo.add cache [| 1 |] 1;
  Memo.add cache [| 2 |] 2;
  Alcotest.(check int) "one entry" 1 (Memo.length cache);
  Alcotest.(check (option int)) "latest wins" (Some 2) (Memo.find cache [| 2 |]);
  match Memo.create ~capacity:0 () with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ()

let test_memo_clear () =
  (* Capacity-many new keys clear every older entry out of the cache;
     the traffic counters keep counting across the turnover. *)
  let cache = Memo.create ~capacity:2 () in
  Memo.add cache [| 1 |] 1;
  ignore (Memo.find cache [| 1 |]);
  Memo.add cache [| 2 |] 2;
  Memo.add cache [| 3 |] 3;
  Alcotest.(check int) "bounded" 2 (Memo.length cache);
  Alcotest.(check int) "counters kept" 1 (Memo.hits cache);
  Alcotest.(check (option int)) "gone" None (Memo.find cache [| 1 |]);
  Alcotest.(check int) "miss counted" 1 (Memo.misses cache)

let test_memo_recent_lookups_survive () =
  (* The entries of the last [n] lookups sit at the front of the LRU
     list, so they outlive [capacity - n] further insertions: one
     evaluation's working set is not evicted by the insertions of the
     evaluations running beside it. *)
  let capacity = 8 and n = 3 in
  let cache = Memo.create ~capacity () in
  for k = 1 to capacity do
    Memo.add cache [| k |] k
  done;
  (* Touch the oldest entries so that they become the most recent. *)
  for k = 1 to n do
    ignore (Memo.find cache [| k |])
  done;
  for k = capacity + 1 to (2 * capacity) - n do
    Memo.add cache [| k |] k
  done;
  for k = 1 to n do
    Alcotest.(check bool) (Printf.sprintf "looked-up %d survives" k) true
      (Memo.mem cache [| k |])
  done;
  Alcotest.(check bool) "untouched entry evicted" false (Memo.mem cache [| n + 1 |]);
  Memo.add cache [| 2 * capacity |] 0;
  Alcotest.(check bool) "one more insertion evicts the oldest lookup" false
    (Memo.mem cache [| 1 |])

let test_memo_shared_across_domains () =
  (* One small cache driven from both domains of a pool, with keys that
     overlap across domains and value = f(key): every hit must return
     f(key), the LRU bound must hold, and no lookup may be lost from the
     counters. *)
  let f k = (k * 7919) + 13 in
  let cache = Memo.create ~capacity:8 () in
  let n_items = 4000 in
  let wrong = Atomic.make 0 in
  with_pool ~domains:2 (fun pool ->
      ignore
        (Pool.map pool
           (fun i ->
             let k = (i * 31) mod 23 in
             let key = [| k; k + 1 |] in
             match Memo.find cache key with
             | Some v -> if v <> f k then Atomic.incr wrong
             | None -> Memo.add cache key (f k))
           (Array.init n_items Fun.id)));
  Alcotest.(check int) "every hit is f(key)" 0 (Atomic.get wrong);
  Alcotest.(check bool) "bounded" true (Memo.length cache <= Memo.capacity cache);
  Alcotest.(check int) "hits + misses = finds" n_items (Memo.hits cache + Memo.misses cache)

let test_pool_wait_split_stats () =
  (* The conflated wait metric is gone: queue wait (parked between
     batches) and barrier wait (owner idle at the batch barrier) are
     reported separately and are both non-negative. *)
  let pool = Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  for _ = 1 to 5 do
    ignore (Pool.map pool (fun x -> x * x) (Array.init 64 Fun.id))
  done;
  let stats = Pool.stats pool in
  Alcotest.(check bool) "queue wait non-negative" true
    (stats.Pool.queue_wait_seconds >= 0.0);
  Alcotest.(check bool) "barrier wait non-negative" true
    (stats.Pool.barrier_wait_seconds >= 0.0)

(* Property: a capacity-c cache behaves like its unbounded reference on
   the most recent <= c distinct keys. *)
let prop_memo_model =
  QCheck.Test.make ~name:"memo agrees with an association-list model" ~count:200
    QCheck.(list (pair (int_range 0 9) small_int))
    (fun operations ->
      let capacity = 4 in
      let cache = Memo.create ~capacity () in
      (* Model: association list, most recent first. *)
      let model = ref [] in
      List.for_all
        (fun (key_id, value) ->
          let key = [| key_id; key_id * 2 |] in
          let model_hit = List.assoc_opt key_id !model in
          let cache_hit = Memo.find cache key in
          (* Recency refresh on hit. *)
          (match model_hit with
          | Some v ->
            model := (key_id, v) :: List.remove_assoc key_id !model
          | None ->
            Memo.add cache key value;
            model :=
              (let bumped = (key_id, value) :: List.remove_assoc key_id !model in
               if List.length bumped > capacity then
                 List.filteri (fun i _ -> i < capacity) bumped
               else bumped));
          cache_hit = model_hit)
        operations)

let () =
  Alcotest.run "mm_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "matches Array.map" `Quick test_pool_matches_array_map;
          Alcotest.test_case "single domain" `Quick test_pool_single_domain;
          Alcotest.test_case "size clamped" `Quick test_pool_size_clamped;
          Alcotest.test_case "reuse across batches" `Quick test_pool_reuse_across_batches;
          Alcotest.test_case "exception propagation" `Quick test_pool_propagates_exception;
          Alcotest.test_case "all elements raise" `Quick test_pool_all_elements_raise;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "non-uniform cost" `Quick test_pool_nonuniform_cost;
          Alcotest.test_case "wait split stats" `Quick test_pool_wait_split_stats;
        ] );
      ( "pool fault tolerance",
        [
          Alcotest.test_case "retry heals flaky jobs" `Quick
            test_pool_retry_heals_flaky_jobs;
          Alcotest.test_case "retry budget exhausted" `Quick
            test_pool_retry_budget_exhausted;
          Alcotest.test_case "absorbs injected faults" `Quick
            test_pool_absorbs_injected_faults;
          Alcotest.test_case "injection respects the retry budget" `Quick
            test_pool_injection_respects_budget;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_memo_hit_and_miss_accounting;
          Alcotest.test_case "LRU eviction" `Quick test_memo_lru_eviction;
          Alcotest.test_case "eviction order" `Quick test_memo_eviction_order_is_recency;
          Alcotest.test_case "overwrite" `Quick test_memo_overwrite_no_eviction;
          Alcotest.test_case "keys copied" `Quick test_memo_does_not_alias_keys;
          Alcotest.test_case "capacity one" `Quick test_memo_capacity_one;
          Alcotest.test_case "clear" `Quick test_memo_clear;
          Alcotest.test_case "recent lookups survive" `Quick
            test_memo_recent_lookups_survive;
          Alcotest.test_case "shared across domains" `Quick
            test_memo_shared_across_domains;
          QCheck_alcotest.to_alcotest prop_memo_model;
        ] );
    ]
