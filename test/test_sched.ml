(* Tests for mm_sched: Comm_mapping, List_scheduler, Schedule. *)

module Graph = Mm_taskgraph.Graph
module Pe = Mm_arch.Pe
module Cl = Mm_arch.Cl
module Arch = Mm_arch.Architecture
module Comm_mapping = Mm_sched.Comm_mapping
module List_scheduler = Mm_sched.List_scheduler
module Schedule = Mm_sched.Schedule
module Resource = Mm_sched.Resource
module F = Fixtures

let schedule ?(mapping = [| 0; 0; 0 |]) ?(period = 1.0) ?(instances = fun ~pe:_ ~ty:_ -> 1)
    ?(graph = F.chain_graph ()) () =
  let arch = F.arch () in
  List_scheduler.run
    (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech:(F.tech arch) ~mapping
       ~instances ~period ())

let check_valid sched graph =
  match Schedule.validate sched ~graph with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invalid schedule: " ^ msg)

(* --- Comm_mapping -------------------------------------------------------- *)

let test_route_local () =
  let arch = F.arch () in
  match Comm_mapping.route arch ~src_pe:0 ~dst_pe:0 ~data:3.0 with
  | Comm_mapping.Local -> ()
  | Comm_mapping.Via _ | Comm_mapping.Unroutable -> Alcotest.fail "expected Local"

let test_route_via_bus () =
  let arch = F.arch () in
  match Comm_mapping.route arch ~src_pe:0 ~dst_pe:1 ~data:3.0 with
  | Comm_mapping.Via { cl; time; energy } ->
    Alcotest.(check int) "bus" 0 (Cl.id cl);
    Alcotest.(check (float 1e-12)) "time" 3e-3 time;
    Alcotest.(check (float 1e-12)) "energy" (0.05 *. 3e-3) energy
  | Comm_mapping.Local | Comm_mapping.Unroutable -> Alcotest.fail "expected Via"

let test_route_picks_fastest () =
  (* Two links between the same PEs: the faster one wins. *)
  let gpp = Pe.make ~id:0 ~name:"g" ~kind:Pe.Gpp ~static_power:0.0 () in
  let gpp2 = Pe.make ~id:1 ~name:"h" ~kind:Pe.Gpp ~static_power:0.0 () in
  let slow =
    Cl.make ~id:0 ~name:"slow" ~connects:[ 0; 1 ] ~time_per_data:2.0 ~transfer_power:0.1
      ~static_power:0.0
  in
  let fast =
    Cl.make ~id:1 ~name:"fast" ~connects:[ 0; 1 ] ~time_per_data:1.0 ~transfer_power:0.5
      ~static_power:0.0
  in
  let arch = Arch.make ~name:"two-links" ~pes:[ gpp; gpp2 ] ~cls:[ slow; fast ] in
  match Comm_mapping.route arch ~src_pe:0 ~dst_pe:1 ~data:1.0 with
  | Comm_mapping.Via { cl; _ } -> Alcotest.(check int) "fastest link" 1 (Cl.id cl)
  | Comm_mapping.Local | Comm_mapping.Unroutable -> Alcotest.fail "expected Via"

let test_route_unroutable () =
  let gpp = Pe.make ~id:0 ~name:"g" ~kind:Pe.Gpp ~static_power:0.0 () in
  let gpp2 = Pe.make ~id:1 ~name:"h" ~kind:Pe.Gpp ~static_power:0.0 () in
  let arch = Arch.make ~name:"no-links" ~pes:[ gpp; gpp2 ] ~cls:[] in
  match Comm_mapping.route arch ~src_pe:0 ~dst_pe:1 ~data:1.0 with
  | Comm_mapping.Unroutable -> ()
  | Comm_mapping.Local | Comm_mapping.Via _ -> Alcotest.fail "expected Unroutable"

(* --- List_scheduler: software serialisation ------------------------------ *)

let test_chain_all_software () =
  (* A(10ms) -> B(20ms) -> C(30ms), same PE: no comms, serial. *)
  let sched = schedule () in
  check_valid sched (F.chain_graph ());
  Alcotest.(check (float 1e-9)) "makespan" 60e-3 (Schedule.makespan sched);
  Alcotest.(check int) "no comm slots" 0 (List.length sched.Schedule.comm_slots);
  Alcotest.(check (list int)) "only GPP active" [ 0 ] (Schedule.active_pes sched);
  Alcotest.(check (list int)) "bus idle" [] (Schedule.active_cls sched)

let test_chain_crossing_pes () =
  (* A on GPP, B on ASIC, C on GPP: two bus transfers of 1 unit = 1 ms. *)
  let sched = schedule ~mapping:[| 0; 1; 0 |] () in
  check_valid sched (F.chain_graph ());
  (* 10 + 1 + 2 + 1 + 30 = 44 ms. *)
  Alcotest.(check (float 1e-9)) "makespan" 44e-3 (Schedule.makespan sched);
  Alcotest.(check int) "two comm slots" 2 (List.length sched.Schedule.comm_slots);
  Alcotest.(check (list int)) "bus active" [ 0 ] (Schedule.active_cls sched);
  Alcotest.(check (list int)) "both PEs active" [ 0; 1 ] (Schedule.active_pes sched)

let test_sw_tasks_serialise () =
  (* Two independent B tasks on one GPP must not overlap. *)
  let graph = F.parallel_graph () in
  let sched = schedule ~graph ~mapping:[| 0; 0 |] () in
  check_valid sched graph;
  Alcotest.(check (float 1e-9)) "serialised" 40e-3 (Schedule.makespan sched)

(* --- List_scheduler: hardware parallelism -------------------------------- *)

let test_hw_single_core_serialises () =
  let graph = F.parallel_graph () in
  let sched = schedule ~graph ~mapping:[| 1; 1 |] () in
  check_valid sched graph;
  (* One core instance: 2 + 2 = 4 ms. *)
  Alcotest.(check (float 1e-9)) "one core serialises" 4e-3 (Schedule.makespan sched)

let test_hw_two_cores_parallel () =
  let graph = F.parallel_graph () in
  let sched =
    schedule ~graph ~mapping:[| 1; 1 |]
      ~instances:(fun ~pe ~ty:_ -> if pe = 1 then 2 else 1)
      ()
  in
  check_valid sched graph;
  Alcotest.(check (float 1e-9)) "two cores parallel" 2e-3 (Schedule.makespan sched);
  (* The two tasks sit on distinct core instances. *)
  let r0 = sched.Schedule.task_slots.(0).Schedule.resource in
  let r1 = sched.Schedule.task_slots.(1).Schedule.resource in
  Alcotest.(check bool) "distinct instances" false (Resource.equal r0 r1)

let test_fork_on_hw_with_cores () =
  let graph = F.fork_graph () in
  let sched =
    schedule ~graph ~mapping:[| 0; 1; 1; 0 |]
      ~instances:(fun ~pe:_ ~ty:_ -> 2)
      ()
  in
  check_valid sched graph;
  (* A: [0,10).  The bus serialises the fan-out: comm to τ1 [10,11), to
     τ2 [11,12); B tasks run [11,13) and [12,14) on separate cores; the
     results return over the bus [13,14) and [14,15); C: [15,45). *)
  Alcotest.(check (float 1e-9)) "fork makespan" 45e-3 (Schedule.makespan sched)

(* --- Priorities and bus contention --------------------------------------- *)

let test_bus_contention_serialises_comms () =
  (* Fork with both B tasks on ASIC (one core): comms 0->1 and 0->2 leave
     the GPP back-to-back on the single bus. *)
  let graph = F.fork_graph ~data:5.0 () in
  let sched = schedule ~graph ~mapping:[| 0; 1; 1; 0 |] () in
  check_valid sched graph;
  let comms =
    List.filter (fun (c : Schedule.comm_slot) -> c.Schedule.edge.Graph.src = 0)
      sched.Schedule.comm_slots
  in
  Alcotest.(check int) "two comms from τ0" 2 (List.length comms);
  match List.sort (fun (a : Schedule.comm_slot) b -> compare a.Schedule.start b.Schedule.start) comms with
  | [ first; second ] ->
    Alcotest.(check bool) "no bus overlap" true
      (Schedule.comm_finish first <= second.Schedule.start +. 1e-12)
  | _ -> Alcotest.fail "expected two comms"

let test_unsupported_mapping_raises () =
  (* Map a type-C task to the ASIC... C is supported; build a tech without C on ASIC. *)
  let arch = F.arch () in
  let tech =
    (* Only software implementations. *)
    List.fold_left
      (fun tech (ty, ms, p) ->
        Mm_arch.Tech_lib.add tech ~ty ~pe:(Arch.pe arch 0)
          (Mm_arch.Tech_lib.impl ~exec_time:(ms *. 1e-3) ~dyn_power:p ()))
      Mm_arch.Tech_lib.empty
      [ (F.ty_a, 10.0, 0.4); (F.ty_b, 20.0, 0.5); (F.ty_c, 30.0, 0.6) ]
  in
  let run () =
    List_scheduler.run
      (List_scheduler.make_input ~mode_id:0 ~graph:(F.chain_graph ()) ~arch ~tech
         ~mapping:[| 0; 1; 0 |]
         ~instances:(fun ~pe:_ ~ty:_ -> 1)
         ~period:1.0 ())
  in
  match run () with
  | exception List_scheduler.Unsupported_mapping { task = 1; pe = 1 } -> ()
  | exception _ -> Alcotest.fail "wrong exception"
  | _ -> Alcotest.fail "unsupported mapping accepted"

let test_zero_data_edge () =
  (* Zero-byte dependency across PEs: a zero-duration transfer that still
     orders the tasks. *)
  let graph = F.chain_graph ~data:0.0 () in
  let sched = schedule ~graph ~mapping:[| 0; 1; 0 |] () in
  check_valid sched graph;
  List.iter
    (fun (c : Schedule.comm_slot) ->
      Alcotest.(check (float 1e-12)) "zero duration" 0.0 c.Schedule.duration;
      Alcotest.(check (float 1e-12)) "zero energy" 0.0 c.Schedule.energy)
    sched.Schedule.comm_slots;
  (* 10 + 2 + 30 ms with free communication. *)
  Alcotest.(check (float 1e-9)) "makespan" 42e-3 (Schedule.makespan sched)

let test_instance_assignment_deterministic () =
  let graph = F.parallel_graph () in
  let run () =
    schedule ~graph ~mapping:[| 1; 1 |]
      ~instances:(fun ~pe ~ty:_ -> if pe = 1 then 2 else 1)
      ()
  in
  let a = run () and b = run () in
  Array.iteri
    (fun i (slot : Schedule.task_slot) ->
      Alcotest.(check bool) "same resource" true
        (Resource.equal slot.Schedule.resource b.Schedule.task_slots.(i).Schedule.resource))
    a.Schedule.task_slots

let test_deadline_raises_priority () =
  (* Two independent tasks on one PE; the one with the tight deadline has
     lower mobility and must be scheduled first. *)
  let graph =
    Mm_taskgraph.Graph.make ~name:"deadline"
      ~tasks:[| F.task 0 F.ty_b; F.task ~deadline:25e-3 1 F.ty_b |]
      ~edges:[]
  in
  let sched = schedule ~graph ~mapping:[| 0; 0 |] ~period:0.1 () in
  check_valid sched graph;
  Alcotest.(check (float 1e-9)) "deadline task first" 0.0
    sched.Schedule.task_slots.(1).Schedule.start;
  Alcotest.(check bool) "no lateness" true (Schedule.lateness sched ~graph = [])

(* --- Priority policies ------------------------------------------------------ *)

let schedule_with_policy ~policy ?(mapping = [| 0; 0; 0 |]) ?(graph = F.chain_graph ()) () =
  let arch = F.arch () in
  List_scheduler.run ~policy
    (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech:(F.tech arch) ~mapping
       ~instances:(fun ~pe:_ ~ty:_ -> 1)
       ~period:1.0 ())

let all_policies =
  [
    ("mobility", List_scheduler.Mobility_first);
    ("critical-path", List_scheduler.Critical_path_first);
    ("topological", List_scheduler.Topological);
  ]

let test_policies_all_valid () =
  List.iter
    (fun (name, policy) ->
      let graph = F.fork_graph () in
      let sched = schedule_with_policy ~policy ~graph ~mapping:[| 0; 1; 1; 0 |] () in
      match Schedule.validate sched ~graph with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg))
    all_policies

let test_policies_same_serial_makespan () =
  (* On a chain every order is forced: policies must agree exactly. *)
  List.iter
    (fun (_, policy) ->
      let sched = schedule_with_policy ~policy () in
      Alcotest.(check (float 1e-9)) "chain makespan" 60e-3 (Schedule.makespan sched))
    all_policies

let test_critical_path_priority_order () =
  (* Two independent tasks on one PE: B (20 ms) has the longer bottom
     level than a second B?  Use types with different times: parallel
     graph has two equal B tasks; instead build A(10ms) and C(30ms)
     independent: critical-path policy runs C first, topological runs A
     first. *)
  let graph =
    Mm_taskgraph.Graph.make ~name:"pair"
      ~tasks:[| F.task 0 F.ty_a; F.task 1 F.ty_c |]
      ~edges:[]
  in
  let by_policy policy =
    let sched = schedule_with_policy ~policy ~graph ~mapping:[| 0; 0 |] () in
    (sched.Schedule.task_slots.(0).Schedule.start, sched.Schedule.task_slots.(1).Schedule.start)
  in
  let a_start, c_start = by_policy List_scheduler.Critical_path_first in
  Alcotest.(check bool) "critical path runs C first" true (c_start < a_start);
  let a_start, c_start = by_policy List_scheduler.Topological in
  Alcotest.(check bool) "topological runs A first" true (a_start < c_start)

(* --- Schedule queries ------------------------------------------------------ *)

let test_lateness () =
  let graph = F.chain_graph () in
  (* Period 50 ms but the chain needs 60 ms in software. *)
  let sched = schedule ~graph ~period:50e-3 () in
  match Schedule.lateness sched ~graph with
  | [ (task, excess) ] ->
    Alcotest.(check int) "task 2 late" 2 task;
    Alcotest.(check (float 1e-9)) "by 10 ms" 10e-3 excess
  | other -> Alcotest.fail (Printf.sprintf "expected one violation, got %d" (List.length other))

let test_validate_catches_overlap () =
  let graph = F.parallel_graph () in
  let sched = schedule ~graph ~mapping:[| 0; 0 |] () in
  (* Corrupt: force both tasks to start at 0 on the same resource. *)
  let broken =
    {
      sched with
      Schedule.task_slots =
        Array.map (fun (s : Schedule.task_slot) -> { s with Schedule.start = 0.0 })
          sched.Schedule.task_slots;
    }
  in
  match Schedule.validate broken ~graph with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlap not caught"

let test_validate_catches_precedence () =
  let graph = F.chain_graph () in
  let sched = schedule ~graph () in
  let broken =
    {
      sched with
      Schedule.task_slots =
        Array.map
          (fun (s : Schedule.task_slot) ->
            if s.Schedule.task = 2 then { s with Schedule.start = 0.0 } else s)
          sched.Schedule.task_slots;
    }
  in
  match Schedule.validate broken ~graph with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "precedence violation not caught"

(* --- Property: random mappings always produce valid schedules ------------- *)

let prop_random_mappings_valid =
  QCheck.Test.make ~name:"random mappings yield structurally valid schedules"
    ~count:200
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, graph_kind) ->
      let graph =
        match graph_kind with
        | 0 -> F.chain_graph ()
        | 1 -> F.fork_graph ()
        | _ -> F.parallel_graph ()
      in
      let rng = Mm_util.Prng.create ~seed in
      let mapping =
        Array.init (Graph.n_tasks graph) (fun _ -> Mm_util.Prng.int rng 2)
      in
      let instances ~pe:_ ~ty:_ = 1 + Mm_util.Prng.int rng 2 in
      let arch = F.arch () in
      let sched =
        List_scheduler.run
          (List_scheduler.make_input ~mode_id:0 ~graph ~arch ~tech:(F.tech arch)
             ~mapping ~instances ~period:1.0 ())
      in
      match Schedule.validate sched ~graph with Ok () -> true | Error _ -> false)

(* --- Gantt ------------------------------------------------------------------ *)

module Gantt = Mm_sched.Gantt

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_gantt_renders_all_resources () =
  let sched = schedule ~mapping:[| 0; 1; 0 |] () in
  let chart = Gantt.render sched in
  Alcotest.(check bool) "software PE row" true (string_contains chart "sw-pe0");
  Alcotest.(check bool) "hardware core row" true (string_contains chart "pe1.core");
  Alcotest.(check bool) "link row" true (string_contains chart "cl0");
  Alcotest.(check bool) "task tag" true (string_contains chart "t0");
  Alcotest.(check bool) "comm tag" true (string_contains chart "0>1")

let test_gantt_hides_links_on_request () =
  let sched = schedule ~mapping:[| 0; 1; 0 |] () in
  let chart =
    Gantt.render ~options:{ Gantt.default_options with Gantt.show_links = false } sched
  in
  Alcotest.(check bool) "no link row" false (string_contains chart "cl0")

let test_gantt_width_validation () =
  let sched = schedule () in
  match Gantt.render ~options:{ Gantt.width = 5; show_links = true } sched with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tiny width accepted"

let test_gantt_scaled_annotations () =
  let sched = schedule () in
  let stretched = [| 0.02; 0.06; 0.12 |] in
  let chart = Gantt.render_scaled sched ~stretched_finish:stretched in
  Alcotest.(check bool) "mentions post-DVS completion" true
    (string_contains chart "post-DVS");
  Alcotest.(check bool) "mentions a scaled finish" true (string_contains chart "0.12")

let prop_gantt_total_renders =
  QCheck.Test.make ~name:"gantt renders any valid schedule" ~count:100
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, graph_kind) ->
      let graph =
        match graph_kind with
        | 0 -> F.chain_graph ()
        | 1 -> F.fork_graph ()
        | _ -> F.parallel_graph ()
      in
      let rng = Mm_util.Prng.create ~seed in
      let mapping = Array.init (Graph.n_tasks graph) (fun _ -> Mm_util.Prng.int rng 2) in
      let sched = schedule ~graph ~mapping () in
      String.length (Gantt.render sched) > 0)

(* --- Resource order ------------------------------------------------------- *)

(* [Resource.compare] is monomorphic but must order exactly as the
   polymorphic compare it replaced: [Resource.Map]/[Set] iteration
   (audit reports, [Schedule.resources_used]) and the DVS resource
   chains depend on it.  Small signed fields make ties and sign flips
   common. *)
let resource_gen =
  let open QCheck.Gen in
  let field = int_range (-3) 3 in
  oneof
    [
      map (fun pe -> Resource.Sw_pe pe) field;
      map3 (fun pe ty instance -> Resource.Hw_core { pe; ty; instance }) field field field;
      map (fun cl -> Resource.Link cl) field;
    ]

let prop_resource_order_polymorphic =
  QCheck.Test.make ~name:"resource compare = polymorphic compare; equal, hash agree"
    ~count:2000
    (QCheck.make ~print:(fun (a, b) -> Format.asprintf "%a vs %a" Resource.pp a Resource.pp b)
       QCheck.Gen.(pair resource_gen resource_gen))
    (fun (a, b) ->
      let c = Resource.compare a b in
      Int.compare c 0 = Int.compare (Stdlib.compare a b) 0
      && Resource.equal a b = (c = 0)
      && ((not (Resource.equal a b)) || Resource.hash a = Resource.hash b))

let () =
  Alcotest.run "mm_sched"
    [
      ( "comm-mapping",
        [
          Alcotest.test_case "local" `Quick test_route_local;
          Alcotest.test_case "via bus" `Quick test_route_via_bus;
          Alcotest.test_case "picks fastest" `Quick test_route_picks_fastest;
          Alcotest.test_case "unroutable" `Quick test_route_unroutable;
        ] );
      ( "list-scheduler",
        [
          Alcotest.test_case "software chain" `Quick test_chain_all_software;
          Alcotest.test_case "chain crossing PEs" `Quick test_chain_crossing_pes;
          Alcotest.test_case "software serialises" `Quick test_sw_tasks_serialise;
          Alcotest.test_case "single core serialises" `Quick test_hw_single_core_serialises;
          Alcotest.test_case "two cores parallel" `Quick test_hw_two_cores_parallel;
          Alcotest.test_case "fork with cores" `Quick test_fork_on_hw_with_cores;
          Alcotest.test_case "bus contention" `Quick test_bus_contention_serialises_comms;
          Alcotest.test_case "unsupported mapping" `Quick test_unsupported_mapping_raises;
          Alcotest.test_case "zero-data edge" `Quick test_zero_data_edge;
          Alcotest.test_case "instance determinism" `Quick
            test_instance_assignment_deterministic;
          Alcotest.test_case "deadline priority" `Quick test_deadline_raises_priority;
          QCheck_alcotest.to_alcotest prop_random_mappings_valid;
        ] );
      ( "policies",
        [
          Alcotest.test_case "all valid" `Quick test_policies_all_valid;
          Alcotest.test_case "serial agreement" `Quick test_policies_same_serial_makespan;
          Alcotest.test_case "priority order" `Quick test_critical_path_priority_order;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "lateness" `Quick test_lateness;
          Alcotest.test_case "overlap caught" `Quick test_validate_catches_overlap;
          Alcotest.test_case "precedence caught" `Quick test_validate_catches_precedence;
          QCheck_alcotest.to_alcotest prop_resource_order_polymorphic;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "all resources" `Quick test_gantt_renders_all_resources;
          Alcotest.test_case "links hidden" `Quick test_gantt_hides_links_on_request;
          Alcotest.test_case "width validated" `Quick test_gantt_width_validation;
          Alcotest.test_case "scaled annotations" `Quick test_gantt_scaled_annotations;
          QCheck_alcotest.to_alcotest prop_gantt_total_renders;
        ] );
    ]
