(* Tests for mm_omsm: Mode, Transition, Omsm. *)

module Task_type = Mm_taskgraph.Task_type
module Task = Mm_taskgraph.Task
module Graph = Mm_taskgraph.Graph
module Mode = Mm_omsm.Mode
module Transition = Mm_omsm.Transition
module Omsm = Mm_omsm.Omsm

let ty_a = Task_type.make ~id:0 ~name:"A"
let ty_b = Task_type.make ~id:1 ~name:"B"
let ty_c = Task_type.make ~id:2 ~name:"C"

let graph_of ~name tys =
  let tasks =
    Array.of_list
      (List.mapi (fun id ty -> Task.make ~id ~name:(Printf.sprintf "t%d" id) ~ty ()) tys)
  in
  Graph.make ~name ~tasks ~edges:[]

let mode id ~probability tys =
  Mode.make ~id ~name:(Printf.sprintf "O%d" id) ~graph:(graph_of ~name:"g" tys)
    ~period:1.0 ~probability

let two_mode_omsm () =
  Omsm.make ~name:"m"
    ~modes:[ mode 0 ~probability:0.25 [ ty_a; ty_b ]; mode 1 ~probability:0.75 [ ty_b; ty_c ] ]
    ~transitions:
      [ Transition.make ~src:0 ~dst:1 ~max_time:0.1;
        Transition.make ~src:1 ~dst:0 ~max_time:0.2 ]

let test_mode_validation () =
  let g = graph_of ~name:"g" [ ty_a ] in
  (match Mode.make ~id:0 ~name:"m" ~graph:g ~period:0.0 ~probability:0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero period not rejected");
  match Mode.make ~id:0 ~name:"m" ~graph:g ~period:1.0 ~probability:1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probability > 1 not rejected"

let test_transition_validation () =
  (match Transition.make ~src:0 ~dst:0 ~max_time:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self transition not rejected");
  match Transition.make ~src:0 ~dst:1 ~max_time:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero max_time not rejected"

let test_omsm_basics () =
  let m = two_mode_omsm () in
  Alcotest.(check int) "modes" 2 (Omsm.n_modes m);
  Alcotest.(check int) "total tasks" 4 (Omsm.total_tasks m);
  Alcotest.(check int) "transitions" 2 (List.length (Omsm.transitions m));
  Alcotest.(check int) "into mode 1" 1 (List.length (Omsm.transitions_into m 1))

let test_probability_sum_checked () =
  match
    Omsm.make ~name:"bad"
      ~modes:[ mode 0 ~probability:0.5 [ ty_a ]; mode 1 ~probability:0.3 [ ty_b ] ]
      ~transitions:[]
  with
  | exception Omsm.Invalid _ -> ()
  | _ -> Alcotest.fail "probabilities not summing to 1 accepted"

let test_duplicate_transition_rejected () =
  match
    Omsm.make ~name:"dup"
      ~modes:[ mode 0 ~probability:0.5 [ ty_a ]; mode 1 ~probability:0.5 [ ty_b ] ]
      ~transitions:
        [ Transition.make ~src:0 ~dst:1 ~max_time:0.1;
          Transition.make ~src:0 ~dst:1 ~max_time:0.2 ]
  with
  | exception Omsm.Invalid _ -> ()
  | _ -> Alcotest.fail "duplicate transition accepted"

let test_transition_unknown_mode_rejected () =
  match
    Omsm.make ~name:"bad"
      ~modes:[ mode 0 ~probability:1.0 [ ty_a ] ]
      ~transitions:[ Transition.make ~src:0 ~dst:3 ~max_time:0.1 ]
  with
  | exception Omsm.Invalid _ -> ()
  | _ -> Alcotest.fail "unknown destination accepted"

let test_shared_types () =
  let m = two_mode_omsm () in
  let shared = Omsm.shared_task_types m in
  Alcotest.(check int) "one shared type" 1 (Task_type.Set.cardinal shared);
  Alcotest.(check bool) "B is shared" true (Task_type.Set.mem ty_b shared);
  Alcotest.(check (list int)) "modes using B" [ 0; 1 ] (Omsm.modes_using_type m ty_b);
  Alcotest.(check (list int)) "modes using A" [ 0 ] (Omsm.modes_using_type m ty_a)

let test_all_types () =
  let m = two_mode_omsm () in
  Alcotest.(check int) "three distinct types" 3
    (Task_type.Set.cardinal (Omsm.all_task_types m))

let test_entropy () =
  let uniform =
    Omsm.make ~name:"u"
      ~modes:[ mode 0 ~probability:0.5 [ ty_a ]; mode 1 ~probability:0.5 [ ty_b ] ]
      ~transitions:[]
  in
  let skewed =
    Omsm.make ~name:"s"
      ~modes:[ mode 0 ~probability:0.99 [ ty_a ]; mode 1 ~probability:0.01 [ ty_b ] ]
      ~transitions:[]
  in
  Alcotest.(check (float 1e-9)) "uniform entropy = ln 2" (log 2.0)
    (Omsm.probability_entropy uniform);
  Alcotest.(check bool) "skew lowers entropy" true
    (Omsm.probability_entropy skewed < Omsm.probability_entropy uniform)

(* --- Usage_profile ------------------------------------------------------- *)

module Usage_profile = Mm_omsm.Usage_profile

let obs src dst count = { Usage_profile.src; dst; count }

let test_embedded_chain () =
  let matrix = Usage_profile.embedded_chain ~n_modes:2 [ obs 0 1 3.0; obs 1 0 3.0 ] in
  Alcotest.(check (float 1e-12)) "0->1" 1.0 matrix.(0).(1);
  Alcotest.(check (float 1e-12)) "1->0" 1.0 matrix.(1).(0)

let test_embedded_chain_normalises () =
  let matrix =
    Usage_profile.embedded_chain ~n_modes:3 [ obs 0 1 1.0; obs 0 2 3.0; obs 1 0 5.0; obs 2 0 5.0 ]
  in
  Alcotest.(check (float 1e-12)) "0->1 quarter" 0.25 matrix.(0).(1);
  Alcotest.(check (float 1e-12)) "0->2 three quarters" 0.75 matrix.(0).(2)

let test_embedded_chain_absorbing () =
  let matrix = Usage_profile.embedded_chain ~n_modes:2 [ obs 0 1 1.0 ] in
  Alcotest.(check (float 1e-12)) "absorbing self-loop" 1.0 matrix.(1).(1)

let test_embedded_chain_validation () =
  (match Usage_profile.embedded_chain ~n_modes:2 [ obs 0 5 1.0 ] with
  | exception Usage_profile.Invalid _ -> ()
  | _ -> Alcotest.fail "out-of-range accepted");
  match Usage_profile.embedded_chain ~n_modes:2 [ obs 0 1 0.0 ] with
  | exception Usage_profile.Invalid _ -> ()
  | _ -> Alcotest.fail "zero count accepted"

let test_stationary_two_state () =
  (* Alternating chain: uniform stationary distribution. *)
  let pi = Usage_profile.stationary [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  Alcotest.(check (float 1e-6)) "half" 0.5 pi.(0)

let test_stationary_biased () =
  (* 0 mostly stays; 1 always leaves: the exact solve gives
     pi = (10/11, 1/11). *)
  let pi = Usage_profile.stationary [| [| 0.9; 0.1 |]; [| 1.0; 0.0 |] |] in
  Alcotest.(check (float 1e-12)) "pi0" (10.0 /. 11.0) pi.(0);
  Alcotest.(check (float 1e-12)) "pi1" (1.0 /. 11.0) pi.(1)

let test_stationary_rejects_non_stochastic () =
  match Usage_profile.stationary [| [| 0.5; 0.2 |]; [| 1.0; 0.0 |] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-stochastic accepted"

let test_stationary_transient_and_closed_classes () =
  (* Mode 0 drains into the cycle 1 <-> 2: it is transient (pi = 0
     exactly) and the cycle splits evenly. *)
  let pi =
    Usage_profile.stationary
      [| [| 0.5; 0.5; 0.0 |]; [| 0.0; 0.0; 1.0 |]; [| 0.0; 1.0; 0.0 |] |]
  in
  Alcotest.(check (array (float 1e-12))) "transient mode gets 0" [| 0.0; 0.5; 0.5 |] pi;
  (* Two absorbing modes: two closed classes, no unique pi. *)
  match
    Usage_profile.stationary
      [| [| 1.0; 0.0; 0.0 |]; [| 0.5; 0.0; 0.5 |]; [| 0.0; 0.0; 1.0 |] |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "two closed classes accepted"

let test_probabilities_weight_by_holding_time () =
  (* Alternation with 9:1 holding times = 0.9/0.1 usage profile. *)
  let profile =
    Usage_profile.probabilities ~n_modes:2
      ~holding_time:(fun mode -> if mode = 0 then 9.0 else 1.0)
      [ obs 0 1 1.0; obs 1 0 1.0 ]
  in
  Alcotest.(check (float 1e-6)) "mode 0 at 90%" 0.9 profile.(0);
  Alcotest.(check (float 1e-6)) "mode 1 at 10%" 0.1 profile.(1)

let test_apply_rebuilds_omsm () =
  let m = two_mode_omsm () in
  let derived =
    Usage_profile.apply m
      ~holding_time:(fun mode -> if mode = 0 then 3.0 else 1.0)
      [ obs 0 1 1.0; obs 1 0 1.0 ]
  in
  Alcotest.(check (float 1e-6)) "updated probability" 0.75
    (Mode.probability (Omsm.mode derived 0));
  Alcotest.(check int) "transitions preserved" 2 (List.length (Omsm.transitions derived));
  Alcotest.(check string) "name preserved" (Omsm.name m) (Omsm.name derived)

let prop_profile_is_distribution =
  QCheck.Test.make ~name:"derived profiles are probability distributions" ~count:200
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, n_modes) ->
      let rng = Mm_util.Prng.create ~seed in
      (* A random strongly-connected-ish observation set: a ring plus
         random chords. *)
      let ring =
        List.init n_modes (fun i ->
            obs i ((i + 1) mod n_modes) (0.5 +. Mm_util.Prng.float rng 5.0))
      in
      let chords =
        List.filter_map
          (fun _ ->
            let src = Mm_util.Prng.int rng n_modes
            and dst = Mm_util.Prng.int rng n_modes in
            if src = dst then None
            else Some (obs src dst (0.5 +. Mm_util.Prng.float rng 5.0)))
          (List.init n_modes Fun.id)
      in
      let profile =
        Usage_profile.probabilities ~n_modes
          ~holding_time:(fun _ -> 0.1 +. Mm_util.Prng.float rng 10.0)
          (ring @ chords)
      in
      let total = Array.fold_left ( +. ) 0.0 profile in
      Float.abs (total -. 1.0) < 1e-9 && Array.for_all (fun p -> p >= 0.0) profile)

let () =
  Alcotest.run "mm_omsm"
    [
      ( "validation",
        [
          Alcotest.test_case "mode" `Quick test_mode_validation;
          Alcotest.test_case "transition" `Quick test_transition_validation;
          Alcotest.test_case "probability sum" `Quick test_probability_sum_checked;
          Alcotest.test_case "duplicate transition" `Quick test_duplicate_transition_rejected;
          Alcotest.test_case "unknown mode" `Quick test_transition_unknown_mode_rejected;
        ] );
      ( "queries",
        [
          Alcotest.test_case "basics" `Quick test_omsm_basics;
          Alcotest.test_case "shared types" `Quick test_shared_types;
          Alcotest.test_case "all types" `Quick test_all_types;
          Alcotest.test_case "entropy" `Quick test_entropy;
        ] );
      ( "usage-profile",
        [
          Alcotest.test_case "embedded chain" `Quick test_embedded_chain;
          Alcotest.test_case "normalisation" `Quick test_embedded_chain_normalises;
          Alcotest.test_case "absorbing mode" `Quick test_embedded_chain_absorbing;
          Alcotest.test_case "validation" `Quick test_embedded_chain_validation;
          Alcotest.test_case "stationary two-state" `Quick test_stationary_two_state;
          Alcotest.test_case "stationary biased" `Quick test_stationary_biased;
          Alcotest.test_case "stationary transient and closed classes" `Quick
            test_stationary_transient_and_closed_classes;
          Alcotest.test_case "non-stochastic rejected" `Quick
            test_stationary_rejects_non_stochastic;
          Alcotest.test_case "holding times weight" `Quick
            test_probabilities_weight_by_holding_time;
          Alcotest.test_case "apply" `Quick test_apply_rebuilds_omsm;
          QCheck_alcotest.to_alcotest prop_profile_is_distribution;
        ] );
    ]
