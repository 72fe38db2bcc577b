(* Differential test of the core allocation (paper §4.1, lines 4–6):
   [Mm_cosynth.Core_alloc] and [Mm_cosynth.Transition_time] against the
   seed implementation kept in Core_alloc_oracle.  Systems are random
   platforms mixing GPPs, ASICs and FPGAs, with core areas and
   capacities drawn from a few values (round ones, so that area checks
   land on the capacity bound, and inexact ones, so that the order of
   area sums shows in their bits) and the grow loop stops part-way
   through a wish;
   task types repeat within a mode, and execution times come from a
   three-value set so that mobilities tie.  Every instance count, every
   area and transition float (bit for bit) and the retained core
   triples must agree.  [MM_FUZZ_COUNT] scales the case count. *)

module Task_type = Mm_taskgraph.Task_type
module Task = Mm_taskgraph.Task
module Graph = Mm_taskgraph.Graph
module Mobility = Mm_taskgraph.Mobility
module Pe = Mm_arch.Pe
module Cl = Mm_arch.Cl
module Arch = Mm_arch.Architecture
module Tech_lib = Mm_arch.Tech_lib
module Mode = Mm_omsm.Mode
module Transition = Mm_omsm.Transition
module Omsm = Mm_omsm.Omsm
module Spec = Mm_cosynth.Spec
module Mapping = Mm_cosynth.Mapping
module Core_alloc = Mm_cosynth.Core_alloc
module Transition_time = Mm_cosynth.Transition_time
module Fitness = Mm_cosynth.Fitness
module Prng = Mm_util.Prng
module Oracle = Core_alloc_oracle

let fuzz_count default =
  match Option.bind (Sys.getenv_opt "MM_FUZZ_COUNT") int_of_string_opt with
  | Some n -> n
  | None -> default

let pick rng values = values.(Prng.int rng (Array.length values))

let random_spec rng =
  let n_types = 1 + Prng.int rng 4 in
  let types = Array.init n_types (fun id -> Task_type.make ~id ~name:(Printf.sprintf "T%d" id)) in
  let n_pes = 2 + Prng.int rng 3 in
  let pes =
    List.init n_pes (fun id ->
        let name = Printf.sprintf "PE%d" id in
        let area_capacity =
          pick rng [| 50.0; 100.0; 133.3; 150.0; 200.0; 250.0; 400.0 |]
        in
        match if id = 0 then 0 else Prng.int rng 5 with
        | 0 -> Pe.make ~id ~name ~kind:Pe.Gpp ~static_power:1e-3 ()
        | 1 | 2 -> Pe.make ~id ~name ~kind:Pe.Asic ~static_power:5e-4 ~area_capacity ()
        | _ ->
          Pe.make ~id ~name ~kind:Pe.Fpga ~static_power:5e-4 ~area_capacity
            ~reconfig_time_per_area:(pick rng [| 1e-5; 1e-4; 1e-3 |])
            ())
  in
  let arch =
    Arch.make ~name:"rand" ~pes
      ~cls:
        [
          Cl.make ~id:0 ~name:"BUS" ~connects:(List.init n_pes Fun.id) ~time_per_data:1e-3
            ~transfer_power:0.05 ~static_power:1e-4;
        ]
  in
  let tech =
    Array.fold_left
      (fun tech ty ->
        List.fold_left
          (fun tech pe ->
            let exec_time = pick rng [| 1e-3; 2e-3; 4e-3 |] in
            if Pe.is_software pe then
              Tech_lib.add tech ~ty ~pe (Tech_lib.impl ~exec_time ~dyn_power:0.3 ())
            else if Prng.int rng 10 < 7 then
              Tech_lib.add tech ~ty ~pe
                (Tech_lib.impl ~exec_time ~dyn_power:0.01
                   ~area:(pick rng [| 0.0; 0.1; 33.3; 50.0; 50.0; 66.7; 100.0; 150.0 |])
                   ())
            else tech)
          tech pes)
      Tech_lib.empty types
  in
  let n_modes = 1 + Prng.int rng 3 in
  let modes =
    List.init n_modes (fun id ->
        let n_tasks = 2 + Prng.int rng 9 in
        let tasks =
          Array.init n_tasks (fun t ->
              Task.make ~id:t ~name:(Printf.sprintf "t%d" t) ~ty:(pick rng types) ())
        in
        let edges = ref [] in
        for i = 0 to n_tasks - 1 do
          for j = i + 1 to n_tasks - 1 do
            if Prng.int rng 100 < 20 then
              edges := { Graph.src = i; dst = j; data = pick rng [| 0.0; 1.0 |] } :: !edges
          done
        done;
        Mode.make ~id ~name:(Printf.sprintf "O%d" id)
          ~graph:(Graph.make ~name:"g" ~tasks ~edges:!edges)
          ~period:(pick rng [| 0.004; 0.02; 0.1 |])
          ~probability:(1.0 /. float_of_int n_modes))
  in
  let transitions =
    List.concat
      (List.init n_modes (fun src ->
           List.filter_map
             (fun dst ->
               if src <> dst && Prng.int rng 10 < 6 then
                 Some
                   (Transition.make ~src ~dst ~max_time:(pick rng [| 1e-3; 1e-2; 1.0 |]))
               else None)
             (List.init n_modes Fun.id)))
  in
  Spec.make ~omsm:(Omsm.make ~name:"rand" ~modes ~transitions) ~arch ~tech

(* Communication-free mobilities: more ties than the pipeline's own. *)
let plain_mobilities spec mapping =
  let omsm = Spec.omsm spec in
  Array.init (Omsm.n_modes omsm) (fun mode ->
      let graph = Mode.graph (Omsm.mode omsm mode) in
      Mobility.compute graph
        ~exec_time:(fun task ->
          let pe = Arch.pe (Spec.arch spec) (Mapping.pe_of mapping ~mode ~task:(Task.id task)) in
          (Tech_lib.find_exn (Spec.tech spec) ~ty:(Task.ty task) ~pe).Tech_lib.exec_time)
        ~comm_time:(fun _ -> 0.0)
        ~horizon:(Mode.period (Omsm.mode omsm mode)))

let random_case seed =
  let rng = Prng.create ~seed in
  let spec = random_spec rng in
  let mapping =
    Mapping.of_genome spec (Mm_ga.Genome.random rng ~counts:(Spec.gene_counts spec))
  in
  (spec, mapping)

let bits = Int64.bits_of_float

(* Every observable of the allocation, compared against the oracle;
   returns the first disagreement. *)
let disagreement spec alloc transitions (oracle : Oracle.t) =
  let arch = Spec.arch spec in
  let n_modes = Omsm.n_modes (Spec.omsm spec) in
  let n_types = Spec.n_types (Spec.compiled spec) in
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  for pe = 0 to Arch.n_pes arch - 1 do
    if bits (Core_alloc.area_used alloc ~pe) <> bits (Oracle.area_used oracle ~pe) then
      report "area_used PE%d: %h vs %h" pe (Core_alloc.area_used alloc ~pe)
        (Oracle.area_used oracle ~pe);
    if bits (Core_alloc.area_excess alloc ~pe) <> bits (Oracle.area_excess oracle ~pe) then
      report "area_excess PE%d" pe
  done;
  for mode = 0 to n_modes - 1 do
    for pe = 0 to Arch.n_pes arch - 1 do
      for ty = 0 to n_types do
        let got = Core_alloc.instances alloc ~mode ~pe ~ty in
        let want = Oracle.instances oracle ~mode ~pe ~ty in
        if got <> want then report "instances mode %d PE%d T%d: %d vs %d" mode pe ty got want
      done
    done;
    let seed_cores kind =
      List.concat_map
        (fun pe ->
          if Pe.kind pe = kind then
            List.concat_map
              (fun (ty, count) -> [ Pe.id pe; ty; count ])
              (Oracle.loaded_types oracle ~mode ~pe:(Pe.id pe))
          else [])
        (Arch.pes arch)
    in
    if Array.to_list (Core_alloc.static_cores alloc) <> seed_cores Pe.Asic then
      report "ASIC cores in mode %d" mode;
    if Array.to_list (Core_alloc.mode_cores alloc ~mode) <> seed_cores Pe.Fpga then
      report "FPGA cores of mode %d" mode
  done;
  List.iteri
    (fun i ((e : Transition_time.entry), (time, violation)) ->
      if bits e.Transition_time.time <> bits time then
        report "transition %d time: %h vs %h" i e.Transition_time.time time;
      if bits e.Transition_time.violation <> bits violation then
        report "transition %d violation" i)
    (List.combine transitions (Oracle.transition_times spec oracle));
  match List.rev !problems with [] -> None | first :: _ -> Some first

let check_case seed =
  let spec, mapping = random_case seed in
  let check alloc transitions mobilities =
    match
      disagreement spec alloc transitions (Oracle.allocate spec mapping ~mobilities)
    with
    | None -> true
    | Some problem -> QCheck.Test.fail_reportf "seed %d: %s" seed problem
  in
  (* Directly, on communication-free mobilities... *)
  let mobilities = plain_mobilities spec mapping in
  let alloc = Core_alloc.allocate spec mapping ~mobilities in
  check alloc (Transition_time.compute spec alloc) mobilities
  (* ...and as the fitness pipeline runs it, on its own analyses. *)
  &&
  let eval = Fitness.evaluate_mapping Fitness.default_config spec mapping in
  check eval.Fitness.alloc eval.Fitness.transition_times eval.Fitness.mobilities

let prop_matches_oracle =
  QCheck.Test.make ~name:"allocate = seed oracle (float-bit)" ~count:(fuzz_count 300)
    QCheck.(int_bound 1_000_000)
    check_case

(* The generator must actually reach the cases the property is about;
   otherwise the property passes vacuously. *)
let test_generator_coverage () =
  let cut = ref 0 and extra = ref 0 and asic_extra = ref 0 and excess = ref 0
  and reconfig = ref 0 in
  for seed = 0 to 399 do
    let spec, mapping = random_case seed in
    let arch = Spec.arch spec in
    let oracle = Oracle.allocate spec mapping ~mobilities:(plain_mobilities spec mapping) in
    if oracle.Oracle.cut_wishes > 0 then incr cut;
    for pe = 0 to Arch.n_pes arch - 1 do
      if Oracle.area_excess oracle ~pe > 0.0 then incr excess;
      for mode = 0 to Omsm.n_modes (Spec.omsm spec) - 1 do
        List.iter
          (fun (_, count) ->
            if count > 1 then begin
              incr extra;
              if Pe.kind (Arch.pe arch pe) = Pe.Asic then incr asic_extra
            end)
          (Oracle.loaded_types oracle ~mode ~pe)
      done
    done;
    if List.exists (fun (time, _) -> time > 0.0) (Oracle.transition_times spec oracle) then
      incr reconfig
  done;
  List.iter
    (fun (what, n) -> Alcotest.(check bool) (what ^ " reached") true (n > 0))
    [
      ("wish cut short by area", !cut);
      ("extra instance", !extra);
      ("extra ASIC instance", !asic_extra);
      ("area excess", !excess);
      ("FPGA reconfiguration", !reconfig);
    ]

(* Two types X and Y share one ASIC that fits exactly one extra core,
   and each has three mutually parallel tasks whose mobilities are the
   same three values — in reverse task order for Y.  The two wishes then
   differ only in how their mobility sums round, so the one granted
   first (the lower average) is decided by the summation order alone:
   descending task id, as in the seed.  With [same_order] both groups
   list the values in one order, the averages tie exactly, and the lower
   type id must win. *)
let contested_spec ~same_order =
  let ty id name = Task_type.make ~id ~name in
  let ty_p1 = ty 0 "P1" and ty_p2 = ty 1 "P2" and ty_x = ty 2 "X" and ty_y = ty 3 "Y" in
  let gpp = Pe.make ~id:0 ~name:"GPP0" ~kind:Pe.Gpp ~static_power:1e-3 () in
  let asic = Pe.make ~id:1 ~name:"ASIC1" ~kind:Pe.Asic ~static_power:5e-4 ~area_capacity:300.0 () in
  let arch =
    Arch.make ~name:"contested" ~pes:[ gpp; asic ]
      ~cls:
        [
          Cl.make ~id:0 ~name:"BUS" ~connects:[ 0; 1 ] ~time_per_data:1e-3
            ~transfer_power:0.05 ~static_power:1e-4;
        ]
  in
  let impl exec_time ?area () = Tech_lib.impl ~exec_time ~dyn_power:0.1 ?area () in
  let tech =
    List.fold_left
      (fun tech (ty, pe, point) -> Tech_lib.add tech ~ty ~pe point)
      Tech_lib.empty
      [
        (ty_p1, gpp, impl 0.1 ());
        (ty_p2, gpp, impl 0.3 ());
        (ty_x, gpp, impl 0.05 ());
        (ty_y, gpp, impl 0.05 ());
        (ty_x, asic, impl 0.01 ~area:100.0 ());
        (ty_y, asic, impl 0.01 ~area:100.0 ());
      ]
  in
  (* Tasks 0–3 are predecessors on the GPP; X = 4, 5, 6 and Y = 7, 8, 9.
     A task's mobility drops by its predecessor's execution time. *)
  let task id ty = Task.make ~id ~name:(Printf.sprintf "t%d" id) ~ty () in
  let tasks =
    [|
      task 0 ty_p1; task 1 ty_p2; task 2 ty_p1; task 3 ty_p2;
      task 4 ty_x; task 5 ty_x; task 6 ty_x; task 7 ty_y; task 8 ty_y; task 9 ty_y;
    |]
  in
  let edge src dst = { Graph.src; dst; data = 0.0 } in
  let y_edges = if same_order then [ edge 2 8; edge 3 7 ] else [ edge 2 8; edge 3 9 ] in
  let graph = Graph.make ~name:"contested" ~tasks ~edges:([ edge 0 5; edge 1 4 ] @ y_edges) in
  let omsm =
    Omsm.make ~name:"contested"
      ~modes:[ Mode.make ~id:0 ~name:"O0" ~graph ~period:1.0 ~probability:1.0 ]
      ~transitions:[]
  in
  let spec = Spec.make ~omsm ~arch ~tech in
  (spec, Mapping.of_arrays spec [| [| 0; 0; 0; 0; 1; 1; 1; 1; 1; 1 |] |])

let test_contested_wishes () =
  List.iter
    (fun same_order ->
      let spec, mapping = contested_spec ~same_order in
      let mobilities = plain_mobilities spec mapping in
      let sum tasks =
        List.fold_left (fun acc t -> acc +. Mobility.mobility mobilities.(0) t) 0.0 tasks
      in
      let x_sum = sum [ 6; 5; 4 ] and y_sum = sum [ 9; 8; 7 ] in
      let alloc = Core_alloc.allocate spec mapping ~mobilities in
      let oracle = Oracle.allocate spec mapping ~mobilities in
      let x = Core_alloc.instances alloc ~mode:0 ~pe:1 ~ty:2 in
      let y = Core_alloc.instances alloc ~mode:0 ~pe:1 ~ty:3 in
      let label = if same_order then "tied averages" else "averages split by rounding" in
      if same_order then Alcotest.(check bool) (label ^ ": sums tie") true (x_sum = y_sum)
      else Alcotest.(check bool) (label ^ ": sums differ") true (x_sum <> y_sum);
      Alcotest.(check int) (label ^ ": one extra core") 3 (x + y);
      Alcotest.(check int) (label ^ ": X as the oracle") (Oracle.instances oracle ~mode:0 ~pe:1 ~ty:2) x;
      Alcotest.(check int) (label ^ ": Y as the oracle") (Oracle.instances oracle ~mode:0 ~pe:1 ~ty:3) y;
      Alcotest.(check int)
        (label ^ ": lower sum wins")
        (if x_sum <= y_sum then 2 else 1)
        x)
    [ false; true ]

let () =
  Alcotest.run "core_alloc"
    [
      ( "oracle",
        [
          Alcotest.test_case "generator coverage" `Quick test_generator_coverage;
          Alcotest.test_case "contested wishes" `Quick test_contested_wishes;
          QCheck_alcotest.to_alcotest prop_matches_oracle;
        ] );
    ]
