(* Tests for Mm_io.Snapshot: the versioned, fingerprinted snapshot
   codec.  Round-trips must preserve every field bit-for-bit (floats
   compared by Int64.bits_of_float); every malformed, mis-versioned or
   mis-specced document must come back as a typed error, never as an
   exception out of the S-expression internals. *)

module Snapshot = Mm_io.Snapshot
module Synthesis = Mm_cosynth.Synthesis
module Experiment = Mm_cosynth.Experiment
module Engine = Mm_ga.Engine

let spec = Fixtures.spec_of_graphs [ Fixtures.chain_graph () ]
let other_spec = Fixtures.spec_of_graphs [ Fixtures.fork_graph () ]

(* --- bit-exact structural equality ------------------------------------------- *)

let feq a b = Int64.bits_of_float a = Int64.bits_of_float b
let flist_eq a b = List.length a = List.length b && List.for_all2 feq a b
let member_eq (g, f) (g', f') = g = g' && feq f f'

let engine_eq (a : Engine.checkpoint) (b : Engine.checkpoint) =
  a.Engine.generation = b.Engine.generation
  && Array.length a.members = Array.length b.members
  && Array.for_all2 member_eq a.members b.members
  && member_eq a.best b.best
  && a.stagnation = b.stagnation
  && flist_eq a.history b.history
  && a.evaluations = b.evaluations
  && a.rng_state = b.rng_state

let engine_state_eq (a : Synthesis.engine_state) (b : Synthesis.engine_state) =
  match (a, b) with
  | Synthesis.Single a, Synthesis.Single b -> engine_eq a b
  | Synthesis.Sharded a, Synthesis.Sharded b ->
    a.Mm_ga.Islands.ring = b.Mm_ga.Islands.ring
    && Array.length a.members = Array.length b.members
    && Array.for_all2 engine_eq a.members b.members
  | Synthesis.Single _, Synthesis.Sharded _
  | Synthesis.Sharded _, Synthesis.Single _ -> false

let restart_eq (a : Synthesis.restart_summary) (b : Synthesis.restart_summary) =
  a.Synthesis.r_genome = b.Synthesis.r_genome
  && feq a.r_fitness b.r_fitness
  && a.r_generations = b.r_generations
  && a.r_evaluations = b.r_evaluations
  && flist_eq a.r_history b.r_history

let run_state_eq (a : Synthesis.run_state) (b : Synthesis.run_state) =
  a.Synthesis.seed = b.Synthesis.seed
  && a.fingerprint = b.fingerprint
  && a.next_restart = b.next_restart
  && List.length a.completed = List.length b.completed
  && List.for_all2 restart_eq a.completed b.completed
  && a.outer_rng = b.outer_rng
  && Option.equal engine_state_eq a.engine b.engine

let run_summary_eq (a : Experiment.run_summary) (b : Experiment.run_summary) =
  a.Experiment.genome = b.Experiment.genome
  && feq a.power b.power
  && feq a.cpu_seconds b.cpu_seconds
  && a.generations = b.generations
  && a.evaluations = b.evaluations
  && flist_eq a.history b.history

let summaries_eq a b = List.length a = List.length b && List.for_all2 run_summary_eq a b

let state_eq (a : Experiment.state) (b : Experiment.state) =
  a.Experiment.seed = b.Experiment.seed
  && a.runs = b.runs
  && a.fingerprint = b.fingerprint
  && summaries_eq a.baseline_done b.baseline_done
  && summaries_eq a.proposed_done b.proposed_done

let payload_eq a b =
  match (a, b) with
  | Snapshot.Synth a, Snapshot.Synth b -> run_state_eq a b
  | Snapshot.Compare a, Snapshot.Compare b -> state_eq a b
  | Snapshot.Synth _, Snapshot.Compare _ | Snapshot.Compare _, Snapshot.Synth _ ->
    false

(* --- generators --------------------------------------------------------------- *)

open QCheck

let genome_gen = Gen.(array_size (int_range 1 8) (int_range 0 9))
(* Regular floats only: the codec round-trips every non-nan payload
   bit-exactly, and fitnesses are never nan. *)
let float_gen = Gen.float
let flist_gen = Gen.(list_size (int_range 0 6) float_gen)
let int64_gen = Gen.(map Int64.of_int int)

let member_gen = Gen.pair genome_gen float_gen

let engine_gen =
  Gen.map
    (fun ((generation, members, best, stagnation), (history, evaluations, rng_state)) ->
      {
        Engine.generation;
        members;
        best;
        stagnation;
        history;
        evaluations;
        rng_state;
      })
    Gen.(
      pair
        (quad (int_range 0 500) (array_size (int_range 1 6) member_gen) member_gen
           (int_range 0 50))
        (triple flist_gen (int_range 0 100_000) int64_gen))

let restart_gen =
  Gen.map
    (fun ((r_genome, r_fitness, r_generations), (r_evaluations, r_history)) ->
      { Synthesis.r_genome; r_fitness; r_generations; r_evaluations; r_history })
    Gen.(
      pair
        (triple genome_gen float_gen (int_range 0 500))
        (pair (int_range 0 100_000) flist_gen))

(* A Sharded state as Islands would checkpoint it: the ring is a
   permutation of the island indices. *)
let islands_gen =
  Gen.(
    map
      (fun members ->
        let n = Array.length members in
        let ring = Array.init n (fun i -> (i + 1) mod n) in
        Synthesis.Sharded { Mm_ga.Islands.ring; members })
      (array_size (int_range 1 4) engine_gen))

let engine_state_gen =
  Gen.oneof [ Gen.map (fun e -> Synthesis.Single e) engine_gen; islands_gen ]

let run_state_gen =
  Gen.map
    (fun ((seed, fingerprint, next_restart), (completed, outer_rng, engine)) ->
      { Synthesis.seed; fingerprint; next_restart; completed; outer_rng; engine })
    Gen.(
      pair
        (triple int string_printable (int_range 0 4))
        (triple (list_size (int_range 0 3) restart_gen) int64_gen
           (option engine_state_gen)))

let run_summary_gen =
  Gen.map
    (fun ((genome, power, cpu_seconds), (generations, evaluations, history)) ->
      { Experiment.genome; power; cpu_seconds; generations; evaluations; history })
    Gen.(
      pair
        (triple genome_gen float_gen float_gen)
        (triple (int_range 0 500) (int_range 0 100_000) flist_gen))

let state_gen =
  Gen.map
    (fun ((seed, runs, fingerprint), baseline_done, proposed_done) ->
      { Experiment.seed; runs; fingerprint; baseline_done; proposed_done })
    Gen.(
      triple
        (triple int (int_range 1 6) (option string_printable))
        (list_size (int_range 0 4) run_summary_gen)
        (list_size (int_range 0 4) run_summary_gen))

let payload_gen =
  Gen.oneof
    [
      Gen.map (fun s -> Snapshot.Synth s) run_state_gen;
      Gen.map (fun s -> Snapshot.Compare s) state_gen;
    ]

(* --- round-trips --------------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string round-trips bit-exactly" ~count:300
    (QCheck.make payload_gen) (fun payload ->
      match Snapshot.of_string ~spec (Snapshot.to_string ~spec payload) with
      | Ok decoded -> payload_eq payload decoded
      | Error e -> QCheck.Test.fail_reportf "%s" (Snapshot.error_to_string e))

let test_file_roundtrip () =
  let path = Filename.temp_file "mmsyn_snapshot" ".snap" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let payload =
    Snapshot.Synth
      {
        Synthesis.seed = 42;
        fingerprint = "some fingerprint with spaces";
        next_restart = 1;
        completed =
          [
            {
              Synthesis.r_genome = [| 1; 0; 1 |];
              r_fitness = 0.1234567890123456;
              r_generations = 17;
              r_evaluations = 900;
              r_history = [ 0.5; 0.3; 0.1234567890123456 ];
            };
          ];
        outer_rng = -6405874113726298239L;
        engine = None;
      }
  in
  (* A stale .tmp from a crashed writer is inert: saves use unique
     pid+counter tmp names, so they neither read nor clobber it, and no
     tmp of their own survives the rename. *)
  let stale = path ^ ".tmp" in
  let oc = open_out stale in
  output_string oc "garbage left by a crash";
  close_out oc;
  Fun.protect ~finally:(fun () -> if Sys.file_exists stale then Sys.remove stale)
  @@ fun () ->
  Snapshot.save ~path ~spec payload;
  Alcotest.(check string)
    "stale tmp untouched" "garbage left by a crash"
    (Mm_io.Codec.read_file stale);
  let tmp_siblings =
    Sys.readdir (Filename.dirname path)
    |> Array.to_list
    |> List.filter (fun name ->
           String.length name > 4
           && String.sub name (String.length name - 4) 4 = ".tmp"
           && name <> Filename.basename stale
           && String.length name > String.length (Filename.basename path)
           && String.sub name 0 (String.length (Filename.basename path))
              = Filename.basename path)
  in
  Alcotest.(check (list string)) "no tmp litter from save" [] tmp_siblings;
  match Snapshot.load ~path ~spec with
  | Ok decoded -> Alcotest.(check bool) "file round-trip" true (payload_eq payload decoded)
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)

(* --- rejection ----------------------------------------------------------------- *)

let check_error name expected = function
  | Ok _ -> Alcotest.fail (name ^ ": decoded a document that must be rejected")
  | Error e -> expected e

(* Replace the first occurrence of [needle] in [haystack]. *)
let replace ~needle ~by haystack =
  let nlen = String.length needle and hlen = String.length haystack in
  let rec find i =
    if i + nlen > hlen then None
    else if String.sub haystack i nlen = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> haystack
  | Some i ->
    String.sub haystack 0 i ^ by
    ^ String.sub haystack (i + nlen) (hlen - i - nlen)

let sample_doc () =
  Snapshot.to_string ~spec
    (Snapshot.Compare
       {
         Experiment.seed = 7;
         runs = 3;
         fingerprint = Some "w=u fp";
         baseline_done = [];
         proposed_done = [];
       })

let test_version_mismatch () =
  let doc = sample_doc () in
  let future = replace ~needle:"(version 2)" ~by:"(version 999)" doc in
  check_error "future version"
    (function
      | Snapshot.Version_mismatch { found } ->
        Alcotest.(check int) "reported version" 999 found
      | e -> Alcotest.fail (Snapshot.error_to_string e))
    (Snapshot.of_string ~spec future)

(* The document shape earlier builds wrote: a [(cache-hits N)] field
   after every [(evaluations N)] field, in the engine, restart and
   compare-run sections alike. *)
let with_cache_hits doc =
  String.split_on_char '\n' doc
  |> List.concat_map (fun line ->
         let trimmed = String.trim line in
         if String.starts_with ~prefix:"(evaluations " trimmed then
           let indent = String.sub line 0 (String.index line '(') in
           [ line; indent ^ "(cache-hits 3)" ]
         else [ line ])
  |> String.concat "\n"

let test_version_1_accepted () =
  (* Documents written by earlier builds must still load: version 1 (no
     islands field existed), and version 2 with the [cache-hits]
     counters that are no longer written, and compare payloads without
     the config fingerprint.  The current writer's own
     output rides along, so a reader that required [cache-hits] again
     would fail here. *)
  let synth =
    Snapshot.Synth
      {
        Synthesis.seed = 5;
        fingerprint = "fp";
        next_restart = 1;
        completed =
          [
            {
              Synthesis.r_genome = [| 1; 0 |];
              r_fitness = 0.5;
              r_generations = 3;
              r_evaluations = 90;
              r_history = [ 0.7; 0.5 ];
            };
          ];
        outer_rng = 42L;
        engine =
          Some
            (Synthesis.Single
               {
                 Engine.generation = 2;
                 members = [| ([| 1; 1 |], 0.8); ([| 0; 1 |], 0.9) |];
                 best = ([| 1; 1 |], 0.8);
                 stagnation = 0;
                 history = [ 0.9; 0.8 ];
                 evaluations = 60;
                 rng_state = 17L;
               });
      }
  in
  let compare =
    Snapshot.Compare
      {
        Experiment.seed = 7;
        runs = 3;
        fingerprint = Some "w=u fp";
        baseline_done =
          [
            {
              Experiment.genome = [| 1 |];
              power = 0.1;
              cpu_seconds = 0.2;
              generations = 4;
              evaluations = 50;
              history = [ 0.1 ];
            };
          ];
        proposed_done = [];
      }
  in
  let current payload = Snapshot.to_string ~spec payload in
  List.iter
    (fun (name, payload, doc) ->
      match Snapshot.of_string ~spec doc with
      | Ok decoded -> Alcotest.(check bool) name true (payload_eq payload decoded)
      | Error e -> Alcotest.failf "%s: %s" name (Snapshot.error_to_string e))
    [
      ( "version 1",
        compare,
        replace ~needle:"(version 2)" ~by:"(version 1)" (current compare) );
      ("current synth", synth, current synth);
      ("current compare", compare, current compare);
      ("synth with cache-hits", synth, with_cache_hits (current synth));
      ("compare with cache-hits", compare, with_cache_hits (current compare));
      ( "compare without a config fingerprint",
        (match compare with
        | Snapshot.Compare st -> Snapshot.Compare { st with fingerprint = None }
        | Snapshot.Synth _ -> assert false),
        replace ~needle:"(config \"w=u fp\")" ~by:"" (current compare) );
    ];
  let cache_hits doc =
    List.length
      (List.filter
         (fun line -> String.trim line = "(cache-hits 3)")
         (String.split_on_char '\n' doc))
  in
  Alcotest.(check bool) "writer drops cache-hits" false
    (List.exists
       (fun payload ->
         List.exists
           (fun line -> String.starts_with ~prefix:"(cache-hits" (String.trim line))
           (String.split_on_char '\n' (current payload)))
       [ synth; compare ]);
  Alcotest.(check int) "engine and restart carry cache-hits" 2
    (cache_hits (with_cache_hits (current synth)));
  Alcotest.(check int) "compare run carries cache-hits" 1
    (cache_hits (with_cache_hits (current compare)))

let test_spec_mismatch () =
  check_error "wrong specification"
    (function
      | Snapshot.Spec_mismatch { found; expected } ->
        Alcotest.(check string) "found the writing spec's fingerprint"
          (Snapshot.fingerprint spec) found;
        Alcotest.(check string) "expected the reading spec's fingerprint"
          (Snapshot.fingerprint other_spec) expected
      | e -> Alcotest.fail (Snapshot.error_to_string e))
    (Snapshot.of_string ~spec:other_spec (sample_doc ()))

let test_corrupted_documents () =
  let doc = sample_doc () in
  let expect_malformed name s =
    check_error name
      (function
        | Snapshot.Malformed _ -> ()
        | e ->
          Alcotest.fail
            (Printf.sprintf "%s: expected Malformed, got %s" name
               (Snapshot.error_to_string e)))
      (Snapshot.of_string ~spec s)
  in
  expect_malformed "empty" "";
  expect_malformed "whitespace" "   \n  ";
  expect_malformed "truncated" (String.sub doc 0 (String.length doc / 2));
  expect_malformed "not a snapshot" "(something (else entirely))";
  expect_malformed "atom at toplevel" "hello";
  expect_malformed "wrong magic" ("(mmsyn-wrong" ^ String.sub doc 15 (String.length doc - 15));
  expect_malformed "version not a number"
    (replace ~needle:"(version 2)" ~by:"(version one)" doc);
  expect_malformed "missing payload"
    (Printf.sprintf "(mmsyn-snapshot (version 2) (spec %s))" (Snapshot.fingerprint spec))

(* No byte string may crash the decoder: every input maps to Ok or a
   typed Error. *)
let prop_decoder_total =
  QCheck.Test.make ~name:"of_string is total on junk" ~count:500
    QCheck.(string_gen Gen.printable)
    (fun junk ->
      match Snapshot.of_string ~spec junk with Ok _ | Error _ -> true)

let test_load_missing_file () =
  check_error "missing file"
    (function
      | Snapshot.Io_error _ -> ()
      | e -> Alcotest.fail (Snapshot.error_to_string e))
    (Snapshot.load ~path:"/nonexistent/dir/snapshot.snap" ~spec)

(* --- rotation and quarantine --------------------------------------------------- *)

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rec rmtree path =
  if Sys.is_directory path then (
    Array.iter (fun f -> rmtree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path)
  else Sys.remove path

let marked seed =
  Snapshot.Compare
    { Experiment.seed; runs = 1; fingerprint = None; baseline_done = []; proposed_done = [] }

let seed_of = function
  | Snapshot.Compare st -> st.Experiment.seed
  | Snapshot.Synth _ -> Alcotest.fail "expected a Compare payload"

let write_garbage path =
  let oc = open_out_bin path in
  output_string oc "(mmsyn-snapshot (version 2) truncated garb";
  close_out oc

let test_rotation_chain () =
  let dir = temp_dir "mmsyn_rotate" in
  Fun.protect ~finally:(fun () -> rmtree dir) @@ fun () ->
  let path = Filename.concat dir "c.snap" in
  List.iter (fun s -> Snapshot.save ~keep:3 ~path ~spec (marked s)) [ 1; 2; 3; 4 ];
  let gen i p = match Snapshot.load ~path:p ~spec with
    | Ok payload -> Alcotest.(check int) (Printf.sprintf "generation %d" i) i (seed_of payload)
    | Error e -> Alcotest.fail (Snapshot.error_to_string e)
  in
  gen 4 path;
  gen 3 (path ^ ".1");
  gen 2 (path ^ ".2");
  (* keep = 3: the oldest generation fell off the end. *)
  Alcotest.(check bool) "oldest dropped" false (Sys.file_exists (path ^ ".3"));
  match (Snapshot.load_latest ~path ~spec ()).Snapshot.found with
  | Some (payload, 0) -> Alcotest.(check int) "latest wins" 4 (seed_of payload)
  | _ -> Alcotest.fail "load_latest must find generation 0"

let test_keep_one_no_rotation () =
  let dir = temp_dir "mmsyn_keep1" in
  Fun.protect ~finally:(fun () -> rmtree dir) @@ fun () ->
  let path = Filename.concat dir "c.snap" in
  Snapshot.save ~path ~spec (marked 1);
  Snapshot.save ~path ~spec (marked 2);
  Alcotest.(check bool) "no .1 sibling" false (Sys.file_exists (path ^ ".1"))

let test_quarantine_falls_back () =
  let dir = temp_dir "mmsyn_quarantine" in
  Fun.protect ~finally:(fun () -> rmtree dir) @@ fun () ->
  let path = Filename.concat dir "c.snap" in
  List.iter (fun s -> Snapshot.save ~keep:3 ~path ~spec (marked s)) [ 1; 2; 3 ];
  write_garbage path;
  (* Without quarantine: fall back, touch nothing. *)
  let scan = Snapshot.load_latest ~path ~spec () in
  (match scan.Snapshot.found with
  | Some (payload, 1) -> Alcotest.(check int) "fell back one generation" 2 (seed_of payload)
  | _ -> Alcotest.fail "expected the previous generation");
  Alcotest.(check (list string)) "nothing quarantined" [] scan.Snapshot.quarantined;
  Alcotest.(check bool) "corrupt file untouched" true (Sys.file_exists path);
  (* With quarantine: the corrupt newest is renamed aside. *)
  let scan = Snapshot.load_latest ~quarantine:true ~path ~spec () in
  (match scan.Snapshot.found with
  | Some (payload, 1) -> Alcotest.(check int) "still generation 2" 2 (seed_of payload)
  | _ -> Alcotest.fail "expected the previous generation");
  Alcotest.(check (list string)) "renamed aside" [ path ^ ".corrupt" ]
    scan.Snapshot.quarantined;
  Alcotest.(check bool) "corrupt moved" false (Sys.file_exists path);
  Alcotest.(check bool) "quarantine file exists" true
    (Sys.file_exists (path ^ ".corrupt"));
  (* The next scan is clean: nothing left to quarantine. *)
  let scan = Snapshot.load_latest ~quarantine:true ~path ~spec () in
  (match scan.Snapshot.found with
  | Some (payload, 1) -> Alcotest.(check int) "stable result" 2 (seed_of payload)
  | _ -> Alcotest.fail "expected the previous generation");
  Alcotest.(check (list string)) "idempotent" [] scan.Snapshot.quarantined

let test_mismatch_not_quarantined () =
  (* A version/spec mismatch is somebody else's data, not corruption:
     skipped but never renamed. *)
  let dir = temp_dir "mmsyn_mismatch" in
  Fun.protect ~finally:(fun () -> rmtree dir) @@ fun () ->
  let path = Filename.concat dir "c.snap" in
  Snapshot.save ~path:(path ^ ".1") ~spec (marked 7);
  Snapshot.save ~path ~spec:other_spec (marked 9);
  let scan = Snapshot.load_latest ~quarantine:true ~path ~spec () in
  (match scan.Snapshot.found with
  | Some (payload, 1) -> Alcotest.(check int) "skipped to ours" 7 (seed_of payload)
  | _ -> Alcotest.fail "expected generation 1");
  Alcotest.(check (list string)) "mismatch not quarantined" []
    scan.Snapshot.quarantined;
  Alcotest.(check bool) "file left in place" true (Sys.file_exists path)

let test_gap_and_exhaustion () =
  let dir = temp_dir "mmsyn_gap" in
  Fun.protect ~finally:(fun () -> rmtree dir) @@ fun () ->
  let path = Filename.concat dir "c.snap" in
  (* A crash between rotation renames can leave a gap at generation 0. *)
  Snapshot.save ~path:(path ^ ".2") ~spec (marked 5);
  (match (Snapshot.load_latest ~path ~spec ()).Snapshot.found with
  | Some (payload, 2) -> Alcotest.(check int) "gap skipped" 5 (seed_of payload)
  | _ -> Alcotest.fail "expected generation 2");
  (* Every generation corrupt: found = None, all quarantined. *)
  write_garbage path;
  write_garbage (path ^ ".1");
  write_garbage (path ^ ".2");
  let scan = Snapshot.load_latest ~quarantine:true ~path ~spec () in
  Alcotest.(check bool) "nothing decodable" true (scan.Snapshot.found = None);
  Alcotest.(check (list string)) "all quarantined"
    [ path ^ ".corrupt"; path ^ ".1.corrupt"; path ^ ".2.corrupt" ]
    scan.Snapshot.quarantined

(* Armed fault sites inside [save]: a torn (short) write must land
   AFTER rotation so the previous good generation survives; an injected
   ENOSPC must raise BEFORE rotation so it destroys nothing. *)
let test_short_write_preserves_previous_generation () =
  let module Fault = Mm_fault.Fault in
  let dir = temp_dir "mmsyn_shortwrite" in
  Fun.protect ~finally:(fun () -> rmtree dir; Fault.disarm ()) @@ fun () ->
  let path = Filename.concat dir "c.snap" in
  Snapshot.save ~keep:3 ~path ~spec (marked 1);
  Fault.arm ~seed:5
    [
      ( "snapshot.short_write",
        { Fault.probability = 1.0; limit = 1; delay = 0.0 } );
    ];
  Snapshot.save ~keep:3 ~path ~spec (marked 2);
  Fault.disarm ();
  (* Generation 0 is torn, generation 1 is the previous good save. *)
  (match Snapshot.load ~path ~spec with
  | Error (Snapshot.Malformed _) -> ()
  | _ -> Alcotest.fail "newest generation should be torn");
  let scan = Snapshot.load_latest ~quarantine:true ~path ~spec () in
  (match scan.Snapshot.found with
  | Some (payload, 1) ->
    Alcotest.(check int) "previous generation intact" 1 (seed_of payload)
  | _ -> Alcotest.fail "previous generation lost");
  Alcotest.(check (list string)) "torn write quarantined" [ path ^ ".corrupt" ]
    scan.Snapshot.quarantined

let test_enospc_raises_before_rotation () =
  let module Fault = Mm_fault.Fault in
  let dir = temp_dir "mmsyn_enospc" in
  Fun.protect ~finally:(fun () -> rmtree dir; Fault.disarm ()) @@ fun () ->
  let path = Filename.concat dir "c.snap" in
  Snapshot.save ~keep:3 ~path ~spec (marked 1);
  Fault.arm ~seed:5
    [ ("snapshot.enospc", { Fault.probability = 1.0; limit = 1; delay = 0.0 }) ];
  (match Snapshot.save ~keep:3 ~path ~spec (marked 2) with
  | () -> Alcotest.fail "injected ENOSPC did not raise"
  | exception Sys_error _ -> ());
  Fault.disarm ();
  (* Nothing rotated, nothing torn: the old snapshot still loads. *)
  (match Snapshot.load ~path ~spec with
  | Ok payload -> Alcotest.(check int) "old state untouched" 1 (seed_of payload)
  | Error e -> Alcotest.fail (Snapshot.error_to_string e));
  Alcotest.(check bool) "no spurious rotation" false
    (Sys.file_exists (path ^ ".1"))

let test_fingerprint_stability () =
  (* Equal specifications fingerprint equally; different ones don't.
     Loading depends on this being stable across processes, so it must
     not hash physical identity. *)
  Alcotest.(check string) "deterministic" (Snapshot.fingerprint spec)
    (Snapshot.fingerprint (Fixtures.spec_of_graphs [ Fixtures.chain_graph () ]));
  Alcotest.(check bool) "discriminates" false
    (Snapshot.fingerprint spec = Snapshot.fingerprint other_spec)

let () =
  Alcotest.run "snapshot"
    [
      ( "round-trip",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "file round-trip, stale tmp" `Quick test_file_roundtrip;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "version 1 accepted" `Quick test_version_1_accepted;
          Alcotest.test_case "spec mismatch" `Quick test_spec_mismatch;
          Alcotest.test_case "corrupted documents" `Quick test_corrupted_documents;
          QCheck_alcotest.to_alcotest prop_decoder_total;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
        ] );
      ( "rotation",
        [
          Alcotest.test_case "generation chain" `Quick test_rotation_chain;
          Alcotest.test_case "keep=1 rotates nothing" `Quick test_keep_one_no_rotation;
          Alcotest.test_case "quarantine falls back" `Quick test_quarantine_falls_back;
          Alcotest.test_case "mismatch is not corruption" `Quick
            test_mismatch_not_quarantined;
          Alcotest.test_case "gaps and exhaustion" `Quick test_gap_and_exhaustion;
          Alcotest.test_case "torn write spares the previous generation" `Quick
            test_short_write_preserves_previous_generation;
          Alcotest.test_case "injected ENOSPC destroys nothing" `Quick
            test_enospc_raises_before_rotation;
        ] );
      ( "fingerprint",
        [ Alcotest.test_case "stability" `Quick test_fingerprint_stability ] );
    ]
