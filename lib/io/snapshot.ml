module Engine = Mm_ga.Engine
module Synthesis = Mm_cosynth.Synthesis
module Experiment = Mm_cosynth.Experiment

(* Version 2 added the island-model [islands] payload field (PR 8); a
   single-engine state still writes the version-1 [engine] field shape,
   and version-1 snapshots are accepted on read. *)
let format_version = 2

let min_format_version = 1

type payload =
  | Synth of Synthesis.run_state
  | Compare of Experiment.state

type error =
  | Io_error of string
  | Malformed of string
  | Version_mismatch of { found : int }
  | Spec_mismatch of { found : string; expected : string }

let error_to_string = function
  | Io_error message -> "snapshot i/o error: " ^ message
  | Malformed message -> "malformed snapshot: " ^ message
  | Version_mismatch { found } ->
    Printf.sprintf
      "snapshot format version %d is not supported (this build reads versions %d-%d)"
      found min_format_version format_version
  | Spec_mismatch { found; expected } ->
    Printf.sprintf
      "snapshot was taken against a different specification (fingerprint %s, \
       this specification is %s)"
      found expected

(* FNV-1a 64-bit over the specification's canonical text: cheap, stable
   across processes and builds, and any structural change to the spec
   changes the canonical text and hence the fingerprint. *)
let fingerprint spec =
  let text = Codec.spec_to_string spec in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    text;
  Printf.sprintf "fnv1a64:%016Lx" !h

(* --- encoding ---

   PRNG states are full 64-bit words, which do not fit OCaml's native
   63-bit [int]; they are carried as decimal atoms and parsed with
   [Int64.of_string_opt].  Floats go through [Sexp.float], which
   round-trips every finite value, infinities and NaN exactly. *)

let sexp_int64 v = Sexp.atom (Int64.to_string v)
let sexp_ints a = Sexp.List (List.map Sexp.int (Array.to_list a))
let sexp_member (genome, fitness) = Sexp.List [ sexp_ints genome; Sexp.float fitness ]

let engine_fields (ck : Engine.checkpoint) =
  [
    Sexp.field "generation" [ Sexp.int ck.Engine.generation ];
    Sexp.field "rng" [ sexp_int64 ck.Engine.rng_state ];
    Sexp.field "stagnation" [ Sexp.int ck.Engine.stagnation ];
    Sexp.field "evaluations" [ Sexp.int ck.Engine.evaluations ];
    Sexp.field "history" (List.map Sexp.float ck.Engine.history);
    Sexp.field "best" [ sexp_member ck.Engine.best ];
    Sexp.field "members" (List.map sexp_member (Array.to_list ck.Engine.members));
  ]

let restart_to_sexp (s : Synthesis.restart_summary) =
  Sexp.List
    [
      Sexp.field "genome" [ sexp_ints s.Synthesis.r_genome ];
      Sexp.field "fitness" [ Sexp.float s.r_fitness ];
      Sexp.field "generations" [ Sexp.int s.r_generations ];
      Sexp.field "evaluations" [ Sexp.int s.r_evaluations ];
      Sexp.field "history" (List.map Sexp.float s.r_history);
    ]

let synth_to_sexp (state : Synthesis.run_state) =
  Sexp.field "synth"
    ([
       Sexp.field "seed" [ Sexp.int state.Synthesis.seed ];
       Sexp.field "config" [ Sexp.atom state.fingerprint ];
       Sexp.field "next-restart" [ Sexp.int state.next_restart ];
       Sexp.field "outer-rng" [ sexp_int64 state.outer_rng ];
       Sexp.field "completed" (List.map restart_to_sexp state.completed);
     ]
    @ match state.engine with
      | None -> []
      | Some (Synthesis.Single ck) -> [ Sexp.field "engine" (engine_fields ck) ]
      | Some (Synthesis.Sharded ck) ->
        (* Version-2 field: the ring permutation plus one (island ...)
           section per member, in island index order. *)
        [
          Sexp.field "islands"
            (Sexp.field "ring" [ sexp_ints ck.Mm_ga.Islands.ring ]
            :: List.map
                 (fun eck -> Sexp.field "island" (engine_fields eck))
                 (Array.to_list ck.Mm_ga.Islands.members));
        ])

let run_to_sexp (s : Experiment.run_summary) =
  Sexp.List
    [
      Sexp.field "genome" [ sexp_ints s.Experiment.genome ];
      Sexp.field "power" [ Sexp.float s.power ];
      Sexp.field "cpu-seconds" [ Sexp.float s.cpu_seconds ];
      Sexp.field "generations" [ Sexp.int s.generations ];
      Sexp.field "evaluations" [ Sexp.int s.evaluations ];
      Sexp.field "history" (List.map Sexp.float s.history);
    ]

let compare_to_sexp (state : Experiment.state) =
  let config =
    Option.map (fun fp -> Sexp.field "config" [ Sexp.atom fp ]) state.fingerprint
  in
  Sexp.field "compare"
    ([
       Sexp.field "seed" [ Sexp.int state.Experiment.seed ];
       Sexp.field "runs" [ Sexp.int state.runs ];
     ]
    @ Option.to_list config
    @ [
        Sexp.field "baseline" (List.map run_to_sexp state.baseline_done);
        Sexp.field "proposed" (List.map run_to_sexp state.proposed_done);
      ])

let to_string ~spec payload =
  let body =
    match payload with
    | Synth state -> synth_to_sexp state
    | Compare state -> compare_to_sexp state
  in
  Sexp.to_string
    (Sexp.List
       [
         Sexp.atom "mmsyn-snapshot";
         Sexp.field "version" [ Sexp.int format_version ];
         Sexp.field "spec" [ Sexp.atom (fingerprint spec) ];
         Sexp.field "payload" [ body ];
       ])
  ^ "\n"

(* --- decoding ---

   Every helper below raises [Failure] on shape mismatch (as the [Sexp]
   destructors do); [of_string] catches them all and returns a typed
   [Malformed] — callers never see an exception from the codec's
   internals. *)

let one name fields =
  match Sexp.assoc name fields with
  | [ v ] -> v
  | _ -> failwith (name ^ ": expected exactly one value")

let as_int64 s =
  match Int64.of_string_opt (Sexp.as_atom s) with
  | Some v -> v
  | None -> failwith "expected a 64-bit integer atom"

let as_ints s = Array.of_list (List.map Sexp.as_int (Sexp.as_list s))

let as_member s =
  match Sexp.as_list s with
  | [ genome; fitness ] -> (as_ints genome, Sexp.as_float fitness)
  | _ -> failwith "member: expected (genome fitness)"

let engine_of_fields fields : Engine.checkpoint =
  {
    Engine.generation = Sexp.as_int (one "generation" fields);
    rng_state = as_int64 (one "rng" fields);
    stagnation = Sexp.as_int (one "stagnation" fields);
    evaluations = Sexp.as_int (one "evaluations" fields);
    history = List.map Sexp.as_float (Sexp.assoc "history" fields);
    best = as_member (one "best" fields);
    members = Array.of_list (List.map as_member (Sexp.assoc "members" fields));
  }

let restart_of_sexp s : Synthesis.restart_summary =
  let fields = Sexp.as_list s in
  {
    Synthesis.r_genome = as_ints (one "genome" fields);
    r_fitness = Sexp.as_float (one "fitness" fields);
    r_generations = Sexp.as_int (one "generations" fields);
    r_evaluations = Sexp.as_int (one "evaluations" fields);
    r_history = List.map Sexp.as_float (Sexp.assoc "history" fields);
  }

let islands_of_fields fields : Mm_ga.Islands.checkpoint =
  {
    Mm_ga.Islands.ring = as_ints (one "ring" fields);
    members =
      Array.of_list (List.map engine_of_fields (Sexp.assoc_all "island" fields));
  }

let engine_state_of_fields fields : Synthesis.engine_state option =
  match (Sexp.assoc_opt "engine" fields, Sexp.assoc_opt "islands" fields) with
  | Some _, Some _ -> failwith "snapshot carries both engine and islands state"
  | Some e, None -> Some (Synthesis.Single (engine_of_fields e))
  | None, Some i -> Some (Synthesis.Sharded (islands_of_fields i))
  | None, None -> None

let synth_of_fields fields : Synthesis.run_state =
  {
    Synthesis.seed = Sexp.as_int (one "seed" fields);
    fingerprint = Sexp.as_atom (one "config" fields);
    next_restart = Sexp.as_int (one "next-restart" fields);
    outer_rng = as_int64 (one "outer-rng" fields);
    completed = List.map restart_of_sexp (Sexp.assoc "completed" fields);
    engine = engine_state_of_fields fields;
  }

let run_of_sexp s : Experiment.run_summary =
  let fields = Sexp.as_list s in
  {
    Experiment.genome = as_ints (one "genome" fields);
    power = Sexp.as_float (one "power" fields);
    cpu_seconds = Sexp.as_float (one "cpu-seconds" fields);
    generations = Sexp.as_int (one "generations" fields);
    evaluations = Sexp.as_int (one "evaluations" fields);
    history = List.map Sexp.as_float (Sexp.assoc "history" fields);
  }

let compare_of_fields fields : Experiment.state =
  {
    Experiment.seed = Sexp.as_int (one "seed" fields);
    runs = Sexp.as_int (one "runs" fields);
    (* Absent from compare snapshots written before comparisons were
       fingerprinted; those resume unchecked, as they always did. *)
    fingerprint =
      (match Sexp.assoc_opt "config" fields with
      | Some [ v ] -> Some (Sexp.as_atom v)
      | Some _ -> failwith "config: expected exactly one value"
      | None -> None);
    baseline_done = List.map run_of_sexp (Sexp.assoc "baseline" fields);
    proposed_done = List.map run_of_sexp (Sexp.assoc "proposed" fields);
  }

let of_string ~spec text =
  match Sexp.parse_one text with
  | exception Sexp.Parse_error { line; column; message } ->
    Error (Malformed (Printf.sprintf "parse error at %d:%d: %s" line column message))
  | exception Failure message -> Error (Malformed message)
  | exception Sexp.Type_error { message; _ } -> Error (Malformed message)
  | sexp -> (
    try
      let fields =
        match sexp with
        | Sexp.List (Sexp.Atom "mmsyn-snapshot" :: fields) -> fields
        | _ -> failwith "not an mmsyn-snapshot"
      in
      (* Version gates everything else: a future format may change the
         payload shape arbitrarily, so nothing past the header is
         decoded for a version this build does not understand. *)
      let version = Sexp.as_int (one "version" fields) in
      if version < min_format_version || version > format_version then
        Error (Version_mismatch { found = version })
      else
        let found = Sexp.as_atom (one "spec" fields) in
        let expected = fingerprint spec in
        if not (String.equal found expected) then
          Error (Spec_mismatch { found; expected })
        else
          match one "payload" fields with
          | Sexp.List (Sexp.Atom "synth" :: args) -> Ok (Synth (synth_of_fields args))
          | Sexp.List (Sexp.Atom "compare" :: args) ->
            Ok (Compare (compare_of_fields args))
          | _ -> failwith "payload: expected (synth ...) or (compare ...)"
    with
    | Failure message -> Error (Malformed message)
    | Sexp.Type_error { message; _ } -> Error (Malformed message))

(* Chaos sites (no-ops unless a plan is armed): a snapshot write that
   fails outright as the filesystem would under ENOSPC, and a torn
   write that leaves a truncated prefix where the snapshot should be —
   the two corruptions rotation + quarantine exist to absorb. *)
let site_enospc = Mm_fault.Fault.site "snapshot.enospc"
let site_short_write = Mm_fault.Fault.site "snapshot.short_write"

let generation_path path i =
  if i = 0 then path else Printf.sprintf "%s.%d" path i

(* Shift the existing generations one slot older ([path] -> [path.1]
   -> ... -> [path.(keep-1)], oldest dropped) so the write below lands
   in a fresh slot 0.  Each step is a single [rename]: a crash at any
   instant leaves every generation either where it was or one slot
   older, never torn, and [load_latest] tolerates the gap. *)
let rotate ~path ~keep =
  if keep > 1 && Sys.file_exists path then begin
    (try Sys.remove (generation_path path (keep - 1)) with Sys_error _ -> ());
    for i = keep - 2 downto 1 do
      let src = generation_path path i in
      if Sys.file_exists src then Sys.rename src (generation_path path (i + 1))
    done;
    Sys.rename path (generation_path path 1)
  end

(* Write-then-rename ([Codec.write_file_atomic]): a crash mid-write
   leaves either the previous snapshot or the new one, never a torn
   file, and the pid+counter tmp names cannot collide across the
   daemon's concurrent jobs.  A [*.tmp] orphaned by a crash is inert.
   [keep] > 1 additionally rotates the previous snapshot into a
   generation chain first, so one corrupted write never erases the
   last good state. *)
let save ?(keep = 1) ~path ~spec payload =
  if Mm_fault.Fault.fire site_enospc then
    raise (Sys_error (path ^ ": no space left on device (chaos)"));
  let text = to_string ~spec payload in
  rotate ~path ~keep;
  if Mm_fault.Fault.fire site_short_write then begin
    (* A torn write: a truncated prefix lands at the final path without
       the atomic-rename discipline, exactly what a crashed kernel or a
       full disk can leave behind.  Recovery must quarantine it and
       fall back to the rotated generation behind it. *)
    let oc = open_out_bin path in
    output_string oc (String.sub text 0 (String.length text / 3));
    close_out oc
  end
  else Codec.write_file_atomic path text

let load ~path ~spec =
  match Codec.read_file path with
  | exception Sys_error message -> Error (Io_error message)
  | text -> of_string ~spec text

type scan = {
  found : (payload * int) option;
  quarantined : string list;
}

let max_scan_generations = 16

let load_latest ?(max_index = max_scan_generations) ?(quarantine = false) ~path
    ~spec () =
  let quarantined = ref [] in
  let rec scan i =
    if i > max_index then None
    else
      let p = generation_path path i in
      if not (Sys.file_exists p) then scan (i + 1)
      else
        match load ~path:p ~spec with
        | Ok payload -> Some (payload, i)
        | Error (Malformed _) ->
          (* Corrupted bytes: quarantine so the poisoned file can never
             be picked up again (and so operators can autopsy it), then
             fall back to the next-older generation. *)
          if quarantine then begin
            let corrupt = p ^ ".corrupt" in
            (try Sys.rename p corrupt with Sys_error _ -> ());
            quarantined := corrupt :: !quarantined
          end;
          scan (i + 1)
        | Error (Io_error _ | Version_mismatch _ | Spec_mismatch _) ->
          (* Unreadable, foreign-format or foreign-spec files are left
             untouched — they are not corruption, just not ours to
             resume from. *)
          scan (i + 1)
  in
  let found = scan 0 in
  { found; quarantined = List.rev !quarantined }

let synth_sink ?(keep = 1) ~path ~spec ~every () =
  { Synthesis.every; save = (fun state -> save ~keep ~path ~spec (Synth state)) }
