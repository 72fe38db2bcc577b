module Codec = Mm_io.Codec
module Snapshot = Mm_io.Snapshot
module Sexp = Mm_io.Sexp
module Json = Mm_obs.Json
module Synthesis = Mm_cosynth.Synthesis
module Fault = Mm_fault.Fault

(* Chaos site (a no-op unless armed): a metadata write that fails as a
   full or read-only filesystem would.  The server maps the resulting
   [Sys_error] to a failed job with a diagnostic — never a daemon
   teardown. *)
let site_write_fail = Fault.site "registry.write_fail"

type entry = {
  job : Job.t;
  mutable spec : Mm_cosynth.Spec.t option;
  spec_text : string;
  mutable resume : Synthesis.run_state option;
}

type t = {
  state_dir : string;
  jobs_dir : string;
  table : (string, entry) Hashtbl.t;
  nonces : (string, string) Hashtbl.t;  (** Submission nonce -> job id. *)
  mutable ordered : entry list;  (** Submission order, newest last. *)
  mutable next_seq : int;
  mutable on_event : (Job.t -> string -> unit) option;
}

let mkdir_p dir =
  let rec make dir =
    if not (Sys.file_exists dir) then begin
      make (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

let create ~state_dir =
  let jobs_dir = Filename.concat state_dir "jobs" in
  mkdir_p jobs_dir;
  {
    state_dir;
    jobs_dir;
    table = Hashtbl.create 64;
    nonces = Hashtbl.create 64;
    ordered = [];
    next_seq = 1;
    on_event = None;
  }

let set_on_event t f = t.on_event <- Some f

let job_dir t entry = Filename.concat t.jobs_dir entry.job.Job.id
let meta_path t entry = Filename.concat (job_dir t entry) "job.sexp"
let spec_path t entry = Filename.concat (job_dir t entry) "spec.mms"
let checkpoint_path t entry = Filename.concat (job_dir t entry) "checkpoint.snap"
let events_path t entry = Filename.concat (job_dir t entry) "events.jsonl"
let result_path t entry = Filename.concat (job_dir t entry) "result.sexp"

let find t id = Hashtbl.find_opt t.table id
let entries t = t.ordered

let find_by_nonce t nonce =
  match Hashtbl.find_opt t.nonces nonce with
  | None -> None
  | Some id -> Hashtbl.find_opt t.table id

let remember_nonce t (job : Job.t) =
  match job.Job.nonce with
  | None -> ()
  | Some nonce -> Hashtbl.replace t.nonces nonce job.Job.id

let persist_meta t entry =
  let path = meta_path t entry in
  if Fault.fire site_write_fail then
    raise (Sys_error (path ^ ": write failed (chaos)"));
  Codec.write_file_atomic path (Sexp.to_string (Job.to_sexp entry.job) ^ "\n")

(* --- events ------------------------------------------------------------ *)

let append_event t entry line =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (events_path t entry)
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc line;
      output_char oc '\n');
  match t.on_event with None -> () | Some f -> f entry.job line

let state_event t entry ~now ?(extra = fun (_ : Buffer.t) -> ()) () =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"event\":\"state\",\"job\":";
  Json.str buf entry.job.Job.id;
  Buffer.add_string buf ",\"state\":";
  Json.str buf (Job.state_to_string entry.job.Job.state);
  extra buf;
  Buffer.add_string buf ",\"ts\":";
  Json.number buf now;
  Buffer.add_char buf '}';
  append_event t entry (Buffer.contents buf)

(* --- admission --------------------------------------------------------- *)

let submit ?nonce t ~spec_text ~options ~now =
  match Codec.check_string spec_text with
  | spec_opt, diags
    when Mm_cosynth.Validate.has_errors diags || Option.is_none spec_opt ->
    Error diags
  | Some spec, _diags ->
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let job =
      Job.create ?nonce ~seq ~options
        ~spec_fingerprint:(Snapshot.fingerprint spec) ~now ()
    in
    let entry = { job; spec = Some spec; spec_text; resume = None } in
    mkdir_p (job_dir t entry);
    Codec.write_file (spec_path t entry) spec_text;
    persist_meta t entry;
    Hashtbl.replace t.table job.Job.id entry;
    remember_nonce t job;
    t.ordered <- t.ordered @ [ entry ];
    state_event t entry ~now ();
    Ok entry
  | None, _ -> assert false (* covered by the guard above *)

(* --- crash recovery ---------------------------------------------------- *)

let load_entry t ~id =
  let dir = Filename.concat t.jobs_dir id in
  let read path = Codec.read_file path in
  match
    let meta = Sexp.parse_one (read (Filename.concat dir "job.sexp")) in
    match Job.of_sexp meta with
    | Error message -> Error message
    | Ok job -> (
      let spec_text = read (Filename.concat dir "spec.mms") in
      (* A terminal job never runs again: its spec is kept as text only,
         so neither a parse nor a corrupt file can cost it its listing. *)
      if Job.terminal job.Job.state then
        Ok { job; spec = None; spec_text; resume = None }
      else
        match Codec.spec_of_string_result spec_text with
        | Error diags ->
          Error
            (Printf.sprintf "spec no longer loads: %d diagnostics"
               (List.length diags))
        | Ok spec -> Ok { job; spec = Some spec; spec_text; resume = None })
  with
  | result -> result
  | exception Sys_error message -> Error message
  | exception Sexp.Parse_error { line; column; message } ->
    Error (Printf.sprintf "job.sexp %d:%d: %s" line column message)
  | exception exn -> Error (Printexc.to_string exn)

let rehydrate t =
  let ids =
    Sys.readdir t.jobs_dir |> Array.to_list
    |> List.filter (fun id ->
           Sys.is_directory (Filename.concat t.jobs_dir id))
  in
  let loaded =
    List.filter_map
      (fun id ->
        let meta = Filename.concat (Filename.concat t.jobs_dir id) "job.sexp" in
        if
          (not (Sys.file_exists meta)) && Sys.file_exists (meta ^ ".corrupt")
        then
          (* Quarantined on an earlier startup: stays skipped, quietly. *)
          None
        else
          match load_entry t ~id with
          | Ok entry -> Some entry
          | Error message ->
            (* One poisoned directory must not fail the whole startup:
               quarantine its metadata (preserved for autopsy, renamed
               so it is never re-read) and move on. *)
            (try
               if Sys.file_exists meta then Sys.rename meta (meta ^ ".corrupt")
             with Sys_error _ -> ());
            prerr_endline
              (Printf.sprintf "mmsynthd: %s: metadata quarantined (%s)" id
                 message);
            None)
      ids
  in
  let loaded =
    List.sort (fun a b -> compare a.job.Job.seq b.job.Job.seq) loaded
  in
  List.iter
    (fun entry ->
      Hashtbl.replace t.table entry.job.Job.id entry;
      remember_nonce t entry.job;
      t.next_seq <- max t.next_seq (entry.job.Job.seq + 1))
    loaded;
  t.ordered <- loaded;
  List.filter
    (fun entry ->
      (* Only non-terminal entries were loaded with a parsed spec. *)
      match entry.spec with
      | None -> false
      | Some spec ->
        (* The newest checkpoint generation that still decodes wins;
           corrupt ones are renamed [*.corrupt] so the fallback is
           permanent, not retried every startup. *)
        let scan =
          Snapshot.load_latest ~quarantine:true
            ~path:(checkpoint_path t entry) ~spec ()
        in
        List.iter
          (fun corrupt ->
            prerr_endline
              (Printf.sprintf "mmsynthd: %s: corrupt checkpoint quarantined as %s"
                 entry.job.Job.id (Filename.basename corrupt)))
          scan.Snapshot.quarantined;
        (match scan.Snapshot.found with
        | Some (Snapshot.Synth state, index) ->
          entry.resume <- Some state;
          if index > 0 then
            prerr_endline
              (Printf.sprintf
                 "mmsynthd: %s: resuming from rotated checkpoint generation %d"
                 entry.job.Job.id index)
        | Some (Snapshot.Compare _, _) | None -> entry.resume <- None);
        true)
    loaded

(* --- lifecycle --------------------------------------------------------- *)

let transition_exn entry to_ =
  match Job.transition entry.job to_ with
  | Ok () -> ()
  | Error message -> invalid_arg ("Registry: " ^ message)

let mark_running t entry ~now =
  (match entry.job.Job.state with
  | Job.Running -> () (* rehydrated mid-flight, no checkpoint yet *)
  | _ -> transition_exn entry Job.Running);
  if entry.job.Job.started_at = None then entry.job.Job.started_at <- Some now;
  persist_meta t entry;
  state_event t entry ~now ()

let record_progress t entry (p : Synthesis.progress) ~now =
  entry.job.Job.restart <- p.Synthesis.p_restart;
  entry.job.Job.generation <- p.Synthesis.p_generation;
  entry.job.Job.best_fitness <- Some p.Synthesis.p_best_fitness;
  if entry.job.Job.first_generation_at = None then
    entry.job.Job.first_generation_at <- Some now;
  let buf = Buffer.create 160 in
  Buffer.add_string buf "{\"event\":\"generation\",\"job\":";
  Json.str buf entry.job.Job.id;
  Buffer.add_string buf ",\"restart\":";
  Json.int buf p.Synthesis.p_restart;
  Buffer.add_string buf ",\"generation\":";
  Json.int buf p.Synthesis.p_generation;
  Buffer.add_string buf ",\"best_fitness\":";
  Json.number buf p.Synthesis.p_best_fitness;
  Buffer.add_string buf ",\"evaluations\":";
  Json.int buf p.Synthesis.p_evaluations;
  Buffer.add_string buf ",\"ts\":";
  Json.number buf now;
  Buffer.add_char buf '}';
  append_event t entry (Buffer.contents buf)

let checkpointed t entry ~now =
  (match entry.job.Job.state with
  | Job.Checkpointed -> ()
  | _ -> transition_exn entry Job.Checkpointed);
  persist_meta t entry;
  ignore now

(* Every terminal transition drops the parsed spec: a finished job never
   runs again, and the spec's compiled context owns per-mode caches that
   would otherwise live as long as the daemon.  [spec_text] stays. *)
let finish entry to_ =
  transition_exn entry to_;
  entry.spec <- None

let complete t entry (result : Synthesis.result) ~now =
  finish entry Job.Completed;
  let outcome =
    {
      Job.power = Synthesis.average_power result;
      fitness = result.Synthesis.eval.Mm_cosynth.Fitness.fitness;
      generations = result.Synthesis.generations;
      evaluations = result.Synthesis.evaluations;
      genome = result.Synthesis.genome;
    }
  in
  entry.job.Job.outcome <- Some outcome;
  entry.job.Job.best_fitness <- Some outcome.Job.fitness;
  entry.job.Job.finished_at <- Some now;
  (* The file the crash-recovery smoke diffs: only trajectory-determined
     values (genome, bit-exact power/fitness, generation count) — never
     evaluation counts, which legitimately differ across a resume. *)
  Codec.write_file_atomic (result_path t entry)
    (Sexp.to_string
       (Sexp.List
          [
            Sexp.atom "mmsynthd-result";
            Sexp.field "job" [ Sexp.atom entry.job.Job.id ];
            Sexp.field "spec" [ Sexp.atom entry.job.Job.spec_fingerprint ];
            Sexp.field "power" [ Sexp.float outcome.Job.power ];
            Sexp.field "fitness" [ Sexp.float outcome.Job.fitness ];
            Sexp.field "generations" [ Sexp.int outcome.Job.generations ];
            Sexp.field "genome"
              (List.map Sexp.int (Array.to_list outcome.Job.genome));
          ])
    ^ "\n");
  persist_meta t entry;
  state_event t entry ~now
    ~extra:(fun buf ->
      Buffer.add_string buf ",\"power\":";
      Json.number buf outcome.Job.power;
      Buffer.add_string buf ",\"fitness\":";
      Json.number buf outcome.Job.fitness)
    ()

let fail t entry message ~now =
  finish entry Job.Failed;
  entry.job.Job.error <- Some message;
  entry.job.Job.finished_at <- Some now;
  persist_meta t entry;
  state_event t entry ~now
    ~extra:(fun buf ->
      Buffer.add_string buf ",\"error\":";
      Json.str buf message)
    ()

let cancel t entry ~now =
  finish entry Job.Cancelled;
  entry.job.Job.finished_at <- Some now;
  persist_meta t entry;
  state_event t entry ~now ()

let read_events t entry =
  match Codec.read_file (events_path t entry) with
  | exception Sys_error _ -> []
  | text ->
    String.split_on_char '\n' text |> List.filter (fun line -> line <> "")
