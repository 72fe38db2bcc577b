module Pool = Mm_parallel.Pool
module Snapshot = Mm_io.Snapshot
module Synthesis = Mm_cosynth.Synthesis
module Log = Mm_obs.Log
module Fault = Mm_fault.Fault

(* Chaos sites (no-ops unless armed): a freshly accepted connection
   dropped on the floor, a read that returns EOF mid-conversation, a
   response frame replaced by garbage, and a stalled scheduler slice.
   Each models a failure a deployed daemon's clients actually see, and
   each must be survivable by the retrying client. *)
let site_accept_drop = Fault.site "server.accept_drop"
let site_read_eof = Fault.site "server.read_eof"
let site_garbage_frame = Fault.site "server.garbage_frame"
let site_slice_delay = Fault.site "scheduler.slice_delay"

type config = {
  socket_path : string;
  tcp : (string * int) option;
  state_dir : string;
  pool_jobs : int;
  checkpoint_every : int;
  keep_checkpoints : int;
      (** Snapshot generations rotated per job (>= 1). *)
  max_jobs : int;  (** Non-terminal job bound; 0 = unbounded. *)
  read_deadline : float;
      (** Seconds a connection may sit idle {e mid-frame} before it is
          dropped; 0 = never.  Idle-between-requests connections are
          unaffected. *)
  auth_token : string option;
      (** Shared secret demanded of TCP clients (constant-time
          compare); Unix-socket clients are never challenged — the
          socket's file permissions are their credential. *)
}

let default_checkpoint_every = 5
let default_keep_checkpoints = 3
let default_read_deadline = 30.

let default_config =
  {
    socket_path = "/tmp/mmsynthd.sock";
    tcp = None;
    state_dir = "mmsynthd-state";
    pool_jobs = 1;
    checkpoint_every = default_checkpoint_every;
    keep_checkpoints = default_keep_checkpoints;
    max_jobs = 0;
    read_deadline = default_read_deadline;
    auth_token = None;
  }

let synthesis_config (options : Job.options) =
  {
    (Synthesis.config_of_flags ~dvs:options.Job.dvs ~uniform:options.Job.uniform
       ~generations:options.Job.generations ~population:options.Job.population)
    with
    restarts = options.Job.restarts;
    (* Parallel evaluation comes from the shared pool the server passes
       to [Synthesis.run]; a per-job pool would defeat the bound. *)
    jobs = 1;
    islands = options.Job.islands;
    migration_interval = options.Job.migration_interval;
    migration_count = options.Job.migration_count;
  }

(* --- connections -------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  decoder : Protocol.Framing.decoder;
  outbox : Buffer.t;
  requires_auth : bool;  (** TCP connection on an auth-guarded daemon. *)
  mutable last_read : float;  (** For the mid-frame read deadline. *)
  mutable watching : string list;  (** Job ids streamed to this client. *)
  mutable dead : bool;
}

type t = {
  config : config;
  registry : Registry.t;
  sched : Scheduler.t;
  pool : Pool.t option;
  handles : (string, Scheduler.handle) Hashtbl.t;
  mutable conns : conn list;
  mutable listeners : (Unix.file_descr * bool) list;
      (** Listening fds, each tagged [true] when it is the TCP one. *)
  mutable running : bool;
}

let now () = Unix.gettimeofday ()

let send conn response =
  if not conn.dead then
    Buffer.add_string conn.outbox
      (Protocol.Framing.encode (Protocol.response_to_string response))

(* Flush as much of the outbox as the socket accepts right now. *)
let flush_conn conn =
  let pending = Buffer.contents conn.outbox in
  let len = String.length pending in
  if len > 0 && not conn.dead then begin
    let written =
      try Unix.write_substring conn.fd pending 0 len with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> 0
      | Unix.Unix_error _ ->
        conn.dead <- true;
        0
    in
    if written > 0 then begin
      Buffer.clear conn.outbox;
      if written < len then
        Buffer.add_substring conn.outbox pending written (len - written)
    end
  end

(* --- job bodies --------------------------------------------------------- *)

(* The body binds the entry's parsed spec once: the registry drops it at
   the terminal transition, and with it the spec's per-mode caches once
   the body returns.  The handle is dropped then too — [Cancel] answers
   terminal jobs from the registry alone. *)
let spawn_job t entry =
  let handle =
    Scheduler.spawn t.sched (fun ~yield ->
        let job = entry.Registry.job in
        Fun.protect ~finally:(fun () -> Hashtbl.remove t.handles job.Job.id)
        @@ fun () ->
        try
          let spec =
            match entry.Registry.spec with
            | Some spec -> spec
            | None -> invalid_arg "mmsynthd: runnable job without a parsed spec"
          in
          Registry.mark_running t.registry entry ~now:(now ());
          let config = synthesis_config job.Job.options in
          let sink =
            Snapshot.synth_sink ~keep:t.config.keep_checkpoints
              ~path:(Registry.checkpoint_path t.registry entry)
              ~spec ~every:t.config.checkpoint_every ()
          in
          (* Keep job.sexp in agreement with the snapshot a crash would
             find: the state flips to Checkpointed the moment a snapshot
             lands on disk.  A failed checkpoint write (ENOSPC, torn
             disk) is logged and skipped — the previous generation
             still stands, and the run itself is unharmed. *)
          let sink =
            {
              sink with
              Synthesis.save =
                (fun state ->
                  match sink.Synthesis.save state with
                  | () -> Registry.checkpointed t.registry entry ~now:(now ())
                  | exception Sys_error message ->
                    Log.warn (fun () ->
                        Printf.sprintf "mmsynthd: %s: checkpoint write failed: %s"
                          job.Job.id message));
            }
          in
          let resume = entry.Registry.resume in
          entry.Registry.resume <- None;
          let result =
            Synthesis.run ~config ?pool:t.pool ~checkpoint:sink ?resume
              ~yield:(fun p ->
                Registry.record_progress t.registry entry p ~now:(now ());
                yield ())
              ~spec ~seed:job.Job.options.Job.seed ()
          in
          Registry.complete t.registry entry result ~now:(now ())
        with
        | Scheduler.Cancelled -> Registry.cancel t.registry entry ~now:(now ())
        | exn -> (
          (* A metadata write can fail while recording the failure
             itself; the in-memory state is already Failed at that
             point, so log and keep the daemon alive. *)
          try
            Registry.fail t.registry entry (Printexc.to_string exn)
              ~now:(now ())
          with persist_exn ->
            Log.warn (fun () ->
                Printf.sprintf
                  "mmsynthd: %s: could not persist failure (%s) after %s"
                  job.Job.id
                  (Printexc.to_string persist_exn)
                  (Printexc.to_string exn))))
  in
  Hashtbl.replace t.handles entry.Registry.job.Job.id handle

(* --- request dispatch --------------------------------------------------- *)

let error code message = Protocol.Error_response { code; message }

let finish_watch t conn job_id =
  conn.watching <- List.filter (fun id -> id <> job_id) conn.watching;
  match Registry.find t.registry job_id with
  | Some entry -> send conn (Protocol.Job_info (Protocol.view entry.Registry.job))
  | None -> ()

let cancel t id =
  match Registry.find t.registry id with
  | None -> error "unknown-job" id
  | Some entry ->
    let job = entry.Registry.job in
    if Job.terminal job.Job.state then
      error "wrong-state"
        (Printf.sprintf "%s is already %s" id (Job.state_to_string job.Job.state))
    else begin
      let started =
        match Hashtbl.find_opt t.handles id with
        | Some handle -> Scheduler.request_cancel handle
        | None -> false
      in
      (* A body that never started never runs, so nothing would record
         the cancellation — do it here.  That is every queued job, and a
         rehydrated running or checkpointed one not resumed yet.  A
         started body cancels itself at its next yield. *)
      if not started then begin
        Registry.cancel t.registry entry ~now:(now ());
        Hashtbl.remove t.handles id
      end;
      Protocol.Done
    end

let handle_request t conn = function
  | Protocol.Ping -> send conn Protocol.Pong
  | Protocol.Shutdown ->
    send conn Protocol.Done;
    t.running <- false
  | Protocol.List_jobs ->
    send conn
      (Protocol.Jobs
         (List.map
            (fun e -> Protocol.view e.Registry.job)
            (Registry.entries t.registry)))
  | Protocol.Submit { spec_text; options; nonce } -> (
    (* Idempotency first: a nonce the registry already knows means the
       client's earlier attempt was admitted but its response was lost
       — answer with the existing job, spawn nothing. *)
    match Option.bind nonce (Registry.find_by_nonce t.registry) with
    | Some entry ->
      send conn (Protocol.Accepted (Protocol.view entry.Registry.job))
    | None ->
      let active =
        List.length
          (List.filter
             (fun e -> not (Job.terminal e.Registry.job.Job.state))
             (Registry.entries t.registry))
      in
      if t.config.max_jobs > 0 && active >= t.config.max_jobs then
        send conn (Protocol.Busy { active; limit = t.config.max_jobs })
      else (
        match
          Registry.submit ?nonce t.registry ~spec_text ~options ~now:(now ())
        with
        | Error diags ->
          send conn
            (Protocol.Rejected (List.map Protocol.diag_of_validate diags))
        | Ok entry ->
          spawn_job t entry;
          send conn (Protocol.Accepted (Protocol.view entry.Registry.job))))
  | Protocol.Status id -> (
    match Registry.find t.registry id with
    | None -> send conn (error "unknown-job" id)
    | Some entry -> send conn (Protocol.Job_info (Protocol.view entry.Registry.job)))
  | Protocol.Cancel id -> send conn (cancel t id)
  | Protocol.Watch id -> (
    match Registry.find t.registry id with
    | None -> send conn (error "unknown-job" id)
    | Some entry ->
      let job = entry.Registry.job in
      List.iter
        (fun line -> send conn (Protocol.Event line))
        (Registry.read_events t.registry entry);
      if Job.terminal job.Job.state then
        send conn (Protocol.Job_info (Protocol.view job))
      else conn.watching <- id :: conn.watching)

(* Replace everything a request just queued with one unparseable frame
   and drop the connection: the request's side effects happened, its
   response is lost — exactly the half-failure the submit nonce exists
   to make survivable. *)
let garble_response conn ~mark =
  let queued = Buffer.contents conn.outbox in
  Buffer.clear conn.outbox;
  Buffer.add_substring conn.outbox queued 0 mark;
  Buffer.add_string conn.outbox (Protocol.Framing.encode "(mmsynth-rpc (garbage");
  flush_conn conn;
  conn.dead <- true

let authorized t conn auth =
  (not conn.requires_auth)
  ||
  match (t.config.auth_token, auth) with
  | Some expected, Some provided -> Protocol.token_equal expected provided
  | Some _, None -> false
  | None, _ -> true

let service_conn t conn =
  let chunk = Bytes.create 65536 in
  let n =
    if Fault.fire site_read_eof then 0 (* chaos: peer vanished mid-stream *)
    else
      try Unix.read conn.fd chunk 0 (Bytes.length chunk) with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> -1
      | Unix.Unix_error _ -> 0
  in
  if n = 0 then conn.dead <- true
  else if n > 0 then begin
    conn.last_read <- now ();
    Protocol.Framing.feed conn.decoder (Bytes.sub_string chunk 0 n);
    let rec drain () =
      if conn.dead then ()
      else
        match Protocol.Framing.next conn.decoder with
        | Error err ->
          send conn (error "protocol" (Protocol.Framing.error_to_string err));
          flush_conn conn;
          conn.dead <- true
        | Ok None -> ()
        | Ok (Some payload) ->
          (match Protocol.request_of_string_auth payload with
          | Error message -> send conn (error "protocol" message)
          | Ok (request, auth) ->
            if not (authorized t conn auth) then
              send conn Protocol.Unauthorized
            else begin
              let mark = Buffer.length conn.outbox in
              (try handle_request t conn request with
              | exn -> send conn (error "internal" (Printexc.to_string exn)));
              (* Never garble Shutdown: its sender cannot retry against
                 a daemon that is already gone. *)
              match request with
              | Protocol.Shutdown -> ()
              | _ ->
                if Fault.fire site_garbage_frame then
                  garble_response conn ~mark
            end);
          drain ()
    in
    drain ()
  end

(* --- event fan-out ------------------------------------------------------ *)

let broadcast t (job : Job.t) line =
  List.iter
    (fun conn ->
      if List.mem job.Job.id conn.watching then begin
        send conn (Protocol.Event line);
        if Job.terminal job.Job.state then finish_watch t conn job.Job.id
      end)
    t.conns

(* --- listeners ---------------------------------------------------------- *)

let listen_unix path =
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock fd;
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0) with
    | Not_found -> Unix.inet_addr_loopback
  in
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let accept_conn t ~tcp listener =
  match Unix.accept listener with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | fd, _addr ->
    if Fault.fire site_accept_drop then
      (* Chaos: the three-way handshake succeeded but the daemon died
         on it — the client sees a connection reset and must retry. *)
      try Unix.close fd with Unix.Unix_error _ -> ()
    else begin
      Unix.set_nonblock fd;
      t.conns <-
        {
          fd;
          decoder = Protocol.Framing.create ();
          outbox = Buffer.create 1024;
          requires_auth = tcp && t.config.auth_token <> None;
          last_read = now ();
          watching = [];
          dead = false;
        }
        :: t.conns
    end

(* Kill connections that have sat on a partial frame past the read
   deadline: a peer that sent half a length-prefixed frame and went
   away would otherwise hold its buffer (and fd) forever.  A quiet
   connection with no bytes pending is a legitimate idle client. *)
let enforce_deadlines t =
  let deadline = t.config.read_deadline in
  if deadline > 0. then begin
    let cutoff = now () -. deadline in
    List.iter
      (fun c ->
        if
          (not c.dead)
          && Protocol.Framing.pending c.decoder > 0
          && c.last_read < cutoff
        then c.dead <- true)
      t.conns
  end

let reap t =
  let dead, live = List.partition (fun c -> c.dead) t.conns in
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) dead;
  t.conns <- live

(* --- main loop ---------------------------------------------------------- *)

let create config =
  let registry = Registry.create ~state_dir:config.state_dir in
  let pool =
    if config.pool_jobs > 1 then
      (* Under an armed chaos plan the pool must retry, so every
         injected worker raise is absorbed (the injection site only
         fires when max_retries > 0). *)
      let max_retries = if Fault.armed () then 3 else 0 in
      Some (Pool.create ~domains:config.pool_jobs ~max_retries ())
    else None
  in
  let t =
    {
      config;
      registry;
      sched = Scheduler.create ();
      pool;
      handles = Hashtbl.create 64;
      conns = [];
      listeners = [];
      running = true;
    }
  in
  Registry.set_on_event registry (broadcast t);
  (* Crash recovery: every non-terminal job goes back on the run queue,
     resuming from its snapshot when one exists. *)
  let recovered = Registry.rehydrate registry in
  List.iter (spawn_job t) recovered;
  if recovered <> [] then
    Log.info (fun () ->
        Printf.sprintf "mmsynthd: recovered %d in-flight job(s)"
          (List.length recovered));
  t

let registry t = t.registry
let step t = Scheduler.step t.sched
let close t = Option.iter Pool.shutdown t.pool

let run config =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | Invalid_argument _ -> ());
  let t = create config in
  t.listeners <-
    ((listen_unix config.socket_path, false)
    ::
    (match config.tcp with
    | None -> []
    | Some (host, port) -> [ (listen_tcp host port, true) ]));
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> flush_conn c) t.conns;
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        t.conns;
      List.iter
        (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
        t.listeners;
      (try Sys.remove config.socket_path with Sys_error _ -> ());
      close t;
      if Fault.armed () then
        Log.info (fun () ->
            Printf.sprintf "mmsynthd: chaos injections: %s"
              (String.concat ", "
                 (List.map
                    (fun (name, count) -> Printf.sprintf "%s=%d" name count)
                    (Fault.report ())))))
  @@ fun () ->
  while t.running do
    let reads =
      List.map fst t.listeners @ List.map (fun c -> c.fd) t.conns
    in
    let writes =
      List.filter_map
        (fun c -> if Buffer.length c.outbox > 0 then Some c.fd else None)
        t.conns
    in
    let timeout = if Scheduler.busy t.sched then 0. else 0.25 in
    let readable, writable, _ =
      try Unix.select reads writes [] timeout with
      | Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        match List.assoc_opt fd t.listeners with
        | Some tcp -> accept_conn t ~tcp fd
        | None -> (
          match List.find_opt (fun c -> c.fd = fd) t.conns with
          | Some conn -> service_conn t conn
          | None -> ()))
      readable;
    List.iter
      (fun fd ->
        match List.find_opt (fun c -> c.fd = fd) t.conns with
        | Some conn -> flush_conn conn
        | None -> ())
      writable;
    enforce_deadlines t;
    reap t;
    (* Chaos: a stalled slice models a daemon briefly starved of CPU —
       checkpoint cadence and client deadlines must tolerate it. *)
    let stall = Fault.fire_delay site_slice_delay in
    if stall > 0. then Unix.sleepf stall;
    (* One generation slice of the front job per iteration keeps the
       loop responsive: socket latency is bounded by a single
       generation's evaluation time. *)
    ignore (step t : bool)
  done
