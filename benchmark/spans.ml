(* Spans of the traced pass.  They are recorded around the benchmark's
   own calls into each layer, kept in memory, and written out as one
   Chrome trace file when the workload ends. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let recorded : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let enabled = ref false

let current_parent () = match !open_ids with p :: _ -> p | [] -> 0

(* Run [f] as a child of the innermost open span. *)
let run name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = current_parent () in
    open_ids := id :: !open_ids;
    let start = Measure.now () in
    Fun.protect
      ~finally:(fun () ->
        open_ids := List.tl !open_ids;
        recorded := { id; parent; name; start; stop = Measure.now () } :: !recorded)
      f
  end

(* [run] that also returns the duration in milliseconds. *)
let measure name f =
  let t0 = Measure.now () in
  let r = run name f in
  (r, (Measure.now () -. t0) *. 1e3)

(* An interval observed after the fact — a GA generation between two
   [yield] calls — as a child of the innermost open span. *)
let add name ~start ~stop =
  if !enabled then begin
    incr next_id;
    recorded := { id = !next_id; parent = current_parent (); name; start; stop } :: !recorded
  end

(* Adopt the spans another process recorded, renumbered after ours. *)
let import spans =
  let offset = !next_id in
  List.iter
    (fun s ->
      let s = { s with id = s.id + offset; parent = (if s.parent = 0 then 0 else s.parent + offset) } in
      next_id := max !next_id s.id;
      recorded := s :: !recorded)
    spans

let duration_ms s = (s.stop -. s.start) *. 1e3

(* Per span name: summed self time (duration minus the part covered by
   direct children) and count, in first-seen order. *)
let self_times () =
  let spans = List.rev !recorded in
  let child_ms = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt child_ms s.parent) in
      Hashtbl.replace child_ms s.parent (prev +. duration_ms s))
    spans;
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration_ms s -. Option.value ~default:0. (Hashtbl.find_opt child_ms s.id) in
      match Hashtbl.find_opt acc s.name with
      | Some (t, n) -> Hashtbl.replace acc s.name (t +. self, n + 1)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace acc s.name (self, 1))
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find acc name)) !order

let write_chrome path =
  let spans = List.rev !recorded in
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.name
        ((s.start -. origin) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent)
    spans;
  Buffer.add_string buf "]}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf)
