(* Global cache-traffic metrics (all caches pooled; per-cache numbers
   come from the [hits]/[misses] accessors below). *)
let m_hits = Mm_obs.Metrics.counter "memo/hits"
let m_misses = Mm_obs.Metrics.counter "memo/misses"
let m_evictions = Mm_obs.Metrics.counter "memo/evictions"

module Key = struct
  type t = int array

  let equal (a : int array) (b : int array) = a = b

  (* FNV-1a folded over every gene: [Hashtbl.hash] only inspects a
     bounded prefix of the array, which makes near-identical long
     genomes (the common case in a converged population) collide. *)
  let hash (a : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x01000193 land 0x3FFFFFFF
    done;
    !h
end

module H = Hashtbl.Make (Key)

type 'v node = {
  key : int array;
  mutable value : 'v;
  mutable pinned : bool;
  mutable prev : 'v node option;
  mutable next : 'v node option;
}

type 'v t = {
  table : 'v node H.t;
  cap : int;
  mutable head : 'v node option;  (* most recently used *)
  mutable tail : 'v node option;  (* least recently used *)
  mutable pins : 'v node list;  (* nodes currently exempt from eviction *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Memo.create: capacity must be >= 1";
  {
    table = H.create (min capacity 1024);
    cap = capacity;
    head = None;
    tail = None;
    pins = [];
    n_hits = 0;
    n_misses = 0;
    n_evictions = 0;
  }

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let pin_node t node =
  if not node.pinned then begin
    node.pinned <- true;
    t.pins <- node :: t.pins
  end

let find ?(pin = false) t key =
  match H.find_opt t.table key with
  | Some node ->
    t.n_hits <- t.n_hits + 1;
    Mm_obs.Metrics.incr m_hits;
    unlink t node;
    push_front t node;
    if pin then pin_node t node;
    Some node.value
  | None ->
    t.n_misses <- t.n_misses + 1;
    Mm_obs.Metrics.incr m_misses;
    None

(* Evict the least-recently-used unpinned entry, scanning from the tail:
   a pinned entry is in active use by the current batch, and evicting it
   would force the in-flight computation that just inserted (or looked
   it up) to be redone.  Returns false when every entry is pinned, in
   which case the cache temporarily overflows its capacity until
   [unpin_all]. *)
let evict_one t =
  let rec scan = function
    | None -> false
    | Some node when node.pinned -> scan node.prev
    | Some node ->
      unlink t node;
      H.remove t.table node.key;
      t.n_evictions <- t.n_evictions + 1;
      Mm_obs.Metrics.incr m_evictions;
      true
  in
  scan t.tail

let trim t =
  let evictable = ref true in
  while H.length t.table > t.cap && !evictable do
    evictable := evict_one t
  done

let add ?(pin = false) t key value =
  (match H.find_opt t.table key with
  | Some node ->
    node.value <- value;
    unlink t node;
    push_front t node;
    if pin then pin_node t node
  | None ->
    let node =
      { key = Array.copy key; value; pinned = false; prev = None; next = None }
    in
    H.replace t.table node.key node;
    push_front t node;
    if pin then pin_node t node);
  if H.length t.table > t.cap then trim t

let unpin_all t =
  List.iter (fun node -> node.pinned <- false) t.pins;
  t.pins <- [];
  trim t

let pinned t = List.length t.pins

let mem t key = H.mem t.table key

let length t = H.length t.table
let capacity t = t.cap
let hits t = t.n_hits
let misses t = t.n_misses
let evictions t = t.n_evictions
