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
  mutable prev : 'v node option;
  mutable next : 'v node option;
}

(* [lock] guards the table, the LRU list and the counters. *)
type 'v t = {
  lock : Mutex.t;
  table : 'v node H.t;
  cap : int;
  mutable head : 'v node option;  (* most recently used *)
  mutable tail : 'v node option;  (* least recently used *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Memo.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    table = H.create (min capacity 1024);
    cap = capacity;
    head = None;
    tail = None;
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

let find t key =
  Mutex.protect t.lock @@ fun () ->
  match H.find_opt t.table key with
  | Some node ->
    t.n_hits <- t.n_hits + 1;
    unlink t node;
    push_front t node;
    Some node.value
  | None ->
    t.n_misses <- t.n_misses + 1;
    None

let add t key value =
  Mutex.protect t.lock @@ fun () ->
  match H.find_opt t.table key with
  | Some node ->
    node.value <- value;
    unlink t node;
    push_front t node
  | None -> (
    let node = { key = Array.copy key; value; prev = None; next = None } in
    H.replace t.table node.key node;
    push_front t node;
    if H.length t.table > t.cap then
      match t.tail with
      | Some lru ->
        unlink t lru;
        H.remove t.table lru.key;
        t.n_evictions <- t.n_evictions + 1
      | None -> ())

let mem t key = Mutex.protect t.lock (fun () -> H.mem t.table key)
let length t = Mutex.protect t.lock (fun () -> H.length t.table)
let capacity t = t.cap
let hits t = t.n_hits
let misses t = t.n_misses
let evictions t = t.n_evictions
