(* LRU via an intrusive circular doubly-linked list around a sentinel:
   [sentinel.next] is the most recent entry, [sentinel.prev] the eviction
   victim.  The previous implementation kept a recency tick per entry and
   folded the whole table to find the minimum on every eviction — O(capacity)
   per insert once the cache fills, which dominated the write benchmarks.
   The list evicts the same victim (the least recently touched entry) in
   O(1).

   An entry is a view [bytes.[pos .. pos + block_bytes)]: a run read
   caches each of its blocks as a view of the one run buffer instead of
   a per-block copy. *)

type entry = {
  mutable block : int;
  mutable bytes : Bytes.t;
  mutable pos : int;
  mutable dirty : bool;
  mutable prev : entry;
  mutable next : entry;
}

type t = {
  capacity : int;
  block_bytes : int;
  table : (int, entry) Hashtbl.t;
  sentinel : entry;
}

let make_sentinel () =
  let rec s =
    { block = -1; bytes = Bytes.empty; pos = 0; dirty = false; prev = s; next = s }
  in
  s

let create ~capacity ~block_bytes =
  if capacity <= 0 then invalid_arg "Buffer_cache.create: capacity must be positive";
  if block_bytes <= 0 then invalid_arg "Buffer_cache.create: block_bytes must be positive";
  {
    capacity;
    block_bytes;
    table = Hashtbl.create (2 * capacity);
    sentinel = make_sentinel ();
  }

let capacity t = t.capacity
let size t = Hashtbl.length t.table

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  let s = t.sentinel in
  e.next <- s.next;
  e.prev <- s;
  s.next.prev <- e;
  s.next <- e

let touch t e =
  unlink e;
  push_front t e

let find t block =
  match Hashtbl.find_opt t.table block with
  | None -> None
  | Some e ->
    touch t e;
    Some (e.bytes, e.pos)

(* The entry's block as a buffer a device write may take. *)
let owned t e =
  if e.pos = 0 && Bytes.length e.bytes = t.block_bytes then e.bytes
  else Bytes.sub e.bytes e.pos t.block_bytes

let insert t block ?(pos = 0) bytes ~dirty =
  if pos < 0 || pos + t.block_bytes > Bytes.length bytes then
    invalid_arg "Buffer_cache.insert: view out of bounds";
  (match Hashtbl.find_opt t.table block with
  | Some e ->
    e.bytes <- bytes;
    e.pos <- pos;
    e.dirty <- e.dirty || dirty;
    touch t e
  | None ->
    let s = t.sentinel in
    let e = { block; bytes; pos; dirty; prev = s; next = s } in
    Hashtbl.add t.table block e;
    push_front t e);
  let rec shrink acc =
    if Hashtbl.length t.table <= t.capacity then List.rev acc
    else begin
      let victim = t.sentinel.prev in
      unlink victim;
      Hashtbl.remove t.table victim.block;
      shrink (if victim.dirty then (victim.block, owned t victim) :: acc else acc)
    end
  in
  shrink []

let mark_clean t block =
  match Hashtbl.find_opt t.table block with
  | Some e -> e.dirty <- false
  | None -> ()

let is_dirty t block =
  match Hashtbl.find_opt t.table block with Some e -> e.dirty | None -> false

let dirty_blocks t =
  Hashtbl.fold (fun block e acc -> if e.dirty then (block, owned t e) :: acc else acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let forget t block =
  match Hashtbl.find_opt t.table block with
  | None -> ()
  | Some e ->
    unlink e;
    Hashtbl.remove t.table block

let drop_clean t =
  let clean =
    Hashtbl.fold (fun block e acc -> if e.dirty then acc else block :: acc) t.table []
  in
  List.iter (forget t) clean

let clear t =
  Hashtbl.reset t.table;
  let s = t.sentinel in
  s.prev <- s;
  s.next <- s
