type policy = Forward_discard | Whole_track

type slot = { track_index : int; lo : int; hi : int; mutable age : int }

type t = {
  policy : policy;
  slots : int;
  mutable entries : slot list;
  mutable tick : int;
}

let create ?(slots = 2) policy =
  if slots <= 0 then invalid_arg "Track_buffer.create: slots must be positive";
  { policy; slots; entries = []; tick = 0 }

let policy t = t.policy

(* A direct recursion rather than [List.find_opt] over a closure: this
   runs on every read piece, and allocates nothing. *)
let rec hit_in t entries ~track_index ~sector ~sectors =
  match entries with
  | [] -> false
  | s :: rest ->
    if s.track_index = track_index && sector >= s.lo && sector + sectors <= s.hi then begin
      t.tick <- t.tick + 1;
      s.age <- t.tick;
      true
    end
    else hit_in t rest ~track_index ~sector ~sectors

let hit t ~track_index ~sector ~sectors = hit_in t t.entries ~track_index ~sector ~sectors

let note_read t ~track_index ~sector ~sectors_per_track =
  t.tick <- t.tick + 1;
  let entry =
    match t.policy with
    | Forward_discard -> { track_index; lo = sector; hi = sectors_per_track; age = t.tick }
    | Whole_track -> { track_index; lo = 0; hi = sectors_per_track; age = t.tick }
  in
  let others = List.filter (fun s -> s.track_index <> track_index) t.entries in
  let keep =
    match t.policy with
    | Forward_discard -> [] (* a single range, as in the Dartmouth model *)
    | Whole_track ->
      (* retain up to slots-1 other tracks, youngest first *)
      let sorted = List.sort (fun a b -> compare b.age a.age) others in
      List.filteri (fun i _ -> i < t.slots - 1) sorted
  in
  t.entries <- entry :: keep

let invalidate_track t ~track_index =
  t.entries <- List.filter (fun s -> s.track_index <> track_index) t.entries

let clear t = t.entries <- []
