open Vlog_util

type mode = Nearest | Sweep

type t = {
  disk : Disk.Disk_sim.t;
  freemap : Freemap.t;
  mode : mode;
  switch_free_fraction : float;
  seek : Float.Array.t;  (* seek time by cylinder distance *)
  mutable empty_tracks : int list;
  mutable active_track : int option;
  mutable exclusion : (int -> bool) option;
  mutable soft_exclusion : (int -> bool) option;
}

let create ?(mode = Sweep) ?(switch_free_fraction = 0.25) ~disk ~freemap () =
  if switch_free_fraction < 0. || switch_free_fraction >= 1. then
    invalid_arg "Eager.create: switch_free_fraction must be in [0,1)";
  let profile = Disk.Disk_sim.profile disk in
  {
    disk;
    freemap;
    mode;
    switch_free_fraction;
    seek =
      Float.Array.init profile.Disk.Profile.geometry.Disk.Geometry.cylinders
        (Disk.Profile.seek_ms profile);
    empty_tracks = [];
    active_track = None;
    exclusion = None;
    soft_exclusion = None;
  }

let mode t = t.mode
let freemap t = t.freemap

let no_exclusion _ = false

let surface t track = Freemap.track_in_cylinder t.freemap track
let cylinder t track = Freemap.cylinder_of_track t.freemap track

let track_move_cost t track =
  Disk.Disk_sim.move_cost t.disk ~cyl:(cylinder t track) ~track:(surface t track)

(* The rotational frame of one search, read from the drive once: the
   per-track evaluator below needs nothing else, so the hot loop makes
   no cross-module float call.  It is [Disk_sim.sector_position_at] and
   [Disk_sim.rotational_delay_from] taken apart: the phase
   [(arrival / sector_ms) mod n] depends only on the arrival time, which
   is the same for every track of a cylinder reached with the same move,
   so the caller computes it once per cylinder and move class; a track
   adds only its skew.  The formula exists twice, here and in
   [Disk_sim]; the alloc-equivalence tests pin the two equal bit for
   bit. *)
type frame = {
  spt : int;  (* sectors per track *)
  skew : int;  (* track skew, sectors *)
  spb : int;  (* sectors per block *)
  bpt : int;  (* blocks per track *)
  n : float;  (* [spt] as a float *)
  spbf : float;  (* [spb] as a float *)
  sector_ms : float;
  start : float;  (* now + lead time: the arrival before any move *)
}

(* The best cost so far.  An all-float record is stored flat, so
   recording a better candidate allocates nothing. *)
type best = { mutable cost : float }

let frame t ~lead_time =
  let profile = Disk.Disk_sim.profile t.disk in
  let spt = profile.Disk.Profile.geometry.Disk.Geometry.sectors_per_track in
  let spb = Freemap.sectors_per_block t.freemap in
  let start = Clock.now (Disk.Disk_sim.clock t.disk) +. lead_time in
  (* Simulated time never runs below zero; the per-track arithmetic
     relies on it (the phase is then in [0, n)). *)
  if not (start >= 0.) then invalid_arg "Eager: arrival before time zero";
  {
    spt;
    skew = profile.Disk.Profile.track_skew;
    spb;
    bpt = Freemap.blocks_per_track t.freemap;
    n = float_of_int spt;
    spbf = float_of_int spb;
    sector_ms = Disk.Profile.sector_ms profile;
    start;
  }

(* Rotational phase, in sectors, of a head that arrives [move] after the
   frame's start. *)
let[@inline] phase fr ~move = Float.rem ((fr.start +. move) /. fr.sector_ms) fr.n

(* Milliseconds until [sector] reaches a head at rotational position
   [pos] in [0, n].  [sector - pos] lies in [-n, n): inside (-n, n) the
   cyclic distance is one conditional [+ n]; [-n] occurs only for sector
   0 when [pos] is exactly [n] (a skewed phase just below zero, rounded
   up by the [+ n]), and there it is -0, what [fmod (-n) n] gives. *)
let[@inline] delay fr ~pos sector =
  let d = float_of_int sector -. pos in
  let d = if d >= 0. then d else if d > -.fr.n then d +. fr.n else -0. in
  d *. fr.sector_ms

(* The one per-track evaluator, shared by [greedy] and [best_in_track].
   The track's rotational position is computed once from the arrival
   [phase] (its [fmod] over whole revolutions already taken); the
   winning block is the cyclically next free slot from the freemap's
   allocation index — no fold over occupied blocks.  The rotational
   lower bound (delay to the next block boundary, free or not) prunes
   the index lookup once [move] plus it reaches [best.cost].  Returns
   the block and lowers [best.cost] when the track beats it; -1
   otherwise. *)
let[@inline] offer t fr best ~phase ~move track =
  if Freemap.free_in_track t.freemap track = 0 then -1
  else begin
    (* [phase] is in [0, n) and the skew term in [0, n), so the skewed
       position is in (-n, n) and one conditional [+ n] is its [fmod]. *)
    let skewed = phase -. float_of_int (fr.skew * track mod fr.spt) in
    let pos = if skewed < 0. then skewed +. fr.n else skewed in
    (* The smallest slot k with k * spb >= pos — the first block
       boundary at or after the head — wrapping to slot 0 past the last
       one.  The float ceiling is corrected with exact comparisons so
       the slot never disagrees with the per-block float costs. *)
    let k = ref (int_of_float (Float.ceil (pos /. fr.spbf))) in
    while !k > 0 && float_of_int (!k - 1) *. fr.spbf >= pos do decr k done;
    while float_of_int !k *. fr.spbf < pos do incr k done;
    let slot = if !k >= fr.bpt then 0 else !k in
    if move +. delay fr ~pos (slot * fr.spb) >= best.cost then -1
    else begin
      let block = Freemap.nearest_free_in_track t.freemap ~track ~slot in
      if block < 0 then -1
      else begin
        let cost = move +. delay fr ~pos ((block - (track * fr.bpt)) * fr.spb) in
        if cost < best.cost then begin
          best.cost <- cost;
          block
        end
        else -1
      end
    end
  end

(* Cheapest (move + rotation) free block of one track.  [lead_time]
   models delay (e.g. SCSI processing) before the mechanical access can
   start. *)
let best_in_track t ~lead_time track =
  let fr = frame t ~lead_time in
  let best = { cost = infinity } in
  let move = track_move_cost t track in
  let block = offer t fr best ~phase:(phase fr ~move) ~move track in
  if block < 0 then None else Some (best.cost, block)

let locate_cost t block =
  let track = Freemap.track_of_block t.freemap block in
  let move = track_move_cost t track in
  let arrival = Clock.now (Disk.Disk_sim.clock t.disk) +. move in
  let sector = Freemap.start_sector_of_block t.freemap block in
  move +. Disk.Disk_sim.rotational_delay_to t.disk ~track_index:track ~sector ~at:arrival

(* Greedy nearest-free-block search over cylinders in the mode's order,
   generated incrementally (no per-allocation list of all cylinders).
   Pruning, all of it sound with respect to the reference search below:
   fully-occupied cylinders are skipped via the per-cylinder free counts;
   a cylinder whose bare seek already reaches the best cost is skipped
   (and in [Nearest] order, where remaining distances only grow, the
   whole search stops there); a track whose move cost — seek and head
   switch, hoisted per cylinder so every track of it is costed against
   the same arrival basis — reaches the best cost is skipped; and the
   rotational lower bound inside [offer] prunes the rest.  Seek times
   come from the per-distance table built at [create].  Ties keep the
   earliest candidate in search order, exactly like the reference
   fold. *)
let greedy t ~exclude_tracks ~lead_time =
  let fr = frame t ~lead_time in
  let g = Freemap.geometry t.freemap in
  let cylinders = g.Disk.Geometry.cylinders in
  let tpc = g.Disk.Geometry.tracks_per_cylinder in
  let cur = Disk.Disk_sim.current_cylinder t.disk in
  let cur_surface = Disk.Disk_sim.current_track t.disk in
  let hs = (Disk.Disk_sim.profile t.disk).Disk.Profile.head_switch_ms in
  let seek_ms d = Float.Array.get t.seek d in
  let best = { cost = infinity } in
  let best_block = ref (-1) in
  let eval_cylinder c =
    if Freemap.free_in_cylinder t.freemap c > 0 then begin
      let seek = seek_ms (abs (c - cur)) in
      if seek < best.cost then begin
        (* The two move costs any track of this cylinder can have, and
           the arrival phase of each, computed once: staying on the
           current surface, or paying the head switch.  A seek is never
           negative, so [max seek 0.] is [seek]. *)
        let move_same = if c <> cur then seek else 0. in
        let move_switch = if c <> cur && seek >= hs then seek else hs in
        let phase_same = phase fr ~move:move_same in
        let phase_switch = phase fr ~move:move_switch in
        let base = c * tpc in
        for s = 0 to tpc - 1 do
          let track = base + s in
          if not (exclude_tracks track) then begin
            let same = s = cur_surface in
            let move = if same then move_same else move_switch in
            if move < best.cost then begin
              let phase = if same then phase_same else phase_switch in
              let block = offer t fr best ~phase ~move track in
              if block >= 0 then best_block := block
            end
          end
        done
      end
    end
  in
  (match t.mode with
  | Nearest ->
    (* Current cylinder, then +/-1, +/-2, ...; distances of remaining
       candidates only grow, so the search stops outright once the bare
       seek at distance [d] cannot beat the best. *)
    let d = ref 0 in
    let stop = ref false in
    while (not !stop) && !d < cylinders do
      if !best_block >= 0 && seek_ms !d >= best.cost then stop := true
      else begin
        if cur + !d < cylinders then eval_cylinder (cur + !d);
        if !d > 0 && cur - !d >= 0 then eval_cylinder (cur - !d);
        incr d
      end
    done
  | Sweep ->
    (* One-direction sweep with wrap.  After the wrap the candidates
       approach [cur] from below, ending at distance 1, so (unless the
       head is at cylinder 0 and distances are monotone) the minimum
       distance still ahead is 1 from the second step on. *)
    let d = ref 0 in
    let stop = ref false in
    while (not !stop) && !d < cylinders do
      let min_rem_dist = if cur = 0 then !d else if !d = 0 then 0 else 1 in
      if !best_block >= 0 && seek_ms min_rem_dist >= best.cost then stop := true
      else begin
        eval_cylinder ((cur + !d) mod cylinders);
        incr d
      end
    done);
  if !best_block < 0 then None else Some !best_block

(* The original O(cylinders * tracks * blocks) search, kept as the
   equivalence oracle: property tests assert the indexed search above
   picks the identical block (same cost floats, same tie-breaks) on
   arbitrary freemap states.  Not used on any hot path. *)
module Reference = struct
  let best_in_track t ~lead_time track =
    if Freemap.free_in_track t.freemap track = 0 then None
    else begin
      let move = track_move_cost t track in
      let arrival = Clock.now (Disk.Disk_sim.clock t.disk) +. lead_time +. move in
      let consider best block =
        let sector = Freemap.start_sector_of_block t.freemap block in
        let rot =
          Disk.Disk_sim.rotational_delay_to t.disk ~track_index:track ~sector ~at:arrival
        in
        let cost = move +. rot in
        match best with
        | Some (c, _) when c <= cost -> best
        | _ -> Some (cost, block)
      in
      Freemap.fold_free_in_track t.freemap ~track ~init:None ~f:consider
    end

  let greedy t ~exclude_tracks ~lead_time =
    let g = Freemap.geometry t.freemap in
    let cylinders = g.Disk.Geometry.cylinders in
    let tpc = g.Disk.Geometry.tracks_per_cylinder in
    let cur = Disk.Disk_sim.current_cylinder t.disk in
    let profile = Disk.Disk_sim.profile t.disk in
    let best = ref None in
    let eval_cylinder c =
      let lower_bound = Disk.Profile.seek_ms profile (abs (c - cur)) in
      let skip = match !best with Some (cost, _) -> lower_bound >= cost | None -> false in
      if not skip then
        for s = 0 to tpc - 1 do
          let track = (c * tpc) + s in
          if not (exclude_tracks track) then
            match best_in_track t ~lead_time track with
            | None -> ()
            | Some (cost, block) -> (
              match !best with
              | Some (c0, _) when c0 <= cost -> ()
              | _ -> best := Some (cost, block))
        done
    in
    let order =
      match t.mode with
      | Nearest ->
        (* current cylinder, then +/-1, +/-2, ... *)
        let rec go d acc =
          if d >= cylinders then List.rev acc
          else
            let acc = if cur + d < cylinders then (cur + d) :: acc else acc in
            let acc = if d > 0 && cur - d >= 0 then (cur - d) :: acc else acc in
            go (d + 1) acc
        in
        go 0 []
      | Sweep -> List.init cylinders (fun d -> (cur + d) mod cylinders)
    in
    List.iter eval_cylinder order;
    Option.map snd !best

  let search = greedy
end

let search = greedy

let still_empty t track =
  Freemap.free_in_track t.freemap track = Freemap.blocks_per_track t.freemap

let free_fraction t track =
  float_of_int (Freemap.free_in_track t.freemap track)
  /. float_of_int (Freemap.blocks_per_track t.freemap)

(* Pop the nearest usable empty track off the list.  Move costs are
   computed once per candidate, not once per comparison. *)
let next_empty_track t ~exclude_tracks =
  let usable tr = still_empty t tr && not (exclude_tracks tr) in
  let candidates = List.filter usable t.empty_tracks in
  t.empty_tracks <- candidates;
  match candidates with
  | [] -> None
  | first :: rest ->
    let nearest, _ =
      List.fold_left
        (fun ((_, best_cost) as acc) tr ->
          let cost = track_move_cost t tr in
          if best_cost <= cost then acc else (tr, cost))
        (first, track_move_cost t first)
        rest
    in
    t.empty_tracks <- List.filter (fun x -> x <> nearest) t.empty_tracks;
    Some nearest

let rec from_active_track t ~exclude_tracks ~lead_time =
  match t.active_track with
  | Some tr
    when (not (exclude_tracks tr))
         && free_fraction t tr > t.switch_free_fraction
         && Freemap.free_in_track t.freemap tr > 0 ->
    Option.map snd (best_in_track t ~lead_time tr)
  | Some _ ->
    t.active_track <- None;
    from_active_track t ~exclude_tracks ~lead_time
  | None -> (
    match next_empty_track t ~exclude_tracks with
    | Some tr ->
      t.active_track <- Some tr;
      Option.map snd (best_in_track t ~lead_time tr)
    | None -> None)

let choose ?(exclude_tracks = no_exclusion) ?(greedy_only = false) ?(lead_time = 0.) t =
  let hard =
    match t.exclusion with
    | None -> exclude_tracks
    | Some masked -> fun tr -> masked tr || exclude_tracks tr
  in
  let attempt exclude_tracks =
    if Freemap.free_total t.freemap = 0 then None
    else
      let filled =
        if greedy_only then None else from_active_track t ~exclude_tracks ~lead_time
      in
      match filled with
      | Some _ as r -> r
      | None -> greedy t ~exclude_tracks ~lead_time
  in
  let chosen =
    match t.soft_exclusion with
    | None -> attempt hard
    | Some soft -> (
      (* Prefer honoring the soft mask; fall back to the hard mask alone
         when nothing else is free. *)
      match attempt (fun tr -> hard tr || soft tr) with
      | Some _ as r -> r
      | None -> attempt hard)
  in
  if chosen <> None then Trace.incr (Disk.Disk_sim.trace t.disk) "eager.choices";
  chosen

let active_track t = t.active_track

let with_exclusion t masked f =
  let saved = t.exclusion in
  let combined =
    match saved with None -> masked | Some prev -> fun tr -> prev tr || masked tr
  in
  t.exclusion <- Some combined;
  Fun.protect ~finally:(fun () -> t.exclusion <- saved) f

let with_soft_exclusion t masked f =
  let saved = t.soft_exclusion in
  let combined =
    match saved with None -> masked | Some prev -> fun tr -> prev tr || masked tr
  in
  t.soft_exclusion <- Some combined;
  Fun.protect ~finally:(fun () -> t.soft_exclusion <- saved) f

let note_empty_track t track =
  if still_empty t track && not (List.mem track t.empty_tracks) then
    t.empty_tracks <- t.empty_tracks @ [ track ]

let rescan_empty_tracks t =
  t.active_track <- None;
  t.empty_tracks <- Freemap.empty_tracks t.freemap

let empty_track_count t =
  List.length (List.filter (still_empty t) t.empty_tracks)
