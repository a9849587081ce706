open Vlog_util
open Vlog

(* The allocation index behind indexed eager writing: word-scanned
   freemap queries checked against naive folds (including the ragged
   9-block tracks of the HP profile and grown defects), and the indexed
   [Eager.search] checked block-for-block against [Eager.Reference] over
   randomized allocator states. *)

let st = Disk.Profile.with_cylinders Disk.Profile.st19101 4
let hp = Disk.Profile.with_cylinders Disk.Profile.hp97560 6

let freemap_of profile =
  Freemap.create ~geometry:profile.Disk.Profile.geometry ~sectors_per_block:8

(* ---- Freemap positional queries vs naive folds ---- *)

let naive_first_free fm ~track ~slot =
  let per = Freemap.blocks_per_track fm in
  let base = track * per in
  let rec go s =
    if s >= per then None
    else if Freemap.is_free fm (base + s) then Some (base + s)
    else go (s + 1)
  in
  go slot

let naive_nearest fm ~track ~slot =
  match naive_first_free fm ~track ~slot with
  | Some b -> Some b
  | None -> (
    match naive_first_free fm ~track ~slot:0 with
    | Some b when b - (track * Freemap.blocks_per_track fm) < slot -> Some b
    | _ -> None)

let check_queries_agree fm =
  let opt = Alcotest.(option int) in
  for track = 0 to Freemap.n_tracks fm - 1 do
    for slot = 0 to Freemap.blocks_per_track fm - 1 do
      Alcotest.check opt "first_free_at_or_after"
        (naive_first_free fm ~track ~slot)
        (Freemap.first_free_at_or_after fm ~track ~slot);
      Alcotest.(check int) "nearest_free_in_track"
        (Option.value ~default:(-1) (naive_nearest fm ~track ~slot))
        (Freemap.nearest_free_in_track fm ~track ~slot)
    done;
    (* [first_free_at_or_after] also accepts slot = blocks_per_track. *)
    Alcotest.check opt "slot at end" None
      (Freemap.first_free_at_or_after fm ~track
         ~slot:(Freemap.blocks_per_track fm))
  done;
  Alcotest.(check bool) "index consistent" true (Freemap.index_consistent fm)

let test_queries_track_edges profile () =
  let fm = freemap_of profile in
  let per = Freemap.blocks_per_track fm in
  (* Track 0 full except the last slot; track 1 full except slot 0;
     track 2 completely full; track 3 untouched — word-scan edge cases
     on both word-aligned (ST, 32/track) and ragged (HP, 9/track)
     geometries. *)
  for s = 0 to per - 2 do
    Freemap.occupy fm s
  done;
  for s = 1 to per - 1 do
    Freemap.occupy fm (per + s)
  done;
  for s = 0 to per - 1 do
    Freemap.occupy fm ((2 * per) + s)
  done;
  check_queries_agree fm

let test_queries_random profile () =
  let fm = freemap_of profile in
  let prng = Prng.create ~seed:0xA110CL in
  for _ = 1 to 4 do
    (* Occupy a random batch, retire a few as grown defects, release a
       few — the index must track all three transitions. *)
    for _ = 1 to Freemap.n_blocks fm / 3 do
      let b = Prng.int prng (Freemap.n_blocks fm) in
      if Freemap.is_free fm b then Freemap.occupy fm b
    done;
    for _ = 1 to 5 do
      let b = Prng.int prng (Freemap.n_blocks fm) in
      if Freemap.is_free fm b then Freemap.mark_bad fm b
    done;
    for _ = 1 to Freemap.n_blocks fm / 6 do
      let b = Prng.int prng (Freemap.n_blocks fm) in
      if (not (Freemap.is_free fm b)) && not (Freemap.is_bad fm b) then
        Freemap.release fm b
    done;
    check_queries_agree fm
  done

let test_bad_blocks_never_returned () =
  let fm = freemap_of st in
  let per = Freemap.blocks_per_track fm in
  for s = 0 to per - 1 do
    if s mod 2 = 0 then Freemap.mark_bad fm s
  done;
  for slot = 0 to per - 1 do
    let b = Freemap.nearest_free_in_track fm ~track:0 ~slot in
    if b < 0 then Alcotest.fail "odd slots are free";
    Alcotest.(check bool) "not bad" false (Freemap.is_bad fm b)
  done;
  (* A grown defect is permanent: not free, and release refuses. *)
  Alcotest.(check bool) "bad not free" false (Freemap.is_free fm 0);
  Alcotest.check_raises "release of defect rejected"
    (Invalid_argument "Freemap.release: block is a grown defect") (fun () ->
      Freemap.release fm 0);
  Alcotest.(check bool) "index consistent" true (Freemap.index_consistent fm)

(* ---- Indexed search vs reference oracle ---- *)

let drive_and_compare profile mode ~utilization ~seed =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile ~clock () in
  let fm = Freemap.create ~geometry:(Disk.Disk_sim.geometry disk) ~sectors_per_block:8 in
  let prng = Prng.create ~seed in
  Freemap.random_occupy fm prng ~utilization;
  for _ = 1 to 8 do
    let b = Prng.int prng (Freemap.n_blocks fm) in
    if Freemap.is_free fm b then Freemap.mark_bad fm b
  done;
  let eager = Eager.create ~mode ~disk ~freemap:fm () in
  let payload =
    Bytes.make (8 * (Disk.Disk_sim.geometry disk).Disk.Geometry.sector_bytes) 'w'
  in
  let opt = Alcotest.(option int) in
  let no_mask _ = false in
  let stripe_mask tr = tr mod 3 = 0 in
  for _ = 1 to 40 do
    List.iter
      (fun (exclude_tracks, lead_time) ->
        let before = Clock.now clock in
        let indexed = Eager.search eager ~exclude_tracks ~lead_time in
        let reference = Eager.Reference.search eager ~exclude_tracks ~lead_time in
        Alcotest.check opt "search = reference" reference indexed;
        Alcotest.(check (float 0.)) "search moved the clock" before (Clock.now clock))
      [ (no_mask, 0.); (no_mask, 0.13); (stripe_mask, 0.); (stripe_mask, 0.47) ];
    (* Per-track bests must agree exactly too: same cost, same block. *)
    let track = Prng.int prng (Freemap.n_tracks fm) in
    (match
       ( Eager.best_in_track eager ~lead_time:0.21 track,
         Eager.Reference.best_in_track eager ~lead_time:0.21 track )
     with
    | None, None -> ()
    | Some (c1, b1), Some (c2, b2) ->
      Alcotest.(check int) "best block" b2 b1;
      Alcotest.(check (float 0.)) "best cost" c2 c1
    | _ -> Alcotest.fail "best_in_track disagrees on presence");
    (* Evolve the state: take the allocation, write it (moves the head,
       advances the clock), sometimes release a random occupied block. *)
    (match Eager.search eager ~exclude_tracks:no_mask ~lead_time:0. with
    | None -> ()
    | Some b ->
      Freemap.occupy fm b;
      ignore
        (Disk.Disk_sim.write ~scsi:false disk ~lba:(Freemap.lba_of_block fm b)
           payload));
    if Prng.int prng 2 = 0 then begin
      let b = Prng.int prng (Freemap.n_blocks fm) in
      if (not (Freemap.is_free fm b)) && not (Freemap.is_bad fm b) then
        Freemap.release fm b
    end
  done

let test_search_equivalence profile mode utilization seed () =
  drive_and_compare profile mode ~utilization ~seed

(* ---- The rotational frame: edge positions, bit for bit ---- *)

(* The drive's rotational formula as it was written before the eager
   search computed its own frame: both reductions by [fmod].  The frame
   arithmetic in [Disk_sim] and [Eager] drops the second [fmod] of the
   position and the one of the delay, which is exact only because their
   operands stay in (-n, n) — or, for the delay, because the one
   operand outside it ([-n]) is handled as [fmod] handled it.  These
   copies pin that, down to the sign of a zero. *)
let fmod_position profile ~track_index ~at =
  let n = profile.Disk.Profile.geometry.Disk.Geometry.sectors_per_track in
  let phase = Float.rem (at /. Disk.Profile.sector_ms profile) (float_of_int n) in
  let skewed = phase -. float_of_int (profile.Disk.Profile.track_skew * track_index mod n) in
  let pos = Float.rem skewed (float_of_int n) in
  if pos < 0. then pos +. float_of_int n else pos

let fmod_delay profile ~pos ~sector =
  let n = float_of_int profile.Disk.Profile.geometry.Disk.Geometry.sectors_per_track in
  let dist = Float.rem (float_of_int sector -. pos) n in
  let dist = if dist < 0. then dist +. n else dist in
  dist *. Disk.Profile.sector_ms profile

let check_bits what expected got =
  if Int64.bits_of_float expected <> Int64.bits_of_float got then
    Alcotest.failf "%s: expected %h, got %h" what expected got

let move_to eager disk track =
  let fm = Eager.freemap eager in
  Disk.Disk_sim.move_cost disk ~cyl:(Freemap.cylinder_of_track fm track)
    ~track:(Freemap.track_in_cylinder fm track)

(* A lead time that brings the head over [track] (after its move from
   the current head position) when the skewed position rounds up to
   exactly [n]: the arrival phase a few ulps below the track's skew
   term.  Only arrivals within the first revolution keep the phase's
   ulps fine enough for that, so the search steps down from the skew
   term's own time. *)
let lead_at_position_n eager disk profile track =
  let n = profile.Disk.Profile.geometry.Disk.Geometry.sectors_per_track in
  let now = Clock.now (Disk.Disk_sim.clock disk) in
  let move = move_to eager disk track in
  let at0 = float_of_int (profile.Disk.Profile.track_skew * track mod n)
            *. Disk.Profile.sector_ms profile in
  let rec go lead i =
    if i > 64 || lead < 0. then None
    else if fmod_position profile ~track_index:track ~at:(now +. lead +. move)
            = float_of_int n
    then Some lead
    else go (Float.pred lead) (i + 1)
  in
  go (at0 -. now -. move) 0

(* The frame formulas against their [fmod] forms on the four profiles
   the tests use: random times, times at and just past whole sectors,
   and, for each of the first 64 tracks, the 16 times just below its
   skew term's time in the first revolution, where the position can
   round to exactly [n] (at least one must). *)
let test_frame_formulas () =
  let prng = Prng.create ~seed:0xF4A3EL in
  List.iter
    (fun profile ->
      let clock = Clock.create () in
      let disk = Disk.Disk_sim.create ~profile ~clock () in
      let g = profile.Disk.Profile.geometry in
      let n = g.Disk.Geometry.sectors_per_track in
      let tracks = Disk.Geometry.total_tracks g in
      let st = Disk.Profile.sector_ms profile in
      let edges = ref 0 in
      let check ~track_index ~at =
        let pos = Disk.Disk_sim.sector_position_at disk ~track_index ~at in
        check_bits "position" (fmod_position profile ~track_index ~at) pos;
        if pos = float_of_int n then incr edges;
        List.iter
          (fun sector ->
            check_bits "delay" (fmod_delay profile ~pos ~sector)
              (Disk.Disk_sim.rotational_delay_to disk ~track_index ~sector ~at))
          [ 0; 1; n / 2; n - 1; Prng.int prng n ]
      in
      for _ = 1 to 2000 do
        check ~track_index:(Prng.int prng tracks) ~at:(Prng.float prng 1e6)
      done;
      for k = 0 to 3 * n do
        let at = float_of_int k *. st in
        let track_index = Prng.int prng tracks in
        check ~track_index ~at;
        check ~track_index ~at:(Float.succ at);
        check ~track_index ~at:(at +. (float_of_int (Prng.int prng 1000) *. st *. float_of_int n))
      done;
      for track_index = 0 to min tracks 64 - 1 do
        let at = ref (float_of_int (profile.Disk.Profile.track_skew * track_index mod n) *. st) in
        for _ = 1 to 16 do
          at := Float.pred !at;
          if !at >= 0. then check ~track_index ~at:!at
        done
      done;
      if !edges = 0 then Alcotest.failf "%s: no arrival at position n" profile.Disk.Profile.name)
    [ st; hp; Disk.Profile.st19101; Disk.Profile.hp97560 ]

let check_tracks eager ~lead_time =
  for track = 0 to Freemap.n_tracks (Eager.freemap eager) - 1 do
    match
      ( Eager.best_in_track eager ~lead_time track,
        Eager.Reference.best_in_track eager ~lead_time track )
    with
    | None, None -> ()
    | Some (c1, b1), Some (c2, b2) ->
      Alcotest.(check int) "best block" b2 b1;
      Alcotest.(check (float 0.)) "best cost" c2 c1
    | _ -> Alcotest.fail "best_in_track disagrees on presence"
  done

let check_search eager ~lead_time =
  let no_mask _ = false in
  Alcotest.(check (option int)) "search = reference"
    (Eager.Reference.search eager ~exclude_tracks:no_mask ~lead_time)
    (Eager.search eager ~exclude_tracks:no_mask ~lead_time)

(* The frame's edge cases through the whole search: the head resting on
   a nonzero surface, lead times whose arrival is a whole number of
   sector times, and arrivals whose skewed position rounds to exactly
   [n] (slot 0 of such a track freed, so its delay is the -0 case).
   Blocks and costs must equal the reference's exactly. *)
let test_frame_edges profile mode ~utilization ~seed () =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile ~clock () in
  let fm = Freemap.create ~geometry:(Disk.Disk_sim.geometry disk) ~sectors_per_block:8 in
  let prng = Prng.create ~seed in
  Freemap.random_occupy fm prng ~utilization;
  for _ = 1 to 8 do
    let b = Prng.int prng (Freemap.n_blocks fm) in
    if Freemap.is_free fm b then Freemap.mark_bad fm b
  done;
  let eager = Eager.create ~mode ~disk ~freemap:fm () in
  let g = Disk.Disk_sim.geometry disk in
  let sb = g.Disk.Geometry.sector_bytes in
  let spt = g.Disk.Geometry.sectors_per_track in
  let st = Disk.Profile.sector_ms profile in
  (* The frame's arithmetic needs a non-negative arrival. *)
  Alcotest.check_raises "arrival before time zero"
    (Invalid_argument "Eager: arrival before time zero") (fun () ->
      ignore (Eager.search eager ~exclude_tracks:(fun _ -> false) ~lead_time:(-0.5)));
  (* Park the head on surface 1 with one sector written: the clock stays
     inside the first revolution, where position-n arrivals exist. *)
  ignore (Disk.Disk_sim.write ~scsi:false disk ~lba:((2 * spt) - 1) (Bytes.make sb 'p'));
  Alcotest.(check int) "head on surface 1" 1 (Disk.Disk_sim.current_track disk);
  let edges = ref 0 in
  for track = 0 to min (Freemap.n_tracks fm) (2 * g.Disk.Geometry.tracks_per_cylinder) - 1 do
    match lead_at_position_n eager disk profile track with
    | None -> ()
    | Some lead_time ->
      incr edges;
      let slot0 = track * Freemap.blocks_per_track fm in
      if (not (Freemap.is_free fm slot0)) && not (Freemap.is_bad fm slot0) then
        Freemap.release fm slot0;
      (match Eager.best_in_track eager ~lead_time track with
      | Some (cost, block) when Freemap.is_free fm slot0 ->
        Alcotest.(check int) "slot 0 wins at position n" slot0 block;
        check_bits "cost at position n is the move" (move_to eager disk track) cost
      | _ -> ());
      check_tracks eager ~lead_time;
      check_search eager ~lead_time
  done;
  if !edges = 0 then Alcotest.fail "no arrival at position n";
  for round = 1 to 6 do
    let now = Clock.now clock in
    let exact m =
      let lead = (float_of_int m *. st) -. now in
      if now +. lead = float_of_int m *. st then [ lead ] else []
    in
    let m0 = int_of_float (Float.ceil (now /. st)) + 1 in
    let leads =
      [ 0.; profile.Disk.Profile.scsi_overhead_ms ]
      @ exact m0 @ exact (m0 + 7) @ exact (m0 + spt) @ exact (m0 + (3 * spt) + 1)
    in
    if List.length leads < 4 then Alcotest.failf "round %d: too few exact arrivals" round;
    List.iter
      (fun lead_time ->
        check_tracks eager ~lead_time;
        check_search eager ~lead_time)
      leads;
    (* Take an allocation off surface 0 and write it, so the head and
       the clock move and the head stays on a nonzero surface. *)
    let on_surface_0 tr = tr mod g.Disk.Geometry.tracks_per_cylinder = 0 in
    match Eager.search eager ~exclude_tracks:on_surface_0 ~lead_time:0. with
    | None -> ()
    | Some b ->
      Freemap.occupy fm b;
      ignore
        (Disk.Disk_sim.write ~scsi:false disk ~lba:(Freemap.lba_of_block fm b)
           (Bytes.make (8 * sb) 'w'));
      if Disk.Disk_sim.current_track disk = 0 then Alcotest.fail "head back on surface 0"
  done

(* ---- Allocation budget of one search ---- *)

(* Minor words one [Eager.search] allocates, averaged over 200 searches
   on an 80 %-full ST19101 whose state moves between them: each search's
   block is taken and written (head and clock move), and a random block
   is released.  Only the search itself is measured.  The budget is
   half of the 642 words the search allocated when it boxed floats per
   track (the position, both delays, the candidate's cost) and wrapped
   each candidate in an option; the frame-based search allocates 42, all
   of them once per search. *)
let search_words_budget = 320.

let test_search_allocation () =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile:Disk.Profile.st19101 ~clock () in
  let fm = Freemap.create ~geometry:(Disk.Disk_sim.geometry disk) ~sectors_per_block:8 in
  let prng = Prng.create ~seed:0xB0D6E7L in
  Freemap.random_occupy fm prng ~utilization:0.8;
  let eager = Eager.create ~disk ~freemap:fm () in
  let payload = Bytes.make 4096 'a' in
  let no_mask _ = false in
  let searches = 200 in
  let words = ref 0. in
  Gc.minor ();
  for _ = 1 to searches do
    let before = Gc.minor_words () in
    let chosen = Eager.search eager ~exclude_tracks:no_mask ~lead_time:0.1 in
    words := !words +. (Gc.minor_words () -. before);
    (match chosen with
    | None -> Alcotest.fail "an 80%-full disk has free blocks"
    | Some b ->
      Freemap.occupy fm b;
      ignore (Disk.Disk_sim.write ~scsi:true disk ~lba:(Freemap.lba_of_block fm b) payload));
    let rec release () =
      let b = Prng.int prng (Freemap.n_blocks fm) in
      if Freemap.is_free fm b then release () else Freemap.release fm b
    in
    release ()
  done;
  let per_search = !words /. float_of_int searches in
  if per_search > search_words_budget then
    Alcotest.failf "search allocates %.1f minor words, budget %.0f" per_search
      search_words_budget

(* ---- Pre-encoded entry images ---- *)

let image_of entries ~pos ~len =
  let img = Bytes.create (len * 4) in
  for i = 0 to len - 1 do
    Bytes.set_int32_le img (i * 4) (Int32.of_int (entries.(pos + i) + 1))
  done;
  img

let test_image_encode_equivalence () =
  let prng = Prng.create ~seed:0x1111L in
  let block_bytes = 4096 in
  for trial = 1 to 50 do
    let n_ptrs = Prng.int prng (Map_codec.max_ptrs + 1) in
    let ptrs =
      List.init n_ptrs (fun i ->
          { Map_codec.pba = Prng.int prng 100_000; seq = Int64.of_int (trial * 100 + i) })
    in
    let max_len = (block_bytes - 36 - (n_ptrs * 12) - 8) / 4 in
    let len = match trial mod 3 with 0 -> 0 | 1 -> max_len | _ -> Prng.int prng max_len in
    let pos = Prng.int prng 8 in
    let entries =
      Array.init (pos + len) (fun _ -> Prng.int prng 1_000_000 - 1)
    in
    let node =
      {
        Map_codec.seq = Int64.of_int trial;
        piece = trial mod 16;
        kind = (if trial mod 2 = 0 then Map_codec.Node else Map_codec.Checkpoint);
        txn_id = Int64.of_int (trial * 7);
        txn_commit = trial mod 2 = 1;
        ptrs;
        entries = [||];
      }
    in
    let via_slice = Bytes.create block_bytes in
    Map_codec.encode_node_slice_into via_slice node ~entries ~pos ~len;
    let via_image = Bytes.create block_bytes in
    Map_codec.encode_node_image_into via_image node ~image:(image_of entries ~pos ~len);
    Alcotest.(check bool) "image encode = slice encode" true
      (Bytes.equal via_slice via_image);
    (* And both must round-trip. *)
    match Map_codec.decode_node via_image with
    | None -> Alcotest.fail "image-encoded node does not decode"
    | Some back ->
      Alcotest.(check int) "entries survive" len (Array.length back.Map_codec.entries);
      Array.iteri
        (fun i v -> Alcotest.(check int) "entry" entries.(pos + i) v)
        back.Map_codec.entries
  done

(* ---- mark_bad property: model bitset + oracle equivalence ---- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make
      ~name:"mark_bad keeps the index consistent and the search oracle exact"
      ~count:40
      (list_of_size Gen.(5 -- 120) (pair (int_range 0 2) small_nat))
      (fun ops ->
        let clock = Clock.create () in
        let disk = Disk.Disk_sim.create ~profile:st ~clock () in
        let fm =
          Freemap.create ~geometry:(Disk.Disk_sim.geometry disk)
            ~sectors_per_block:8
        in
        let n = Freemap.n_blocks fm in
        (* Shadow model: plain arrays, no index to get wrong. *)
        let free = Array.make n true and bad = Array.make n false in
        List.iter
          (fun (op, b) ->
            let b = b mod n in
            match op with
            | 0 ->
              if free.(b) then begin
                Freemap.occupy fm b;
                free.(b) <- false
              end
            | 1 ->
              if (not free.(b)) && not bad.(b) then begin
                Freemap.release fm b;
                free.(b) <- true
              end
            | _ ->
              if free.(b) then begin
                Freemap.mark_bad fm b;
                free.(b) <- false;
                bad.(b) <- true
              end)
          ops;
        let model_agrees = ref (Freemap.index_consistent fm) in
        for b = 0 to n - 1 do
          if Freemap.is_free fm b <> free.(b) || Freemap.is_bad fm b <> bad.(b)
          then model_agrees := false
        done;
        (* Retired blocks must be invisible to the allocator, and the
           indexed search must still equal the reference fold exactly. *)
        let eager = Eager.create ~mode:Eager.Nearest ~disk ~freemap:fm () in
        let no_mask _ = false in
        let search_agrees =
          Eager.search eager ~exclude_tracks:no_mask ~lead_time:0.
          = Eager.Reference.search eager ~exclude_tracks:no_mask ~lead_time:0.
        in
        let bests_agree = ref true in
        for track = 0 to Freemap.n_tracks fm - 1 do
          if
            Eager.best_in_track eager ~lead_time:0.21 track
            <> Eager.Reference.best_in_track eager ~lead_time:0.21 track
          then bests_agree := false
        done;
        !model_agrees && search_agrees && !bests_agree);
  ]

let suites =
  let tc = Alcotest.test_case in
  [
    ( "alloc-index",
      [
        tc "queries: track edges (ST19101)" `Quick (test_queries_track_edges st);
        tc "queries: track edges (HP97560)" `Quick (test_queries_track_edges hp);
        tc "queries: randomized (ST19101)" `Quick (test_queries_random st);
        tc "queries: randomized (HP97560)" `Quick (test_queries_random hp);
        tc "queries: grown defects excluded" `Quick test_bad_blocks_never_returned;
        tc "image encode = slice encode" `Quick test_image_encode_equivalence;
        tc "search allocation budget" `Quick test_search_allocation;
      ] );
    ( "alloc-equivalence",
      [
        tc "ST19101 nearest 75%" `Quick
          (test_search_equivalence st Eager.Nearest 0.75 0x51L);
        tc "ST19101 sweep 75%" `Quick
          (test_search_equivalence st Eager.Sweep 0.75 0x52L);
        tc "ST19101 nearest 95%" `Quick
          (test_search_equivalence st Eager.Nearest 0.95 0x53L);
        tc "ST19101 sweep 95%" `Quick
          (test_search_equivalence st Eager.Sweep 0.95 0x54L);
        tc "ST19101 sweep 99.9%" `Quick
          (test_search_equivalence st Eager.Sweep 0.999 0x55L);
        tc "HP97560 nearest 90%" `Quick
          (test_search_equivalence hp Eager.Nearest 0.9 0x56L);
        tc "HP97560 sweep 90%" `Quick
          (test_search_equivalence hp Eager.Sweep 0.9 0x57L);
        tc "HP97560 sweep 30%" `Quick
          (test_search_equivalence hp Eager.Sweep 0.3 0x58L);
        tc "frame formulas equal their fmod forms" `Quick test_frame_formulas;
        tc "array-leg slice nearest 85%, frame edges" `Quick
          (test_frame_edges st Eager.Nearest ~utilization:0.85 ~seed:0x59L);
        tc "array-leg slice sweep 85%, frame edges" `Quick
          (test_frame_edges st Eager.Sweep ~utilization:0.85 ~seed:0x5AL);
        tc "array-leg slice sweep 97%, frame edges" `Quick
          (test_frame_edges st Eager.Sweep ~utilization:0.97 ~seed:0x5BL);
        tc "HP97560 nearest 90%, frame edges" `Quick
          (test_frame_edges hp Eager.Nearest ~utilization:0.9 ~seed:0x5CL);
      ] );
    ("alloc-index:properties", List.map Qcheck_seed.to_alcotest qcheck_tests);
  ]
