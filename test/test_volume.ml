(* The multi-disk volume layer: read failover across mirror legs,
   degraded writes with dirty-region tracking, bounded stalls under a
   hung leg, online rebuild onto a hot spare, honest data-loss reporting
   when redundancy is exhausted, and mirrored crash recovery converging
   both legs to one legal state. *)

open Vlog_util
open Check

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 3

let mk_disk clock =
  Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile
    ~clock ()

let logical_blocks = 64

let mk_mirror ?(leg_kind = Volume.Vld_leg) ?spare clock =
  let disks = Array.init 2 (fun _ -> mk_disk clock) in
  let vol =
    Volume.create ?spare ~layout:(Volume.Mirror 2) ~leg_kind ~logical_blocks
      ~disks ~prng:(Prng.create ~seed:41L) ()
  in
  (vol, disks)

let fill dev tag =
  Bytes.make dev.Blockdev.Device.block_bytes tag

let tag_of b = Char.chr (65 + b)

let check_clean what vol =
  let r = Volume_check.check vol in
  if not (Check.Report.ok r) then
    Alcotest.failf "%s: volume check dirty: %s" what
      (Format.asprintf "%a" Check.Report.pp r)

(* Kill one leg outright mid-life: reads must fail over to the survivor,
   writes must keep succeeding (degraded), and settling must resilver
   onto the hot spare and come back fully redundant. *)
let test_death_failover_and_rebuild () =
  let clock = Clock.create () in
  let spare () = mk_disk clock in
  let vol, disks = mk_mirror ~spare clock in
  let dev = Volume.device vol in
  for b = 0 to 9 do
    ignore (Blockdev.Device.write dev b (fill dev (tag_of b)))
  done;
  let plan = Fault.Plan.create Fault.Plan.Drive_death ~trigger:0 ~seed:7L in
  Fault.Plan.install plan disks.(1);
  (* the next write hits the dead leg: the volume degrades, the op
     succeeds *)
  ignore (Blockdev.Device.write dev 10 (fill dev (tag_of 10)));
  (* every read still answers, from the surviving leg *)
  for b = 0 to 10 do
    let data, _ = Blockdev.Device.read dev b in
    Alcotest.(check char)
      (Printf.sprintf "block %d content" b)
      (tag_of b) (Bytes.get data 0)
  done;
  Volume.settle vol;
  (match Volume.state_of vol ~group:0 ~leg:1 with
  | `Healthy -> ()
  | s -> Alcotest.failf "leg 1 not rebuilt: %s" (Volume.state_to_string s));
  Alcotest.(check bool) "spare swapped in" true
    ((Volume.disks vol).(1) != disks.(1));
  Alcotest.(check bool) "volume no longer degraded" false (Volume.degraded vol);
  check_clean "after rebuild" vol;
  for b = 0 to 10 do
    let data, _ = Blockdev.Device.read dev b in
    Alcotest.(check char)
      (Printf.sprintf "post-rebuild block %d" b)
      (tag_of b) (Bytes.get data 0)
  done

(* A hung leg must not stall an operation indefinitely: the write
   completes within a bounded amount of simulated time (retries ride out
   the hang or the leg is skipped and dirtied), and the data stays
   readable. *)
let test_hung_leg_bounded_stall () =
  let clock = Clock.create () in
  let vol, disks = mk_mirror clock in
  let dev = Volume.device vol in
  ignore (Blockdev.Device.write dev 0 (fill dev 'a'));
  let plan =
    Fault.Plan.create (Fault.Plan.Drive_hang 40.) ~trigger:0 ~seed:7L
  in
  Fault.Plan.install plan disks.(1);
  let t0 = Clock.now clock in
  ignore (Blockdev.Device.write dev 1 (fill dev 'b'));
  let stall = Clock.now clock -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "write stalled %.1f ms, wanted < 500" stall)
    true (stall < 500.);
  let data, _ = Blockdev.Device.read dev 1 in
  Alcotest.(check char) "hung-leg write readable" 'b' (Bytes.get data 0);
  Volume.settle vol;
  Alcotest.(check bool) "volume settles healthy" false (Volume.degraded vol);
  check_clean "after hang" vol

(* Writes landing while a leg rebuilds go to the dirty-region log or the
   already-swept region; either way the finished rebuild agrees with the
   surviving leg byte for byte. *)
let test_rebuild_catches_writes () =
  let clock = Clock.create () in
  let spare () = mk_disk clock in
  let vol, _disks = mk_mirror ~spare clock in
  let dev = Volume.device vol in
  for b = 0 to 9 do
    ignore (Blockdev.Device.write dev b (fill dev (tag_of b)))
  done;
  Volume.kill vol ~group:0 ~leg:1;
  (* dead, not yet rebuilding: writes land on the survivor only *)
  ignore (Blockdev.Device.write dev 3 (fill dev '!'));
  (match Volume.start_rebuild vol ~group:0 ~leg:1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "start_rebuild: %s" e);
  (* overlap the rebuild with fresh writes *)
  ignore (Blockdev.Device.write dev 5 (fill dev '?'));
  dev.Blockdev.Device.idle 2.0;
  ignore (Blockdev.Device.write dev 7 (fill dev '*'));
  Volume.rebuild_to_completion vol;
  (match Volume.state_of vol ~group:0 ~leg:1 with
  | `Healthy -> ()
  | s -> Alcotest.failf "leg 1 not healthy: %s" (Volume.state_to_string s));
  check_clean "after overlapped rebuild" vol;
  List.iter
    (fun (b, c) ->
      match Volume.leg_read_raw vol ~group:0 ~leg:1 b with
      | Error _ -> Alcotest.failf "rebuilt leg cannot read block %d" b
      | Ok data ->
        Alcotest.(check char)
          (Printf.sprintf "rebuilt leg block %d" b)
          c (Bytes.get data 0))
    [ (3, '!'); (5, '?'); (7, '*'); (0, tag_of 0) ]

(* Losing every leg of a group is data loss and must surface as an
   error return, never a hang or fabricated bytes. *)
let test_double_death_reports_loss () =
  let clock = Clock.create () in
  let vol, _disks = mk_mirror clock in
  let dev = Volume.device vol in
  ignore (Blockdev.Device.write dev 0 (fill dev 'a'));
  Volume.kill vol ~group:0 ~leg:0;
  Volume.kill vol ~group:0 ~leg:1;
  (match dev.Blockdev.Device.read 0 with
  | Ok _ -> Alcotest.fail "read succeeded with every leg dead"
  | Error e -> Alcotest.(check int) "error names the block" 0 e.Blockdev.Device.block);
  match dev.Blockdev.Device.write 1 (fill dev 'b') with
  | Ok _ -> Alcotest.fail "write succeeded with every leg dead"
  | Error _ -> ()

(* A stripe has no redundancy: one dead leg loses that group's blocks
   (honest errors) while the other group keeps answering. *)
let test_stripe_partial_loss () =
  let clock = Clock.create () in
  let disks = Array.init 2 (fun _ -> mk_disk clock) in
  let vol =
    Volume.create ~layout:(Volume.Stripe 2) ~leg_kind:Volume.Vld_leg
      ~logical_blocks ~disks ~prng:(Prng.create ~seed:42L) ()
  in
  let dev = Volume.device vol in
  (* block b lives on group (b mod 2) *)
  ignore (Blockdev.Device.write dev 0 (fill dev 'e'));
  ignore (Blockdev.Device.write dev 1 (fill dev 'o'));
  Volume.kill vol ~group:1 ~leg:0;
  let data, _ = Blockdev.Device.read dev 0 in
  Alcotest.(check char) "surviving group still serves" 'e' (Bytes.get data 0);
  match dev.Blockdev.Device.read 1 with
  | Ok _ -> Alcotest.fail "dead group served a read"
  | Error _ -> ()

(* Power cut mid-write on a mirrored pair: recovery brings both legs
   back, resyncs them to one legal state, and the volume checker finds
   them byte-identical. *)
let test_mirror_powercut_converges () =
  let clock = Clock.create () in
  let vol, disks = mk_mirror clock in
  let dev = Volume.device vol in
  for b = 0 to 7 do
    ignore (Blockdev.Device.write dev b (fill dev 'x'))
  done;
  let plan = Fault.Plan.create Fault.Plan.Power_cut ~trigger:5 ~seed:9L in
  Fault.Plan.install plan disks.(1);
  (try
     for i = 0 to 30 do
       ignore (Blockdev.Device.write dev (i mod 8) (fill dev 'y'))
     done;
     Alcotest.fail "power cut never fired"
   with Disk.Disk_sim.Power_cut -> ());
  let stores =
    Array.map
      (fun d -> Disk.Sector_store.snapshot (Disk.Disk_sim.store d))
      disks
  in
  let clock2 = Clock.create () in
  let disks2 =
    Array.map
      (fun store ->
        Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
          ~store ~profile ~clock:clock2 ())
      stores
  in
  match
    Volume.recover ~layout:(Volume.Mirror 2) ~leg_kind:Volume.Vld_leg
      ~logical_blocks ~disks:disks2 ~prng:(Prng.create ~seed:43L) ()
  with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (vol2, report) ->
    Alcotest.(check int) "both legs recovered" 2
      report.Volume.legs_recovered;
    Alcotest.(check int) "no leg lost" 0 report.Volume.legs_lost;
    check_clean "after power-cut recovery" vol2;
    let dev2 = Volume.device vol2 in
    for b = 0 to 7 do
      let data, _ = Blockdev.Device.read dev2 b in
      let c = Bytes.get data 0 in
      if c <> 'x' && c <> 'y' then
        Alcotest.failf "block %d recovered as %C, legal states are x/y" b c
    done

(* The queued data path's headline claim: a mirror write scatters to
   both legs' tagged queues and each leg services it in its own window
   on the shared clock, so the operation completes at the max of the leg
   service times — not their sum, which is what the old sequential loop
   charged.  Identical fresh drives make the two legs' costs equal, so
   wall time of the mirrored write must equal the single-spindle wall
   time, and the legs' windows must end at (nearly) the same instant. *)
let test_mirror_write_completes_at_max_of_legs () =
  let run layout n_disks =
    let clock = Clock.create () in
    let disks = Array.init n_disks (fun _ -> mk_disk clock) in
    let vol =
      Volume.create ~layout ~leg_kind:Volume.Regular_leg ~logical_blocks ~disks
        ~prng:(Prng.create ~seed:41L) ()
    in
    let dev = Volume.device vol in
    let t0 = Clock.now clock in
    for b = 0 to 7 do
      ignore (Blockdev.Device.write dev b (fill dev (tag_of b)))
    done;
    (vol, Clock.now clock -. t0)
  in
  let _, single_ms = run (Volume.Stripe 1) 1 in
  let vol, mirror_ms = run (Volume.Mirror 2) 2 in
  Alcotest.(check (float 1e-6))
    "mirror write wall time = one leg's service time, not the sum"
    single_ms mirror_ms;
  Alcotest.(check (float 1e-6))
    "both legs' windows end together"
    (Volume.leg_busy_until vol ~group:0 ~leg:0)
    (Volume.leg_busy_until vol ~group:0 ~leg:1)

(* Striped reads fan across spindles: a run over k stripes costs about
   what the single busiest spindle pays, not the serial sum. *)
let test_stripe_fans_out () =
  let mk k =
    let clock = Clock.create () in
    let disks = Array.init k (fun _ -> mk_disk clock) in
    let vol =
      Volume.create ~layout:(Volume.Stripe k) ~leg_kind:Volume.Regular_leg
        ~logical_blocks ~disks ~prng:(Prng.create ~seed:42L) ()
    in
    (Volume.device vol, clock)
  in
  let dev1, clock1 = mk 1 in
  let dev4, clock4 = mk 4 in
  let n = 8 in
  let buf dev =
    Bytes.init (n * dev.Blockdev.Device.block_bytes) (fun i -> Char.chr (i mod 256))
  in
  ignore (Blockdev.Device.write_run dev1 0 (buf dev1));
  ignore (Blockdev.Device.write_run dev4 0 (buf dev4));
  let t1 = Clock.now clock1 and t4 = Clock.now clock4 in
  let r1 = Clock.now clock1 in
  ignore (Blockdev.Device.read_run dev1 0 n);
  let read1 = Clock.now clock1 -. r1 in
  let r4 = Clock.now clock4 in
  let got, _ = Result.get_ok (dev4.Blockdev.Device.read_run 0 n) in
  let read4 = Clock.now clock4 -. r4 in
  Alcotest.(check bytes) "striped data intact" (buf dev4) got;
  Alcotest.(check bool)
    (Printf.sprintf "4-wide stripe writes the run faster (1: %.3f, 4: %.3f)" t1 t4)
    true (t4 < t1);
  Alcotest.(check bool)
    (Printf.sprintf "4-wide stripe reads the run faster (1: %.3f, 4: %.3f)" read1
       read4)
    true (read4 < read1)

(* The batch faces check what the device faces check, before anything
   is submitted: a block the volume does not have or a buffer that is
   not one block raises the device faces' message, the clock does not
   move, and no block changes — not even one named earlier in the
   refused batch. *)
let test_batch_refuses_bad_ops () =
  let clock = Clock.create () in
  let disks = Array.init 2 (fun _ -> mk_disk clock) in
  let vol =
    Volume.create ~layout:(Volume.Stripe 2) ~leg_kind:Volume.Vld_leg
      ~logical_blocks:5 ~disks ~prng:(Prng.create ~seed:45L) ()
  in
  let block tag = Bytes.make (Volume.block_bytes vol) tag in
  (match Volume.write_batch vol ~at:(Clock.now clock) (List.init 5 (fun b -> (b, block 'A'))) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "prefill failed");
  let range = Invalid_argument "Volume: logical block range out of bounds" in
  let short = Invalid_argument "Volume.write: buffer must be exactly one block" in
  let refused what exn f =
    let before = Clock.now clock in
    Alcotest.check_raises what exn (fun () -> ignore (f ~at:before));
    Alcotest.(check (float 0.)) (what ^ ": clock did not move") before (Clock.now clock)
  in
  List.iter
    (fun (what, exn, items) ->
      refused ("write_batch, " ^ what) exn (fun ~at -> Volume.write_batch vol ~at items);
      refused ("write_batch_report, " ^ what) exn (fun ~at ->
          Volume.write_batch_report vol ~at items))
    [
      ("negative block", range, [ (0, block 'B'); (-1, block 'B') ]);
      ("past the end", range, [ (0, block 'B'); (5, block 'B') ]);
      ("short buffer", short, [ (0, block 'B'); (1, Bytes.make 100 'B') ]);
      ("empty batch", range, []);
    ];
  List.iter
    (fun (what, blocks) ->
      refused ("read_batch, " ^ what) range (fun ~at -> Volume.read_batch vol ~at blocks))
    [ ("negative block", [ 0; -1 ]); ("past the end", [ 0; 5 ]); ("empty batch", []) ];
  (* the device faces enter the same checks *)
  let dev = Volume.device vol in
  let bs = Volume.block_bytes vol in
  List.iter
    (fun (what, exn, f) -> refused ("device " ^ what) exn (fun ~at:_ -> f ()))
    [
      ("read past the end", range, fun () -> ignore (dev.Blockdev.Device.read 5));
      ("empty read_run", range, fun () -> ignore (dev.Blockdev.Device.read_run 0 0));
      ("read_run past the end", range, fun () -> ignore (dev.Blockdev.Device.read_run 4 2));
      ("short write", short, fun () -> ignore (dev.Blockdev.Device.write 0 (Bytes.make 100 'B')));
      ( "ragged write_run",
        short,
        fun () -> ignore (dev.Blockdev.Device.write_run 0 (Bytes.make (bs + 100) 'B')) );
      ( "write_run past the end",
        range,
        fun () -> ignore (dev.Blockdev.Device.write_run 4 (Bytes.make (2 * bs) 'B')) );
    ];
  for b = 0 to 4 do
    let data, _ = Blockdev.Device.read dev b in
    Alcotest.(check bytes) (Printf.sprintf "block %d unchanged" b) (block 'A') data
  done

(* A batch leaves the clock at its own completion: arrival plus its own
   service, even when an earlier operation on another leg left the
   clock later than that.  Tenants and the array bench measure latency
   as [Clock.now - at] on exactly this.  The first write puts two
   blocks on leg 0, so it outlasts the one-block second write on leg 1;
   the expected service comes from a twin volume that runs the second
   write alone. *)
let test_batch_completes_at_own_instant () =
  let mk () =
    let clock = Clock.create () in
    let disks = Array.init 2 (fun _ -> mk_disk clock) in
    let vol =
      Volume.create ~layout:(Volume.Stripe 2) ~leg_kind:Volume.Vld_leg
        ~logical_blocks ~disks ~prng:(Prng.create ~seed:46L) ()
    in
    (vol, clock)
  in
  let write vol ~at blocks =
    let w = Bytes.make (Volume.block_bytes vol) 'W' in
    match Volume.write_batch vol ~at (List.map (fun b -> (b, w)) blocks) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "write failed"
  in
  let vol, clock = mk () in
  let t0 = Clock.now clock in
  (* even blocks live on leg 0, odd blocks on leg 1 *)
  write vol ~at:t0 [ 0; 2 ];
  let first_done = Clock.now clock in
  let at = t0 +. 0.05 in
  Alcotest.(check bool) "the second write arrives before the first completes" true
    (at < first_done);
  write vol ~at [ 1 ];
  let twin, twin_clock = mk () in
  write twin ~at [ 1 ];
  Alcotest.(check (float 0.)) "clock = arrival + the write's own service"
    (Clock.now twin_clock) (Clock.now clock);
  Alcotest.(check bool)
    (Printf.sprintf "the clock went back to the completion (%.4f < %.4f)"
       (Clock.now clock) first_done)
    true
    (Clock.now clock < first_done)

(* The layout parser is the printer's inverse, and each malformed form
   keeps its message. *)
let test_layout_codec () =
  let shapes =
    List.init 16 (fun k -> Volume.Stripe (k + 1))
    @ List.init 3 (fun m -> Volume.Mirror (m + 2))
    @ List.concat_map
        (fun k -> List.init 3 (fun m -> Volume.Stripe_of_mirrors (k, m + 2)))
        [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun l ->
      let s = Volume.layout_to_string l in
      if Volume.layout_of_string s <> Ok l then Alcotest.failf "%s does not round-trip" s)
    shapes;
  List.iter
    (fun (s, expected) ->
      match Volume.layout_of_string s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error e -> Alcotest.(check string) s expected e)
    [
      ("stripe:0", "bad stripe width \"0\"");
      ("stripe:x", "bad stripe width \"x\"");
      ("mirror:1", "bad mirror width \"1\" (need >= 2)");
      ("mirror:", "bad mirror width \"\" (need >= 2)");
      ("raid10:2x1", "bad raid10 shape \"2x1\" (KxM, M >= 2)");
      ("raid10:0x2", "bad raid10 shape \"0x2\" (KxM, M >= 2)");
      ("raid10:22", "bad raid10 shape \"22\" (want KxM)");
      ("raid10:2x2x2", "bad raid10 shape \"2x2x2\" (want KxM)");
      ("raid5:3", "unknown layout \"raid5:3\" (use stripe:K, mirror:M or raid10:KxM)");
      ("mirror", "unknown layout \"mirror\" (use stripe:K, mirror:M or raid10:KxM)");
    ]

let suites =
  [
    ( "volume",
      [
        Alcotest.test_case "layout codec round-trips" `Quick test_layout_codec;
        Alcotest.test_case "death: failover, degraded writes, rebuild" `Quick
          test_death_failover_and_rebuild;
        Alcotest.test_case "hung leg: bounded stall" `Quick
          test_hung_leg_bounded_stall;
        Alcotest.test_case "rebuild catches concurrent writes" `Quick
          test_rebuild_catches_writes;
        Alcotest.test_case "double death: honest loss, no hang" `Quick
          test_double_death_reports_loss;
        Alcotest.test_case "stripe: partial loss is honest" `Quick
          test_stripe_partial_loss;
        Alcotest.test_case "mirror power cut converges" `Quick
          test_mirror_powercut_converges;
        Alcotest.test_case "mirror write = max of legs" `Quick
          test_mirror_write_completes_at_max_of_legs;
        Alcotest.test_case "stripe fans out" `Quick test_stripe_fans_out;
        Alcotest.test_case "batches refuse bad blocks and buffers" `Quick
          test_batch_refuses_bad_ops;
        Alcotest.test_case "a batch completes at its own instant" `Quick
          test_batch_completes_at_own_instant;
      ] );
  ]
