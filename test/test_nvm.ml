open Vlog_util

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 2
let block_bytes = 4096

(* One staged stack: small disk, VLD, NVM, WAL with background
   destaging off so every staged record stays in the log until an
   explicit drain. *)
let make_stack ?(log_bytes = None) () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile
      ~clock ()
  in
  let vld =
    Blockdev.Vld.create ~disk ~logical_blocks:128
      ~prng:(Prng.create ~seed:7L) ()
  in
  let nvm = Nvm.Nvm_sim.create ~clock () in
  let cfg = { Nvm.Nvm_wal.default_config with destage_util = 0.; log_bytes } in
  let wal =
    Nvm.Nvm_wal.create ~config:cfg ~nvm ~inner:(Blockdev.Vld.device vld) ()
  in
  (clock, disk, nvm, wal)

let stage_writes wal ops =
  let dev = Nvm.Nvm_wal.device wal in
  List.iter
    (fun (block, fill) ->
      match dev.Blockdev.Device.write block (Bytes.make block_bytes fill) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "staged write refused")
    ops

(* ---- Record codec properties (QCheck) ------------------------------ *)

let payload_gen =
  QCheck.Gen.(
    int_range 1 6000 >>= fun len ->
    string_size ~gen:(char_range '\000' '\255') (return len))

let record_gen =
  QCheck.Gen.(
    map3
      (fun seq block payload ->
        {
          Nvm.Nvm_wal.Record.seq = Int64.of_int seq;
          block;
          payload = Bytes.of_string payload;
        })
      (int_range 0 1_000_000) (int_range 0 1_000_000) payload_gen)

let record_arb =
  QCheck.make record_gen ~print:(fun (r : Nvm.Nvm_wal.Record.t) ->
      Printf.sprintf "{seq=%Ld; block=%d; payload=%d bytes}" r.seq r.block
        (Bytes.length r.payload))

let qcheck_codec =
  let open QCheck in
  let open Nvm.Nvm_wal in
  [
    Test.make ~name:"record codec roundtrip" ~count:200 record_arb (fun r ->
        let buf = Record.encode r in
        match Record.decode buf ~pos:0 with
        | None -> false
        | Some (r', next) ->
          r'.Record.seq = r.Record.seq
          && r'.Record.block = r.Record.block
          && Bytes.equal r'.Record.payload r.Record.payload
          && next = Bytes.length buf);
    Test.make ~name:"truncated record rejected" ~count:200
      (pair record_arb (float_bound_exclusive 1.))
      (fun (r, frac) ->
        let buf = Record.encode r in
        let n = Bytes.length buf in
        (* Keep at least the magic so this is a torn record, not blank
           space; always cut at least the final CRC byte. *)
        let keep = 4 + int_of_float (frac *. float_of_int (n - 5)) in
        Record.decode (Bytes.sub buf 0 keep) ~pos:0 = None);
    Test.make ~name:"bit flip rejected" ~count:300
      (pair record_arb (int_bound 100_000))
      (fun (r, at) ->
        let buf = Record.encode r in
        let bit = at mod (Bytes.length buf * 8) in
        let byte = bit / 8 in
        Bytes.set buf byte
          (Char.chr (Char.code (Bytes.get buf byte) lxor (1 lsl (bit mod 8))));
        Record.decode buf ~pos:0 = None);
  ]

(* ---- Append/replay properties over a real staged log --------------- *)

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 20)
      (pair (int_range 0 99) (char_range 'a' 'z')))

let ops_arb =
  QCheck.make ops_gen ~print:(fun ops ->
      String.concat ";"
        (List.map (fun (b, c) -> Printf.sprintf "%d:%c" b c) ops))

let qcheck_replay =
  let open QCheck in
  let open Nvm.Nvm_wal in
  [
    Test.make ~name:"append/replay equal" ~count:40 ops_arb (fun ops ->
        let _, _, nvm, wal = make_stack () in
        stage_writes wal ops;
        let recs, report = replay_scan (Nvm.Nvm_sim.snapshot nvm) in
        (not report.rr_truncated)
        && report.rr_stale = 0
        && List.length recs = List.length ops
        && List.for_all2
             (fun (block, fill) (r : Record.t) ->
               r.Record.block = block
               && Bytes.equal r.Record.payload (Bytes.make block_bytes fill))
             ops recs
        && recs
           = List.sort
               (fun (a : Record.t) b -> Int64.compare a.Record.seq b.Record.seq)
               recs);
    Test.make ~name:"torn tail truncates to committed prefix" ~count:40
      (pair ops_arb (int_bound 10_000))
      (fun (ops, tear) ->
        let _, _, nvm, wal = make_stack () in
        stage_writes wal ops;
        let img = Nvm.Nvm_sim.snapshot nvm in
        let n = List.length ops in
        let size = Record.encoded_size ~payload_len:block_bytes in
        (* Tear inside the last record, past its magic: the bytes look
           like a record but fail the seal. *)
        let last = 32 + ((n - 1) * size) in
        let cut = last + 4 + (tear mod (size - 4)) in
        Bytes.fill img cut (Bytes.length img - cut) '\000';
        let recs, report = replay_scan img in
        report.rr_truncated
        && List.length recs = n - 1
        && List.for_all2
             (fun (block, _) (r : Record.t) -> r.Record.block = block)
             (List.filteri (fun i _ -> i < n - 1) ops)
             recs);
  ]

(* ---- Regression: crash mid-destage, replay is idempotent ----------- *)

(* A destage crash must leave the NVM log replayable: every write the
   tier acknowledged is reconstructed on the backing device by
   [recover], and replaying twice (crash again right after recovery,
   with nothing new staged) leaves the byte-identical device image. *)
let test_destage_crash_replay_idempotent () =
  let _, disk, nvm, wal = make_stack () in
  let ops = List.init 12 (fun i -> ((i * 7) mod 40, Char.chr (65 + i))) in
  stage_writes wal ops;
  let plan =
    Fault.Plan.create Fault.Plan.Nvm_destage_cut ~trigger:4 ~seed:11L
  in
  Fault.Plan.install plan disk;
  Fault.Plan.install_nvm plan nvm;
  (match Nvm.Nvm_wal.drain wal with
  | exception Disk.Disk_sim.Power_cut -> ()
  | Ok () -> Alcotest.fail "drain survived the planned power cut"
  | Error _ -> Alcotest.fail "drain failed for the wrong reason");
  Alcotest.(check bool) "fault fired" true (Fault.Plan.fired plan);
  let dstore = Disk.Sector_store.snapshot (Disk.Disk_sim.store disk) in
  let nimg = Nvm.Nvm_sim.snapshot nvm in
  let recover_from dstore nimg =
    let clock = Clock.create () in
    let disk2 =
      Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
        ~store:(Disk.Sector_store.snapshot dstore) ~profile ~clock ()
    in
    let vld2, _ =
      match Blockdev.Vld.recover ~disk:disk2 ~prng:(Prng.create ~seed:7L) () with
      | Ok v -> v
      | Error msg -> Alcotest.failf "vld recover: %s" msg
    in
    let nvm2 = Nvm.Nvm_sim.create ~image:nimg ~clock () in
    match
      Nvm.Nvm_wal.recover
        ~config:{ Nvm.Nvm_wal.default_config with destage_util = 0. }
        ~nvm:nvm2 ~inner:(Blockdev.Vld.device vld2) ()
    with
    | Error e ->
      Alcotest.failf "wal recover: %s"
        (Format.asprintf "%a" Blockdev.Device.pp_io_error e)
    | Ok (wal2, report) -> (wal2, report, disk2, nvm2)
  in
  let read_all wal2 =
    let dev = Nvm.Nvm_wal.device wal2 in
    List.init 40 (fun b ->
        match dev.Blockdev.Device.read b with
        | Ok (bytes, _) -> Bytes.to_string bytes
        | Error _ -> Alcotest.failf "read of block %d failed after replay" b)
  in
  let wal1, report1, disk2, nvm2 = recover_from dstore nimg in
  Alcotest.(check bool) "first recovery replays records" true
    (report1.Nvm.Nvm_wal.rr_replayed > 0);
  let sig1 = read_all wal1 in
  (* Every acknowledged write's newest value is visible. *)
  List.iteri
    (fun i (block, fill) ->
      let newest =
        List.for_all
          (fun (b2, _) -> b2 <> block)
          (List.filteri (fun j _ -> j > i) ops)
      in
      if newest then
        Alcotest.(check string)
          (Printf.sprintf "block %d holds its acknowledged data" block)
          (String.make block_bytes fill)
          (List.nth sig1 block))
    ops;
  (* Crash again immediately: replaying the (now reset) log a second
     time must change nothing. *)
  let dstore2 = Disk.Sector_store.snapshot (Disk.Disk_sim.store disk2) in
  let nimg2 = Nvm.Nvm_sim.snapshot nvm2 in
  let wal2, report2, _, _ = recover_from dstore2 nimg2 in
  Alcotest.(check int) "nothing left to replay" 0
    report2.Nvm.Nvm_wal.rr_replayed;
  Alcotest.(check (list string)) "replay twice = replay once" sig1 (read_all wal2)

(* Backpressure under a tiny log: every write still lands, inline
   drains pay the disk cost. *)
let test_tiny_log_backpressure () =
  let _, _, _, wal = make_stack ~log_bytes:(Some (20 * 1024)) () in
  let ops = List.init 30 (fun i -> (i mod 50, Char.chr (97 + (i mod 26)))) in
  stage_writes wal ops;
  (match Nvm.Nvm_wal.drain wal with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "drain failed");
  let st = Nvm.Nvm_wal.status wal in
  Alcotest.(check int) "log empty after drain" 0 st.Nvm.Nvm_wal.st_entries;
  let dev = Nvm.Nvm_wal.inner wal in
  List.iteri
    (fun i (block, fill) ->
      let newest =
        List.for_all (fun (b2, _) -> b2 <> block)
          (List.filteri (fun j _ -> j > i) ops)
      in
      if newest then
        match dev.Blockdev.Device.read block with
        | Ok (bytes, _) ->
          Alcotest.(check char)
            (Printf.sprintf "block %d destaged" block)
            fill (Bytes.get bytes 0)
        | Error _ -> Alcotest.failf "read of block %d failed" block)
    ops

(* A run over staged and unstaged blocks reads each from where its
   newest copy lives: the log for staged blocks, the inner device (or
   zeroes) for the rest. *)
let test_run_over_overlay () =
  let _, _, _, wal = make_stack () in
  stage_writes wal [ (0, 'a'); (1, 'b'); (2, 'c'); (5, 'd') ];
  (match Nvm.Nvm_wal.drain wal with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "drain failed");
  stage_writes wal [ (1, 'B'); (3, 'C'); (5, 'D') ];
  let dev = Nvm.Nvm_wal.device wal in
  match dev.Blockdev.Device.read_run 0 8 with
  | Error _ -> Alcotest.fail "run read failed"
  | Ok (got, _) ->
    List.iteri
      (fun i want ->
        Alcotest.(check bytes)
          (Printf.sprintf "block %d" i)
          (Bytes.make block_bytes want)
          (Bytes.sub got (i * block_bytes) block_bytes))
      [ 'a'; 'B'; 'c'; 'C'; '\000'; 'D'; '\000'; '\000' ]

(* ---- Refusals and allocation ---------------------------------------- *)

(* A WAL over a regular disk: the staged face must refuse at call time
   exactly what the disk itself refuses, not ack it and fail later in a
   destage. *)
let regular_stack () =
  let clock = Clock.create () in
  let disk = Disk.Disk_sim.create ~profile ~clock () in
  let inner = Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ()) in
  let nvm = Nvm.Nvm_sim.create ~clock () in
  let cfg = { Nvm.Nvm_wal.default_config with destage_util = 0. } in
  Nvm.Nvm_wal.create ~config:cfg ~nvm ~inner ()

let check_refused wal what msg f =
  Alcotest.check_raises what (Invalid_argument msg) f;
  Alcotest.(check int)
    (what ^ ": nothing staged") 0
    (Nvm.Nvm_wal.status wal).Nvm.Nvm_wal.st_entries

let test_refuses_short_write () =
  let wal = regular_stack () in
  let dev = Nvm.Nvm_wal.device wal in
  check_refused wal "100-byte write" "Nvm_wal.write: buffer must be exactly one block"
    (fun () -> ignore (dev.Blockdev.Device.write 3 (Bytes.make 100 'x')));
  check_refused wal "oversized write" "Nvm_wal.write: buffer must be exactly one block"
    (fun () -> ignore (dev.Blockdev.Device.write 3 (Bytes.make (block_bytes + 1) 'x')));
  match dev.Blockdev.Device.read 3 with
  | Ok (got, _) ->
    Alcotest.(check bytes) "block 3 still unwritten" (Bytes.make block_bytes '\000') got
  | Error _ -> Alcotest.fail "read of block 3 failed"

let test_refuses_out_of_range () =
  let wal = regular_stack () in
  let dev = Nvm.Nvm_wal.device wal in
  let n = dev.Blockdev.Device.n_blocks in
  let block = Bytes.make block_bytes 'x' in
  let msg = "Nvm_wal: block range out of bounds" in
  check_refused wal "write one past the end" msg (fun () ->
      ignore (dev.Blockdev.Device.write n block));
  check_refused wal "write below zero" msg (fun () ->
      ignore (dev.Blockdev.Device.write (-1) block));
  check_refused wal "run across the end" msg (fun () ->
      ignore (dev.Blockdev.Device.write_run (n - 1) (Bytes.make (2 * block_bytes) 'x')));
  Alcotest.(check int) "the last block still stages" 1
    (match dev.Blockdev.Device.write (n - 1) block with
    | Ok _ -> (Nvm.Nvm_wal.status wal).Nvm.Nvm_wal.st_entries
    | Error _ -> Alcotest.fail "write of the last block failed")

let test_refuses_ragged_run () =
  let wal = regular_stack () in
  let dev = Nvm.Nvm_wal.device wal in
  let msg = "Nvm_wal.write_run: buffer must be whole blocks" in
  check_refused wal "ragged staged run" msg (fun () ->
      ignore (dev.Blockdev.Device.write_run 5 (Bytes.make (block_bytes + 100) 'x')));
  check_refused wal "ragged bypass run" msg (fun () ->
      ignore (dev.Blockdev.Device.write_run 5 (Bytes.make ((8 * block_bytes) + 100) 'x')));
  check_refused wal "empty run" msg (fun () ->
      ignore (dev.Blockdev.Device.write_run 5 Bytes.empty))

(* Major-heap words the staging path allocates: a staged write encodes
   into the WAL's record buffer and the NVM front's ring, and a drain
   loads each entry into a reused destage block, so neither allocates a
   block-sized buffer per write.  Every track of the disk is written
   once before the VLD is formatted, and every logical block staged and
   destaged once, so first-touch [Sector_store] track chunks and the
   ring's one growth are not counted. *)
let test_staging_allocation () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()
  in
  let geo = profile.Disk.Profile.geometry in
  let track_sectors = geo.Disk.Geometry.sectors_per_track in
  let track = Bytes.make (track_sectors * geo.Disk.Geometry.sector_bytes) '\000' in
  for tr = 0 to Disk.Geometry.total_tracks geo - 1 do
    Disk.Disk_sim.write disk ~lba:(tr * track_sectors) track |> ignore
  done;
  let vld = Blockdev.Vld.create ~disk ~logical_blocks:128 ~prng:(Prng.create ~seed:7L) () in
  let nvm = Nvm.Nvm_sim.create ~clock () in
  let cfg = { Nvm.Nvm_wal.default_config with destage_util = 0. } in
  let wal = Nvm.Nvm_wal.create ~config:cfg ~nvm ~inner:(Blockdev.Vld.device vld) () in
  let dev = Nvm.Nvm_wal.device wal in
  let payload = Bytes.make block_bytes 'p' in
  let write b =
    match dev.Blockdev.Device.write b payload with
    | Ok _ -> ()
    | Error _ -> Alcotest.failf "staged write of block %d refused" b
  in
  let drain () =
    match Nvm.Nvm_wal.drain wal with Ok () -> () | Error _ -> Alcotest.fail "drain failed"
  in
  for b = 0 to dev.Blockdev.Device.n_blocks - 1 do
    write b
  done;
  drain ();
  let n = 32 in
  let major () =
    let _, _, major = Gc.counters () in
    major
  in
  let per_block words = words /. float_of_int (n * block_bytes / 8) in
  (* an empty minor heap, so no minor collection lands inside a
     measurement *)
  Gc.minor ();
  let w0 = major () in
  for i = 0 to n - 1 do
    write (i * 3 mod 128)
  done;
  let staging = per_block (major () -. w0) in
  Gc.minor ();
  let w1 = major () in
  drain ();
  let destage = per_block (major () -. w1) in
  Alcotest.(check bool)
    (Printf.sprintf "staging allocates %.2f blocks per write, budget 1.0" staging)
    true (staging <= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "drain allocates %.2f blocks per entry, budget 0.5" destage)
    true (destage <= 0.5)

(* ---- The persist front against a model (QCheck) ------------------- *)

(* The reference front keeps a private copy of every store in a queue,
   oldest first, and applies copies to the media whole (or, on a torn
   persist, a byte prefix of the first one that does not fit). *)
type model = {
  m_vfb : int;
  m_merged : Bytes.t;
  m_persisted : Bytes.t;
  m_front : (int * Bytes.t) Queue.t;
  mutable m_bytes : int;
  mutable m_auto : int;
}

let model_drain_oldest m =
  match Queue.take_opt m.m_front with
  | None -> ()
  | Some (off, p) ->
    Bytes.blit p 0 m.m_persisted off (Bytes.length p);
    m.m_bytes <- m.m_bytes - Bytes.length p

let model_write m ~off p =
  Bytes.blit p 0 m.m_merged off (Bytes.length p);
  Queue.add (off, Bytes.copy p) m.m_front;
  m.m_bytes <- m.m_bytes + Bytes.length p;
  while m.m_bytes > m.m_vfb do
    model_drain_oldest m;
    m.m_auto <- m.m_auto + 1
  done

let model_persist m =
  while not (Queue.is_empty m.m_front) do
    model_drain_oldest m
  done

let model_tear m budget =
  let left = ref budget in
  let stop = ref false in
  while (not !stop) && not (Queue.is_empty m.m_front) do
    let off, p = Queue.peek m.m_front in
    let len = Bytes.length p in
    if len <= !left then begin
      model_drain_oldest m;
      left := !left - len
    end
    else begin
      Bytes.blit p 0 m.m_persisted off !left;
      stop := true
    end
  done

type front_op =
  | Store of int * int * int  (** offset, length, fill seed *)
  | Persist
  | Torn of int
  | Cut

let front_region = 512

let front_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          int_range 0 160 >>= fun len ->
          map2
            (fun off seed -> Store (off, len, seed))
            (int_range 0 (front_region - len))
            (int_bound 255) );
        (1, return Persist);
        (1, map (fun n -> Torn n) (int_range 0 200));
        (1, return Cut);
      ])

let front_case_arb =
  QCheck.make
    QCheck.Gen.(pair (int_range 1 96) (list_size (int_range 1 60) front_op_gen))
    ~print:(fun (vfb, ops) ->
      Printf.sprintf "vfb=%d [%s]" vfb
        (String.concat "; "
           (List.map
              (function
                | Store (o, l, s) -> Printf.sprintf "store %d+%d/%d" o l s
                | Persist -> "persist"
                | Torn n -> Printf.sprintf "torn %d" n
                | Cut -> "cut")
              ops)))

(* Drive [Nvm_sim] and the model through the same steps; after every
   step the persisted image, the merged view and the pending count
   must agree.  The caller scribbles over each store's buffer as soon
   as [write] returns, so a front that kept the caller's buffer fails. *)
let front_matches_model (vfb, ops) =
  let profile =
    {
      Nvm.Nvm_sim.default_profile with
      size_bytes = front_region;
      volatile_front_bytes = vfb;
    }
  in
  let nvm = Nvm.Nvm_sim.create ~profile ~clock:(Clock.create ()) () in
  let m =
    {
      m_vfb = vfb;
      m_merged = Bytes.make front_region '\000';
      m_persisted = Bytes.make front_region '\000';
      m_front = Queue.create ();
      m_bytes = 0;
      m_auto = 0;
    }
  in
  let loaded = Bytes.create front_region in
  let persist_with fault =
    Nvm.Nvm_sim.set_injector nvm
      (Some { Nvm.Nvm_sim.on_persist = (fun ~pending_bytes:_ -> Some fault) });
    (match Nvm.Nvm_sim.persist nvm with
    | () -> Alcotest.fail "persist survived an injected power cut"
    | exception Disk.Disk_sim.Power_cut -> ());
    Nvm.Nvm_sim.set_injector nvm None
  in
  List.for_all
    (fun op ->
      (match op with
      | Store (off, len, seed) ->
        let p = Bytes.init len (fun i -> Char.chr ((seed + (i * 7)) land 255)) in
        Nvm.Nvm_sim.write nvm ~off p;
        model_write m ~off p;
        Bytes.fill p 0 len 'X'
      | Persist ->
        Nvm.Nvm_sim.persist nvm;
        model_persist m
      | Torn n ->
        persist_with (Nvm.Nvm_sim.Torn_persist n);
        model_tear m n
      | Cut -> persist_with Nvm.Nvm_sim.Cut_before_persist);
      Nvm.Nvm_sim.read_into nvm ~off:0 ~len:front_region loaded ~pos:0;
      Bytes.equal (Nvm.Nvm_sim.snapshot nvm) m.m_persisted
      && Bytes.equal loaded m.m_merged
      && Nvm.Nvm_sim.pending_bytes nvm = m.m_bytes
      && (Nvm.Nvm_sim.stats nvm).Nvm.Nvm_sim.auto_drains = m.m_auto)
    ops

let qcheck_front =
  [
    QCheck.Test.make ~name:"persist front matches a copying model" ~count:300
      front_case_arb front_matches_model;
  ]

let suites =
  [
    ("nvm:codec", List.map Qcheck_seed.to_alcotest qcheck_codec);
    ("nvm:replay", List.map Qcheck_seed.to_alcotest qcheck_replay);
    ( "nvm:destage",
      [
        Alcotest.test_case "crash mid-drain replays idempotently" `Quick
          test_destage_crash_replay_idempotent;
        Alcotest.test_case "tiny log backpressure" `Quick
          test_tiny_log_backpressure;
        Alcotest.test_case "run over overlay" `Quick test_run_over_overlay;
        Alcotest.test_case "staging allocation" `Quick test_staging_allocation;
      ] );
    ( "nvm:refuse",
      [
        Alcotest.test_case "short write" `Quick test_refuses_short_write;
        Alcotest.test_case "block out of range" `Quick test_refuses_out_of_range;
        Alcotest.test_case "ragged run" `Quick test_refuses_ragged_run;
      ] );
    ("nvm:front", List.map Qcheck_seed.to_alcotest qcheck_front);
  ]
