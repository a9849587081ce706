open Vlog_util

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 8

let make_fs ?(buffer_blocks = 64) ?(on_vld = false) ?(segment_blocks = 32) () =
  let clock = Clock.create () in
  let policy =
    if on_vld then Disk.Track_buffer.Whole_track else Disk.Track_buffer.Forward_discard
  in
  let disk = Disk.Disk_sim.create ~buffer_policy:policy ~profile ~clock () in
  let dev =
    if on_vld then
      let prng = Prng.create ~seed:61L in
      Blockdev.Vld.device (Blockdev.Vld.create ~disk ~logical_blocks:3500 ~prng ())
    else Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ())
  in
  let cfg = { Lfs.default_config with Lfs.buffer_blocks; segment_blocks } in
  (Lfs.format ~dev ~host:Host.free ~clock cfg, clock)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Format.asprintf "%a" Lfs.pp_error e)

let test_create_write_read () =
  let fs, _ = make_fs () in
  ignore (ok (Lfs.create fs "a"));
  let payload = Bytes.of_string "log structured" in
  ignore (ok (Lfs.write fs "a" ~off:0 payload));
  let got, _ = ok (Lfs.read fs "a" ~off:0 ~len:(Bytes.length payload)) in
  Alcotest.(check bytes) "roundtrip from buffer" payload got

let test_read_after_flush () =
  let fs, _ = make_fs () in
  ignore (ok (Lfs.create fs "a"));
  let payload = Bytes.make 8192 'z' in
  ignore (ok (Lfs.write fs "a" ~off:0 payload));
  ignore (Lfs.sync fs);
  Lfs.drop_caches fs;
  let got, _ = ok (Lfs.read fs "a" ~off:0 ~len:8192) in
  Alcotest.(check bytes) "roundtrip from disk" payload got

let test_writes_buffered_until_flush () =
  let fs, clock = make_fs ~buffer_blocks:128 () in
  ignore (ok (Lfs.create fs "b"));
  let t0 = Clock.now clock in
  for i = 0 to 9 do
    ignore (ok (Lfs.write fs "b" ~off:(i * 4096) (Bytes.make 4096 'b')))
  done;
  (* All buffered: only host time (zero here) passes. *)
  Alcotest.(check (float 1e-9)) "no disk time" t0 (Clock.now clock);
  (* 10 data blocks plus the directory block dirtied by create. *)
  Alcotest.(check int) "buffered" 11 (Lfs.buffered_blocks fs);
  ignore (Lfs.sync fs);
  Alcotest.(check int) "drained" 0 (Lfs.buffered_blocks fs);
  Alcotest.(check bool) "disk time now" true (Clock.now clock > t0)

let test_autoflush_when_buffer_full () =
  let fs, clock = make_fs ~buffer_blocks:8 () in
  ignore (ok (Lfs.create fs "c"));
  for i = 0 to 19 do
    ignore (ok (Lfs.write fs "c" ~off:(i * 4096) (Bytes.make 4096 'c')))
  done;
  Alcotest.(check bool) "autoflushed" true (Clock.now clock > 0.);
  Alcotest.(check bool) "buffer bounded" true (Lfs.buffered_blocks fs < 20)

let test_partial_segment_rewrite_cost () =
  (* Frequent fsync of tiny writes rewrites the open segment each time:
     the k-th flush writes more than the first. *)
  let fs, clock = make_fs ~segment_blocks:64 () in
  ignore (ok (Lfs.create fs "d"));
  ignore (ok (Lfs.write fs "d" ~off:0 (Bytes.make 4096 'd')));
  let t0 = Clock.now clock in
  ignore (Lfs.sync fs);
  let first = Clock.now clock -. t0 in
  for i = 1 to 20 do
    ignore (ok (Lfs.write fs "d" ~off:(i * 4096) (Bytes.make 4096 'd')));
    ignore (Lfs.sync fs)
  done;
  ignore (ok (Lfs.write fs "d" ~off:(21 * 4096) (Bytes.make 4096 'd')));
  let t1 = Clock.now clock in
  ignore (Lfs.sync fs);
  let late = Clock.now clock -. t1 in
  Alcotest.(check bool)
    (Printf.sprintf "rewrite grows (first %.2f, late %.2f)" first late)
    true (late > first)

let test_partial_segment_seals_at_threshold () =
  let fs, _ = make_fs ~segment_blocks:16 () in
  ignore (ok (Lfs.create fs "e"));
  (* Fill beyond 75% of a 16-block segment, then sync: the segment must
     seal (next sync starts a new one, so buffered state is empty). *)
  for i = 0 to 13 do
    ignore (ok (Lfs.write fs "e" ~off:(i * 4096) (Bytes.make 4096 'e')))
  done;
  ignore (Lfs.sync fs);
  ignore (ok (Lfs.write fs "e" ~off:(20 * 4096) (Bytes.make 4096 'e')));
  ignore (Lfs.sync fs);
  let got, _ = ok (Lfs.read fs "e" ~off:0 ~len:4096) in
  Alcotest.(check bytes) "sealed data intact" (Bytes.make 4096 'e') got

let test_overwrite_supersedes () =
  let fs, _ = make_fs () in
  ignore (ok (Lfs.create fs "f"));
  ignore (ok (Lfs.write fs "f" ~off:0 (Bytes.make 4096 '1')));
  ignore (Lfs.sync fs);
  ignore (ok (Lfs.write fs "f" ~off:0 (Bytes.make 4096 '2')));
  ignore (Lfs.sync fs);
  Lfs.drop_caches fs;
  let got, _ = ok (Lfs.read fs "f" ~off:0 ~len:4096) in
  Alcotest.(check bytes) "latest wins" (Bytes.make 4096 '2') got

let test_delete_makes_blocks_dead () =
  let fs, _ = make_fs () in
  ignore (ok (Lfs.create fs "g"));
  ignore (ok (Lfs.write fs "g" ~off:0 (Bytes.make (20 * 4096) 'g')));
  ignore (Lfs.sync fs);
  let live_before = Lfs.live_blocks fs in
  ignore (ok (Lfs.delete fs "g"));
  ignore (Lfs.sync fs);
  Alcotest.(check bool) "blocks died" true (Lfs.live_blocks fs < live_before);
  Alcotest.(check bool) "gone" false (Lfs.exists fs "g")

let test_cleaner_reclaims () =
  let fs, clock = make_fs ~buffer_blocks:16 ~segment_blocks:16 () in
  (* Fill a large share of the disk, then delete most files and keep
     writing: the cleaner must produce free segments. *)
  let blocks_per_file = 12 in
  let n_files = 40 in
  for f = 0 to n_files - 1 do
    let name = Printf.sprintf "h%d" f in
    ignore (ok (Lfs.create fs name));
    ignore (ok (Lfs.write fs name ~off:0 (Bytes.make (blocks_per_file * 4096) 'h')))
  done;
  ignore (Lfs.sync fs);
  for f = 0 to n_files - 1 do
    if f mod 2 = 0 then ignore (ok (Lfs.delete fs (Printf.sprintf "h%d" f)))
  done;
  ignore (Lfs.sync fs);
  let free_before = Lfs.free_segments fs in
  ignore (Lfs.idle_clean ~target_free:max_int fs ~deadline:(Clock.now clock +. 60_000.));
  Alcotest.(check bool) "freed segments" true (Lfs.free_segments fs > free_before);
  (* Remaining files still intact after cleaning moved them. *)
  let got, _ = ok (Lfs.read fs "h1" ~off:0 ~len:(blocks_per_file * 4096)) in
  Alcotest.(check bytes) "survivor intact" (Bytes.make (blocks_per_file * 4096) 'h') got

let test_forced_clean_on_write_path () =
  let fs, _ = make_fs ~buffer_blocks:8 ~segment_blocks:16 () in
  (* Interleave blocks of many files so every segment mixes files, then
     delete half the files: segments end up half-live (never wholly dead,
     so they cannot become free without copying), and continued writing
     must eventually invoke the cleaner inline. *)
  let n_files = 60 and blocks_per_file = 40 in
  let name f = Printf.sprintf "i%d" f in
  for f = 0 to n_files - 1 do
    ignore (ok (Lfs.create fs (name f)))
  done;
  for b = 0 to blocks_per_file - 1 do
    for f = 0 to n_files - 1 do
      ignore (ok (Lfs.write fs (name f) ~off:(b * 4096) (Bytes.make 4096 'i')))
    done
  done;
  ignore (Lfs.sync fs);
  for f = 0 to n_files - 1 do
    if f mod 2 = 0 then ignore (ok (Lfs.delete fs (name f)))
  done;
  ignore (Lfs.sync fs);
  (* Now write fresh data into the reclaimed-but-fragmented space. *)
  ignore (ok (Lfs.create fs "fresh"));
  for b = 0 to (n_files * blocks_per_file / 3) - 1 do
    ignore (ok (Lfs.write fs "fresh" ~off:(b * 4096) (Bytes.make 4096 'n')))
  done;
  ignore (Lfs.sync fs);
  Alcotest.(check bool) "cleaner ran forced" true
    ((Lfs.cleaner_stats fs).Lfs.forced_cleans > 0);
  let got, _ = ok (Lfs.read fs "i1" ~off:0 ~len:4096) in
  Alcotest.(check bytes) "data survives cleaning" (Bytes.make 4096 'i') got

let test_idle_clean_respects_deadline () =
  let fs, clock = make_fs ~buffer_blocks:16 ~segment_blocks:16 () in
  for f = 0 to 30 do
    let name = Printf.sprintf "j%d" f in
    ignore (ok (Lfs.create fs name));
    ignore (ok (Lfs.write fs name ~off:0 (Bytes.make (8 * 4096) 'j')))
  done;
  ignore (Lfs.sync fs);
  for f = 0 to 30 do
    if f mod 2 = 0 then ignore (ok (Lfs.delete fs (Printf.sprintf "j%d" f)))
  done;
  ignore (Lfs.sync fs);
  let t0 = Clock.now clock in
  ignore (Lfs.idle_clean fs ~deadline:(t0 +. 1.));
  (* Too short an idle window to clean a whole segment: nothing happens
     (or at most one segment whose estimate was optimistic). *)
  Alcotest.(check bool) "short window, little work" true (Clock.now clock -. t0 < 100.)

let test_file_not_found () =
  let fs, _ = make_fs () in
  match Lfs.read fs "nope" ~off:0 ~len:1 with
  | Error (`Not_found "nope") -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_no_space () =
  let fs, _ = make_fs ~segment_blocks:16 () in
  ignore (ok (Lfs.create fs "big"));
  let cap_bytes = (Lfs.device fs).Blockdev.Device.n_blocks * 4096 in
  match Lfs.write fs "big" ~off:0 (Bytes.make (cap_bytes + 409600) 'x') with
  | Error `No_space -> ()
  | Ok _ -> Alcotest.fail "overfull write accepted"
  | Error e -> Alcotest.fail (Format.asprintf "wrong error %a" Lfs.pp_error e)

let test_runs_on_vld () =
  let fs, _ = make_fs ~on_vld:true () in
  ignore (ok (Lfs.create fs "v"));
  ignore (ok (Lfs.write fs "v" ~off:0 (Bytes.make 8192 'v')));
  ignore (Lfs.sync fs);
  Lfs.drop_caches fs;
  let got, _ = ok (Lfs.read fs "v" ~off:0 ~len:8192) in
  Alcotest.(check bytes) "roundtrip on vld" (Bytes.make 8192 'v') got

let test_many_files_roundtrip () =
  let fs, _ = make_fs ~buffer_blocks:32 () in
  for i = 0 to 99 do
    let name = Printf.sprintf "k%03d" i in
    ignore (ok (Lfs.create fs name));
    ignore (ok (Lfs.write fs name ~off:0 (Bytes.make 1024 (Char.chr (40 + (i mod 80))))))
  done;
  ignore (Lfs.sync fs);
  Lfs.drop_caches fs;
  for i = 0 to 99 do
    let name = Printf.sprintf "k%03d" i in
    let got, _ = ok (Lfs.read fs name ~off:0 ~len:1024) in
    Alcotest.(check bytes) name (Bytes.make 1024 (Char.chr (40 + (i mod 80)))) got
  done

let test_utilization_reflects_live_data () =
  let fs, _ = make_fs () in
  let u0 = Lfs.utilization fs in
  ignore (ok (Lfs.create fs "u"));
  ignore (ok (Lfs.write fs "u" ~off:0 (Bytes.make (64 * 4096) 'u')));
  ignore (Lfs.sync fs);
  Alcotest.(check bool) "grew" true (Lfs.utilization fs > u0)

(* The exact fsck may only note that the open segment is not on the
   platter yet. *)
let only_unflushed what fs =
  let report = Check.Lfs_check.check fs in
  Alcotest.(check bool)
    (Format.asprintf "fsck %s: %a" what Check.Report.pp report)
    true
    (List.for_all (( = ) Check.Report.Unflushed) (Check.Report.categories report))

(* Ten blocks and a sync leave the segment open below the seal
   threshold: its two summary slots count as live, and that is no leak. *)
let test_fsck_unsealed_open_segment () =
  let fs, _ = make_fs () in
  ignore (ok (Lfs.create fs "u"));
  ignore (ok (Lfs.write fs "u" ~off:0 (Bytes.make (10 * 4096) 'u')));
  ignore (Lfs.sync fs);
  Alcotest.(check bool) "segment still open" true (Lfs.open_segment fs <> None);
  only_unflushed "on an unsealed open segment" fs

(* Overwrites on a nearly full log force cleans from inside [append]'s
   seal-and-reopen; a clean that refills the new open segment must not
   push the next block past the segment's end. *)
let test_overwrites_near_full_stay_in_segment () =
  let fs, clock = make_fs () in
  ignore (ok (Lfs.create fs "f"));
  let n_blocks = (Lfs.device fs).Blockdev.Device.n_blocks * 8 / 10 in
  let block i v =
    Bytes.init 4096 (fun k -> Char.chr ((i * 7 + v * 13 + k) land 0xff))
  in
  let version = Array.make n_blocks 0 in
  for i = 0 to n_blocks - 1 do
    ignore (ok (Lfs.write fs "f" ~off:(i * 4096) (block i 0)))
  done;
  let prng = Prng.create ~seed:19L in
  for v = 1 to 2000 do
    let i = Prng.int prng n_blocks in
    version.(i) <- v;
    ignore (ok (Lfs.write fs "f" ~off:(i * 4096) (block i v)))
  done;
  ignore (Lfs.power_down fs);
  only_unflushed "after power_down" fs;
  match Lfs.recover ~dev:(Lfs.device fs) ~host:Host.free ~clock (Lfs.config fs) with
  | Error e -> Alcotest.fail e
  | Ok (fs, _) ->
    let report = Check.Lfs_check.check fs in
    Alcotest.(check bool)
      (Format.asprintf "fsck clean after recover: %a" Check.Report.pp report)
      true (Check.Report.ok report);
    let wrong = ref 0 in
    for i = 0 to n_blocks - 1 do
      let got, _ = ok (Lfs.read fs "f" ~off:(i * 4096) ~len:4096) in
      if not (Bytes.equal got (block i version.(i))) then incr wrong
    done;
    Alcotest.(check int)
      (Printf.sprintf "blocks reading a stale version (of %d)" n_blocks) 0 !wrong

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"lfs random ops match in-memory model" ~count:8
      (list_of_size Gen.(1 -- 30)
         (triple (int_range 0 3) (int_range 0 15) (int_range 1 6000)))
      (fun ops ->
        let fs, _ = make_fs ~buffer_blocks:16 () in
        let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
        let name i = Printf.sprintf "q%d" i in
        List.iter
          (fun (f, off_blocks, len) ->
            let n = name (f mod 4) in
            let off = off_blocks * 512 in
            if not (Hashtbl.mem model n) then begin
              ignore (Lfs.create fs n);
              Hashtbl.replace model n Bytes.empty
            end;
            let data = Bytes.init len (fun i -> Char.chr ((i + off + f) mod 256)) in
            match Lfs.write fs n ~off data with
            | Ok _ ->
              let old = Hashtbl.find model n in
              let size = max (Bytes.length old) (off + len) in
              let next = Bytes.make size '\000' in
              Bytes.blit old 0 next 0 (Bytes.length old);
              Bytes.blit data 0 next off len;
              Hashtbl.replace model n next
            | Error _ -> ())
          ops;
        ignore (Lfs.sync fs);
        Lfs.drop_caches fs;
        Hashtbl.fold
          (fun n expect ok ->
            ok
            &&
            match Lfs.read fs n ~off:0 ~len:(Bytes.length expect) with
            | Ok (got, _) -> got = expect
            | Error _ -> false)
          model true);
  ]

(* The live counters against the exact fsck, after every step of a
   random op sequence on a one-cylinder rig small enough that the log
   wraps and the cleaner runs within a few dozen writes. *)
let live_counter_property =
  let open QCheck in
  Test.make ~name:"lfs live counters match fsck after every step" ~count:25
    (list_of_size Gen.(30 -- 90)
       (quad (int_range 0 12) (int_range 0 3) (int_range 0 80) (int_range 1 8)))
    (fun ops ->
      let clock = Clock.create () in
      let disk =
        Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Forward_discard
          ~profile:(Disk.Profile.with_cylinders Disk.Profile.st19101 1) ~clock ()
      in
      let dev = Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ()) in
      let cfg = { Lfs.default_config with Lfs.buffer_blocks = 24; segment_blocks = 16 } in
      let fs = ref (Lfs.format ~dev ~host:Host.free ~clock cfg) in
      let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
      let name f = Printf.sprintf "p%d" f in
      (* Start half full, so that overwrites leave every segment partly
         live and free space runs out. *)
      let ops = List.init 4 (fun f -> (0, f, 0, 70)) @ ops in
      List.iteri
        (fun step (kind, f, a, b) ->
          let n = name f in
          if kind <= 8 && Result.is_ok (Lfs.create !fs n) then
            Hashtbl.replace model n Bytes.empty;
          (match kind with
          | k when k <= 8 -> (
            let off = a * 4096 and len = b * 4096 in
            let data = Bytes.init len (fun i -> Char.chr ((i + off + step) land 0xff)) in
            match Lfs.write !fs n ~off data with
            | Ok _ ->
              let old = Hashtbl.find model n in
              let next = Bytes.make (max (Bytes.length old) (off + len)) '\000' in
              Bytes.blit old 0 next 0 (Bytes.length old);
              Bytes.blit data 0 next off len;
              Hashtbl.replace model n next
            | Error _ -> ())
          | 9 -> if Result.is_ok (Lfs.delete !fs n) then Hashtbl.remove model n
          | 10 -> ignore (Lfs.sync !fs)
          | 11 ->
            ignore (Lfs.idle_work !fs ~deadline:(Clock.now clock +. float_of_int (a * 10)))
          | _ -> (
            ignore (Lfs.power_down !fs);
            match Lfs.recover ~dev ~host:Host.free ~clock cfg with
            | Ok (t, _) -> fs := t
            | Error e -> Alcotest.fail e));
          only_unflushed (Printf.sprintf "after step %d" step) !fs)
        ops;
      Hashtbl.fold
        (fun n expect ok ->
          ok
          &&
          match Lfs.read !fs n ~off:0 ~len:(Bytes.length expect) with
          | Ok (got, _) -> Bytes.equal got expect
          | Error _ -> false)
        model true)

let test_scan_views_alias_safely () =
  let fs, _ = make_fs ~on_vld:true () in
  ignore (ok (Lfs.create fs "run"));
  View_alias.scan_overwrite_rescan ~block_bytes:(Lfs.block_bytes fs)
    ~write:(fun ~off data -> ignore (ok (Lfs.write fs "run" ~off data)))
    ~read:(fun ~off ~len -> fst (ok (Lfs.read fs "run" ~off ~len)))
    ~settle:(fun () ->
      ignore (Lfs.sync fs);
      Lfs.drop_caches fs)

let suites =
  [
    ( "lfs:files",
      [
        Alcotest.test_case "create/write/read" `Quick test_create_write_read;
        Alcotest.test_case "read after flush" `Quick test_read_after_flush;
        Alcotest.test_case "overwrite supersedes" `Quick test_overwrite_supersedes;
        Alcotest.test_case "delete kills blocks" `Quick test_delete_makes_blocks_dead;
        Alcotest.test_case "not found" `Quick test_file_not_found;
        Alcotest.test_case "no space" `Quick test_no_space;
        Alcotest.test_case "runs on vld" `Quick test_runs_on_vld;
        Alcotest.test_case "scan views alias safely" `Quick test_scan_views_alias_safely;
        Alcotest.test_case "many files" `Quick test_many_files_roundtrip;
        Alcotest.test_case "utilization" `Quick test_utilization_reflects_live_data;
      ] );
    ( "lfs:log",
      [
        Alcotest.test_case "buffered until flush" `Quick test_writes_buffered_until_flush;
        Alcotest.test_case "autoflush on full buffer" `Quick test_autoflush_when_buffer_full;
        Alcotest.test_case "partial segment rewrite" `Quick test_partial_segment_rewrite_cost;
        Alcotest.test_case "seals at threshold" `Quick test_partial_segment_seals_at_threshold;
        Alcotest.test_case "fsck on unsealed open segment" `Quick test_fsck_unsealed_open_segment;
      ] );
    ( "lfs:cleaner",
      [
        Alcotest.test_case "reclaims" `Quick test_cleaner_reclaims;
        Alcotest.test_case "forced on write path" `Quick test_forced_clean_on_write_path;
        Alcotest.test_case "idle respects deadline" `Quick test_idle_clean_respects_deadline;
        Alcotest.test_case "overwrites near full stay in segment" `Quick
          test_overwrites_near_full_stay_in_segment;
      ] );
    ("lfs:properties", List.map Qcheck_seed.to_alcotest (qcheck_tests @ [ live_counter_property ]));
  ]
