open Vlog_util

let sparc = Host.sparc10

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 6
let lfs_small = { Lfs.default_config with Lfs.buffer_blocks = 64 }

let make ?lfs name =
  match
    Rig.build ~profile ~host:sparc ?lfs ~prng:(Prng.create ~seed:0xFEEDL)
      (Result.get_ok (Rig.rig_of_string name))
      Rig.Fresh
  with
  | Ok st -> st
  | Error e -> Alcotest.fail e

let test_setup_builds_all_four () =
  List.iter
    (fun (lfs, name) -> ignore (make ?lfs name))
    [
      (None, "ufs/regular");
      (None, "ufs/vld");
      (Some lfs_small, "lfs/regular");
      (Some lfs_small, "lfs/vld");
    ]

let test_ops_roundtrip () =
  let rig = make "ufs/vld" in
  let ops = rig.ops in
  ignore (Rig.ok_exn (ops.create "f"));
  ignore (Rig.ok_exn (ops.write "f" ~off:0 (Bytes.make 4096 'z')));
  let data, _ = Rig.ok_exn (ops.read "f" ~off:0 ~len:4096) in
  Alcotest.(check bytes) "roundtrip" (Bytes.make 4096 'z') data

let test_ops_failure_raises () =
  let rig = make "ufs/regular" in
  let ops = rig.ops in
  match Rig.ok_exn (ops.read "missing" ~off:0 ~len:1) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure"

(* A file-system error surfaces through the workload face as the one
   [Failure] text, whichever call site meets it first: here the read of
   a missing file, and the fill writes of a file larger than the rig. *)
let test_errors_surface () =
  let raises what expected f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Failure %S" what expected
    | exception Failure m -> Alcotest.(check string) what expected m
  in
  let ops = (make "ufs/regular").ops in
  raises "read of a missing file" "file system error: missing: not found" (fun () ->
      Rig.ok_exn (ops.read "missing" ~off:0 ~len:1));
  List.iter
    (fun (lfs, name) ->
      raises (name ^ " fill past capacity") "file system error: no space" (fun () ->
          Workload.Random_update.run ~updates:0 ~warmup:0 ~file_mb:64. (make ?lfs name)))
    [ (None, "ufs/regular"); (None, "ufs/vld"); (Some lfs_small, "lfs/vld") ]

let test_elapsed_measures_clock () =
  let rig = make "ufs/regular" in
  let (), ms = Rig.elapsed rig (fun () -> Clock.advance rig.device.clock 3.5) in
  Alcotest.(check (float 1e-9)) "elapsed" 3.5 ms

let test_idle_advances_clock () =
  let rig = make ~lfs:lfs_small "lfs/vld" in
  let t0 = Clock.now rig.device.clock in
  rig.ops.idle 250.;
  Alcotest.(check (float 1e-6)) "idle advances exactly" (t0 +. 250.)
    (Clock.now rig.device.clock)

let test_small_file_driver () =
  let rig = make "ufs/regular" in
  let r = Workload.Small_file.run ~files:40 rig in
  Alcotest.(check int) "files" 40 r.Workload.Small_file.files;
  Alcotest.(check bool) "create took time" true (r.Workload.Small_file.create_ms > 0.);
  Alcotest.(check bool) "read took time" true (r.Workload.Small_file.read_ms > 0.);
  Alcotest.(check bool) "delete took time" true (r.Workload.Small_file.delete_ms > 0.)

let test_small_file_normalize () =
  let base = { Workload.Small_file.create_ms = 10.; read_ms = 4.; delete_ms = 8.; files = 1 } in
  let other = { Workload.Small_file.create_ms = 5.; read_ms = 8.; delete_ms = 2.; files = 1 } in
  let c, r, d = Workload.Small_file.normalize ~baseline:base other in
  Alcotest.(check (float 1e-9)) "create 2x" 2. c;
  Alcotest.(check (float 1e-9)) "read 0.5x" 0.5 r;
  Alcotest.(check (float 1e-9)) "delete 4x" 4. d

let test_large_file_driver () =
  let rig = make "ufs/vld" in
  let phases = Workload.Large_file.run ~mb:1 ~sync_phase:true rig in
  Alcotest.(check int) "6 phases" 6 (List.length phases);
  List.iter
    (fun (_, bw) -> Alcotest.(check bool) "bandwidth positive" true (bw > 0.))
    phases

let test_large_file_no_sync_phase () =
  let rig = make ~lfs:lfs_small "lfs/regular" in
  let phases = Workload.Large_file.run ~mb:1 ~sync_phase:false rig in
  Alcotest.(check int) "5 phases" 5 (List.length phases);
  Alcotest.(check bool) "no sync phase" true
    (not (List.mem_assoc Workload.Large_file.Random_write_sync phases))

let test_random_update_driver () =
  let rig = make "ufs/regular" in
  let r = Workload.Random_update.run ~updates:50 ~warmup:5 ~file_mb:1. rig in
  Alcotest.(check int) "updates" 50 r.Workload.Random_update.updates;
  Alcotest.(check bool) "latency sane" true
    (r.Workload.Random_update.mean_latency_ms > 0.5
    && r.Workload.Random_update.mean_latency_ms < 50.);
  Alcotest.(check bool) "utilization recorded" true
    (r.Workload.Random_update.utilization > 0.)

let test_random_update_breakdown_consistent () =
  let rig = make "ufs/regular" in
  let r = Workload.Random_update.run ~updates:50 ~warmup:5 ~file_mb:1. rig in
  let total = Breakdown.total r.Workload.Random_update.breakdown in
  Alcotest.(check (float 0.02)) "breakdown total = wall latency"
    r.Workload.Random_update.mean_latency_ms total

let test_vld_beats_regular_on_updates () =
  let measure name =
    let rig = make name in
    (Workload.Random_update.run ~updates:80 ~warmup:10 ~file_mb:2. rig)
      .Workload.Random_update.mean_latency_ms
  in
  let reg = measure "ufs/regular" and vld = measure "ufs/vld" in
  Alcotest.(check bool)
    (Printf.sprintf "vld %.2f < regular %.2f" vld reg)
    true (vld < reg)

let test_burst_driver () =
  let rig = make "ufs/vld" in
  let r = Workload.Burst.run ~bursts:3 ~settle_ms:100. ~file_mb:1. ~burst_kb:64 ~idle_ms:50. rig in
  Alcotest.(check int) "bursts" 3 r.Workload.Burst.bursts;
  Alcotest.(check int) "blocks" 16 r.Workload.Burst.burst_blocks;
  Alcotest.(check bool) "latency positive" true (r.Workload.Burst.latency_ms_per_block > 0.)

let test_burst_idle_not_counted () =
  (* Foreground latency must not include the idle windows. *)
  let measure idle_ms =
    let rig = make "ufs/regular" in
    (Workload.Burst.run ~bursts:3 ~settle_ms:0. ~file_mb:1. ~burst_kb:64 ~idle_ms rig)
      .Workload.Burst.latency_ms_per_block
  in
  let no_idle = measure 0. and big_idle = measure 1000. in
  (* On a regular disk idle time changes nothing; latencies match. *)
  Alcotest.(check (float 0.2)) "idle excluded" no_idle big_idle

(* ---- open-loop arrival processes ---- *)

let rec sorted = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> a <= b && sorted rest

let arrival_gen =
  QCheck.(
    triple (int_range 0 0xFFFF) (* seed *)
      (int_range 1 400) (* n *)
      (pair
         (int_range 1 2000) (* rate per second *)
         (oneofl
            [
              Workload.Open_loop.Poisson;
              Workload.Open_loop.Bursty { burst = 4; spread_ms = 2. };
              Workload.Open_loop.Bursty { burst = 8; spread_ms = 0.5 };
            ])))

let open_loop_qcheck =
  let open QCheck in
  [
    Test.make ~name:"open-loop schedules are sorted and start on time" ~count:100
      arrival_gen
      (fun (seed, n, (rate, process)) ->
        let prng = Prng.create ~seed:(Int64.of_int seed) in
        let start = 5. in
        let ts =
          Workload.Open_loop.arrivals ~prng ~process ~rate_per_s:(float_of_int rate)
            ~start n
        in
        List.length ts = n && sorted ts && List.for_all (fun t -> t >= start) ts);
    Test.make
      ~name:"poisson interarrival mean tracks 1/rate for large n" ~count:20
      (pair (int_range 0 0xFFFF) (int_range 50 1000))
      (fun (seed, rate) ->
        let n = 2000 in
        let prng = Prng.create ~seed:(Int64.of_int seed) in
        let ts =
          Workload.Open_loop.arrivals ~prng ~process:Workload.Open_loop.Poisson
            ~rate_per_s:(float_of_int rate) ~start:0. n
        in
        match ts with
        | [] -> false
        | first :: _ ->
          let last = List.nth ts (n - 1) in
          (* n arrivals span (n-1) interarrival gaps plus the one before
             [first]; the sample mean of n gaps is last/n. *)
          ignore first;
          let mean_ms = last /. float_of_int n in
          let expect_ms = 1000. /. float_of_int rate in
          (* sample mean of n exponentials: sd = mean/sqrt(n); 5 sigma
             keeps the test deterministic-by-seed yet tight *)
          Float.abs (mean_ms -. expect_ms)
          <= 5. *. expect_ms /. Float.sqrt (float_of_int n));
  ]

let suites =
  [
    ( "workload:setup",
      [
        Alcotest.test_case "builds all four rigs" `Quick test_setup_builds_all_four;
        Alcotest.test_case "ops roundtrip" `Quick test_ops_roundtrip;
        Alcotest.test_case "failure raises" `Quick test_ops_failure_raises;
        Alcotest.test_case "errors surface with their text" `Quick test_errors_surface;
        Alcotest.test_case "elapsed" `Quick test_elapsed_measures_clock;
        Alcotest.test_case "idle advances clock" `Quick test_idle_advances_clock;
      ] );
    ( "workload:drivers",
      [
        Alcotest.test_case "small file" `Quick test_small_file_driver;
        Alcotest.test_case "small file normalize" `Quick test_small_file_normalize;
        Alcotest.test_case "large file" `Quick test_large_file_driver;
        Alcotest.test_case "large file no sync phase" `Quick test_large_file_no_sync_phase;
        Alcotest.test_case "random update" `Quick test_random_update_driver;
        Alcotest.test_case "breakdown consistent" `Quick test_random_update_breakdown_consistent;
        Alcotest.test_case "vld beats regular" `Quick test_vld_beats_regular_on_updates;
        Alcotest.test_case "burst" `Quick test_burst_driver;
        Alcotest.test_case "burst idle excluded" `Quick test_burst_idle_not_counted;
      ] );
    ( "workload:open-loop",
      List.map Qcheck_seed.to_alcotest open_loop_qcheck );
  ]
