(* Tests for the tracing/metrics subsystem.

   The centrepiece is the exactness property: for every span that has
   accounted children, the breakdown the span was exited with equals the
   chronological left-fold of its children's breakdowns with FLOAT
   EQUALITY, not a tolerance.  [Breakdown.add] is not associative in
   floats, so this only holds if every layer folds costs in the same
   grouping the sink observes — which is exactly the discipline the
   instrumentation maintains (see lib/trace/trace.mli). *)

open Vlog_util

let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 4

(* --- the golden three-op workload ------------------------------------- *)

(* Two synchronous writes and one read on a regular disk: small enough
   to diff by eye, deep enough to cover span nesting, breakdowns,
   counters and histograms in the export. *)
let golden_trace () =
  let clock = Clock.create () in
  let trace = Trace.create ~clock () in
  let disk = Disk.Disk_sim.create ~profile ~clock ~trace () in
  let dev = Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ()) in
  let b = Bytes.make dev.Blockdev.Device.block_bytes 'g' in
  ignore (Blockdev.Device.write dev 0 b);
  ignore (Blockdev.Device.write dev 64 b);
  ignore (Blockdev.Device.read dev 0);
  trace

let golden_path = "trace_golden.jsonl"

(* Regenerate the golden file after an intentional format change with:
     TRACE_GOLDEN_WRITE=$PWD/test/trace_golden.jsonl dune exec test/main.exe -- test trace
   (any alcotest invocation loads this module and triggers the write). *)
let () =
  match Sys.getenv_opt "TRACE_GOLDEN_WRITE" with
  | Some path ->
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Trace.to_jsonl (golden_trace ())))
  | None -> ()

let test_golden_jsonl () =
  let got = Trace.to_jsonl (golden_trace ()) in
  let path =
    if Sys.file_exists golden_path then golden_path
    else Filename.concat "test" golden_path
  in
  let expected = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "golden JSONL byte-identical" expected got

(* --- JSONL well-formedness -------------------------------------------- *)

(* A minimal JSON object scanner: every line must be a single balanced
   object with no trailing garbage.  (No JSON library in the image; CI
   re-validates with python3 -m json.) *)
let line_is_json_object line =
  let n = String.length line in
  if n < 2 || line.[0] <> '{' then false
  else begin
    let depth = ref 0 and in_str = ref false and escaped = ref false in
    let ok = ref true and closed_at = ref (-1) in
    String.iteri
      (fun i c ->
        if !closed_at >= 0 then (if c <> ' ' then ok := false)
        else if !escaped then escaped := false
        else if !in_str then begin
          if c = '\\' then escaped := true else if c = '"' then in_str := false
        end
        else
          match c with
          | '"' -> in_str := true
          | '{' | '[' -> incr depth
          | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false;
            if !depth = 0 && c = '}' then closed_at := i
          | _ -> ())
      line;
    !ok && !closed_at = n - 1 && not !in_str
  end

let test_jsonl_wellformed () =
  let trace = golden_trace () in
  let lines = String.split_on_char '\n' (Trace.to_jsonl trace) in
  let lines = List.filter (fun l -> l <> "") lines in
  Alcotest.(check bool) "has lines" true (List.length lines > 5);
  List.iteri
    (fun i l ->
      if not (line_is_json_object l) then
        Alcotest.failf "line %d is not a JSON object: %s" (i + 1) l)
    lines

(* --- exactness: child folds equal parent breakdowns exactly ----------- *)

let check_exactness ~label trace =
  let spans = Trace.spans trace in
  Alcotest.(check bool) (label ^ ": trace non-empty") true (spans <> []);
  List.iter
    (fun (r : Trace.span_record) ->
      if r.Trace.n_children > 0 && r.Trace.bd <> r.Trace.child_sum then
        Alcotest.failf
          "%s: span %s (id %d, %d children): bd %a <> child fold %a" label
          r.Trace.name r.Trace.id r.Trace.n_children Breakdown.pp r.Trace.bd
          Breakdown.pp r.Trace.child_sum)
    spans

let rig ?(trace = true) ?lfs name =
  match
    Rig.build ~trace ~profile:Disk.Profile.st19101 ~host:Host.sparc10 ?lfs
      ~prng:(Prng.create ~seed:0xC0FFEEL)
      (Result.get_ok (Rig.rig_of_string name))
      Rig.Fresh
  with
  | Ok st -> st
  | Error e -> Alcotest.fail e

let exact_case label ?lfs name (run : Rig.stack -> unit) () =
  let r = rig ?lfs name in
  run r;
  check_exactness ~label r.device.trace

let small_file r = ignore (Workload.Small_file.run ~files:30 r)

let random_update_with_idle (r : Rig.stack) =
  ignore (Workload.Random_update.run ~updates:60 ~warmup:0 ~file_mb:2. r);
  (* Idle windows exercise the unaccounted spans (cleaner, compactor,
     background flush), which must NOT enter any parent's fold. *)
  let o = r.ops in
  o.idle 2000.;
  (* More foreground work after the idle window, so accounted spans
     follow unaccounted ones under the same parents. *)
  let bs = o.block_bytes in
  ignore (Rig.ok_exn (o.create "after-idle"));
  ignore (Rig.ok_exn (o.write "after-idle" ~off:0 (Bytes.make (8 * bs) 'a')));
  ignore (o.sync ());
  ignore (Rig.ok_exn (o.read "after-idle" ~off:0 ~len:(4 * bs)));
  ignore (Rig.ok_exn (o.delete "after-idle"))

let lfs buffer_blocks = { Lfs.default_config with Lfs.buffer_blocks }

let exactness_tests =
  [
    ("ufs/regular small-file", exact_case "ufs/regular" "ufs/regular" small_file);
    ("ufs/vld small-file", exact_case "ufs/vld" "ufs/vld" small_file);
    ("lfs/vld small-file", exact_case "lfs/vld" ~lfs:(lfs 256) "lfs/vld" small_file);
    ("vlfs small-file", exact_case "vlfs" "vlfs/direct" small_file);
    ("ufs/vld random+idle", exact_case "ufs/vld idle" "ufs/vld" random_update_with_idle);
    ( "lfs/vld random+idle",
      exact_case "lfs/vld idle" ~lfs:(lfs 128) "lfs/vld" random_update_with_idle );
    ("vlfs random+idle", exact_case "vlfs idle" "vlfs/direct" random_update_with_idle);
  ]

(* --- tracing must not perturb the simulation -------------------------- *)

let test_trace_does_not_change_timing () =
  let run traced =
    let r = rig ~trace:traced "ufs/vld" in
    ignore (Workload.Small_file.run ~files:40 r);
    Clock.now r.device.clock
  in
  let off = run false and on_ = run true in
  Alcotest.(check bool)
    (Printf.sprintf "same final clock (off %.9f, on %.9f)" off on_)
    true (off = on_)

(* --- histograms -------------------------------------------------------- *)

let test_histogram_basic () =
  let h = Trace.Histogram.create () in
  for i = 1 to 100 do
    Trace.Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Trace.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 5050. (Trace.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "min" 1. (Trace.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 100. (Trace.Histogram.max_value h)

let test_histogram_percentiles () =
  let h = Trace.Histogram.create () in
  for i = 1 to 100 do
    Trace.Histogram.observe h (float_of_int i)
  done;
  let p50 = Trace.Histogram.percentile h 50. in
  let p99 = Trace.Histogram.percentile h 99. in
  (* Buckets are geometric with gamma = 1.05 and the representative is
     the bucket's geometric midpoint: ~2.5 % relative error bound. *)
  Alcotest.(check bool)
    (Printf.sprintf "p50 = %.3f within 5%% of 50" p50)
    true
    (Float.abs (p50 -. 50.) /. 50. < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "p99 = %.3f within 5%% of 99" p99)
    true
    (Float.abs (p99 -. 99.) /. 99. < 0.05);
  (* Extremes clamp to the exact observed min/max. *)
  Alcotest.(check (float 1e-9)) "p0 is min" 1. (Trace.Histogram.percentile h 0.);
  Alcotest.(check (float 1e-9)) "p100 is max" 100. (Trace.Histogram.percentile h 100.)

let test_histogram_singleton () =
  let h = Trace.Histogram.create () in
  Trace.Histogram.observe h 0.42;
  Alcotest.(check (float 1e-9)) "p50 of singleton" 0.42 (Trace.Histogram.percentile h 50.)

(* --- null sink is inert ------------------------------------------------ *)

let test_null_sink_inert () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.null);
  let sp = Trace.enter Trace.null "x" in
  Trace.exit Trace.null ~bd:(Breakdown.of_other 1.) sp;
  Trace.incr Trace.null "c";
  Trace.observe Trace.null "h" 1.;
  Alcotest.(check int) "no counters" 0 (List.length (Trace.counters Trace.null));
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans Trace.null))

(* --- reset_stats regression (the busy_ms audit) ------------------------ *)

let test_reset_stats_zeroes_everything () =
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile ~clock ()
  in
  let prng = Prng.create ~seed:91L in
  let vld = Blockdev.Vld.create ~disk ~logical_blocks:1500 ~prng () in
  let dev = Blockdev.Vld.device vld in
  let b = Bytes.make dev.Blockdev.Device.block_bytes 'r' in
  for l = 0 to 900 do
    ignore (Blockdev.Device.write dev l b)
  done;
  for l = 0 to 900 do
    if l mod 2 = 0 then dev.Blockdev.Device.trim l
  done;
  (* Compactor busy time accrues inside the idle window — historically
     the field reset_stats forgot. *)
  Blockdev.Device.advance_idle ~clock dev 3000.;
  let s = Disk.Disk_sim.stats disk in
  Alcotest.(check bool) "work happened" true
    (s.Disk.Disk_sim.writes > 0 && s.Disk.Disk_sim.busy_ms > 0.);
  Disk.Disk_sim.reset_stats disk;
  let z = Disk.Disk_sim.stats disk in
  Alcotest.(check int) "reads" 0 z.Disk.Disk_sim.reads;
  Alcotest.(check int) "writes" 0 z.Disk.Disk_sim.writes;
  Alcotest.(check int) "sectors_read" 0 z.Disk.Disk_sim.sectors_read;
  Alcotest.(check int) "sectors_written" 0 z.Disk.Disk_sim.sectors_written;
  Alcotest.(check int) "buffer_hits" 0 z.Disk.Disk_sim.buffer_hits;
  Alcotest.(check int) "read_faults" 0 z.Disk.Disk_sim.read_faults;
  Alcotest.(check int) "write_faults" 0 z.Disk.Disk_sim.write_faults;
  Alcotest.(check (float 0.)) "busy_ms" 0. z.Disk.Disk_sim.busy_ms

(* --- failed I/O still accounts its retries ----------------------------- *)

(* A read that exhausts its bounded retries must charge the attempts to
   dev.failed_retries (dev.read_retries only counts retries that led to
   a success). *)
let test_failed_retries_counter () =
  let clock = Clock.create () in
  let trace = Trace.create ~clock () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track ~profile
      ~clock ~trace ()
  in
  let dev =
    Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ())
  in
  let b = Bytes.make dev.Blockdev.Device.block_bytes 'f' in
  (match dev.Blockdev.Device.write 0 b with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "healthy write failed");
  Disk.Disk_sim.set_injector disk
    (Some
       {
         Disk.Disk_sim.on_read =
           (fun ~lba:_ ~sectors:_ -> Some Disk.Disk_sim.Transient_read);
         on_write = (fun ~lba:_ ~sectors:_ -> None);
       });
  (match dev.Blockdev.Device.read 0 with
  | Ok _ -> Alcotest.fail "read succeeded under a permanent transient fault"
  | Error e ->
    Alcotest.(check int) "error reports the retry count" 3
      e.Blockdev.Device.retries);
  Alcotest.(check int) "failed retries counted" 3
    (Trace.counter trace "dev.failed_retries");
  Alcotest.(check int) "no successful-retry count" 0
    (Trace.counter trace "dev.read_retries");
  (* A retry burst that eventually lands keeps charging read_retries,
     not failed_retries. *)
  let seen = ref 0 in
  Disk.Disk_sim.set_injector disk
    (Some
       {
         Disk.Disk_sim.on_read =
           (fun ~lba:_ ~sectors:_ ->
             incr seen;
             if !seen <= 2 then Some Disk.Disk_sim.Transient_read else None);
         on_write = (fun ~lba:_ ~sectors:_ -> None);
       });
  (match dev.Blockdev.Device.read 0 with
  | Ok (data, _) ->
    Alcotest.(check char) "data intact" 'f' (Bytes.get data 0)
  | Error _ -> Alcotest.fail "read failed despite retries");
  Alcotest.(check int) "successful retries counted" 2
    (Trace.counter trace "dev.read_retries");
  Alcotest.(check int) "failed count unchanged" 3
    (Trace.counter trace "dev.failed_retries")

let suites =
  [
    ( "trace",
      [
        Alcotest.test_case "golden jsonl" `Quick test_golden_jsonl;
        Alcotest.test_case "jsonl well-formed" `Quick test_jsonl_wellformed;
        Alcotest.test_case "trace off = same timing" `Quick test_trace_does_not_change_timing;
        Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
        Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
        Alcotest.test_case "histogram singleton" `Quick test_histogram_singleton;
        Alcotest.test_case "null sink inert" `Quick test_null_sink_inert;
        Alcotest.test_case "reset_stats zeroes everything" `Quick test_reset_stats_zeroes_everything;
        Alcotest.test_case "failed retries counted" `Quick test_failed_retries_counter;
      ] );
    ( "trace:exactness",
      List.map
        (fun (name, f) -> Alcotest.test_case name `Quick f)
        exactness_tests );
  ]
