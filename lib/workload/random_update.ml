open Vlog_util

type result = {
  mean_latency_ms : float;
  p50_ms : float;
  p99_ms : float;
  breakdown : Breakdown.t;
  utilization : float;
  updates : int;
}

let file = "updatefile"
let block = 4096

let run ?(updates = 500) ?(warmup = 50) ?(compact_first = false) ~file_mb (t : Rig.stack) =
  let ops = t.ops in
  let blocks = int_of_float (file_mb *. 1048576.) / block in
  if blocks <= 0 then invalid_arg "Random_update.run: file too small";
  let prng = Prng.split t.prng in
  ignore (Rig.ok_exn (ops.create file));
  (* Fill sequentially in large chunks (placement as a real file). *)
  let chunk_blocks = 16 in
  let data = Bytes.make (chunk_blocks * block) 'f' in
  let full_chunks = blocks / chunk_blocks in
  for c = 0 to full_chunks - 1 do
    ignore (Rig.ok_exn (ops.write file ~off:(c * chunk_blocks * block) data))
  done;
  let rest = blocks - (full_chunks * chunk_blocks) in
  if rest > 0 then
    ignore
      (Rig.ok_exn
         (ops.write file
            ~off:(full_chunks * chunk_blocks * block)
            (Bytes.make (rest * block) 'f')));
  ignore (ops.sync ());
  if compact_first then ops.idle 60_000.;
  let payload = Bytes.make block 'u' in
  let one () =
    ignore (Rig.ok_exn (ops.write file ~off:(Prng.int prng blocks * block) payload))
  in
  for _ = 1 to warmup do
    one ()
  done;
  let utilization = ops.utilization () in
  let acc = Breakdown.Acc.create () in
  (* Per-update wall latencies feed a log-scale trace histogram, so the
     tail is reported with ~5 % relative precision at any update count. *)
  let hist = Trace.Histogram.create () in
  let (), total_ms =
    Rig.elapsed t (fun () ->
        for _ = 1 to updates do
          let t0 = Clock.now t.device.clock in
          let bd =
            Rig.ok_exn (ops.write file ~off:(Prng.int prng blocks * block) payload)
          in
          let wall = Clock.now t.device.clock -. t0 in
          Trace.Histogram.observe hist wall;
          (* The returned breakdown covers the visible work; flush storms
             (LFS buffer fills) surface as extra wall time, attributed to
             "other" so Figure 9 totals equal wall-clock. *)
          let missing = wall -. Breakdown.total bd in
          let bd =
            if missing > 1e-9 then Breakdown.add bd (Breakdown.of_other missing) else bd
          in
          Breakdown.Acc.add acc bd
        done)
  in
  {
    mean_latency_ms = total_ms /. float_of_int updates;
    p50_ms = Trace.Histogram.percentile hist 50.;
    p99_ms = Trace.Histogram.percentile hist 99.;
    breakdown = Breakdown.Acc.mean acc;
    utilization;
    updates;
  }
