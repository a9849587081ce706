type result = {
  latency_ms_per_block : float;
  bursts : int;
  burst_blocks : int;
  idle_ms : float;
}

let file = "burstfile"
let block = 4096

let run ?(bursts = 12) ?(settle_ms = 5000.) ~file_mb ~burst_kb ~idle_ms (t : Rig.stack) =
  let ops = t.ops in
  let blocks = int_of_float (file_mb *. 1048576.) / block in
  let burst_blocks = burst_kb * 1024 / block in
  if blocks <= 0 || burst_blocks <= 0 then invalid_arg "Burst.run: sizes too small";
  let prng = Vlog_util.Prng.split t.prng in
  ignore (Rig.ok_exn (ops.create file));
  let chunk_blocks = 16 in
  let data = Bytes.make (chunk_blocks * block) 'f' in
  for c = 0 to (blocks / chunk_blocks) - 1 do
    ignore (Rig.ok_exn (ops.write file ~off:(c * chunk_blocks * block) data))
  done;
  ignore (ops.sync ());
  (* A short settle ages the file system; steady state then comes from
     running enough bursts that the supply it created is consumed. *)
  if settle_ms > 0. then ops.idle settle_ms;
  let payload = Bytes.make block 'b' in
  let foreground = ref 0. in
  for _ = 1 to bursts do
    let (), ms =
      Rig.elapsed t (fun () ->
          for _ = 1 to burst_blocks do
            ignore
              (Rig.ok_exn
                 (ops.write file ~off:(Vlog_util.Prng.int prng blocks * block) payload))
          done)
    in
    foreground := !foreground +. ms;
    if idle_ms > 0. then ops.idle idle_ms
  done;
  {
    latency_ms_per_block = !foreground /. float_of_int (bursts * burst_blocks);
    bursts;
    burst_blocks;
    idle_ms;
  }
