(* One pass of a workload: build its rig, fill and age it (set-up),
   run untimed warm-up ops, run the timed ops, then verify every block
   against the shadow copy.  A pass is a pure function of the seed and
   the sizes, so its simulated results repeat bit for bit. *)

open Vlog_util

type sizes = { warm : int; timed : int }

(* update-scan counts rounds, the burst workloads bursts, array-mixed
   rounds. *)
let default_sizes = function
  | Stack.Update_scan -> { warm = 4; timed = 160 }
  | Burst_lfs | Burst_nvm -> { warm = 1; timed = 48 }
  | Array_mixed -> { warm = 30; timed = 3400 }

let writes_per_round = 16
let array_per_group = 8
let array_write_share = 0.7
let aging_idle_ms = 5000.
let warm_burst_writes = 256
let warm_gap_ms = 1000.

type inputs =
  | Rounds of Gen.round array
  | Bursts of Gen.burst array
  | Array_rounds of Gen.array_round array

(* Warm-up and timed inputs come from separate streams of one seed. *)
let inputs ~seed ~stream ~n w ~blocks =
  let seed = (seed * 2) + stream in
  match w with
  | Stack.Update_scan ->
    Rounds (Gen.update_rounds ~seed ~rounds:n ~writes_per_round ~file_blocks:blocks)
  | Burst_lfs | Burst_nvm ->
    if stream = 0 then
      let p = Gen.prng ~seed ~salt:0x3A53 in
      Bursts
        (Array.init n (fun _ ->
             {
               Gen.offsets = Array.init warm_burst_writes (fun _ -> Prng.int p blocks);
               gap_ms = warm_gap_ms;
             }))
    else Bursts (Gen.bursts ~seed ~n ~file_blocks:blocks)
  | Array_mixed ->
    Array_rounds
      (Gen.array_rounds ~seed ~rounds:n ~groups:Stack.array_groups
         ~group_blocks:Stack.array_group_blocks ~per_group:array_per_group
         ~write_share:array_write_share)

let op_count = function
  | Rounds rs -> Array.fold_left (fun n r -> n + Array.length r.Gen.writes + 1) 0 rs
  | Bursts bs -> Array.fold_left (fun n b -> n + Array.length b.Gen.offsets) 0 bs
  | Array_rounds rs -> Array.length rs

(* Growable-free sample store: capacity is known from the inputs. *)
type samples = { a : float array; mutable n : int }

let samples cap = { a = Array.make (max cap 1) 0.; n = 0 }
let push s x = s.a.(s.n) <- x; s.n <- s.n + 1
let contents s = Array.sub s.a 0 s.n

type ctx = {
  rig : Stack.t;
  ver : int array;  (* shadow: last version written to each block *)
  mutable timing : bool;
  mutable op : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  writes : samples;
  reads : samples;
  scans : samples;
  mutable scan_bytes : int;
  mutable user_blocks : int;
  mutable bd : Breakdown.t;
  mutable idle_ms : float;
  mutable idle_cmds : int;
  mutable idle_sectors : int;
  (* traced passes only *)
  mutable absorbed : int;
  mutable inline : int;
  mutable log_used_max : float;
  skews : samples;
  mutable w_leg_cmds : int;
  mutable r_leg_cmds : int;
  mutable r_blocks : int;
  mutable host_clock : Calib.t option;  (* during the timed phase *)
}

let fail c msg =
  c.failed <- c.failed + 1;
  if List.length c.errors < 5 then c.errors <- msg :: c.errors

let traced c = Option.is_some c.rig.Stack.probe

let begin_op c =
  Option.iter Calib.maybe_tick c.host_clock;
  c.attempted <- c.attempted + 1;
  match c.rig.Stack.probe with
  | Some p when c.timing ->
    p.Probe.op <- c.op;
    c.op <- c.op + 1
  | _ -> ()

let disk_cmds (s : Disk.Disk_sim.stats) = s.reads + s.writes
let disk_sectors (s : Disk.Disk_sim.stats) = s.sectors_read + s.sectors_written

let disk_totals t =
  Array.fold_left
    (fun (c, s) d ->
      let st = Disk.Disk_sim.stats d in
      (c + disk_cmds st, s + disk_sectors st))
    (0, 0) t.Stack.disks

(* First block of [n] at [pos] in [data] that does not hold its shadow
   version. *)
let mismatch c data ~first ~n =
  let rec go i =
    if i >= n then None
    else if Gen.matches data ~pos:(i * Gen.block_bytes) (first + i) c.ver.(first + i) then
      go (i + 1)
    else Some (first + i)
  in
  go 0

let fs_of c =
  match c.rig.Stack.fs with Some fs -> fs | None -> invalid_arg "workload needs a file system"

let vol_of c =
  match c.rig.Stack.vol with Some v -> v | None -> invalid_arg "workload needs a volume"

let elapsed c f =
  let t0 = Clock.now c.rig.Stack.clock in
  let r = f () in
  (r, Clock.now c.rig.Stack.clock -. t0)

let fs_write c b =
  let fs = fs_of c in
  begin_op c;
  let v = c.ver.(b) + 1 in
  c.ver.(b) <- v;
  let buf = Gen.payload b v in
  let inner_before =
    match (c.rig.Stack.probe, c.rig.Stack.wal) with
    | Some p, Some _ -> Probe.calls ~phase:`Fg p ~layer:"vld"
    | _ -> 0
  in
  let r, lat = elapsed c (fun () -> fs.Stack.write ~off:(b * Gen.block_bytes) buf) in
  match r with
  | Error e -> fail c (Printf.sprintf "write of block %d: %s" b e)
  | Ok bd ->
    if c.timing then begin
      push c.writes lat;
      c.bd <- Breakdown.add c.bd bd;
      c.user_blocks <- c.user_blocks + 1;
      match (c.rig.Stack.probe, c.rig.Stack.wal) with
      | Some p, Some w ->
        if Probe.calls ~phase:`Fg p ~layer:"vld" = inner_before then c.absorbed <- c.absorbed + 1
        else c.inline <- c.inline + 1;
        let st = Nvm.Nvm_wal.status w in
        c.log_used_max <-
          Float.max c.log_used_max
            (float_of_int st.Nvm.Nvm_wal.st_log_used /. float_of_int st.st_log_capacity)
      | _ -> ()
    end

let fs_read_check c ~first ~n =
  let fs = fs_of c in
  let r, lat =
    elapsed c (fun () ->
        fs.Stack.read ~off:(first * Gen.block_bytes) ~len:(n * Gen.block_bytes))
  in
  match r with
  | Error e ->
    fail c (Printf.sprintf "read of blocks %d+%d: %s" first n e);
    None
  | Ok (data, bd) -> (
    match mismatch c data ~first ~n with
    | Some b ->
      fail c (Printf.sprintf "block %d does not hold version %d" b c.ver.(b));
      None
    | None -> Some (lat, bd))

let fs_scan c start =
  (fs_of c).Stack.drop_caches ();
  begin_op c;
  match fs_read_check c ~first:start ~n:Gen.scan_blocks with
  | Some (lat, bd) when c.timing ->
    push c.scans lat;
    c.scan_bytes <- c.scan_bytes + (Gen.scan_blocks * Gen.block_bytes);
    c.bd <- Breakdown.add c.bd bd
  | _ -> ()

let idle c gap =
  let fs = fs_of c in
  let c0, s0 = disk_totals c.rig in
  let (), ms =
    elapsed c (fun () ->
        match c.rig.Stack.probe with
        | Some p -> Probe.in_idle p (fun () -> fs.Stack.idle gap)
        | None -> fs.Stack.idle gap)
  in
  if c.timing then begin
    let c1, s1 = disk_totals c.rig in
    c.idle_ms <- c.idle_ms +. ms;
    c.idle_cmds <- c.idle_cmds + (c1 - c0);
    c.idle_sectors <- c.idle_sectors + (s1 - s0)
  end

let array_round c (r : Gen.array_round) =
  let vol = vol_of c in
  let clock = c.rig.Stack.clock in
  let sp name f = Stack.span c.rig.Stack.probe ~layer:"volume" name f in
  begin_op c;
  let cmds0 = if traced c && c.timing then fst (disk_totals c.rig) else 0 in
  let at = Clock.now clock in
  let n = Array.length r.blocks in
  let result =
    if r.is_write then begin
      let items =
        Array.to_list
          (Array.map
             (fun b ->
               let v = c.ver.(b) + 1 in
               c.ver.(b) <- v;
               (b, Gen.payload b v))
             r.blocks)
      in
      match sp "write_batch" (fun () -> Volume.write_batch vol ~at items) with
      | Ok bd -> Ok bd
      | Error e -> Error (Format.asprintf "write batch: %a" Blockdev.Device.pp_io_error e)
    end
    else
      match sp "read_batch" (fun () -> Volume.read_batch vol ~at (Array.to_list r.blocks)) with
      | Error e -> Error (Format.asprintf "read batch: %a" Blockdev.Device.pp_io_error e)
      | Ok got ->
        let bad = ref None in
        let bd =
          List.fold_left2
            (fun acc b (data, bd) ->
              if !bad = None && not (Gen.matches data ~pos:0 b c.ver.(b)) then bad := Some b;
              Breakdown.add acc bd)
            Breakdown.zero (Array.to_list r.blocks) got
        in
        match !bad with
        | Some b -> Error (Printf.sprintf "block %d does not hold version %d" b c.ver.(b))
        | None -> Ok bd
  in
  let lat = Clock.now clock -. at in
  match result with
  | Error e -> fail c e
  | Ok bd ->
    if c.timing then begin
      c.bd <- Breakdown.add c.bd bd;
      if r.is_write then begin
        push c.writes lat;
        c.user_blocks <- c.user_blocks + n
      end
      else begin
        push c.reads lat;
        c.r_blocks <- c.r_blocks + n
      end;
      if traced c then begin
        let cmds = fst (disk_totals c.rig) - cmds0 in
        if r.is_write then c.w_leg_cmds <- c.w_leg_cmds + cmds
        else c.r_leg_cmds <- c.r_leg_cmds + cmds;
        (* Fan-out skew among the legs this round used: a leg whose
           timeline ends before the round arrived sat it out. *)
        let lo = ref infinity and hi = ref neg_infinity in
        for group = 0 to Volume.n_groups vol - 1 do
          for leg = 0 to Volume.legs_per_group vol - 1 do
            let b = Volume.leg_busy_until vol ~group ~leg in
            if b > at then begin
              lo := Float.min !lo b;
              hi := Float.max !hi b
            end
          done
        done;
        push c.skews (!hi -. !lo)
      end
    end

let run_inputs c = function
  | Rounds rs ->
    Array.iter
      (fun (r : Gen.round) ->
        Array.iter (fs_write c) r.writes;
        fs_scan c r.scan_start)
      rs
  | Bursts bs ->
    Array.iter
      (fun (b : Gen.burst) ->
        Array.iter (fs_write c) b.offsets;
        idle c b.gap_ms)
      bs
  | Array_rounds rs -> Array.iter (array_round c) rs

(* Everything durable, caches dropped, every block read back (outside
   the timed phase, so nothing is sampled). *)
let verify_all c =
  match (c.rig.Stack.fs, c.rig.Stack.vol) with
  | Some fs, _ ->
    (match fs.Stack.sync () with Ok () -> () | Error e -> fail c ("sync: " ^ e));
    fs.Stack.drop_caches ();
    let rec go first =
      if first < c.rig.Stack.blocks then begin
        let n = min Gen.scan_blocks (c.rig.Stack.blocks - first) in
        c.attempted <- c.attempted + 1;
        ignore (fs_read_check c ~first ~n);
        go (first + n)
      end
    in
    go 0
  | None, Some _ ->
    let chunk = Stack.array_groups * array_per_group in
    let rec go first =
      if first < c.rig.Stack.blocks then begin
        let n = min chunk (c.rig.Stack.blocks - first) in
        array_round c { Gen.is_write = false; blocks = Array.init n (fun i -> first + i) };
        go (first + n)
      end
    in
    go 0
  | None, None -> ()

(* Host times in calibrated seconds ([Calib]), raw seconds beside. *)
type pass = {
  setup_s : float;
  setup_raw_s : float;
  host_s : float;  (* timed phase, idle windows included *)
  host_raw_s : float;
  sim_ms : float;  (* timed phase, idle windows included *)
  fg_ms : float;  (* simulated time of the foreground ops *)
  ops : int;
  writes : float array;
  reads : float array;
  scans : float array;
  scan_bytes : int;
  attempted : int;
  failed : int;
  errors : string list;
  minor_words : float;
  major_words : float;
  major_collections : int;
  top_heap_words : int;
  layers : Report.metric list;  (* traced passes only *)
  probe : Probe.t option;  (* the traced pass's spans *)
}

(* --- per-layer metrics of a traced pass --- *)

let layer_metrics c (p : Probe.t) ~ops ~sim_ms ~disk0 ~disk1 ~vlog0 ~comp0 ~clean0 =
  let open Report in
  let rig = c.rig in
  let fops = float_of_int ops in
  let per_op x = ratio ~why:"no foreground ops" x fops in
  let idle_s = c.idle_ms /. 1000. in
  let no_idle = "no idle time in this workload" in
  let sum ?phase layer f = Probe.sum ?phase p ~layer f in
  let self layer = sum ~phase:`Fg layer (fun a -> a.Probe.self) in
  let host ?phase layer = sum ?phase layer (fun a -> a.Probe.host) in
  let count ?phase layer f = sum ?phase layer (fun a -> float_of_int (f a)) in
  let fs_below = match (rig.Stack.wal, rig.Stack.vld) with Some _, _ -> "nvm" | None, Some _ -> "vld" | _ -> "" in
  let has_ufs = rig.Stack.fs <> None && rig.Stack.lfs = None in
  let us = 1e6 in
  let m ?samples ?(clock = Sim) name unit_ v = metric ?samples ~clock name unit_ v in
  let num x = Num x in
  let absent_if cond why v = if cond then Absent why else v in
  let in_array = rig.Stack.vol <> None in
  let legs_hidden = "the volume's VLD legs are internal to Volume" in
  let vld_writes = count "vld" (fun a -> a.Probe.write_blocks) in
  let vld_reads = count "vld" (fun a -> a.Probe.read_blocks) in
  let vlog1 = Option.map (fun v -> Vlog.Virtual_log.stats (Blockdev.Vld.vlog v)) rig.Stack.vld in
  let comp1 = Option.map (fun v -> Vlog.Compactor.total (Blockdev.Vld.compactor v)) rig.Stack.vld in
  let vlog_delta f = match (vlog0, vlog1) with Some a, Some b -> float_of_int (f b - f a) | _ -> 0. in
  let comp_delta f = match (comp0, comp1) with Some a, Some b -> f b -. f a | _ -> 0. in
  let clean1 = Option.map Lfs.cleaner_stats rig.Stack.lfs in
  let clean_delta f = match (clean0, clean1) with Some a, Some b -> float_of_int (f b - f a) | _ -> 0. in
  let d_sum f =
    let acc = ref 0. in
    Array.iteri (fun i s -> acc := !acc +. f disk0.(i) s) disk1;
    !acc
  in
  let d_cmds = d_sum (fun a b -> float_of_int (disk_cmds b - disk_cmds a)) in
  let d_sectors = d_sum (fun a b -> float_of_int (disk_sectors b - disk_sectors a)) in
  let d_reads = d_sum (fun a (b : Disk.Disk_sim.stats) -> float_of_int (b.reads - a.reads)) in
  let d_hits = d_sum (fun a (b : Disk.Disk_sim.stats) -> float_of_int (b.buffer_hits - a.buffer_hits)) in
  let busy = Array.mapi (fun i (b : Disk.Disk_sim.stats) -> b.busy_ms -. disk0.(i).Disk.Disk_sim.busy_ms) disk1 in
  let no_time = "no simulated time passed" in
  let vol_only why v = if in_array then v else Absent why in
  let no_vol = "no volume in this rig" in
  let hist name f =
    match Trace.histogram rig.Stack.sink name with
    | Some h when Trace.Histogram.count h > 0 -> Num (f h)
    | _ -> Absent "no tagged command queue in this rig"
  in
  let hist_n name = match Trace.histogram rig.Stack.sink name with Some h -> Some (Trace.Histogram.count h) | None -> Some 0 in
  let legs_util f = vol_only no_vol (ratio ~why:no_time (Array.fold_left f busy.(0) busy) sim_ms) in
  [
    m ~clock:Host "ufs.self_host_us_per_op" "us" (per_op (self "ufs" *. us));
    m "ufs.dev_writes_per_op" "count/op"
      (per_op (if has_ufs then count ~phase:`Fg fs_below (fun a -> a.Probe.write_reqs) else 0.));
    m "ufs.dev_reads_per_scan_mb" "count/MB"
      (ratio ~why:"no scans in this workload"
         (count ~phase:`Fg fs_below (fun a -> a.Probe.read_reqs))
         (float_of_int c.scan_bytes /. 1048576.));
    m "host.other_ms_per_op" "ms" (per_op c.bd.Breakdown.other);
    m ~clock:Host "lfs.self_host_us_per_op" "us" (per_op (self "lfs" *. us));
    m "lfs.dev_blocks_per_user_block" "ratio"
      (ratio ~why:"no user blocks written"
         (if rig.Stack.lfs <> None then count "regular" (fun a -> a.Probe.write_blocks) else 0.)
         (float_of_int c.user_blocks));
    m "lfs.segments_cleaned" "count" (num (clean_delta (fun s -> s.Lfs.segments_cleaned)));
    m "lfs.blocks_copied" "count" (num (clean_delta (fun s -> s.Lfs.blocks_copied)));
    m "lfs.forced_cleans" "count" (num (clean_delta (fun s -> s.Lfs.forced_cleans)));
    m ~clock:Host "lfs.idle_host_s_per_idle_s" "s/s" (ratio ~why:no_idle (host ~phase:`Bg "lfs") idle_s);
    m ~clock:Host "nvm.self_host_us_per_op" "us" (per_op (self "nvm" *. us));
    m "nvm.absorbed_ratio" "ratio"
      (absent_if (rig.Stack.wal = None) "no NVM tier in this rig"
         (ratio ~why:"no foreground writes" (float_of_int c.absorbed)
            (float_of_int (c.absorbed + c.inline))));
    m "nvm.inline_drain_writes" "count" (num (float_of_int c.inline));
    m "nvm.destaged_blocks_per_idle_s" "1/s"
      (ratio ~why:no_idle
         (if rig.Stack.wal <> None then count ~phase:`Bg "vld" (fun a -> a.Probe.write_blocks) else 0.)
         idle_s);
    m "nvm.log_used_frac_max" "ratio"
      (absent_if (rig.Stack.wal = None) "no NVM tier in this rig" (num c.log_used_max));
    m ~clock:Host "nvm.idle_host_s_per_idle_s" "s/s" (ratio ~why:no_idle (host ~phase:`Bg "nvm") idle_s);
    m ~clock:Host "vld.host_us_per_write" "us"
      (ratio ~why:"no writes reached a wrapped VLD" (sum "vld" (fun a -> a.Probe.write_host) *. us) vld_writes);
    m ~clock:Host "vld.host_us_per_read" "us"
      (ratio ~why:"no reads reached a wrapped VLD" (sum "vld" (fun a -> a.Probe.read_host) *. us) vld_reads);
    m "vlog.node_writes_per_write" "ratio"
      (if in_array then Absent legs_hidden
       else ratio ~why:"no writes reached a wrapped VLD" (vlog_delta (fun s -> s.Vlog.Virtual_log.node_writes)) vld_writes);
    m "vlog.checkpoints" "count"
      (absent_if in_array legs_hidden (num (vlog_delta (fun s -> s.Vlog.Virtual_log.checkpoint_writes))));
    m "vld.compactor_blocks_moved" "count"
      (absent_if in_array legs_hidden (num (comp_delta (fun s -> float_of_int s.Vlog.Compactor.blocks_moved))));
    m "vld.compactor_ms_used" "ms"
      (absent_if in_array legs_hidden (num (comp_delta (fun s -> s.Vlog.Compactor.ms_used))));
    m ~clock:Host "regular.host_us_per_block" "us"
      (ratio ~why:"no blocks moved through a wrapped regular disk" (host "regular" *. us)
         (count "regular" (fun a -> a.Probe.write_blocks + a.Probe.read_blocks)));
    m ~clock:Host "volume.host_us_per_op" "us" (per_op (host "volume" *. us));
    m ~clock:Host "volume.host_us_per_leg_cmd" "us"
      (vol_only no_vol (ratio ~why:"no leg commands" (host "volume" *. us) (float_of_int (c.w_leg_cmds + c.r_leg_cmds))));
    m "volume.leg_cmds_per_write" "ratio"
      (vol_only no_vol (ratio ~why:"no blocks written" (float_of_int c.w_leg_cmds) (float_of_int c.user_blocks)));
    m "volume.leg_cmds_per_read" "ratio"
      (vol_only no_vol (ratio ~why:"no blocks read" (float_of_int c.r_leg_cmds) (float_of_int c.r_blocks)));
    (let s = contents c.skews in
     if in_array then Report.pct ~clock:Sim "volume.round_skew_ms_p99" s 99.
     else m ~samples:0 "volume.round_skew_ms_p99" "ms" (Absent no_vol));
    m "volume.leg_util_min" "ratio" (legs_util Float.min);
    m "volume.leg_util_max" "ratio" (legs_util Float.max);
    m ?samples:(hist_n "queue.wait") "queue.wait_p50_ms" "ms" (hist "queue.wait" (fun h -> Trace.Histogram.percentile h 50.));
    m ?samples:(hist_n "queue.wait") "queue.wait_p99_ms" "ms" (hist "queue.wait" (fun h -> Trace.Histogram.percentile h 99.));
    m ?samples:(hist_n "queue.depth") "queue.depth_p50" "count" (hist "queue.depth" (fun h -> Trace.Histogram.percentile h 50.));
    m ?samples:(hist_n "queue.depth") "queue.depth_max" "count" (hist "queue.depth" Trace.Histogram.max_value);
    m "disk.cmds_per_op" "count/op" (per_op (d_cmds -. float_of_int c.idle_cmds));
    m "disk.sectors_per_op" "count/op" (per_op (d_sectors -. float_of_int c.idle_sectors));
    m "disk.busy_frac" "ratio"
      (ratio ~why:no_time (Array.fold_left ( +. ) 0. busy) (sim_ms *. float_of_int (Array.length busy)));
    m "disk.buffer_hit_ratio" "ratio" (ratio ~why:"no disk reads" d_hits d_reads);
    m "disk.locate_ms_per_op" "ms" (per_op c.bd.Breakdown.locate);
    m "disk.transfer_ms_per_op" "ms" (per_op c.bd.Breakdown.transfer);
    m "disk.scsi_ms_per_op" "ms" (per_op c.bd.Breakdown.scsi);
  ]

let run_pass ?(sizes_of = default_sizes) ~seed ~mode w =
  let sizes = sizes_of w in
  let setup_clock = Calib.start () in
  let rig = Stack.build mode w in
  let c =
    {
      rig;
      ver = Array.make rig.Stack.blocks 0;
      timing = false;
      op = 0;
      attempted = 0;
      failed = 0;
      errors = [];
      writes = samples 0;
      reads = samples 0;
      scans = samples 0;
      scan_bytes = 0;
      user_blocks = 0;
      bd = Breakdown.zero;
      idle_ms = 0.;
      idle_cmds = 0;
      idle_sectors = 0;
      absorbed = 0;
      inline = 0;
      log_used_max = 0.;
      skews = samples 0;
      w_leg_cmds = 0;
      r_leg_cmds = 0;
      r_blocks = 0;
      host_clock = None;
    }
  in
  (match Stack.fill ~between:(fun () -> Calib.maybe_tick setup_clock) rig with
  | Ok () -> ()
  | Error e -> fail c ("fill: " ^ e));
  (match rig.Stack.fs with
  | Some fs ->
    (match fs.Stack.sync () with Ok () -> () | Error e -> fail c ("fill sync: " ^ e));
    if w <> Stack.Update_scan then fs.Stack.idle aging_idle_ms
  | None -> ());
  Calib.tick setup_clock;
  let blocks = rig.Stack.blocks in
  let warm = inputs ~seed ~stream:0 ~n:sizes.warm w ~blocks in
  let timed = inputs ~seed ~stream:1 ~n:sizes.timed w ~blocks in
  (match timed with
  | Bursts bs when rig.Stack.fast_buffer_blocks > 0 ->
    let sizes = Gen.burst_sizes bs in
    let lo = Array.fold_left min max_int sizes and hi = Array.fold_left max 0 sizes in
    if not (lo < rig.Stack.fast_buffer_blocks && hi > rig.Stack.fast_buffer_blocks) then
      fail c
        (Printf.sprintf "bursts of %d..%d blocks do not straddle the %d-block fast buffer" lo
           hi rig.Stack.fast_buffer_blocks)
  | _ -> ());
  run_inputs c warm;
  let cap = op_count timed in
  let c =
    { c with timing = true; writes = samples cap; reads = samples cap; scans = samples cap; skews = samples cap }
  in
  let disk0 = Array.map Disk.Disk_sim.stats rig.Stack.disks in
  let vlog0 = Option.map (fun v -> Vlog.Virtual_log.stats (Blockdev.Vld.vlog v)) rig.Stack.vld in
  let comp0 = Option.map (fun v -> Vlog.Compactor.total (Blockdev.Vld.compactor v)) rig.Stack.vld in
  let clean0 = Option.map Lfs.cleaner_stats rig.Stack.lfs in
  Option.iter Probe.start rig.Stack.probe;
  let s0 = Clock.now rig.Stack.clock in
  let gc0 = Gc.quick_stat () in
  let host_clock = Calib.start () in
  c.host_clock <- Some host_clock;
  run_inputs c timed;
  Calib.tick host_clock;
  c.host_clock <- None;
  let gc1 = Gc.quick_stat () in
  let sim_ms = Clock.now rig.Stack.clock -. s0 in
  Option.iter Probe.stop rig.Stack.probe;
  let ops = c.writes.n + c.reads.n + c.scans.n in
  let layers =
    match rig.Stack.probe with
    | None -> []
    | Some p ->
      layer_metrics c p ~ops ~sim_ms ~disk0
        ~disk1:(Array.map Disk.Disk_sim.stats rig.Stack.disks)
        ~vlog0 ~comp0 ~clean0
  in
  c.timing <- false;
  verify_all c;
  let sum s = Array.fold_left ( +. ) 0. (contents s) in
  {
    setup_s = setup_clock.Calib.cal_s;
    setup_raw_s = setup_clock.Calib.raw_s;
    host_s = host_clock.Calib.cal_s;
    host_raw_s = host_clock.Calib.raw_s;
    sim_ms;
    fg_ms = sum c.writes +. sum c.reads +. sum c.scans;
    ops;
    writes = contents c.writes;
    reads = contents c.reads;
    scans = contents c.scans;
    scan_bytes = c.scan_bytes;
    attempted = c.attempted;
    failed = c.failed;
    errors = List.rev c.errors;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    top_heap_words = gc1.Gc.top_heap_words;
    layers;
    probe = rig.Stack.probe;
  }

(* --- end-to-end metrics --- *)

let e2e (p : pass) =
  let open Report in
  let fops = float_of_int p.ops in
  let sum a = Array.fold_left ( +. ) 0. a in
  let no_reads = "no foreground reads in this workload" in
  [
    pct ~clock:Sim "write_p50_ms" p.writes 50.;
    pct ~clock:Sim "write_p99_ms" p.writes 99.;
    mean ~clock:Sim ~why:"no foreground writes" "write_mean_ms" "ms" p.writes;
    pct ~none:no_reads ~clock:Sim "read_p50_ms" p.reads 50.;
    pct ~none:no_reads ~clock:Sim "read_p99_ms" p.reads 99.;
    metric ~samples:(Array.length p.scans) ~clock:Sim "scan_mb_s" "MB/s"
      (ratio ~why:"no scans in this workload"
         (float_of_int p.scan_bytes /. 1048576.)
         (sum p.scans /. 1000.));
    metric ~clock:Sim "sim_ops_s" "1/s"
      (ratio ~why:"no simulated foreground time passed" fops (p.fg_ms /. 1000.));
    metric ~clock:Sim "fail_ratio" "ratio"
      (ratio ~why:"nothing attempted" (float_of_int p.failed) (float_of_int p.attempted));
    metric ~clock:Host "host_ops_s" "1/s" (ratio ~why:"no host time measured" fops p.host_s);
    metric ~clock:Host "sim_ms_per_host_s" "ms/s"
      (ratio ~why:"no host time measured" p.sim_ms p.host_s);
    metric ~clock:Host "setup_s" "s" (Num p.setup_s);
    metric ~clock:Host "host_ops_s_raw" "1/s" (ratio ~why:"no host time measured" fops p.host_raw_s);
    metric ~clock:Host "sim_ms_per_host_s_raw" "ms/s"
      (ratio ~why:"no host time measured" p.sim_ms p.host_raw_s);
    metric ~clock:Host "setup_raw_s" "s" (Num p.setup_raw_s);
    metric ~clock:Host "major_words_per_op" "words/op"
      (ratio ~why:"no foreground ops" p.major_words fops);
    metric ~clock:Host "top_heap_mb" "MB"
      (Num (float_of_int p.top_heap_words *. 8. /. 1048576.));
  ]

(* GC counts of the timed phase; the harness takes them from untraced
   passes, since tracing allocates. *)
let gc_metrics (p : pass) =
  let open Report in
  [
    metric ~clock:Host "gc.minor_words_per_op" "words/op"
      (ratio ~why:"no foreground ops" p.minor_words (float_of_int p.ops));
    metric ~clock:Host "gc.major_collections" "count" (Num (float_of_int p.major_collections));
  ]
