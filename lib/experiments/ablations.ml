open Vlog_util

let counts_of_scale = function Rigs.Quick -> (120, 20) | Rigs.Full -> (600, 60)

let eager_mode ?(scale = Rigs.Full) () =
  let updates, warmup = counts_of_scale scale in
  let t =
    Table.create ~title:"Ablation: eager-write search mode (UFS on VLD, 92% util)"
      ~columns:[ "Mode"; "Latency/4KB"; "Utilization" ]
  in
  List.iter
    (fun (label, mode) ->
      let rig = Rigs.rig ~seed:0xAB1L ~eager_mode:mode "ufs/vld" in
      let file_mb = Rigs.file_mb_for_utilization rig 0.92 in
      let r = Workload.Random_update.run ~updates ~warmup ~file_mb rig in
      Table.add_row t
        [
          label;
          Table.cell_ms r.Workload.Random_update.mean_latency_ms;
          Table.cell_pct r.Workload.Random_update.utilization;
        ])
    [ ("one-direction sweep (paper)", Vlog.Eager.Sweep); ("bidirectional nearest", Vlog.Eager.Nearest) ];
  t

let compaction_policy ?(scale = Rigs.Full) () =
  let bursts = match scale with Rigs.Quick -> 4 | Rigs.Full -> 10 in
  let t =
    Table.create ~title:"Ablation: compaction target policy (UFS on VLD, 80% util)"
      ~columns:[ "Policy"; "Latency/4KB (idle 0.3s)"; "Blocks moved" ]
  in
  List.iter
    (fun (label, policy) ->
      let rig = Rigs.rig ~seed:0xAB2L ~compaction:policy "ufs/vld" in
      let file_mb = Rigs.file_mb_for_utilization rig 0.8 in
      let r = Workload.Burst.run ~bursts ~file_mb ~burst_kb:512 ~idle_ms:300. rig in
      let moved =
        match rig.device.vld with
        | Some vld ->
          string_of_int
            (Vlog.Compactor.total (Blockdev.Vld.compactor vld)).Vlog.Compactor.blocks_moved
        | None -> "-"
      in
      Table.add_row t
        [ label; Table.cell_ms r.Workload.Burst.latency_ms_per_block; moved ])
    [
      ("random target (paper)", Vlog.Compactor.Random_target);
      ("emptiest-first", Vlog.Compactor.Emptiest_first);
    ];
  t

(* Formula (9): locate cost of placing one 4 KB logical block out of
   physical allocation units of b sectors, at 50% utilization. *)
let block_size ?(scale = Rigs.Full) () =
  let trials = match scale with Rigs.Quick -> 60 | Rigs.Full -> 400 in
  let profile = Rigs.seagate in
  let n = profile.Disk.Profile.geometry.Disk.Geometry.sectors_per_track in
  let sector_ms = Disk.Profile.sector_ms profile in
  let p = 0.5 in
  let t =
    Table.create
      ~title:"Ablation: physical allocation unit for a 4 KB logical block (formula 9)"
      ~columns:[ "Unit (sectors)"; "Model"; "Simulated" ]
  in
  List.iter
    (fun unit_sectors ->
      let model_ms =
        Models.Track_model.multi_block_skips ~n ~p ~physical:unit_sectors ~logical:8
        *. sector_ms
      in
      (* Simulation: allocate 8/unit units back to back per logical write. *)
      let clock = Clock.create () in
      let disk = Disk.Disk_sim.create ~profile ~clock () in
      let g = Disk.Disk_sim.geometry disk in
      let freemap = Vlog.Freemap.create ~geometry:g ~sectors_per_block:unit_sectors in
      let prng = Prng.create ~seed:0xAB3L in
      Vlog.Freemap.random_occupy freemap prng ~utilization:(1. -. p);
      let eager = Vlog.Eager.create ~mode:Vlog.Eager.Nearest ~disk ~freemap () in
      let n_blocks = Vlog.Freemap.n_blocks freemap in
      let payload = Bytes.make (unit_sectors * g.Disk.Geometry.sector_bytes) 'a' in
      let acc = Stats.Acc.create () in
      for _ = 1 to trials do
        let locate = ref 0. in
        let units = 8 / unit_sectors in
        for _ = 1 to units do
          match Vlog.Eager.choose ~greedy_only:true eager with
          | None -> ()
          | Some b ->
            locate := !locate +. Vlog.Eager.locate_cost eager b;
            Vlog.Freemap.occupy freemap b;
            ignore
              (Disk.Disk_sim.write ~scsi:false disk
                 ~lba:(Vlog.Freemap.lba_of_block freemap b)
                 payload)
        done;
        (* Return the same number of units to the free pool at random. *)
        let freed = ref 0 in
        let attempts = ref 0 in
        while !freed < units && !attempts < 10_000 do
          incr attempts;
          let b = Prng.int prng n_blocks in
          if not (Vlog.Freemap.is_free freemap b) then begin
            Vlog.Freemap.release freemap b;
            incr freed
          end
        done;
        Stats.Acc.add acc !locate
      done;
      Table.add_row t
        [
          string_of_int unit_sectors;
          Table.cell_ms model_ms;
          Table.cell_ms (Stats.Acc.mean acc);
        ])
    [ 1; 2; 4; 8 ];
  t

let map_batching ?(scale = Rigs.Full) () =
  let updates = match scale with Rigs.Quick -> 100 | Rigs.Full -> 600 in
  let clock = Clock.create () in
  let disk =
    Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
      ~profile:Rigs.seagate ~clock ()
  in
  let total_blocks = Disk.Geometry.total_sectors (Disk.Disk_sim.geometry disk) / 8 in
  let logical_blocks = total_blocks - (1 + (total_blocks / 900)) - 8 in
  let vlog =
    Vlog.Virtual_log.format ~disk (Vlog.Virtual_log.default_config ~logical_blocks)
  in
  let freemap = Vlog.Virtual_log.freemap vlog in
  let eager = Vlog.Virtual_log.eager vlog in
  let prng = Prng.create ~seed:0xAB4L in
  let payload = Bytes.make 4096 'm' in
  let data_acc = Stats.Acc.create () and map_acc = Stats.Acc.create () in
  let scsi = Rigs.seagate.Disk.Profile.scsi_overhead_ms in
  for _ = 1 to updates do
    let logical = Prng.int prng logical_blocks in
    match Vlog.Eager.choose ~lead_time:scsi eager with
    | None -> ()
    | Some pba ->
      Vlog.Freemap.occupy freemap pba;
      let data_bd =
        Disk.Disk_sim.write disk ~lba:(Vlog.Freemap.lba_of_block freemap pba) payload
      in
      let map_bd = Vlog.Virtual_log.update vlog [ (logical, Some pba) ] in
      Stats.Acc.add data_acc (Breakdown.total data_bd);
      Stats.Acc.add map_acc (Breakdown.total map_bd)
  done;
  let t =
    Table.create
      ~title:"Ablation: cost of the per-update map-sector write (paper design)"
      ~columns:[ "Component"; "Mean"; "Share" ]
  in
  let data = Stats.Acc.mean data_acc and map = Stats.Acc.mean map_acc in
  Table.add_row t [ "data block write"; Table.cell_ms data; Table.cell_pct (data /. (data +. map)) ];
  Table.add_row t [ "map sector write"; Table.cell_ms map; Table.cell_pct (map /. (data +. map)) ];
  Table.add_row t
    [ "total (vs batched lower bound)"; Table.cell_ms (data +. map); "100.0%" ];
  ignore scale;
  t
