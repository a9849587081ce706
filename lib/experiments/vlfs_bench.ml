open Vlog_util

let counts_of_scale = function Rigs.Quick -> (100, 20) | Rigs.Full -> (600, 60)

let sync_updates ?(scale = Rigs.Full) () =
  let updates, warmup = counts_of_scale scale in
  let t =
    Table.create
      ~title:"VLFS: random 4 KB synchronous updates (the paper's speculation)"
      ~columns:[ "Utilization"; "System"; "Latency/4KB" ]
  in
  let configs =
    [
      ("UFS on regular disk", "ufs/regular");
      ("UFS on VLD", "ufs/vld");
      ("VLFS (sync)", "vlfs/direct");
    ]
  in
  List.iter
    (fun target ->
      List.iter
        (fun (label, name) ->
          let rig = Rigs.rig name in
          let file_mb = Rigs.file_mb_for_utilization rig target in
          let compact_first = label <> "UFS on regular disk" in
          let r = Workload.Random_update.run ~updates ~warmup ~compact_first ~file_mb rig in
          Table.add_row t
            [
              Table.cell_pct r.Workload.Random_update.utilization;
              label;
              Table.cell_ms r.Workload.Random_update.mean_latency_ms;
            ])
        configs)
    [ 0.5; 0.8 ];
  t

let buffered_small_files ?(scale = Rigs.Full) () =
  let files = match scale with Rigs.Quick -> 150 | Rigs.Full -> 1500 in
  let t =
    Table.create ~title:"VLFS: buffered small-file workload (LFS's advantage retained)"
      ~columns:[ "System"; "create ms"; "read ms"; "delete ms" ]
  in
  List.iter
    (fun (label, name, vlfs) ->
      let rig = Rigs.rig ?vlfs name in
      let r = Workload.Small_file.run ~files rig in
      Table.add_row t
        [
          label;
          Table.cell_f r.Workload.Small_file.create_ms;
          Table.cell_f r.Workload.Small_file.read_ms;
          Table.cell_f r.Workload.Small_file.delete_ms;
        ])
    [
      ("UFS/regular (baseline)", "ufs/regular", None);
      ("LFS (buffered)", "lfs/regular", None);
      ("VLFS (buffered)", "vlfs/direct", Some Rigs.vlfs_buffered);
    ];
  t

let recovery_cost ?(scale = Rigs.Full) () =
  let files = match scale with Rigs.Quick -> 50 | Rigs.Full -> 400 in
  let run_once ~clean =
    let clock = Clock.create () in
    let disk =
      Disk.Disk_sim.create ~buffer_policy:Disk.Track_buffer.Whole_track
        ~profile:Rigs.seagate ~clock ()
    in
    let fs = Vlfs.format ~disk ~host:Rigs.default_host ~clock Vlfs.default_config in
    for i = 0 to files - 1 do
      let name = Printf.sprintf "r%04d" i in
      (match Vlfs.create fs name with Ok _ -> () | Error _ -> ());
      match Vlfs.write fs name ~off:0 (Bytes.make 8192 'r') with
      | Ok _ | Error _ -> ()
    done;
    if clean then ignore (Vlfs.power_down fs) else ignore (Vlfs.sync fs);
    match Vlfs.recover ~disk ~host:Rigs.default_host () with
    | Ok (_, report) -> report
    | Error e -> failwith e
  in
  let t =
    Table.create ~title:"VLFS: recovery cost (tail record vs scan fallback)"
      ~columns:[ "Shutdown"; "Map recovery"; "Inodes loaded"; "Total" ]
  in
  let row label (r : Vlfs.recovery_report) =
    let path =
      if r.Vlfs.vlog_report.Vlog.Virtual_log.used_tail then
        Printf.sprintf "tail, %d node reads" r.Vlfs.vlog_report.Vlog.Virtual_log.nodes_read
      else
        Printf.sprintf "scan, %d blocks"
          r.Vlfs.vlog_report.Vlog.Virtual_log.blocks_scanned
    in
    Table.add_row t
      [
        label;
        path;
        string_of_int r.Vlfs.inodes_loaded;
        Table.cell_ms (Breakdown.total r.Vlfs.duration);
      ]
  in
  row "clean power-down" (run_once ~clean:true);
  row "crash" (run_once ~clean:false);
  t
