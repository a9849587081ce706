open Vlog_util

let systems =
  [
    ("UFS/regular", "ufs/regular", None);
    ("UFS/VLD", "ufs/vld", None);
    ("LFS (buffered)", "lfs/regular", None);
    ("VLFS (sync)", "vlfs/direct", None);
    ("VLFS (buffered)", "vlfs/direct", Some Rigs.vlfs_buffered);
  ]

let run ?(scale = Rigs.Full) () =
  let transactions, operations =
    match scale with Rigs.Quick -> (60, 400) | Rigs.Full -> (300, 2000)
  in
  let t =
    Table.create ~title:"Application workloads across all five systems"
      ~columns:
        [ "System"; "TPC-B mean"; "TPC-B p90"; "Postmark ops/s" ]
  in
  List.iter
    (fun (label, name, vlfs) ->
      let txn =
        Workload.App_workloads.tpcb ~transactions (Rigs.rig ~seed:0xA11L ?vlfs name)
      in
      let churn =
        Workload.App_workloads.postmark ~operations (Rigs.rig ~seed:0xA12L ?vlfs name)
      in
      Table.add_row t
        [
          label;
          Table.cell_ms txn.Workload.App_workloads.mean_ms;
          Table.cell_ms txn.Workload.App_workloads.p90_ms;
          Table.cell_f churn.Workload.App_workloads.ops_per_sec;
        ])
    systems;
  t
