open Vlog_util

type point = {
  file_mb : float;
  utilization : float;
  latency_ms : float;
  p50_ms : float;
  p99_ms : float;
}
type series = { label : string; points : point list }

type cell = { c_system : int; c_file_mb : float }

let configs =
  [
    ("UFS on Regular Disk", "ufs/regular");
    ("UFS on VLD", "ufs/vld");
    ("LFS with NVRAM on Regular Disk", "lfs/regular");
  ]

(* Updates must comfortably exceed the NVRAM capacity (1561 blocks) so
   that LFS reaches the flush-and-clean steady state the paper measures
   once the file outgrows the buffer. *)
let sizes_of_scale = function
  | Rigs.Quick -> ([ 2.; 8. ], 120, 20)
  | Rigs.Full -> ([ 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16.; 17.5; 19. ], 4000, 200)

let cells ~scale =
  let file_sizes, _, _ = sizes_of_scale scale in
  List.concat
    (List.mapi
       (fun ci _ -> List.map (fun file_mb -> { c_system = ci; c_file_mb = file_mb }) file_sizes)
       configs)

let cell_label c =
  let label, _ = List.nth configs c.c_system in
  Printf.sprintf "%s, %.1f MB" label c.c_file_mb

(* Every cell builds its own rig from a constant seed — nothing flows
   between cells, so they can run in any order or in parallel. *)
let run_cell ~scale c =
  let _, updates, warmup = sizes_of_scale scale in
  let rig = Rigs.rig (snd (List.nth configs c.c_system)) in
  (* LFS cannot hold files close to the raw device size (segment
     reserve); skip infeasible points rather than fake them. *)
  match Workload.Random_update.run ~updates ~warmup ~file_mb:c.c_file_mb rig with
  | r ->
    Some
      {
        file_mb = c.c_file_mb;
        utilization = r.Workload.Random_update.utilization;
        latency_ms = r.Workload.Random_update.mean_latency_ms;
        p50_ms = r.Workload.Random_update.p50_ms;
        p99_ms = r.Workload.Random_update.p99_ms;
      }
  | exception Failure _ -> None

let collate results =
  List.mapi
    (fun ci (label, _) ->
      {
        label;
        points =
          List.filter_map
            (fun (c, p) -> if c.c_system = ci then p else None)
            results;
      })
    configs

let series ?(scale = Rigs.Full) () =
  collate (List.map (fun c -> (c, run_cell ~scale c)) (cells ~scale))

let table_of all =
  let t =
    Table.create
      ~title:
        "Figure 8: random 4 KB synchronous update latency vs disk utilization"
      ~columns:
        [ "File MB"; "System"; "Utilization"; "Latency/4KB"; "p50"; "p99" ]
  in
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          Table.add_row t
            [
              Table.cell_f ~decimals:1 p.file_mb;
              s.label;
              Table.cell_pct p.utilization;
              Table.cell_ms p.latency_ms;
              Table.cell_ms p.p50_ms;
              Table.cell_ms p.p99_ms;
            ])
        s.points)
    all;
  t

let run ?(scale = Rigs.Full) () = table_of (series ~scale ())
