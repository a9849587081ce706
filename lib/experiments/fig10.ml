open Vlog_util

type point = { idle_s : float; latency_ms : float }
type curve = { burst_kb : int; points : point list }

type cell = { c_burst_kb : int; c_idle_s : float }

let params_of_scale = function
  | Rigs.Quick -> ([ 128; 1008 ], [ 0.; 1.; 3. ], 1.5)
  | Rigs.Full ->
    ([ 128; 256; 504; 1008; 2016; 4032 ], [ 0.; 0.25; 0.5; 1.; 2.; 3.; 5.; 7. ], 4.)

(* Enough bursts that the NVRAM fills (and flushes) several times — the
   steady state the paper measures. *)
let bursts_for ~nvram_fills burst_kb =
  let burst_blocks = burst_kb * 1024 / 4096 in
  let need = int_of_float (nvram_fills *. float_of_int Rigs.nvram_blocks) in
  max 8 (min 200 ((need + burst_blocks - 1) / burst_blocks))

let grid burst_sizes idles_s =
  List.concat_map
    (fun burst_kb ->
      List.map (fun idle_s -> { c_burst_kb = burst_kb; c_idle_s = idle_s }) idles_s)
    burst_sizes

let cells ~scale =
  let burst_sizes, idles_s, _ = params_of_scale scale in
  grid burst_sizes idles_s

let cell_label c = Printf.sprintf "%dK burst, %.2fs idle" c.c_burst_kb c.c_idle_s

(* Coordinate-seeded: the rig comes from a constant seed, so the cell is
   independent of every other cell and safe to run in parallel. *)
let run_cell ~scale c =
  let _, _, nvram_fills = params_of_scale scale in
  let rig = Rigs.rig "lfs/regular" in
  let file_mb = Rigs.file_mb_for_utilization rig 0.8 in
  let r =
    Workload.Burst.run
      ~bursts:(bursts_for ~nvram_fills c.c_burst_kb)
      ~file_mb ~burst_kb:c.c_burst_kb ~idle_ms:(c.c_idle_s *. 1000.) rig
  in
  { idle_s = c.c_idle_s; latency_ms = r.Workload.Burst.latency_ms_per_block }

let collate results =
  let bursts =
    List.fold_left
      (fun acc (c, _) ->
        if List.mem c.c_burst_kb acc then acc else acc @ [ c.c_burst_kb ])
      [] results
  in
  List.map
    (fun burst_kb ->
      {
        burst_kb;
        points =
          List.filter_map
            (fun (c, p) -> if c.c_burst_kb = burst_kb then Some p else None)
            results;
      })
    bursts

let series ?(scale = Rigs.Full) () =
  collate (List.map (fun c -> (c, run_cell ~scale c)) (cells ~scale))

let table_of ~title curves =
  match curves with
  | [] -> Table.create ~title ~columns:[ "Idle (s)" ]
  | first :: _ ->
    let t =
      Table.create ~title
        ~columns:
          ("Idle (s)"
          :: List.map (fun c -> Printf.sprintf "%dK" c.burst_kb) curves)
    in
    List.iteri
      (fun i p ->
        Table.add_row t
          (Table.cell_f p.idle_s
          :: List.map (fun c -> Table.cell_ms (List.nth c.points i).latency_ms) curves))
      first.points;
    t

let run ?(scale = Rigs.Full) () =
  table_of ~title:"Figure 10: LFS (with NVRAM) latency vs idle interval" (series ~scale ())
