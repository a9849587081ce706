type point = { idle_s : float; latency_ms : float }
type curve = { burst_kb : int; points : point list }

type cell = { c_burst_kb : int; c_idle_s : float }

let params_of_scale = function
  | Rigs.Quick -> ([ 128; 1024 ], [ 0.; 0.2; 0.6 ], 1000)
  | Rigs.Full ->
    ( [ 128; 256; 512; 1024; 2048; 4096 ],
      [ 0.; 0.05; 0.1; 0.2; 0.3; 0.45; 0.6 ],
      4000 )

(* Enough total updates that the compactor's pre-measurement head start
   is consumed and the steady burst/idle rhythm dominates. *)
let bursts_for ~total_blocks burst_kb =
  let burst_blocks = burst_kb * 1024 / 4096 in
  max 8 (min 150 ((total_blocks + burst_blocks - 1) / burst_blocks))

let cells ~scale =
  let burst_sizes, idles_s, _ = params_of_scale scale in
  List.concat_map
    (fun burst_kb ->
      List.map (fun idle_s -> { c_burst_kb = burst_kb; c_idle_s = idle_s }) idles_s)
    burst_sizes

let cell_label c = Printf.sprintf "%dK burst, %.2fs idle" c.c_burst_kb c.c_idle_s

(* Coordinate-seeded like Fig10's cells: no state crosses cells. *)
let run_cell ~scale c =
  let _, _, total_blocks = params_of_scale scale in
  let rig = Rigs.rig "ufs/vld" in
  let file_mb = Rigs.file_mb_for_utilization rig 0.8 in
  let r =
    Workload.Burst.run
      ~bursts:(bursts_for ~total_blocks c.c_burst_kb)
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

let table_of curves =
  let fig10_curves =
    List.map
      (fun c ->
        {
          Fig10.burst_kb = c.burst_kb;
          points =
            List.map
              (fun p -> { Fig10.idle_s = p.idle_s; latency_ms = p.latency_ms })
              c.points;
        })
      curves
  in
  Fig10.table_of ~title:"Figure 11: UFS on VLD latency vs idle interval" fig10_curves

let run ?(scale = Rigs.Full) () = table_of (series ~scale ())
