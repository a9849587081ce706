(* Degraded-mode and rebuild-interference numbers for the volume layer:
   synchronous 4 KB random updates against a two-way mirror of VLD legs
   while it is healthy, while one leg is dead, and while the dead leg
   resilvers onto a hot spare; plus the resilver time itself with and
   without that foreground load dirtying the region log. *)

open Vlog_util

let ops_of_scale = function Rigs.Quick -> 30 | Rigs.Full -> 150
let blocks = 256

(* The device half of the mirror-vld rig: no file system on top. *)
let mk_volume () =
  match
    Rig.build_device ~profile:Rigs.seagate ~logical_blocks:blocks
      ~prng:(lazy (Prng.create ~seed:1137L))
      (Rig.D_volume (V_mirror, VL_vld)) Rig.Fresh
  with
  | Ok d -> (Option.get d.volume, d.clock)
  | Error e -> failwith ("volume bench: " ^ e)

let preload vol =
  let dev = Volume.device vol in
  let bb = dev.Blockdev.Device.block_bytes in
  for b = 0 to blocks - 1 do
    ignore (Blockdev.Device.write dev b (Bytes.make bb 'p'))
  done

let measure_updates vol clock ~ops =
  let dev = Volume.device vol in
  let bb = dev.Blockdev.Device.block_bytes in
  let prng = Prng.create ~seed:77L in
  let t0 = Clock.now clock in
  for _ = 1 to ops do
    ignore (Blockdev.Device.write dev (Prng.int prng blocks) (Bytes.make bb 'u'))
  done;
  (Clock.now clock -. t0) /. float_of_int ops

(* Kill one leg, resilver it onto the spare, and pump the rebuild with
   idle slices; when [foreground] is set, interleave the same random
   updates the latency rows use and report their mean latency too. *)
let rebuild_scenario ~ops ~foreground =
  let vol, clock = mk_volume () in
  preload vol;
  Volume.kill vol ~group:0 ~leg:1;
  (match Volume.start_rebuild vol ~group:0 ~leg:1 with
  | Ok () -> ()
  | Error e -> failwith ("volume bench: " ^ e));
  let dev = Volume.device vol in
  let bb = dev.Blockdev.Device.block_bytes in
  let prng = Prng.create ~seed:77L in
  let t_start = Clock.now clock in
  let lat = ref 0. in
  let done_ops = ref 0 in
  let rebuilding () =
    match Volume.state_of vol ~group:0 ~leg:1 with
    | `Rebuilding _ -> true
    | `Healthy | `Suspect | `Dead -> false
  in
  while rebuilding () do
    if foreground && !done_ops < ops then begin
      let t0 = Clock.now clock in
      ignore (Blockdev.Device.write dev (Prng.int prng blocks) (Bytes.make bb 'u'));
      lat := !lat +. (Clock.now clock -. t0);
      incr done_ops
    end;
    dev.Blockdev.Device.idle 5.0
  done;
  let rebuild_ms = Clock.now clock -. t_start in
  let mean = if !done_ops = 0 then nan else !lat /. float_of_int !done_ops in
  (mean, rebuild_ms)

let run ?(scale = Rigs.Full) () =
  let ops = ops_of_scale scale in
  let t =
    Table.create
      ~title:
        "Volume: sync 4 KB updates on a 2-way mirror (vld legs) and mirror \
         rebuild time"
      ~columns:[ "Scenario"; "Latency/4KB"; "Rebuild time" ]
  in
  let healthy =
    let vol, clock = mk_volume () in
    preload vol;
    measure_updates vol clock ~ops
  in
  Table.add_row t [ "healthy"; Table.cell_ms healthy; "-" ];
  let degraded =
    let vol, clock = mk_volume () in
    preload vol;
    Volume.kill vol ~group:0 ~leg:1;
    measure_updates vol clock ~ops
  in
  Table.add_row t [ "degraded (one leg dead)"; Table.cell_ms degraded; "-" ];
  let fg_lat, fg_rebuild = rebuild_scenario ~ops ~foreground:true in
  Table.add_row t
    [ "rebuilding, under load"; Table.cell_ms fg_lat; Table.cell_ms fg_rebuild ];
  let _, idle_rebuild = rebuild_scenario ~ops ~foreground:false in
  Table.add_row t [ "rebuilding, idle volume"; "-"; Table.cell_ms idle_rebuild ];
  t
