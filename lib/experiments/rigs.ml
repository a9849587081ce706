open Vlog_util

type scale = Quick | Full

let nvram_blocks = Lfs.default_config.Lfs.buffer_blocks
let seagate = Disk.Profile.st19101
let hp = Disk.Profile.hp97560
let default_host = Host.sparc10
let vlfs_buffered = { Vlfs.default_config with Vlfs.sync_writes = false }

let rig ?(seed = 0x5EEDL) ?(profile = seagate) ?(host = default_host) ?vlfs ?eager_mode
    ?compaction name =
  let rig =
    match Rig.rig_of_string name with Ok r -> r | Error e -> invalid_arg ("Rigs.rig: " ^ e)
  in
  match
    Rig.build ~profile ~host ?vlfs ?eager_mode ?compaction ~prng:(Prng.create ~seed) rig
      Rig.Fresh
  with
  | Ok st -> st
  | Error e -> failwith ("Rigs.rig: " ^ e)

let the_four ?(seed = 0x5EEDL) () =
  let labelled name =
    let st = rig ~seed name in
    (Rig.label st.Rig.rig, st)
  in
  [
    labelled "ufs/regular"; labelled "ufs/vld"; labelled "lfs/regular"; labelled "lfs/vld";
  ]

let device_mb (st : Rig.stack) =
  let dev = st.device.dev in
  float_of_int (dev.Blockdev.Device.n_blocks * dev.Blockdev.Device.block_bytes)
  /. 1048576.

let file_mb_for_utilization t target =
  if target <= 0. || target >= 1. then
    invalid_arg "Rigs.file_mb_for_utilization: target must be in (0,1)";
  (* Leave a little room for metadata (inode table, segment summaries). *)
  Float.max 0.5 ((target -. 0.03) *. device_mb t)
