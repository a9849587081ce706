(* VLFS demo: the file system the paper designed but never built
   (Section 3.3), running as the disk's firmware.

   Shows the three headline properties: cheap synchronous writes, a
   compactor that is an optimization rather than a cleaner on the write
   path, and recovery that bootstraps from the log tail with no
   roll-forward.

   Run with:  dune exec examples/vlfs_demo.exe *)

open Vlog_util

let () =
  let st = Experiments.Rigs.rig "vlfs/direct" in
  let fs = match st.Rig.typed with Rig.T_vlfs fs -> fs | _ -> assert false in
  let clock = st.device.clock and disk = (st.device.drives ()).(0) in
  let ok = function
    | Ok v -> v
    | Error e -> failwith (Format.asprintf "%a" Vlfs.pp_error e)
  in

  (* A database-ish file, updated synchronously. *)
  ignore (ok (Vlfs.create fs "ledger"));
  ignore (ok (Vlfs.write fs "ledger" ~off:0 (Bytes.make (512 * 4096) 'L')));
  let prng = Prng.create ~seed:11L in
  let t0 = Clock.now clock in
  let n = 200 in
  for _ = 1 to n do
    ignore (ok (Vlfs.write fs "ledger" ~off:(Prng.int prng 512 * 4096) (Bytes.make 4096 'u')))
  done;
  Format.printf "synchronous 4 KB update: %.3f ms each (data + inode + map, all eager)@."
    ((Clock.now clock -. t0) /. float_of_int n);

  (* Fragment the disk, compact it in an idle window. *)
  for i = 0 to 39 do
    ignore (ok (Vlfs.create fs (Printf.sprintf "tmp%02d" i)));
    ignore (ok (Vlfs.write fs (Printf.sprintf "tmp%02d" i) ~off:0 (Bytes.make 16384 't')))
  done;
  for i = 0 to 39 do
    if i mod 2 = 0 then ignore (ok (Vlfs.delete fs (Printf.sprintf "tmp%02d" i)))
  done;
  Vlfs.idle fs 5000.;
  let cs = Vlfs.compaction_stats fs in
  Format.printf "idle compaction: %d tracks emptied, %d blocks hole-plugged@."
    cs.Vlfs.tracks_emptied cs.Vlfs.blocks_moved;

  (* Power down, recover on the same drive, verify. *)
  ignore (Vlfs.power_down fs);
  match Vlfs.recover ~disk ~host:Host.sparc10 () with
  | Error e -> Format.printf "recovery failed: %s@." e
  | Ok (fs2, r) ->
    Format.printf
      "recovered %d inodes / %d files in %.2f ms (tail record: %b, no roll-forward)@."
      r.Vlfs.inodes_loaded r.Vlfs.files_found
      (Breakdown.total r.Vlfs.duration)
      r.Vlfs.vlog_report.Vlog.Virtual_log.used_tail;
    let got, _ =
      match Vlfs.read fs2 "ledger" ~off:0 ~len:4 with
      | Ok v -> v
      | Error e -> failwith (Format.asprintf "%a" Vlfs.pp_error e)
    in
    Format.printf "ledger intact after recovery: %S@." (Bytes.to_string got)
