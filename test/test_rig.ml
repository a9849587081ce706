(* The rig vocabulary: the string codec accepts exactly the rigs the
   builder can build, and every one of them builds. *)

open Vlog_util

let ufs_lfs_devices =
  "vld, regular, stripe-regular, stripe-vld, mirror-regular, mirror-vld, \
   raid10-regular, raid10-vld, nvm-regular, nvm-vld"

(* Every fs x dev pair: an accepted name decodes to its own rig, a
   refused one gets the message naming the devices its file system runs
   on. *)
let test_codec_pairs () =
  List.iter
    (fun fs ->
      List.iter
        (fun on ->
          let r = { Rig.fs; on } in
          let name = Rig.rig_name r in
          match (List.mem r Rig.every_rig, Rig.rig_of_string name) with
          | true, Ok r' when r' = r -> ()
          | true, _ -> Alcotest.failf "%s does not round-trip" name
          | false, Ok _ -> Alcotest.failf "%s accepted, but it cannot be built" name
          | false, Error e ->
            let legal = if fs = Rig.F_vlfs then "direct" else ufs_lfs_devices in
            Alcotest.(check string)
              (name ^ " refused")
              (Printf.sprintf "rig %S: %s runs on %s" name (Rig.fs_name fs) legal)
              e)
        Rig.dev_kinds)
    Rig.fs_kinds;
  Alcotest.(check int) "buildable rigs" 21 (List.length Rig.every_rig);
  List.iter
    (fun r ->
      if not (List.mem r Rig.every_rig) then
        Alcotest.failf "%s is in all_rigs, not every_rig" (Rig.rig_name r))
    Rig.all_rigs

let test_codec_unknown () =
  List.iter
    (fun (s, expected) ->
      match Rig.rig_of_string s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error e -> Alcotest.(check string) s expected e)
    [
      ("ufs", "unknown rig \"ufs\" (want fs/dev)");
      ("ufs/vld/x", "unknown rig \"ufs/vld/x\" (want fs/dev)");
      ("zfs/vld", "unknown rig \"zfs/vld\"");
      ("ufs/ssd", "unknown rig \"ufs/ssd\"");
      ("ufs/mirror-ssd", "unknown rig \"ufs/mirror-ssd\"");
    ]

(* Each buildable rig comes up fresh at default sizing, as [vlsim
   latency --rig] and [vlsim trace --rig] build it, and its ops face
   stores and returns data. *)
let test_every_rig_builds () =
  let profile = Disk.Profile.with_cylinders Disk.Profile.st19101 6 in
  List.iter
    (fun rig ->
      let name = Rig.rig_name rig in
      match Rig.build ~profile ~prng:(Prng.create ~seed:5L) rig Rig.Fresh with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok st ->
        let o = st.ops in
        let data = Bytes.make o.block_bytes 'r' in
        ignore (Rig.ok_exn (o.create "f"));
        ignore (Rig.ok_exn (o.write "f" ~off:0 data));
        ignore (o.sync ());
        o.drop_caches ();
        let got, _ = Rig.ok_exn (o.read "f" ~off:0 ~len:o.block_bytes) in
        Alcotest.(check bytes) name data got)
    Rig.every_rig

(* The CLI next to this test binary in the build tree. *)
let vlsim =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/vlsim.exe"

(* An unbuildable rig is a usage error up front, not a failed cell. *)
let test_cli_refuses () =
  List.iter
    (fun args ->
      let rc =
        Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote vlsim) args)
      in
      Alcotest.(check int) (Printf.sprintf "vlsim %s exits 2" args) 2 rc)
    [
      "trace small-file --rig vlfs/regular";
      "latency --quick --rig ufs/direct";
      "fssweep --repro 'rig=ufs/direct,seed=9203,kind=torn,trigger=5,case=0'";
    ]

let suites =
  [
    ( "rig",
      [
        Alcotest.test_case "codec: every fs x dev pair" `Quick test_codec_pairs;
        Alcotest.test_case "codec: unknown names" `Quick test_codec_unknown;
        Alcotest.test_case "every rig builds and stores" `Quick test_every_rig_builds;
        Alcotest.test_case "cli refuses unbuildable rigs" `Quick test_cli_refuses;
      ] );
  ]
