(* File-system-level crash/fault sweep: the generalization of
   [Fault.Sweep] (which exercises the virtual log disk alone) one layer
   up.  Each cell of the (rig x fault kind x trigger) matrix runs a
   seeded metadata-heavy workload against a real file system stack with
   a fault plan installed, freezes the platters when the fault cuts the
   power (or after a clean shutdown when it does not), remounts from the
   frozen image on a fresh drive, and then holds the recovered system to
   account three ways:

   - fsck: the per-FS invariant checker must come back clean, except for
     honest media findings under single-copy damage;
   - durability oracle: the recovered namespace and content must be a
     legal post-crash state of the operation history (strict old-or-new
     for power cuts and torn writes; regression-tolerant but
     fabrication-free for bit rot and grown defects);
   - idempotence: remounting the recovered system's platters again must
     produce the same namespace, sizes, and degradation.

   Regular-disk rigs skip [Grown_defect]: a plain disk's remap table is
   volatile firmware state here, so the data behind a defect is honestly
   gone after remount — there is nothing to assert except loss. *)

open Vlog_util

type fs_kind = F_ufs | F_lfs | F_vlfs

(* Volume rigs put the file system on a [Volume] built over several
   drives; the layout names fix small canonical shapes (mirror = 2-way,
   stripe = 2 groups, raid10 = 2 x 2) so a rig string like
   "ufs/mirror-vld" pins the whole topology. *)
type vol_layout = V_stripe | V_mirror | V_raid10
type vol_leg = VL_regular | VL_vld

(* NVM-WAL rigs put an [Nvm_wal] staging tier in front of the logical
   disk; the backing name says what the destager drains into. *)
type wal_backing = W_regular | W_vld

type dev_kind =
  | D_vld
  | D_regular
  | D_direct
  | D_volume of vol_layout * vol_leg
  | D_nvm of wal_backing

type rig = { fs : fs_kind; on : dev_kind }

let fs_name = function F_ufs -> "ufs" | F_lfs -> "lfs" | F_vlfs -> "vlfs"

let vol_layout_name = function
  | V_stripe -> "stripe"
  | V_mirror -> "mirror"
  | V_raid10 -> "raid10"

let vol_leg_name = function VL_regular -> "regular" | VL_vld -> "vld"

let wal_backing_name = function W_regular -> "regular" | W_vld -> "vld"

let dev_name = function
  | D_vld -> "vld"
  | D_regular -> "regular"
  | D_direct -> "direct"
  | D_volume (l, k) -> vol_layout_name l ^ "-" ^ vol_leg_name k
  | D_nvm b -> "nvm-" ^ wal_backing_name b

let rig_name r = fs_name r.fs ^ "/" ^ dev_name r.on

let rig_of_string s =
  match String.split_on_char '/' s with
  | [ fs; on ] -> (
    let fsk =
      match fs with
      | "ufs" -> Some F_ufs
      | "lfs" -> Some F_lfs
      | "vlfs" -> Some F_vlfs
      | _ -> None
    in
    let onk =
      match on with
      | "vld" -> Some D_vld
      | "regular" -> Some D_regular
      | "direct" -> Some D_direct
      | "nvm-regular" -> Some (D_nvm W_regular)
      | "nvm-vld" -> Some (D_nvm W_vld)
      | _ -> (
        match String.split_on_char '-' on with
        | [ l; k ] -> (
          let lay =
            match l with
            | "stripe" -> Some V_stripe
            | "mirror" -> Some V_mirror
            | "raid10" -> Some V_raid10
            | _ -> None
          in
          let leg =
            match k with
            | "regular" -> Some VL_regular
            | "vld" -> Some VL_vld
            | _ -> None
          in
          match (lay, leg) with
          | Some l, Some k -> Some (D_volume (l, k))
          | _ -> None)
        | _ -> None)
    in
    match (fsk, onk) with
    | Some F_vlfs, Some (D_volume _) ->
      Error "vlfs runs directly on the platters; it has no volume rig"
    | Some F_vlfs, Some (D_nvm _) ->
      Error "vlfs runs directly on the platters; it has no nvm rig"
    | Some fs, Some on -> Ok { fs; on }
    | _ -> Error (Printf.sprintf "unknown rig %S" s))
  | _ -> Error (Printf.sprintf "unknown rig %S (want fs/dev)" s)

let all_rigs =
  [
    { fs = F_ufs; on = D_vld };
    { fs = F_ufs; on = D_regular };
    { fs = F_lfs; on = D_vld };
    { fs = F_lfs; on = D_regular };
    { fs = F_vlfs; on = D_direct };
  ]

type config = {
  seed : int64;
  ops : int;
  cylinders : int;
  logical_blocks : int;
  triggers : int list;
  kinds : Fault.Plan.kind list;
  rigs : rig list;
  vol_triggers : int list;
  vol_kinds : Fault.Plan.kind list;
  vol_rigs : rig list;
      (** the volume slice of the matrix runs its own (rig x kind x
          trigger) product, since whole-drive faults only make sense
          against a multi-drive volume and need fewer triggers to cover
          the interesting phases *)
  wal_triggers : int list;
  wal_kinds : Fault.Plan.kind list;
  wal_rigs : rig list;
      (** the NVM-WAL slice: staged rigs whose durability point is the
          NVM persist barrier, struck by the [Nvm_*] kinds *)
}

let default_vol_rigs =
  [
    { fs = F_ufs; on = D_volume (V_mirror, VL_vld) };
    { fs = F_lfs; on = D_volume (V_mirror, VL_vld) };
    { fs = F_ufs; on = D_volume (V_mirror, VL_regular) };
    { fs = F_ufs; on = D_volume (V_raid10, VL_vld) };
  ]

let default =
  {
    seed = 9203L;
    ops = 30;
    cylinders = 3;
    logical_blocks = 300;
    triggers = [ 0; 2; 5; 9; 14; 20; 33 ];
    kinds =
      [
        Fault.Plan.Power_cut;
        Fault.Plan.Torn_write;
        Fault.Plan.Grown_defect;
        Fault.Plan.Bit_rot;
        Fault.Plan.Transient_read 2;
      ];
    rigs = all_rigs;
    vol_triggers = [ 0; 5; 14 ];
    vol_kinds =
      [
        Fault.Plan.Power_cut;
        Fault.Plan.Torn_write;
        Fault.Plan.Bit_rot;
        Fault.Plan.Drive_death;
        Fault.Plan.Drive_hang 40.;
        Fault.Plan.Drive_flaky 3;
        Fault.Plan.Latent_sectors 16;
      ];
    vol_rigs = default_vol_rigs;
    wal_triggers = [ 0; 2; 5; 9 ];
    wal_kinds =
      [
        Fault.Plan.Nvm_cut;
        Fault.Plan.Nvm_torn;
        Fault.Plan.Nvm_destage_cut;
        Fault.Plan.Nvm_full;
      ];
    wal_rigs =
      [ { fs = F_ufs; on = D_nvm W_vld }; { fs = F_ufs; on = D_nvm W_regular } ];
  }

(* CI smoke: one damaging kind, two triggers, one rig per file system,
   plus a mirrored volume losing a whole drive. *)
let smoke =
  {
    default with
    kinds = [ Fault.Plan.Torn_write ];
    triggers = [ 2; 9 ];
    rigs =
      [
        { fs = F_ufs; on = D_vld };
        { fs = F_lfs; on = D_vld };
        { fs = F_vlfs; on = D_direct };
      ];
    vol_triggers = [ 2; 9 ];
    vol_kinds = [ Fault.Plan.Drive_death ];
    vol_rigs = [ { fs = F_ufs; on = D_volume (V_mirror, VL_vld) } ];
    wal_triggers = [ 2; 9 ];
    wal_kinds = [ Fault.Plan.Nvm_torn; Fault.Plan.Nvm_destage_cut ];
    wal_rigs = [ { fs = F_ufs; on = D_nvm W_vld } ];
  }

type cell = { rig : rig; kind : Fault.Plan.kind; trigger : int; case : int }

(* ---- Rig plumbing ---- *)

let profile c = Disk.Profile.with_cylinders Disk.Profile.st19101 c.cylinders

let sector_bytes c =
  (profile c).Disk.Profile.geometry.Disk.Geometry.sector_bytes

let make_disk ?store c rig clock =
  let buffer_policy =
    match rig.on with
    | D_regular | D_volume (_, VL_regular) | D_nvm W_regular ->
      Disk.Track_buffer.Forward_discard
    | D_vld | D_direct | D_volume (_, VL_vld) | D_nvm W_vld ->
      Disk.Track_buffer.Whole_track
  in
  Disk.Disk_sim.create ~buffer_policy ?store ~profile:(profile c) ~clock ()

let spare_blocks = 8

let ufs_cfg =
  { Ufs.sync_data = true; n_inodes = 64; cache_blocks = 64; readahead_blocks = 2 }

let lfs_cfg =
  {
    Lfs.default_config with
    Lfs.segment_blocks = 16;
    buffer_blocks = 8;
    cache_blocks = 32;
    reserve_segments = 2;
    checkpoint_interval = 2;
    n_inodes = 64;
  }

let vlfs_cfg =
  {
    Vlfs.default_config with
    Vlfs.n_inodes = 32;
    sync_writes = true;
    buffer_blocks = 16;
    cache_blocks = 32;
  }

(* A mounted file system behind one face, so the workload, the oracle
   view, and the fsck step are written once for all three. *)
type ops = {
  o_create : string -> (unit, Blockdev.Fs_error.t) result;
  o_write : string -> off:int -> Bytes.t -> (unit, Blockdev.Fs_error.t) result;
  o_read : string -> off:int -> len:int -> (Bytes.t, Blockdev.Fs_error.t) result;
  o_delete : string -> (unit, Blockdev.Fs_error.t) result;
  o_sync : unit -> unit;
  o_shutdown : unit -> unit;
  o_files : unit -> string list;
  o_size : string -> (int, Blockdev.Fs_error.t) result;
  o_mode : unit -> [ `Rw | `Degraded of string ];
  o_check : unit -> Report.t;
  o_block_bytes : int;
  o_sync_each : bool; (* every committed operation is a durability point *)
}

let wrap_ufs t =
  {
    o_create = (fun n -> Result.map ignore (Ufs.create t n));
    o_write = (fun n ~off b -> Result.map ignore (Ufs.write t n ~off b));
    o_read = (fun n ~off ~len -> Result.map fst (Ufs.read t n ~off ~len));
    o_delete = (fun n -> Result.map ignore (Ufs.delete t n));
    o_sync = (fun () -> ignore (Ufs.sync t));
    o_shutdown = (fun () -> ignore (Ufs.sync t));
    o_files = (fun () -> Ufs.files t);
    o_size = (fun n -> Ufs.file_size t n);
    o_mode = (fun () -> Ufs.mode t);
    o_check = (fun () -> Ufs_check.check t);
    o_block_bytes = Ufs.block_bytes t;
    o_sync_each = ufs_cfg.Ufs.sync_data;
  }

let wrap_lfs t =
  {
    o_create = (fun n -> Result.map ignore (Lfs.create t n));
    o_write = (fun n ~off b -> Result.map ignore (Lfs.write t n ~off b));
    o_read = (fun n ~off ~len -> Result.map fst (Lfs.read t n ~off ~len));
    o_delete = (fun n -> Result.map ignore (Lfs.delete t n));
    o_sync = (fun () -> ignore (Lfs.sync t));
    o_shutdown = (fun () -> ignore (Lfs.power_down t));
    o_files = (fun () -> Lfs.files t);
    o_size = (fun n -> Lfs.file_size t n);
    o_mode = (fun () -> Lfs.mode t);
    o_check = (fun () -> Lfs_check.check t);
    o_block_bytes = Lfs.block_bytes t;
    o_sync_each = false;
  }

let wrap_vlfs t =
  {
    o_create = (fun n -> Result.map ignore (Vlfs.create t n));
    o_write = (fun n ~off b -> Result.map ignore (Vlfs.write t n ~off b));
    o_read = (fun n ~off ~len -> Result.map fst (Vlfs.read t n ~off ~len));
    o_delete = (fun n -> Result.map ignore (Vlfs.delete t n));
    o_sync = (fun () -> ignore (Vlfs.sync t));
    o_shutdown = (fun () -> ignore (Vlfs.power_down t));
    o_files = (fun () -> Vlfs.files t);
    o_size = (fun n -> Vlfs.file_size t n);
    o_mode = (fun () -> Vlfs.mode t);
    o_check = (fun () -> Vlfs_check.check t);
    o_block_bytes = Vlog.Virtual_log.block_bytes (Vlfs.vlog t);
    o_sync_each = vlfs_cfg.Vlfs.sync_writes;
  }

let fresh_dev c rig ~disk ~prng =
  match rig.on with
  | D_vld ->
    Blockdev.Vld.device
      (Blockdev.Vld.create ~disk ~logical_blocks:c.logical_blocks ~prng ())
  | D_regular ->
    Blockdev.Regular_disk.device
      (Blockdev.Regular_disk.create ~disk ~spare_blocks ())
  | D_direct -> invalid_arg "direct rigs have no logical-disk layer"
  | D_volume _ -> invalid_arg "volume rigs build their device in run_volume_cell"
  | D_nvm _ -> invalid_arg "nvm rigs build their device in run_wal_cell"

let fresh_fs c rig ~disk ~clock ~prng =
  match rig.fs with
  | F_vlfs -> wrap_vlfs (Vlfs.format ~disk ~host:Host.free ~clock vlfs_cfg)
  | F_ufs ->
    wrap_ufs
      (Ufs.format ~dev:(fresh_dev c rig ~disk ~prng) ~host:Host.free ~clock
         ufs_cfg)
  | F_lfs ->
    wrap_lfs
      (Lfs.format ~dev:(fresh_dev c rig ~disk ~prng) ~host:Host.free ~clock
         lfs_cfg)

(* Remount from the platters; [notes] surfaces the recovery counters the
   mount reported (orphans cleared, dangling entries dropped, inodes
   skipped) for fsck presentation. *)
let mount_fs rig ~disk ~clock ~prng : (ops * (string * int) list, string) result
    =
  let ( let* ) = Result.bind in
  let* dev =
    match rig.on with
    | D_direct -> Ok None
    | D_regular ->
      Ok
        (Some
           (Blockdev.Regular_disk.device
              (Blockdev.Regular_disk.create ~disk ~spare_blocks ())))
    | D_vld -> (
      match Blockdev.Vld.recover ~disk ~prng () with
      | Ok (vld, _) -> Ok (Some (Blockdev.Vld.device vld))
      | Error e -> Error ("vld: " ^ e))
    | D_volume _ ->
      Error "volume rigs recover all their legs in run_volume_cell"
    | D_nvm _ -> Error "nvm rigs replay their log in run_wal_cell"
  in
  match (rig.fs, dev) with
  | F_vlfs, None -> (
    match Vlfs.recover ~disk ~host:Host.free ~config:vlfs_cfg () with
    | Error e -> Error ("vlfs: " ^ e)
    | Ok (t, r) ->
      Ok
        ( wrap_vlfs t,
          [
            ("inodes_skipped", r.Vlfs.inodes_skipped);
            ("dangling_dropped", r.Vlfs.dangling_dropped);
          ] ))
  | F_ufs, Some dev -> (
    match Ufs.mount ~dev ~host:Host.free ~clock ufs_cfg with
    | Error e -> Error ("ufs: " ^ e)
    | Ok (t, r) ->
      Ok
        ( wrap_ufs t,
          [
            ("orphans_cleared", r.Ufs.orphans_cleared);
            ("dangling_dropped", r.Ufs.dangling_dropped);
          ] ))
  | F_lfs, Some dev -> (
    match Lfs.recover ~dev ~host:Host.free ~clock lfs_cfg with
    | Error e -> Error ("lfs: " ^ e)
    | Ok (t, r) ->
      Ok
        ( wrap_lfs t,
          [
            ("inodes_skipped", r.Lfs.inodes_skipped);
            ("dangling_dropped", r.Lfs.dangling_dropped);
            ("corrupt_items", r.Lfs.corrupt_items);
          ] ))
  | _ -> Error "rig mismatch"

(* ---- The sweep itself ---- *)

(* Distinct committed-content tag per write: identifies which attempted
   version a recovered sector carries, never '\000' (= hole/absent). *)
let tag ~version = Char.chr (1 + (version * 53 mod 255))

let workload_time = function
  | Fault.Plan.Torn_write | Fault.Plan.Bit_rot | Fault.Plan.Grown_defect
  | Fault.Plan.Power_cut ->
    true
  (* drive-level faults strike a running volume leg; recovery-time
     injection would miss the degraded-mode machinery entirely *)
  | Fault.Plan.Drive_death | Fault.Plan.Drive_hang _ | Fault.Plan.Drive_flaky _
  | Fault.Plan.Latent_sectors _ ->
    true
  (* NVM kinds cut the power while the staged workload runs, whether the
     strike lands on the persist barrier or on a destage write *)
  | Fault.Plan.Nvm_cut | Fault.Plan.Nvm_torn | Fault.Plan.Nvm_destage_cut
  | Fault.Plan.Nvm_full ->
    true
  | Fault.Plan.Transient_read _ -> false

(* A regular disk's grown-defect remap table is volatile here: after a
   remount the data behind the defect is honestly gone, so the cell has
   nothing to assert and is excluded from the matrix — also per leg of a
   volume, where the stale pre-remap sector would poison the resync.
   Drive-level kinds conversely need a multi-drive volume to mean
   anything, so single-spindle rigs skip them. *)
let excluded rig kind =
  match rig.on with
  | D_regular ->
    kind = Fault.Plan.Grown_defect || Fault.Plan.is_nvm_kind kind
  | D_vld | D_direct ->
    Fault.Plan.is_drive_kind kind || Fault.Plan.is_nvm_kind kind
  | D_volume (_, VL_regular) ->
    kind = Fault.Plan.Grown_defect || Fault.Plan.is_nvm_kind kind
  | D_volume (_, VL_vld) -> Fault.Plan.is_nvm_kind kind
  (* the WAL slice is about the staging tier's persistence boundary;
     media and drive kinds stay with the plain and volume slices *)
  | D_nvm _ -> not (Fault.Plan.is_nvm_kind kind)

let view_of fso =
  {
    Oracle.v_files = (fun () -> fso.o_files ());
    v_size =
      (fun n ->
        match fso.o_size n with
        | Ok s -> Some s
        | Error _ -> None
        | exception Blockdev.Device.Io_error _ -> None);
    v_read_block =
      (fun n fb ->
        match
          fso.o_read n ~off:(fb * fso.o_block_bytes) ~len:fso.o_block_bytes
        with
        | Ok buf -> if Bytes.length buf = 0 then Error `Gone else Ok buf
        | Error (`Io _) -> Error `Io
        | Error _ -> Error `Gone
        | exception Blockdev.Device.Io_error _ -> Error `Io);
  }

(* Metadata-heavy seeded workload: creates, deletes, small (fragment-
   sized) and block-sized writes over a handful of names.  The model
   is updated around each operation; a raised [Power_cut] freezes the
   workload mid-operation, a raised [Io_error] stops it (the way a
   kernel remounts a failing disk read-only). *)
let run_workload (c : config) fso oracle ~wprng ~cut =
  let bb = fso.o_block_bytes in
  let version = ref 0 in
  let barrier_if_sync () = if fso.o_sync_each then Oracle.barrier oracle in
  try
     for opi = 1 to c.ops do
       let small = Prng.int wprng 5 < 2 in
       let name =
         if small then "s" ^ string_of_int (Prng.int wprng 2)
         else "b" ^ string_of_int (Prng.int wprng 3)
       in
       (if not (Oracle.exists oracle name) then begin
          Oracle.begin_create oracle name;
          match fso.o_create name with
          | Ok () ->
            Oracle.commit_create oracle name;
            barrier_if_sync ()
          | Error _ -> ()
        end
        else if Prng.int wprng 10 < 2 then begin
          Oracle.begin_delete oracle name;
          match fso.o_delete name with
          | Ok () ->
            Oracle.commit_delete oracle name;
            barrier_if_sync ()
          | Error _ -> ()
        end
        else begin
          incr version;
          let tg = tag ~version:!version in
          let fblock = if small then 0 else Prng.int wprng 3 in
          let len = if small then 1024 else bb in
          let off = fblock * bb in
          Oracle.begin_write oracle name ~fblock ~tag:tg ~size:(off + len);
          match fso.o_write name ~off (Bytes.make len tg) with
          | Ok () ->
            Oracle.commit_write oracle name ~fblock ~tag:tg ~size:(off + len);
            barrier_if_sync ()
          | Error _ -> ()
        end);
       if (not fso.o_sync_each) && opi mod 4 = 0 then begin
         fso.o_sync ();
         Oracle.barrier oracle
       end
     done;
     fso.o_shutdown ();
     Oracle.barrier oracle
  with
  | Disk.Disk_sim.Power_cut -> cut := true
  | Blockdev.Device.Io_error _ | Disk.Disk_sim.Media_failure _ -> ()

(* [fails] is newest first, as the cell bodies accumulate it. *)
let judgement ~injected ~cut ~degraded ~oracle_checks fails =
  {
    Fault.Cell.injected;
    loss = false;
    counters =
      [
        ("power cuts", if cut then 1 else 0);
        ("degraded recoveries", if degraded then 1 else 0);
        ("oracle checks", oracle_checks);
      ];
    violations = List.rev fails;
  }

let run_plain_cell (c : config) ~rig ~kind ~trigger ~case =
  let scenario_seed = Int64.add c.seed (Int64.of_int (case * 6029)) in
  let clock = Clock.create () in
  let disk = make_disk c rig clock in
  let prng = Prng.create ~seed:scenario_seed in
  let fso = fresh_fs c rig ~disk ~clock ~prng:(Prng.split prng) in
  let plan = Fault.Plan.create kind ~trigger ~seed:(Int64.add scenario_seed 1L) in
  if workload_time kind then Fault.Plan.install plan disk;
  let oracle = Oracle.create ~sector_bytes:(sector_bytes c) in
  let cut = ref false in
  run_workload c fso oracle ~wprng:(Prng.split prng) ~cut;
  Fault.Plan.flush plan;
  let frozen = Disk.Sector_store.snapshot (Disk.Disk_sim.store disk) in
  let fails = ref [] in
  let failf fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  let degraded = ref false in
  let oracle_checks = ref 0 in
  let recovery_plan = ref None in
  let mount_from store ~faulty =
    let clock2 = Clock.create () in
    let disk2 = make_disk ~store c rig clock2 in
    if faulty then begin
      let p =
        Fault.Plan.create kind ~trigger ~seed:(Int64.add scenario_seed 2L)
      in
      Fault.Plan.install p disk2;
      recovery_plan := Some p
    end;
    match
      mount_fs rig ~disk:disk2 ~clock:clock2
        ~prng:(Prng.create ~seed:scenario_seed)
    with
    | Error e ->
      failf "mount aborted: %s" e;
      None
    | Ok (fso2, _notes) -> Some (fso2, disk2)
  in
  (match mount_from frozen ~faulty:(not (workload_time kind)) with
  | None -> ()
  | Some (fso2, disk2) ->
    (match fso2.o_mode () with
    | `Degraded _ -> degraded := true
    | `Rw -> ());
    (* fsck: clean, except honest media findings where the plan hurt a
       sole copy. *)
    let report = fso2.o_check () in
    (* [Unflushed] is informational everywhere: a freshly recovered FS
       legitimately holds state the next checkpoint will persist. *)
    let allowed =
      Report.Unflushed
      ::
      (match kind with
      | Fault.Plan.Bit_rot | Fault.Plan.Grown_defect | Fault.Plan.Torn_write
        ->
        [ Report.Io_unreadable; Report.Bad_checksum ]
      | _ -> [])
    in
    List.iter
      (fun (f : Report.finding) ->
        if not (List.mem f.Report.category allowed) then
          failf "fsck: [%s] %s"
            (Report.category_to_string f.Report.category)
            f.Report.detail)
      report.Report.findings;
    (* Durability oracle. *)
    let mode =
      match kind with
      | Fault.Plan.Power_cut | Fault.Plan.Torn_write
      | Fault.Plan.Transient_read _ | Fault.Plan.Drive_hang _
      | Fault.Plan.Drive_flaky _ | Fault.Plan.Nvm_cut | Fault.Plan.Nvm_torn
      | Fault.Plan.Nvm_destage_cut | Fault.Plan.Nvm_full ->
        Oracle.Strict
      | Fault.Plan.Bit_rot | Fault.Plan.Grown_defect | Fault.Plan.Drive_death
      | Fault.Plan.Latent_sectors _ ->
        Oracle.Lax
    in
    incr oracle_checks;
    List.iter
      (fun m -> failf "oracle: %s" m)
      (Oracle.check oracle ~mode (view_of fso2));
    (* Recovery idempotence: remounting the recovered platters changes
       nothing. *)
    let again = Disk.Sector_store.snapshot (Disk.Disk_sim.store disk2) in
    (match mount_from again ~faulty:false with
    | None -> ()
    | Some (fso3, _) ->
      let signature f =
        List.map
          (fun n ->
            (n, match f.o_size n with Ok s -> s | Error _ -> -1))
          (List.sort compare (f.o_files ()))
      in
      if signature fso2 <> signature fso3 then
        failf "remount is not idempotent (namespace or sizes changed)";
      let deg f = match f.o_mode () with `Degraded _ -> true | `Rw -> false in
      if deg fso2 <> deg fso3 then failf "degraded mode is not idempotent"));
  let injected =
    Fault.Plan.fired plan
    ||
    match !recovery_plan with Some p -> Fault.Plan.fired p | None -> false
  in
  judgement ~injected ~cut:!cut ~degraded:!degraded ~oracle_checks:!oracle_checks
    !fails

let vol_shape = function
  | V_stripe -> Volume.Stripe 2
  | V_mirror -> Volume.Mirror 2
  | V_raid10 -> Volume.Stripe_of_mirrors (2, 2)

let vol_leg_kind = function
  | VL_vld -> Volume.Vld_leg
  | VL_regular -> Volume.Regular_leg

(* A volume cell: same workload and judging protocol, but the file
   system runs on a [Volume] over several drives and the fault plan is
   installed on one victim leg (rotating with the case number).  A
   mirrored volume must mask the fault completely: fsck and the
   volume's own mirror-consistency walk may show nothing beyond
   [Unflushed], and the oracle runs in [Redundant] mode (strict plus
   reread stability across legs).  A stripe has no redundancy, so it is
   judged like single-copy media. *)
let run_volume_cell (c : config) ~rig ~layout ~leg ~kind ~trigger ~case =
  let vlayout = vol_shape layout in
  let lkind = vol_leg_kind leg in
  let n = Volume.n_legs vlayout in
  let scenario_seed = Int64.add c.seed (Int64.of_int (case * 6029)) in
  let clock = Clock.create () in
  let disks = Array.init n (fun _ -> make_disk c rig clock) in
  let spare () = make_disk c rig clock in
  let prng = Prng.create ~seed:scenario_seed in
  let vol =
    Volume.create ~spare ~layout:vlayout ~leg_kind:lkind
      ~logical_blocks:c.logical_blocks ~disks ~prng:(Prng.split prng) ()
  in
  let fso =
    match rig.fs with
    | F_ufs ->
      wrap_ufs (Ufs.format ~dev:(Volume.device vol) ~host:Host.free ~clock ufs_cfg)
    | F_lfs ->
      wrap_lfs (Lfs.format ~dev:(Volume.device vol) ~host:Host.free ~clock lfs_cfg)
    | F_vlfs -> invalid_arg "vlfs has no volume rig"
  in
  let victim = case mod n in
  let plan = Fault.Plan.create kind ~trigger ~seed:(Int64.add scenario_seed 1L) in
  Fault.Plan.install plan disks.(victim);
  let oracle = Oracle.create ~sector_bytes:(sector_bytes c) in
  let cut = ref false in
  run_workload c fso oracle ~wprng:(Prng.split prng) ~cut;
  Fault.Plan.flush plan;
  (* A clean shutdown parks the volume too: suspects resolve or retire,
     rebuilds finish, dirty regions drain.  A power cut skips straight
     to the frozen platters, mid-flight state and all. *)
  if not !cut then Volume.settle vol;
  let freeze v =
    Array.map
      (fun d -> Disk.Sector_store.snapshot (Disk.Disk_sim.store d))
      (Volume.disks v)
  in
  let frozen = freeze vol in
  let fails = ref [] in
  let failf fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  let degraded = ref false in
  let oracle_checks = ref 0 in
  let mirrored =
    match vlayout with
    | Volume.Stripe _ -> false
    | Volume.Mirror _ | Volume.Stripe_of_mirrors _ -> true
  in
  let mount_from stores =
    let clock2 = Clock.create () in
    let disks2 = Array.map (fun st -> make_disk ~store:st c rig clock2) stores in
    let spare2 () = make_disk c rig clock2 in
    match
      Volume.recover ~spare:spare2 ~layout:vlayout ~leg_kind:lkind
        ~logical_blocks:c.logical_blocks ~disks:disks2
        ~prng:(Prng.create ~seed:scenario_seed) ()
    with
    | Error e ->
      failf "volume recover: %s" e;
      None
    | Ok (vol2, _rep) -> (
      (* finish any rebuild the recovery started for a dead-on-arrival
         leg before judging: redundancy must be restorable, not just
         restored-in-principle *)
      Volume.settle vol2;
      let dev2 = Volume.device vol2 in
      let mounted =
        match rig.fs with
        | F_ufs -> (
          match Ufs.mount ~dev:dev2 ~host:Host.free ~clock:clock2 ufs_cfg with
          | Error e -> Error ("ufs: " ^ e)
          | Ok (t, _) -> Ok (wrap_ufs t))
        | F_lfs -> (
          match Lfs.recover ~dev:dev2 ~host:Host.free ~clock:clock2 lfs_cfg with
          | Error e -> Error ("lfs: " ^ e)
          | Ok (t, _) -> Ok (wrap_lfs t))
        | F_vlfs -> Error "vlfs has no volume rig"
      in
      match mounted with
      | Error e ->
        failf "mount aborted: %s" e;
        None
      | Ok fso2 -> Some (vol2, fso2))
  in
  (match mount_from frozen with
  | None -> ()
  | Some (vol2, fso2) ->
    (match fso2.o_mode () with
    | `Degraded _ -> degraded := true
    | `Rw -> ());
    let allowed =
      Report.Unflushed
      :: (if mirrored then [] else [ Report.Io_unreadable; Report.Bad_checksum ])
    in
    let judge label (report : Report.t) =
      List.iter
        (fun (f : Report.finding) ->
          if not (List.mem f.Report.category allowed) then
            failf "%s: [%s] %s" label
              (Report.category_to_string f.Report.category)
              f.Report.detail)
        report.Report.findings
    in
    judge "fsck" (fso2.o_check ());
    judge "volume" (Volume_check.check vol2);
    let mode =
      if mirrored then Oracle.Redundant
      else
        match kind with
        | Fault.Plan.Power_cut | Fault.Plan.Torn_write
        | Fault.Plan.Transient_read _ | Fault.Plan.Drive_hang _
        | Fault.Plan.Drive_flaky _ | Fault.Plan.Nvm_cut | Fault.Plan.Nvm_torn
        | Fault.Plan.Nvm_destage_cut | Fault.Plan.Nvm_full ->
          Oracle.Strict
        | Fault.Plan.Bit_rot | Fault.Plan.Grown_defect
        | Fault.Plan.Drive_death | Fault.Plan.Latent_sectors _ ->
          Oracle.Lax
    in
    incr oracle_checks;
    List.iter
      (fun m -> failf "oracle: %s" m)
      (Oracle.check oracle ~mode (view_of fso2));
    (* Recovery idempotence, volume edition: recovering the recovered
       legs' platters again changes nothing. *)
    let again = freeze vol2 in
    match mount_from again with
    | None -> ()
    | Some (_, fso3) ->
      let signature f =
        List.map
          (fun nm -> (nm, match f.o_size nm with Ok s -> s | Error _ -> -1))
          (List.sort compare (f.o_files ()))
      in
      if signature fso2 <> signature fso3 then
        failf "remount is not idempotent (namespace or sizes changed)";
      let deg f = match f.o_mode () with `Degraded _ -> true | `Rw -> false in
      if deg fso2 <> deg fso3 then failf "degraded mode is not idempotent");
  judgement ~injected:(Fault.Plan.fired plan) ~cut:!cut ~degraded:!degraded
    ~oracle_checks:!oracle_checks !fails

(* NVM-WAL rig parameters.  The log is deliberately small so destaging
   happens inline (backpressure) during the short sweep workload —
   otherwise the crash-mid-destage cells would find no backing-disk
   writes to strike.  [Nvm_full] cells shrink it to a handful of records
   so nearly every append pays the drain. *)
let wal_log_bytes = 64 * 1024
let wal_tiny_log_bytes = 20 * 1024

(* A WAL cell: the same workload and judging protocol as a plain cell,
   but the file system's device is an [Nvm_wal] staging tier over the
   logical disk, and the fault plan watches the tier's own counters —
   NVM persist barriers for [Nvm_cut]/[Nvm_torn], backing-disk writes
   for [Nvm_destage_cut]/[Nvm_full].  The freeze captures both failure
   domains (the platters and the NVM's persisted image); the remount
   replays the NVM log over the disk before the FS's own recovery runs.
   Every NVM kind is a power-cut flavor — no media damage — so the
   oracle runs in [Strict] mode: a write that returned [Ok] crossed the
   persist barrier and must survive, while volatile-front residue
   belongs to operations that never returned. *)
let run_wal_cell (c : config) ~rig ~backing ~kind ~trigger ~case =
  let scenario_seed = Int64.add c.seed (Int64.of_int (case * 6029)) in
  let wal_config =
    {
      Nvm.Nvm_wal.default_config with
      Nvm.Nvm_wal.log_bytes =
        Some
          (match kind with
          | Fault.Plan.Nvm_full -> wal_tiny_log_bytes
          | _ -> wal_log_bytes);
    }
  in
  let make_inner ~disk ~fresh =
    match backing with
    | W_vld ->
      if fresh then
        Ok
          (Blockdev.Vld.device
             (Blockdev.Vld.create ~disk ~logical_blocks:c.logical_blocks
                ~prng:(Prng.create ~seed:scenario_seed) ()))
      else (
        match
          Blockdev.Vld.recover ~disk ~prng:(Prng.create ~seed:scenario_seed) ()
        with
        | Ok (vld, _) -> Ok (Blockdev.Vld.device vld)
        | Error e -> Error ("vld: " ^ e))
    | W_regular ->
      Ok
        (Blockdev.Regular_disk.device
           (Blockdev.Regular_disk.create ~disk ~spare_blocks ()))
  in
  let fs_fresh ~dev ~clock =
    match rig.fs with
    | F_ufs -> wrap_ufs (Ufs.format ~dev ~host:Host.free ~clock ufs_cfg)
    | F_lfs -> wrap_lfs (Lfs.format ~dev ~host:Host.free ~clock lfs_cfg)
    | F_vlfs -> invalid_arg "vlfs has no nvm rig"
  in
  let fs_mount ~dev ~clock =
    match rig.fs with
    | F_ufs -> (
      match Ufs.mount ~dev ~host:Host.free ~clock ufs_cfg with
      | Error e -> Error ("ufs: " ^ e)
      | Ok (t, _) -> Ok (wrap_ufs t))
    | F_lfs -> (
      match Lfs.recover ~dev ~host:Host.free ~clock lfs_cfg with
      | Error e -> Error ("lfs: " ^ e)
      | Ok (t, _) -> Ok (wrap_lfs t))
    | F_vlfs -> Error "vlfs has no nvm rig"
  in
  let clock = Clock.create () in
  let disk = make_disk c rig clock in
  let prng = Prng.create ~seed:scenario_seed in
  let nvm = Nvm.Nvm_sim.create ~clock () in
  let fails = ref [] in
  let failf fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  match make_inner ~disk ~fresh:true with
  | Error e ->
    failf "format aborted: %s" e;
    judgement ~injected:false ~cut:false ~degraded:false ~oracle_checks:0 !fails
  | Ok inner ->
    let wal = Nvm.Nvm_wal.create ~config:wal_config ~nvm ~inner () in
    let fso = fs_fresh ~dev:(Nvm.Nvm_wal.device wal) ~clock in
    let plan =
      Fault.Plan.create kind ~trigger ~seed:(Int64.add scenario_seed 1L)
    in
    (* One plan, both failure domains: whichever counter the kind
       watches decides where it strikes. *)
    Fault.Plan.install plan disk;
    Fault.Plan.install_nvm plan nvm;
    let oracle = Oracle.create ~sector_bytes:(sector_bytes c) in
    let cut = ref false in
    run_workload c fso oracle ~wprng:(Prng.split prng) ~cut;
    Fault.Plan.flush plan;
    (* A clean shutdown parks the staging tier too: everything staged
       destages and the log resets.  A power cut freezes both domains
       mid-flight. *)
    if not !cut then (
      match Nvm.Nvm_wal.drain wal with
      | Ok () -> ()
      | Error e ->
        failf "clean-shutdown drain failed: %s"
          (Format.asprintf "%a" Blockdev.Device.pp_io_error e));
    let frozen = (Disk.Sector_store.snapshot (Disk.Disk_sim.store disk),
                  Nvm.Nvm_sim.snapshot nvm)
    in
    let degraded = ref false in
    let oracle_checks = ref 0 in
    let mount_from (dstore, nimg) =
      let clock2 = Clock.create () in
      let disk2 = make_disk ~store:dstore c rig clock2 in
      match make_inner ~disk:disk2 ~fresh:false with
      | Error e ->
        failf "mount aborted: %s" e;
        None
      | Ok inner2 -> (
        let nvm2 = Nvm.Nvm_sim.create ~image:nimg ~clock:clock2 () in
        match Nvm.Nvm_wal.recover ~config:wal_config ~nvm:nvm2 ~inner:inner2 ()
        with
        | Error e ->
          failf "wal replay aborted: %s"
            (Format.asprintf "%a" Blockdev.Device.pp_io_error e);
          None
        | Ok (wal2, _report) -> (
          match fs_mount ~dev:(Nvm.Nvm_wal.device wal2) ~clock:clock2 with
          | Error e ->
            failf "mount aborted: %s" e;
            None
          | Ok fso2 -> Some (fso2, disk2, nvm2)))
    in
    (match mount_from frozen with
    | None -> ()
    | Some (fso2, disk2, nvm2) ->
      (match fso2.o_mode () with
      | `Degraded _ -> degraded := true
      | `Rw -> ());
      (* NVM kinds never damage media, so fsck owes a clean bill beyond
         the usual informational [Unflushed]. *)
      let allowed = [ Report.Unflushed ] in
      List.iter
        (fun (f : Report.finding) ->
          if not (List.mem f.Report.category allowed) then
            failf "fsck: [%s] %s"
              (Report.category_to_string f.Report.category)
              f.Report.detail)
        (fso2.o_check ()).Report.findings;
      let mode = Oracle.Strict in
      incr oracle_checks;
      List.iter
        (fun m -> failf "oracle: %s" m)
        (Oracle.check oracle ~mode (view_of fso2));
      (* Recovery idempotence, staged edition: freezing both domains of
         the recovered pair and replaying again changes nothing — the
         second replay rewrites what the first already destaged. *)
      let again = (Disk.Sector_store.snapshot (Disk.Disk_sim.store disk2),
                   Nvm.Nvm_sim.snapshot nvm2)
      in
      match mount_from again with
      | None -> ()
      | Some (fso3, _, _) ->
        let signature f =
          List.map
            (fun n -> (n, match f.o_size n with Ok s -> s | Error _ -> -1))
            (List.sort compare (f.o_files ()))
        in
        if signature fso2 <> signature fso3 then
          failf "remount is not idempotent (namespace or sizes changed)";
        let deg f = match f.o_mode () with `Degraded _ -> true | `Rw -> false in
        if deg fso2 <> deg fso3 then failf "degraded mode is not idempotent");
    judgement ~injected:(Fault.Plan.fired plan) ~cut:!cut ~degraded:!degraded
      ~oracle_checks:!oracle_checks !fails

let run_cell (c : config) { rig; kind; trigger; case } =
  match rig.on with
  | D_volume (layout, leg) ->
    run_volume_cell c ~rig ~layout ~leg ~kind ~trigger ~case
  | D_nvm backing -> run_wal_cell c ~rig ~backing ~kind ~trigger ~case
  | D_vld | D_regular | D_direct -> run_plain_cell c ~rig ~kind ~trigger ~case

(* The matrix in canonical order.  [case] counts only the cells actually
   present (excluded rig/kind pairs are skipped before numbering), is a
   function of the cell's position alone, and thus never depends on
   which cells have already executed — what makes the sweep safe to fan
   out across workers.  The volume slice follows the single-spindle
   slice, so existing case numbers (and saved repro strings) stay
   stable. *)
let cells (c : config) =
  let cells = ref [] in
  let case = ref 0 in
  let add rigs kinds triggers =
    List.iter
      (fun rig ->
        List.iter
          (fun kind ->
            if not (excluded rig kind) then
              List.iter
                (fun trigger ->
                  incr case;
                  cells := { rig; kind; trigger; case = !case } :: !cells)
                triggers)
          kinds)
      rigs
  in
  add c.rigs c.kinds c.triggers;
  add c.vol_rigs c.vol_kinds c.vol_triggers;
  add c.wal_rigs c.wal_kinds c.wal_triggers;
  List.rev !cells

let coords (c : config) cl =
  [
    ("rig", rig_name cl.rig);
    ("seed", Int64.to_string c.seed);
    ("kind", Fault.Plan.kind_to_string cl.kind);
    ("trigger", string_of_int cl.trigger);
    ("case", string_of_int cl.case);
  ]

let decode (c : config) get =
  let ( let* ) = Result.bind in
  let* rig = rig_of_string (get "rig") in
  let* seed = Fault.Cell.int64 get "seed" in
  let* kind = Fault.Plan.kind_of_string (get "kind") in
  let* trigger = Fault.Cell.int get "trigger" in
  let* case = Fault.Cell.int get "case" in
  Ok ({ c with seed }, { rig; kind; trigger; case })

let sweep =
  {
    Fault.Cell.keys = [ "rig"; "seed"; "kind"; "trigger"; "case" ];
    counters = [ "power cuts"; "degraded recoveries"; "oracle checks" ];
    cells;
    coords;
    decode;
    run_cell;
  }

(* ---- Seeded degraded-mount demonstrations ---- *)

(* Each demonstration damages the sole copy of one live inode's metadata
   on an otherwise healthy image and shows the remount (a) comes up
   [`Degraded], (b) refuses writes with [`Read_only], (c) still serves
   reads of unaffected files. *)

let demo_prng () = Prng.create ~seed:0xDE6AL

let expect_degraded which keep fso =
  match fso.o_mode () with
  | `Rw -> Error (which ^ ": mount came up read-write despite damage")
  | `Degraded _ -> (
    match fso.o_create "zz-new" with
    | Ok () -> Error (which ^ ": degraded mount accepted a create")
    | Error `Read_only -> (
      match fso.o_read keep ~off:0 ~len:512 with
      | Ok _ -> Ok ()
      | Error e ->
        Error
          (Format.asprintf "%s: degraded mount refused a read of %S: %a"
             which keep Blockdev.Fs_error.pp e))
    | Error e ->
      Error
        (Format.asprintf "%s: degraded mount refused create with %a, not \
                          `Read_only"
           which Blockdev.Fs_error.pp e))

let or_die which = function
  | Ok _ -> ()
  | Error e ->
    failwith (Format.asprintf "%s: setup failed: %a" which Blockdev.Fs_error.pp e)

let degraded_demo fsk : (unit, string) result =
  let c = default in
  let clock = Clock.create () in
  match fsk with
  | F_ufs ->
    let rig = { fs = F_ufs; on = D_regular } in
    let disk = make_disk c rig clock in
    let dev =
      Blockdev.Regular_disk.device
        (Blockdev.Regular_disk.create ~disk ~spare_blocks ())
    in
    let t = Ufs.format ~dev ~host:Host.free ~clock ufs_cfg in
    or_die "ufs" (Ufs.create t "keep");
    or_die "ufs" (Ufs.write t "keep" ~off:0 (Bytes.make 1024 'k'));
    (* Push the victim's inode into the second inode-table block so the
       damage cannot touch "keep". *)
    for i = 1 to 31 do
      or_die "ufs" (Ufs.create t (Printf.sprintf "pad%d" i))
    done;
    or_die "ufs" (Ufs.create t "victim");
    or_die "ufs" (Ufs.write t "victim" ~off:0 (Bytes.make 1024 'v'));
    let inum = List.assoc "victim" (Ufs.dir_entries t) in
    let it_start, _ = Ufs.inode_table_span t in
    let ipb = Ufs.block_bytes t / Ufs.Inode.bytes_per_inode in
    let blk = it_start + (inum / ipb) in
    let byte = inum mod ipb * Ufs.Inode.bytes_per_inode in
    let sb = sector_bytes c in
    let lba = (blk * Ufs.block_bytes t / sb) + (byte / sb) in
    let store = Disk.Disk_sim.store disk in
    Disk.Sector_store.rot store ~lba ~sectors:1 (demo_prng ());
    let frozen = Disk.Sector_store.snapshot store in
    let clock2 = Clock.create () in
    let disk2 = make_disk ~store:frozen c rig clock2 in
    let dev2 =
      Blockdev.Regular_disk.device
        (Blockdev.Regular_disk.create ~disk:disk2 ~spare_blocks ())
    in
    (match Ufs.mount ~dev:dev2 ~host:Host.free ~clock:clock2 ufs_cfg with
    | Error e -> Error ("ufs: mount aborted: " ^ e)
    | Ok (t2, _) -> expect_degraded "ufs" "keep" (wrap_ufs t2))
  | F_lfs ->
    let rig = { fs = F_lfs; on = D_regular } in
    let disk = make_disk c rig clock in
    let dev =
      Blockdev.Regular_disk.device
        (Blockdev.Regular_disk.create ~disk ~spare_blocks ())
    in
    let t = Lfs.format ~dev ~host:Host.free ~clock lfs_cfg in
    or_die "lfs" (Lfs.create t "keep");
    or_die "lfs" (Lfs.write t "keep" ~off:0 (Bytes.make 1024 'k'));
    or_die "lfs" (Lfs.create t "victim");
    or_die "lfs" (Lfs.write t "victim" ~off:0 (Bytes.make 1024 'v'));
    ignore (Lfs.power_down t);
    let inum = List.assoc "victim" (Lfs.dir_entries t) in
    (match Lfs.imap_parts t inum with
    | None | Some [||] -> Error "lfs: victim has no on-disk inode parts"
    | Some parts ->
      let sb = sector_bytes c in
      let lba = parts.(0) * Lfs.block_bytes t / sb in
      let store = Disk.Disk_sim.store disk in
      Disk.Sector_store.rot store ~lba ~sectors:1 (demo_prng ());
      let frozen = Disk.Sector_store.snapshot store in
      let clock2 = Clock.create () in
      let disk2 = make_disk ~store:frozen c rig clock2 in
      let dev2 =
        Blockdev.Regular_disk.device
          (Blockdev.Regular_disk.create ~disk:disk2 ~spare_blocks ())
      in
      (match Lfs.recover ~dev:dev2 ~host:Host.free ~clock:clock2 lfs_cfg with
      | Error e -> Error ("lfs: recover aborted: " ^ e)
      | Ok (t2, _) -> expect_degraded "lfs" "keep" (wrap_lfs t2)))
  | F_vlfs -> (
    let rig = { fs = F_vlfs; on = D_direct } in
    let disk = make_disk c rig clock in
    let t = Vlfs.format ~disk ~host:Host.free ~clock vlfs_cfg in
    or_die "vlfs" (Vlfs.create t "keep");
    or_die "vlfs" (Vlfs.write t "keep" ~off:0 (Bytes.make 1024 'k'));
    or_die "vlfs" (Vlfs.create t "victim");
    or_die "vlfs" (Vlfs.write t "victim" ~off:0 (Bytes.make 1024 'v'));
    ignore (Vlfs.power_down t);
    let inum = List.assoc "victim" (Vlfs.dir_entries t) in
    let vl = Vlfs.vlog t in
    let max_parts =
      (Vlog.Virtual_log.config vl).Vlog.Virtual_log.logical_blocks
      / (Vlfs.config t).Vlfs.n_inodes
    in
    match Vlog.Virtual_log.lookup vl (inum * max_parts) with
    | None -> Error "vlfs: victim's inode part 0 is not mapped"
    | Some pba -> (
      let fm = Vlog.Virtual_log.freemap vl in
      let lba = Vlog.Freemap.lba_of_block fm pba in
      let store = Disk.Disk_sim.store disk in
      Disk.Sector_store.rot store ~lba ~sectors:1 (demo_prng ());
      let frozen = Disk.Sector_store.snapshot store in
      let clock2 = Clock.create () in
      let disk2 = make_disk ~store:frozen c rig clock2 in
      match Vlfs.recover ~disk:disk2 ~host:Host.free ~config:vlfs_cfg () with
      | Error e -> Error ("vlfs: recover aborted: " ^ e)
      | Ok (t2, _) -> expect_degraded "vlfs" "keep" (wrap_vlfs t2)))

(* ---- Image generation and fsck (vlsim mkimage / vlsim fsck) ---- *)

type corruption = C_none | C_dangling | C_checksum | C_rot

let corruption_of_string = function
  | "none" -> Ok C_none
  | "dangling" -> Ok C_dangling
  | "checksum" -> Ok C_checksum
  | "rot" -> Ok C_rot
  | s -> Error (Printf.sprintf "unknown corruption %S (none|dangling|checksum|rot)" s)

let profile_string c = Printf.sprintf "st19101:%d" c.cylinders

let parse_profile s =
  match String.split_on_char ':' s with
  | [ "st19101"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 ->
      Ok (Disk.Profile.with_cylinders Disk.Profile.st19101 n)
    | _ -> Error (Printf.sprintf "bad cylinder count in profile %S" s))
  | [ "hp97560"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 ->
      Ok (Disk.Profile.with_cylinders Disk.Profile.hp97560 n)
    | _ -> Error (Printf.sprintf "bad cylinder count in profile %S" s))
  | _ -> Error (Printf.sprintf "unknown profile %S" s)

(* Build a small healthy file system (three files), then damage the sole
   copy of file "b"'s metadata the requested way:

   - [C_dangling] makes b's inode unrecoverable in the way each FS reads
     as "entry names nothing" (UFS: zeroed inode slot; LFS/VLFS: zeroed
     inode part, so the checksum rejects it);
   - [C_checksum] physically writes garbage with valid ECC, so only the
     content checksum catches it (UFS: both superblock slots, the one
     piece of metadata it checksums);
   - [C_rot] decays a metadata sector so the ECC itself fails on read. *)
let make_image ~fs ~corrupt : (Image.header * Disk.Sector_store.t, string) result
    =
  let c = default in
  let rig =
    match fs with
    | F_vlfs -> { fs; on = D_direct }
    | F_ufs | F_lfs -> { fs; on = D_regular }
  in
  let clock = Clock.create () in
  let disk = make_disk c rig clock in
  let prng = Prng.create ~seed:0x13A6EL in
  let sb = sector_bytes c in
  let store = Disk.Disk_sim.store disk in
  let header =
    { Image.fs = fs_name rig.fs; dev = dev_name rig.on;
      profile = profile_string c }
  in
  let seed_files create write shutdown =
    List.iter
      (fun (n, len, ch) ->
        or_die "mkimage" (create n);
        or_die "mkimage" (write n (Bytes.make len ch)))
      [ ("a", 1024, 'a'); ("b", 4096, 'b'); ("c", 8192, 'c') ];
    shutdown ()
  in
  (* Damage one metadata block whose integrity is guarded by a content
     checksum (LFS and VLFS inode parts). *)
  let damage_checksummed_block ~lba ~block_bytes = function
    | C_none -> Ok ()
    | C_dangling ->
      Disk.Sector_store.write store ~lba (Bytes.make block_bytes '\000');
      Ok ()
    | C_checksum ->
      Disk.Sector_store.corrupt store ~lba ~sectors:1 prng;
      Ok ()
    | C_rot ->
      Disk.Sector_store.rot store ~lba ~sectors:1 prng;
      Ok ()
  in
  let ( let* ) = Result.bind in
  let* () =
    match rig.fs with
    | F_ufs ->
      let t = Ufs.format ~dev:(fresh_dev c rig ~disk ~prng) ~host:Host.free
          ~clock ufs_cfg
      in
      seed_files
        (fun n -> Ufs.create t n)
        (fun n b -> Ufs.write t n ~off:0 b)
        (fun () -> ignore (Ufs.sync t));
      let bb = Ufs.block_bytes t in
      (match List.assoc_opt "b" (Ufs.dir_entries t) with
      | None -> Error "mkimage: file b vanished"
      | Some inum -> (
        let it_start, _ = Ufs.inode_table_span t in
        let ipb = bb / Ufs.Inode.bytes_per_inode in
        let byte = inum mod ipb * Ufs.Inode.bytes_per_inode in
        let lba = (it_start + (inum / ipb)) * bb / sb + (byte / sb) in
        match corrupt with
        | C_none -> Ok ()
        | C_dangling ->
          (* Zero b's 128-byte slot in place: the directory entry now
             names an unused inode. *)
          let sector = Disk.Sector_store.read store ~lba ~sectors:1 in
          Bytes.fill sector (byte mod sb) Ufs.Inode.bytes_per_inode '\000';
          Disk.Sector_store.write store ~lba sector;
          Ok ()
        | C_checksum ->
          (* Both superblock slots (device blocks 0 and 1): the only
             checksummed UFS metadata, and losing both degrades the
             mount. *)
          Disk.Sector_store.corrupt store ~lba:0 ~sectors:1 prng;
          Disk.Sector_store.corrupt store ~lba:(bb / sb) ~sectors:1 prng;
          Ok ()
        | C_rot ->
          Disk.Sector_store.rot store ~lba ~sectors:1 prng;
          Ok ()))
    | F_lfs -> (
      let t = Lfs.format ~dev:(fresh_dev c rig ~disk ~prng) ~host:Host.free
          ~clock lfs_cfg
      in
      seed_files
        (fun n -> Lfs.create t n)
        (fun n b -> Lfs.write t n ~off:0 b)
        (fun () -> ignore (Lfs.power_down t));
      match List.assoc_opt "b" (Lfs.dir_entries t) with
      | None -> Error "mkimage: file b vanished"
      | Some inum -> (
        match Lfs.imap_parts t inum with
        | None | Some [||] -> Error "mkimage: file b has no inode parts"
        | Some parts ->
          damage_checksummed_block
            ~lba:(parts.(0) * Lfs.block_bytes t / sb)
            ~block_bytes:(Lfs.block_bytes t) corrupt))
    | F_vlfs -> (
      let t = Vlfs.format ~disk ~host:Host.free ~clock vlfs_cfg in
      seed_files
        (fun n -> Vlfs.create t n)
        (fun n b -> Vlfs.write t n ~off:0 b)
        (fun () -> ignore (Vlfs.power_down t));
      match List.assoc_opt "b" (Vlfs.dir_entries t) with
      | None -> Error "mkimage: file b vanished"
      | Some inum -> (
        let vl = Vlfs.vlog t in
        let max_parts =
          (Vlog.Virtual_log.config vl).Vlog.Virtual_log.logical_blocks
          / (Vlfs.config t).Vlfs.n_inodes
        in
        match Vlog.Virtual_log.lookup vl (inum * max_parts) with
        | None -> Error "mkimage: file b's inode part 0 is not mapped"
        | Some pba ->
          let fm = Vlog.Virtual_log.freemap vl in
          damage_checksummed_block
            ~lba:(Vlog.Freemap.lba_of_block fm pba)
            ~block_bytes:(Vlog.Virtual_log.block_bytes vl) corrupt))
  in
  Ok (header, store)

(* ---- vlsim fsck: remount an image and hold it to account ---- *)

type fsck_result = {
  fr_header : Image.header;
  fr_mode : [ `Rw | `Degraded of string ];
  fr_report : Report.t;
  fr_notes : (string * int) list;
}

(* What the mount itself had to repair or drop is part of the diagnosis:
   a dangling entry the mount silently discarded must still make fsck
   exit non-zero, so the recovery counters become findings. *)
let findings_of_notes notes =
  List.concat_map
    (fun (k, n) ->
      if n <= 0 then []
      else
        match k with
        | "dangling_dropped" ->
          [ Report.findf Report.Dangling_dirent
              "mount dropped %d dangling directory entr%s" n
              (if n = 1 then "y" else "ies") ]
        | "orphans_cleared" ->
          [ Report.findf Report.Orphan_inode
              "mount cleared %d orphan inode%s" n (if n = 1 then "" else "s") ]
        | "inodes_skipped" ->
          [ Report.findf Report.Bad_checksum
              "mount skipped %d unreadable or corrupt inode%s" n
              (if n = 1 then "" else "s") ]
        | "corrupt_items" ->
          [ Report.findf Report.Bad_checksum
              "recovery skipped %d corrupt log item%s" n
              (if n = 1 then "" else "s") ]
        | _ -> [])
    notes

let fsck_image (h : Image.header) store : (fsck_result, string) result =
  let ( let* ) = Result.bind in
  let* profile = parse_profile h.Image.profile in
  let* rig = rig_of_string (h.Image.fs ^ "/" ^ h.Image.dev) in
  let clock = Clock.create () in
  let buffer_policy =
    match rig.on with
    | D_regular | D_volume (_, VL_regular) | D_nvm W_regular ->
      Disk.Track_buffer.Forward_discard
    | D_vld | D_direct | D_volume (_, VL_vld) | D_nvm W_vld ->
      Disk.Track_buffer.Whole_track
  in
  let disk = Disk.Disk_sim.create ~buffer_policy ~store ~profile ~clock () in
  let* fso, notes =
    mount_fs rig ~disk ~clock ~prng:(Prng.create ~seed:0x5EC7L)
  in
  let report = fso.o_check () in
  let report =
    {
      report with
      Report.findings = findings_of_notes notes @ report.Report.findings;
    }
  in
  Ok { fr_header = h; fr_mode = fso.o_mode (); fr_report = report;
       fr_notes = notes }
