(* File-system-level crash/fault sweep: the generalization of
   [Fault.Sweep] (which exercises the virtual log disk alone) one layer
   up.  Every cell of the (rig x fault kind x trigger) matrix runs one
   protocol, whatever the rig:

   1. seed the scenario and build the stack fresh;
   2. install the fault plan, run a seeded metadata-heavy workload, and
      flush the plan;
   3. shut down cleanly, unless the fault cut the power;
   4. freeze the media and remount from the frozen image on fresh drives;
   5. judge the recovered system three ways:
      - fsck: the per-FS invariant checker, plus the rig's own checkers,
        must come back clean, except for honest media findings where the
        plan hurt a sole copy;
      - durability oracle: the recovered namespace and content must be a
        legal post-crash state of the operation history (strict
        old-or-new for power cuts and torn writes; regression-tolerant
        but fabrication-free for bit rot and grown defects);
      - idempotence: remounting the recovered system's frozen media
        again must produce the same namespace, sizes, and degradation;
   6. return the judgement.

   One stack builder covers all five device kinds and carries what
   differs between the three families:

   - plain (vld, regular, direct): the plan lands on the drive, or on
     the remount drive for kinds that strike recovery; no shutdown step;
     the freeze is the one drive; media findings are allowed for media
     kinds; the oracle is strict or lax by kind.
   - volume: the plan lands on leg [case mod legs]; shutdown settles the
     volume; the freeze is every leg; [Volume_check] runs next to fsck;
     stripes allow media findings and are judged by kind, mirrors allow
     none and are judged [Redundant].
   - NVM-WAL: the plan lands on both the drive and the NVM; shutdown
     drains the log, and a failed drain is a violation; the freeze is the
     drive plus the NVM's persisted image; no media findings; [Strict].

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

let profile_of c = Disk.Profile.with_cylinders Disk.Profile.st19101 c.cylinders

let sector_bytes c =
  (profile_of c).Disk.Profile.geometry.Disk.Geometry.sector_bytes

let make_disk ?store ~profile rig clock =
  let buffer_policy =
    match rig.on with
    | D_regular | D_volume (_, VL_regular) | D_nvm W_regular ->
      Disk.Track_buffer.Forward_discard
    | D_vld | D_direct | D_volume (_, VL_vld) | D_nvm W_vld ->
      Disk.Track_buffer.Whole_track
  in
  Disk.Disk_sim.create ~buffer_policy ?store ~profile ~clock ()

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

(* ---- One stack builder for every device family ---- *)

type typed = T_ufs of Ufs.t | T_lfs of Lfs.t | T_vlfs of Vlfs.t

(* A stack's frozen media: every drive's platters in leg order, plus the
   NVM's persisted image on a staged rig. *)
type frozen = { drives : Disk.Sector_store.t array; nvm : Bytes.t option }

type source =
  | Fresh of Prng.t
      (** format, splitting the scenario PRNG once for the stack on
          plain and volume rigs (even where the stack ignores it) *)
  | Frozen of frozen  (** remount; every remount reseeds its PRNG *)

type stack = {
  typed : typed;
  ops : ops;
  notes : (string * int) list;
      (* the mount's recovery counters (orphans cleared, dangling entries
         dropped, inodes skipped), for fsck presentation; [] when fresh *)
  settle : unit -> (unit, string) result;  (* the clean-shutdown step *)
  freeze : unit -> frozen;
  extra_checks : unit -> (string * Report.t) list;
}

let vol_shape = function
  | V_stripe -> Volume.Stripe 2
  | V_mirror -> Volume.Mirror 2
  | V_raid10 -> Volume.Stripe_of_mirrors (2, 2)

let vol_leg_kind = function
  | VL_vld -> Volume.Vld_leg
  | VL_regular -> Volume.Regular_leg

(* NVM-WAL rig parameters.  The log is deliberately small so destaging
   happens inline (backpressure) during the short sweep workload —
   otherwise the crash-mid-destage cells would find no backing-disk
   writes to strike.  [Nvm_full] cells shrink it to a handful of records
   so nearly every append pays the drain. *)
let wal_log_bytes = 64 * 1024
let wal_tiny_log_bytes = 20 * 1024

(* Build [rig] fresh or remount it from a frozen image, on a fresh clock.
   [plan], when given, lands where the family puts it: after the format
   on a fresh stack, before recovery on a remount (so it strikes the
   recovery itself).  [case] picks a volume's victim leg. *)
let build ?profile ?(case = 0) ?(nvm_log_bytes = wal_log_bytes) (c : config)
    rig ~seed ?plan source : (stack, string) result =
  let ( let* ) = Result.bind in
  let profile = Option.value profile ~default:(profile_of c) in
  let clock = Clock.create () in
  let drive ?store () = make_disk ?store ~profile rig clock in
  let n_drives =
    match rig.on with
    | D_volume (l, _) -> Volume.n_legs (vol_shape l)
    | D_vld | D_regular | D_direct | D_nvm _ -> 1
  in
  let* disks =
    match source with
    | Fresh _ -> Ok (Array.init n_drives (fun _ -> drive ()))
    | Frozen f when Array.length f.drives = n_drives ->
      Ok (Array.map (fun store -> drive ~store ()) f.drives)
    | Frozen f ->
      Error
        (Printf.sprintf "%s needs %d drive(s), the image holds %d"
           (rig_name rig) n_drives (Array.length f.drives))
  in
  let* nvm =
    match (rig.on, source) with
    | D_nvm _, Fresh _ -> Ok (Some (Nvm.Nvm_sim.create ~clock ()))
    | D_nvm _, Frozen { nvm = Some image; _ } ->
      Ok (Some (Nvm.Nvm_sim.create ~image ~clock ()))
    | D_nvm _, Frozen { nvm = None; _ } ->
      Error (rig_name rig ^ " needs an NVM image, the image holds none")
    | (D_vld | D_regular | D_direct | D_volume _), _ -> Ok None
  in
  let place p =
    Fault.Plan.install p disks.(case mod n_drives);
    Option.iter (Fault.Plan.install_nvm p) nvm
  in
  let fresh = match source with Fresh _ -> true | Frozen _ -> false in
  if not fresh then Option.iter place plan;
  let prng =
    match (source, rig.on) with
    | Fresh p, (D_vld | D_regular | D_direct | D_volume _) -> Prng.split p
    | Fresh _, D_nvm _ | Frozen _, _ -> Prng.create ~seed
  in
  let logical ~vld disk =
    if not vld then
      Ok
        (Blockdev.Regular_disk.device
           (Blockdev.Regular_disk.create ~disk ~spare_blocks ()))
    else if fresh then
      Ok
        (Blockdev.Vld.device
           (Blockdev.Vld.create ~disk ~logical_blocks:c.logical_blocks ~prng ()))
    else
      match Blockdev.Vld.recover ~disk ~prng () with
      | Ok (vld, _) -> Ok (Blockdev.Vld.device vld)
      | Error e -> Error ("vld: " ^ e)
  in
  let same_drives () = disks and no_settle () = Ok () and no_checks () = [] in
  let* base, legs, settle, extra_checks =
    match rig.on with
    | D_direct -> Ok (`Disk disks.(0), same_drives, no_settle, no_checks)
    | D_vld | D_regular ->
      let* dev = logical ~vld:(rig.on = D_vld) disks.(0) in
      Ok (`Dev dev, same_drives, no_settle, no_checks)
    | D_volume (layout, leg) ->
      let layout = vol_shape layout and leg_kind = vol_leg_kind leg in
      let spare () = drive () in
      let logical_blocks = c.logical_blocks in
      let* vol =
        if fresh then
          Ok
            (Volume.create ~spare ~layout ~leg_kind ~logical_blocks ~disks
               ~prng ())
        else
          match
            Volume.recover ~spare ~layout ~leg_kind ~logical_blocks ~disks
              ~prng ()
          with
          | Error e -> Error ("volume: " ^ e)
          | Ok (vol, _) ->
            (* finish any rebuild the recovery started for a dead-on-arrival
               leg before judging: redundancy must be restorable, not just
               restored-in-principle *)
            Volume.settle vol;
            Ok vol
      in
      (* A clean shutdown parks the volume too: suspects resolve or
         retire, rebuilds finish, dirty regions drain. *)
      Ok
        ( `Dev (Volume.device vol),
          (fun () -> Volume.disks vol),
          (fun () -> Ok (Volume.settle vol)),
          fun () -> [ ("volume", Volume_check.check vol) ] )
    | D_nvm backing ->
      let nvm = Option.get nvm in
      let* inner = logical ~vld:(backing = W_vld) disks.(0) in
      let config =
        {
          Nvm.Nvm_wal.default_config with
          Nvm.Nvm_wal.log_bytes = Some nvm_log_bytes;
        }
      in
      let* wal =
        if fresh then Ok (Nvm.Nvm_wal.create ~config ~nvm ~inner ())
        else
          match Nvm.Nvm_wal.recover ~config ~nvm ~inner () with
          | Ok (wal, _) -> Ok wal
          | Error e ->
            Error (Format.asprintf "wal: %a" Blockdev.Device.pp_io_error e)
      in
      (* A clean shutdown parks the staging tier too: everything staged
         destages and the log resets. *)
      let drain () =
        Result.map_error
          (Format.asprintf "clean-shutdown drain failed: %a"
             Blockdev.Device.pp_io_error)
          (Nvm.Nvm_wal.drain wal)
      in
      Ok (`Dev (Nvm.Nvm_wal.device wal), same_drives, drain, no_checks)
  in
  let host = Host.free in
  let* typed, notes =
    match (rig.fs, base) with
    | F_ufs, `Dev dev -> (
      if fresh then Ok (T_ufs (Ufs.format ~dev ~host ~clock ufs_cfg), [])
      else
        match Ufs.mount ~dev ~host ~clock ufs_cfg with
        | Error e -> Error ("ufs: " ^ e)
        | Ok (t, r) ->
          Ok
            ( T_ufs t,
              [
                ("orphans_cleared", r.Ufs.orphans_cleared);
                ("dangling_dropped", r.Ufs.dangling_dropped);
              ] ))
    | F_lfs, `Dev dev -> (
      if fresh then Ok (T_lfs (Lfs.format ~dev ~host ~clock lfs_cfg), [])
      else
        match Lfs.recover ~dev ~host ~clock lfs_cfg with
        | Error e -> Error ("lfs: " ^ e)
        | Ok (t, r) ->
          Ok
            ( T_lfs t,
              [
                ("inodes_skipped", r.Lfs.inodes_skipped);
                ("dangling_dropped", r.Lfs.dangling_dropped);
                ("corrupt_items", r.Lfs.corrupt_items);
              ] ))
    | F_vlfs, `Disk disk -> (
      if fresh then Ok (T_vlfs (Vlfs.format ~disk ~host ~clock vlfs_cfg), [])
      else
        match Vlfs.recover ~disk ~host ~config:vlfs_cfg () with
        | Error e -> Error ("vlfs: " ^ e)
        | Ok (t, r) ->
          Ok
            ( T_vlfs t,
              [
                ("inodes_skipped", r.Vlfs.inodes_skipped);
                ("dangling_dropped", r.Vlfs.dangling_dropped);
              ] ))
    | _ -> Error (rig_name rig ^ ": file system and device do not fit")
  in
  if fresh then Option.iter place plan;
  let ops =
    match typed with
    | T_ufs t -> wrap_ufs t
    | T_lfs t -> wrap_lfs t
    | T_vlfs t -> wrap_vlfs t
  in
  let freeze () =
    {
      drives =
        Array.map
          (fun d -> Disk.Sector_store.snapshot (Disk.Disk_sim.store d))
          (legs ());
      nvm = Option.map Nvm.Nvm_sim.snapshot nvm;
    }
  in
  Ok { typed; ops; notes; settle; freeze; extra_checks }

(* ---- The sweep itself ---- *)

(* Distinct committed-content tag per write: identifies which attempted
   version a recovered sector carries, never '\000' (= hole/absent). *)
let tag ~version = Char.chr (1 + (version * 53 mod 255))

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

(* Only a plain rig moves a recovery-time kind's plan to the remount
   drive; volume legs and staged rigs take every plan during the
   workload. *)
let strikes_recovery rig kind =
  match rig.on with
  | D_vld | D_regular | D_direct -> not (Fault.Plan.workload_time kind)
  | D_volume _ | D_nvm _ -> false

(* fsck may report [Io_unreadable]/[Bad_checksum] only where the plan can
   hurt a sole copy: media kinds on a plain rig, anything on a stripe.
   A mirror must mask the fault completely, and NVM kinds never damage
   media.  [Unflushed] is informational everywhere: a freshly recovered
   FS legitimately holds state the next checkpoint will persist. *)
let media_findings_allowed rig kind =
  match rig.on with
  | D_vld | D_regular | D_direct -> (
    match kind with
    | Fault.Plan.Bit_rot | Fault.Plan.Grown_defect | Fault.Plan.Torn_write ->
      true
    | _ -> false)
  | D_volume (V_stripe, _) -> true
  | D_volume ((V_mirror | V_raid10), _) | D_nvm _ -> false

let kind_mode = function
  | Fault.Plan.Power_cut | Fault.Plan.Torn_write | Fault.Plan.Transient_read _
  | Fault.Plan.Drive_hang _ | Fault.Plan.Drive_flaky _ | Fault.Plan.Nvm_cut
  | Fault.Plan.Nvm_torn | Fault.Plan.Nvm_destage_cut | Fault.Plan.Nvm_full ->
    Oracle.Strict
  | Fault.Plan.Bit_rot | Fault.Plan.Grown_defect | Fault.Plan.Drive_death
  | Fault.Plan.Latent_sectors _ ->
    Oracle.Lax

(* Mirrors are held to strict plus reread stability across legs; every
   NVM kind is a power-cut flavor, so a write that returned [Ok] crossed
   the persist barrier and must survive. *)
let oracle_mode rig kind =
  match rig.on with
  | D_volume ((V_mirror | V_raid10), _) -> Oracle.Redundant
  | D_nvm _ -> Oracle.Strict
  | D_vld | D_regular | D_direct | D_volume (V_stripe, _) -> kind_mode kind

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

let is_degraded fso =
  match fso.o_mode () with `Degraded _ -> true | `Rw -> false

let run_cell (c : config) { rig; kind; trigger; case } =
  let seed = Int64.add c.seed (Int64.of_int (case * 6029)) in
  let nvm_log_bytes =
    if kind = Fault.Plan.Nvm_full then wal_tiny_log_bytes else wal_log_bytes
  in
  let build = build c rig ~seed ~case ~nvm_log_bytes in
  let fails = ref [] in
  let failf fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  let remount ?plan frozen =
    match build ?plan (Frozen frozen) with
    | Ok st -> Some st
    | Error e ->
      failf "mount aborted: %s" e;
      None
  in
  let plan_at n = Fault.Plan.create kind ~trigger ~seed:(Int64.add seed n) in
  let plan = plan_at 1L in
  let recovery_plan =
    if strikes_recovery rig kind then Some (plan_at 2L) else None
  in
  let cut = ref false and degraded = ref false and oracle_checks = ref 0 in
  (* 1. seed and build *)
  let prng = Prng.create ~seed in
  (match
     build
       ?plan:(if Option.is_some recovery_plan then None else Some plan)
       (Fresh prng)
   with
  | Error e -> failf "format aborted: %s" e
  | Ok st -> (
    (* 2. the plan is in place; run the workload under it *)
    let oracle = Oracle.create ~sector_bytes:(sector_bytes c) in
    run_workload c st.ops oracle ~wprng:(Prng.split prng) ~cut;
    Fault.Plan.flush plan;
    (* 3. a power cut skips straight to the frozen media, mid-flight
       state and all *)
    if not !cut then Result.iter_error (failf "%s") (st.settle ());
    (* 4. freeze and remount *)
    match remount ?plan:recovery_plan (st.freeze ()) with
    | None -> ()
    | Some st2 -> (
      (* 5. judge: fsck and the rig's own checkers, the oracle, then
         idempotence *)
      if is_degraded st2.ops then degraded := true;
      let fsck = st2.ops.o_check () in
      let media = media_findings_allowed rig kind in
      List.iter
        (fun (label, (report : Report.t)) ->
          List.iter
            (fun (f : Report.finding) ->
              match f.Report.category with
              | Report.Unflushed -> ()
              | Report.Io_unreadable | Report.Bad_checksum when media -> ()
              | cat ->
                failf "%s: [%s] %s" label (Report.category_to_string cat)
                  f.Report.detail)
            report.Report.findings)
        (("fsck", fsck) :: st2.extra_checks ());
      incr oracle_checks;
      List.iter
        (fun m -> failf "oracle: %s" m)
        (Oracle.check oracle ~mode:(oracle_mode rig kind) (view_of st2.ops));
      match remount (st2.freeze ()) with
      | None -> ()
      | Some st3 ->
        let signature f =
          List.map
            (fun n -> (n, match f.o_size n with Ok s -> s | Error _ -> -1))
            (List.sort compare (f.o_files ()))
        in
        if signature st2.ops <> signature st3.ops then
          failf "remount is not idempotent (namespace or sizes changed)";
        if is_degraded st2.ops <> is_degraded st3.ops then
          failf "degraded mode is not idempotent")));
  (* 6. the judgement *)
  {
    Fault.Cell.injected =
      Fault.Plan.fired plan
      || Option.fold ~none:false ~some:Fault.Plan.fired recovery_plan;
    loss = false;
    counters =
      [
        ("power cuts", if !cut then 1 else 0);
        ("degraded recoveries", if !degraded then 1 else 0);
        ("oracle checks", !oracle_checks);
      ];
    violations = List.rev !fails;
  }

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

(* ---- Small healthy images for the demonstrations and vlsim mkimage ---- *)

(* The image tools run UFS and LFS on a plain disk and VLFS directly on
   the drive, so the whole image is one drive's platters. *)
let image_rig fs =
  match fs with
  | F_vlfs -> { fs; on = D_direct }
  | F_ufs | F_lfs -> { fs; on = D_regular }

let or_die which = function
  | Ok _ -> ()
  | Error e ->
    failwith (Format.asprintf "%s: setup failed: %a" which Blockdev.Fs_error.pp e)

let put which fso (name, len, ch) =
  or_die which (fso.o_create name);
  or_die which (fso.o_write name ~off:0 (Bytes.make len ch))

(* Where a named file's sole inode copy sits on the drive: the sector
   holding it, its byte offset there, and its length — a UFS inode slot,
   or the whole block of an LFS/VLFS inode part 0. *)
let inode_extent (c : config) st name : (int * int * int, string) result =
  let sb = sector_bytes c in
  let inum entries =
    Option.to_result ~none:(Printf.sprintf "file %S vanished" name)
      (List.assoc_opt name entries)
  in
  let ( let* ) = Result.bind in
  match st.typed with
  | T_ufs t ->
    let* inum = inum (Ufs.dir_entries t) in
    let bb = Ufs.block_bytes t and ib = Ufs.Inode.bytes_per_inode in
    let it_start, _ = Ufs.inode_table_span t in
    let ipb = bb / ib in
    let byte = inum mod ipb * ib in
    Ok (((it_start + (inum / ipb)) * bb / sb) + (byte / sb), byte mod sb, ib)
  | T_lfs t -> (
    let* inum = inum (Lfs.dir_entries t) in
    match Lfs.imap_parts t inum with
    | None | Some [||] ->
      Error (Printf.sprintf "file %S has no on-disk inode parts" name)
    | Some parts ->
      let bb = Lfs.block_bytes t in
      Ok (parts.(0) * bb / sb, 0, bb))
  | T_vlfs t -> (
    let* inum = inum (Vlfs.dir_entries t) in
    let vl = Vlfs.vlog t in
    let max_parts =
      (Vlog.Virtual_log.config vl).Vlog.Virtual_log.logical_blocks
      / (Vlfs.config t).Vlfs.n_inodes
    in
    match Vlog.Virtual_log.lookup vl (inum * max_parts) with
    | None -> Error (Printf.sprintf "file %S's inode part 0 is not mapped" name)
    | Some pba ->
      Ok
        ( Vlog.Freemap.lba_of_block (Vlog.Virtual_log.freemap vl) pba,
          0,
          Vlog.Virtual_log.block_bytes vl ))

(* ---- Seeded degraded-mount demonstrations ---- *)

(* Each demonstration damages the sole copy of one live inode's metadata
   on an otherwise healthy image and shows the remount (a) comes up
   [`Degraded], (b) refuses writes with [`Read_only], (c) still serves
   reads of unaffected files. *)

let demo_seed = 0xDE6AL

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

let degraded_demo fsk : (unit, string) result =
  let c = default in
  let rig = image_rig fsk in
  let which = fs_name fsk in
  let ( let* ) = Result.bind in
  let prefix r = Result.map_error (fun e -> which ^ ": " ^ e) r in
  let* st =
    prefix (build c rig ~seed:demo_seed (Fresh (Prng.create ~seed:demo_seed)))
  in
  put which st.ops ("keep", 1024, 'k');
  (* Push UFS's victim inode into the second inode-table block so the
     damage cannot touch "keep". *)
  if fsk = F_ufs then
    for i = 1 to 31 do
      or_die which (st.ops.o_create (Printf.sprintf "pad%d" i))
    done;
  put which st.ops ("victim", 1024, 'v');
  st.ops.o_shutdown ();
  let* lba, _, _ = prefix (inode_extent c st "victim") in
  let frozen = st.freeze () in
  Disk.Sector_store.rot frozen.drives.(0) ~lba ~sectors:1
    (Prng.create ~seed:demo_seed);
  let* st2 = prefix (build c rig ~seed:demo_seed (Frozen frozen)) in
  expect_degraded which "keep" st2.ops

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
  let rig = image_rig fs in
  let seed = 0x13A6EL in
  let ( let* ) = Result.bind in
  let prefix r = Result.map_error (fun e -> "mkimage: " ^ e) r in
  let* st = prefix (build c rig ~seed (Fresh (Prng.create ~seed))) in
  List.iter (put "mkimage" st.ops)
    [ ("a", 1024, 'a'); ("b", 4096, 'b'); ("c", 8192, 'c') ];
  st.ops.o_shutdown ();
  let* lba, off, len = prefix (inode_extent c st "b") in
  let store = (st.freeze ()).drives.(0) in
  let prng = Prng.create ~seed in
  let sb = sector_bytes c in
  (match (corrupt, st.typed) with
  | C_none, _ -> ()
  | C_dangling, _ ->
    let sectors = (off + len + sb - 1) / sb in
    let buf = Disk.Sector_store.read store ~lba ~sectors in
    Bytes.fill buf off len '\000';
    Disk.Sector_store.write store ~lba buf
  | C_checksum, T_ufs t ->
    (* Both superblock slots (device blocks 0 and 1): the only
       checksummed UFS metadata, and losing both degrades the mount. *)
    Disk.Sector_store.corrupt store ~lba:0 ~sectors:1 prng;
    Disk.Sector_store.corrupt store ~lba:(Ufs.block_bytes t / sb) ~sectors:1
      prng
  | C_checksum, (T_lfs _ | T_vlfs _) ->
    Disk.Sector_store.corrupt store ~lba ~sectors:1 prng
  | C_rot, _ -> Disk.Sector_store.rot store ~lba ~sectors:1 prng);
  let header =
    { Image.fs = fs_name rig.fs; dev = dev_name rig.on;
      profile = profile_string c }
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
  let* st =
    build ~profile default rig ~seed:0x5EC7L
      (Frozen { drives = [| store |]; nvm = None })
  in
  let report = st.ops.o_check () in
  let report =
    {
      report with
      Report.findings = findings_of_notes st.notes @ report.Report.findings;
    }
  in
  Ok { fr_header = h; fr_mode = st.ops.o_mode (); fr_report = report;
       fr_notes = st.notes }
