(** File-system-level crash/fault sweep: the {!Fault.Sweep} idea lifted
    one layer up.  Each cell runs a seeded metadata-heavy workload on a
    full stack (a {!Rig}: file system x device, where the device is a
    drive, a volume, or an NVM write-ahead tier) with a fault plan
    installed, freezes the media, remounts on fresh drives, and judges
    the result with the per-FS fsck checker, the durability {!Oracle},
    and a remount-idempotence comparison.  One cell body serves every
    rig; {!Rig.build} builds and remounts them all. *)

type config = {
  seed : int64;
  ops : int;                      (** workload operations per scenario *)
  cylinders : int;
  logical_blocks : int;           (** VLD logical size *)
  triggers : int list;            (** I/O counts after which the fault arms *)
  kinds : Fault.Plan.kind list;
  rigs : Rig.rig list;
  vol_triggers : int list;
  vol_kinds : Fault.Plan.kind list;
  vol_rigs : Rig.rig list;
      (** the volume slice of the matrix: its own (rig x kind x trigger)
          product, where the plan lands on one victim leg and whole-drive
          kinds ([death], [hang], [flaky], [latent]) become meaningful *)
  wal_triggers : int list;
  wal_kinds : Fault.Plan.kind list;
  wal_rigs : Rig.rig list;
      (** the NVM-WAL slice: staged rigs judged at the staging tier's
          persistence boundary by the [Nvm_*] kinds (cut before the
          persist barrier, torn NVM record, crash mid-destage, power cut
          under NVM-full backpressure) *)
}

val default : config
(** The full matrix: 161 single-spindle scenarios (5 rigs x 5 kinds x 7
    triggers, minus the regular-disk grown-defect cells, whose remap
    table is volatile and so have nothing to assert) plus 84 volume
    scenarios (4 mirrored rigs x 7 kinds x 3 triggers) plus 32 NVM-WAL
    scenarios (2 staged rigs x 4 NVM kinds x 4 triggers). *)

val smoke : config
(** CI-sized: torn writes only, two triggers, one rig per file system,
    plus two mirrored-volume drive-death cells and four NVM-WAL cells
    (torn NVM record and crash mid-destage on the staged-VLD rig). *)

type cell = {
  rig : Rig.rig;
  kind : Fault.Plan.kind;
  trigger : int;  (** I/O count after which the fault arms *)
  case : int;  (** position in the matrix; perturbs the scenario seed *)
}

val sweep : (config, cell) Fault.Cell.t
(** The (rig, kind, trigger) matrix — single-spindle slice, then the
    volume slice, then the NVM-WAL slice; [case] numbers only the cells
    actually present — its repro string
    ["rig=ufs/vld,seed=9203,kind=torn,trigger=5,case=37"], and one cell
    body for every rig: build, install the plan, run the workload,
    flush the plan, shut down cleanly unless the power was cut, freeze,
    remount, then judge with fsck plus the rig's extra checkers, the
    oracle, and remount idempotence.  What differs per family comes
    with the stack:
    - plain rigs put the plan on the drive (on the remount drive for
      [Transient_read], which strikes recovery), have no shutdown step,
      allow media findings for torn, rot and defect, and judge the
      oracle strict or lax by kind;
    - volume rigs put the plan on leg [case mod legs], settle the volume
      on shutdown, freeze every leg, add {!Volume_check}, allow media
      findings on stripes only, and hold mirrors to [Redundant];
    - NVM-WAL rigs put the plan on the drive and the NVM, drain the log
      on shutdown (a failed drain is a violation), freeze the drive plus
      the NVM image, allow no media findings, and judge [Strict].

    Counters: ["power cuts"], ["degraded recoveries"] (remounts that
    came up read-only), ["oracle checks"]. *)

val degraded_demo : Rig.fs_kind -> (unit, string) result
(** Seeded corruption of one live inode's sole metadata copy on an
    otherwise healthy image; checks the remount comes up [`Degraded],
    refuses writes with [`Read_only], and still serves unaffected
    reads. *)

(** {1 Image generation and offline fsck (vlsim mkimage / vlsim fsck)} *)

type corruption = C_none | C_dangling | C_checksum | C_rot

val corruption_of_string : string -> (corruption, string) result

val make_image :
  fs:Rig.fs_kind ->
  corrupt:corruption ->
  (Image.header * Disk.Sector_store.t, string) result
(** A small healthy file system image, optionally with file "b"'s sole
    metadata copy damaged the requested way. *)

type fsck_result = {
  fr_header : Image.header;
  fr_mode : [ `Rw | `Degraded of string ];
  fr_report : Report.t;
  fr_notes : (string * int) list;  (** recovery counters from the mount *)
}

val fsck_image : Image.header -> Disk.Sector_store.t -> (fsck_result, string) result
(** Rebuild the stack named by the header around the platters, mount it,
    run the invariant checker, and fold what the mount itself had to
    drop or repair into the report's findings. *)
