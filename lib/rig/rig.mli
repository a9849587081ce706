(** Rigs: a file system on a device, named by one string and built by
    one function.

    The paper's evaluation is a grid of rigs (UFS and LFS on a regular
    disk and on a VLD, VLFS on the drive itself); the reproduction adds
    multi-drive volumes and an NVM staging tier under the same file
    systems.  A rig string such as ["ufs/vld"], ["lfs/mirror-vld"] or
    ["ufs/nvm-vld"] names one of them everywhere: in the paper
    experiments, the studies, the crash sweep's repro lines and
    [vlsim --rig].  {!build} makes any of them, fresh or remounted from a
    frozen image; {!build_device} makes just the device half for callers
    that drive a raw device with no file system. *)

(** {1 The vocabulary} *)

type fs_kind = F_ufs | F_lfs | F_vlfs

type vol_layout = V_stripe | V_mirror | V_raid10
(** Canonical small volume shapes: 2-group stripe, 2-way mirror,
    2 x 2 stripe of mirrors. *)

type vol_leg = VL_regular | VL_vld

type wal_backing = W_regular | W_vld
(** What an NVM-WAL rig's destager drains into. *)

type dev_kind =
  | D_vld
  | D_regular
  | D_direct  (** the bare platters: VLFS is the drive's firmware *)
  | D_volume of vol_layout * vol_leg
      (** the file system runs on a {!Volume} over several drives *)
  | D_nvm of wal_backing
      (** an {!Nvm.Nvm_wal} staging tier fronts the logical disk: writes
          commit at the NVM persist barrier, a destager drains them to
          the backing device, and a remount replays the NVM log first *)

type rig = { fs : fs_kind; on : dev_kind }

val fs_name : fs_kind -> string
(** ["ufs"], ["lfs"], ["vlfs"] *)

val dev_name : dev_kind -> string
(** ["vld"], ["regular"], ["direct"], ["mirror-vld"], ["nvm-regular"], ... *)

val rig_name : rig -> string
(** [fs_name ^ "/" ^ dev_name]: ["ufs/vld"], ["vlfs/direct"], ... *)

val label : rig -> string
(** The paper's display label: ["UFS/regular"], ["UFS/VLD"],
    ["LFS/VLD"], ["UFS/mirror-vld"], ["VLFS/direct"]. *)

val rig_of_string : string -> (rig, string) result
(** Inverse of {!rig_name} over exactly {!every_rig}.  A known file
    system on a device it cannot run on is refused with a message naming
    the devices it can run on. *)

val fs_kinds : fs_kind list
val dev_kinds : dev_kind list

val every_rig : rig list
(** Every buildable rig, in {!fs_kinds} x {!dev_kinds} order: UFS and LFS
    on every device but the bare platters, VLFS on the bare platters
    only. *)

val all_rigs : rig list
(** The five single-spindle stacks: UFS and LFS on both the virtual log
    disk and a plain disk, VLFS directly on the drive. *)

(** {1 The device half} *)

type frozen = { drives : Disk.Sector_store.t array; nvm : Bytes.t option }
(** A stack's frozen media: every drive's platters in leg order, plus
    the NVM's persisted image on a staged rig. *)

type source = Fresh | Frozen of frozen
(** Format fresh media, or remount (recover) from a frozen image. *)

type device = {
  clock : Vlog_util.Clock.t;
  trace : Trace.sink;  (** {!Trace.null} unless built with [~trace:true] *)
  dev : Blockdev.Device.t;
      (** the logical device; on the bare platters a regular-disk
          capacity stand-in that no I/O flows through *)
  drives : unit -> Disk.Disk_sim.t array;
      (** the drives now in service, in leg order (a volume swaps in hot
          spares) *)
  vld : Blockdev.Vld.t option;  (** the VLD of a [vld] or [nvm-vld] rig *)
  volume : Volume.t option;
  wal : Nvm.Nvm_wal.t option;
}

val build_device :
  profile:Disk.Profile.t ->
  ?trace:bool ->
  ?logical_blocks:int ->
  ?eager_mode:Vlog.Eager.mode ->
  ?compaction:Vlog.Compactor.target_policy ->
  ?spare_blocks:int ->
  ?wal:Nvm.Nvm_wal.config ->
  ?plan:Fault.Plan.t ->
  ?victim:int ->
  prng:Vlog_util.Prng.t Lazy.t ->
  dev_kind ->
  source ->
  (device, string) result
(** Drive(s), then the logical device on them, on a fresh clock.  Every
    drive uses the one buffer-policy rule: [Forward_discard] for regular
    media, [Whole_track] otherwise.
    - [trace] (default [false]) attaches a recording sink to the clock
      and threads it through every drive and the NVM.
    - [logical_blocks] sizes a VLD or volume (default: what one drive
      holds after the virtual log's map pieces and reserve).
    - [eager_mode] and [compaction] pick a VLD's allocator and compactor
      policies (defaults: the paper's).
    - [spare_blocks] (default 0) reserves a regular disk's remap pool.
    - [wal] configures the NVM tier (default {!Nvm.Nvm_wal.default_config}).
    - [plan] lands on drive [victim mod drives] (default 0) and on the
      NVM: on a [Frozen] source before the device recovers, so it strikes
      the recovery; on a [Fresh] one once the device is built.
    - [prng] is forced at most once, and only when the device needs one
      (a VLD or a volume), so each caller keeps its own PRNG stream. *)

(** {1 The whole stack} *)

type typed = T_ufs of Ufs.t | T_lfs of Lfs.t | T_vlfs of Vlfs.t

(** A mounted file system behind one face.  File-system calls return the
    file system's own result; {!ok_exn} turns an error into the
    benchmark's [Failure]. *)
type ops = {
  create : string -> (Vlog_util.Breakdown.t, Blockdev.Fs_error.t) result;
  write :
    string -> off:int -> Bytes.t -> (Vlog_util.Breakdown.t, Blockdev.Fs_error.t) result;
  read :
    string ->
    off:int ->
    len:int ->
    (Bytes.t * Vlog_util.Breakdown.t, Blockdev.Fs_error.t) result;
  delete : string -> (Vlog_util.Breakdown.t, Blockdev.Fs_error.t) result;
  sync : unit -> Vlog_util.Breakdown.t;
  shutdown : unit -> unit;
      (** the file system's clean stop: UFS syncs, LFS and VLFS power
          down *)
  drop_caches : unit -> unit;
  idle : float -> unit;
      (** Grant an idle window of the given length and advance the clock
          to its end: LFS cleans and background-flushes, a VLD
          compacts. *)
  utilization : unit -> float;  (** the [df] number *)
  files : unit -> string list;
  size : string -> (int, Blockdev.Fs_error.t) result;
  mode : unit -> [ `Rw | `Degraded of string ];
  block_bytes : int;
  sync_each : bool;  (** every committed operation is a durability point *)
}

val ok_exn : ('a, Blockdev.Fs_error.t) result -> 'a
(** The value, or [Failure "file system error: ..."]: in a benchmark an
    error is a configuration bug. *)

type stack = {
  rig : rig;
  device : device;
  typed : typed;
  ops : ops;
  prng : Vlog_util.Prng.t;  (** the [prng] the stack was built with *)
  notes : (string * int) list;
      (** the mount's recovery counters (orphans cleared, dangling
          entries dropped, inodes skipped); [[]] when fresh *)
  settle : unit -> (unit, string) result;
      (** the device's clean-shutdown step: a volume settles, an NVM
          tier drains (a failed drain is the error) *)
  freeze : unit -> frozen;
}

val build :
  profile:Disk.Profile.t ->
  ?host:Host.t ->
  ?trace:bool ->
  ?ufs:Ufs.config ->
  ?lfs:Lfs.config ->
  ?vlfs:Vlfs.config ->
  ?logical_blocks:int ->
  ?eager_mode:Vlog.Eager.mode ->
  ?compaction:Vlog.Compactor.target_policy ->
  ?spare_blocks:int ->
  ?wal:Nvm.Nvm_wal.config ->
  ?plan:Fault.Plan.t ->
  ?victim:int ->
  prng:Vlog_util.Prng.t ->
  ?dev_prng:Vlog_util.Prng.t Lazy.t ->
  rig ->
  source ->
  (stack, string) result
(** {!build_device}, then format or mount the file system on it with
    its config ([ufs], [lfs], [vlfs]; defaults: each file system's
    [default_config]) and [host] (default {!Host.free}).  [plan] lands
    after the format on a fresh stack and before recovery on a remount.
    The device PRNG [dev_prng] defaults to [lazy (Prng.split prng)]. *)

val elapsed : stack -> (unit -> 'a) -> 'a * float
(** Run a closure and report the simulated milliseconds it consumed. *)
