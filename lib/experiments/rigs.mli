(** Shared experiment plumbing: scales, standard rig constructors, and
    the paper's constant parameters. *)

type scale = Quick | Full
(** [Quick] shrinks trial counts so the whole suite smoke-tests in
    seconds; [Full] uses paper-like sizes. *)

val nvram_blocks : int
(** The paper's 6.1 MB write buffer in 4 KB blocks: LFS's default
    [buffer_blocks]. *)

val seagate : Disk.Profile.t
val hp : Disk.Profile.t

val default_host : Host.t
(** SPARCstation-10: the paper's default platform. *)

val vlfs_buffered : Vlfs.config
(** VLFS with asynchronous writes through its 6.1 MB buffer. *)

val rig :
  ?seed:int64 ->
  ?profile:Disk.Profile.t ->
  ?host:Host.t ->
  ?vlfs:Vlfs.config ->
  ?eager_mode:Vlog.Eager.mode ->
  ?compaction:Vlog.Compactor.target_policy ->
  string ->
  Rig.stack
(** A fresh rig named by its {!Rig} string (["ufs/vld"], ...) on the
    (default) simulated Seagate slice with the SPARC host and each file
    system's default config.  Raises [Invalid_argument] on a name the
    codec refuses. *)

val the_four : ?seed:int64 -> unit -> (string * Rig.stack) list
(** The four configurations of Figure 5, labeled as in the paper:
    UFS/regular, UFS/VLD, LFS/regular, LFS/VLD. *)

val device_mb : Rig.stack -> float
(** Logical device capacity of a rig in MB. *)

val file_mb_for_utilization : Rig.stack -> float -> float
(** File size whose data blocks bring the rig's disk to roughly the given
    utilization. *)
