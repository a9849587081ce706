(** Deterministic fault plans.

    A plan turns one seeded decision — "the [trigger]-th media access of
    this kind goes wrong" — into a {!Disk.Disk_sim.injector} installed on
    a simulated drive.  Everything downstream (which sector tears, which
    bit rots) flows from the plan's own {!Vlog_util.Prng.t}, so a
    scenario is reproducible from [(kind, trigger, seed)] alone.  Plans
    are how the sweep harness ({!Sweep}) and the [vlsim faults] command
    damage a drive on purpose. *)

type kind =
  | Torn_write
      (** power dies partway through the [trigger]-th write: a prefix of
          its sectors (chosen at a sector boundary) reaches the platter,
          the rest keep their stale contents, and {!Disk.Disk_sim.Power_cut}
          is raised *)
  | Bit_rot
      (** one sector of the [trigger]-th write silently decays after the
          write completes: a bit flips without an ECC refresh, so the
          damage surfaces only on the next read of that sector *)
  | Transient_read of int
      (** the [trigger]-th read fails, as do the next [n - 1] attempts;
          retry [n] succeeds.  Models recoverable positioning/ECC errors
          that bounded retry must absorb *)
  | Grown_defect
      (** the [trigger]-th write hits a permanently bad sector: the write
          fails there (a prefix may persist) and every later access to
          that sector fails too, until the block is retired and the data
          rehomed *)
  | Power_cut
      (** power dies on the boundary just before the [trigger]-th write —
          the clean-cut case: no media damage, only lost volatile state *)
  | Drive_death
      (** the whole drive dies on its [trigger]-th access (reads and
          writes counted together): that access and every later one fails
          permanently.  Only a redundant volume survives this *)
  | Drive_hang of float
      (** the drive stops responding for this many simulated milliseconds
          starting at its [trigger]-th access: every command in the window
          fails transiently, then service resumes.  Models firmware
          recovery stalls / controller resets *)
  | Drive_flaky of int
      (** from the [trigger]-th access on, the drive alternates bursts of
          [n] failed commands with [n] served ones — an intermittent cable
          or dying controller *)
  | Latent_sectors of int
      (** the [trigger]-th read discovers a latent range of [n] bad
          sectors anchored at that read's position: reads of the range
          fail permanently until the sectors are rewritten (the drive
          remaps on write).  Models defects grown while the region sat
          idle, found only on the next access *)
  | Nvm_cut
      (** power dies on the boundary just before the [trigger]-th NVM
          persist barrier: the volatile front is lost whole — a cut
          mid-append, before the write's commit point *)
  | Nvm_torn
      (** the [trigger]-th NVM persist barrier tears: a seeded strict
          byte prefix of the volatile front reaches the persisted
          domain, the tail record's seal is lost, and
          {!Disk.Disk_sim.Power_cut} is raised *)
  | Nvm_destage_cut
      (** power dies just before the [trigger]-th write on the backing
          disk — in a staged rig, a crash mid-destage: the NVM log
          survives and must replay *)
  | Nvm_full
      (** the backpressure cell: meant for a rig whose WAL log is
          capped tiny, so appends destage inline; power dies just
          before the [trigger]-th backing-disk write, mid-backpressure *)

val kind_to_string : kind -> string

val kind_of_string : string -> (kind, string) result
(** Inverse of {!kind_to_string}: accepts
    [torn | rot | transient[:n] | defect | powercut
     | death | hang[:ms] | flaky[:n] | latent[:n]
     | nvmcut | nvmtorn | destagecut | nvmfull]. *)

val is_drive_kind : kind -> bool
(** Whether the kind models a whole-drive failure (death, hang, flaky,
    latent range) rather than a single-sector event.  Drive kinds are
    meant for volume legs: a lone drive has nowhere to fail over to. *)

val is_nvm_kind : kind -> bool
(** Whether the kind targets the NVM staging tier's persistence
    boundary.  NVM kinds only make sense on a rig with an {!Nvm_wal}
    in front of the disk; the plain sweeps reject them. *)

val workload_time : kind -> bool
(** Whether the kind strikes while the workload runs.  Only
    [Transient_read] is false: it strikes the recovery after the crash,
    so a single-drive sweep installs its plan on the remount drive.
    Drive kinds strike a running volume leg, and NVM kinds cut the power
    under the staged workload. *)

type t

val create : kind -> trigger:int -> seed:int64 -> t

val install : t -> Disk.Disk_sim.t -> unit
(** Interpose the plan on every media access of [disk] and register a
    whole-drive {!Disk.Disk_sim.set_health_probe} reporting {!health}.
    Install after formatting: the trigger counts only accesses made once
    the plan is in place. *)

val install_nvm : t -> Nvm.Nvm_sim.t -> unit
(** Interpose the plan on every persist barrier of [nvm].  Only the NVM
    kinds ({!is_nvm_kind}) ever fire there; installing any other kind
    is a no-op on the NVM side.  A staged rig installs the same plan on
    both the NVM ([install_nvm]) and the backing disk ({!install}), and
    whichever counter the kind watches decides where it strikes. *)

val flush : t -> unit
(** Apply any scheduled-but-unapplied damage (pending bit rot) to the
    platters now.  Rot is normally applied lazily at the next media
    access; call this before freezing a snapshot so the decay is in it. *)

val fired : t -> bool
(** Whether the planned fault has been injected yet. *)

val stall_until : t -> float option
(** The absolute deadline (simulated ms) until which a fired
    [Drive_hang] is still refusing commands; [None] when the drive is
    not currently hanging.  This is the stall probe a
    {!Disk.Disk_queue} wants: a queued command that fails transiently
    while the drive hangs is re-queued behind this deadline — stalling
    just its own tag — instead of completing as failed. *)

val health : t -> Disk.Disk_sim.drive_health
(** Whole-drive condition implied by the plan's current state:
    [Dead_drive] once a [Drive_death] fires, [Hung until] while a fired
    [Drive_hang] is inside its window, [Flaky_drive] once a
    [Drive_flaky] fires, [Ok_drive] otherwise (sector-level kinds never
    report a drive condition).  {!install} registers this as the disk's
    health probe so the command queue and the volume manager can
    distinguish "stall the tag", "retry with backoff", and "abort —
    the drive is gone" without knowing about fault plans. *)

val kind : t -> kind
val trigger : t -> int

type leg_spec = { ls_kind : kind; ls_leg : int option }
(** A whole-drive fault aimed at a specific array leg: [ls_leg] is the
    flat leg index ([None] = the caller's default victim). *)

val leg_spec_to_string : leg_spec -> string
(** [death@2], or bare [hang:80] when no leg is pinned. *)

val leg_spec_of_string : string -> (leg_spec, string) result
(** Inverse of {!leg_spec_to_string}; accepts [KIND] or [KIND@LEG] where
    KIND must satisfy {!is_drive_kind}.  This is the parser behind
    [vlsim volume fail --fault]. *)

val damaged_lbas : t -> int list
(** Absolute sectors whose contents this plan damaged or withheld: the
    unpersisted suffix of a torn write, a rotted sector, a grown-defect
    sector.  Sweep invariants use this as the {e allowance}: a logical
    block may legitimately read as an error (or regress) only if its
    physical home overlaps this list — any other divergence is a bug.
    Entries are not retracted if later writes repair the sector. *)
