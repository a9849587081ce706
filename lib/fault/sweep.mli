(** Systematic crash/fault sweep over the VLD.

    Generalizes the crash-point sweep: for every (fault kind × trigger
    boundary × tail mode) cell, run a seeded workload against a fresh
    VLD with a {!Plan} installed, freeze the platters at the crash (or
    at the end), bring up a new drive from the frozen image, recover,
    and check the durability invariants:

    - recovery never aborts — damaged map nodes are skipped and scanned
      around, not fatal;
    - no committed write is lost and no ghost appears, except that a
      fault which damages the {e only} copy of map state (bit rot of a
      map node) may regress the affected node's entries to an older
      committed version — never to fabricated contents, and never more
      entries than one node holds;
    - no read silently returns corrupt data: a block whose media was
      damaged reads back as an honest error, everything else reads back
      exactly as committed;
    - recovery is idempotent: crashing again immediately after recovery
      and recovering a second time reproduces the same logical state. *)

type config = {
  seed : int64;  (** master seed; every scenario derives from it *)
  ops : int;  (** logical operations per workload *)
  logical_blocks : int;
  hot_blocks : int;  (** workload writes land on this prefix, forcing overwrites *)
  cylinders : int;  (** disk size; sweeps shrink the drive to stay fast *)
  triggers : int;  (** boundaries swept per kind: faults at accesses [0..triggers-1] *)
  kinds : Plan.kind list;
  tail_modes : bool list;  (** whether to power down (write the tail) before freezing *)
}

val default : config
(** 5 kinds × 22 triggers × 2 tail modes = 220 scenarios, of which
    comfortably over 200 actually inject their fault (a trigger can
    fall past the end of a short recovery's read sequence). *)

type cell = {
  kind : Plan.kind;
  trigger : int;  (** the fault fires at this access boundary *)
  with_tail : bool;  (** power down (write the tail) before freezing *)
  case : int;  (** position in the matrix; perturbs the workload seed *)
}

val sweep : (config, cell) Cell.t
(** The matrix (tail-major, then kind, then trigger; [case] numbers the
    cells from 1), its repro string
    ["seed=7101,kind=torn,trigger=5,tail=true,case=37"], and the cell
    body: run the seeded workload under the plan, freeze, recover
    (twice, for idempotence) and judge.  Counters: ["power cuts"],
    ["degraded recoveries"] (recoveries that had to skip damage). *)
