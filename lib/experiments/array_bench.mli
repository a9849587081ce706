(** The 16-spindle array study ([bench array]) and its
    fault-under-load companion ([bench array-faults]).

    Aggregate small-write IOPS for three array organisations —
    striped-VLD ([svld]), striped regular legs ([sreg]) and
    striped-mirrors over VLD legs ([raid10]) — across spindle counts
    {1,2,4,8,16} and per-spindle queue depths {1,4,16}, driven closed
    loop: every round scatters [depth] random single-block writes per
    group arriving at the previous round's completion, so each leg's
    tagged queue holds a full window for its policy (SATF on VLD legs)
    to reorder.  [Quick] shrinks the grid to spindles {1,2,4} × depths
    {1,4}; [raid10] rows exist only for even spindle counts.

    Two companion studies ride along: foreground p99 under rebuild
    (healthy vs. throttled background resilver vs. the blocking cursor
    sweep, with a 3× healthy-p99 budget), and the sharded multi-tenant
    fairness run ({!Tenant.run}). *)

type part
(** One array job's result: a grid cell, a rebuild mode or the
    fairness run. *)

val subs : ?seed:int -> scale:Rigs.scale -> unit -> (string * (unit -> part)) list
(** One labelled job per grid cell, one per rebuild mode and one for
    the fairness run.  [seed] (default 0) salts the cells and the
    rebuild runs. *)

val merge : part list -> string * Vlog_util.Json.t
(** The IOPS table plus the scalability, rebuild and fairness
    summaries, and [{"cells", "scalability", "rebuild", "fairness"}]:
    per-cell records, the widest-over-single ratio with its ≥8×
    criterion, the rebuild modes with the budget verdict, and the
    fairness spread with per-tenant rows. *)

type fault_row
(** One service state of the fault-under-load study. *)

val fault_subs :
  ?seed:int -> scale:Rigs.scale -> unit -> (string * (unit -> fault_row)) list
(** Closed-loop small writes on a 4-spindle raid10, one job per service
    state: every leg healthy ([healthy]), one leg dead with no spare
    ([one-dead]), or a resilver pumped in idle windows while the
    surviving source runs flaky bursts ([rebuild-flaky]). *)

val fault_merge : fault_row list -> string * Vlog_util.Json.t
(** The degraded-mode summary, and [{"depth", "modes"}] with one record
    per service state. *)
