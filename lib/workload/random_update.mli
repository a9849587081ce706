(** Random synchronous small-update benchmark (Figures 8 and 9, Table 2).

    One file of a given size; repeated random 4 KB overwrites with no
    idle time.  For UFS every write reaches the platter before returning;
    for LFS the write buffer ("NVRAM") absorbs updates and flushes —
    cleaner included — when full.  The steady-state mean latency per
    block is the paper's y-axis. *)

type result = {
  mean_latency_ms : float;
  p50_ms : float;  (** per-update wall-latency median, from a {!Trace.Histogram} *)
  p99_ms : float;  (** per-update wall-latency 99th percentile *)
  breakdown : Vlog_util.Breakdown.t;  (** mean per-update breakdown (Fig. 9) *)
  utilization : float;                (** the [df] number at measurement time *)
  updates : int;
}

val run :
  ?updates:int ->
  ?warmup:int ->
  ?compact_first:bool ->
  file_mb:float ->
  Rig.stack ->
  result
(** Create and fill a [file_mb]-MB file, optionally give the device a
    long idle window so the compactor runs ([compact_first], used for the
    Table 2 / Figure 9 measurements, as the paper does), then measure
    [updates] random 4 KB rewrites after [warmup] unmeasured ones. *)
