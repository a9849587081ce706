(** Burst-and-idle benchmark (Figures 10 and 11).

    At a fixed disk utilization, perform a burst of random 4 KB updates,
    pause for an idle interval (LFS cleans and background-flushes; a VLD
    compacts), and repeat.  The y-axis is the mean foreground latency per
    4 KB block — idle-time work is free. *)

type result = {
  latency_ms_per_block : float;
  bursts : int;
  burst_blocks : int;
  idle_ms : float;
}

val run :
  ?bursts:int ->
  ?settle_ms:float ->
  file_mb:float ->
  burst_kb:int ->
  idle_ms:float ->
  Rig.stack ->
  result
(** [file_mb] sets the utilization (the file is created once and
    updated in place); [burst_kb] is the burst size (128 KB - 4 MB in the
    paper); [idle_ms] the pause between bursts.  [settle_ms] (default
    5 s) ages the file system before measurement; run enough [bursts]
    that steady state dominates whatever headroom the settle created. *)
