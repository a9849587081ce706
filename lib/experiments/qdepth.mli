(** Latency-under-load curves: throughput and tail latency per
    (fs-style × queue depth × scheduling policy) under an open-loop
    arrival process.

    Each cell drives a random-small-write stream shaped like one of the
    three file systems' block placement — [ufs] updates random blocks in
    place, [lfs] appends sequentially, [vlfs] eager-writes through a
    real VLD with placed writes bound at dispatch — into a
    {!Disk.Disk_queue} capped at the cell's tagged-command depth.  The
    cell first measures its saturation throughput (closed backlog), then
    replays Poisson arrivals at multiples of the {e depth-1 FIFO}
    saturation rate of the same stream, reporting achieved throughput
    and p50/p99/p999 completion latency per offered load.  Everything is
    derived from the cell coordinates, so {!Suite} runs the cells as
    parallel jobs with byte-identical output for any [--jobs]. *)

type result
(** One cell's saturation rates and per-load rows. *)

val subs :
  ?seed:int -> scale:Rigs.scale -> unit -> (string * (unit -> result)) list
(** One labelled job per (fs × policy × depth) cell: 45 at every scale.
    [seed] (default 0) salts every cell's derived PRNG seeds. *)

val merge : result list -> string * Vlog_util.Json.t
(** The rendered table, and one JSON record per (cell × load) with keys
    [fs], [policy], [depth], [load], [rate_ops_s], [throughput_ops_s],
    [n], [mean_ms], [p50_ms], [p99_ms], [p999_ms], [max_ms],
    [base_ops_s], [sat_ops_s]. *)
