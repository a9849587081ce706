(** The NVM staging-tier study ([bench nvm]).

    Sync-small-write latency and burst-absorption curves across four
    rigs — plain VLD (UFS, every write pays the disk), NVRAM-LFS (the
    paper's 6.1 MB write buffer: durability deferred to the buffer
    flush), and the NVM write-ahead staging tier over a regular disk
    and over a VLD — crossed with burst sizes and destager duty cycles.
    Each cell runs bursts of synchronous 4 KB writes with an idle gap
    after each (where the destager runs inside its [destage_util]
    budget), then a sustained-overload phase with no idle at all, where
    a full log makes every append pay the disk cost it was hiding.

    The acceptance criteria are read off the merged rows: at burst
    sizes that fit the log, the staged-VLD rig's sync-write latency
    must be at least 10x below plain VLD's, and its sustained-overload
    throughput within 1.25x of plain VLD's. *)

type row
(** One (rig × burst × duty cycle) cell's measurements. *)

val subs : ?seed:int -> scale:Rigs.scale -> unit -> (string * (unit -> row)) list
(** One labelled job per cell of the rig x burst x duty-cycle matrix;
    unstaged rigs carry a single duty-cycle slot (the knob means
    nothing to them). *)

val merge : scale:Rigs.scale -> row list -> string * Vlog_util.Json.t
(** The rendered table plus the criteria line, and
    [{"cells": [...], "criteria": {...}}].  A cell's [overload_ops_s]
    is [null] (and [overload_saturated] false) when its overload phase
    spent no simulated time, so it has no rate; [criteria] holds
    [latency_ratio], [latency_ok], [overload_ratio] and [overload_ok]. *)
