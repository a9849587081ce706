(** One cell runner for the crash/fault sweeps.

    {!Sweep}, [Check.Fs_sweep] and [Check.Array_sweep] are matrices of
    independent cells: each cell derives its seed and builds its rig
    from its own coordinates, runs a workload under a fault plan, and
    judges the result.  Everything around the cell body is common and
    lives here: the coordinates and their [--repro] string, the strict
    parser that turns such a string back into a cell, the per-cell
    verdict, the merged outcome with its named counters, and the
    {!Par.map} fan-out that degrades a crashed or wedged worker to a
    structured failure.  A sweep is data ({!t}) plus a cell body. *)

type coords = (string * string) list
(** A cell's coordinates as ordered [key=value] fields. *)

val repro : coords -> string
(** The copy-pasteable [--repro] argument: the fields joined as
    ["k1=v1,k2=v2,..."] in order. *)

type fields = string -> string
(** Field lookup over a parsed repro string.  Only the keys the sweep
    declares are present; asking for another key is a programming error
    ([Invalid_argument]). *)

val int : fields -> string -> (int, string) result
val pos_int : fields -> string -> (int, string) result
val int64 : fields -> string -> (int64, string) result
val bool : fields -> string -> (bool, string) result
(** Typed field readers; an unparsable value is an [Error] naming the
    key. [pos_int] also rejects values below 1. *)

type judgement = {
  injected : bool;  (** the cell's fault actually fired *)
  loss : bool;  (** the cell saw honest data loss (verdict ["data-loss"]) *)
  counters : (string * int) list;  (** the sweep's named counters for this cell *)
  violations : string list;  (** invariant violations, in the order found *)
}
(** What a cell body returns. *)

type failure = { repro : string; message : string }
(** One violation, with the repro string that reruns its cell. *)

val pp_failure : Format.formatter -> failure -> unit
(** ["<message> (--repro <spec>)"]. *)

type outcome = {
  cells : int;
  injected : int;  (** cells whose fault fired *)
  counters : (string * int) list;  (** the sweep's counters, summed, in declared order *)
  verdicts : (string * string) list;
      (** per-cell [(repro, "ok" | "data-loss" | "failed")], in matrix
          order *)
  failures : failure list;  (** empty on success *)
}

val count : outcome -> string -> int
(** A named counter's value ([0] when the outcome lacks it). *)

type ('cfg, 'cell) t = {
  keys : string list;  (** every repro key, in print order *)
  counters : string list;  (** counter names, in report order *)
  cells : 'cfg -> 'cell list;
      (** the matrix in canonical order; a cell's seed must derive from
          its coordinates alone, never from which cells ran before it *)
  coords : 'cfg -> 'cell -> coords;  (** keys exactly as [keys] lists them *)
  decode : 'cfg -> fields -> ('cfg * 'cell, string) result;
      (** inverse of [coords]: the cell, and the config it ran under *)
  run_cell : 'cfg -> 'cell -> judgement;
}

val parse : ('cfg, 'cell) t -> 'cfg -> string -> ('cfg * 'cell, string) result
(** Strict inverse of [repro (coords cfg cell)], decoded over a base
    config: rejects a field without [=], an unknown key, a key given
    twice, a missing key, and any value [decode] refuses. *)

val run_one : ('cfg, 'cell) t -> 'cfg -> 'cell -> outcome
(** One cell exactly as {!run} counts it. *)

val run :
  ?jobs:int ->
  ?timeout_s:float ->
  ?cell:('cfg -> 'cell -> judgement) ->
  ('cfg, 'cell) t ->
  'cfg ->
  outcome
(** Run the whole matrix through {!Par.map} on [jobs] workers (default
    [1]: in-process, no fork) and merge per-cell outcomes in matrix
    order, so the result is identical for every [jobs] value.  A cell
    whose worker crashes, raises, or exceeds [timeout_s] (default 300 s,
    enforced only when [jobs > 1]) contributes a ["failed"] verdict and
    a {!failure} carrying its repro string instead of killing the
    sweep.  [cell] overrides the cell body — tests use it to plant
    deliberately crashing or hanging cells. *)
