(** A minimal JSON value and its one printer.

    Every machine-readable artifact the simulator writes — the bench
    records and the JSONL trace export — is built as a {!t} and printed
    by {!to_string}, so number formatting and string escaping are
    decided in one place. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** keys print in list order *)

val to_string : t -> string
(** Compact JSON (no whitespace).  Finite floats print as the shortest
    of [%.15g]/[%.17g] that parses back to the same float (integral
    values as [N.0]); NaN and infinities print as [null].  Strings are
    escaped per RFC 8259: quote, backslash and control bytes use
    backslash escapes, and bytes [>= 0x80] print as [\u00XX]. *)
