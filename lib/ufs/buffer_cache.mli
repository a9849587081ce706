(** Write-back buffer cache shared by both file systems.

    Blocks are keyed by device block number.  The cache is LRU-bounded;
    eviction hands dirty victims back to the caller, which owns the
    device and decides how to write them.  Keeping I/O out of the cache
    keeps the replacement policy testable in isolation. *)

type t

val create : capacity:int -> block_bytes:int -> t
(** [capacity] in blocks; both must be positive. *)

val capacity : t -> int
val size : t -> int

val find : t -> int -> (Bytes.t * int) option
(** Lookup; refreshes recency.  The block is the view [(buf, pos)]: its
    contents are the [block_bytes] bytes of [buf] from [pos].  A view
    may share [buf] with other cached blocks (a device run buffer), so
    callers never write through it: they copy the block out. *)

val insert : t -> int -> ?pos:int -> Bytes.t -> dirty:bool -> (int * Bytes.t) list
(** Insert or replace a block as the view of [buf] at [pos] (default 0;
    the view must lie within [buf]).  The cache keeps [buf] itself, not
    a copy, so the caller must not modify it afterwards.  Replacing keeps
    the dirty bit sticky: inserting clean over dirty leaves it dirty.
    Returns evicted dirty blocks, oldest first, which the caller must
    write out. *)

val mark_clean : t -> int -> unit
val is_dirty : t -> int -> bool

val dirty_blocks : t -> (int * Bytes.t) list
(** All dirty blocks in ascending block order — elevator order for the
    flush, which is how UFS sorts its asynchronous writes.

    Here and in {!insert}'s victims each block comes as a buffer of
    exactly [block_bytes] that a device write can take: the entry's own
    buffer when the view spans all of it, a one-block copy otherwise. *)

val forget : t -> int -> unit
(** Drop a block without writing it (used when its file is deleted). *)

val drop_clean : t -> unit
(** Evict every clean block — the experiments' cache flush between
    benchmark phases. *)

val clear : t -> unit
(** Drop everything, dirty included; only for tests. *)
