(** Large-file benchmark (Figure 7): sequentially write one big file,
    read it back sequentially, rewrite it randomly (asynchronously, and
    synchronously where the file system supports it), read it
    sequentially again, and read it randomly.  Bandwidths in MB/s of
    simulated time. *)

type phase =
  | Seq_write
  | Seq_read
  | Random_write_async
  | Random_write_sync
  | Seq_read_again
  | Random_read

val phase_name : phase -> string

type result = (phase * float) list
(** Bandwidth per phase; [Random_write_sync] is omitted for rigs that
    buffer all writes (LFS). *)

val run : ?mb:int -> ?sync_phase:bool -> Rig.stack -> result
(** Default 10 MB file.  [sync_phase] adds the synchronous random-write
    phase (the paper only runs it for UFS). *)
