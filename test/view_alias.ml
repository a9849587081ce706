(* Shared body of the file systems' cache-view aliasing tests.  A cold
   scan caches blocks that may be views of one device run buffer; the
   buffer a read returns must be the caller's own, and a partial
   overwrite of one block must not leak into, or pick up bytes from, its
   neighbours' views.  [settle] makes everything durable and drops the
   clean cache. *)
let scan_overwrite_rescan ~block_bytes ~write ~read ~settle =
  let n = 64 in
  let len = n * block_bytes in
  let model = Bytes.init len (fun i -> Char.chr ((i * 7) mod 251)) in
  write ~off:0 (Bytes.copy model);
  settle ();
  let scan what =
    let got = read ~off:0 ~len in
    Alcotest.(check bytes) what model got;
    (* The caller owns the result: scribbling on it changes nothing. *)
    Bytes.fill got 0 len 'X'
  in
  scan "cold scan";
  let at = (10 * block_bytes) + 100 in
  let patch = Bytes.make 500 'p' in
  write ~off:at patch;
  Bytes.blit patch 0 model at (Bytes.length patch);
  scan "re-read through the cache";
  settle ();
  scan "re-read after drop_caches"
