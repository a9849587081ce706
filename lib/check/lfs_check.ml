(* fsck for LFS: re-derive the live set (inode data blocks, on-disk
   inode parts, imap chunks) from the checker accessors and cross-check
   it against the owner table and the per-segment live counters LFS
   cleans by.  LFS cannot leak in the classical sense — dead copies are
   simply cleanable garbage — so the leak-shaped failures here are live
   counters that disagree with reachability. *)

let check (t : Lfs.t) : Report.t =
  let fd = ref [] in
  let add f = fd := f :: !fd in
  let cfg = Lfs.config t in
  let area = Lfs.segment_area_start t in
  let area_end = area + (Lfs.n_segments t * cfg.Lfs.segment_blocks) in
  (* Directory entries <-> inodes.  Inum 0 is the directory file itself
     and is never named. *)
  let named = Hashtbl.create 16 in
  List.iter
    (fun (name, inum) ->
      if not (Lfs.inode_in_use t inum) then
        add
          (Report.findf Report.Dangling_dirent "entry %S names dead inode %d"
             name inum)
      else if Hashtbl.mem named inum then
        add
          (Report.findf Report.Map_inconsistent
             "inode %d named by two directory entries" inum)
      else Hashtbl.replace named inum ())
    (Lfs.dir_entries t);
  for inum = 1 to cfg.Lfs.n_inodes - 1 do
    if Lfs.inode_in_use t inum && not (Hashtbl.mem named inum) then
      add
        (Report.findf Report.Orphan_inode
           "live inode %d has no directory entry" inum)
  done;
  (* The live set, claimed once each, owner entries agreeing. *)
  let claims = Hashtbl.create 64 in
  let claim b owner expect_id =
    if b < area || b >= area_end then
      add
        (Report.findf Report.Malformed "%s points at out-of-segment block %d"
           owner b)
    else begin
      (match Hashtbl.find_opt claims b with
      | Some prev ->
        add
          (Report.findf Report.Double_alloc "block %d claimed by %s and %s" b
             prev owner)
      | None -> Hashtbl.replace claims b owner);
      if Lfs.owner_of t b <> Some expect_id then
        add
          (Report.findf Report.Map_inconsistent
             "owner table disagrees about block %d (%s)" b owner)
    end
  in
  let each_inode f =
    for inum = 0 to cfg.Lfs.n_inodes - 1 do
      if Lfs.inode_in_use t inum then f inum
    done
  in
  each_inode (fun inum ->
      (match Lfs.inode_blocks t inum with
      | None ->
        add
          (Report.findf Report.Map_inconsistent
             "inode %d in use but has no in-memory node" inum)
      | Some (_size, blocks) ->
        Array.iteri
          (fun i b ->
            if b >= 0 then
              claim b
                (Printf.sprintf "inode %d block %d" inum i)
                (Lfs.Data (inum, i)))
          blocks);
      match Lfs.imap_parts t inum with
      | None ->
        (* Legal after crash recovery: the inode's latest version lives
           in replayed log items and reaches the imap at the next
           checkpoint. *)
        add
          (Report.findf Report.Unflushed
             "live inode %d has no on-disk inode-map parts yet" inum)
      | Some parts ->
        Array.iteri
          (fun p b ->
            if b >= 0 then
              claim b
                (Printf.sprintf "inode %d part %d" inum p)
                (Lfs.Inode_part (inum, p)))
          parts);
  Array.iteri
    (fun c b ->
      if b >= 0 then
        claim b (Printf.sprintf "imap chunk %d" c) (Lfs.Imap_chunk c))
    (Lfs.imap_chunk_locations t);
  (* Per-segment live counts, exactly: every claimed block is live, and
     so are both summary slots of the open segment. *)
  let seg_claimed = Array.make (Lfs.n_segments t) 0 in
  Hashtbl.iter
    (fun b _ ->
      let seg = (b - area) / cfg.Lfs.segment_blocks in
      seg_claimed.(seg) <- seg_claimed.(seg) + 1)
    claims;
  let open_seg = Lfs.open_segment t in
  for seg = 0 to Lfs.n_segments t - 1 do
    let live = Lfs.seg_live t seg in
    let expect = seg_claimed.(seg) + if open_seg = Some seg then 2 else 0 in
    if live <> expect then
      add
        (Report.findf Report.Leaked_block
           "segment %d counts %d live blocks but %d are reachable%s" seg live
           seg_claimed.(seg)
           (if open_seg = Some seg then " (+2 open summary slots)" else ""))
  done;
  Report.v ~fs:"lfs" (List.rev !fd @ Report.of_media (Lfs.verify_media t))
