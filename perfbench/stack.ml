(* The four rigs, each assembled from the library's public constructors.
   With a probe, every [Device.t] handed to the layer above is wrapped
   and every file-system or volume call the workload makes is a span;
   with a trace sink, the disks (and everything stacked on them) record
   into it.  Neither changes a simulated result. *)

open Vlog_util

type workload = Update_scan | Burst_lfs | Burst_nvm | Array_mixed

let workloads =
  [ ("update-scan", Update_scan); ("burst-lfs", Burst_lfs); ("burst-nvm", Burst_nvm);
    ("array-mixed", Array_mixed) ]

let name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type mode = { probe : bool; trace : bool }

let untraced = { probe = false; trace = false }
let traced = { probe = true; trace = true }

(* The file-system face a workload drives: result-typed, one file. *)
type fs = {
  write : off:int -> Bytes.t -> (Breakdown.t, string) result;
  read : off:int -> len:int -> (Bytes.t * Breakdown.t, string) result;
  sync : unit -> (unit, string) result;  (* everything durable on the disk *)
  drop_caches : unit -> unit;
  idle : float -> unit;  (* grant an idle window, clock ends at its end *)
}

type t = {
  clock : Clock.t;
  sink : Trace.sink;
  probe : Probe.t option;
  disks : Disk.Disk_sim.t array;
  vld : Blockdev.Vld.t option;
  lfs : Lfs.t option;
  wal : Nvm.Nvm_wal.t option;
  fs : fs option;
  vol : Volume.t option;
  blocks : int;  (* file blocks (file-system rigs) or logical blocks (array) *)
  fast_buffer_blocks : int;  (* LFS write buffer or NVM log, in blocks; 0 = none *)
}

let profile = Disk.Profile.st19101
let host = Host.sparc10
let file = "f"
let utilization = 0.8

(* Array legs use a 4-cylinder slice so every logical block can be
   written in set-up; groups of [array_group_blocks] leave the legs'
   virtual logs their map pieces and allocation reserve. *)
let array_layout = Volume.Stripe_of_mirrors (4, 2)
let array_groups = 4
let array_cylinders = 4
let array_group_blocks = 1536

let wrap probe ~layer dev =
  match probe with Some p -> Probe.wrap p ~layer dev | None -> dev

let span probe ~layer name f =
  match probe with None -> f () | Some p -> Probe.span p (Probe.named p ~layer name) f

let err_fs pp r = Result.map_error (Format.asprintf "%a" pp) r

let ufs_face ~probe ~clock ~dev ?wal fs =
  let sp name f = span probe ~layer:"ufs" name f in
  {
    write = (fun ~off data -> sp "write" (fun () -> err_fs Ufs.pp_error (Ufs.write fs file ~off data)));
    read = (fun ~off ~len -> sp "read" (fun () -> err_fs Ufs.pp_error (Ufs.read fs file ~off ~len)));
    sync =
      (fun () ->
        ignore (sp "sync" (fun () -> Ufs.sync fs));
        match wal with
        | None -> Ok ()
        | Some w -> err_fs Blockdev.Device.pp_io_error (Nvm.Nvm_wal.drain w));
    drop_caches = (fun () -> Ufs.drop_caches fs);
    idle = (fun dt -> Blockdev.Device.advance_idle ~clock dev dt);
  }

let lfs_face ~probe ~clock ~dev fs =
  let sp name f = span probe ~layer:"lfs" name f in
  {
    write = (fun ~off data -> sp "write" (fun () -> err_fs Lfs.pp_error (Lfs.write fs file ~off data)));
    read = (fun ~off ~len -> sp "read" (fun () -> err_fs Lfs.pp_error (Lfs.read fs file ~off ~len)));
    sync = (fun () -> ignore (sp "sync" (fun () -> Lfs.sync fs)); Ok ());
    drop_caches = (fun () -> Lfs.drop_caches fs);
    idle =
      (fun dt ->
        sp "idle" (fun () ->
            let until = Clock.now clock +. dt in
            ignore (Lfs.idle_work fs ~deadline:until);
            (* What the cleaner leaves of the window goes to the device. *)
            let rest = until -. Clock.now clock in
            if rest > 0. then Blockdev.Device.advance_idle ~clock dev rest
            else Clock.advance_to clock until));
  }

let file_blocks (dev : Blockdev.Device.t) =
  (* Leave room for metadata (inode table, segment summaries), as the
     paper's utilization figures do. *)
  int_of_float ((utilization -. 0.03) *. float_of_int dev.Blockdev.Device.n_blocks)

let vld_on disk prng =
  let total = Disk.Geometry.total_sectors (Disk.Disk_sim.geometry disk) / 8 in
  (* Leave the virtual log its map pieces plus the allocation reserve. *)
  let logical_blocks = total - (1 + (total / 900)) - 8 in
  Blockdev.Vld.create ~disk ~logical_blocks ~prng:(Prng.split prng) ()

let record_bytes = Nvm.Nvm_wal.Record.encoded_size ~payload_len:Gen.block_bytes

(* The rigs' own randomness (allocator and compactor choices) is fixed:
   only the generated inputs depend on the workload seed. *)
let build mode w =
  let clock = Clock.create () in
  let sink = if mode.trace then Trace.create ~clock () else Trace.null in
  let probe = if mode.probe then Some (Probe.create ~clock) else None in
  let prng = Prng.create ~seed:0x5EEDL in
  let disk ?(profile = profile) policy =
    Disk.Disk_sim.create ~buffer_policy:policy ~profile ~clock ~trace:sink ()
  in
  let created pp = function
    | Ok _ -> ()
    | Error e -> failwith (Format.asprintf "creating the benchmark file: %a" pp e)
  in
  let ufs_on dev =
    let fs = Ufs.format ~dev ~host ~clock Ufs.default_config in
    created Ufs.pp_error (Ufs.create fs file);
    fs
  in
  let base =
    {
      clock;
      sink;
      probe;
      disks = [||];
      vld = None;
      lfs = None;
      wal = None;
      fs = None;
      vol = None;
      blocks = 0;
      fast_buffer_blocks = 0;
    }
  in
  match w with
  | Update_scan ->
    let d = disk Disk.Track_buffer.Whole_track in
    let vld = vld_on d prng in
    let dev = wrap probe ~layer:"vld" (Blockdev.Vld.device vld) in
    let fs = ufs_on dev in
    {
      base with
      disks = [| d |];
      vld = Some vld;
      fs = Some (ufs_face ~probe ~clock ~dev fs);
      blocks = file_blocks dev;
    }
  | Burst_lfs ->
    let d = disk Disk.Track_buffer.Forward_discard in
    let dev =
      wrap probe ~layer:"regular"
        (Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk:d ()))
    in
    let cfg = Lfs.default_config in
    let fs = Lfs.format ~dev ~host ~clock cfg in
    created Lfs.pp_error (Lfs.create fs file);
    {
      base with
      disks = [| d |];
      lfs = Some fs;
      fs = Some (lfs_face ~probe ~clock ~dev fs);
      blocks = file_blocks dev;
      fast_buffer_blocks = cfg.Lfs.buffer_blocks;
    }
  | Burst_nvm ->
    let d = disk Disk.Track_buffer.Whole_track in
    let vld = vld_on d prng in
    let inner = wrap probe ~layer:"vld" (Blockdev.Vld.device vld) in
    let nvm = Nvm.Nvm_sim.create ~trace:sink ~clock () in
    let wal = Nvm.Nvm_wal.create ~nvm ~inner () in
    let dev = wrap probe ~layer:"nvm" (Nvm.Nvm_wal.device wal) in
    let fs = ufs_on dev in
    {
      base with
      disks = [| d |];
      vld = Some vld;
      wal = Some wal;
      fs = Some (ufs_face ~probe ~clock ~dev ~wal fs);
      blocks = file_blocks dev;
      fast_buffer_blocks = (Nvm.Nvm_wal.status wal).Nvm.Nvm_wal.st_log_capacity / record_bytes;
    }
  | Array_mixed ->
    let profile = Disk.Profile.with_cylinders profile array_cylinders in
    let disks =
      Array.init (Volume.n_legs array_layout) (fun _ ->
          disk ~profile Disk.Track_buffer.Whole_track)
    in
    let vol =
      Volume.create ~layout:array_layout ~leg_kind:Volume.Vld_leg
        ~logical_blocks:(array_groups * array_group_blocks) ~disks ~prng:(Prng.split prng) ()
    in
    { base with disks; vol = Some vol; blocks = Volume.logical_blocks vol }

(* Write every block of the file (or volume) once, at version 0, calling
   [between] between chunks. *)
let fill ~between t =
  let chunk = 16 in
  let rec go b =
    if b >= t.blocks then Ok ()
    else begin
      let n = min chunk (t.blocks - b) in
      let r =
        match (t.fs, t.vol) with
        | Some fs, _ ->
          let buf = Bytes.create (n * Gen.block_bytes) in
          for i = 0 to n - 1 do
            Bytes.blit (Gen.payload (b + i) 0) 0 buf (i * Gen.block_bytes) Gen.block_bytes
          done;
          Result.map ignore (fs.write ~off:(b * Gen.block_bytes) buf)
        | None, Some vol ->
          Result.map_error
            (Format.asprintf "%a" Blockdev.Device.pp_io_error)
            (Result.map ignore
               (Volume.write_batch vol ~at:(Clock.now t.clock)
                  (List.init n (fun i -> (b + i, Gen.payload (b + i) 0)))))
        | None, None -> Error "rig has neither a file system nor a volume"
      in
      match r with
      | Ok () ->
        between ();
        go (b + n)
      | Error _ as e -> e
    end
  in
  go 0
