(* One rig vocabulary and one stack builder.  The device half makes the
   drives and the logical device on them (regular disk, VLD, volume or
   NVM-WAL); the whole builder then formats or mounts the file system
   and wraps it in the one [ops] face. *)

open Vlog_util

type fs_kind = F_ufs | F_lfs | F_vlfs

(* Volume rigs put the file system on a [Volume] built over several
   drives; the layout names fix small canonical shapes (mirror = 2-way,
   stripe = 2 groups, raid10 = 2 x 2) so a rig string like
   "ufs/mirror-vld" pins the whole topology. *)
type vol_layout = V_stripe | V_mirror | V_raid10
type vol_leg = VL_regular | VL_vld

(* NVM-WAL rigs put an [Nvm_wal] staging tier in front of the logical
   disk; the backing name says what the destager drains into. *)
type wal_backing = W_regular | W_vld

type dev_kind =
  | D_vld
  | D_regular
  | D_direct
  | D_volume of vol_layout * vol_leg
  | D_nvm of wal_backing

type rig = { fs : fs_kind; on : dev_kind }

let fs_name = function F_ufs -> "ufs" | F_lfs -> "lfs" | F_vlfs -> "vlfs"

let vol_layout_name = function
  | V_stripe -> "stripe"
  | V_mirror -> "mirror"
  | V_raid10 -> "raid10"

let leg_name = function VL_regular -> "regular" | VL_vld -> "vld"
let wal_leg = function W_regular -> VL_regular | W_vld -> VL_vld

let dev_name = function
  | D_vld -> "vld"
  | D_regular -> "regular"
  | D_direct -> "direct"
  | D_volume (l, k) -> vol_layout_name l ^ "-" ^ leg_name k
  | D_nvm b -> "nvm-" ^ leg_name (wal_leg b)

let rig_name r = fs_name r.fs ^ "/" ^ dev_name r.on

let label r =
  String.uppercase_ascii (fs_name r.fs)
  ^ "/"
  ^ match r.on with D_vld -> "VLD" | on -> dev_name on

let fs_kinds = [ F_ufs; F_lfs; F_vlfs ]

let dev_kinds =
  [ D_vld; D_regular; D_direct ]
  @ List.concat_map
      (fun l -> [ D_volume (l, VL_regular); D_volume (l, VL_vld) ])
      [ V_stripe; V_mirror; V_raid10 ]
  @ [ D_nvm W_regular; D_nvm W_vld ]

(* VLFS is the drive's firmware: it runs on the bare platters and
   nowhere else, and nothing else runs on the bare platters. *)
let fits fs on = (fs = F_vlfs) = (on = D_direct)

let every_rig =
  List.concat_map
    (fun fs ->
      List.filter_map
        (fun on -> if fits fs on then Some { fs; on } else None)
        dev_kinds)
    fs_kinds

let rig_of_string s =
  let named name all v = List.find_opt (fun k -> name k = v) all in
  match String.split_on_char '/' s with
  | [ fs; on ] -> (
    match (named fs_name fs_kinds fs, named dev_name dev_kinds on) with
    | Some fs, Some on when fits fs on -> Ok { fs; on }
    | Some fsk, Some _ ->
      Error
        (Printf.sprintf "rig %S: %s runs on %s" s fs
           (String.concat ", "
              (List.filter_map
                 (fun d -> if fits fsk d then Some (dev_name d) else None)
                 dev_kinds)))
    | _ -> Error (Printf.sprintf "unknown rig %S" s))
  | _ -> Error (Printf.sprintf "unknown rig %S (want fs/dev)" s)

let all_rigs =
  [
    { fs = F_ufs; on = D_vld };
    { fs = F_ufs; on = D_regular };
    { fs = F_lfs; on = D_vld };
    { fs = F_lfs; on = D_regular };
    { fs = F_vlfs; on = D_direct };
  ]

(* ---- The device half ---- *)

type frozen = { drives : Disk.Sector_store.t array; nvm : Bytes.t option }
type source = Fresh | Frozen of frozen

type device = {
  clock : Clock.t;
  trace : Trace.sink;
  dev : Blockdev.Device.t;
  drives : unit -> Disk.Disk_sim.t array;
  vld : Blockdev.Vld.t option;
  volume : Volume.t option;
  wal : Nvm.Nvm_wal.t option;
}

let vol_shape = function
  | V_stripe -> Volume.Stripe 2
  | V_mirror -> Volume.Mirror 2
  | V_raid10 -> Volume.Stripe_of_mirrors (2, 2)

let buffer_policy = function
  | D_regular | D_volume (_, VL_regular) | D_nvm W_regular ->
    Disk.Track_buffer.Forward_discard
  | D_vld | D_direct | D_volume (_, VL_vld) | D_nvm W_vld ->
    Disk.Track_buffer.Whole_track

(* Leave the virtual log its map pieces plus the allocation reserve;
   export the rest. *)
let fill_blocks disk =
  let total_blocks = Disk.Geometry.total_sectors (Disk.Disk_sim.geometry disk) / 8 in
  total_blocks - (1 + (total_blocks / 900)) - 8

let place disks nvm ~victim p =
  Fault.Plan.install p disks.(victim mod Array.length disks);
  Option.iter (Fault.Plan.install_nvm p) nvm

let build_device ~profile ?(trace = false) ?logical_blocks ?eager_mode ?compaction
    ?(spare_blocks = 0) ?(wal = Nvm.Nvm_wal.default_config) ?plan ?(victim = 0) ~prng
    on source : (device, string) result =
  let ( let* ) = Result.bind in
  let clock = Clock.create () in
  let trace = if trace then Trace.create ~clock () else Trace.null in
  let drive ?store () =
    Disk.Disk_sim.create ~buffer_policy:(buffer_policy on) ?store ~trace ~profile
      ~clock ()
  in
  let n_drives =
    match on with
    | D_volume (l, _) -> Volume.n_legs (vol_shape l)
    | D_vld | D_regular | D_direct | D_nvm _ -> 1
  in
  let* disks =
    match source with
    | Fresh -> Ok (Array.init n_drives (fun _ -> drive ()))
    | Frozen f when Array.length f.drives = n_drives ->
      Ok (Array.map (fun store -> drive ~store ()) f.drives)
    | Frozen f ->
      Error
        (Printf.sprintf "%s needs %d drive(s), the image holds %d" (dev_name on) n_drives
           (Array.length f.drives))
  in
  let* nvm =
    match (on, source) with
    | D_nvm _, Fresh -> Ok (Some (Nvm.Nvm_sim.create ~trace ~clock ()))
    | D_nvm _, Frozen { nvm = Some image; _ } ->
      Ok (Some (Nvm.Nvm_sim.create ~image ~trace ~clock ()))
    | D_nvm _, Frozen { nvm = None; _ } ->
      Error (dev_name on ^ " needs an NVM image, the image holds none")
    | (D_vld | D_regular | D_direct | D_volume _), _ -> Ok None
  in
  let fresh = match source with Fresh -> true | Frozen _ -> false in
  if not fresh then Option.iter (place disks nvm ~victim) plan;
  let logical_blocks disk = Option.value logical_blocks ~default:(fill_blocks disk) in
  let regular disk =
    Blockdev.Regular_disk.device (Blockdev.Regular_disk.create ~disk ~spare_blocks ())
  in
  let logical leg disk =
    match leg with
    | VL_regular -> Ok (regular disk, None)
    | VL_vld ->
      let prng = Lazy.force prng in
      let* v =
        if fresh then
          Ok
            (Blockdev.Vld.create ?eager_mode ?compaction_policy:compaction ~disk
               ~logical_blocks:(logical_blocks disk) ~prng ())
        else
          match
            Blockdev.Vld.recover ?eager_mode ?compaction_policy:compaction ~disk ~prng ()
          with
          | Ok (v, _) -> Ok v
          | Error e -> Error ("vld: " ^ e)
      in
      Ok (Blockdev.Vld.device v, Some v)
  in
  let same_drives () = disks in
  let* dev, drives, vld, volume, wal =
    match on with
    | D_direct -> Ok (regular disks.(0), same_drives, None, None, None)
    | D_regular | D_vld ->
      let* dev, vld = logical (if on = D_vld then VL_vld else VL_regular) disks.(0) in
      Ok (dev, same_drives, vld, None, None)
    | D_volume (layout, leg) ->
      let layout = vol_shape layout and spare () = drive () in
      let leg_kind =
        match leg with VL_vld -> Volume.Vld_leg | VL_regular -> Volume.Regular_leg
      in
      let logical_blocks = logical_blocks disks.(0) and prng = Lazy.force prng in
      let* vol =
        if fresh then
          Ok (Volume.create ~spare ~layout ~leg_kind ~logical_blocks ~disks ~prng ())
        else
          match
            Volume.recover ~spare ~layout ~leg_kind ~logical_blocks ~disks ~prng ()
          with
          | Error e -> Error ("volume: " ^ e)
          | Ok (vol, _) ->
            (* finish any rebuild the recovery started for a dead-on-arrival
               leg: redundancy must be restorable, not just
               restored-in-principle *)
            Volume.settle vol;
            Ok vol
      in
      Ok (Volume.device vol, (fun () -> Volume.disks vol), None, Some vol, None)
    | D_nvm backing ->
      let nvm = Option.get nvm in
      let* inner, vld = logical (wal_leg backing) disks.(0) in
      let* w =
        if fresh then Ok (Nvm.Nvm_wal.create ~config:wal ~nvm ~inner ())
        else
          match Nvm.Nvm_wal.recover ~config:wal ~nvm ~inner () with
          | Ok (w, _) -> Ok w
          | Error e -> Error (Format.asprintf "wal: %a" Blockdev.Device.pp_io_error e)
      in
      Ok (Nvm.Nvm_wal.device w, same_drives, vld, None, Some w)
  in
  if fresh then Option.iter (place disks nvm ~victim) plan;
  Ok { clock; trace; dev; drives; vld; volume; wal }

(* ---- The whole stack ---- *)

type typed = T_ufs of Ufs.t | T_lfs of Lfs.t | T_vlfs of Vlfs.t

type ops = {
  create : string -> (Breakdown.t, Blockdev.Fs_error.t) result;
  write : string -> off:int -> Bytes.t -> (Breakdown.t, Blockdev.Fs_error.t) result;
  read :
    string -> off:int -> len:int -> (Bytes.t * Breakdown.t, Blockdev.Fs_error.t) result;
  delete : string -> (Breakdown.t, Blockdev.Fs_error.t) result;
  sync : unit -> Breakdown.t;
  shutdown : unit -> unit;
  drop_caches : unit -> unit;
  idle : float -> unit;
  utilization : unit -> float;
  files : unit -> string list;
  size : string -> (int, Blockdev.Fs_error.t) result;
  mode : unit -> [ `Rw | `Degraded of string ];
  block_bytes : int;
  sync_each : bool;
}

let ok_exn = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "file system error: %a" Blockdev.Fs_error.pp e)

let wrap_ufs ~clock ~dev ~sync_each t =
  {
    create = Ufs.create t;
    write = Ufs.write t;
    read = Ufs.read t;
    delete = Ufs.delete t;
    sync = (fun () -> Ufs.sync t);
    shutdown = (fun () -> ignore (Ufs.sync t));
    drop_caches = (fun () -> Ufs.drop_caches t);
    idle = (fun dt -> Blockdev.Device.advance_idle ~clock dev dt);
    utilization = (fun () -> Ufs.utilization t);
    files = (fun () -> Ufs.files t);
    size = Ufs.file_size t;
    mode = (fun () -> Ufs.mode t);
    block_bytes = Ufs.block_bytes t;
    sync_each;
  }

let wrap_lfs ~clock ~dev t =
  {
    create = Lfs.create t;
    write = Lfs.write t;
    read = Lfs.read t;
    delete = Lfs.delete t;
    sync = (fun () -> Lfs.sync t);
    shutdown = (fun () -> ignore (Lfs.power_down t));
    drop_caches = (fun () -> Lfs.drop_caches t);
    idle =
      (fun dt ->
        let until = Clock.now clock +. dt in
        ignore (Lfs.idle_work t ~deadline:until);
        (* Whatever time remains goes to the device (VLD compaction). *)
        let remaining = until -. Clock.now clock in
        if remaining > 0. then Blockdev.Device.advance_idle ~clock dev remaining
        else Clock.advance_to clock until);
    utilization = (fun () -> Lfs.utilization t);
    files = (fun () -> Lfs.files t);
    size = Lfs.file_size t;
    mode = (fun () -> Lfs.mode t);
    block_bytes = Lfs.block_bytes t;
    sync_each = false;
  }

let wrap_vlfs ~clock ~sync_each t =
  {
    create = Vlfs.create t;
    write = Vlfs.write t;
    read = Vlfs.read t;
    delete = Vlfs.delete t;
    sync = (fun () -> Vlfs.sync t);
    shutdown = (fun () -> ignore (Vlfs.power_down t));
    drop_caches = (fun () -> Vlfs.drop_caches t);
    idle =
      (fun dt ->
        let until = Clock.now clock +. dt in
        Vlfs.idle t dt;
        Clock.advance_to clock until);
    utilization = (fun () -> Vlfs.utilization t);
    files = (fun () -> Vlfs.files t);
    size = Vlfs.file_size t;
    mode = (fun () -> Vlfs.mode t);
    block_bytes = Vlog.Virtual_log.block_bytes (Vlfs.vlog t);
    sync_each;
  }

type stack = {
  rig : rig;
  device : device;
  typed : typed;
  ops : ops;
  prng : Prng.t;
  notes : (string * int) list;
  settle : unit -> (unit, string) result;
  freeze : unit -> frozen;
}

let build ~profile ?(host = Host.free) ?trace ?(ufs = Ufs.default_config)
    ?(lfs = Lfs.default_config) ?(vlfs = Vlfs.default_config) ?logical_blocks
    ?eager_mode ?compaction ?spare_blocks ?wal ?plan ?(victim = 0) ~prng ?dev_prng rig
    source : (stack, string) result =
  let ( let* ) = Result.bind in
  let fresh = match source with Fresh -> true | Frozen _ -> false in
  let dev_prng = match dev_prng with Some p -> p | None -> lazy (Prng.split prng) in
  (* A fresh stack takes the plan only once the file system is formatted,
     so the format's own I/O does not count toward the trigger. *)
  let* d =
    build_device ~profile ?trace ?logical_blocks ?eager_mode ?compaction ?spare_blocks
      ?wal ?plan:(if fresh then None else plan) ~victim ~prng:dev_prng rig.on source
  in
  let clock = d.clock and dev = d.dev in
  let* typed, notes =
    match rig.fs with
    | F_ufs -> (
      if fresh then Ok (T_ufs (Ufs.format ~dev ~host ~clock ufs), [])
      else
        match Ufs.mount ~dev ~host ~clock ufs with
        | Error e -> Error ("ufs: " ^ e)
        | Ok (t, r) ->
          Ok
            ( T_ufs t,
              [
                ("orphans_cleared", r.Ufs.orphans_cleared);
                ("dangling_dropped", r.Ufs.dangling_dropped);
              ] ))
    | F_lfs -> (
      if fresh then Ok (T_lfs (Lfs.format ~dev ~host ~clock lfs), [])
      else
        match Lfs.recover ~dev ~host ~clock lfs with
        | Error e -> Error ("lfs: " ^ e)
        | Ok (t, r) ->
          Ok
            ( T_lfs t,
              [
                ("inodes_skipped", r.Lfs.inodes_skipped);
                ("dangling_dropped", r.Lfs.dangling_dropped);
                ("corrupt_items", r.Lfs.corrupt_items);
              ] ))
    | F_vlfs -> (
      let disk = (d.drives ()).(0) in
      if fresh then Ok (T_vlfs (Vlfs.format ~disk ~host ~clock vlfs), [])
      else
        match Vlfs.recover ~disk ~host ~config:vlfs () with
        | Error e -> Error ("vlfs: " ^ e)
        | Ok (t, r) ->
          Ok
            ( T_vlfs t,
              [
                ("inodes_skipped", r.Vlfs.inodes_skipped);
                ("dangling_dropped", r.Vlfs.dangling_dropped);
              ] ))
  in
  let nvm = Option.map Nvm.Nvm_wal.nvm d.wal in
  if fresh then Option.iter (place (d.drives ()) nvm ~victim) plan;
  let ops =
    match typed with
    | T_ufs t -> wrap_ufs ~clock ~dev ~sync_each:ufs.Ufs.sync_data t
    | T_lfs t -> wrap_lfs ~clock ~dev t
    | T_vlfs t -> wrap_vlfs ~clock ~sync_each:vlfs.Vlfs.sync_writes t
  in
  (* A clean shutdown parks the device too: suspects resolve or retire,
     rebuilds finish and dirty regions drain on a volume; everything
     staged destages and the log resets on an NVM tier. *)
  let settle () =
    match (d.volume, d.wal) with
    | Some v, _ -> Ok (Volume.settle v)
    | None, Some w ->
      Result.map_error
        (Format.asprintf "clean-shutdown drain failed: %a" Blockdev.Device.pp_io_error)
        (Nvm.Nvm_wal.drain w)
    | None, None -> Ok ()
  in
  let freeze () =
    {
      drives =
        Array.map
          (fun d -> Disk.Sector_store.snapshot (Disk.Disk_sim.store d))
          (d.drives ());
      nvm = Option.map Nvm.Nvm_sim.snapshot nvm;
    }
  in
  Ok { rig; device = d; typed; ops; prng; notes; settle; freeze }

let elapsed st f =
  let t0 = Clock.now st.device.clock in
  let v = f () in
  (v, Clock.now st.device.clock -. t0)
