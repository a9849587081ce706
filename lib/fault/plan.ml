open Vlog_util

type kind =
  | Torn_write
  | Bit_rot
  | Transient_read of int
  | Grown_defect
  | Power_cut
  | Drive_death
  | Drive_hang of float
  | Drive_flaky of int
  | Latent_sectors of int
  | Nvm_cut
  | Nvm_torn
  | Nvm_destage_cut
  | Nvm_full

let kind_to_string = function
  | Torn_write -> "torn"
  | Bit_rot -> "rot"
  | Transient_read n -> Printf.sprintf "transient:%d" n
  | Grown_defect -> "defect"
  | Power_cut -> "powercut"
  | Drive_death -> "death"
  | Drive_hang ms -> Printf.sprintf "hang:%g" ms
  | Drive_flaky n -> Printf.sprintf "flaky:%d" n
  | Latent_sectors n -> Printf.sprintf "latent:%d" n
  | Nvm_cut -> "nvmcut"
  | Nvm_torn -> "nvmtorn"
  | Nvm_destage_cut -> "destagecut"
  | Nvm_full -> "nvmfull"

let kind_of_string s =
  match String.split_on_char ':' s with
  | [ "torn" ] -> Ok Torn_write
  | [ "rot" ] -> Ok Bit_rot
  | [ "transient" ] -> Ok (Transient_read 2)
  | [ "transient"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (Transient_read n)
    | _ -> Error (Printf.sprintf "bad transient retry count in %S" s))
  | [ "defect" ] -> Ok Grown_defect
  | [ "powercut" ] -> Ok Power_cut
  | [ "death" ] -> Ok Drive_death
  | [ "hang" ] -> Ok (Drive_hang 50.)
  | [ "hang"; ms ] -> (
    match float_of_string_opt ms with
    | Some ms when ms > 0. -> Ok (Drive_hang ms)
    | _ -> Error (Printf.sprintf "bad hang duration in %S" s))
  | [ "flaky" ] -> Ok (Drive_flaky 3)
  | [ "flaky"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (Drive_flaky n)
    | _ -> Error (Printf.sprintf "bad flaky burst length in %S" s))
  | [ "latent" ] -> Ok (Latent_sectors 16)
  | [ "latent"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (Latent_sectors n)
    | _ -> Error (Printf.sprintf "bad latent range length in %S" s))
  | [ "nvmcut" ] -> Ok Nvm_cut
  | [ "nvmtorn" ] -> Ok Nvm_torn
  | [ "destagecut" ] -> Ok Nvm_destage_cut
  | [ "nvmfull" ] -> Ok Nvm_full
  | _ ->
    Error
      (Printf.sprintf
         "unknown fault kind %S \
          (torn|rot|transient[:n]|defect|powercut|death|hang[:ms]|flaky[:n]|latent[:n]\
          |nvmcut|nvmtorn|destagecut|nvmfull)"
         s)

let is_drive_kind = function
  | Drive_death | Drive_hang _ | Drive_flaky _ | Latent_sectors _ -> true
  | Torn_write | Bit_rot | Transient_read _ | Grown_defect | Power_cut
  | Nvm_cut | Nvm_torn | Nvm_destage_cut | Nvm_full ->
    false

let is_nvm_kind = function
  | Nvm_cut | Nvm_torn | Nvm_destage_cut | Nvm_full -> true
  | Torn_write | Bit_rot | Transient_read _ | Grown_defect | Power_cut
  | Drive_death | Drive_hang _ | Drive_flaky _ | Latent_sectors _ ->
    false

let workload_time = function
  | Transient_read _ -> false
  | Torn_write | Bit_rot | Grown_defect | Power_cut | Drive_death
  | Drive_hang _ | Drive_flaky _ | Latent_sectors _ | Nvm_cut | Nvm_torn
  | Nvm_destage_cut | Nvm_full ->
    true

type t = {
  kind : kind;
  trigger : int;
  prng : Prng.t;
  mutable disk : Disk.Disk_sim.t option;
  mutable writes_seen : int;
  mutable reads_seen : int;
  mutable fired : bool;
  mutable pending_rot : int option; (* absolute lba awaiting silent decay *)
  mutable armed : bool; (* Transient_read: trigger reached *)
  mutable transient_left : int; (* failures still owed once armed *)
  defects : (int, unit) Hashtbl.t; (* grown-defect sectors, absolute lbas *)
  mutable damaged : int list;
  mutable accesses_seen : int; (* drive kinds count reads + writes combined *)
  mutable hang_until : float option; (* Drive_hang: absolute deadline, ms *)
  mutable flaky_seen : int; (* accesses since a flaky drive fired *)
  latent : (int, unit) Hashtbl.t; (* latent sectors awaiting discovery *)
  mutable persists_seen : int; (* NVM persist barriers observed *)
}

let create kind ~trigger ~seed =
  {
    kind;
    trigger;
    prng = Prng.create ~seed;
    disk = None;
    writes_seen = 0;
    reads_seen = 0;
    fired = false;
    pending_rot = None;
    armed = false;
    transient_left = 0;
    defects = Hashtbl.create 4;
    damaged = [];
    accesses_seen = 0;
    hang_until = None;
    flaky_seen = 0;
    latent = Hashtbl.create 4;
    persists_seen = 0;
  }

let fired t = t.fired
let kind t = t.kind
let trigger t = t.trigger
let damaged_lbas t = t.damaged

(* Bit rot is scheduled when the victim write completes and applied just
   before the next media access (or an explicit [flush]): the decay must
   happen after the head has laid the sector down, and the injector only
   sees the moments before each access. *)
let flush t =
  match (t.pending_rot, t.disk) with
  | Some lba, Some disk ->
    t.pending_rot <- None;
    Disk.Sector_store.rot (Disk.Disk_sim.store disk) ~lba ~sectors:1 t.prng;
    t.damaged <- lba :: t.damaged
  | _ -> ()

let defect_in t ~lba ~sectors =
  let rec go i =
    if i >= sectors then None
    else if Hashtbl.mem t.defects (lba + i) then Some (lba + i)
    else go (i + 1)
  in
  if Hashtbl.length t.defects = 0 then None else go 0

let latent_in t ~lba ~sectors =
  let rec go i =
    if i >= sectors then None
    else if Hashtbl.mem t.latent (lba + i) then Some (lba + i)
    else go (i + 1)
  in
  if Hashtbl.length t.latent = 0 then None else go 0

let now t =
  match t.disk with
  | Some d -> Clock.now (Disk.Disk_sim.clock d)
  | None -> 0.

let stall_until t =
  match t.hang_until with
  | Some until when now t < until -> Some until
  | _ -> None

let health t : Disk.Disk_sim.drive_health =
  if not t.fired then Ok_drive
  else
    match t.kind with
    | Drive_death -> Dead_drive
    | Drive_hang _ -> (
      match stall_until t with Some until -> Hung until | None -> Ok_drive)
    | Drive_flaky _ -> Flaky_drive
    | _ -> Ok_drive

(* Whole-drive faults strike commands regardless of direction, so their
   trigger counts every access.  Returns how the current command fares
   before any sector-level plan logic runs. *)
let drive_gate t =
  match t.kind with
  | Drive_death | Drive_hang _ | Drive_flaky _ ->
    let n = t.accesses_seen in
    t.accesses_seen <- n + 1;
    if (not t.fired) && n = t.trigger then begin
      t.fired <- true;
      match t.kind with
      | Drive_hang ms -> t.hang_until <- Some (now t +. ms)
      | _ -> ()
    end;
    if not t.fired then `Pass
    else (
      match t.kind with
      | Drive_death -> `Permanent
      | Drive_hang _ -> (
        match t.hang_until with
        | Some until when now t < until -> `Transient
        | Some _ ->
          t.hang_until <- None;
          `Pass
        | None -> `Pass)
      | Drive_flaky burst ->
        let k = t.flaky_seen in
        t.flaky_seen <- k + 1;
        if k / burst mod 2 = 0 then `Transient else `Pass
      | _ -> `Pass)
  | _ -> `Pass

let on_write t ~lba ~sectors =
  flush t;
  match drive_gate t with
  | `Permanent -> Some (Disk.Disk_sim.Unwritable lba)
  | `Transient -> Some Disk.Disk_sim.Transient_write
  | `Pass -> (
    (* A latent sector heals when freshly written: the drive remaps it
       internally and the new data sticks. *)
    if Hashtbl.length t.latent > 0 then
      for i = 0 to sectors - 1 do
        Hashtbl.remove t.latent (lba + i)
      done;
    match defect_in t ~lba ~sectors with
    | Some bad -> Some (Disk.Disk_sim.Unwritable bad)
    | None ->
      let n = t.writes_seen in
      t.writes_seen <- n + 1;
      if t.fired || n <> t.trigger then None
      else begin
        match t.kind with
        | Drive_death | Drive_hang _ | Drive_flaky _ | Latent_sectors _
        | Nvm_cut | Nvm_torn ->
          (* drive kinds fire from their own counters, NVM-barrier kinds
             from the persist counter — never here *)
          None
        | _ ->
          t.fired <- true;
          (match t.kind with
          | Power_cut -> raise Disk.Disk_sim.Power_cut
          | Nvm_destage_cut | Nvm_full ->
            (* in a staged rig the backing disk sees only destage writes
               (and drained bypasses), so the trigger-th one is a crash
               mid-destage *)
            raise Disk.Disk_sim.Power_cut
          | Torn_write ->
            let k = Prng.int t.prng sectors in
            t.damaged <- List.init (sectors - k) (fun i -> lba + k + i) @ t.damaged;
            Some (Disk.Disk_sim.Torn_write k)
          | Grown_defect ->
            let bad = lba + Prng.int t.prng sectors in
            Hashtbl.replace t.defects bad ();
            t.damaged <- bad :: t.damaged;
            Some (Disk.Disk_sim.Unwritable bad)
          | Bit_rot ->
            t.pending_rot <- Some (lba + Prng.int t.prng sectors);
            None
          | Transient_read _ | Drive_death | Drive_hang _ | Drive_flaky _
          | Latent_sectors _ | Nvm_cut | Nvm_torn ->
            None)
      end)

let on_read t ~lba ~sectors =
  flush t;
  match drive_gate t with
  | `Permanent -> Some (Disk.Disk_sim.Unreadable lba)
  | `Transient -> Some Disk.Disk_sim.Transient_read
  | `Pass -> (
    match defect_in t ~lba ~sectors with
    | Some bad -> Some (Disk.Disk_sim.Unreadable bad)
    | None -> (
      match latent_in t ~lba ~sectors with
      | Some bad -> Some (Disk.Disk_sim.Unreadable bad)
      | None -> (
        let n = t.reads_seen in
        t.reads_seen <- n + 1;
        match t.kind with
        | Transient_read fails ->
          if (not t.armed) && (not t.fired) && n = t.trigger then begin
            t.armed <- true;
            t.fired <- true;
            t.transient_left <- fails
          end;
          if t.armed && t.transient_left > 0 then begin
            t.transient_left <- t.transient_left - 1;
            Some Disk.Disk_sim.Transient_read
          end
          else None
        | Latent_sectors len ->
          (* The trigger-th read discovers a latent range anchored where
             the head happens to be: that read and every later read of the
             range fail until the sectors are rewritten. *)
          if (not t.fired) && n = t.trigger then begin
            t.fired <- true;
            for i = 0 to len - 1 do
              Hashtbl.replace t.latent (lba + i) ()
            done;
            t.damaged <- List.init len (fun i -> lba + i) @ t.damaged;
            Some (Disk.Disk_sim.Unreadable lba)
          end
          else None
        | _ -> None)))

(* NVM-barrier kinds fire on the persist counter: the trigger-th commit
   barrier is the one the power cut strikes.  The torn variant persists
   a seeded strict prefix of the volatile front, so at least the last
   byte — and with it the tail record's CRC — is lost. *)
let on_persist t ~pending_bytes =
  match t.kind with
  | Nvm_cut | Nvm_torn ->
    let n = t.persists_seen in
    t.persists_seen <- n + 1;
    if t.fired || n <> t.trigger then None
    else begin
      t.fired <- true;
      match t.kind with
      | Nvm_cut -> Some Nvm.Nvm_sim.Cut_before_persist
      | _ -> Some (Nvm.Nvm_sim.Torn_persist (Prng.int t.prng (max 1 pending_bytes)))
    end
  | _ -> None

let install_nvm t nvm =
  Nvm.Nvm_sim.set_injector nvm
    (Some
       { Nvm.Nvm_sim.on_persist = (fun ~pending_bytes -> on_persist t ~pending_bytes) })

let install t disk =
  t.disk <- Some disk;
  Disk.Disk_sim.set_injector disk
    (Some
       {
         Disk.Disk_sim.on_read = (fun ~lba ~sectors -> on_read t ~lba ~sectors);
         on_write = (fun ~lba ~sectors -> on_write t ~lba ~sectors);
       });
  Disk.Disk_sim.set_health_probe disk (Some (fun () -> health t))

(* A whole-drive fault aimed at one leg of an array: "death@2" installs
   a death plan on leg 2, a bare "hang:80" on the victim the caller
   picks.  Only drive kinds make sense per-leg. *)
type leg_spec = { ls_kind : kind; ls_leg : int option }

let leg_spec_to_string { ls_kind; ls_leg } =
  match ls_leg with
  | None -> kind_to_string ls_kind
  | Some l -> Printf.sprintf "%s@%d" (kind_to_string ls_kind) l

let leg_spec_of_string s =
  let kind_part, leg_part =
    match String.index_opt s '@' with
    | None -> (s, None)
    | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  match kind_of_string kind_part with
  | Error _ as e -> e
  | Ok k when not (is_drive_kind k) ->
    Error
      (Printf.sprintf "fault %S is not a whole-drive kind (death|hang[:ms]|flaky[:n]|latent[:n])" s)
  | Ok k -> (
    match leg_part with
    | None -> Ok { ls_kind = k; ls_leg = None }
    | Some l -> (
      match int_of_string_opt l with
      | Some n when n >= 0 -> Ok { ls_kind = k; ls_leg = Some n }
      | _ -> Error (Printf.sprintf "bad leg index in %S" s)))
