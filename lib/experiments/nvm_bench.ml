(* The NVM staging-tier study (bench nvm): sync-small-write latency
   and burst absorption across four rigs x burst sizes x destager duty
   cycles, plus a sustained-overload phase per cell.

   The four rigs bracket the design space the paper's section 6 argues
   about:

   - vld        (ufs/vld) UFS (sync) on the virtual log disk: every
                small write pays an eager disk write — the baseline the
                staging tier must beat;
   - nvram-lfs  (lfs/regular) LFS with the paper's 6.1 MB NVRAM write
                buffer on a regular disk: writes land in the buffer at
                memory cost, durability rides on the buffer being
                non-volatile;
   - nvm-ufs    (ufs/nvm-regular) the NVM write-ahead tier over UFS's
                regular disk;
   - nvm-vld    (ufs/nvm-vld) the NVM write-ahead tier destaging onto a
                VLD — eager placement soaks up the destage stream.

   Each cell: warm a 64-block file, then [rounds] bursts of [burst]
   synchronous 4 KB overwrites, each burst followed by an idle gap of
   3 ms per write in which the destager may use [destage_util] of the
   window.  Then the overload phase: enough back-to-back writes to
   overflow the log, so every append pays the disk cost it was hiding
   — the degradation the 1.25x criterion bounds. *)

open Vlog_util

let plain_vld = { Rig.fs = F_ufs; on = D_vld }
let staged_vld = { Rig.fs = F_ufs; on = D_nvm W_vld }

(* The four rigs with their study labels, in seed-slot order. *)
let rigs =
  [
    ("vld", plain_vld);
    ("nvram-lfs", { Rig.fs = F_lfs; on = D_regular });
    ("nvm-ufs", { Rig.fs = F_ufs; on = D_nvm W_regular });
    ("nvm-vld", staged_vld);
  ]

let rig_slot rk =
  let rec go i = function
    | (_, r) :: rest -> if r = rk then i else go (i + 1) rest
    | [] -> invalid_arg "Nvm_bench: not a study rig"
  in
  go 1 rigs

let rig_label rk = fst (List.nth rigs (rig_slot rk - 1))
let staged rk = match rk.Rig.on with Rig.D_nvm _ -> true | _ -> false

type cell = { rk : Rig.rig; burst : int; destage_util : float }

type row = {
  r_cell : cell;
  n_sync : int;  (* measured synchronous writes *)
  sync_mean_ms : float;
  sync_p50_ms : float;
  sync_p99_ms : float;
  sync_max_ms : float;
  burst_fit : bool;  (* one whole burst's records fit the NVM log *)
  burst_mean_ms : float;  (* mean simulated time to absorb one burst *)
  overload_ops_s : float option;
      (* sustained back-to-back throughput; [None] when the phase spent
         no simulated time, so it did not saturate the rig *)
}

type criteria = {
  latency_ratio : float;
      (* min over fitting burst sizes of plain-VLD mean latency over
         staged-VLD mean latency, at the highest duty cycle *)
  latency_ok : bool;  (* [latency_ratio >= 10.] *)
  overload_ratio : float;  (* plain-VLD overload throughput over staged-VLD's *)
  overload_ok : bool;  (* [overload_ratio <= 1.25] *)
}

let block_bytes = 4096
let file_blocks = 64
let vld_logical_blocks = 3000
let gap_ms_per_write = 3.0

let bursts = function
  | Rigs.Quick -> [ 8; 64 ]
  | Rigs.Full -> [ 8; 64; 256; 1024; 4096 ]

let utils = function Rigs.Quick -> [ 0.25; 1.0 ] | Rigs.Full -> [ 0.05; 0.25; 1.0 ]
let rounds = function Rigs.Quick -> 2 | Rigs.Full -> 4

(* Enough back-to-back writes to overflow the 8 MiB log (~2030 records)
   even if it starts empty, so the overload phase measures the
   degradation the 1.25x criterion bounds, not the NVM append rate. *)
let overload_ops = function Rigs.Quick -> 150 | Rigs.Full -> 4000

(* A steady-state overwrite of an already-allocated block stages one WAL
   record; the warmup's allocation metadata is drained before anything
   is measured. *)
let records_per_sync_write = 1

let cells ~scale =
  List.concat_map
    (fun rk ->
      let us = if staged rk then utils scale else [ 0. ] in
      List.concat_map
        (fun burst -> List.map (fun u -> { rk; burst; destage_util = u }) us)
        (bursts scale))
    (List.map snd rigs)

let seed_of ~seed c =
  Int64.of_int
    ((0xA7 * (seed + 1))
    + (10_000 * rig_slot c.rk)
    + (7 * c.burst)
    + int_of_float (c.destage_util *. 100.))

let ufs_cfg =
  { Ufs.sync_data = true; n_inodes = 64; cache_blocks = 64; readahead_blocks = 2 }

let fail c fmt =
  Format.kasprintf (fun m -> failwith ("nvm bench [" ^ rig_label c.rk ^ "]: " ^ m)) fmt

(* The cell's rig, fresh, with the file "f" created: a staged rig's
   destager runs inside [destage_util] of each idle window.  Returns the
   stack and its slot writer (a synchronous 4 KB overwrite). *)
let make_stack c seed =
  let wal =
    { Nvm.Nvm_wal.default_config with Nvm.Nvm_wal.destage_util = c.destage_util }
  in
  match
    Rig.build ~profile:Rigs.seagate ~ufs:ufs_cfg ~logical_blocks:vld_logical_blocks
      ~spare_blocks:8 ~wal ~prng:(Prng.create ~seed) c.rk Rig.Fresh
  with
  | Error e -> fail c "%s" e
  | Ok st ->
    let die op = function
      | Ok _ -> ()
      | Error e -> fail c "%s failed: %a" op Blockdev.Fs_error.pp e
    in
    die "create" (st.ops.create "f");
    let version = ref 0 in
    let payload () =
      incr version;
      Bytes.make block_bytes (Char.chr (33 + (!version mod 90)))
    in
    ( st,
      fun slot -> die "write" (st.ops.write "f" ~off:(slot * block_bytes) (payload ()))
    )

let run_cell ~scale ~seed c =
  let st, write = make_stack c (seed_of ~seed c) in
  let clock = st.device.clock in
  for slot = 0 to file_blocks - 1 do
    write slot
  done;
  Result.iter_error (fail c "warmup %s") (st.settle ());
  let sprng = Prng.create ~seed:(Int64.add (seed_of ~seed c) 1L) in
  let lats = ref [] in
  let burst_times = ref [] in
  for _ = 1 to rounds scale do
    let b0 = Clock.now clock in
    for _ = 1 to c.burst do
      let t0 = Clock.now clock in
      write (Prng.int sprng file_blocks);
      lats := (Clock.now clock -. t0) :: !lats
    done;
    burst_times := (Clock.now clock -. b0) :: !burst_times;
    st.device.dev.Blockdev.Device.idle (gap_ms_per_write *. float_of_int c.burst)
  done;
  let o0 = Clock.now clock in
  let n_over = overload_ops scale in
  for _ = 1 to n_over do
    write (Prng.int sprng file_blocks)
  done;
  let over_ms = Clock.now clock -. o0 in
  let log_capacity =
    match st.device.wal with
    | None -> 0
    | Some w -> (Nvm.Nvm_wal.status w).Nvm.Nvm_wal.st_log_capacity
  in
  let s = Stats.summarize (List.rev !lats) in
  let burst_fit =
    log_capacity = 0
    || 32
       + records_per_sync_write * c.burst
         * Nvm.Nvm_wal.Record.encoded_size ~payload_len:block_bytes
       <= log_capacity
  in
  {
    r_cell = c;
    n_sync = s.Stats.n;
    sync_mean_ms = s.Stats.mean;
    sync_p50_ms = s.Stats.p50;
    sync_p99_ms = s.Stats.p99;
    sync_max_ms = s.Stats.max;
    burst_fit;
    burst_mean_ms = Stats.mean (List.rev !burst_times);
    overload_ops_s =
      (* A rig whose overload set never leaves memory spends no
         simulated time: it did not saturate, and has no rate. *)
      (if over_ms > 0. then Some (float_of_int n_over /. over_ms *. 1000.) else None);
  }

(* The acceptance criteria, read off the finished rows: plain VLD
   against the staged VLD at the destager's highest duty cycle. *)
let criteria_of ~scale rows =
  let find rk burst u =
    List.find_opt
      (fun r ->
        r.r_cell.rk = rk && r.r_cell.burst = burst && r.r_cell.destage_util = u)
      rows
  in
  let umax = List.fold_left Float.max 0. (utils scale) in
  let ratios =
    List.filter_map
      (fun burst ->
        match (find plain_vld burst 0., find staged_vld burst umax) with
        | Some base, Some nvm when nvm.burst_fit && nvm.sync_mean_ms > 0. ->
          Some (base.sync_mean_ms /. nvm.sync_mean_ms)
        | _ -> None)
      (bursts scale)
  in
  let latency_ratio =
    match ratios with [] -> 0. | r :: rs -> List.fold_left Float.min r rs
  in
  let bmax = List.fold_left max 0 (bursts scale) in
  let overload_ratio =
    match (find plain_vld bmax 0., find staged_vld bmax umax) with
    | Some { overload_ops_s = Some base; _ }, Some { overload_ops_s = Some nvm; _ } ->
      base /. nvm
    | _ -> infinity
  in
  {
    latency_ratio;
    latency_ok = latency_ratio >= 10.;
    overload_ratio;
    overload_ok = overload_ratio <= 1.25;
  }

let subs ?(seed = 0) ~scale () =
  List.map
    (fun c ->
      ( Printf.sprintf "%s/%d/%.2f" (rig_label c.rk) c.burst c.destage_util,
        fun () -> run_cell ~scale ~seed c ))
    (cells ~scale)

let table_of rows =
  let t =
    Table.create
      ~title:
        "NVM staging tier: synchronous 4 KB writes in bursts (gap 3 ms/write), \
         then sustained overload"
      ~columns:
        [
          "rig"; "burst"; "util"; "mean"; "p50"; "p99"; "burst ms"; "fits";
          "overload ops/s";
        ]
  in
  List.iter
    (fun row ->
      Table.add_row t
        [
          rig_label row.r_cell.rk;
          string_of_int row.r_cell.burst;
          (if staged row.r_cell.rk then
             Table.cell_f ~decimals:2 row.r_cell.destage_util
           else "-");
          Table.cell_ms row.sync_mean_ms;
          Table.cell_ms row.sync_p50_ms;
          Table.cell_ms row.sync_p99_ms;
          Table.cell_f ~decimals:1 row.burst_mean_ms;
          (if row.burst_fit then "yes" else "no");
          (match row.overload_ops_s with
          | Some v -> Table.cell_f ~decimals:0 v
          | None -> "unsaturated");
        ])
    rows;
  t

let json_of rows c =
  let cell row =
    Json.Obj
      [
        ("rig", Json.String (rig_label row.r_cell.rk));
        ("burst", Json.Int row.r_cell.burst);
        ("destage_util", Json.Float row.r_cell.destage_util);
        ("n_sync", Json.Int row.n_sync);
        ("sync_mean_ms", Json.Float row.sync_mean_ms);
        ("sync_p50_ms", Json.Float row.sync_p50_ms);
        ("sync_p99_ms", Json.Float row.sync_p99_ms);
        ("sync_max_ms", Json.Float row.sync_max_ms);
        ("burst_fit", Json.Bool row.burst_fit);
        ("burst_mean_ms", Json.Float row.burst_mean_ms);
        ("overload_saturated", Json.Bool (Option.is_some row.overload_ops_s));
        ( "overload_ops_s",
          match row.overload_ops_s with Some v -> Json.Float v | None -> Json.Null );
      ]
  in
  Json.Obj
    [
      ("cells", Json.List (List.map cell rows));
      ( "criteria",
        Json.Obj
          [
            ("latency_ratio", Json.Float c.latency_ratio);
            ("latency_ok", Json.Bool c.latency_ok);
            ("overload_ratio", Json.Float c.overload_ratio);
            ("overload_ok", Json.Bool c.overload_ok);
          ] );
    ]

let merge ~scale rows =
  let c = criteria_of ~scale rows in
  let verdict ok = if ok then "ok" else "FAIL" in
  ( Printf.sprintf
      "%s\ncriteria: latency_ratio %.1fx (>=10: %s), overload_ratio %.2fx \
       (<=1.25: %s)\n"
      (Table.render (table_of rows))
      c.latency_ratio (verdict c.latency_ok) c.overload_ratio
      (verdict c.overload_ok),
    json_of rows c )
