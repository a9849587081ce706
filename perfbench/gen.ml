(* Seeded input generation.  Everything a workload does is decided here,
   from the workload seed alone, before any rig exists: the rigs receive
   only these arrays, so the same seed replays the same inputs and a
   second pass in one run repeats the first exactly. *)

open Vlog_util

let block_bytes = 4096

let prng ~seed ~salt = Prng.create ~seed:(Int64.of_int ((seed * 0x9E3779B1) lxor salt))

let distinct prng ~count ~bound =
  let seen = Hashtbl.create count in
  Array.init count (fun _ ->
      let rec fresh () =
        let j = Prng.int prng bound in
        if Hashtbl.mem seen j then fresh ()
        else begin
          Hashtbl.add seen j ();
          j
        end
      in
      fresh ())

(* --- update-scan --- *)

type round = { writes : int array; scan_start : int }

let scan_blocks = 256 (* 1 MB *)

let update_rounds ~seed ~rounds ~writes_per_round ~file_blocks =
  let p = prng ~seed ~salt:0x05CA in
  Array.init rounds (fun _ ->
      let writes = Array.init writes_per_round (fun _ -> Prng.int p file_blocks) in
      { writes; scan_start = Prng.int p (file_blocks - scan_blocks + 1) })

(* --- burst-lfs / burst-nvm --- *)

type burst = { offsets : int array; gap_ms : float }

let min_burst_blocks = 32 (* 128 KB *)
let max_burst_blocks = 4096 (* 16 MB *)

(* The burst schedule: [n] (size, gap) pairs -- sizes log-spaced over
   128 KB..16 MB, gaps evenly spaced over 0.25..3 s, paired by a fixed
   stride so every size class meets short and long gaps -- in one fixed,
   shuffled order.  Both burst workloads replay it.  The order is part of
   the workload, not of the seed: the state the cleaner and destager
   carry from burst to burst makes the mean write latency depend on the
   order (8 seeded orders spread it by 6-13 % between quartiles), while
   with the order fixed, the seed-drawn block offsets move it by about
   3 %.  The seed draws the offsets, within each rig's file. *)
let bursts ~seed ~n ~file_blocks =
  let spaced ~lo ~hi ~log i =
    let u = (float_of_int i +. 0.5) /. float_of_int n in
    if log then exp (Float.log lo +. (u *. (Float.log hi -. Float.log lo)))
    else lo +. (u *. (hi -. lo))
  in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec stride k = if gcd k n = 1 then k else stride (k + 1) in
  let k = stride (max 1 (n * 5 / 8)) in
  let order = Array.init n Fun.id in
  Prng.shuffle (prng ~seed:0 ~salt:0x0D3E) order;
  let p = prng ~seed ~salt:0xB0257 in
  Array.map
    (fun i ->
      let size =
        int_of_float
          (spaced ~lo:(float_of_int min_burst_blocks) ~hi:(float_of_int max_burst_blocks)
             ~log:true i)
      in
      {
        offsets = Array.init size (fun _ -> Prng.int p file_blocks);
        gap_ms = spaced ~lo:250. ~hi:3000. ~log:false (i * k mod n);
      })
    order

let burst_sizes bs = Array.map (fun b -> Array.length b.offsets) bs

(* --- array-mixed --- *)

type array_round = { is_write : bool; blocks : int array }

(* [per_group] distinct blocks in each of [groups] stripe groups (block
   b lives in group b mod groups), so every leg's queue holds the same
   depth; exactly [write_share] of the rounds write, in seeded order. *)
let array_rounds ~seed ~rounds ~groups ~group_blocks ~per_group ~write_share =
  let p = prng ~seed ~salt:0xA77A in
  let n_writes = int_of_float (Float.round (write_share *. float_of_int rounds)) in
  let kinds = Array.init rounds (fun i -> i < n_writes) in
  Prng.shuffle p kinds;
  Array.map
    (fun is_write ->
      let blocks =
        Array.concat
          (List.init groups (fun g ->
               Array.map
                 (fun j -> g + (groups * j))
                 (distinct p ~count:per_group ~bound:group_blocks)))
      in
      { is_write; blocks })
    kinds

(* --- block contents --- *)

(* Block [b] at version [v]: an 8-byte header naming both, then a fill
   byte derived from them.  A read is correct only if it returns exactly
   the version the shadow map holds. *)
let fill_byte b v = Char.unsafe_chr (((b * 131) + (v * 29) + 7) land 0xff)

let payload b v =
  let buf = Bytes.make block_bytes (fill_byte b v) in
  Bytes.set_int32_le buf 0 (Int32.of_int b);
  Bytes.set_int32_le buf 4 (Int32.of_int v);
  buf

let matches buf ~pos b v =
  Bytes.length buf >= pos + block_bytes
  && Bytes.get_int32_le buf pos = Int32.of_int b
  && Bytes.get_int32_le buf (pos + 4) = Int32.of_int v
  &&
  let c = fill_byte b v in
  let rec go i = i >= block_bytes || (Bytes.unsafe_get buf (pos + i) = c && go (i + 1)) in
  go 8
