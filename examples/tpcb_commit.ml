(* Database-style commit workload: the application class that motivates
   the paper (recoverable virtual memory, persistent stores, TPC-B-style
   transactions).  Every transaction updates a few random 4 KB pages of
   an account "table" and must be durable before it commits.

   The same unmodified UFS runs on a regular disk and on a VLD; the
   per-transaction latency gap is the paper's headline result.

   Run with:  dune exec examples/tpcb_commit.exe *)

open Vlog_util

let table_file = "accounts.db"
let table_mb = 12.
let transactions = 200
let pages_per_txn = 3

let run_on name =
  let rig = Experiments.Rigs.rig ~seed:7L name in
  let ops = rig.Rig.ops in
  let prng = Prng.split rig.Rig.prng in
  let pages = int_of_float (table_mb *. 1048576.) / 4096 in
  (* Load the table. *)
  ignore (Rig.ok_exn (ops.create table_file));
  let chunk = Bytes.make (64 * 4096) '0' in
  for c = 0 to (pages / 64) - 1 do
    ignore (Rig.ok_exn (ops.write table_file ~off:(c * 64 * 4096) chunk))
  done;
  ignore (ops.sync ());
  (* Commit transactions. *)
  let latencies = ref [] in
  let page_buf = Bytes.make 4096 'x' in
  for _ = 1 to transactions do
    let (), ms =
      Rig.elapsed rig (fun () ->
          for _ = 1 to pages_per_txn do
            ignore
              (Rig.ok_exn
                 (ops.write table_file ~off:(Prng.int prng pages * 4096) page_buf))
          done)
    in
    latencies := ms :: !latencies
  done;
  Stats.summarize !latencies

let () =
  let reg = run_on "ufs/regular" in
  let vld = run_on "ufs/vld" in
  Format.printf "%d transactions of %d synchronous 4 KB page updates each@.@."
    transactions pages_per_txn;
  Format.printf "%-12s %a@." "UFS/regular" Stats.pp_summary reg;
  Format.printf "%-12s %a@.@." "UFS/vld" Stats.pp_summary vld;
  Format.printf "mean commit speedup on the virtual log disk: %.1fx@."
    (reg.Stats.mean /. vld.Stats.mean)
