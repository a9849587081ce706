open Vlog_util

type txn_result = { transactions : int; mean_ms : float; p90_ms : float; max_ms : float }

let tpcb ?(transactions = 300) ?(accounts_mb = 10.) ?(pages_per_txn = 3) (t : Rig.stack) =
  let ops = t.ops in
  let prng = Prng.split t.prng in
  let pages = int_of_float (accounts_mb *. 1048576.) / 4096 in
  ignore (Rig.ok_exn (ops.create "accounts"));
  ignore (Rig.ok_exn (ops.create "history"));
  let chunk = Bytes.make (16 * 4096) '0' in
  for c = 0 to (pages / 16) - 1 do
    ignore (Rig.ok_exn (ops.write "accounts" ~off:(c * 16 * 4096) chunk))
  done;
  ignore (ops.sync ());
  let page = Bytes.make 4096 'p' in
  let history = Bytes.make 512 'h' in
  let latencies = ref [] in
  let hist_off = ref 0 in
  for _ = 1 to transactions do
    let (), ms =
      Rig.elapsed t (fun () ->
          for _ = 1 to pages_per_txn do
            ignore
              (Rig.ok_exn (ops.write "accounts" ~off:(Prng.int prng pages * 4096) page))
          done;
          ignore (Rig.ok_exn (ops.write "history" ~off:!hist_off history));
          hist_off := !hist_off + 512;
          ignore (ops.sync ()))
    in
    latencies := ms :: !latencies
  done;
  let s = Stats.summarize !latencies in
  {
    transactions;
    mean_ms = s.Stats.mean;
    p90_ms = s.Stats.p90;
    max_ms = s.Stats.max;
  }

type churn_result = { operations : int; total_ms : float; ops_per_sec : float }

let postmark ?(operations = 2000) ?(max_live = 300) (t : Rig.stack) =
  let ops = t.ops in
  let prng = Prng.split t.prng in
  let live = Queue.create () in
  let sizes : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  let name id = Printf.sprintf "pm%06d" id in
  let deliver () =
    let id = !next_id in
    incr next_id;
    let body = Bytes.make (512 * (1 + Prng.int prng 16)) 'm' in
    ignore (Rig.ok_exn (ops.create (name id)));
    ignore (Rig.ok_exn (ops.write (name id) ~off:0 body));
    Hashtbl.replace sizes id (Bytes.length body);
    Queue.add id live
  in
  let (), total_ms =
    Rig.elapsed t (fun () ->
        for op = 1 to operations do
          (match Prng.int prng 100 with
          | r when r < 40 || Queue.is_empty live ->
            if Queue.length live < max_live then deliver ()
            else ignore (Rig.ok_exn (ops.read (name (Queue.peek live)) ~off:0 ~len:4096))
          | r when r < 65 ->
            ignore (Rig.ok_exn (ops.read (name (Queue.peek live)) ~off:0 ~len:4096))
          | r when r < 80 ->
            let id = Queue.peek live in
            let size = Hashtbl.find sizes id in
            ignore (Rig.ok_exn (ops.write (name id) ~off:size (Bytes.make 512 'a')));
            Hashtbl.replace sizes id (size + 512)
          | _ ->
            if Queue.length live > 5 then begin
              let id = Queue.pop live in
              Hashtbl.remove sizes id;
              ignore (Rig.ok_exn (ops.delete (name id)))
            end
            else deliver ());
          if op mod 50 = 0 then ignore (ops.sync ())
        done;
        ignore (ops.sync ()))
  in
  {
    operations;
    total_ms;
    ops_per_sec = float_of_int operations /. (total_ms /. 1000.);
  }
