type result = { create_ms : float; read_ms : float; delete_ms : float; files : int }

let name i = Printf.sprintf "small%05d" i

let run ?(files = 1500) (t : Rig.stack) =
  let ops = t.ops in
  let payload = Bytes.make 1024 'q' in
  let (), create_ms =
    Rig.elapsed t (fun () ->
        for i = 0 to files - 1 do
          ignore (Rig.ok_exn (ops.create (name i)));
          ignore (Rig.ok_exn (ops.write (name i) ~off:0 payload))
        done;
        ignore (ops.sync ()))
  in
  ops.drop_caches ();
  let (), read_ms =
    Rig.elapsed t (fun () ->
        for i = 0 to files - 1 do
          ignore (Rig.ok_exn (ops.read (name i) ~off:0 ~len:1024))
        done)
  in
  let (), delete_ms =
    Rig.elapsed t (fun () ->
        for i = 0 to files - 1 do
          ignore (Rig.ok_exn (ops.delete (name i)))
        done;
        ignore (ops.sync ()))
  in
  { create_ms; read_ms; delete_ms; files }

let normalize ~baseline r =
  ( baseline.create_ms /. r.create_ms,
    baseline.read_ms /. r.read_ms,
    baseline.delete_ms /. r.delete_ms )
