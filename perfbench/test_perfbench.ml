(* The benchmark's own tests: probing must not change what it measures,
   inputs must follow the seed, and the device wrapper must forward and
   count every closure exactly once. *)

open Perfbench

let small = function
  | Stack.Update_scan -> { Workloads.warm = 1; timed = 3 }
  | Burst_lfs | Burst_nvm -> { Workloads.warm = 1; timed = 4 }
  | Array_mixed -> { Workloads.warm = 2; timed = 20 }

let sim (p : Workloads.pass) =
  List.filter (fun m -> m.Report.clock = Report.Sim) (Workloads.e2e p)

let show ms = Report.metrics_json ms

let pass ?(seed = 3) mode w = Workloads.run_pass ~sizes_of:small ~seed ~mode w

(* Off, wrappers only, and wrappers plus trace sink all give the same
   simulated metrics, and so does a second run at the seed.  Per-layer
   simulated metrics agree between the two probed passes, except the
   queue histograms, which only the trace sink records. *)
let transparent w () =
  let base = pass Stack.untraced w in
  let again = pass Stack.untraced w in
  let wrapped = pass { Stack.probe = true; trace = false } w in
  let traced = pass Stack.traced w in
  List.iter
    (fun (label, p) ->
      Alcotest.(check int) (label ^ ": no failures") 0 p.Workloads.failed;
      Alcotest.(check string) label (show (sim base)) (show (sim p)))
    [ ("untraced", base); ("second untraced pass", again); ("wrappers only", wrapped);
      ("wrappers and trace sink", traced) ];
  let sim_layers p =
    List.filter
      (fun m -> m.Report.clock = Report.Sim && not (String.starts_with ~prefix:"queue." m.Report.name))
      p.Workloads.layers
  in
  Alcotest.(check string) "per-layer simulated metrics" (show (sim_layers wrapped))
    (show (sim_layers traced))

let seeded w () =
  let inputs seed = Workloads.inputs ~seed ~stream:1 ~n:(small w).Workloads.timed w ~blocks:1000 in
  Alcotest.(check bool) "same seed, same inputs" true (inputs 1 = inputs 1);
  Alcotest.(check bool) "other seed, other inputs" false (inputs 1 = inputs 2)

let bursts_straddle_buffers () =
  List.iter
    (fun n ->
      let sizes = Gen.burst_sizes (Gen.bursts ~seed:1 ~n ~file_blocks:100) in
      let lo = Array.fold_left min max_int sizes and hi = Array.fold_left max 0 sizes in
      List.iter
        (fun w ->
          let rig = Stack.build Stack.untraced w in
          let buffer = rig.Stack.fast_buffer_blocks in
          Alcotest.(check bool)
            (Printf.sprintf "%d bursts: %d..%d blocks straddle %s's %d" n lo hi (Stack.name w) buffer)
            true
            (lo < buffer && hi > buffer))
        [ Stack.Burst_lfs; Stack.Burst_nvm ])
    [ (small Stack.Burst_lfs).Workloads.timed; (Workloads.default_sizes Stack.Burst_lfs).timed ]

(* A device whose closures count their own calls. *)
let counting_device () =
  let calls = Hashtbl.create 16 in
  let hit name = Hashtbl.replace calls name (1 + Option.value ~default:0 (Hashtbl.find_opt calls name)) in
  let done_ = Vlog_util.Io.make Vlog_util.Breakdown.zero in
  let d =
    {
      Blockdev.Device.name = "counting";
      block_bytes = 4096;
      n_blocks = 16;
      trace = Trace.null;
      read = (fun _ -> hit "read"; Ok (Bytes.make 4096 'r', done_));
      read_run = (fun _ n -> hit "read_run"; Ok (Bytes.make (n * 4096) 'r', done_));
      write = (fun _ _ -> hit "write"; Ok done_);
      write_run = (fun _ _ -> hit "write_run"; Ok done_);
      submit = (fun _ -> hit "submit"; 0);
      poll = (fun () -> hit "poll"; []);
      drain = (fun () -> hit "drain"; []);
      trim = (fun _ -> hit "trim");
      idle = (fun _ -> hit "idle");
      utilization = (fun () -> hit "utilization"; 0.5);
    }
  in
  (d, calls)

let wrapper_forwards_everything () =
  let inner, calls = counting_device () in
  let probe = Probe.create ~clock:(Vlog_util.Clock.create ()) in
  Probe.start probe;
  let d = Probe.wrap probe ~layer:"dev" inner in
  let block = Bytes.make 4096 'w' in
  ignore (d.read 1);
  ignore (d.read_run 1 2);
  ignore (d.write 1 block);
  ignore (d.write_run 1 block);
  ignore (d.submit (Blockdev.Device.Write (1, block)));
  ignore (d.poll ());
  ignore (d.drain ());
  d.trim 1;
  d.idle 1.;
  ignore (d.utilization ());
  let names =
    [ "read"; "read_run"; "write"; "write_run"; "submit"; "poll"; "drain"; "trim"; "idle"; "utilization" ]
  in
  List.iter
    (fun name ->
      Alcotest.(check int) ("inner " ^ name) 1 (Option.value ~default:0 (Hashtbl.find_opt calls name)))
    names;
  Alcotest.(check int) "wrapper calls" (List.length names) (Probe.calls probe ~layer:"dev");
  let total f = int_of_float (Probe.sum probe ~layer:"dev" (fun a -> float_of_int (f a))) in
  Alcotest.(check int) "write requests" 3 (total (fun a -> a.Probe.write_reqs));
  Alcotest.(check int) "read requests" 2 (total (fun a -> a.Probe.read_reqs));
  Alcotest.(check int) "write blocks" 3 (total (fun a -> a.Probe.write_blocks));
  Alcotest.(check int) "read blocks" 3 (total (fun a -> a.Probe.read_blocks))

let () =
  let per_workload name f =
    List.map (fun (wname, w) -> Alcotest.test_case (name ^ " " ^ wname) `Quick (f w)) Stack.workloads
  in
  Alcotest.run "perfbench"
    [
      ("transparency", per_workload "simulated metrics unchanged by probes" transparent);
      ("inputs", per_workload "seeded" seeded
                 @ [ Alcotest.test_case "bursts straddle both fast buffers" `Quick bursts_straddle_buffers ]);
      ("wrapper", [ Alcotest.test_case "forwards and counts every closure once" `Quick wrapper_forwards_everything ]);
    ]
