(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, the beyond-the-paper studies (qdepth, array,
   array-faults, nvm) and the ablation benches, and (with [micro]) runs
   Bechamel micro-benchmarks of the core operations.

   Usage:
     dune exec bench/main.exe                 # every experiment, full scale, then micro
     dune exec bench/main.exe -- --quick      # smoke-test sizes
     dune exec bench/main.exe -- fig8 nvm     # a subset
     dune exec bench/main.exe -- --jobs 4     # fan cells out to 4 workers
     dune exec bench/main.exe -- --seed 3 qdepth   # re-salt the studies' cells
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks
     dune exec bench/main.exe -- --json out.json fig8 qdepth   # machine-readable results

   Experiments (and, for the big grids and the studies, their
   individual cells) run through the [Suite] worker pool as one flat
   job list; [--jobs N] sets the pool width (default: detected cores, or
   $VLSIM_JOBS).  Results are merged in input order, so the tables are
   byte-identical for every N.

   [--json FILE] writes one record per experiment run:
     [{"name":"fig8","wall_s":1.23,"elapsed_s":2.46,"sim_ms":56789.123,
       "scale":"quick","jobs":2,"cores":2,"result":{...}}, ...]
   where [wall_s] is the experiment's host wall-clock span (first of its
   jobs dispatched to last finished), [elapsed_s] the summed in-worker
   compute seconds of its jobs, [sim_ms] the simulated milliseconds it
   consumed (delta of [Vlog_util.Clock.advanced_total] around each
   job), [cores] the host's detected core count, and [result] the
   experiment's own machine-readable result, present only for the
   experiments that report one.  The schema is documented in DESIGN.md;
   CI's bench-smoke job validates it and diffs the [jobs]-invariant
   fields between a sequential and a parallel run. *)

open Experiments

let write_json path ~scale ~jobs (timings : Suite.timing list) =
  let open Vlog_util in
  let record (t : Suite.timing) =
    Json.Obj
      ([
         ("name", Json.String t.Suite.t_name);
         ("wall_s", Json.Float t.Suite.t_wall_s);
         ("elapsed_s", Json.Float t.Suite.t_elapsed_s);
         ("sim_ms", Json.Float t.Suite.t_sim_ms);
         ("scale", Json.String (match scale with Rigs.Quick -> "quick" | Rigs.Full -> "full"));
         ("jobs", Json.Int jobs);
         ("cores", Json.Int (Par.detected_cores ()));
       ]
      @ match t.Suite.t_result with None -> [] | Some r -> [ ("result", r) ])
  in
  let oc = open_out path in
  output_string oc
    ("[\n" ^ String.concat ",\n" (List.map (fun t -> Json.to_string (record t)) timings) ^ "\n]\n");
  close_out oc

(* ---- Bechamel micro-benchmarks of the core operations ---- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let vld_rig = Rigs.rig "ufs/vld" in
  let reg_rig = Rigs.rig "ufs/regular" in
  let payload = Bytes.make 4096 'b' in
  let counter = ref 0 in
  let write_block (rig : Rig.stack) () =
    let dev = rig.device.dev in
    incr counter;
    ignore (dev.Blockdev.Device.write (!counter * 37 mod dev.Blockdev.Device.n_blocks) payload)
  in
  let node =
    {
      Vlog.Map_codec.seq = 1L;
      piece = 0;
      kind = Vlog.Map_codec.Node;
      txn_id = 1L;
      txn_commit = true;
      ptrs = [ { Vlog.Map_codec.pba = 1; seq = 0L } ];
      entries = Array.make 900 7;
    }
  in
  let encoded = Vlog.Map_codec.encode_node ~block_bytes:4096 node in
  (* Eager allocation at 95% utilization — where the indexed search has
     to prune hardest.  Same freemap state for every variant; [search]
     is pure, so each run does the full search from scratch. *)
  let eager_alloc mode =
    let clock = Vlog_util.Clock.create () in
    let disk = Disk.Disk_sim.create ~profile:Rigs.seagate ~clock () in
    let g = Disk.Disk_sim.geometry disk in
    let freemap = Vlog.Freemap.create ~geometry:g ~sectors_per_block:8 in
    let prng = Vlog_util.Prng.create ~seed:0x95L in
    Vlog.Freemap.random_occupy freemap prng ~utilization:0.95;
    Vlog.Eager.create ~mode ~disk ~freemap ()
  in
  let eager_sweep = eager_alloc Vlog.Eager.Sweep in
  let eager_nearest = eager_alloc Vlog.Eager.Nearest in
  let no_exclude _ = false in
  let tests =
    Test.make_grouped ~name:"vlogfs"
      [
        Test.make ~name:"vld-sync-write-4k" (Staged.stage (write_block vld_rig));
        Test.make ~name:"regular-sync-write-4k" (Staged.stage (write_block reg_rig));
        Test.make ~name:"map-node-encode"
          (Staged.stage (fun () ->
               ignore (Vlog.Map_codec.encode_node ~block_bytes:4096 node)));
        Test.make ~name:"map-node-decode"
          (Staged.stage (fun () -> ignore (Vlog.Map_codec.decode_node encoded)));
        Test.make ~name:"analytic-cylinder-model"
          (Staged.stage (fun () ->
               ignore (Models.Cylinder_model.locate_ms Rigs.seagate ~p:0.2)));
        Test.make ~name:"eager-alloc-sweep-95"
          (Staged.stage (fun () ->
               ignore
                 (Vlog.Eager.search eager_sweep ~exclude_tracks:no_exclude
                    ~lead_time:0.)));
        Test.make ~name:"eager-alloc-nearest-95"
          (Staged.stage (fun () ->
               ignore
                 (Vlog.Eager.search eager_nearest ~exclude_tracks:no_exclude
                    ~lead_time:0.)));
        Test.make ~name:"eager-alloc-reference-95"
          (Staged.stage (fun () ->
               ignore
                 (Vlog.Eager.Reference.search eager_sweep
                    ~exclude_tracks:no_exclude ~lead_time:0.)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let results, _ = (Analyze.merge ols instances [ results ], raw) in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let () =
    Bechamel_notty.Unit.add Instance.monotonic_clock
      (Measure.unit Instance.monotonic_clock)
  in
  let img = Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results in
  Notty_unix.eol img |> Notty_unix.output_image

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* The cross-cutting flags come from the shared vocabulary, so bench
     and vlsim accept identical spellings. *)
  let get = function
    | Ok v -> v
    | Error msg ->
      prerr_endline msg;
      exit 2
  in
  let open Vlog_util in
  let jobs_opt, args = get (Cli.extract_int Cli.jobs ~min:1 args) in
  let jobs = match jobs_opt with Some j -> j | None -> Par.default_jobs () in
  let json_path, args = get (Cli.extract Cli.json args) in
  let seed_opt, args = get (Cli.extract_int Cli.seed ~min:0 args) in
  let scale = if List.mem "--quick" args then Rigs.Quick else Rigs.Full in
  let names = List.filter (fun a -> a <> "--quick") args in
  let want_micro = List.mem "micro" names in
  let names = List.filter (fun a -> a <> "micro") names in
  List.iter
    (fun n ->
      if not (List.mem n Suite.names) then begin
        Printf.eprintf "unknown experiment %s (known: %s)\n" n
          (String.concat ", " Suite.names);
        exit 2
      end)
    names;
  let progress ~completed ~total ~label =
    Printf.eprintf "[%d/%d] %s\n%!" completed total label
  in
  let timings =
    Suite.run ~jobs ~timeout_s:3600. ~progress ?seed:seed_opt ~scale
      ~names:(if names = [] then Suite.names else names)
      ()
  in
  List.iter
    (fun (t : Suite.timing) ->
      print_string t.Suite.t_output;
      Printf.printf "[%s: %.1fs]\n\n%!" t.Suite.t_name t.Suite.t_wall_s)
    timings;
  Option.iter (fun path -> write_json path ~scale ~jobs timings) json_path;
  let failed = List.concat_map (fun (t : Suite.timing) -> t.Suite.t_failures) timings in
  if failed <> [] then begin
    List.iter (Printf.eprintf "FAILED %s\n") failed;
    exit 1
  end;
  if want_micro || names = [] then micro ()
