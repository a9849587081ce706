(* Smoke tests: every experiment must run at Quick scale and produce a
   table whose shape matches the paper's qualitative claims. *)

open Experiments

let table_nonempty t =
  let s = Vlog_util.Table.render t in
  Alcotest.(check bool) "renders" true (String.length s > 40)

let test_table1 () = table_nonempty (Table1.run ~scale:Rigs.Quick ())

let test_fig1_model_matches_sim () =
  List.iter
    (fun profile ->
      List.iter
        (fun p ->
          let ratio =
            if p.Fig1.model_ms > 0.005 then p.Fig1.simulated_ms /. p.Fig1.model_ms
            else 1.
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s free=%.0f%%: sim %.3f vs model %.3f"
               profile.Disk.Profile.name p.Fig1.free_pct p.Fig1.simulated_ms
               p.Fig1.model_ms)
            true
            (ratio > 0.3 && ratio < 3.5))
        (Fig1.series ~scale:Rigs.Quick profile))
    [ Rigs.hp; Rigs.seagate ]

let test_fig1_monotone_in_free_space () =
  let pts = Fig1.series ~scale:Rigs.Quick Rigs.seagate in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "sim decreasing with free space" true
        (b.Fig1.simulated_ms <= a.Fig1.simulated_ms +. 0.02);
      check rest
    | _ -> ()
  in
  check pts

let test_fig1_seagate_faster_than_hp () =
  let hp = Fig1.series ~scale:Rigs.Quick Rigs.hp in
  let sg = Fig1.series ~scale:Rigs.Quick Rigs.seagate in
  List.iter2
    (fun h s ->
      Alcotest.(check bool) "newer disk locates faster" true
        (s.Fig1.simulated_ms < h.Fig1.simulated_ms))
    hp sg

let test_fig2_tracks_model () =
  List.iter
    (fun profile ->
      List.iter
        (fun p ->
          let ratio = p.Fig2.simulated_ms /. Float.max p.Fig2.model_ms 0.001 in
          Alcotest.(check bool)
            (Printf.sprintf "%s thr=%.0f%%: sim %.3f vs model %.3f"
               profile.Disk.Profile.name p.Fig2.threshold_pct p.Fig2.simulated_ms
               p.Fig2.model_ms)
            true
            (ratio > 0.3 && ratio < 4.))
        (Fig2.series ~scale:Rigs.Quick profile))
    [ Rigs.hp; Rigs.seagate ]

let test_fig6_vld_speeds_up_ufs () =
  let rows = Fig6.series ~scale:Rigs.Quick () in
  let find l = List.find (fun r -> r.Fig6.label = l) rows in
  let vld = find "UFS/VLD" in
  Alcotest.(check bool) "create faster" true (vld.Fig6.create_x > 1.5);
  Alcotest.(check bool) "delete faster" true (vld.Fig6.delete_x > 1.5);
  (* Reads are not helped (slightly hurt, if anything). *)
  Alcotest.(check bool) "read not dramatically changed" true
    (vld.Fig6.read_x > 0.5 && vld.Fig6.read_x < 1.6)

let test_fig7_shapes () =
  let rows = Fig7.series ~scale:Rigs.Quick () in
  let bw label phase =
    let r = List.find (fun r -> r.Fig7.label = label) rows in
    List.assoc phase r.Fig7.phases
  in
  let open Workload.Large_file in
  (* Synchronous random writes much faster on the VLD. *)
  Alcotest.(check bool) "sync random: vld wins" true
    (bw "UFS/VLD" Random_write_sync > 2. *. bw "UFS/regular" Random_write_sync);
  (* Sequential read after random write collapses on log-style layouts. *)
  Alcotest.(check bool) "seq-read-again collapses on vld" true
    (bw "UFS/VLD" Seq_read_again < bw "UFS/VLD" Seq_read /. 2.);
  Alcotest.(check bool) "seq-read-again fine on regular" true
    (bw "UFS/regular" Seq_read_again > bw "UFS/regular" Seq_read /. 2.)

let test_fig8_ordering () =
  let series = Fig8.series ~scale:Rigs.Quick () in
  let find l = (List.find (fun s -> s.Fig8.label = l) series).Fig8.points in
  let ufs_reg = find "UFS on Regular Disk" in
  let ufs_vld = find "UFS on VLD" in
  let lfs = find "LFS with NVRAM on Regular Disk" in
  List.iteri
    (fun i p_reg ->
      let p_vld = List.nth ufs_vld i in
      Alcotest.(check bool) "vld beats update-in-place" true
        (p_vld.Fig8.latency_ms < p_reg.Fig8.latency_ms))
    ufs_reg;
  (* While the file fits in NVRAM, LFS is near memory speed. *)
  let small = List.hd lfs in
  Alcotest.(check bool) "lfs near memory speed under nvram" true
    (small.Fig8.latency_ms < 1.)

let test_table2_speedup_widens () =
  let rows = Tech_trends.series ~scale:Rigs.Quick () in
  (match rows with
  | [ hp_sparc; sg_sparc; sg_ultra ] ->
    Alcotest.(check bool) "all speedups > 1" true
      (hp_sparc.Tech_trends.speedup > 1.
      && sg_sparc.Tech_trends.speedup > 1.
      && sg_ultra.Tech_trends.speedup > 1.);
    Alcotest.(check bool) "newer disk widens gap" true
      (sg_sparc.Tech_trends.speedup > hp_sparc.Tech_trends.speedup);
    Alcotest.(check bool) "newer host widens gap further" true
      (sg_ultra.Tech_trends.speedup > sg_sparc.Tech_trends.speedup)
  | _ -> Alcotest.fail "expected three platforms");
  table_nonempty (Tech_trends.table2_of rows);
  table_nonempty (Tech_trends.fig9_of rows)

let test_fig9_mechanical_dominates_update_in_place () =
  let rows = Tech_trends.series ~scale:Rigs.Quick () in
  List.iter
    (fun r ->
      let b = r.Tech_trends.regular.Workload.Random_update.breakdown in
      let _, locate, _, _ = Vlog_util.Breakdown.fractions b in
      Alcotest.(check bool)
        (r.Tech_trends.platform ^ ": locate dominates update-in-place")
        true (locate > 0.4))
    rows

let test_fig10_idle_helps_lfs () =
  let curves = Fig10.series ~scale:Rigs.Quick () in
  List.iter
    (fun c ->
      match c.Fig10.points with
      | first :: rest ->
        let last = List.nth rest (List.length rest - 1) in
        Alcotest.(check bool)
          (Printf.sprintf "burst %dK: idle helps (%.2f -> %.2f)" c.Fig10.burst_kb
             first.Fig10.latency_ms last.Fig10.latency_ms)
          true
          (last.Fig10.latency_ms <= first.Fig10.latency_ms +. 0.01)
      | [] -> Alcotest.fail "no points")
    curves

let test_fig11_idle_helps_vld () =
  let curves = Fig11.series ~scale:Rigs.Quick () in
  List.iter
    (fun c ->
      match c.Fig11.points with
      | first :: rest ->
        let last = List.nth rest (List.length rest - 1) in
        Alcotest.(check bool)
          (Printf.sprintf "burst %dK: idle helps (%.2f -> %.2f)" c.Fig11.burst_kb
             first.Fig11.latency_ms last.Fig11.latency_ms)
          true
          (last.Fig11.latency_ms <= first.Fig11.latency_ms +. 0.05)
      | [] -> Alcotest.fail "no points")
    curves

let test_vlfs_speculation () =
  (* The paper's Section 5.1 speculation, now measurable: VLFS sync
     writes land between UFS/VLD and UFS/regular, far closer to the
     former; buffered VLFS keeps LFS-class small-file performance. *)
  let t = Vlfs_bench.sync_updates ~scale:Rigs.Quick () in
  table_nonempty t;
  let t2 = Vlfs_bench.buffered_small_files ~scale:Rigs.Quick () in
  table_nonempty t2;
  let t3 = Vlfs_bench.recovery_cost ~scale:Rigs.Quick () in
  table_nonempty t3

let test_apps_vld_wins_sync_commits () =
  (* Application-level sanity: UFS-on-VLD commits transactions several
     times faster than update-in-place. *)
  let rig name = Rigs.rig ~seed:0xA11L name in
  let reg = Workload.App_workloads.tpcb ~transactions:40 (rig "ufs/regular") in
  let vld = Workload.App_workloads.tpcb ~transactions:40 (rig "ufs/vld") in
  Alcotest.(check bool)
    (Printf.sprintf "vld %.1f ms << regular %.1f ms"
       vld.Workload.App_workloads.mean_ms reg.Workload.App_workloads.mean_ms)
    true
    (vld.Workload.App_workloads.mean_ms *. 2. < reg.Workload.App_workloads.mean_ms);
  table_nonempty (Apps.run ~scale:Rigs.Quick ())

let test_ablations_render () =
  table_nonempty (Ablations.eager_mode ~scale:Rigs.Quick ());
  table_nonempty (Ablations.compaction_policy ~scale:Rigs.Quick ());
  table_nonempty (Ablations.map_batching ~scale:Rigs.Quick ())

let test_ablation_blocksize_matched_is_best () =
  (* Formula 9: matching physical and logical block size minimizes the
     locate cost; verify the simulated column of the ablation agrees by
     recomputing the model ordering. *)
  let n = 256 and p = 0.5 in
  let skips b = Models.Track_model.multi_block_skips ~n ~p ~physical:b ~logical:8 in
  Alcotest.(check bool) "model ordering" true (skips 8 < skips 1);
  table_nonempty (Ablations.block_size ~scale:Rigs.Quick ())

(* The experiment suite through the worker pool: for the figure that
   reports per-cell percentiles and every study, the rendered tables, the
   machine-readable result and the simulated-time accounting must be
   identical whether the cells run in-process or fanned out to workers. *)
let test_suite_jobs_invariant () =
  let names = [ "fig8"; "qdepth"; "array"; "array-faults"; "nvm" ] in
  let run jobs = Suite.run ~jobs ~timeout_s:600. ~scale:Rigs.Quick ~names () in
  let result (t : Suite.timing) =
    match t.Suite.t_result with
    | Some r -> Vlog_util.Json.to_string r
    | None -> Alcotest.failf "%s: no result" t.Suite.t_name
  in
  let seqs = run 1 and pars = run 2 in
  Alcotest.(check (list string)) "one timing per experiment" names
    (List.map (fun (t : Suite.timing) -> t.Suite.t_name) pars);
  List.iter2
    (fun (seq : Suite.timing) (par : Suite.timing) ->
      let name = seq.Suite.t_name in
      Alcotest.(check (list string)) (name ^ ": no failures") []
        (seq.Suite.t_failures @ par.Suite.t_failures);
      Alcotest.(check string) (name ^ ": rendered output identical")
        seq.Suite.t_output par.Suite.t_output;
      Alcotest.(check string) (name ^ ": result identical") (result seq) (result par);
      (* Summation order differs between the in-process and forked paths
         (the sequential path accumulates the global simulated clock
         across cells), so simulated time agrees to a millisecond's
         thousandth rather than to the last bit. *)
      Alcotest.(check (float 0.001)) (name ^ ": simulated time identical")
        seq.Suite.t_sim_ms par.Suite.t_sim_ms)
    seqs pars

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "table1" `Quick test_table1;
        Alcotest.test_case "suite jobs-invariant" `Slow test_suite_jobs_invariant;
        Alcotest.test_case "fig1 model vs sim" `Slow test_fig1_model_matches_sim;
        Alcotest.test_case "fig1 monotone" `Slow test_fig1_monotone_in_free_space;
        Alcotest.test_case "fig1 disks ordered" `Slow test_fig1_seagate_faster_than_hp;
        Alcotest.test_case "fig2 model vs sim" `Slow test_fig2_tracks_model;
        Alcotest.test_case "fig6 vld speedups" `Slow test_fig6_vld_speeds_up_ufs;
        Alcotest.test_case "fig7 shapes" `Slow test_fig7_shapes;
        Alcotest.test_case "fig8 ordering" `Slow test_fig8_ordering;
        Alcotest.test_case "table2 widening" `Slow test_table2_speedup_widens;
        Alcotest.test_case "fig9 locate dominates" `Slow test_fig9_mechanical_dominates_update_in_place;
        Alcotest.test_case "fig10 idle helps" `Slow test_fig10_idle_helps_lfs;
        Alcotest.test_case "fig11 idle helps" `Slow test_fig11_idle_helps_vld;
        Alcotest.test_case "vlfs speculation" `Slow test_vlfs_speculation;
        Alcotest.test_case "apps vld wins commits" `Slow test_apps_vld_wins_sync_commits;
        Alcotest.test_case "ablations render" `Slow test_ablations_render;
        Alcotest.test_case "ablation blocksize" `Slow test_ablation_blocksize_matched_is_best;
      ] );
  ]
