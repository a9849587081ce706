(* The bench suite as a parallel job plan.

   Every experiment is decomposed into one or more independent jobs,
   each returning a rendered payload; the whole run is one flat job list
   through [Par.map], so figures and cells from different experiments
   fill the worker pool together.  Sub-splittable experiments (fig8's
   utilization sweep, fig10/fig11's idle grids, the qdepth, array and
   nvm studies) contribute one job per cell and a merge function that
   regroups cell results into the experiment's output; everything else
   is a single job rendering its own output.  Because every cell derives
   its state from its own coordinates (constant rig seeds, per-cell
   PRNGs), the merged output is byte-identical whatever [jobs] is. *)

open Vlog_util

type timing = {
  t_name : string;
  t_output : string;
  t_result : Json.t option;
  t_wall_s : float;
  t_elapsed_s : float;
  t_sim_ms : float;
  t_failures : string list;
}

(* A plan is either one job or a fan-out with a typed merge.  ['r] is
   existential: it never crosses the module boundary, only the wire
   (where it is marshalled, so it must be closure-free data).  The
   merge returns the rendered output and, optionally, the experiment's
   machine-readable result. *)
type plan =
  | Single of (unit -> string)
  | Split : {
      subs : (string * (unit -> 'r)) list;
      merge : 'r list -> string * Json.t option;
    }
      -> plan

let render t = Table.render t

(* A fan-out whose jobs are labelled [name[label]]. *)
let split name subs merge =
  Split
    { subs = List.map (fun (lbl, f) -> (Printf.sprintf "%s[%s]" name lbl, f)) subs; merge }

(* One job per cell of a figure's grid. *)
let grid name cells label run merge =
  split name (List.map (fun c -> (label c, fun () -> run c)) cells) merge

(* A study whose module owns its jobs and merge, and always has a
   machine-readable result. *)
let study name subs merge =
  split name subs (fun rs -> let text, json = merge rs in (text, Some json))

let plan ~seed ~scale name : plan =
  let table (run : ?scale:Rigs.scale -> unit -> Table.t) =
    Single (fun () -> render (run ~scale ()))
  in
  match name with
  | "table1" -> table Table1.run
  | "fig1" -> table Fig1.run
  | "fig2" -> table Fig2.run
  | "fig6" -> table Fig6.run
  | "fig7" -> table Fig7.run
  | "fig8" ->
    let cells = Fig8.cells ~scale in
    let percentiles points =
      List.filter_map
        (fun (c, p) ->
          Option.map
            (fun (p : Fig8.point) ->
              Json.Obj
                [
                  ("label", Json.String (Fig8.cell_label c));
                  ("p50_ms", Json.Float p.Fig8.p50_ms);
                  ("p99_ms", Json.Float p.Fig8.p99_ms);
                ])
            p)
        (List.combine cells points)
    in
    grid "fig8" cells Fig8.cell_label (Fig8.run_cell ~scale) (fun points ->
        ( render (Fig8.table_of (Fig8.collate (List.combine cells points))),
          Some (Json.Obj [ ("cells", Json.List (percentiles points)) ]) ))
  | "table2" ->
    (* One measurement feeds both Table 2 and Figure 9. *)
    Single
      (fun () ->
        let rows = Tech_trends.series ~scale () in
        render (Tech_trends.table2_of rows) ^ "\n" ^ render (Tech_trends.fig9_of rows))
  | "fig10" ->
    let cells = Fig10.cells ~scale in
    grid "fig10" cells Fig10.cell_label (Fig10.run_cell ~scale) (fun points ->
        ( render
            (Fig10.table_of ~title:"Figure 10: LFS (with NVRAM) latency vs idle interval"
               (Fig10.collate (List.combine cells points))),
          None ))
  | "fig11" ->
    let cells = Fig11.cells ~scale in
    grid "fig11" cells Fig11.cell_label (Fig11.run_cell ~scale) (fun points ->
        (render (Fig11.table_of (Fig11.collate (List.combine cells points))), None))
  | "apps" -> table Apps.run
  | "vlfs" ->
    Single
      (fun () ->
        render (Vlfs_bench.sync_updates ~scale ())
        ^ "\n"
        ^ render (Vlfs_bench.buffered_small_files ~scale ())
        ^ "\n"
        ^ render (Vlfs_bench.recovery_cost ~scale ()))
  | "volume" -> table Volume_bench.run
  | "ablation-mode" -> table Ablations.eager_mode
  | "ablation-compact" -> table Ablations.compaction_policy
  | "ablation-blocksize" -> table Ablations.block_size
  | "ablation-mapbatch" -> table Ablations.map_batching
  | "qdepth" -> study "qdepth" (Qdepth.subs ~seed ~scale ()) Qdepth.merge
  | "array" -> study "array" (Array_bench.subs ~seed ~scale ()) Array_bench.merge
  | "array-faults" ->
    study "array-faults" (Array_bench.fault_subs ~seed ~scale ()) Array_bench.fault_merge
  | "nvm" -> study "nvm" (Nvm_bench.subs ~seed ~scale ()) (Nvm_bench.merge ~scale)
  | other -> invalid_arg ("Suite.plan: unknown experiment " ^ other)

let names =
  [
    "table1"; "fig1"; "fig2"; "fig6"; "fig7"; "fig8"; "table2"; "fig10";
    "fig11"; "apps"; "vlfs"; "volume"; "ablation-mode"; "ablation-compact";
    "ablation-blocksize"; "ablation-mapbatch"; "qdepth"; "array";
    "array-faults"; "nvm";
  ]

(* Type erasure at the job boundary: sub-results travel marshalled, and
   the typed merge is rebuilt on strings.  ['r] stays bound inside each
   match arm, so this needs no [Obj]. *)
type erased = {
  e_name : string;
  e_subs : (string * (unit -> string)) list;
  e_merge : string list -> string * Json.t option;
}

let erase e_name = function
  | Single f -> { e_name; e_subs = [ (e_name, f) ]; e_merge = (fun fs -> (String.concat "" fs, None)) }
  | Split { subs; merge } ->
    {
      e_name;
      e_subs =
        List.map (fun (lbl, f) -> (lbl, fun () -> Marshal.to_string (f ()) [])) subs;
      e_merge = (fun frags -> merge (List.map (fun s -> Marshal.from_string s 0) frags));
    }

(* What one job ships back: payload plus its own compute and simulated
   time, measured in the worker so attribution survives the fan-out. *)
type job_out = { jo_payload : string; jo_elapsed_s : float; jo_sim_ms : float }

let run ?(jobs = 1) ?timeout_s ?(progress = fun ~completed:_ ~total:_ ~label:_ -> ())
    ?(seed = 0) ~scale ~names:wanted () =
  let plans = List.map (fun n -> erase n (plan ~seed ~scale n)) wanted in
  let flat =
    List.concat
      (List.mapi
         (fun ei e -> List.map (fun (lbl, th) -> (ei, lbl, th)) e.e_subs)
         plans)
  in
  let total = List.length flat in
  let labels = Array.of_list (List.map (fun (_, lbl, _) -> lbl) flat) in
  let starts = Array.make total 0. in
  let dones = Array.make total 0. in
  let completed = ref 0 in
  let results =
    Par.map ?timeout_s ~jobs
      ~on_start:(fun i -> starts.(i) <- Unix.gettimeofday ())
      ~on_done:(fun i ->
        dones.(i) <- Unix.gettimeofday ();
        incr completed;
        progress ~completed:!completed ~total ~label:labels.(i))
      (fun (_, _, thunk) ->
        let t0 = Unix.gettimeofday () in
        let s0 = Clock.advanced_total () in
        let jo_payload = thunk () in
        {
          jo_payload;
          jo_elapsed_s = Unix.gettimeofday () -. t0;
          jo_sim_ms = Clock.advanced_total () -. s0;
        })
      flat
  in
  (* Regroup the flat results per experiment, in input order. *)
  let indexed = List.mapi (fun i ((ei, lbl, _), r) -> (i, ei, lbl, r)) (List.combine flat results) in
  List.mapi
    (fun ei e ->
      let mine = List.filter (fun (_, ei', _, _) -> ei' = ei) indexed in
      let failures =
        List.filter_map
          (fun (_, _, lbl, r) ->
            match r with
            | Ok _ -> None
            | Error (err : Par.error) ->
              Some (Printf.sprintf "%s: %s" lbl (Par.reason_to_string err.Par.reason)))
          mine
      in
      let oks = List.filter_map (fun (_, _, _, r) -> Result.to_option r) mine in
      let t_output, t_result =
        if failures = [] then e.e_merge (List.map (fun j -> j.jo_payload) oks)
        else
          ( Printf.sprintf "(%s: %d of %d jobs failed; no output)\n" e.e_name
              (List.length failures) (List.length mine),
            None )
      in
      let sum f = List.fold_left (fun a j -> a +. f j) 0. oks in
      let span =
        let idxs = List.map (fun (i, _, _, _) -> i) mine in
        match idxs with
        | [] -> 0.
        | _ ->
          let first = List.fold_left (fun a i -> Float.min a starts.(i)) infinity idxs in
          let last = List.fold_left (fun a i -> Float.max a dones.(i)) 0. idxs in
          Float.max 0. (last -. first)
      in
      {
        t_name = e.e_name;
        t_output;
        t_result;
        t_wall_s = span;
        t_elapsed_s = sum (fun j -> j.jo_elapsed_s);
        t_sim_ms = sum (fun j -> j.jo_sim_ms);
        t_failures = failures;
      })
    plans
