(* One pass of one workload, printed as one JSON line:

     main.exe --workload NAME --seed N --mode untraced|traced [--spans FILE]

   run.py runs a fresh process per pass, so every pass starts from the
   same heap, and aggregates the passes.  A traced pass wraps every layer
   boundary in spans and attaches a trace sink to the disks; it reports
   the per-layer metrics and, with --spans, writes its spans there. *)

open Perfbench

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --mode untraced|traced [--spans FILE]";
  exit 2

let () =
  let rec pairs acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      pairs ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = pairs [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let w = match List.assoc_opt (get "workload") Stack.workloads with Some w -> w | None -> usage () in
  let seed = match int_of_string_opt (get "seed") with Some n -> n | None -> usage () in
  let mode =
    match get "mode" with
    | "untraced" -> Stack.untraced
    | "traced" -> Stack.traced
    | _ -> usage ()
  in
  let p = Workloads.run_pass ~seed ~mode w in
  (match (p.Workloads.probe, List.assoc_opt "spans" args) with
  | Some probe, Some file -> Probe.write_spans probe file
  | _ -> ());
  let strings l = "[" ^ String.concat "," (List.map Report.json_string l) ^ "]" in
  print_endline
    (Report.json_object
       [
         ("workload", Report.json_string (Stack.name w));
         ("seed", string_of_int seed);
         ("ocaml", Report.json_string Sys.ocaml_version);
         ("attempted", string_of_int p.Workloads.attempted);
         ("failed", string_of_int p.Workloads.failed);
         ("errors", strings p.Workloads.errors);
         ("end_to_end", Report.metrics_json (Workloads.e2e p));
         ("per_layer", Report.metrics_json (p.Workloads.layers @ Workloads.gc_metrics p));
       ])
