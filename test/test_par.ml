(* The process-parallel map: order preservation, degenerate shapes, and
   the failure paths (raised exception, wedged worker, worker that dies
   without delivering a frame) that the sweeps rely on for per-cell
   fault isolation. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let ok = function Ok v -> v | Error _ -> Alcotest.fail "expected Ok"

let err = function
  | Error (e : Par.error) -> e
  | Ok _ -> Alcotest.fail "expected Error"

(* --- order preservation and degenerate shapes --- *)

let test_order_preserved () =
  let items = List.init 23 Fun.id in
  let expect = List.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      let got = Par.map ~jobs (fun i -> i * i) items |> List.map ok in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves input order" jobs)
        expect got)
    [ 1; 2; 4 ]

let test_empty_input () =
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d on [] is []" jobs)
        0
        (List.length (Par.map ~jobs (fun i -> i) [])))
    [ 1; 4 ]

let test_more_jobs_than_items () =
  let got = Par.map ~jobs:8 (fun i -> i + 1) [ 10; 20; 30 ] |> List.map ok in
  Alcotest.(check (list int)) "3 items on 8 workers" [ 11; 21; 31 ] got

(* --- failure isolation --- *)

let test_worker_exception () =
  List.iter
    (fun jobs ->
      let results =
        Par.map ~jobs
          (fun i -> if i = 1 then failwith "deliberate boom" else i)
          [ 0; 1; 2 ]
      in
      (match results with
      | [ Ok 0; Error e; Ok 2 ] ->
        Alcotest.(check int) "error carries its index" 1 e.Par.index;
        (match e.Par.reason with
        | Par.Exn msg ->
          Alcotest.(check bool)
            "exception text survives the pipe" true
            (contains ~needle:"deliberate boom" msg)
        | r -> Alcotest.failf "wrong reason: %s" (Par.reason_to_string r))
      | _ -> Alcotest.failf "unexpected shape at jobs=%d" jobs))
    [ 1; 2 ]

let test_worker_crash () =
  (* A worker that dies without writing its frame must surface as
     [Crashed], and must not disturb its neighbours. *)
  let results =
    Par.map ~jobs:2 (fun i -> if i = 1 then Unix._exit 3 else i) [ 0; 1; 2 ]
  in
  match results with
  | [ Ok 0; Error e; Ok 2 ] -> (
    Alcotest.(check int) "crash carries its index" 1 e.Par.index;
    match e.Par.reason with
    | Par.Crashed _ -> ()
    | r -> Alcotest.failf "wrong reason: %s" (Par.reason_to_string r))
  | _ -> Alcotest.fail "unexpected shape"

let test_timeout_kill () =
  let t0 = Unix.gettimeofday () in
  let results =
    Par.map ~jobs:2 ~timeout_s:0.5
      (fun i ->
        if i = 1 then
          while true do
            ignore (Sys.opaque_identity i)
          done;
        i)
      [ 0; 1; 2 ]
  in
  let span = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "wedged worker killed promptly (%.1fs)" span)
    true (span < 10.);
  match results with
  | [ Ok 0; Error e; Ok 2 ] -> (
    match e.Par.reason with
    | Par.Timeout _ -> ()
    | r -> Alcotest.failf "wrong reason: %s" (Par.reason_to_string r))
  | _ -> Alcotest.fail "unexpected shape"

(* --- parallel = sequential --- *)

let test_parallel_equals_sequential () =
  (* A job mixing success and failure: the full result list, errors
     included, must be identical between the in-process and the forked
     paths. *)
  let f i = if i mod 5 = 3 then failwith "planned" else i * 7 in
  let seq = Par.map ~jobs:1 f (List.init 17 Fun.id) in
  let par = Par.map ~jobs:3 f (List.init 17 Fun.id) in
  List.iteri
    (fun i (s, p) ->
      match (s, p) with
      | Ok a, Ok b -> Alcotest.(check int) (Printf.sprintf "item %d" i) a b
      | Error a, Error b ->
        Alcotest.(check int) "same index" a.Par.index b.Par.index;
        Alcotest.(check string) "same reason"
          (Par.reason_to_string a.Par.reason)
          (Par.reason_to_string b.Par.reason)
      | _ -> Alcotest.failf "item %d: Ok/Error disagree across paths" i)
    (List.combine seq par)

let test_progress_hooks () =
  let started = ref [] and done_ = ref [] in
  let results =
    Par.map ~jobs:2
      ~on_start:(fun i -> started := i :: !started)
      ~on_done:(fun i -> done_ := i :: !done_)
      (fun i -> i)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "all ok" 4 (List.length (List.filter_map Result.to_option results));
  Alcotest.(check (list int)) "every item started" [ 0; 1; 2; 3 ]
    (List.sort compare !started);
  Alcotest.(check (list int)) "every item finished" [ 0; 1; 2; 3 ]
    (List.sort compare !done_)

(* --- the sweeps through the pool --- *)

(* Each matrix, with its smoke slice's size. *)
let sweeps = Test_cell.[ ("fault", fault, 12); ("fs", fs, 12); ("array", array, 23) ]

let test_sweep_jobs_invariant (_, Test_cell.Sweep s, n) () =
  let o1 = Fault.Cell.run ~jobs:1 s.sweep s.smoke in
  let o3 = Fault.Cell.run ~jobs:3 s.sweep s.smoke in
  Alcotest.(check int) (Printf.sprintf "%d cells" n) n o1.Fault.Cell.cells;
  Alcotest.(check bool) "jobs=3 = jobs=1" true (o1 = o3)

(* Order-independent seeding (the property that justifies fanning out):
   every cell's outcome must be the same whether the matrix runs
   forward or reversed.  A cell that leaked PRNG state to its successor
   would diverge here. *)
let test_cell_order_independent (_, Test_cell.Sweep s, _) () =
  let cells = s.sweep.Fault.Cell.cells s.smoke in
  let run_one = Fault.Cell.run_one s.sweep s.smoke in
  let forward = List.map run_one cells in
  let reversed = List.rev_map run_one (List.rev cells) in
  Alcotest.(check bool) "reversed execution, identical outcomes" true
    (forward = reversed)

(* A sweep whose cells crash or wedge must degrade those cells to
   structured failures with live repro coordinates and keep going. *)
let test_sweep_survives_crashing_cells () =
  List.iter
    (fun (_, Test_cell.Sweep s, n) ->
      let cells = s.sweep.Fault.Cell.cells s.smoke in
      let cell cfg k =
        if s.case k = 2 then failwith "deliberate crash"
        else if s.case k = 3 then (
          while true do
            ignore (Sys.opaque_identity k)
          done;
          assert false)
        else s.sweep.Fault.Cell.run_cell cfg k
      in
      let o = Fault.Cell.run ~jobs:2 ~timeout_s:1.0 ~cell s.sweep s.smoke in
      Alcotest.(check int)
        (Printf.sprintf "%s: all %d cells accounted for" s.name n)
        n o.Fault.Cell.cells;
      Alcotest.(check int) "two structured failures" 2
        (List.length o.Fault.Cell.failures);
      Alcotest.(check int) "two failed verdicts" 2
        (List.length
           (List.filter (fun (_, v) -> v = "failed") o.Fault.Cell.verdicts));
      List.iter
        (fun (f : Fault.Cell.failure) ->
          (* The repro string must round-trip back to the failing cell. *)
          match Fault.Cell.parse s.sweep s.smoke f.Fault.Cell.repro with
          | Ok (_, k) ->
            Alcotest.(check bool)
              (Printf.sprintf "failure names a planted cell (case %d)" (s.case k))
              true
              (List.mem (s.case k) [ 2; 3 ]);
            Alcotest.(check bool) "repro coordinates round-trip" true
              (List.mem k cells)
          | Error e -> Alcotest.failf "repro failed to parse: %s" e)
        o.Fault.Cell.failures;
      let messages =
        List.map (fun (f : Fault.Cell.failure) -> f.Fault.Cell.message)
          o.Fault.Cell.failures
      in
      Alcotest.(check bool) "crash message survives" true
        (List.exists (contains ~needle:"deliberate crash") messages);
      Alcotest.(check bool) "timeout reported as such" true
        (List.exists (contains ~needle:"timed out") messages))
    sweeps

let suites =
  let tc = Alcotest.test_case in
  [
    ( "par:pool",
      [
        tc "results come back in input order" `Quick test_order_preserved;
        tc "empty input" `Quick test_empty_input;
        tc "more workers than items" `Quick test_more_jobs_than_items;
        tc "raised exception becomes a structured error" `Quick
          test_worker_exception;
        tc "worker crash is isolated" `Quick test_worker_crash;
        tc "wedged worker is killed on timeout" `Quick test_timeout_kill;
        tc "parallel results equal sequential" `Quick
          test_parallel_equals_sequential;
        tc "progress hooks fire once per item" `Quick test_progress_hooks;
      ] );
    ( "par:sweeps",
      List.map
        (fun ((label, _, _) as sw) ->
          tc (label ^ " sweep is jobs-invariant") `Quick
            (test_sweep_jobs_invariant sw))
        sweeps
      @ List.map
          (fun ((label, _, _) as sw) ->
            tc (label ^ " cells are order-independent") `Quick
              (test_cell_order_independent sw))
          sweeps
      @ [
          tc "crashing and wedged cells degrade to repro failures" `Quick
            test_sweep_survives_crashing_cells;
        ] );
  ]
