open Models

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

(* ---- Track model ---- *)

let test_closed_form_values () =
  (* E(n,k) = (n-k)/(1+k) *)
  close "all free" 0. (Track_model.expected_skips ~n:72 ~k:72);
  close "one free" (71. /. 2.) (Track_model.expected_skips ~n:72 ~k:1);
  close "half" (36. /. 37.) (Track_model.expected_skips ~n:72 ~k:36)

let test_closed_form_matches_recurrence () =
  for k = 1 to 72 do
    close ~eps:1e-9 "E(n,k)"
      (Track_model.exact_expected_skips ~n:72 ~k)
      (Track_model.expected_skips ~n:72 ~k)
  done

let test_formula1_80pct () =
  (* "even at a relatively high utilization of 80%, we can expect to incur
     only a four-sector rotational delay" (n large). *)
  let v = Track_model.expected_skips_p ~n:256 ~p:0.2 in
  Alcotest.(check bool) "about four" true (v > 3. && v < 4.5)

let test_formula1_translates_to_us () =
  (* For today's (1998) disks this is under 100 us. *)
  let ms = Track_model.locate_ms Disk.Profile.st19101 ~p:0.2 in
  Alcotest.(check bool) "under 100us" true (ms < 0.1)

let test_multi_block_lowest_when_matched () =
  (* Formula (9): latency lowest when physical block = logical block. *)
  let n = 256 and p = 0.5 and logical = 8 in
  let matched = Track_model.multi_block_skips ~n ~p ~physical:8 ~logical in
  List.iter
    (fun physical ->
      let v = Track_model.multi_block_skips ~n ~p ~physical ~logical in
      Alcotest.(check bool) "matched best" true (matched <= v))
    [ 1; 2; 4 ]

let test_track_model_monotone_in_p () =
  let prev = ref infinity in
  List.iter
    (fun p ->
      let v = Track_model.expected_skips_p ~n:72 ~p in
      Alcotest.(check bool) "decreasing" true (v <= !prev);
      prev := v)
    [ 0.05; 0.1; 0.2; 0.4; 0.6; 0.8; 1.0 ]

let test_track_model_bounds_errors () =
  Alcotest.check_raises "bad k"
    (Invalid_argument "Track_model.expected_skips: need 0 <= k <= n") (fun () ->
      ignore (Track_model.expected_skips ~n:10 ~k:11))

(* ---- Cylinder model ---- *)

(* Formula (2) builds on the geometric fx of formula (3), i.e. the
   infinite-track approximation of formula (1), whose expectation is
   (1-p)/p.  That is the baseline the cylinder model must improve on. *)
let geometric_mean p = (1. -. p) /. p

let test_cylinder_beats_track () =
  (* Extra surfaces can only help. *)
  List.iter
    (fun p ->
      let single = geometric_mean p in
      let cyl =
        Cylinder_model.expected_locate_sectors ~n:72 ~tracks:19 ~head_switch_sectors:12. ~p
      in
      Alcotest.(check bool) "cylinder <= track" true (cyl <= single +. 1e-6))
    [ 0.02; 0.05; 0.1; 0.3; 0.7 ]

let test_cylinder_reduces_to_track_when_single () =
  List.iter
    (fun p ->
      (* With one track there is no other surface to switch to; the
         min(x,y) expectation must equal the plain geometric mean when the
         switch can never win. *)
      let cyl =
        Cylinder_model.expected_locate_sectors ~n:72 ~tracks:1 ~head_switch_sectors:1e9 ~p
      in
      close ~eps:0.05 "reduces" (geometric_mean p) cyl)
    [ 0.1; 0.4; 0.8 ]

let test_cylinder_monotone_in_p () =
  let prev = ref infinity in
  List.iter
    (fun p ->
      let v =
        Cylinder_model.expected_locate_sectors ~n:256 ~tracks:16 ~head_switch_sectors:21. ~p
      in
      Alcotest.(check bool) "decreasing in p" true (v <= !prev +. 1e-9);
      prev := v)
    [ 0.02; 0.05; 0.1; 0.2; 0.4; 0.8 ]

let test_cylinder_model_beats_half_rotation () =
  (* Figure 1's promise: far better than the half-rotation of update in
     place, especially at lower utilizations. *)
  let ms = Cylinder_model.locate_ms Disk.Profile.st19101 ~p:0.5 in
  Alcotest.(check bool) "beats 3ms" true (ms < Disk.Profile.half_rotation_ms Disk.Profile.st19101 /. 4.)

(* ---- Compactor model ---- *)

let test_compactor_sum_form_simple () =
  (* n=2, m=1: a single write into a fresh track, then switch.
     sum_{i=2}^{2} (2-i)/(1+i) = 0, so latency = s / 1. *)
  close "simple" 2.5 (Compactor_model.average_latency_sum ~n:2 ~m:1 ~s:2.5 ~r:0.1)

let test_compactor_sum_vs_closed () =
  (* The closed form approximates the sum with the correction; they should
     be in the same ballpark for the paper's disks at sane thresholds. *)
  List.iter
    (fun m ->
      let s = 0.5 and r = 6. /. 256. in
      let sum = Compactor_model.average_latency_sum ~n:256 ~m ~s ~r in
      let closed = Compactor_model.average_latency_closed ~n:256 ~m ~s ~r in
      Alcotest.(check bool)
        (Printf.sprintf "ballpark m=%d (sum %.3f closed %.3f)" m sum closed)
        true
        (closed >= sum *. 0.5 && closed <= sum *. 4.))
    [ 32; 64; 128; 192 ]

let test_compactor_has_interior_optimum () =
  (* Too-frequent and too-rare switching both lose (Figure 2's U shape). *)
  let p = Disk.Profile.st19101 in
  let lat thr = Compactor_model.latency_ms p ~threshold:thr in
  let opt = Compactor_model.optimal_threshold p in
  Alcotest.(check bool) "interior" true (opt > 0.02 && opt < 0.98);
  Alcotest.(check bool) "beats extremes" true
    (lat opt <= lat 0.02 && lat opt <= lat 0.95)

let test_compactor_epsilon_positive () =
  List.iter
    (fun (n, m) ->
      Alcotest.(check bool) "eps >= 0" true (Compactor_model.epsilon ~n ~m >= 0.))
    [ (72, 0); (72, 18); (72, 54); (256, 0); (256, 64); (256, 192) ]

let test_compactor_bounds () =
  Alcotest.check_raises "bad m" (Invalid_argument "Compactor_model: need 0 <= m < n")
    (fun () -> ignore (Compactor_model.average_latency_sum ~n:10 ~m:10 ~s:1. ~r:1.))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"track model nonnegative and bounded by n" ~count:300
      (pair (int_range 1 300) (float_range 0.01 1.))
      (fun (n, p) ->
        let v = Track_model.expected_skips_p ~n ~p in
        v >= 0. && v <= float_of_int n);
    Test.make ~name:"E(n,k) decreasing in k" ~count:300
      (pair (int_range 2 200) (int_range 0 198))
      (fun (n, k) ->
        let k = min k (n - 1) in
        Track_model.expected_skips ~n ~k >= Track_model.expected_skips ~n ~k:(k + 1));
    Test.make ~name:"compactor sum positive" ~count:200
      (pair (int_range 2 256) (int_range 0 254))
      (fun (n, m) ->
        let m = min m (n - 1) in
        Compactor_model.average_latency_sum ~n ~m ~s:0.5 ~r:0.02 > 0.);
  ]

let suites =
  [
    ( "models:track",
      [
        Alcotest.test_case "closed form values" `Quick test_closed_form_values;
        Alcotest.test_case "matches recurrence" `Quick test_closed_form_matches_recurrence;
        Alcotest.test_case "80% utilization ~ 4 sectors" `Quick test_formula1_80pct;
        Alcotest.test_case "under 100us on new disk" `Quick test_formula1_translates_to_us;
        Alcotest.test_case "multi-block lowest when matched" `Quick test_multi_block_lowest_when_matched;
        Alcotest.test_case "monotone in p" `Quick test_track_model_monotone_in_p;
        Alcotest.test_case "bounds" `Quick test_track_model_bounds_errors;
      ] );
    ( "models:cylinder",
      [
        Alcotest.test_case "beats single track" `Quick test_cylinder_beats_track;
        Alcotest.test_case "reduces to track" `Quick test_cylinder_reduces_to_track_when_single;
        Alcotest.test_case "monotone in p" `Quick test_cylinder_monotone_in_p;
        Alcotest.test_case "beats half rotation" `Quick test_cylinder_model_beats_half_rotation;
      ] );
    ( "models:compactor",
      [
        Alcotest.test_case "sum form simple" `Quick test_compactor_sum_form_simple;
        Alcotest.test_case "sum vs closed ballpark" `Quick test_compactor_sum_vs_closed;
        Alcotest.test_case "interior optimum" `Quick test_compactor_has_interior_optimum;
        Alcotest.test_case "epsilon positive" `Quick test_compactor_epsilon_positive;
        Alcotest.test_case "bounds" `Quick test_compactor_bounds;
      ] );
    ("models:properties", List.map Qcheck_seed.to_alcotest qcheck_tests);
  ]
