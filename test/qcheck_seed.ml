(* Every QCheck property in the suite runs through [to_alcotest], so one
   seed drives them all and a failing or slow-shrinking property can be
   replayed with [QCHECK_SEED=N].  The seed is printed to stderr as the
   property starts, not after it fails: a shrink that takes minutes
   still names its seed at once. *)

let seed =
  lazy
    (match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
    | Some s -> s
    | None ->
      Random.self_init ();
      Random.int 1_000_000_000)

let to_alcotest test =
  let seed = Lazy.force seed in
  (* A fresh state per property, as QCheck_alcotest's own default makes. *)
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  ( name,
    speed,
    fun () ->
      Printf.eprintf "qcheck seed %d\n%!" seed;
      run () )
