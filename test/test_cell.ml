(* The shared cell runner ([Fault.Cell]) over the three crash/fault
   matrices: every cell's repro string round-trips through the strict
   parser, malformed specs are refused (by the library and by the CLI,
   with exit 2), and a smoke cell replays from its printed repro string
   to exactly the outcome the smoke run gave it. *)

(* One crash/fault matrix, packed so the tests below can be
   table-driven over all three. *)
type sweep =
  | Sweep : {
      name : string;  (** the vlsim subcommand *)
      sweep : ('c, 'k) Fault.Cell.t;
      full : 'c;  (** the config [--repro] decodes over *)
      smoke : 'c;  (** a small slice of the same matrix *)
      reseed : 'c -> int64 -> 'c;
      unmatrixed : 'c -> 'c;  (** the config with its matrix axes cleared *)
      case : 'k -> int;
      spec : string;  (** a valid repro string *)
    }
      -> sweep

let fault =
  Sweep
    {
      name = "faults";
      sweep = Fault.Sweep.sweep;
      full = Fault.Sweep.default;
      smoke =
        {
          Fault.Sweep.default with
          Fault.Sweep.kinds = [ Fault.Plan.Torn_write; Fault.Plan.Power_cut ];
          triggers = 3;
        };
      reseed = (fun c seed -> { c with Fault.Sweep.seed });
      unmatrixed =
        (fun c -> { c with Fault.Sweep.kinds = []; triggers = 0; tail_modes = [] });
      case = (fun k -> k.Fault.Sweep.case);
      spec = "seed=7101,kind=torn,trigger=5,tail=true,case=37";
    }

let fs =
  Sweep
    {
      name = "fssweep";
      sweep = Check.Fs_sweep.sweep;
      full = Check.Fs_sweep.default;
      smoke = Check.Fs_sweep.smoke;
      reseed = (fun c seed -> { c with Check.Fs_sweep.seed });
      unmatrixed =
        (fun c ->
          {
            c with
            Check.Fs_sweep.triggers = [];
            kinds = [];
            rigs = [];
            vol_triggers = [];
            vol_kinds = [];
            vol_rigs = [];
            wal_triggers = [];
            wal_kinds = [];
            wal_rigs = [];
          });
      case = (fun k -> k.Check.Fs_sweep.case);
      spec = "rig=ufs/vld,seed=9203,kind=torn,trigger=5,case=37";
    }

let array =
  Sweep
    {
      name = "arraysweep";
      sweep = Check.Array_sweep.sweep;
      full = Check.Array_sweep.default;
      smoke = Check.Array_sweep.smoke;
      reseed = (fun c seed -> { c with Check.Array_sweep.seed });
      unmatrixed =
        (fun c ->
          {
            c with
            Check.Array_sweep.arrays = [];
            faults = [];
            depths = [];
            phases = [];
          });
      case = (fun k -> k.Check.Array_sweep.case);
      spec = "array=raid10,seed=9203,fault=death,depth=4,phase=rebuild,case=37";
    }

let all = [ fault; fs; array ]

(* Every coordinate in the full matrix must survive the repro print /
   parse cycle — keys in the declared order, seed included — or a cell
   cannot be reproduced from a CI failure line.  The matrix runs under a
   non-default seed so the seed field is exercised too. *)
let roundtrip (Sweep s) () =
  let cfg = s.reseed s.full 77L in
  List.iter
    (fun cell ->
      let coords = s.sweep.Fault.Cell.coords cfg cell in
      Alcotest.(check (list string))
        "keys in print order" s.sweep.Fault.Cell.keys (List.map fst coords);
      let spec = Fault.Cell.repro coords in
      match Fault.Cell.parse s.sweep s.full spec with
      | Error e -> Alcotest.failf "repro %S did not parse: %s" spec e
      | Ok (cfg', cell') ->
        if cell' <> cell || cfg' <> cfg then
          Alcotest.failf "repro %S did not roundtrip" spec)
    (s.sweep.Fault.Cell.cells cfg)

(* Misspelled keys, bare tokens, duplicate keys, missing keys and bad
   values are refused — by the parser, and by the CLI with exit 2. *)
let bad_specs spec =
  let fields = String.split_on_char ',' spec in
  let first = List.hd fields in
  let key = String.sub first 0 (String.index first '=') in
  [
    ("misspelled key", String.concat "," (("x" ^ first) :: List.tl fields));
    ("bare token", spec ^ ",junk");
    ("duplicate key", spec ^ "," ^ first);
    ("missing key", String.concat "," (List.tl fields));
    ("bad value", String.concat "," ((key ^ "=?") :: List.tl fields));
    ("empty spec", "");
  ]

(* The CLI next to this test binary in the build tree. *)
let vlsim =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/vlsim.exe"

let strict (Sweep s) () =
  (match Fault.Cell.parse s.sweep s.full s.spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid spec %S refused: %s" s.spec e);
  List.iter
    (fun (what, spec) ->
      (match Fault.Cell.parse s.sweep s.full spec with
      | Ok _ -> Alcotest.failf "%s accepted: %S" what spec
      | Error _ -> ());
      let rc =
        Sys.command
          (Printf.sprintf "%s %s --repro %s >/dev/null 2>&1" (Filename.quote vlsim)
             s.name (Filename.quote spec))
      in
      Alcotest.(check int) (Printf.sprintf "vlsim %s: %s exits 2" s.name what) 2 rc)
    (bad_specs s.spec)

(* A smoke cell must replay from its printed repro string: [--repro]
   decodes over the full config, so the smoke slice may differ from it
   only in matrix coordinates — and the replayed outcome must be the one
   the smoke run gave the cell. *)
let smoke_replays (Sweep s) () =
  List.iter
    (fun cell ->
      let ran = Fault.Cell.run_one s.sweep s.smoke cell in
      let spec = Fault.Cell.repro (s.sweep.Fault.Cell.coords s.smoke cell) in
      match Fault.Cell.parse s.sweep s.full spec with
      | Error e -> Alcotest.failf "repro %S did not parse: %s" spec e
      | Ok (cfg, cell') ->
        if s.unmatrixed cfg <> s.unmatrixed s.smoke then
          Alcotest.failf "cell %s: replay config differs from the smoke slice"
            spec;
        if Fault.Cell.run_one s.sweep cfg cell' <> ran then
          Alcotest.failf "cell %s: replay differs from the smoke run" spec)
    (s.sweep.Fault.Cell.cells s.smoke)

(* [roundtrip] runs in each sweep's own suite. *)
let suites =
  let tc = Alcotest.test_case in
  let per_sweep what f =
    List.map
      (fun (Sweep s as sw) -> tc (Printf.sprintf "%s %s" s.name what) `Quick (f sw))
      all
  in
  [
    ( "cell:repro",
      per_sweep "parser is strict" strict
      @ per_sweep "smoke cells replay" smoke_replays );
  ]
