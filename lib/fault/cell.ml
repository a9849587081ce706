type coords = (string * string) list

let repro coords =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) coords)

type fields = string -> string

let typed what conv (get : fields) key =
  let v = get key in
  match conv v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "bad %s %S (want %s)" key v what)

let int = typed "an integer" int_of_string_opt

let pos_int =
  typed "a positive integer" (fun v ->
      match int_of_string_opt v with Some n when n > 0 -> Some n | _ -> None)

let int64 = typed "an integer" Int64.of_string_opt
let bool = typed "true|false" bool_of_string_opt

type judgement = {
  injected : bool;
  loss : bool;
  counters : (string * int) list;
  violations : string list;
}

type failure = { repro : string; message : string }

let pp_failure ppf f = Format.fprintf ppf "%s (--repro %s)" f.message f.repro

type outcome = {
  cells : int;
  injected : int;
  counters : (string * int) list;
  verdicts : (string * string) list;
  failures : failure list;
}

let count (o : outcome) name =
  Option.value (List.assoc_opt name o.counters) ~default:0

(* Counters add by name; [a] fixes the order (the sweep's zero lists
   every declared counter). *)
let merge a b =
  {
    cells = a.cells + b.cells;
    injected = a.injected + b.injected;
    counters = List.map (fun (k, n) -> (k, n + count b k)) a.counters;
    verdicts = a.verdicts @ b.verdicts;
    failures = a.failures @ b.failures;
  }

type ('cfg, 'cell) t = {
  keys : string list;
  counters : string list;
  cells : 'cfg -> 'cell list;
  coords : 'cfg -> 'cell -> coords;
  decode : 'cfg -> fields -> ('cfg * 'cell, string) result;
  run_cell : 'cfg -> 'cell -> judgement;
}

let parse sweep cfg spec =
  let rec collect seen = function
    | [] -> (
      match List.find_opt (fun k -> not (List.mem_assoc k seen)) sweep.keys with
      | Some k -> Error (Printf.sprintf "repro spec is missing %s=" k)
      | None -> Ok seen)
    | field :: rest -> (
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "malformed repro field %S" field)
      | Some i ->
        let k = String.sub field 0 i in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        if not (List.mem k sweep.keys) then
          Error (Printf.sprintf "unknown repro field %S" k)
        else if List.mem_assoc k seen then
          Error (Printf.sprintf "duplicate repro field %S" k)
        else collect ((k, v) :: seen) rest)
  in
  Result.bind (collect [] (String.split_on_char ',' spec)) (fun kvs ->
      sweep.decode cfg (fun k ->
          match List.assoc_opt k kvs with
          | Some v -> v
          | None -> invalid_arg ("Cell.parse: undeclared repro key " ^ k)))

let zero sweep =
  {
    cells = 0;
    injected = 0;
    counters = List.map (fun k -> (k, 0)) sweep.counters;
    verdicts = [];
    failures = [];
  }

let of_judgement sweep cfg cell (j : judgement) =
  let repro = repro (sweep.coords cfg cell) in
  let verdict =
    if j.violations <> [] then "failed" else if j.loss then "data-loss" else "ok"
  in
  merge (zero sweep)
    {
      cells = 1;
      injected = (if j.injected then 1 else 0);
      counters = j.counters;
      verdicts = [ (repro, verdict) ];
      failures = List.map (fun message -> { repro; message }) j.violations;
    }

let run_one sweep cfg cell = of_judgement sweep cfg cell (sweep.run_cell cfg cell)

(* A worker that died (crash, wedge, exception) degrades to a failed
   cell carrying the same repro string a judged failure would. *)
let run ?(jobs = 1) ?(timeout_s = 300.) ?cell sweep cfg =
  let body = Option.value cell ~default:sweep.run_cell in
  let cells = sweep.cells cfg in
  let crashed (e : Par.error) =
    {
      injected = false;
      loss = false;
      counters = [];
      violations = [ Par.reason_to_string e.Par.reason ];
    }
  in
  List.fold_left2
    (fun acc cell r ->
      let j = match r with Ok j -> j | Error e -> crashed e in
      merge acc (of_judgement sweep cfg cell j))
    (zero sweep) cells
    (Par.map ~timeout_s ~jobs (body cfg) cells)
