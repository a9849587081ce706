(* Metric values and their JSON form.  A metric whose denominator is
   zero is absent with a reason, never a number floored at epsilon. *)

type clock = Sim | Host

type value = Num of float | Absent of string

type metric = {
  name : string;
  unit_ : string;
  clock : clock;
  value : value;
  samples : int option;  (* sample count beside a percentile or mean *)
}

let metric ?samples ~clock name unit_ value = { name; unit_; clock; value; samples }

let ratio ~why num den = if den > 0. then Num (num /. den) else Absent why

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array, [p] in [0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (r - 1)))

let min_percentile_samples = 1000

let pct ?none ~clock name a p =
  let n = Array.length a in
  let value =
    match none with
    | Some why when n = 0 -> Absent why
    | _ when n < min_percentile_samples ->
      Absent (Printf.sprintf "%d samples, fewer than %d" n min_percentile_samples)
    | _ -> Num (percentile (sorted a) p)
  in
  metric ~samples:n ~clock name "ms" value

let mean ~clock ~why name unit_ a =
  let n = Array.length a in
  metric ~samples:n ~clock name unit_
    (ratio ~why (Array.fold_left ( +. ) 0. a) (float_of_int n))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = Printf.sprintf "%.17g" x

let json_object fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let metric_json m =
  json_object
    ((match m.value with
     | Num x -> [ ("value", json_float x) ]
     | Absent why -> [ ("value", "null"); ("absent", json_string why) ])
    @ [
        ("unit", json_string m.unit_);
        ("clock", json_string (match m.clock with Sim -> "sim" | Host -> "host"));
      ]
    @ match m.samples with Some n -> [ ("samples", string_of_int n) ] | None -> [])

let metrics_json ms = json_object (List.map (fun m -> (m.name, metric_json m)) ms)
