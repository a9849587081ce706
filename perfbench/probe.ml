(* Host-clock probes the benchmark places at layer boundaries, from the
   outside: spans around its own calls into a file system or the volume,
   and a timing wrapper around every [Blockdev.Device.t] it hands to the
   layer above.  A span records its name, parent, foreground-op id, and
   host and simulated start/end.  Nothing here touches the simulated
   clock, so a probed rig computes bit-identical simulated results. *)

open Vlog_util

let host_now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  op : int;  (* foreground op id; -1 inside idle windows *)
  name : string;
  h0 : float;  (* host seconds *)
  mutable h1 : float;
  s0 : float;  (* simulated ms *)
  mutable s1 : float;
  mutable child_h : float;  (* host seconds covered by child spans *)
}

(* Totals of one boundary in one phase. *)
type agg = {
  mutable calls : int;
  mutable host : float;  (* inclusive host seconds *)
  mutable self : float;  (* host seconds not covered by child spans *)
  mutable write_reqs : int;  (* requests, counted where they are issued *)
  mutable read_reqs : int;
  mutable write_blocks : int;  (* blocks, counted where they are serviced *)
  mutable read_blocks : int;
  mutable write_host : float;  (* host seconds spent servicing writes *)
  mutable read_host : float;
}

type point = { layer : string; name : string; fg : agg; bg : agg }

type t = {
  clock : Clock.t;
  mutable recording : bool;
  mutable idle : bool;  (* inside an idle window: totals go to [bg] *)
  mutable op : int;
  mutable stack : span list;
  mutable spans : span list;  (* closed spans, newest first *)
  mutable next_id : int;
  mutable points : point list;
  named : (string, point) Hashtbl.t;
}

let create ~clock =
  {
    clock;
    recording = false;
    idle = false;
    op = -1;
    stack = [];
    spans = [];
    next_id = 0;
    points = [];
    named = Hashtbl.create 16;
  }

let new_agg () =
  {
    calls = 0;
    host = 0.;
    self = 0.;
    write_reqs = 0;
    read_reqs = 0;
    write_blocks = 0;
    read_blocks = 0;
    write_host = 0.;
    read_host = 0.;
  }

let point t ~layer name =
  let p = { layer; name = layer ^ "." ^ name; fg = new_agg (); bg = new_agg () } in
  t.points <- p :: t.points;
  p

(* The point of a benchmark-side span, made on first use. *)
let named t ~layer name =
  let key = layer ^ "." ^ name in
  match Hashtbl.find_opt t.named key with
  | Some p -> p
  | None ->
    let p = point t ~layer name in
    Hashtbl.add t.named key p;
    p

let agg t p = if t.idle then p.bg else p.fg

(* Run [f] inside a span at [p]; returns its result and host duration. *)
let timed t p f =
  if not t.recording then (f (), 0.)
  else begin
    let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
    let s =
      {
        id = t.next_id;
        parent;
        op = t.op;
        name = p.name;
        h0 = host_now ();
        h1 = 0.;
        s0 = Clock.now t.clock;
        s1 = 0.;
        child_h = 0.;
      }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- s :: t.stack;
    let finish () =
      s.h1 <- host_now ();
      s.s1 <- Clock.now t.clock;
      (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
      let dur = s.h1 -. s.h0 in
      (match t.stack with up :: _ -> up.child_h <- up.child_h +. dur | [] -> ());
      let a = agg t p in
      a.calls <- a.calls + 1;
      a.host <- a.host +. dur;
      a.self <- a.self +. (dur -. s.child_h);
      t.spans <- s :: t.spans;
      dur
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let span t p f = fst (timed t p f)

let in_idle t f =
  t.idle <- true;
  t.op <- -1;
  Fun.protect ~finally:(fun () -> t.idle <- false) f

let start t =
  t.recording <- true;
  t.spans <- []

let stop t = t.recording <- false

(* Sum [f] over every point of [layer] ([""] for all) in the phase. *)
let sum ?(phase = `All) t ~layer f =
  List.fold_left
    (fun acc p ->
      if layer <> "" && p.layer <> layer then acc
      else
        match phase with
        | `Fg -> acc +. f p.fg
        | `Bg -> acc +. f p.bg
        | `All -> acc +. f p.fg +. f p.bg)
    0. t.points

let calls ?phase t ~layer = int_of_float (sum ?phase t ~layer (fun a -> float_of_int a.calls))

(* The timing wrapper: every closure of the record is forwarded, and each
   call is counted once at its own point.  The raising wrappers file
   systems use reach a device through [submit] + [drain], so a request
   is counted where it is issued ([submit], [read*], [write*]) and its
   blocks where they are serviced: the [drain] that services queued
   requests splits its host time between reads and writes by their
   blocks. *)
let wrap t ~layer (d : Blockdev.Device.t) : Blockdev.Device.t =
  let pt = point t ~layer in
  let p_read = pt "read"
  and p_read_run = pt "read_run"
  and p_write = pt "write"
  and p_write_run = pt "write_run"
  and p_submit = pt "submit"
  and p_poll = pt "poll"
  and p_drain = pt "drain"
  and p_trim = pt "trim"
  and p_idle = pt "idle"
  and p_util = pt "utilization" in
  let blocks buf = Bytes.length buf / d.block_bytes in
  let pending_w = ref 0 and pending_r = ref 0 in
  let request p req =
    if t.recording then begin
      let a = agg t p in
      match req with
      | `W -> a.write_reqs <- a.write_reqs + 1
      | `R -> a.read_reqs <- a.read_reqs + 1
    end
  in
  let credit p ~w ~r dur =
    if t.recording then begin
      let a = agg t p in
      a.write_blocks <- a.write_blocks + w;
      a.read_blocks <- a.read_blocks + r;
      if w + r > 0 then begin
        let share = float_of_int w /. float_of_int (w + r) in
        a.write_host <- a.write_host +. (dur *. share);
        a.read_host <- a.read_host +. (dur *. (1. -. share))
      end
    end
  in
  let io p ~w ~r f =
    let v, dur = timed t p f in
    credit p ~w ~r dur;
    v
  in
  {
    d with
    read =
      (fun b ->
        request p_read `R;
        io p_read ~w:0 ~r:1 (fun () -> d.read b));
    read_run =
      (fun b n ->
        request p_read_run `R;
        io p_read_run ~w:0 ~r:n (fun () -> d.read_run b n));
    write =
      (fun b buf ->
        request p_write `W;
        io p_write ~w:(blocks buf) ~r:0 (fun () -> d.write b buf));
    write_run =
      (fun b buf ->
        request p_write_run `W;
        io p_write_run ~w:(blocks buf) ~r:0 (fun () -> d.write_run b buf));
    submit =
      (fun req ->
        (match req with
        | Blockdev.Device.Read _ ->
          request p_submit `R;
          incr pending_r
        | Read_run (_, n) ->
          request p_submit `R;
          pending_r := !pending_r + n
        | Write (_, buf) | Write_run (_, buf) ->
          request p_submit `W;
          pending_w := !pending_w + blocks buf);
        span t p_submit (fun () -> d.submit req));
    poll = (fun () -> span t p_poll (fun () -> d.poll ()));
    drain =
      (fun () ->
        let w = !pending_w and r = !pending_r in
        pending_w := 0;
        pending_r := 0;
        io p_drain ~w ~r (fun () -> d.drain ()));
    trim = (fun b -> span t p_trim (fun () -> d.trim b));
    idle = (fun dt -> span t p_idle (fun () -> d.idle dt));
    utilization = (fun () -> span t p_util (fun () -> d.utilization ()));
  }

let write_spans t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"host_start_s\":%.9f,\"host_end_s\":%.9f,\"sim_start_ms\":%.17g,\"sim_end_ms\":%.17g}\n"
        s.id s.parent s.op s.name s.h0 s.h1 s.s0 s.s1)
    (List.rev t.spans);
  close_out oc
