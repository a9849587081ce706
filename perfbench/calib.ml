(* Calibrated host time.  The host a benchmark runs on may change speed
   by tens of percent within seconds (shared cores, noisy neighbours),
   which would swamp a change to the simulator itself.  So a timed phase
   is cut into chunks of about [chunk_s], and around each chunk a fixed
   reference kernel is timed.  The chunk's host time is rescaled by how
   much slower or faster than [kernel_nominal_s] the kernel ran around
   it.  The kernel shares no code with the simulator and allocates
   nothing, so neither a change to the simulator nor the simulator's heap
   moves it.  Of the kernels tried (L2-resident arithmetic, 4 KB block
   copies, hash-table lookups), lookups in a table of a few MB tracked the
   simulator's speed best.  Raw host seconds are kept alongside. *)

let now = Probe.host_now

let table_size = 1 lsl 16
let table = Hashtbl.create table_size
let () = for i = 0 to table_size - 1 do Hashtbl.replace table (i * 7919) i done

let kernel () =
  let h = ref 5 and s = ref 0 in
  for _ = 1 to 5_000 do
    h := (!h * 1103515245) + 12345;
    s := !s + Hashtbl.find table (((!h lsr 9) land (table_size - 1)) * 7919)
  done;
  ignore (Sys.opaque_identity !s)

(* The kernel's time on a quiet host of the kind the benchmark was set up
   on: it fixes the unit, so calibrated and raw seconds agree there. *)
let kernel_nominal_s = 1e-3

let time_kernel () =
  let t0 = now () in
  kernel ();
  now () -. t0

type t = {
  mutable last : float;  (* host time the current chunk started *)
  mutable kernel_s : float;  (* kernel time measured before the chunk *)
  mutable raw_s : float;
  mutable cal_s : float;
}

let start () =
  let kernel_s = time_kernel () in
  { last = now (); kernel_s; raw_s = 0.; cal_s = 0. }

(* Close the current chunk, time the kernel, open the next chunk. *)
let tick t =
  let chunk = now () -. t.last in
  let k = time_kernel () in
  t.raw_s <- t.raw_s +. chunk;
  t.cal_s <- t.cal_s +. (chunk *. kernel_nominal_s /. ((t.kernel_s +. k) /. 2.));
  t.kernel_s <- k;
  t.last <- now ()

let chunk_s = 0.05
let maybe_tick t = if now () -. t.last >= chunk_s then tick t
