open Vlog_util

type profile = {
  size_bytes : int;
  read_latency_ms : float;
  write_latency_ms : float;
  bandwidth_bytes_per_ms : float;
  persist_latency_ms : float;
  volatile_front_bytes : int;
}

let default_profile =
  {
    size_bytes = 8 * 1024 * 1024;
    read_latency_ms = 0.0003;
    write_latency_ms = 0.0007;
    bandwidth_bytes_per_ms = 2_000_000.;
    persist_latency_ms = 0.0005;
    volatile_front_bytes = 16 * 1024;
  }

type persist_fault = Torn_persist of int | Cut_before_persist
type injector = { on_persist : pending_bytes:int -> persist_fault option }

type stats = {
  nvm_reads : int;
  nvm_writes : int;
  bytes_read : int;
  bytes_written : int;
  persists : int;
  auto_drains : int;
}

type t = {
  profile : profile;
  clock : Clock.t;
  trace : Trace.sink;
  merged : Bytes.t;  (* what loads observe: front applied over media *)
  persisted : Bytes.t;  (* what survives a power cut *)
  front : (int * int) Queue.t;  (* stores not yet persisted, oldest first: (off, len) *)
  mutable ring : Bytes.t;
      (* the front's bytes in store order, wrapping, the oldest entry's
         from [head]: a store is copied in here once and blitted out to
         the media when it persists *)
  mutable head : int;
  mutable front_bytes : int;
  mutable injector : injector option;
  mutable nvm_reads : int;
  mutable nvm_writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable persists : int;
  mutable auto_drains : int;
}

let create ?(profile = default_profile) ?image ?(trace = Trace.null) ~clock () =
  let persisted =
    match image with
    | None -> Bytes.make profile.size_bytes '\000'
    | Some img ->
      if Bytes.length img <> profile.size_bytes then
        invalid_arg "Nvm_sim.create: image size does not match profile";
      Bytes.copy img
  in
  {
    profile;
    clock;
    trace;
    merged = Bytes.copy persisted;
    persisted;
    front = Queue.create ();
    ring = Bytes.create (max 1 profile.volatile_front_bytes);
    head = 0;
    front_bytes = 0;
    injector = None;
    nvm_reads = 0;
    nvm_writes = 0;
    bytes_read = 0;
    bytes_written = 0;
    persists = 0;
    auto_drains = 0;
  }

let profile t = t.profile
let clock t = t.clock
let size t = t.profile.size_bytes
let set_injector t i = t.injector <- i
let pending_bytes t = t.front_bytes

let stats t =
  {
    nvm_reads = t.nvm_reads;
    nvm_writes = t.nvm_writes;
    bytes_read = t.bytes_read;
    bytes_written = t.bytes_written;
    persists = t.persists;
    auto_drains = t.auto_drains;
  }

let transfer_ms t len = float_of_int len /. t.profile.bandwidth_bytes_per_ms

let check_range t ~off ~len op =
  if off < 0 || len < 0 || off + len > t.profile.size_bytes then
    invalid_arg (Printf.sprintf "Nvm_sim.%s: [%d, %d) out of range" op off (off + len))

let read_into t ~off ~len dst ~pos =
  check_range t ~off ~len "read";
  if pos < 0 || pos + len > Bytes.length dst then
    invalid_arg "Nvm_sim.read_into: destination too small";
  Clock.advance t.clock (t.profile.read_latency_ms +. transfer_ms t len);
  t.nvm_reads <- t.nvm_reads + 1;
  t.bytes_read <- t.bytes_read + len;
  Bytes.blit t.merged off dst pos len

(* Blit the first [len] front bytes (the oldest entry's, from [head])
   to [dst] at [pos]: two blits when they wrap past the end of the ring. *)
let ring_out t ~len dst ~pos =
  let cap = Bytes.length t.ring in
  let first = min len (cap - t.head) in
  Bytes.blit t.ring t.head dst pos first;
  Bytes.blit t.ring 0 dst (pos + first) (len - first)

(* Make room for a [len]-byte store.  The ring starts at the front's
   capacity; the first store that overflows it doubles it (once, for a
   fixed store size), copying the live bytes in order to the start. *)
let reserve t len =
  let cap = Bytes.length t.ring in
  if t.front_bytes + len > cap then begin
    let cap' = ref (2 * cap) in
    while t.front_bytes + len > !cap' do
      cap' := 2 * !cap'
    done;
    let ring = Bytes.create !cap' in
    ring_out t ~len:t.front_bytes ring ~pos:0;
    t.ring <- ring;
    t.head <- 0
  end

(* Persist the oldest front entry unconditionally (ADR overflow drain:
   once a store is pushed out of the write-pending queue it has reached
   the persistence domain whether or not anyone fenced). *)
let drain_oldest t =
  match Queue.take_opt t.front with
  | None -> ()
  | Some (off, len) ->
    ring_out t ~len t.persisted ~pos:off;
    t.head <- (t.head + len) mod Bytes.length t.ring;
    t.front_bytes <- t.front_bytes - len

let write t ~off payload =
  let len = Bytes.length payload in
  check_range t ~off ~len "write";
  Clock.advance t.clock (t.profile.write_latency_ms +. transfer_ms t len);
  Bytes.blit payload 0 t.merged off len;
  reserve t len;
  let cap = Bytes.length t.ring in
  let tail = (t.head + t.front_bytes) mod cap in
  let first = min len (cap - tail) in
  Bytes.blit payload 0 t.ring tail first;
  Bytes.blit payload first t.ring 0 (len - first);
  Queue.add (off, len) t.front;
  t.front_bytes <- t.front_bytes + len;
  t.nvm_writes <- t.nvm_writes + 1;
  t.bytes_written <- t.bytes_written + len;
  while t.front_bytes > t.profile.volatile_front_bytes do
    drain_oldest t;
    t.auto_drains <- t.auto_drains + 1
  done

(* Apply the oldest [budget] bytes of the front to the media: whole
   entries while they fit, then a byte prefix of the first entry that
   does not — a torn persist tears inside one store, exactly like a torn
   sector write tears inside one request. *)
let apply_prefix t budget =
  let left = ref budget in
  let stop = ref false in
  while (not !stop) && not (Queue.is_empty t.front) do
    let off, len = Queue.peek t.front in
    if len <= !left then begin
      drain_oldest t;
      left := !left - len
    end
    else begin
      ring_out t ~len:!left t.persisted ~pos:off;
      stop := true
    end
  done

let persist t =
  (match t.injector with
  | Some i -> (
    match i.on_persist ~pending_bytes:t.front_bytes with
    | Some Cut_before_persist -> raise Disk.Disk_sim.Power_cut
    | Some (Torn_persist n) ->
      apply_prefix t (max 0 n);
      raise Disk.Disk_sim.Power_cut
    | None -> ())
  | None -> ());
  Clock.advance t.clock t.profile.persist_latency_ms;
  while not (Queue.is_empty t.front) do
    drain_oldest t
  done;
  t.persists <- t.persists + 1;
  Trace.incr t.trace "nvm.persists"

let snapshot t = Bytes.copy t.persisted
