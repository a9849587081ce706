type t = int64

let empty = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let add_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* The bulk paths keep the hash in a local [ref]: it never escapes, so
   ocamlopt holds it unboxed in a register, and each step is one xor and
   one 64-bit multiply (wrapping mod 2^64, as FNV-1a specifies). *)
let add_sub_bytes h buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Checksum.add_sub_bytes";
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get buf i)))) prime
  done;
  !h

let add_bytes h buf = add_sub_bytes h buf ~pos:0 ~len:(Bytes.length buf)

(* FNV-1a consuming the region as little-endian 64-bit words (trailing
   bytes one at a time): the same prime and update rule, but one step
   per word, so a block digest costs 1/8th of the byte walk.  Values
   differ from [add_sub_bytes] over the same region — the two are
   distinct checksums.  Detection is no weaker for the block use case:
   each step h -> (h xor w) * prime is a bijection of the accumulator
   for fixed input, so any single corrupted word changes the final
   value deterministically, and multi-word corruption survives only by
   the same 2^-64 accident as under the byte walk.

   The region is bounds-checked once up front; each word is then one
   unchecked native load, byte-swapped on big-endian hosts so the
   digest is the same everywhere. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let add_words h buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Checksum.add_words";
  let h = ref h in
  let n_words = len / 8 in
  for w = 0 to n_words - 1 do
    let raw = get64u buf (pos + (w * 8)) in
    let word = if Sys.big_endian then bswap64 raw else raw in
    h := Int64.mul (Int64.logxor !h word) prime
  done;
  for i = pos + (n_words * 8) to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get buf i)))) prime
  done;
  !h

let add_string h s =
  let h = ref h in
  String.iter (fun c -> h := add_byte !h (Char.code c)) s;
  !h

let add_int h x =
  let h = ref h in
  for shift = 0 to 7 do
    h := add_byte !h ((x lsr (shift * 8)) land 0xff)
  done;
  !h

let add_int64 h x =
  let h = ref h in
  for shift = 0 to 7 do
    h := add_byte !h (Int64.to_int (Int64.shift_right_logical x (shift * 8)))
  done;
  !h

let bytes buf = add_bytes empty buf
let string s = add_string empty s
let to_hex t = Printf.sprintf "%016Lx" t
