(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] record
   field boxes on every store without flambda, which cost 6-8 minor
   words per draw.  [next_int64] and [mix] are inlined into the draws, so
   [int]/[bool]/[float_bits] keep the whole computation in registers. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let x = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  x mod bound

let float_bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

(* 53 high-quality bits -> uniform in [0, 1) *)
let float t = Float.of_int (float_bits t) *. 0x1p-53

let bool t = Int64.logand (next_int64 t) 1L = 1L
let coin t = if bool t then 1 else 0

let split t =
  let s = next_int64 t in
  create (mix s)
