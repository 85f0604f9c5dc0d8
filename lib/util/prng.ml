(* The xoshiro256** state is four 64-bit words at byte offsets 0, 8, 16 and
   24, and [step] leaves each draw at offset 32.  The unboxed [int64]
   primitives read and write them, so a draw boxes nothing: a record of
   [int64] fields would box each word it writes. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64 is used only to spread a small seed over the 256-bit state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.make 40 '\000' in
  set t 0 (splitmix64 state);
  set t 8 (splitmix64 state);
  set t 16 (splitmix64 state);
  set t 24 (splitmix64 state);
  t

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let step t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  set t 32 (mul (rotl (mul s1 5L) 7) 9L);
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 (rotl s3 45)

let bits64 t =
  step t;
  get t 32

let split t =
  step t;
  create ~seed:(Int64.to_int (get t 32))

(* Rejection sampling over the low 62 bits keeps the draw unbiased. *)
let int t bound =
  assert (bound > 0);
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let v = ref (-1) in
  while !v < 0 do
    step t;
    let r = Int64.to_int (get t 32) land mask in
    let x = r mod bound in
    if r - x <= mask - bound + 1 then v := x
  done;
  !v

let float t bound =
  step t;
  let r = Int64.to_float (Int64.shift_right_logical (get t 32) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t =
  step t;
  Int64.to_int (get t 32) land 1 = 1

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u <= 0.0 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let exponential t ~mean =
  let rec nonzero () =
    let u = float t 1.0 in
    if u <= 0.0 then nonzero () else u
  in
  -.mean *. log (nonzero ())

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
