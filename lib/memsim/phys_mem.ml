(* Demand-zero storage, as a pagefile-backed section is zero-filled on first
   touch: the region is an array of fixed granules that all alias [zero]
   until their first store gives them their own bytes. *)

let granule_bits = 12
let granule = 1 lsl granule_bits
let granule_mask = granule - 1

(* Shared by every region and never written: all stores go through
   [writable]. *)
let zero = Bytes.make granule '\000'

type t = { size : int; granules : bytes array }

let create size =
  if size < 0 then invalid_arg "Phys_mem.create: negative size";
  { size; granules = Array.make ((size + granule - 1) lsr granule_bits) zero }

let size t = t.size

let out_of_range t off len =
  invalid_arg
    (Printf.sprintf "Phys_mem: access [%d, %d) outside region of %d bytes" off (off + len)
       t.size)

let check t off len = if off < 0 || len < 0 || off + len > t.size then out_of_range t off len

(* The granule with index [g], materialized by its first store. *)
let writable t g =
  let b = t.granules.(g) in
  if b != zero then b
  else begin
    let b = Bytes.make granule '\000' in
    t.granules.(g) <- b;
    b
  end

(* Unchecked copies between [\[off, off + Bytes.length b)] and [b], one
   granule piece at a time. *)
let copy_out t off b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let p = off + !pos in
    let o = p land granule_mask in
    let n = Int.min (granule - o) (len - !pos) in
    Bytes.blit t.granules.(p lsr granule_bits) o b !pos n;
    pos := !pos + n
  done

let write_from t off b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let p = off + !pos in
    let o = p land granule_mask in
    let n = Int.min (granule - o) (len - !pos) in
    Bytes.blit b !pos (writable t (p lsr granule_bits)) o n;
    pos := !pos + n
  done

(* An access of [w] bytes at [off] that straddles two granules goes through
   a bounce buffer.  Callers test [fits] first, so the common case stays
   inline and allocation-free. *)
let fits off w = off land granule_mask <= granule - w

let gather t off w =
  let b = Bytes.create w in
  copy_out t off b;
  b

let get_u8 t off =
  check t off 1;
  Bytes.get_uint8 t.granules.(off lsr granule_bits) (off land granule_mask)

let set_u8 t off v =
  check t off 1;
  Bytes.set_uint8 (writable t (off lsr granule_bits)) (off land granule_mask) (v land 0xFF)

(* The 4- and 8-byte accessors are inlined into each typed one, so an
   [int] or [float] access never boxes an [int32] or [int64] on the fast
   path. *)
let[@inline] get32 t off =
  check t off 4;
  if fits off 4 then Bytes.get_int32_le t.granules.(off lsr granule_bits) (off land granule_mask)
  else Bytes.get_int32_le (gather t off 4) 0

let set32_straddling t off v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  write_from t off b

let[@inline] set32 t off v =
  check t off 4;
  if fits off 4 then
    Bytes.set_int32_le (writable t (off lsr granule_bits)) (off land granule_mask) v
  else set32_straddling t off v

let[@inline] get64 t off =
  check t off 8;
  if fits off 8 then Bytes.get_int64_le t.granules.(off lsr granule_bits) (off land granule_mask)
  else Bytes.get_int64_le (gather t off 8) 0

let set64_straddling t off v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write_from t off b

let[@inline] set64 t off v =
  check t off 8;
  if fits off 8 then
    Bytes.set_int64_le (writable t (off lsr granule_bits)) (off land granule_mask) v
  else set64_straddling t off v

let get_i32 t off = get32 t off
let set_i32 t off v = set32 t off v
let get_f32 t off = Int32.float_of_bits (get32 t off)
let set_f32 t off v = set32 t off (Int32.bits_of_float v)
let get_i64 t off = get64 t off
let set_i64 t off v = set64 t off v
let get_f64 t off = Int64.float_of_bits (get64 t off)
let set_f64 t off v = set64 t off (Int64.bits_of_float v)
let get_int t off = Int64.to_int (get64 t off)
let set_int t off v = set64 t off (Int64.of_int v)

let read_bytes t ~off ~len =
  check t off len;
  gather t off len

let read_into t ~off b =
  check t off (Bytes.length b);
  copy_out t off b

let write_bytes t ~off b =
  check t off (Bytes.length b);
  write_from t off b
