(** Raw physical memory: a demand-zero byte region with typed accessors.

    All offsets are byte offsets from the start of the region.  Out-of-range
    access raises [Invalid_argument].

    Storage is a sequence of fixed 4 KB granules.  A granule costs nothing
    until its first store: until then it aliases one shared zero granule, so
    reading it returns 0 and allocates nothing.  An access that straddles two
    granules is correct but takes a slower path. *)

type t

val create : int -> t
(** Zero-filled region of the given size in bytes. *)

val size : t -> int

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit

val get_i32 : t -> int -> int32
val set_i32 : t -> int -> int32 -> unit

val get_f32 : t -> int -> float
(** IEEE single precision, widened to a [float]. *)

val set_f32 : t -> int -> float -> unit
(** Rounds to single precision. *)

val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit

val get_f64 : t -> int -> float
val set_f64 : t -> int -> float -> unit

val get_int : t -> int -> int
(** 63-bit OCaml int stored as 8 bytes. *)

val set_int : t -> int -> int -> unit

val read_bytes : t -> off:int -> len:int -> bytes

val read_into : t -> off:int -> bytes -> unit
(** [read_into t ~off b] fills [b] from [\[off, off + Bytes.length b)];
    allocates nothing. *)

val write_bytes : t -> off:int -> bytes -> unit
