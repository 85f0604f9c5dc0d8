(** Work distribution helpers shared by the benchmark applications. *)

val block_range : items:int -> parts:int -> part:int -> int * int
(** [(first, past_last)] of a contiguous block partition; earlier parts get
    the remainder.  An empty part yields [first = past_last]. *)

val owner_of : items:int -> parts:int -> int -> int
(** Inverse of {!block_range}: which part owns the given item. *)
