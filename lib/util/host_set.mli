(** Immutable sets of host ids (non-negative ints), as bitmaps.

    A set is a string with one bit per host: host [h] is bit [h land 7] of
    byte [h lsr 3].  The string never ends in a zero byte, so equal sets are
    equal strings and the polymorphic comparisons agree with {!equal}.  Any
    host count fits; a set of hosts below 64 takes at most 8 bytes.

    Every iteration visits hosts in ascending order, as [Set.Make (Int)]
    does.  {!mem}, {!is_empty}, {!cardinal}, {!iter} and {!fold} allocate
    nothing themselves, and neither do {!add} of a member or {!remove} of a
    non-member, which return their argument. *)

type t

val empty : t
val is_empty : t -> bool

val singleton : int -> t
(** Raises [Invalid_argument] on a negative host, as {!add} does. *)

val add : int -> t -> t
val remove : int -> t -> t
val mem : int -> t -> bool
val cardinal : t -> int
val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b]: every host of [a] is in [b]. *)

val diff : t -> t -> t
(** The hosts of the first set that are not in the second. *)

val filter : (int -> bool) -> t -> t

val min_elt : t -> int
(** Raises [Not_found] on the empty set. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list
(** Ascending. *)

val of_list : int list -> t
