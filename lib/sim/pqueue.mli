(** Binary min-heap keyed by [(time, seq)].

    The secondary [seq] key makes pops of equal-time entries FIFO, which keeps
    the whole simulation deterministic.  Once the heap has grown to its peak
    size, {!push} and {!pop} allocate nothing. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val min_time : 'a t -> float
(** Time of the smallest entry; [infinity] when empty. *)

val pop : 'a t -> 'a
(** Removes and returns the smallest [(time, seq)] entry; read its time with
    {!min_time} first.  Raises [Invalid_argument] when empty. *)

val min_tied : 'a t -> bool
(** Whether at least two entries share the minimal time. *)

val pop_min_group : 'a t -> (float * (int * 'a) list) option
(** Removes {e every} entry scheduled for the minimal time and returns them
    in [seq] order together with their [seq] keys, so a scheduler that runs
    only one of them can {!push} the rest back with their ordering intact.
    [None] when empty. *)
