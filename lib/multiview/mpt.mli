(** The minipage table (MPT).

    Maps memory-object offsets to minipages.  In Millipage the full MPT lives
    at the manager, which resolves every faulting address to the minipage
    base, size and privileged-view address (the "translation" step of the
    protocol); the 7 µs lookup cost of Table 1 is charged by the DSM layer,
    not here.

    The table is an array sorted by offset.  A lookup bisects it, and
    {!find_exn} allocates nothing; {!add} appends when, as the allocator
    does, minipages come in increasing offset order. *)

type t

val create : unit -> t

val add : t -> Minipage.t -> unit
(** Raises [Invalid_argument] when the minipage overlaps one already
    registered.  Minipages may be added in any offset order. *)

val find : t -> int -> Minipage.t option
(** Minipage containing the given object offset. *)

val find_exn : t -> int -> Minipage.t
(** Raises [Not_found]. *)

val count : t -> int
val total_bytes : t -> int
val iter : t -> (Minipage.t -> unit) -> unit
(** In increasing offset order. *)

val max_views_on_a_page : t -> page_size:int -> int
(** Largest number of distinct views used by the minipages overlapping any
    single physical page — the [n] of "n+1 mapping calls" in §2.4. *)
