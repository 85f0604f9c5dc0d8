(** Dynamic minipage layout: the malloc-like allocation path of §2.3/§2.4.

    Each allocation defines its own minipage, associated with a view chosen
    so that minipages overlapping the same physical page always live in
    distinct views.  Two departures from one-minipage-per-allocation are
    supported, both from the paper:

    - {e chunking} (§4.4): aggregate every [k] consecutive allocations into
      one minipage, trading some false sharing for fewer faults;
    - {e page-grain} ("none" in Figure 7): traditional page-based layout,
      allocations packed into page-sized minipages disregarding boundaries. *)

type chunking =
  | Fine of int  (** chunking level ≥ 1; [Fine 1] is one minipage per malloc *)
  | Page_grain

type t

exception Out_of_memory
exception Out_of_views

val create :
  ?chunking:chunking -> page_size:int -> object_size:int -> views:int -> unit -> t
(** [views] is the number of application views available (the [n] fixed at
    initialization in §2.4).  Default chunking is [Fine 1]. *)

val malloc : t -> int -> Minipage.t * int
(** [malloc t size] reserves [size] bytes and returns the minipage holding
    them plus the byte offset of the allocation in the memory object.
    Allocations are 4-byte aligned, and a sub-page allocation never straddles
    a page boundary (it is placed on the next page instead) — the placement
    rule that reproduces the per-application view counts of Table 2, e.g.
    ⌊4096/672⌋ = 6 views for WATER and ⌊4096/148⌋ = 27 for TSP.  Raises
    {!Out_of_memory} or {!Out_of_views}. *)

val mpt : t -> Mpt.t
val chunking : t -> chunking
val views_used : t -> int
(** Number of distinct application views referenced so far. *)

val object_size : t -> int
val page_size : t -> int
