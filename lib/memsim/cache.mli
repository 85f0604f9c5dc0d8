(** Set-associative cache model with LRU replacement.

    Used to model the Pentium II memory hierarchy for the MultiView overhead
    study (Figure 5): the 512 KB physically-tagged L2 holds both data lines
    and the 4-byte PTEs, and the breaking points of the figure appear exactly
    when the PTE working set stops fitting.  One set makes the cache fully
    associative: {!Mmu}'s TLB is a one-set cache of 1-byte lines indexed by
    virtual page number. *)

type t

val create : size_bytes:int -> line_bytes:int -> assoc:int -> t
(** [size_bytes] must be divisible by [line_bytes * assoc]; both line size
    and the set count must be powers of two. *)

val access : t -> int -> bool
(** [access t addr] is [true] on a hit.  A miss inserts the line, evicting
    the set's LRU line.  [addr] is non-negative.  Allocates nothing. *)

val probe : t -> int -> bool
(** Hit test without inserting or touching LRU state. *)

val hits : t -> int
val misses : t -> int
