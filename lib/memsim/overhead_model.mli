(** The standalone MultiView overhead study of §4.1 (Figure 5).

    The test application allocates an array of [array_bytes] characters laid
    out in equal-size minipages, one view per minipage slot in a page (so a
    page holds [views] minipages), and repeatedly traverses the array reading
    each element once per iteration through the view associated with its
    minipage.  The model charges TLB/page-walk costs per minipage visit and
    cache costs per physical data line, which is exact for a sequential
    byte-read loop. *)

type result = {
  views : int;
  array_bytes : int;
  us_per_iter : float;  (** steady-state traversal time, µs per iteration *)
  tlb_misses_per_iter : float;
  l2_misses_per_iter : float;
}

val run :
  ?iterations:int ->
  ?order:[ `Interleaved | `View_major ] ->
  ?allocated_bytes:int ->
  array_bytes:int ->
  views:int ->
  unit ->
  result
(** [views] must divide the page size.  One unmeasured warm-up traversal
    precedes [iterations] (default 3) measured ones, in [`Interleaved] order
    by default (the paper's traversal: consecutive elements, hence
    alternating views).  [`View_major] visits all minipages
    of one view before moving to the next — the access-locality experiment
    of §5: PTE locality "is not completely lost, but is preserved across
    views", so this order blunts the post-breaking-point overhead.
    [allocated_bytes] (default [array_bytes]) lets the allocation exceed the
    accessed region: the committed-but-untouched vpages keep PTEs alive and
    drag the breaking point earlier — observation 4 of §4.1. *)

val slowdown : baseline:result -> result -> float
(** Ratio of per-iteration times; the y-axis of Figure 5. *)

val max_views_for : ?va_bytes:int -> array_bytes:int -> unit -> int
(** Address-space cap on the number of views (1.63 GB of user VA in the
    paper's NT configuration). *)
