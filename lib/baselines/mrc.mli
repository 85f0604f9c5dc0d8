(** Millipage-RC: reduced-consistency protocols over minipages (§5).

    The paper's first future-work proposal: when chunking makes minipages
    larger than the sharing unit, run a relaxed-consistency multiple-writer
    protocol *at minipage granularity* — chunking amortizes the fine-grain
    fetch overhead while the RC protocol absorbs the false sharing chunking
    reintroduces, and "the overhead involved in the reduced consistency
    protocol itself is small compared to that measured in traditional
    page-based systems, due to the smaller page size" (diff cost scales with
    the minipage, not the page).

    Mechanically: MultiView's dynamic layout and per-view protection exactly
    as in Millipage, with the {!Rc} twin/diff protocol per minipage instead
    of the SW/MR protocol.  Correct for data-race-free applications. *)

type t
type ctx

val create :
  Mp_sim.Engine.t ->
  hosts:int ->
  ?chunking:Mp_multiview.Allocator.chunking ->
  ?polling:Mp_net.Polling.mode ->
  unit ->
  t

val diffs_created : t -> int
val diff_bytes : t -> int
val twins_created : t -> int
val views_used : t -> int

include Mp_dsm.Dsm_intf.S with type t := t and type ctx := ctx
