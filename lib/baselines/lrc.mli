(** A TreadMarks/Munin-style relaxed-consistency DSM baseline: the {!Rc}
    twin/diff protocol at page granularity, over one view.

    This is the comparison point for the paper's claim that fine-grain
    sequential consistency is competitive with relaxed consistency. *)

type t
type ctx

val create : Mp_sim.Engine.t -> hosts:int -> ?polling:Mp_net.Polling.mode -> unit -> t
val diffs_created : t -> int
val diff_bytes : t -> int
val twins_created : t -> int

include Mp_dsm.Dsm_intf.S with type t := t and type ctx := ctx
