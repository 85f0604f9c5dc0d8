(** Ivy-style page-granularity sequentially consistent DSM.

    The paper frames classic page-based DSM as the degenerate MultiView
    configuration: a single application view and page-sized minipages.  This
    baseline is exactly that — the full Millipage manager protocol with
    page-grain allocation — so any difference against Millipage in a bench
    isolates the effect of sharing granularity (false sharing). *)

type t
type ctx

val create :
  Mp_sim.Engine.t ->
  hosts:int ->
  ?object_size:int ->
  ?polling:Mp_net.Polling.mode ->
  ?seed:int ->
  unit ->
  t

include Mp_dsm.Dsm_intf.S with type t := t and type ctx := ctx
(** @inline *)
