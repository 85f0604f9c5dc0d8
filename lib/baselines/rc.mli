(** Home-based eager release consistency with twins and run-length diffs,
    written once over a sharing-unit {e grain}.  {!Lrc} runs it over 4 KB
    pages, {!Mrc} over MultiView minipages (§5); the protocol sees a unit
    only as a {!Mp_multiview.Minipage.t} record (id, view, offset, length):

    - every unit a [malloc] covers starts as a clean read-only copy at its
      home, host [id mod hosts];
    - a write fault on a present unit is {e local}: twin the unit, open it
      for writing, no protocol traffic — multiple concurrent writers per
      unit are allowed, which is how relaxed consistency defeats false
      sharing;
    - at a release (unlock, barrier entry, [push_to_all]) every dirty unit,
      in ascending id, is diffed against its twin (250 µs per 4 KB, the §4.2
      measurement) and write-protected; the diff goes to the unit's home,
      which applies it;
    - at an acquire (lock grant, barrier exit) the manager (host 0) supplies
      write notices and the host invalidates the units others dirtied since
      its last synchronization.

    Correct for data-race-free applications, like the systems it models. *)

val page_size : int
val object_size : int

module type GRAIN = sig
  type t

  val name : string
  (** The system's name, as [Dsm_intf.S.name]. *)

  val views : int
  (** Application views each host maps. *)

  val alloc : t -> int -> int
  (** [alloc g size] reserves [size] bytes and returns their offset in the
      memory object. *)

  val find : t -> int -> Mp_multiview.Minipage.t option
  (** The unit holding an object offset, once allocated.  Units tile every
      allocated block, so a block is covered by the units found from its
      start, each starting where the last ends. *)
end

module Make (G : GRAIN) : sig
  type t
  type ctx

  val create : Mp_sim.Engine.t -> hosts:int -> ?polling:Mp_net.Polling.mode -> G.t -> t
  val grain : t -> G.t
  val diffs_created : t -> int
  val diff_bytes : t -> int
  val twins_created : t -> int

  include Mp_dsm.Dsm_intf.S with type t := t and type ctx := ctx
end
