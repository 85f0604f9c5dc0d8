(** Memory-hierarchy cost model of the testbed machines (Pentium II 300 MHz).

    Combines a data TLB, an L1 data cache and a unified L2 cache.  Page-table
    entries are 4 bytes, cacheable, and are read through L2 on a TLB-miss
    page walk — the mechanism behind the Figure 5 breaking points: the active
    PTE working set of a MultiView layout is [views * pages * 4] bytes and
    stops fitting in the 512 KB L2 exactly when [views * array_MB = 512]. *)

module Params : sig
  type t = {
    page_size : int;
    tlb_entries : int;
    l1_size : int;
    l1_line : int;
    l1_assoc : int;
    l2_size : int;
    l2_line : int;
    l2_assoc : int;
    cyc_base : float;  (** per-element loop + register cost *)
    cyc_l1_hit : float;
    cyc_l2_hit : float;  (** added on L1 miss / L2 hit *)
    cyc_mem : float;  (** added on L2 miss *)
    cyc_walk : float;  (** page-walk logic on TLB miss, before the PTE read *)
    cyc_pte_evicted_os : float;
        (** Charged when a page walk finds its PTE evicted from L2.  Folds in
            the OS-level cost the paper conjectures ("overloading the
            operating system's internal data structures"): once the PTE
            working set exceeds L2, NT's working-set manager re-validates
            mappings with µs-scale soft faults.  This term sets the slope of
            Figure 5 beyond the breaking points; the breaking points
            themselves come purely from L2 capacity. *)
    mhz : float;
  }
end

type t

val create : unit -> t
(** A cold Pentium II with no mapped vpages: 4 KB pages, 64-entry TLB,
    16 KB L1, 512 KB 4-way L2, 300 MHz.  The TLB is a one-set {!Cache} of
    [tlb_entries] ways indexed by vpn. *)

val params : t -> Params.t

val touch_vpage : t -> vpn:int -> float
(** TLB lookup for virtual page [vpn]; on a miss, walks the page table and
    reads the PTE through L2.  Returns the cycle cost.  Records no touch:
    the working set the OS surcharge sees is only what {!commit_vpns}
    declared. *)

val commit_vpns : t -> int -> unit
(** Declare [n] more mapped vpages, touched or not.  Every mapped vpage's
    PTE counts toward the working set the OS manages, which is why the paper
    saw the breaking point "appear earlier" when allocating a large region
    and accessing only a fraction of it (§4.1, observation 4). *)

val touch_data : t -> addr:int -> float
(** One data-cache-line access at physical address [addr] through L1/L2.
    Returns the cycle cost (excluding [cyc_base]). *)

val cycles_to_us : t -> float -> float

val tlb_misses : t -> int
val l2_misses : t -> int
