(** A global memory system with subpage transfer units (§5 of the paper,
    after Jamrozik et al., ASPLOS '96).

    One client host treats the idle memory of the other hosts as a remote
    backing store, one network hop away.  Pages evicted from the client's
    bounded resident set live at per-page home servers; a non-resident
    access faults, evicts the LRU page (writing dirty subpages back) and
    fetches data from the home.

    The transfer unit is a {e subpage}: the client maps its address space
    with the MultiView {e static layout} — subpage [k] of every page is
    accessed through view [k] — so each subpage has independent protection
    and can be fetched on its own.  [subpage_bytes = page_size] degenerates
    to classic whole-page remote paging; smaller subpages trade one big
    transfer for several small on-demand ones, which wins exactly when the
    application touches a fraction of each page.  [prefetch_rest] restores
    full-page bandwidth usage by streaming the remaining subpages in the
    background after the demand subpage arrives. *)

module Config : sig
  type t = {
    page_size : int;
    subpage_bytes : int;  (** must divide [page_size] *)
    address_space : int;  (** bytes of client virtual memory backed remotely *)
    resident_pages : int;  (** client-local page budget *)
    prefetch_rest : bool;  (** stream the rest of the page after a miss *)
    fault_us : float;
    set_prot_us : float;
    access_us : float;  (** client compute charge per access *)
    seed : int;
  }

  val default : t
  (** 4 KB pages, 1 KB subpages, 1 MB space, 64 resident pages, no
      prefetch. *)
end

type t

val create :
  Mp_sim.Engine.t -> ?config:Config.t -> servers:int -> unit -> t
(** [servers] memory hosts plus one client. *)

(** {2 Client-thread operations} — call only inside {!spawn_client}. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_int : t -> int -> int
val write_int : t -> int -> int -> unit

val spawn_client : t -> (unit -> unit) -> unit
val run : t -> unit

(** {2 Statistics} *)

val page_misses : t -> int
(** Faults that had to bring a page into the resident set. *)

val subpage_fetches : t -> int
val evictions : t -> int
val writebacks : t -> int
(** Dirty subpages shipped home at eviction. *)

val bytes_transferred : t -> int
val mean_miss_us : t -> float
(** Mean stall per demand miss. *)
