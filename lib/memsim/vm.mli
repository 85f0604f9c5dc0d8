(** A per-host virtual address space implementing MultiView.

    A {!t} maps one {!Memobject.t} at several non-overlapping virtual base
    addresses ("views", the analogue of [MapViewOfFile]).  Each view is a
    sequence of virtual pages ("vpages") with independent protection, all
    aliasing the same physical pages.  Typed accessors check the protection of
    the vpage(s) covered by the access and, on a violation, invoke the
    registered fault handler — the analogue of a SIGSEGV/SEH upcall — then
    retry the access.

    By construction, view [i] gets the same base address in every address
    space created over memory objects of the same size, which is the paper's
    "no address translation between hosts" property. *)

type t

type fault = {
  addr : int;  (** faulting virtual address *)
  access : Prot.access;
  view : int;  (** view index the address belongs to *)
  vpage : int;  (** vpage index within the view *)
  phys_off : int;  (** corresponding offset in the memory object *)
}

exception Access_violation of fault
(** Raised when a fault occurs and no handler is installed. *)

exception Fault_storm of fault
(** Raised when the handler returns without making the access legal too many
    times in a row. *)

exception Bad_address of int
(** Raised on access to an address outside every mapped view. *)

val create : Memobject.t -> t

val map_view : ?fixed:bool -> t -> Prot.t -> int
(** Map a new view of the whole memory object with the given initial
    protection on all vpages; returns the view index.  [fixed] (default
    false) marks the view's protection immutable — used for the privileged
    view ({!map_privileged_view}).  Views mapped with the same initial
    protection share one protection table until their first {!protect}
    changes a vpage, which gives that view its own copy. *)

val map_privileged_view : t -> int
(** [map_view ~fixed:true t Read_write]. *)

val view_base : t -> int -> int
val view_size : t -> int
(** Bytes spanned by each view (= memory object size). *)

val page_size : t -> int
val vpages_per_view : t -> int

val address : t -> view:int -> int -> int
(** [address t ~view phys_off] is the virtual address of physical offset
    [phys_off] as seen through [view]. *)

val translate : t -> int -> int * int * int
(** [translate t addr] is [(view, vpage, phys_off)].
    Raises {!Bad_address}. *)

val view_of : t -> int -> int
val phys_off : t -> int -> int
(** The [view] and [phys_off] of {!translate}, without building the
    triple.  Raise {!Bad_address}. *)

val protect : t -> view:int -> vpage:int -> Prot.t -> unit
(** Raises [Invalid_argument] on a fixed view. *)

val protect_range : t -> view:int -> phys_off:int -> len:int -> Prot.t -> unit
(** Set protection on every vpage overlapping [\[phys_off, phys_off+len)]. *)

val protection : t -> view:int -> vpage:int -> Prot.t

val set_fault_handler : t -> (fault -> unit) -> unit

val read_faults : t -> int
val write_faults : t -> int
(** Faults raised so far, by access kind; an access that faults again
    after its handler ran counts each fault. *)

(** {2 Typed access through views (protection-checked)}

    An access that lies within one vpage whose protection allows it
    allocates nothing beyond its boxed result ([read_f64], [read_f32],
    [read_i32]). *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_i32 : t -> int -> int32
val write_i32 : t -> int -> int32 -> unit
val read_f32 : t -> int -> float
val write_f32 : t -> int -> float -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit
val read_int : t -> int -> int
val write_int : t -> int -> int -> unit

(** {2 Privileged access (bypasses protection, physical offsets)}

    The DSM server threads use these; they model access through the
    privileged view, which is always [Read_write]. *)

val priv_read_bytes : t -> off:int -> len:int -> bytes

val priv_read_into : t -> off:int -> bytes -> unit
(** [priv_read_into t ~off b] fills [b] from physical offset [off], as
    {!priv_read_bytes} with [~len:(Bytes.length b)] would, without
    allocating. *)

val priv_write_bytes : t -> off:int -> bytes -> unit
