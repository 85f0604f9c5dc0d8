(** A free stack: objects a hot path hands back for reuse and takes again,
    last in, first out.  Once the stack has grown, {!push} and {!pop}
    allocate nothing.  It grows by doubling with [Array.append], which never
    forces a minor collection. *)

type 'a t

val create : unit -> 'a t
(** Empty; the first {!push} makes 16 slots. *)

val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** The value pushed last and not yet popped.  Raises [Invalid_argument]
    when the stack is empty. *)
