(** Synchronization primitives for simulated processes.

    These mirror the Win32 primitives Millipage is built on: waitable events
    (auto- and manual-reset), mutexes and counting semaphores.  All [wait]
    operations must run inside an {!Engine.spawn}ed process.  Each primitive
    parks its waiters on an {!Engine.ring}, so a wait allocates only the
    waiter's continuation, and they wake in the order they waited. *)

module Event : sig
  type t

  val create : ?auto_reset:bool -> ?name:string -> unit -> t
  (** [auto_reset] defaults to [true]: a successful wait consumes the signal,
      as with the Win32 events Millipage threads block on. *)

  val wait : t -> unit
  (** Block until the event is signaled.  Returns immediately when already
      signaled (consuming the signal if auto-reset). *)

  val set : t -> unit
  (** Signal the event.  Auto-reset: wakes the oldest waiter, or latches if
      none; a waiter killed since it parked absorbs the signal.
      Manual-reset: wakes every waiter, oldest first, and stays signaled. *)

  val reset : t -> unit
  val is_set : t -> bool

  val waiters : t -> int
  (** Parked waiters, counting those killed since they parked. *)
end

module Mutex : sig
  type t

  val create : ?name:string -> unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  (** Raises [Invalid_argument] when the mutex is not held. *)

  val locked : t -> bool
end

module Semaphore : sig
  type t

  val create : ?name:string -> int -> t
  (** Initial (non-negative) count. *)

  val acquire : t -> unit
  val release : t -> unit
  val count : t -> int
end
