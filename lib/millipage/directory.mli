(** Manager-side directory: per-minipage location and serialization state.

    One entry per minipage holds the copyset (hosts with read copies), the
    owner (host with the writable copy, or the last writer), and the busy
    flag + queue that serialize operations on the minipage.  Requests that
    arrive while an earlier request on the same minipage is still in flight
    are queued — those are the "competing requests" counted in Figure 7. *)

open Mp_util

type read_flight = {
  mutable rf_req : int;  (** request id (the obs span) *)
  mutable rf_from : int;  (** requesting host *)
  mutable rf_supplier : int;  (** host the Forward went to (may be re-aimed
                                  by crash recovery) *)
  mutable rf_group : bool;  (** part of a batched group fetch *)
  mutable rf_next : read_flight;
      (** the next older flight of the same entry; only this module links
          and unlinks flights *)
}
(** A forwarded read the manager tracks until its ACK.  Records are reused:
    one goes back to its shard's free stack when its flight is removed, so
    never keep one past the call that handed it out. *)

type pending =
  | No_op
  | Reads_in_flight
      (** concurrent read requests are all forwarded immediately — only
          writes conflict, which is what keeps the competing-request count of
          unchunked WATER low (§4.4).  Each outstanding forward is tracked
          in the entry's read flights so crash recovery can re-aim flights
          whose supplier or requester died. *)
  | Write_waiting_invals of {
      req_id : int;
      from : int;
      targets : Host_set.t;  (** full invalidation fan-out, fixed *)
      mutable waiting : Host_set.t;  (** targets still to ack *)
    }
  | Write_in_flight of { req_id : int; from : int; mutable supplier : int }
      (** [supplier < 0]: ownership upgrade, no data in flight *)
  | Push_waiting_acks of { req_id : int; from : int; mutable waiting : Host_set.t }
  | Mode_switch_wait of { epoch : int; mutable waiting : Host_set.t }
      (** the epoch fence of a consistency-mode switch: every sharer must
          drop its copy and acknowledge before any post-switch access starts
          (concurrent requests queue behind the fence and drain under the
          new mode) *)

type entry = {
  mp : Mp_multiview.Minipage.t;
  mutable owner : int;
  mutable copyset : Host_set.t;
  mutable pending : pending;
  mutable reads : read_flight;
      (** the read flights, newest first, while [pending] is
          [Reads_in_flight]; walk them with {!filter_reads} *)
  queue : queued Queue.t;
  mutable shadow : bytes option;
      (** manager-side shadow copy: the minipage's content as of its last
          ownership/data transfer (or barrier sync) — the recovery source
          when the owner dies holding the only copy *)
  mutable lost : bool;
      (** the dead owner wrote after the last transfer: the recovered shadow
          is the last {e observed} version, but app-level data was lost —
          survivor accesses fail fast instead of silently reading it *)
  mutable mode : Proto.mode;
      (** which protocol serves this minipage — the paper's Figure-3
          single-writer machine ([Sc]) or the multi-writer diff path ([Rc]);
          switched by the adaptation governor at sync points only *)
  mutable epoch : int;  (** bumped on every mode switch *)
}

and queued =
  | Q_request of { req_id : int; from : int; access : Proto.access; addr : int }
  | Q_push of { req_id : int; from : int; data : bytes }

type t

val create : initial_owner:int -> t

val register : t -> Mp_multiview.Minipage.t -> unit
(** Create the entry for a freshly allocated minipage, owned (with the only
    copy) by [initial_owner]. *)

val entry : t -> mp_id:int -> entry
(** Raises [Not_found]. *)

val find : t -> mp_id:int -> entry option
(** Shard-aware lookup: [None] when this shard does not home the minipage. *)

val adopt : t -> entry -> unit
(** Install an entry that migrated from another shard (first-toucher
    placement, or a backup promoted over a dead home's entries). *)

val remove : t -> mp_id:int -> unit

val busy : entry -> bool

val enqueue : t -> entry -> queued -> unit
(** Queue a competing request and bump the competing-requests counter. *)

val dequeue : t -> entry -> queued option
val peek : entry -> queued option

val drop_queued : t -> entry -> keep:(queued -> bool) -> queued list
(** Remove (and return, oldest first) every queued operation for which
    [keep] is false, preserving the order of the survivors and adjusting the
    queue-depth accounting.  Used by crash recovery to drop a dead host's
    queued requests. *)

(** {2 Idempotence under retransmission}

    With the reliable transport active, a retransmitted request can reach the
    manager again after the original was already accepted (the transport
    dedupes per-channel sequence numbers, but a sender-side timeout can refire
    after a slow but undropped delivery).  The manager keeps every accepted
    request id so duplicates are suppressed instead of double-served. *)

val note_request : t -> req_id:int -> bool
(** [true] the first time [req_id] is seen (caller should serve it), [false]
    on any later sighting (caller must drop the duplicate). *)

val mark_completed : t -> req_id:int -> now:float -> unit
(** Record that [req_id]'s whole operation (through its final ack) is done,
    stamped with the completion time for later pruning. *)

val mark_completed_slot : t -> req_id:int -> Float.Array.t -> int -> unit
(** [mark_completed_slot t ~req_id a i] is [mark_completed t ~req_id
    ~now:a.(i)] without boxing the stamp. *)

val completed : t -> req_id:int -> bool
(** Whether [req_id] completed; stale acks for completed requests are
    tolerated rather than fatal. *)

val prune_completed : t -> before:float -> int
(** Forget request ids whose operation completed before the given time —
    i.e. whose retransmission window has passed, so no duplicate can still
    arrive.  Bounds both idempotence tables on long runs; returns the number
    of ids pruned. *)

val idempotence_size : t -> int
(** Combined size of the seen/completed tables (for tests and soak
    monitoring). *)

val completed_stamps : t -> (int * float) list
(** Every completed request id with its original completion stamp.  Used at
    backup promotion to diff the corpse's table against the replica: hits are
    completions the asynchronous log lost in the primary's final
    retransmission window.  The order is the one recovery's trace has always
    recorded: that of a [Hashtbl.fold] over a table with the same history. *)

(** {2 Read flights}

    The reads an entry has forwarded and not yet seen acked.  Adding and
    removing one allocates nothing once the shard's free stack holds a
    record. *)

val add_read : t -> entry -> req_id:int -> from:int -> supplier:int -> group:bool -> unit
(** Track a new read flight, newest first, and set [pending] to
    [Reads_in_flight]; from any other [pending] the flight is the first.
    The caller has checked that no conflicting operation is pending. *)

val remove_read : t -> entry -> req_id:int -> bool
(** Remove the one flight of [req_id], in place, and recycle its record;
    [pending] becomes [No_op] when it was the last.  [false], with nothing
    changed, when no flight or more than one has [req_id]. *)

val filter_reads : t -> entry -> keep:(read_flight -> bool) -> unit
(** Visit the flights newest first and remove, in place, each for which
    [keep] is false, recycling its record once [keep] has returned;
    [pending] becomes [No_op] when none is left. *)

val competing_requests : t -> int
(** Total number of requests that ever had to queue behind an in-flight one
    (the quantity reported in §4.4 / Figure 7). *)

val queue_depth : t -> int
(** Requests currently queued behind in-flight ones, across all minipages. *)

val max_queue_depth : t -> int
(** High-water mark of {!queue_depth} over the run. *)

val entries : t -> entry Seq.t

(** {2 Backup replica}

    The receiving side of a home's logical write-ahead log
    ({!Proto.log_record}).  A backup host keeps one replica per primary it
    backs; applying the (FIFO, exactly-once) record stream maintains a
    strict prefix of the primary's directory state — owner/copyset images,
    shadow contents, completed-request stamps and still-open admissions —
    which promotion installs under the same home id when the primary is
    declared dead. *)

type shard = t
(** Alias for {!t}, usable inside {!Replica} where [t] is shadowed. *)

module Replica : sig
  type rentry = {
    mutable r_owner : int;
    mutable r_copyset : Host_set.t;
    mutable r_shadow : bytes option;
    mutable r_mode : Proto.mode;
    mutable r_epoch : int;
  }

  type t

  val create : unit -> t

  val seed : t -> mp_id:int -> owner:int -> unit
  (** Register a fresh minipage's replica at allocation time (the init phase
      is message-free, mirroring hint-cache seeding). *)

  val apply : t -> lseq:int -> Proto.log_record -> unit
  (** Apply the [lseq]'th log record. *)

  val applied : t -> int
  (** Highest applied log sequence number. *)

  val find : t -> mp_id:int -> rentry option

  val prune : t -> before:float -> int
  (** Forget replicated completions older than the retransmission window
      (mirrors {!prune_completed}); returns the number pruned. *)

  val open_admissions : t -> (int * int) list
  (** [(req_id, mp_id)] pairs admitted by the primary whose completion the
      backup never saw — the in-flight tail promotion must close. *)

  val completed_count : t -> int

  val handoff_idempotence : t -> into:shard -> unit
  (** Install every replicated completion into the promoted shard's
      idempotence tables, carrying the {e original} completion stamps so the
      duplicate-suppression horizon survives promotion. *)
end
