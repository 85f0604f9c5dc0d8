(** Typed protocol events.

    The full vocabulary of the fault → request → queue → forward → reply →
    ack pipeline, plus synchronization, messaging and simulator-level events.
    Events carry a [span] — the request id of the fault service they belong
    to ({!no_span} when unattributed) — so a whole fault service can be
    reassembled from the stream and attributed phase by phase. *)

type access = Read | Write

val access_to_string : access -> string

type phase =
  | Queue_wait  (** queued at the manager behind a conflicting operation *)
  | Network  (** request/forward/reply message time, incl. remote handlers *)
  | Invalidation  (** write faults: invalidation round outstanding *)
  | Wakeup  (** reply landed to faulting thread running again *)

type kind =
  | Fault of { access : access; addr : int; view : int; vpage : int }
  | Fault_done of { access : access }
  | Request of { access : access; addr : int; prefetch : bool }
  | Queued of { mp_id : int; depth : int }
  | Dequeued of { mp_id : int; waited_us : float }
  | Forward of { access : access; mp_id : int; supplier : int }
      (** [supplier < 0] means an ownership upgrade (no data supplier). *)
  | Reply of { access : access; mp_id : int; bytes : int }
      (** Data (or grant) landed at the faulting host, tagged with the
          access kind it satisfies. *)
  | Inval of { mp_id : int; target : int; writer : int }
      (** Invalidate [target]'s copy on behalf of [writer]'s write upgrade
          ([writer < 0] when unknown). *)
  | Inval_ack of { mp_id : int; from : int }
  | Ack of { mp_id : int; from : int }
  | Barrier_enter of { bphase : int }
  | Barrier_exit of { bphase : int }
  | Lock_acquire of { lock : int }
  | Lock_grant of { lock : int }
  | Lock_release of { lock : int }
  | Prefetch of { access : access; addr : int }
  | Msg_send of { dst : int; bytes : int; label : string }
  | Msg_recv of { src : int; bytes : int; label : string }
  | Net_drop of { dst : int; bytes : int; label : string }
      (** Fault injection discarded this message on the wire. *)
  | Net_dup of { dst : int; label : string }
      (** Fault injection delivered a second copy of this message. *)
  | Net_reorder of { dst : int; label : string }
      (** Fault injection let this message overtake earlier traffic. *)
  | Retransmit of { dst : int; seq : int; attempt : int; label : string }
      (** Transport timer fired and resent an unacknowledged packet. *)
  | Dup_suppressed of { src : int; seq : int; label : string }
      (** Receiver discarded a duplicate/stale packet ([seq < 0]: a
          protocol-level duplicate suppressed at the manager). *)
  | Sweeper_wake
  | Host_crash  (** Fault injection crashed this host. *)
  | Host_stall of { until : float }
      (** Fault injection froze this host's CPU until the given time. *)
  | Heartbeat_miss of { missed : int }
      (** Detector tick found this host's heartbeat overdue. *)
  | Suspect  (** Detector moved this host to suspected. *)
  | Declare_dead  (** Detector declared this host dead; recovery runs now. *)
  | Dead_notice of { dead : int }
      (** This host learned (via the control plane) that [dead] is dead. *)
  | Shadow_refresh of { mp_id : int; bytes : int }
      (** Manager shadow copy updated from an ownership/data transfer. *)
  | Shadow_sync of { refreshed : int }
      (** Barrier-release sweep refreshed this many shadow copies. *)
  | Recover_minipage of { mp_id : int; lost : bool }
      (** Recovery installed the shadow copy at the manager; [lost] marks a
          minipage the dead host wrote after its last transfer. *)
  | Lease_revoke of { lock : int; next : int }
      (** Lock lease revoked from this (dead) host; [next < 0]: no waiter. *)
  | Barrier_reconfig of { bphase : int; expected : int }
      (** Barrier retargeted to the surviving hosts' thread count. *)
  | Home_assign of { mp_id : int; home : int }
      (** Sharded management: this minipage's Figure-3 state machine was
          placed at [home] by the home-assignment policy (at [malloc], or on
          a first-toucher migration). *)
  | Home_redirect of { mp_id : int; old_home : int; new_home : int }
      (** A request hit a stale home hint; the receiver pointed the
          requester at the minipage's current home. *)
  | Log_append of { primary : int; backup : int; lseq : int; record : string }
      (** Home [primary] streamed the [lseq]'th record of its directory log
          to [backup]; [record] is the record tag (["admit"], ["complete"],
          ["state"], ["shadow"]).  Completion appends carry the request id
          in [span]. *)
  | Log_apply of { primary : int; lseq : int; record : string }
      (** The backup applied [primary]'s [lseq]'th log record; completion
          applies carry the request id in [span]. *)
  | Backup_promote of { primary : int; backup : int; entries : int; applied : int }
      (** [backup] took over [primary]'s home shard under the same home id:
          [entries] directory entries installed from the replica, whose log
          prefix reached [applied]. *)
  | Log_replay of { primary : int; mp_id : int; via : string }
      (** Promotion replayed one piece of the dead primary's state at the
          backup: [via] is ["log"] (replica state installed as-is),
          ["protections"] (log tail repaired from survivors' page
          protections), ["open-admission"] (an in-flight operation closed,
          request id in [span]) or ["completion"] (a completion record the
          log lost, re-installed; request id in [span]).  [mp_id < 0] when
          the piece is not a specific minipage. *)
  | Mp_map of {
      mp_id : int;
      view : int;
      base_addr : int;
      length : int;
      first_vpage : int;
      last_vpage : int;
    }
      (** Minipage layout, emitted at allocation: virtual base address and
          the vpage range the minipage covers in its view.  Lets stream
          consumers resolve fault addresses to minipages and detect
          co-location (false-sharing attribution in {!Profile}). *)
  | Mark of { kind : string; detail : string }
      (** Escape hatch for untyped events. *)

type t = { time : float; host : int; span : int; kind : kind }

val no_span : int
(** Span id of unattributed events (0; real spans are request ids ≥ 1). *)

val kind_name : kind -> string
(** Stable upper-case tag, e.g. ["FAULT"], ["RECV"] — what the string-based
    trace used as its [kind]. *)

val detail : kind -> string

val to_json : t -> string
(** One-line JSON object: [ts], [host], [span], [kind], [detail]. *)

val json_escape : string -> string
