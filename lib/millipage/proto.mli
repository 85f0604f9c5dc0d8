(** Millipage protocol messages (Figure 3 of the paper, plus the
    synchronization and push traffic).

    All control messages are header-sized (32 bytes); data messages carry the
    minipage contents and model the two-stage receive of §3.3 — the header
    with the original request and translation information, then the contents
    landing directly in the privileged view. *)

type access = Read | Write

(** Translation information filled in by the manager from the MPT: minipage
    base, size, and its view — everything a non-manager host needs to set
    protection without any local lookup. *)
type info = { mp_id : int; base_off : int; length : int; mp_view : int }

(** Per-minipage consistency protocol.  [Sc] is the paper's Figure-3
    single-writer invalidation protocol; [Rc] is the multi-writer
    release-consistent path: twins on write fault, run-length diffs flushed
    to the home's master copy at release, conservative local invalidation at
    acquire.  A minipage's mode is owned by its home, changes only at sync
    points, and every switch is fenced by an epoch handshake
    ({!Mode_switch}/{!Mode_ack}) so home, backup replica and sharers agree
    before the first post-switch access. *)
type mode = Sc | Rc

val mode_to_string : mode -> string

(** One record of a home's logical write-ahead log, streamed to its backup
    over the ARQ transport.  The channel is FIFO exactly-once, so the backup
    always holds a strict prefix of the primary's log: [L_admit] precedes the
    matching [L_complete], and an [L_state]/[L_shadow] never overtakes the
    operation that produced it. *)
type log_record =
  | L_admit of { req_id : int; mp_id : int }
      (** the home accepted an operation (request or push) on [mp_id] *)
  | L_complete of { req_id : int; at : float }
      (** the operation's final ack landed; [at] is the {e original}
          completion time, carried across promotion so the backup's
          duplicate-suppression horizon matches the primary's *)
  | L_state of { mp_id : int; owner : int; copyset : int list }
      (** directory state after a transfer/invalidation round settled *)
  | L_shadow of { mp_id : int; data : bytes }
      (** the home's shadow copy was refreshed — the backup's replica of the
          last release-consistent contents *)
  | L_mode of { mp_id : int; mode : mode; epoch : int }
      (** a mode switch completed its epoch handshake; after a promotion the
          backup serves the minipage under the same protocol *)
  | L_diff of { mp_id : int; diff : Twin_diff.t }
      (** a release-time diff reached the home's master copy; the backup
          patches its replica shadow with the same runs (a switch to [Rc]
          always logs a full [L_shadow] first, so the patch target exists) *)

type body =
  | Request of { req_id : int; from : int; access : access; addr : int }
      (** faulting host → manager; carries only the faulting address *)
  | Forward of { req_id : int; from : int; access : access; info : info }
      (** manager → replica holding a copy *)
  | Reply_header of { req_id : int; access : access; info : info }
      (** replica → faulting host, stage 1 *)
  | Reply_data of { req_id : int; access : access; info : info; data : bytes }
      (** replica → faulting host, stage 2: minipage contents *)
  | Write_grant of { req_id : int; info : info }
      (** manager → faulting host that already holds a read copy: upgrade
          without data transfer *)
  | Invalidate of { req_id : int; info : info }  (** manager → read-copy holder *)
  | Invalidate_reply of { req_id : int; mp_id : int; from : int }
  | Ack of { req_id : int; mp_id : int; from : int }
      (** faulting host → manager once the woken thread has its access: ends
          the minipage's busy period (the delta-like mechanism of §3.3) *)
  | Home_redirect of { req_id : int; mp_id : int; home : int }
      (** home → requester whose home hint was stale (the minipage migrated
          to its first toucher, or its backup took over after a crash):
          update the hint and resend to [home] *)
  | Barrier_enter of { from : int; tid : int; phase : int }
      (** [tid] identifies the entering thread, so recovery can rebuild a
          barrier's entered-set idempotently after its home host died *)
  | Barrier_release of { phase : int }
  | Lock_acquire of { req_id : int; from : int; tid : int; lock : int }
  | Lock_grant of { lock : int; tid : int }
  | Lock_release of { from : int; lock : int }
  | Push of { req_id : int; from : int; info : info; data : bytes }
      (** pushing host → manager: distribute fresh read copies to all hosts
          (the TSP minimal-tour pattern of §4.3) *)
  | Push_update of { info : info; data : bytes }  (** manager → every host *)
  | Push_update_ack of { mp_id : int; from : int }
  | Push_complete of { req_id : int }  (** manager → pushing host: resume *)
  | Group_fetch of { req_id : int; from : int; group_id : int }
      (** composed-view fetch (§5): bring read copies of a whole minipage
          group in one operation *)
  | Group_plan of { req_id : int; batches : int }
      (** manager → fetching host: how many per-owner data batches follow *)
  | Forward_group of { req_id : int; from : int; members : info list }
      (** manager → a replica owning several of the group's minipages *)
  | Group_data of { req_id : int; members : (info * bytes) list }
      (** replica → fetching host: all requested minipages, gathered *)
  | Group_ack of { req_id : int; from : int; mp_ids : int list }
  | Group_replan of { req_id : int; drop : int }
      (** manager → fetching host after crash recovery: [drop] announced
          batches died with their supplier; the skipped members fault on
          demand later *)
  | Rc_data of { req_id : int; access : access; info : info; epoch : int; data : bytes }
      (** home → requester: a release-consistent serve straight from the
          home's master copy — no forward hop, no invalidation round.  The
          reply itself tells the requester the minipage is in [Rc] mode; a
          [Write] serve is twinned at the receiver. *)
  | Rc_diff of {
      req_id : int;
      from : int;
      mp_id : int;
      epoch : int;
      diff : Twin_diff.t;
    }
      (** sharer → home at release (barrier entry, unlock, push): the writes
          made since the twin was taken, applied to the master copy *)
  | Rc_diff_ack of { req_id : int; mp_id : int }
      (** home → sharer: the diff reached the master; the release may
          complete *)
  | Mode_switch of { mp_id : int; epoch : int; mode : mode; info : info }
      (** home → sharers: the epoch fence of a mode switch.  Receivers drop
          their local copies (a dirty RC copy is flushed first — the channel
          is FIFO, so the diff always precedes the ack) and acknowledge;
          the home serves no new access until every sharer acked. *)
  | Mode_ack of { mp_id : int; epoch : int; from : int; data : bytes option }
      (** sharer → home: fence acknowledged.  On an SC→RC promotion the
          acking sharer that still holds a valid SC copy includes its bytes;
          the home adopts the owner's payload as the RC master (the home
          itself need not be a sharer, and its shadow may be one release
          behind). *)
  | Heartbeat of { from : int; beat : int }
      (** every host → manager, each heartbeat interval; the failure
          detector's only liveness signal *)
  | Dead_notice of { dead : int }
      (** manager → every survivor once [dead] is declared dead *)
  | Log_append of { primary : int; lseq : int; record : log_record }
      (** home → its backup: the [lseq]'th record of the home's directory
          log (per-primary sequence, counted from 1) *)
  | Data of { seq : int; body : body }
      (** Sent only by the hop-by-hop retransmission layer in {!Dsm}, which
          runs only on a faulty fabric and restores FastMessages semantics
          there: any other body, stamped with the sending channel's sequence
          number.  A reliable fabric carries bare bodies. *)
  | Tack of { seq : int }
      (** Sent only by that layer: "I have received [seq]". *)

val access_to_string : access -> string

val describe : body -> string
(** Short tag for logging/debugging.  A [Data] renders as the body it
    carries, so a message has the same label on either fabric; a [Tack]
    renders as ["TACK(s<n>)"]. *)
