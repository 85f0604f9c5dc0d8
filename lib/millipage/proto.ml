type access = Read | Write

type info = { mp_id : int; base_off : int; length : int; mp_view : int }

(* Per-minipage consistency protocol.  [Sc] is the paper's Figure-3
   single-writer invalidation protocol; [Rc] is the multi-writer
   release-consistent path (twin on write fault, run-length diffs flushed to
   the home at release, conservative local invalidation at acquire).  A
   minipage's mode is owned by its home and changes only at sync points,
   fenced by an epoch handshake so home, backup replica and sharers agree on
   the mode before the first post-switch access. *)
type mode = Sc | Rc

let mode_to_string = function Sc -> "sc" | Rc -> "rc"

(* One record of a home's logical write-ahead log, streamed to its backup
   host over the ARQ transport.  The channel is FIFO exactly-once, so the
   backup always holds a strict prefix of the primary's log: [L_admit]
   precedes the matching [L_complete], and an [L_state]/[L_shadow] never
   overtakes the operation that produced it. *)
type log_record =
  | L_admit of { req_id : int; mp_id : int }
      (** the home accepted an operation (request or push) on [mp_id] *)
  | L_complete of { req_id : int; at : float }
      (** the operation's final ack landed; [at] is the {e original}
          completion time, carried so the backup's idempotence horizon
          matches the primary's instead of restarting at promotion *)
  | L_state of { mp_id : int; owner : int; copyset : int list }
      (** directory state after a transfer/invalidation round settled *)
  | L_shadow of { mp_id : int; data : bytes }
      (** the home's shadow copy was refreshed; the backup's replica of the
          last release-consistent contents *)
  | L_mode of { mp_id : int; mode : mode; epoch : int }
      (** a mode switch completed its epoch handshake; the backup must serve
          the minipage under the same protocol after a promotion *)
  | L_diff of { mp_id : int; diff : Twin_diff.t }
      (** a release-time diff was applied to the home's master copy; the
          backup patches its replica shadow with the same runs (an [L_mode]
          to [Rc] always logs a full [L_shadow] first, so the patch target
          exists) *)

type body =
  | Request of { req_id : int; from : int; access : access; addr : int }
  | Forward of { req_id : int; from : int; access : access; info : info }
  | Reply_header of { req_id : int; access : access; info : info }
  | Reply_data of { req_id : int; access : access; info : info; data : bytes }
  | Write_grant of { req_id : int; info : info }
  | Invalidate of { req_id : int; info : info }
  | Invalidate_reply of { req_id : int; mp_id : int; from : int }
  | Ack of { req_id : int; mp_id : int; from : int }
  | Home_redirect of { req_id : int; mp_id : int; home : int }
  | Barrier_enter of { from : int; tid : int; phase : int }
  | Barrier_release of { phase : int }
  | Lock_acquire of { req_id : int; from : int; tid : int; lock : int }
  | Lock_grant of { lock : int; tid : int }
  | Lock_release of { from : int; lock : int }
  | Push of { req_id : int; from : int; info : info; data : bytes }
  | Push_update of { info : info; data : bytes }
  | Push_update_ack of { mp_id : int; from : int }
  | Push_complete of { req_id : int }
  | Group_fetch of { req_id : int; from : int; group_id : int }
  | Group_plan of { req_id : int; batches : int }
  | Forward_group of { req_id : int; from : int; members : info list }
  | Group_data of { req_id : int; members : (info * bytes) list }
  | Group_ack of { req_id : int; from : int; mp_ids : int list }
  | Group_replan of { req_id : int; drop : int }
  | Rc_data of { req_id : int; access : access; info : info; epoch : int; data : bytes }
      (** home → requester: a release-consistent serve straight from the
          home's master copy (no forward hop, no invalidation round); the
          reply itself tells the requester the minipage is in [Rc] mode *)
  | Rc_diff of {
      req_id : int;
      from : int;
      mp_id : int;
      epoch : int;
      diff : Twin_diff.t;
    }  (** sharer → home at release: the writes since the twin was taken *)
  | Rc_diff_ack of { req_id : int; mp_id : int }
      (** home → sharer: the diff reached the master copy; the release may
          complete *)
  | Mode_switch of { mp_id : int; epoch : int; mode : mode; info : info }
      (** home → sharers: epoch fence of a mode switch.  Receivers drop
          their local copies (flushing a dirty RC copy first — the channel
          is FIFO, so the diff always precedes the ack) and acknowledge. *)
  | Mode_ack of { mp_id : int; epoch : int; from : int; data : bytes option }
  | Heartbeat of { from : int; beat : int }
  | Dead_notice of { dead : int }
  | Log_append of { primary : int; lseq : int; record : log_record }
      (** home → its backup: the [lseq]'th record of the home's directory
          log (per-primary sequence, counted from 1) *)
  | Data of { seq : int; body : body }
      (** sent only by the reliable-transport layer in [Dsm], which runs only
          on a faulty fabric: any other body with its channel's sequence
          number, so loss, duplication and reordering can be detected.  A
          reliable fabric carries bare bodies. *)
  | Tack of { seq : int }  (** that layer's acknowledgement *)

let access_to_string = function Read -> "read" | Write -> "write"

(* Labels are built with [^] rather than [Printf]: one is formatted for
   every recorded message, and [Printf.sprintf] costs several times the
   words of the string it returns. *)
let str = string_of_int

(* [prefix ^ n ^ ")"], the shape of most labels *)
let tag prefix n = prefix ^ str n ^ ")"

let describe_record = function
  | L_admit { req_id; mp_id } -> "admit r" ^ str req_id ^ " mp" ^ str mp_id
  | L_complete { req_id; _ } -> "complete r" ^ str req_id
  | L_state { mp_id; owner; copyset } ->
    "state mp" ^ str mp_id ^ " o" ^ str owner ^ " c" ^ str (List.length copyset)
  | L_shadow { mp_id; data } -> "shadow mp" ^ str mp_id ^ " " ^ str (Bytes.length data) ^ "B"
  | L_mode { mp_id; mode; epoch } ->
    "mode mp" ^ str mp_id ^ " " ^ mode_to_string mode ^ " e" ^ str epoch
  | L_diff { mp_id; diff } ->
    "diff mp" ^ str mp_id ^ " " ^ str (Twin_diff.encoded_bytes diff) ^ "B"

let rec describe = function
  | Request { access; addr; _ } -> "REQUEST(" ^ access_to_string access ^ tag " @" addr
  | Forward { access; info; _ } -> "FORWARD(" ^ access_to_string access ^ tag " mp" info.mp_id
  | Reply_header { info; _ } -> tag "REPLY_HDR(mp" info.mp_id
  | Reply_data { info; _ } -> tag "REPLY_DATA(mp" info.mp_id
  | Write_grant { info; _ } -> tag "WRITE_GRANT(mp" info.mp_id
  | Invalidate { info; _ } -> tag "INVALIDATE(mp" info.mp_id
  | Invalidate_reply { mp_id; _ } -> tag "INVALIDATE_REPLY(mp" mp_id
  | Ack { mp_id; _ } -> tag "ACK(mp" mp_id
  | Home_redirect { mp_id; home; _ } -> "HOME_REDIRECT(mp" ^ str mp_id ^ tag " -> h" home
  | Barrier_enter { from; phase; _ } -> "BARRIER_ENTER(h" ^ str from ^ tag " p" phase
  | Barrier_release { phase } -> tag "BARRIER_RELEASE(p" phase
  | Lock_acquire { lock; from; _ } -> "LOCK_ACQ(l" ^ str lock ^ tag " h" from
  | Lock_grant { lock; _ } -> tag "LOCK_GRANT(l" lock
  | Lock_release { lock; from } -> "LOCK_REL(l" ^ str lock ^ tag " h" from
  | Push { info; _ } -> tag "PUSH(mp" info.mp_id
  | Push_update { info; _ } -> tag "PUSH_UPDATE(mp" info.mp_id
  | Push_update_ack { mp_id; _ } -> tag "PUSH_UPDATE_ACK(mp" mp_id
  | Push_complete _ -> "PUSH_COMPLETE"
  | Group_fetch { group_id; from; _ } -> "GROUP_FETCH(g" ^ str group_id ^ tag " h" from
  | Group_plan { batches; _ } -> "GROUP_PLAN(" ^ str batches ^ " batches)"
  | Forward_group { members; _ } ->
    "FORWARD_GROUP(" ^ str (List.length members) ^ " minipages)"
  | Group_data { members; _ } -> "GROUP_DATA(" ^ str (List.length members) ^ " minipages)"
  | Group_ack { mp_ids; _ } -> "GROUP_ACK(" ^ str (List.length mp_ids) ^ " minipages)"
  | Group_replan { drop; _ } -> "GROUP_REPLAN(-" ^ str drop ^ " batches)"
  (* [Rc_data] keeps "REPLY_" and [Rc_diff] keeps "DATA" in their labels so
     the profiler's cause buckets classify both as data traffic. *)
  | Rc_data { info; _ } -> tag "REPLY_RC(mp" info.mp_id
  | Rc_diff { mp_id; _ } -> tag "DIFF_DATA(mp" mp_id
  | Rc_diff_ack { mp_id; _ } -> tag "DIFF_ACK(mp" mp_id
  | Mode_switch { mp_id; mode; epoch; _ } ->
    "MODE_SWITCH(mp" ^ str mp_id ^ " " ^ mode_to_string mode ^ tag " e" epoch
  | Mode_ack { mp_id; epoch; data; _ } ->
    "MODE_ACK(mp" ^ str mp_id ^ " e" ^ str epoch
    ^ (match data with Some _ -> " +data)" | None -> ")")
  | Heartbeat { from; beat } -> "HEARTBEAT(h" ^ str from ^ tag " b" beat
  | Dead_notice { dead } -> tag "DEAD_NOTICE(h" dead
  | Log_append { primary; lseq; record } ->
    "LOG_APPEND(h" ^ str primary ^ " #" ^ str lseq ^ " " ^ describe_record record ^ ")"
  (* a [Data] keeps its body's label, so a trace labels a message the same
     on either fabric *)
  | Data { body; _ } -> describe body
  | Tack { seq } -> tag "TACK(s" seq
