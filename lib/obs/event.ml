type access = Read | Write

let access_to_string = function Read -> "read" | Write -> "write"

type phase = Queue_wait | Network | Invalidation | Wakeup

type kind =
  | Fault of { access : access; addr : int; view : int; vpage : int }
  | Fault_done of { access : access }
  | Request of { access : access; addr : int; prefetch : bool }
  | Queued of { mp_id : int; depth : int }
  | Dequeued of { mp_id : int; waited_us : float }
  | Forward of { access : access; mp_id : int; supplier : int }
  | Reply of { access : access; mp_id : int; bytes : int }
  | Inval of { mp_id : int; target : int; writer : int }
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
  | Net_dup of { dst : int; label : string }
  | Net_reorder of { dst : int; label : string }
  | Retransmit of { dst : int; seq : int; attempt : int; label : string }
  | Dup_suppressed of { src : int; seq : int; label : string }
  | Sweeper_wake
  | Host_crash
  | Host_stall of { until : float }
  | Heartbeat_miss of { missed : int }
  | Suspect
  | Declare_dead
  | Dead_notice of { dead : int }
  | Shadow_refresh of { mp_id : int; bytes : int }
  | Shadow_sync of { refreshed : int }
  | Recover_minipage of { mp_id : int; lost : bool }
  | Lease_revoke of { lock : int; next : int }
  | Barrier_reconfig of { bphase : int; expected : int }
  | Home_assign of { mp_id : int; home : int }
  | Home_redirect of { mp_id : int; old_home : int; new_home : int }
  | Log_append of { primary : int; backup : int; lseq : int; record : string }
  | Log_apply of { primary : int; lseq : int; record : string }
  | Backup_promote of { primary : int; backup : int; entries : int; applied : int }
  | Log_replay of { primary : int; mp_id : int; via : string }
  | Mp_map of {
      mp_id : int;
      view : int;
      base_addr : int;
      length : int;
      first_vpage : int;
      last_vpage : int;
    }
  | Mark of { kind : string; detail : string }

type t = { time : float; host : int; span : int; kind : kind }

let no_span = 0

let kind_name = function
  | Fault _ -> "FAULT"
  | Fault_done _ -> "FAULT_DONE"
  | Request _ -> "REQUEST"
  | Queued _ -> "QUEUE"
  | Dequeued _ -> "DEQUEUE"
  | Forward _ -> "FORWARD"
  | Reply _ -> "REPLY"
  | Inval _ -> "INVAL"
  | Inval_ack _ -> "INVAL_ACK"
  | Ack _ -> "ACK"
  | Barrier_enter _ -> "BARRIER_ENTER"
  | Barrier_exit _ -> "BARRIER_EXIT"
  | Lock_acquire _ -> "LOCK_ACQ"
  | Lock_grant _ -> "LOCK_GRANT"
  | Lock_release _ -> "LOCK_REL"
  | Prefetch _ -> "PREFETCH"
  | Msg_send _ -> "SEND"
  | Msg_recv _ -> "RECV"
  | Net_drop _ -> "NET_DROP"
  | Net_dup _ -> "NET_DUP"
  | Net_reorder _ -> "NET_REORDER"
  | Retransmit _ -> "RETRANSMIT"
  | Dup_suppressed _ -> "DUP_SUPPRESSED"
  | Sweeper_wake -> "SWEEPER"
  | Host_crash -> "HOST_CRASH"
  | Host_stall _ -> "HOST_STALL"
  | Heartbeat_miss _ -> "HEARTBEAT_MISS"
  | Suspect -> "SUSPECT"
  | Declare_dead -> "DECLARE_DEAD"
  | Dead_notice _ -> "DEAD_NOTICE"
  | Shadow_refresh _ -> "SHADOW_REFRESH"
  | Shadow_sync _ -> "SHADOW_SYNC"
  | Recover_minipage _ -> "RECOVER_MINIPAGE"
  | Lease_revoke _ -> "LEASE_REVOKE"
  | Barrier_reconfig _ -> "BARRIER_RECONFIG"
  | Home_assign _ -> "HOME_ASSIGN"
  | Home_redirect _ -> "HOME_REDIRECT"
  | Log_append _ -> "LOG_APPEND"
  | Log_apply _ -> "LOG_APPLY"
  | Backup_promote _ -> "BACKUP_PROMOTE"
  | Log_replay _ -> "LOG_REPLAY"
  | Mp_map _ -> "MP_MAP"
  | Mark m -> m.kind

let detail = function
  | Fault { access; addr; view; vpage } ->
    Printf.sprintf "%s @%d (view %d, vpage %d)" (access_to_string access) addr view vpage
  | Fault_done { access } -> access_to_string access
  | Request { access; addr; prefetch } ->
    Printf.sprintf "%s @%d%s" (access_to_string access) addr
      (if prefetch then " (prefetch)" else "")
  | Queued { mp_id; depth } -> Printf.sprintf "mp%d depth %d" mp_id depth
  | Dequeued { mp_id; waited_us } -> Printf.sprintf "mp%d waited %.1f" mp_id waited_us
  | Forward { access; mp_id; supplier } ->
    if supplier < 0 then Printf.sprintf "%s mp%d (upgrade)" (access_to_string access) mp_id
    else Printf.sprintf "%s mp%d via h%d" (access_to_string access) mp_id supplier
  | Reply { access; mp_id; bytes } ->
    Printf.sprintf "%s mp%d (%d bytes)" (access_to_string access) mp_id bytes
  | Inval { mp_id; target; writer } ->
    if writer < 0 then Printf.sprintf "mp%d -> h%d" mp_id target
    else Printf.sprintf "mp%d -> h%d (writer h%d)" mp_id target writer
  | Inval_ack { mp_id; from } -> Printf.sprintf "mp%d from h%d" mp_id from
  | Ack { mp_id; from } -> Printf.sprintf "mp%d from h%d" mp_id from
  | Barrier_enter { bphase } -> Printf.sprintf "phase %d" bphase
  | Barrier_exit { bphase } -> Printf.sprintf "phase %d" bphase
  | Lock_acquire { lock } -> Printf.sprintf "l%d" lock
  | Lock_grant { lock } -> Printf.sprintf "l%d" lock
  | Lock_release { lock } -> Printf.sprintf "l%d" lock
  | Prefetch { access; addr } -> Printf.sprintf "%s @%d" (access_to_string access) addr
  | Msg_send { dst; bytes; label } -> Printf.sprintf "%s -> h%d (%d bytes)" label dst bytes
  | Msg_recv { src; bytes; label } ->
    Printf.sprintf "%s from h%d (%d bytes)" label src bytes
  | Net_drop { dst; bytes; label } ->
    Printf.sprintf "%s -> h%d (%d bytes) dropped" label dst bytes
  | Net_dup { dst; label } -> Printf.sprintf "%s -> h%d duplicated" label dst
  | Net_reorder { dst; label } -> Printf.sprintf "%s -> h%d reordered" label dst
  | Retransmit { dst; seq; attempt; label } ->
    Printf.sprintf "%s -> h%d s%d (attempt %d)" label dst seq attempt
  | Dup_suppressed { src; seq; label } ->
    if seq < 0 then Printf.sprintf "%s from h%d" label src
    else Printf.sprintf "%s from h%d s%d" label src seq
  | Sweeper_wake -> ""
  | Host_crash -> ""
  | Host_stall { until } -> Printf.sprintf "until %.1f" until
  | Heartbeat_miss { missed } -> Printf.sprintf "%d missed" missed
  | Suspect -> ""
  | Declare_dead -> ""
  | Dead_notice { dead } -> Printf.sprintf "h%d is dead" dead
  | Shadow_refresh { mp_id; bytes } -> Printf.sprintf "mp%d (%d bytes)" mp_id bytes
  | Shadow_sync { refreshed } -> Printf.sprintf "%d minipages" refreshed
  | Recover_minipage { mp_id; lost } ->
    Printf.sprintf "mp%d%s" mp_id (if lost then " (LOST)" else "")
  | Lease_revoke { lock; next } ->
    if next < 0 then Printf.sprintf "l%d (no waiter)" lock
    else Printf.sprintf "l%d -> h%d" lock next
  | Barrier_reconfig { bphase; expected } ->
    Printf.sprintf "phase %d now expects %d" bphase expected
  | Home_assign { mp_id; home } -> Printf.sprintf "mp%d -> h%d" mp_id home
  | Home_redirect { mp_id; old_home; new_home } ->
    Printf.sprintf "mp%d h%d -> h%d" mp_id old_home new_home
  | Log_append { primary; backup; lseq; record } ->
    Printf.sprintf "h%d #%d %s -> h%d" primary lseq record backup
  | Log_apply { primary; lseq; record } ->
    Printf.sprintf "h%d #%d %s" primary lseq record
  | Backup_promote { primary; backup; entries; applied } ->
    Printf.sprintf "h%d -> h%d (%d entries, log #%d)" primary backup entries applied
  | Log_replay { primary; mp_id; via } ->
    if mp_id < 0 then Printf.sprintf "h%d via %s" primary via
    else Printf.sprintf "h%d mp%d via %s" primary mp_id via
  | Mp_map { mp_id; view; base_addr; length; first_vpage; last_vpage } ->
    Printf.sprintf "mp%d view %d @%d len %d vpages %d-%d" mp_id view base_addr
      length first_vpage last_vpage
  | Mark m -> m.detail

(* minimal JSON string escaping: the labels we emit are ASCII *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json e =
  Printf.sprintf
    "{\"ts\":%.3f,\"host\":%d,\"span\":%d,\"kind\":\"%s\",\"detail\":\"%s\"}" e.time
    e.host e.span
    (json_escape (kind_name e.kind))
    (json_escape (detail e.kind))
