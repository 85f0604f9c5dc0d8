type fault_state = {
  mutable f_access : Event.access;
  mutable f_host : int;  (* primary faulting host; -1 for pure prefetch *)
  mutable f_start : float;  (* fault (or request) begin time *)
  mutable f_started : bool;  (* a thread is actually blocked on this span *)
  mutable f_queue : float;  (* accumulated manager queue wait *)
  mutable f_queue_enter : float;
  mutable f_inval : float;  (* accumulated invalidation round time *)
  mutable f_inval_enter : float;
  mutable f_reply : float;  (* when the reply/grant landed; nan until then *)
  mutable f_waiters : int;
}

(* The ring holds up to [capacity] events.  [buf] starts empty and doubles
   as events land, so a run pays for the events it records, not for the
   bound; once [buf] reaches [capacity] it wraps. *)
type t = {
  mutable capacity : int;
  mutable buf : Event.t array;
  mutable next : int;  (* total events ever recorded *)
  mutable on : bool;
  metrics : Metrics.t;
  faults : (int, fault_state) Hashtbl.t;
  mutable tap : (Event.t -> unit) option;
}

(* Fills the slots no event holds.  Its fields are all literals, so it is
   static data, never a young block: filling a major-heap ring with it
   neither forces a minor collection nor adds remembered-set entries. *)
let filler = { Event.time = 0.0; host = 0; span = 0; kind = Event.Sweeper_wake }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Recorder.create";
  {
    capacity;
    buf = [||];
    next = 0;
    on = false;
    metrics = Metrics.create ();
    faults = Hashtbl.create 64;
    tap = None;
  }

let enabled t = t.on
let set_enabled t on = t.on <- on
let metrics t = t.metrics
let set_tap t tap = t.tap <- tap

let set_capacity t capacity =
  if capacity <= 0 then invalid_arg "Recorder.set_capacity";
  t.capacity <- capacity;
  t.buf <- [||];
  t.next <- 0

(* Doubles [buf], capped at [capacity]. *)
let grow t =
  let len = Array.length t.buf in
  t.buf <-
    (if len = 0 then Array.make 1 filler
     else if 2 * len <= t.capacity then Array.append t.buf t.buf
     else Array.append t.buf (Array.sub t.buf 0 (t.capacity - len)))

let record t ~time ~host ?(span = Event.no_span) kind =
  if t.on then begin
    let e = { Event.time; host; span; kind } in
    (* [i] reaches the end of [buf] only while [buf] is still growing *)
    let i = t.next mod t.capacity in
    if i = Array.length t.buf then grow t;
    t.buf.(i) <- e;
    t.next <- t.next + 1;
    match t.tap with None -> () | Some f -> f e
  end

let events t =
  let start = max 0 (t.next - t.capacity) in
  let out = ref [] in
  for i = t.next - 1 downto start do
    out := t.buf.(i mod t.capacity) :: !out
  done;
  !out

let dropped t = max 0 (t.next - t.capacity)

(* Keeps the grown ring, so a recorder cleared between runs does not regrow
   it; the filler leaves no event reachable. *)
let clear t =
  Array.fill t.buf 0 (Array.length t.buf) filler;
  t.next <- 0;
  Hashtbl.reset t.faults

let observe t ?bucket_width ?buckets name x =
  if t.on then Metrics.observe t.metrics ?bucket_width ?buckets name x

let incr t name = if t.on then Metrics.incr t.metrics name
let gauge_set t name v = if t.on then Metrics.gauge_set t.metrics name v

(* ------------------------------------------------------------------ *)
(* Fault-service spans                                                 *)
(* ------------------------------------------------------------------ *)

let fresh_state () =
  {
    f_access = Event.Read;
    f_host = -1;
    f_start = nan;
    f_started = false;
    f_queue = 0.0;
    f_queue_enter = nan;
    f_inval = 0.0;
    f_inval_enter = nan;
    f_reply = nan;
    f_waiters = 0;
  }

let state t span =
  match Hashtbl.find_opt t.faults span with
  | Some s -> s
  | None ->
    let s = fresh_state () in
    Hashtbl.add t.faults span s;
    s

let fault_begin t ~time ~host ~span ~access ~addr ~view ~vpage =
  if t.on then begin
    record t ~time ~host ~span (Event.Fault { access; addr; view; vpage });
    incr t (match access with Event.Read -> "fault.read" | Event.Write -> "fault.write");
    let s = state t span in
    s.f_waiters <- s.f_waiters + 1;
    if not s.f_started then begin
      (* first blocked thread claims the span (it may have started life as a
         prefetch); its wait defines the span's latency attribution *)
      s.f_started <- true;
      s.f_access <- access;
      s.f_host <- host;
      s.f_start <- time
    end
  end

let request_sent t ~time ~host ~span ~access ~addr ~prefetch =
  if t.on then begin
    record t ~time ~host ~span (Event.Request { access; addr; prefetch });
    if prefetch then begin
      let s = state t span in
      s.f_access <- access;
      s.f_start <- time
    end
  end

let queue_enter t ~time ~host ~span ~mp_id ~depth =
  if t.on then begin
    record t ~time ~host ~span (Event.Queued { mp_id; depth });
    gauge_set t "manager.queue_depth" (float_of_int depth);
    incr t "manager.queued";
    let s = state t span in
    s.f_queue_enter <- time
  end

let queue_exit t ~time ~host ~span ~mp_id ~depth =
  if t.on then begin
    let s = state t span in
    let waited =
      if Float.is_nan s.f_queue_enter then 0.0 else time -. s.f_queue_enter
    in
    s.f_queue <- s.f_queue +. waited;
    s.f_queue_enter <- nan;
    record t ~time ~host ~span (Event.Dequeued { mp_id; waited_us = waited });
    gauge_set t "manager.queue_depth" (float_of_int depth)
  end

let forward t ~time ~host ~span ~access ~mp_id ~supplier =
  if t.on then record t ~time ~host ~span (Event.Forward { access; mp_id; supplier })

let inval_send t ~time ~host ~span ~mp_id ~target ~writer =
  if t.on then begin
    record t ~time ~host ~span (Event.Inval { mp_id; target; writer });
    incr t "inval.sent";
    let s = state t span in
    if Float.is_nan s.f_inval_enter then s.f_inval_enter <- time
  end

let inval_ack t ~time ~host ~span ~mp_id ~from ~last =
  if t.on then begin
    record t ~time ~host ~span (Event.Inval_ack { mp_id; from });
    if last then begin
      let s = state t span in
      if not (Float.is_nan s.f_inval_enter) then begin
        s.f_inval <- s.f_inval +. (time -. s.f_inval_enter);
        s.f_inval_enter <- nan
      end
    end
  end

let reply t ~time ~host ~span ~access ~mp_id ~bytes =
  if t.on then begin
    record t ~time ~host ~span (Event.Reply { access; mp_id; bytes });
    match Hashtbl.find_opt t.faults span with
    | Some s ->
      s.f_reply <- time;
      if not s.f_started then begin
        (* nobody is blocked on this span: a pure prefetch completed *)
        let total = if Float.is_nan s.f_start then 0.0 else time -. s.f_start in
        observe t "prefetch.service" total;
        Hashtbl.remove t.faults span
      end
    | None -> ()
  end

let ack t ~time ~host ~span ~mp_id ~from =
  if t.on then record t ~time ~host ~span (Event.Ack { mp_id; from })

let fault_end t ~time ~host ~span =
  if t.on then begin
    match Hashtbl.find_opt t.faults span with
    | None -> record t ~time ~host ~span (Event.Fault_done { access = Event.Read })
    | Some s ->
      record t ~time ~host ~span (Event.Fault_done { access = s.f_access });
      if host = s.f_host then begin
        let total = time -. s.f_start in
        let wakeup = if Float.is_nan s.f_reply then 0.0 else time -. s.f_reply in
        let queue = s.f_queue and inval = s.f_inval in
        let network = Float.max 0.0 (total -. queue -. inval -. wakeup) in
        (* constant names, so a fault builds no string *)
        let total_s, queue_s, network_s, inval_s, wakeup_s =
          match s.f_access with
          | Event.Read ->
            ( "fault.read.total", "fault.read.queue_wait", "fault.read.network",
              "fault.read.invalidation", "fault.read.wakeup" )
          | Event.Write ->
            ( "fault.write.total", "fault.write.queue_wait", "fault.write.network",
              "fault.write.invalidation", "fault.write.wakeup" )
        in
        observe t total_s total;
        observe t queue_s queue;
        observe t network_s network;
        observe t inval_s inval;
        observe t wakeup_s wakeup
      end;
      s.f_waiters <- s.f_waiters - 1;
      if s.f_waiters <= 0 then Hashtbl.remove t.faults span
  end

(* ------------------------------------------------------------------ *)
(* Synchronization and messaging                                       *)
(* ------------------------------------------------------------------ *)

let barrier_enter t ~time ~host ~bphase =
  if t.on then begin
    record t ~time ~host (Event.Barrier_enter { bphase });
    incr t "barrier.enter"
  end

let barrier_exit t ~time ~host ~bphase ~waited_us =
  if t.on then begin
    record t ~time ~host (Event.Barrier_exit { bphase });
    observe t ~bucket_width:50.0 "barrier.wait" waited_us
  end

let lock_acquire t ~time ~host ~lock =
  if t.on then record t ~time ~host (Event.Lock_acquire { lock })

let lock_grant t ~time ~host ~lock ~waited_us =
  if t.on then begin
    record t ~time ~host (Event.Lock_grant { lock });
    observe t ~bucket_width:50.0 "lock.wait" waited_us
  end

let lock_release t ~time ~host ~lock =
  if t.on then record t ~time ~host (Event.Lock_release { lock })

let prefetch_issued t ~time ~host ~span ~access ~addr =
  if t.on then record t ~time ~host ~span (Event.Prefetch { access; addr })

let msg_send t ~time ~host ~dst ~bytes ~label =
  if t.on then record t ~time ~host (Event.Msg_send { dst; bytes; label })

let msg_recv t ~time ~host ~src ~bytes ~label ~queue_depth =
  if t.on then begin
    record t ~time ~host (Event.Msg_recv { src; bytes; label });
    gauge_set t "net.recv_queue_depth" (float_of_int queue_depth)
  end

let net_drop t ~time ~host ~dst ~bytes ~label =
  if t.on then begin
    record t ~time ~host (Event.Net_drop { dst; bytes; label });
    incr t "net.drops"
  end

let net_dup t ~time ~host ~dst ~label =
  if t.on then begin
    record t ~time ~host (Event.Net_dup { dst; label });
    incr t "net.dups"
  end

let net_reorder t ~time ~host ~dst ~label =
  if t.on then begin
    record t ~time ~host (Event.Net_reorder { dst; label });
    incr t "net.reorders"
  end

let retransmit t ~time ~host ~dst ~seq ~attempt ~label =
  if t.on then begin
    record t ~time ~host (Event.Retransmit { dst; seq; attempt; label });
    incr t "transport.retransmits"
  end

let dup_suppressed t ~time ~host ?(span = Event.no_span) ~src ~seq ~label () =
  if t.on then begin
    record t ~time ~host ~span (Event.Dup_suppressed { src; seq; label });
    incr t "transport.dups_suppressed"
  end

let sweeper_wake t ~time ~host =
  if t.on then begin
    record t ~time ~host Event.Sweeper_wake;
    incr t "sweeper.wakes"
  end

(* ------------------------------------------------------------------ *)
(* Crash faults                                                        *)
(* ------------------------------------------------------------------ *)

let host_crash t ~time ~host =
  if t.on then begin
    record t ~time ~host Event.Host_crash;
    incr t "ft.crashes"
  end

let host_stall t ~time ~host ~until =
  if t.on then begin
    record t ~time ~host (Event.Host_stall { until });
    incr t "ft.stalls"
  end

let heartbeat_miss t ~time ~host ~missed =
  if t.on then begin
    record t ~time ~host (Event.Heartbeat_miss { missed });
    incr t "ft.heartbeat_misses"
  end

let suspect t ~time ~host =
  if t.on then begin
    record t ~time ~host Event.Suspect;
    incr t "ft.suspects"
  end

let declare_dead t ~time ~host =
  if t.on then begin
    record t ~time ~host Event.Declare_dead;
    incr t "ft.declared_dead"
  end

let dead_notice t ~time ~host ~dead =
  if t.on then record t ~time ~host (Event.Dead_notice { dead })

let shadow_refresh t ~time ~host ~mp_id ~bytes =
  if t.on then begin
    record t ~time ~host (Event.Shadow_refresh { mp_id; bytes });
    incr t "ft.shadow_refreshes"
  end

let shadow_sync t ~time ~host ~refreshed =
  if t.on then begin
    record t ~time ~host (Event.Shadow_sync { refreshed });
    incr t "ft.shadow_syncs"
  end

let recover_minipage t ~time ~host ~span ~mp_id ~lost =
  if t.on then begin
    record t ~time ~host ~span (Event.Recover_minipage { mp_id; lost });
    incr t (if lost then "ft.lost_minipages" else "ft.recovered_minipages")
  end

let lease_revoke t ~time ~host ~lock ~next =
  if t.on then begin
    record t ~time ~host (Event.Lease_revoke { lock; next });
    incr t "ft.lease_revokes"
  end

let barrier_reconfig t ~time ~host ~bphase ~expected =
  if t.on then begin
    record t ~time ~host (Event.Barrier_reconfig { bphase; expected });
    incr t "ft.barrier_reconfigs"
  end

(* ------------------------------------------------------------------ *)
(* Sharded home-based management                                       *)
(* ------------------------------------------------------------------ *)

let home_assign t ~time ~host ~mp_id ~home =
  if t.on then begin
    record t ~time ~host (Event.Home_assign { mp_id; home });
    incr t "homes.assigns"
  end

let home_redirect t ~time ~host ~span ~mp_id ~old_home ~new_home =
  if t.on then begin
    record t ~time ~host ~span (Event.Home_redirect { mp_id; old_home; new_home });
    incr t "homes.redirects"
  end

(* ---------------- replicated home shards ---------------- *)

let log_append t ~time ~host ~span ~primary ~backup ~lseq ~record_tag =
  if t.on then begin
    record t ~time ~host ~span (Event.Log_append { primary; backup; lseq; record = record_tag });
    incr t "replicate.log_appends"
  end

let log_apply t ~time ~host ~span ~primary ~lseq ~record_tag =
  if t.on then begin
    record t ~time ~host ~span (Event.Log_apply { primary; lseq; record = record_tag });
    incr t "replicate.log_applies"
  end

let backup_promote t ~time ~host ~primary ~backup ~entries ~applied =
  if t.on then begin
    record t ~time ~host (Event.Backup_promote { primary; backup; entries; applied });
    incr t "replicate.promotions"
  end

let log_replay t ~time ~host ?(span = Event.no_span) ~primary ~mp_id ~via () =
  if t.on then begin
    record t ~time ~host ~span (Event.Log_replay { primary; mp_id; via });
    incr t "replicate.replays";
    if via = "protections" || via = "completion" then incr t "replicate.tail_repairs"
  end

let mp_map t ~time ~host ~mp_id ~view ~base_addr ~length ~first_vpage ~last_vpage =
  if t.on then
    record t ~time ~host
      (Event.Mp_map { mp_id; view; base_addr; length; first_vpage; last_vpage })

let home_queue_depth t ~home ~depth =
  if t.on then
    gauge_set t (Printf.sprintf "home.h%d.queue_depth" home) (float_of_int depth)
