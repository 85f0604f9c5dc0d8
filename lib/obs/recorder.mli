(** The observability recorder: a bounded ring of typed events plus a
    metrics registry, with span bookkeeping that attributes each fault
    service phase by phase (manager queue wait / network / invalidation /
    thread wakeup) into latency distributions.

    Everything is a no-op while disabled (the default), so instrumentation
    can stay in the hot path.  One recorder per DSM instance; hosts share it
    (the simulation is single-threaded). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536) bounds the ring: once it holds that many
    events, older ones are dropped (the metrics registry is unaffected by
    drops).  It is a bound, not an allocation: the ring starts empty and
    doubles as events land, so a recorder costs what it holds. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val set_tap : t -> (Event.t -> unit) option -> unit
(** A passive observer invoked synchronously from {!record} for every event
    appended while the recorder is enabled.  Unlike the ring it never drops:
    the tap sees the full stream regardless of capacity.  The tap must not
    raise and must not touch the simulation — it exists so consumers like
    {!Profile} can stream-process events without growing the ring. *)

val set_capacity : t -> int -> unit
(** Empty the ring and set its bound — call before a run that needs the full
    event stream, e.g. for export or invariant checking.  A large bound
    costs nothing until events fill it. *)

val record : t -> time:float -> host:int -> ?span:int -> Event.kind -> unit
(** Raw append; the typed hooks below are preferred where they apply. *)

val events : t -> Event.t list
(** Oldest first. *)

val dropped : t -> int

val clear : t -> unit
(** Empty the ring, keeping the array it has grown to. *)

val metrics : t -> Metrics.t

val observe : t -> ?bucket_width:float -> ?buckets:int -> string -> float -> unit
val incr : t -> string -> unit
val gauge_set : t -> string -> float -> unit
(** Metrics pass-throughs, gated on {!enabled}. *)

(** {2 Fault-service span hooks}

    [span] is the protocol request id.  A span's life: [fault_begin] (or
    [request_sent ~prefetch:true]) → optional [queue_enter]/[queue_exit] and
    invalidation round at the manager → [reply] at the faulting host →
    [fault_end] once the thread runs again.  The first blocked thread owns
    the span; joiners only add {!Event.Fault}/{!Event.Fault_done} events. *)

val fault_begin :
  t -> time:float -> host:int -> span:int -> access:Event.access -> addr:int ->
  view:int -> vpage:int -> unit

val request_sent :
  t -> time:float -> host:int -> span:int -> access:Event.access -> addr:int ->
  prefetch:bool -> unit

val queue_enter :
  t -> time:float -> host:int -> span:int -> mp_id:int -> depth:int -> unit

val queue_exit :
  t -> time:float -> host:int -> span:int -> mp_id:int -> depth:int -> unit

val forward :
  t -> time:float -> host:int -> span:int -> access:Event.access -> mp_id:int ->
  supplier:int -> unit

val inval_send :
  t -> time:float -> host:int -> span:int -> mp_id:int -> target:int ->
  writer:int -> unit
(** [writer] is the host whose write triggered the invalidation round
    ([-1] when unknown). *)

val inval_ack :
  t -> time:float -> host:int -> span:int -> mp_id:int -> from:int -> last:bool -> unit

val reply :
  t -> time:float -> host:int -> span:int -> access:Event.access -> mp_id:int ->
  bytes:int -> unit
val ack : t -> time:float -> host:int -> span:int -> mp_id:int -> from:int -> unit
val fault_end : t -> time:float -> host:int -> span:int -> unit

(** {2 Synchronization and messaging} *)

val barrier_enter : t -> time:float -> host:int -> bphase:int -> unit
val barrier_exit : t -> time:float -> host:int -> bphase:int -> waited_us:float -> unit
val lock_acquire : t -> time:float -> host:int -> lock:int -> unit
val lock_grant : t -> time:float -> host:int -> lock:int -> waited_us:float -> unit
val lock_release : t -> time:float -> host:int -> lock:int -> unit

val prefetch_issued :
  t -> time:float -> host:int -> span:int -> access:Event.access -> addr:int -> unit

val msg_send : t -> time:float -> host:int -> dst:int -> bytes:int -> label:string -> unit

val msg_recv :
  t -> time:float -> host:int -> src:int -> bytes:int -> label:string ->
  queue_depth:int -> unit

(** {2 Fault injection and reliable transport} *)

val net_drop :
  t -> time:float -> host:int -> dst:int -> bytes:int -> label:string -> unit

val net_dup : t -> time:float -> host:int -> dst:int -> label:string -> unit
val net_reorder : t -> time:float -> host:int -> dst:int -> label:string -> unit

val retransmit :
  t -> time:float -> host:int -> dst:int -> seq:int -> attempt:int ->
  label:string -> unit

val dup_suppressed :
  t -> time:float -> host:int -> ?span:int -> src:int -> seq:int ->
  label:string -> unit -> unit
(** [seq < 0] marks a protocol-level duplicate (e.g. a retransmitted request
    deduplicated at the manager by request id, carried in [span]). *)

val sweeper_wake : t -> time:float -> host:int -> unit

(** {2 Crash faults}

    [host] is the affected host: the crashed/stalled/suspected one, the
    receiver for {!dead_notice}, the manager for shadow/recovery events. *)

val host_crash : t -> time:float -> host:int -> unit
val host_stall : t -> time:float -> host:int -> until:float -> unit
val heartbeat_miss : t -> time:float -> host:int -> missed:int -> unit
val suspect : t -> time:float -> host:int -> unit
val declare_dead : t -> time:float -> host:int -> unit
val dead_notice : t -> time:float -> host:int -> dead:int -> unit
val shadow_refresh : t -> time:float -> host:int -> mp_id:int -> bytes:int -> unit
val shadow_sync : t -> time:float -> host:int -> refreshed:int -> unit

val recover_minipage :
  t -> time:float -> host:int -> span:int -> mp_id:int -> lost:bool -> unit

val lease_revoke : t -> time:float -> host:int -> lock:int -> next:int -> unit
val barrier_reconfig : t -> time:float -> host:int -> bphase:int -> expected:int -> unit

(** {2 Sharded home-based management}

    [host] is the home performing (or learning) the assignment. *)

val home_assign : t -> time:float -> host:int -> mp_id:int -> home:int -> unit

val home_redirect :
  t -> time:float -> host:int -> span:int -> mp_id:int -> old_home:int ->
  new_home:int -> unit

(** {2 Replicated home shards}

    [span] carries the request id for completion records ({!Event.no_span}
    otherwise); [record_tag] is the log-record tag (["admit"], ["complete"],
    ["state"], ["shadow"]). *)

val log_append :
  t -> time:float -> host:int -> span:int -> primary:int -> backup:int ->
  lseq:int -> record_tag:string -> unit

val log_apply :
  t -> time:float -> host:int -> span:int -> primary:int -> lseq:int ->
  record_tag:string -> unit

val backup_promote :
  t -> time:float -> host:int -> primary:int -> backup:int -> entries:int ->
  applied:int -> unit

val log_replay :
  t -> time:float -> host:int -> ?span:int -> primary:int -> mp_id:int ->
  via:string -> unit -> unit
(** [via]: ["log"] (replica state installed as-is), ["protections"] (log
    tail repaired from survivors' page protections), ["open-admission"] or
    ["completion"] (an operation the log lost closed at promotion; request
    id in [span]).  The latter two bump ["replicate.tail_repairs"]. *)

val home_queue_depth : t -> home:int -> depth:int -> unit
(** Per-home queue-depth gauge ["home.h<i>.queue_depth"]; emitted by the DSM
    only under non-[Central] policies. *)

val mp_map :
  t -> time:float -> host:int -> mp_id:int -> view:int -> base_addr:int ->
  length:int -> first_vpage:int -> last_vpage:int -> unit
(** Minipage layout: maps a minipage id to its view, virtual base address and
    the vpage range it occupies.  Emitted at allocation time so stream
    consumers can resolve fault addresses to minipages and detect co-location
    (the false-sharing attribution in {!Profile}). *)
