(** A switched cluster interconnect with FastMessages semantics.

    Reliable, FIFO-ordered per (src, dst) channel, calibrated by default to
    the Illinois FM on Myrinet numbers of §3.5 / Table 1 (≈12 µs for a 32-byte
    header message, ≈90 µs for 4 KB, linear in between).

    Delivery is polling-driven: each host runs a server process that drains
    its receive queue and runs the registered handler on each message, one at
    a time — FM's run-to-completion handler model.  {e When} the queue is
    drained depends on the host's CPU state and the {!Polling.mode}: an idle
    host's poller notices messages almost immediately, a busy host waits for
    its sweeper tick (see {!Polling}).

    The message body is a type parameter; [bytes] is the simulated wire size
    used for cost accounting.

    An optional seeded fault-injection layer ({!faults}) can drop, duplicate,
    reorder and jitter messages per (src, dst) channel — off by default, in
    which case delivery keeps the exact FM guarantees above. *)

type 'a msg = private { src : int; dst : int; mutable bytes : int; mutable body : 'a }
(** A message as its handler sees it.  The record is the fabric's: it is
    reused for a later message on the same channel once the handler
    returns, so a handler reads its fields while it runs and keeps none of
    the record itself. *)

type faults = {
  drop : float;  (** probability a copy is discarded on the wire, [0, 1) *)
  duplicate : float;  (** probability a second copy is delivered *)
  reorder : float;
      (** probability a message escapes the per-channel FIFO clamp and may
          overtake earlier traffic *)
  jitter_us : float;  (** extra uniform latency in [0, jitter_us) µs *)
}

val no_faults : faults
(** All zero — the default: bit-for-bit identical behavior to a fabric built
    without fault parameters. *)

val faults_active : faults -> bool

type 'a t

(** One-way wire latency, linear in the message size: [base_us +
    per_byte_us * bytes] µs. *)
type latency = { base_us : float; per_byte_us : float }

val create :
  Mp_sim.Engine.t ->
  hosts:int ->
  ?latency:latency ->
  ?poll_idle_us:float ->
  ?polling:Polling.mode ->
  ?seed:int ->
  ?faults:faults ->
  ?fault_seed:int ->
  unit ->
  'a t
(** Defaults: the FM latency fit [11.4 µs + 0.0196 µs/byte], 2 µs idle-poll
    pickup, {!Polling.nt_mode}, seed 1, {!no_faults}, fault seed 9.

    Fault injection draws from a dedicated RNG root split per (src, dst)
    channel, so the schedule is deterministic in [fault_seed] and independent
    of the polling streams — enabling faults never perturbs fault-free
    timing machinery.  Raises [Invalid_argument] on out-of-range rates. *)

val default_latency : bytes:int -> float
(** The default fit's latency of a [bytes]-byte message. *)

val hosts : 'a t -> int
val engine : 'a t -> Mp_sim.Engine.t

val set_handler : 'a t -> host:int -> ('a msg -> unit) -> unit
(** Must be installed before the first send to [host].  The handler runs
    inside a simulated process and may delay/suspend; messages on one host
    are handled strictly sequentially in arrival order.  The message record
    stays valid until the handler returns, across its delays and
    suspensions, and not after (see {!msg}). *)

val send : 'a t -> src:int -> dst:int -> bytes:int -> 'a -> unit
(** Fire-and-forget, like [FM_send].  May be called from any process or
    callback.  Sending to yourself is allowed and goes through the same
    polling path. *)

val set_busy : 'a t -> host:int -> bool -> unit
(** Mark the host CPU as occupied by application computation; this is what
    routes message pickup to the sweeper instead of the poller. *)

val busy : 'a t -> host:int -> bool

val faulty : 'a t -> bool
(** Whether this fabric was created with any fault injection enabled. *)

type stats = private {
  mutable sent : int;  (** messages sent by live hosts *)
  mutable bytes : int;  (** their payload bytes *)
  mutable dropped : int;  (** copies the injected faults discarded *)
  mutable duplicated : int;  (** sends that delivered a second copy *)
  mutable reordered : int;  (** sends that escaped the FIFO clamp *)
}

val stats : 'a t -> stats
(** The fabric's live counts; the last three stay 0 without fault
    injection. *)

val queue_depth : 'a t -> host:int -> int
(** Messages arrived but not yet handled (for tests). *)

val crash : 'a t -> host:int -> unit
(** Silence the host's endpoint permanently: queued messages are discarded,
    in-flight and future traffic to it evaporates on arrival, and its own
    sends are swallowed, uncounted.  The host's server process must be
    killed separately (see [Engine.kill_group]).  Idempotent. *)

val stall : 'a t -> host:int -> until:float -> unit
(** Freeze the host's CPU until the given absolute time: no polls fire
    before [until], so arrived messages sit in the queue and are drained in
    one burst when the stall ends.  In-flight delivery is unaffected (the
    NIC still enqueues).  A shorter stall than one already in force is
    ignored; [stall] on a dead host is a no-op. *)

val dead : 'a t -> host:int -> bool

val stalled_until : 'a t -> host:int -> float
(** Absolute end of the host's current stall; [neg_infinity] when none. *)

val attach_obs :
  'a t -> obs:Mp_obs.Recorder.t -> describe:('a -> string) -> unit
(** Mirror every send, delivery and sweeper wake-up into [obs] as typed
    [Msg_send] / [Msg_recv] / [Sweeper_wake] events; [describe] renders a
    message body for trace labels, and is called only while [obs] is enabled.
    At most one recorder is attached; a second call replaces the first. *)
