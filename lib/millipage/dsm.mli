(** Millipage: a thin-layer, sequentially consistent, fine-grain DSM.

    One simulated process per host.  Each minipage has a {e home} host that
    runs its Figure-3 state machine (directory lookup, forwards,
    invalidations); the home is assigned at {!malloc} by the configured
    {!Config.Homes.policy}.  Under the default [Central] policy host 0 homes
    everything — the paper's single-manager protocol, bit-identical to the
    pre-sharding implementation.  Application threads run as simulated
    processes and access shared memory through {!ctx} accessors; a protection
    violation raises a (simulated) page fault whose handler executes the
    protocol of Figure 3: request → home translate/forward → replica reply
    directly into the privileged view → protection upgrade → wake → ack.

    Usage: create the system, allocate and initialize shared memory, spawn
    one or more application threads per host, then {!run}.  Allocation and
    initialization writes are an init-phase facility (host 0 owns every fresh
    minipage, so they involve no protocol traffic). *)

type t
type ctx
(** Handle given to each application thread. *)

module Config : sig
  (** Unreliable-network knobs: injected fabric faults and the hop-by-hop
      reliable transport that masks them.  Inert under
      {!Mp_net.Fabric.no_faults}. *)
  module Net : sig
    type t = {
      faults : Mp_net.Fabric.faults;
          (** network fault injection; {!Mp_net.Fabric.no_faults} (the
              default) keeps the fabric's reliable FM semantics bit-for-bit *)
      seed : int;  (** seed of the fault-injection RNG root *)
      rto_us : float;
          (** initial transport retransmission timeout (µs); only meaningful
              with faults active *)
      rto_backoff : float;  (** timeout multiplier per retry *)
      max_retries : int;
          (** retransmissions per packet before the run is declared
              unrecoverable ([Failure]) *)
    }

    val default : t
    (** No faults; RTO 5 ms ×2 up to 12 retries when enabled. *)
  end

  (** Crash-fault tolerance knobs: injected host crashes/stalls, the
      heartbeat failure detector, and the deadlock watchdog.  [None] (the
      default) spawns no extra process and sends no extra message — fault-free
      runs are bit-identical to a build without the subsystem. *)
  module Ft : sig
    type t = {
      hb_interval_us : float;  (** heartbeat period per host *)
      suspect_after_us : float;  (** silence before a host is suspected *)
      declare_after_us : float;
          (** silence before a suspect is declared dead; a stall shorter than
              this survives (the suspicion is retracted) *)
      crashes : (int * float) list;  (** (host, time µs): fail-stop *)
      stalls : (int * float * float) list;  (** (host, time µs, duration µs) *)
      deadlock_ticks : int;
          (** detector ticks without protocol progress before {!Deadlock} *)
    }

    val default : t
    (** 1 ms heartbeats, suspect after 3 ms, declare after 8 ms, no injected
        faults, deadlock after 500 idle ticks. *)
  end

  (** Home assignment: which host runs each minipage's directory state
      machine. *)
  module Homes : sig
    type policy =
      | Central  (** everything homed at host 0 (paper §3, Figure 3) *)
      | Round_robin  (** minipage id mod hosts *)
      | Block  (** contiguous runs of [block] minipage ids per home *)
      | First_toucher
          (** homed at host 0 until first touched; the first remote requester
              becomes the home (a one-time migration, learned lazily by the
              other hosts through the redirect path) *)

    type t = { policy : policy; block : int }

    val default : t
    (** [Central], block size 8. *)

    val central : t
    val round_robin : t

    val block : int -> t
    (** [block n] homes runs of [n] consecutive minipage ids per host. *)

    val first_toucher : t

    val policy_name : policy -> string
    (** ["central"], ["rr"], ["block"], ["ft"]. *)

    val policy_of_string : string -> policy option
    (** Inverse of {!policy_name}; also accepts ["round-robin"] and
        ["first-toucher"]. *)

    val backup_of : hosts:int -> int -> int
    (** Backup placement: [backup_of ~hosts home] is the host that receives
        [home]'s directory log, and takes over its shard when [home] is
        declared dead — the next host, mod the host count. *)
  end

  (** Per-minipage consistency: which protocol serves each minipage, as a
      first-class run mode.  [`Sc] is the paper's Figure-3 single-writer
      invalidation protocol and is bit-identical to the pre-mode build;
      [`Rc] serves every minipage with the multi-writer release-consistent
      path (twins on write fault, run-length diffs flushed to the home's
      master copy at release, conservative invalidation at acquire);
      [`Adaptive] starts everything under SC and lets the online governor
      switch individual minipages between the two at sync points, fed by the
      same sharing signatures the profiler computes. *)
  module Consistency : sig
    type mode = [ `Sc | `Rc | `Adaptive ]

    type t = {
      mode : mode;
      adapt_interval : int;
          (** the governor evaluates its shard every [adapt_interval]
              barrier phases *)
      promote_after : int;
          (** consecutive write-shared/falsely-shared evaluations before an
              SC minipage is promoted to RC *)
      demote_after : int;
          (** consecutive migratory/read-mostly/private evaluations before
              an RC minipage is demoted back to SC *)
    }

    val default : t
    (** [`Sc], evaluate every 2 phases, promote after 2, demote after 2. *)

    val sc : t
    val rc : t
    val adaptive : t

    val with_adapt_interval : t -> int -> t
    (** Raises [Invalid_argument] below 1. *)

    val with_hysteresis : t -> ?promote_after:int -> ?demote_after:int -> unit -> t

    val mode_name : mode -> string
    (** ["sc"], ["rc"], ["adaptive"]. *)

    val mode_of_string : string -> mode option
    (** Inverse of {!mode_name}. *)
  end

  type t = {
    views : int;  (** application views mapped at initialization (§2.4) *)
    object_size : int;  (** shared memory object size, bytes *)
    page_size : int;
    chunking : Mp_multiview.Allocator.chunking;
    cost : Cost_model.t;
    polling : Mp_net.Polling.mode;
    seed : int;
    net : Net.t;  (** network faults + reliable transport *)
    ft : Ft.t option;  (** crash-fault tolerance; [None] disables it entirely *)
    homes : Homes.t;  (** home-assignment policy (default [Central]) *)
    consistency : Consistency.t;
        (** per-minipage protocol modes (default pure SC — bit-identical to
            the pre-mode build) *)
  }

  val default : t
  (** 32 views, 16 MB object, 4 KB pages, no chunking, Table 1 costs,
      NT-timer polling, no faults, no crash-fault tolerance, central homes,
      pure SC consistency.  Build any other config by record update,
      [{ default with homes = Homes.round_robin }]. *)

  val with_seed : t -> int -> t
  val with_faults : t -> Mp_net.Fabric.faults -> t
  val with_net_seed : t -> int -> t
  (** [with_faults] and [with_net_seed] set [net.faults] and [net.seed]. *)
end

exception Deadlock of string
(** The run stopped making progress with live application threads still
    blocked; the message lists the blocked processes and the directory
    queue state. *)

exception Crash_unrecoverable of string
(** The typed fail-stop of crash recovery.  Raised when a home is declared
    dead while its backup ({!Config.Homes.backup_of}) is already dead and
    its shard holds any entry — the message names both hosts, e.g. "home 2
    and its backup 3 both died" — and when a survivor touches a minipage
    that died with its sole owner before any shadow of it existed (the
    message names the lost minipages). *)

val create : Mp_sim.Engine.t -> hosts:int -> ?config:Config.t -> unit -> t

val engine : t -> Mp_sim.Engine.t
val hosts : t -> int

val home_of : t -> addr:int -> int
(** Current home of the minipage holding [addr] — the host running its
    directory state machine.  Valid any time after the address was
    allocated; under [First_toucher] or after a backup promotion the answer
    can change over the run. *)

val homes : t -> int array
(** Home of every allocated minipage, indexed by minipage id. *)

(** {2 Init phase} *)

val malloc : t -> int -> int
(** Allocate from the shared region; returns the virtual address (valid on
    every host).  The fresh minipage's home is assigned here by the
    configured policy.  Must happen before {!run}. *)

val malloc_array : t -> count:int -> size:int -> int array
(** [count] successive allocations of [size] bytes each. *)

val init_write_f64 : t -> int -> float -> unit
val init_write_int : t -> int -> int -> unit
val init_write_i32 : t -> int -> int32 -> unit
val init_write_f32 : t -> int -> float -> unit
val init_write_u8 : t -> int -> int -> unit
(** Host-0 initialization writes; free of simulated cost. *)

val spawn : t -> host:int -> ?name:string -> (ctx -> unit) -> unit
(** Register an application thread.  Spawn all threads before {!run};
    barriers synchronize every spawned thread. *)

val run : t -> unit
(** Drive the simulation to completion.  Raises {!Deadlock} if live
    application threads remain blocked when the event queue drains (or, with
    crash-fault tolerance on, when the watchdog sees no progress), and
    {!Crash_unrecoverable} when a crash takes out a home together with its
    backup. *)

(** {2 Application-thread operations} *)

val host : ctx -> int

val read_f64 : ctx -> int -> float
val write_f64 : ctx -> int -> float -> unit
val read_int : ctx -> int -> int
val write_int : ctx -> int -> int -> unit
val read_i32 : ctx -> int -> int32
val write_i32 : ctx -> int -> int32 -> unit
val read_f32 : ctx -> int -> float
val write_f32 : ctx -> int -> float -> unit
val read_u8 : ctx -> int -> int
val write_u8 : ctx -> int -> int -> unit

val compute : ctx -> float -> unit
(** Occupy this host's CPU for the given µs of application computation (the
    host is marked busy, degrading its responsiveness to requests under
    NT-timer polling). *)

val barrier : ctx -> unit
(** Global barrier across every spawned thread.  Each barrier phase is homed
    on its own host ([phase mod live hosts] under a sharded policy), so
    barrier traffic does not queue behind a loaded manager. *)

val lock : ctx -> int -> unit
val unlock : ctx -> int -> unit
(** Locks are homed per lock id, like barriers. *)

val prefetch : ctx -> int -> Proto.access -> unit
(** Fire-and-forget fetch of the minipage holding the given address; a later
    access that would have faulted finds the copy already present (§4.3.1's
    LU prefetch calls).  No-op when access is already legal. *)

val push_to_all : ctx -> int -> unit
(** Distribute fresh read copies of the minipage holding the address to all
    hosts (the TSP minimal-tour update).  The caller must hold the writable
    copy; blocks until every host has been updated. *)

(** {2 Composed views (§5)}

    A composed view groups minipages so the application can arbitrate
    between granularities: fetch the whole group in one coarse-grain
    operation (per-supplier gathered data messages instead of one fault per
    minipage), then keep writing fine-grain.  This is the paper's proposed
    fix for WATER's read phase. *)

val compose : t -> int array -> int
(** [compose t addrs] registers the minipages holding the given addresses
    as a composed view (init phase only) and returns its id. *)

val fetch_group : ctx -> int -> unit
(** Bring read copies of every group member this host doesn't already hold.
    One sub-fetch goes to each distinct home among the members (a single
    round-trip under [Central]).  Members busy with a conflicting operation
    are skipped (they fault later on demand).  Blocks until all batches have
    landed. *)

(** {2 Statistics} *)

val breakdown : t -> host:int -> Breakdown.t
val breakdown_total : t -> Breakdown.t

val competing_requests : t -> int
(** Summed over every home shard. *)

val read_faults : t -> int
val write_faults : t -> int
val messages_sent : t -> int
val bytes_sent : t -> int
val mpt : t -> Mp_multiview.Mpt.t
val views_used : t -> int

type stats = private {
  mutable barriers_entered : int;  (** one per thread per barrier phase *)
  mutable locks_acquired : int;
  mutable invalidations : int;  (** INVALIDATEs sent by homes *)
  mutable data_replies : int;  (** data replies sent by suppliers *)
  mutable grant_upgrades : int;
      (** write grants to a host that already holds the data *)
  mutable pushes : int;  (** {!push_to_all} calls *)
  mutable groups_fetched : int;  (** {!fetch_group} calls *)
  mutable home_redirects : int;
      (** requests that reached a stale home and were redirected *)
  mutable home_migrations : int;  (** first-toucher moves of a home *)
  mutable resent_requests : int;
      (** faults re-sent under a fresh id after their home died *)
  mutable retransmits : int;  (** transport retransmissions *)
  mutable dups_suppressed : int;  (** duplicate packets the transport dropped *)
  mutable heartbeats_sent : int;
  mutable suspects : int;  (** hosts the failure detector began to suspect *)
  mutable suspect_recoveries : int;
      (** suspicions retracted before the declare timeout *)
  mutable leases_revoked : int;  (** locks taken from a dead holder *)
  mutable recovered_minipages : int;
      (** exclusively-dead-owned minipages re-materialized from shadow
          copies *)
  mutable shadow_syncs : int;
      (** barrier entries that refreshed any of the host's shadows *)
  mutable barrier_reconfigs : int;
      (** in-progress barriers rebuilt after their home died *)
  mutable barrier_release_replays : int;
      (** barrier releases re-sent after their releaser died *)
  mutable backup_promotions : int;
      (** dead homes whose shard was taken over by its backup *)
  mutable tail_repairs : int;
      (** promotion-time repairs of log records lost in the dead primary's
          final retransmission window (reachable only under message loss):
          completions re-installed from the corpse's table plus location
          state rebuilt from the survivors' page protections *)
  mutable rolled_back_minipages : int;
      (** sole-copy minipages whose dead owner wrote after the last sync,
          restored to the last released version *)
  mutable log_records_applied : int;
      (** directory-log records applied at backups (trails
          {!log_records_sent} by the in-flight tail) *)
  mutable rc_promotes : int;  (** minipages switched from SC to RC *)
  mutable rc_demotes : int;  (** and back, recovery-forced ones included *)
  mutable rc_twins : int;  (** twins created at RC write faults *)
  mutable rc_diffs : int;
      (** release-time diffs flushed to the masters (empty diffs are
          skipped) *)
  mutable rc_diff_bytes : int;
      (** total encoded bytes of those diffs — the quantity to weigh against
          the invalidation traffic SC would have sent *)
}

val stats : t -> stats
(** The run's counts.  The record is live: it changes as the run goes. *)

val obs : t -> Mp_obs.Recorder.t
(** The typed observability recorder (disabled by default;
    [Mp_obs.Recorder.set_enabled] it before {!run} to capture the protocol
    event stream): per-fault spans, phase latency metrics, Perfetto export. *)

val max_queue_depth : t -> int
(** High-water mark of requests queued behind in-flight operations, taken
    over every home shard. *)

val max_queue_depth_by_home : t -> int array
(** Per-home high-water queue depth (index = host id).  Under [Central] only
    index 0 is ever non-zero. *)

(** {2 Fault injection and reliable transport}

    When {!Config.Net.t.faults} enables any fault, protocol bodies travel in
    sequence-numbered {!Proto.Data} packets under a hop-by-hop ARQ: every
    Data is acknowledged with a {!Proto.Tack}, unacknowledged packets are
    retransmitted with exponential backoff, and receivers resequence and
    dedupe so the protocol still sees exactly-once FIFO delivery.  A
    reliable fabric carries bare bodies. *)

val faulty : t -> bool

val net_dropped : t -> int
val net_duplicated : t -> int
val net_reordered : t -> int
(** Faults the fabric actually injected during the run. *)

(** {2 Crash-fault tolerance}

    With {!Config.t.ft} set, every non-manager host sends heartbeats to host 0
    over the fabric (on a faulty fabric any packet host 0 receives from a
    host counts as one); a host silent past [suspect_after_us] is suspected,
    and past [declare_after_us] it is declared dead and fenced.  Declaration
    triggers recovery: every live home shard is scrubbed (copysets, in-flight
    operations, queued requests), the dead host's own shard is taken over by
    its backup under the same home id (see {e Replicated home shards}
    below), minipages the dead host exclusively owned are re-materialized
    from shadow copies (refreshed eagerly on every data transfer and at each
    barrier entry; writes made since are rolled back), lock leases held by
    the dead host are revoked and granted to the next live waiter, and
    in-progress barriers and locks homed on the dead host are rebuilt at the
    backup from sender-side ground truth.  If the backup is dead too, a
    non-empty shard is a typed fail-stop ({!Crash_unrecoverable}); an empty
    one needs no takeover and the rest of the recovery runs at host 0. *)

val crashed_hosts : t -> int list
(** Hosts that fail-stopped (injected crash or detector fencing). *)

val declared_dead : t -> int list
(** Hosts declared dead (and recovery ran for). *)

val lost_minipages : t -> int list
(** Minipages that died with their sole owner before any shadow of them
    existed: survivor accesses raise {!Crash_unrecoverable}. *)

val idempotence_size : t -> int
(** Combined size of every shard's request-idempotence tables (bounded by
    periodic pruning of completions older than the retransmission
    window). *)

(** {2 Replicated home shards}

    Whenever the failure detector runs on more than one host, every home
    streams its directory updates to a designated backup
    ({!Config.Homes.backup_of}) as a logical write-ahead log; when a home is
    declared dead its backup is promoted under the same home id — the
    hint-cache repair is a single atomic rewrite and recovery replays the
    log.  With crash-fault tolerance off no replication state or traffic
    exists. *)

val promoted_homes : t -> int list
(** The dead primaries whose shards were promoted. *)

val log_records_sent : t -> int
(** Directory-log records appended across all primaries (the steady-state
    replication overhead). *)


(** {2 Adaptive consistency}

    With {!Config.Consistency} set to [`Rc] or [`Adaptive], minipages can be
    served by the multi-writer release-consistent path instead of the
    Figure-3 single-writer machine: the home keeps the master copy and
    serves reads and writes from it directly, writers twin the minipage at
    their first write fault, run-length diffs are flushed to the master at
    release points (barrier entry, unlock, push) and clean local copies are
    dropped at acquire points (barrier release, lock grant).  Under
    [`Adaptive] an online governor — fed by the same sharing signatures the
    profiler computes — promotes write-shared and falsely-shared minipages
    to RC and demotes them back when the pattern fades, at sync points only,
    each switch fenced by an epoch handshake so home, backup replica and
    sharers agree before the first post-switch access. *)

val mode_of : t -> addr:int -> Proto.mode
(** Current protocol mode of the minipage holding [addr]. *)

val mode_of_mp : t -> int -> Proto.mode
(** Current protocol mode of a minipage by id. *)

val modes : t -> (Proto.mode * int) list
(** Census of minipages by current mode, as [[(Sc, n); (Rc, m)]]. *)

val mode_switches : t -> int
(** Completed mode switches (promotions + demotions), including
    recovery-forced demotions after a crash. *)

val mode_switch_log : t -> (float * int * Proto.mode) list
(** Every completed switch as [(time µs, mp_id, new mode)], oldest first. *)

(** {2 Test-only protocol mutations}

    Deliberately seeded protocol bugs, used by mpcheck and the test suite to
    prove the coherence and invariant checkers actually catch broken
    protocols (a checker that never fires is indistinguishable from a
    vacuous one).  Never set outside tests. *)
module Testonly : sig
  type mutation =
    | Stale_reply_data of { nth : int }
        (** The [nth] data reply (counting every reply the run sends) serves
            the minipage's initial all-zero snapshot instead of the current
            bytes: a reader that already observed a newer write re-observes
            an older one — the stale-supply bug mpcheck's coherence check
            ([Mp_mc.Spec.coherence]) flags. *)
    | Drop_inval_ack of { nth : int }
        (** The [nth] invalidation processed by any host downgrades
            protection but never acknowledges: the writer's invalidation
            round hangs, which surfaces as an unmatched [Inval] /
            unmatched [Fault] in the trace invariants plus a {!Deadlock}. *)
    | Lost_diff of { nth : int }
        (** The [nth] release-consistency diff reaching its home is
            discarded instead of applied to the master copy — but still
            acknowledged, so the release completes and the critical
            section's writes silently vanish.  Invisible to the coherence
            write-rank oracle (nobody ever observes the lost value); only
            the mpcheck refinement spec's sync-point happens-before floors
            catch it. *)

  val set_mutation : t -> mutation option -> unit
  (** Arm (or disarm) a mutation.  Init phase only; resets the fire
      counter. *)

  val mutation_fired : t -> bool
  (** Whether the armed mutation's [nth] trigger was reached this run. *)

  val inject : t -> src:int -> dst:int -> Proto.body -> unit
  (** Send a protocol message from [src] to [dst] as the protocol would, so
      a test can deliver one the protocol never sends (a stray ACK).  Call
      it from a thread while the DSM runs. *)
end
