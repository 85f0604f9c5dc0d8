open Mp_util
open Mp_sim
open Mp_memsim
open Mp_multiview
open Mp_net

module Config = struct
  (* The unreliable-network knobs: injected fabric faults and the hop-by-hop
     reliable transport that masks them.  Inert under [Fabric.no_faults]. *)
  module Net = struct
    type t = {
      faults : Fabric.faults;
      seed : int;  (** fault-injection RNG seed *)
      rto_us : float;
          (** retransmission timeout.  Must exceed the worst case of two
              busy-host sweeper pickups (~1.6 ms each under NT polling) plus
              wire time, or slow-but-undropped packets get retransmitted en
              masse. *)
      rto_backoff : float;
      max_retries : int;
    }

    let default =
      {
        faults = Fabric.no_faults;
        seed = 9;
        rto_us = 5000.0;
        rto_backoff = 2.0;
        max_retries = 12;
      }
  end

  (* Crash-fault tolerance: injected host failures, the heartbeat failure
     detector, and the deadlock watchdog.  All of it is off ([ft = None] in
     the main config) by default, in which case no extra process is spawned
     and no extra message is sent — fault-free runs are bit-identical. *)
  module Ft = struct
    type t = {
      hb_interval_us : float;  (** heartbeat period per host *)
      suspect_after_us : float;  (** silence before a host is suspected *)
      declare_after_us : float;
          (** silence before a suspect is declared dead and recovery runs; a
              stall shorter than this survives (the suspicion is retracted) *)
      crashes : (int * float) list;  (** (host, time µs): fail-stop at [time] *)
      stalls : (int * float * float) list;
          (** (host, time µs, duration µs): the host freezes — neither polls
              nor sends — then resumes *)
      deadlock_ticks : int;
          (** detector ticks without any protocol progress before the run is
              declared deadlocked *)
    }

    let default =
      {
        hb_interval_us = 1000.0;
        suspect_after_us = 3000.0;
        declare_after_us = 8000.0;
        crashes = [];
        stalls = [];
        deadlock_ticks = 500;
      }
  end

  (* Sharded home-based management: which host runs each minipage's Figure-3
     state machine.  [Central] is the paper's single manager on host 0 and is
     bit-identical to the pre-sharding protocol. *)
  module Homes = struct
    type policy =
      | Central  (** everything homed at host 0 (paper §3, Figure 3) *)
      | Round_robin  (** minipage id mod hosts *)
      | Block  (** contiguous runs of [block] minipage ids per home *)
      | First_toucher
          (** homed at host 0 until first touched; the first requester
              becomes the home (a one-time migration, learned lazily by the
              other hosts through the redirect path) *)

    type t = { policy : policy; block : int }

    let default = { policy = Central; block = 8 }
    let central = default
    let round_robin = { default with policy = Round_robin }
    let block n = { policy = Block; block = n }
    let first_toucher = { default with policy = First_toucher }

    (* Backup placement: the next host, mod the host count.  Deterministic,
       spread (every host backs exactly one other), and never self. *)
    let backup_of ~hosts home = (home + 1) mod hosts

    let policy_name = function
      | Central -> "central"
      | Round_robin -> "rr"
      | Block -> "block"
      | First_toucher -> "ft"

    let policy_of_string = function
      | "central" -> Some Central
      | "rr" | "round-robin" -> Some Round_robin
      | "block" -> Some Block
      | "ft" | "first-toucher" -> Some First_toucher
      | _ -> None
  end

  (* Per-minipage consistency: which protocol serves each minipage, as a
     first-class run mode.  [`Sc] is the paper's Figure-3 single-writer
     invalidation protocol and is bit-identical to the pre-mode build;
     [`Rc] serves every minipage with the multi-writer release-consistent
     path (twins on write fault, run-length diffs flushed to the home's
     master copy at release, conservative invalidation at acquire);
     [`Adaptive] starts everything under SC and lets the online governor
     switch individual minipages between the two at sync points, fed by the
     same sharing signatures the profiler computes. *)
  module Consistency = struct
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

    let default = { mode = `Sc; adapt_interval = 2; promote_after = 2; demote_after = 2 }
    let sc = default
    let rc = { default with mode = `Rc }
    let adaptive = { default with mode = `Adaptive }

    let with_adapt_interval t adapt_interval =
      if adapt_interval < 1 then invalid_arg "Consistency.with_adapt_interval";
      { t with adapt_interval }

    let with_hysteresis t ?promote_after ?demote_after () =
      {
        t with
        promote_after = Option.value ~default:t.promote_after promote_after;
        demote_after = Option.value ~default:t.demote_after demote_after;
      }

    let mode_name = function `Sc -> "sc" | `Rc -> "rc" | `Adaptive -> "adaptive"

    let mode_of_string = function
      | "sc" -> Some `Sc
      | "rc" -> Some `Rc
      | "adaptive" -> Some `Adaptive
      | _ -> None
  end

  type t = {
    views : int;
    object_size : int;
    page_size : int;
    chunking : Allocator.chunking;
    cost : Cost_model.t;
    polling : Polling.mode;
    seed : int;
    net : Net.t;
    ft : Ft.t option;
    homes : Homes.t;
    consistency : Consistency.t;
  }

  let default =
    {
      views = 32;
      object_size = 16 * 1024 * 1024;
      page_size = 4096;
      chunking = Allocator.Fine 1;
      cost = Cost_model.default;
      polling = Polling.nt_mode;
      seed = 1;
      net = Net.default;
      ft = None;
      homes = Homes.default;
      consistency = Consistency.default;
    }

  let with_seed t seed = { t with seed }
  let with_faults t faults = { t with net = { t.net with faults } }
  let with_net_seed t seed = { t with net = { t.net with seed } }
end

exception Deadlock of string
(** The run drained (or stopped making progress) with live application
    threads still blocked. *)

exception Crash_unrecoverable of string
(** The typed fail-stop of crash recovery: a home died while its backup was
    already dead and its shard still held entries, or a survivor touched a
    minipage that died with no shadow to roll back to. *)

(* A fault in flight.  Records are reused: one goes back to its host's free
   stack once its last waiter has read it after the wake, or at the wake
   when no thread waits on it (a prefetch).  A free record has no waiter
   and owes no ack, so reuse resets only its event and the request. *)
type inflight = {
  mutable req_id : int;
      (* crash recovery resends the request under a fresh id when its home
         died with the original in flight *)
  mutable access : Proto.access;
  mutable addr : int;  (* the faulting address, kept so the request can be resent *)
  mutable target : int;  (* the home the request was sent to *)
  event : Sync.Event.t;  (* manual-reset; reset when the record is reused *)
  mutable waiters : int;  (* threads blocked on [event], or still to read the record *)
  mutable by_prefetch : bool;
  mutable ack_req : int;
  mutable ack_mp : int;  (* the ack a woken waiter owes; [ack_mp] -1 when none *)
}

type push_state = {
  pu_event : Sync.Event.t;
  pu_info : Proto.info;
  pu_data : bytes;
  mutable pu_target : int;
}

type group_fetch_state = {
  gf_event : Sync.Event.t;
  gf_group : int;
  mutable gf_target : int;  (* the home this sub-fetch was sent to *)
  mutable gf_expected : int option;  (* batches announced by the home *)
  mutable gf_received : int;
  mutable gf_mp_ids : int list;  (* members landed so far *)
}

(* Release-consistent sharer state: one [rc_copy] per minipage this host
   holds under RC.  [rc_twin = Some _] marks a dirty copy — a twin was taken
   at the first write fault and the runs that differ are flushed to the home
   as a diff at the next release. *)
type rc_copy = {
  rc_info : Proto.info;
  mutable rc_epoch : int;  (* the mode epoch the copy was served under *)
  mutable rc_twin : bytes option;
}

(* A release-time diff in flight to its home, tracked so a home crash can
   re-aim it (diff application is idempotent: runs carry absolute bytes). *)
type rc_diff_out = {
  mutable rd_req : int;
  rd_mp : int;
  rd_epoch : int;
  rd_diff : Twin_diff.t;
  mutable rd_target : int;
  rd_waited : bool;  (* a release blocks on this diff's ack *)
}

type host_state = {
  id : int;
  vm : Vm.t;
  mutable fault_keys : int array;
  mutable fault_recs : inflight array;
  mutable faults : int;
      (* the faults in flight, in the order they were sent: the first
         [faults] slots of [fault_keys] (each a [fault_key]) and
         [fault_recs] *)
  barrier_events : (int, Sync.Event.t) Hashtbl.t;
  lock_waiters : (int, Sync.Event.t Queue.t) Hashtbl.t;
  push_waiters : (int, push_state) Hashtbl.t;  (* req_id -> progress *)
  group_fetches : (int, group_fetch_state) Hashtbl.t;  (* req_id -> progress *)
  hints : (int, int) Hashtbl.t;
      (** mp_id -> believed home.  Seeded from the allocation-time layout
          (like the MPT); goes stale only on first-toucher migration or a
          backup promotion, and is repaired by HOME_REDIRECT / DEAD_NOTICE. *)
  mutable computing : int;
  mutable dead_peers : Host_set.t;
      (** peers this host has been told are declared dead (DEAD_NOTICE) *)
  bd : Breakdown.t;
  rc_copies : (int, rc_copy) Hashtbl.t;  (* mp_id -> local RC copy *)
  rc_out : (int, rc_diff_out) Hashtbl.t;  (* req_id -> diff in flight *)
  mutable rc_flush_pending : int;  (* release-blocking diffs unacked *)
  rc_flush_waiters : Sync.Event.t Queue.t;
      (* one event per thread blocked in a release, each woken on every diff
         ack (two threads of one host can flush concurrently) *)
  free_flights : inflight Pool.t;
}

(* Holding a lock is a lease: when the holder is declared dead its home
   revokes it and grants the next live waiter.  Both the holder and the
   queue name a (host, tid) pair so crash recovery can rebuild the queue
   idempotently from the senders' ground truth.  [holder_host] is -1 while
   the lock is free. *)
type waiter = { w_host : int; w_tid : int }

type lock_state = {
  mutable holder_host : int;
  mutable holder_tid : int;
  lock_queue : waiter Queue.t;
  mutable granted_from : int;  (* home that sent the in-flight/last grant *)
}

(* Hop-by-hop reliable transport (active only on a faulty fabric).  Each
   (src, dst) channel numbers its Data packets; the receiver acks every one
   with a Tack and resequences out-of-order arrivals, so the protocol above
   still sees exactly-once FIFO delivery — FastMessages semantics restored
   over a lossy wire.  End-to-end request retry would not be enough: a lost
   write Reply_data carries the only copy of the data (the supplier has
   already downgraded), so the wire itself must not lose it. *)
type tx_entry = { mutable tries : int; tx_bytes : int; tx_body : Proto.body }

type transport = {
  tx_next : int array;  (* per channel: next sequence number to assign *)
  rx_next : int array;  (* per channel: next sequence number to deliver *)
  tx_unacked : (int * int, tx_entry) Hashtbl.t;  (* (chan, seq) *)
  rx_hold : (int * int, Proto.body) Hashtbl.t;  (* out-of-order arrivals *)
}

(* Adaptation governor state, one per minipage at its home shard: an online
   sharing signature (same shape the profiler computes) plus hysteresis
   streaks.  Fed on the home's request path; evaluated at barrier releases
   every [adapt_interval] phases, which is the only place modes switch. *)
type gov = {
  g_sig : Mp_obs.Sharing.signature_;
  mutable g_rc_streak : int;  (* consecutive write/falsely-shared verdicts *)
  mutable g_sc_streak : int;  (* consecutive other verdicts *)
  mutable g_pushed : bool;
      (* the minipage went through a push (producer/consumer distribution):
         promoting it to RC would forfeit the push path, so the governor
         leaves it alone *)
  mutable g_win_writes : int;
      (* writes observed since the last evaluation (SC requests + RC diffs).
         The decayed signature has a long memory tail; mode decisions need
         to know whether anyone wrote in THIS window — a write-shared
         verdict with no fresh writes must not keep a minipage in RC *)
}

(* Test-only protocol mutations (see module [Testonly] below): mpcheck and
   the test suite use these to prove the checkers are not vacuously green.
   [None] in production; every hook site is a cheap match on that case. *)
type test_mutation =
  | Stale_reply_data of { nth : int }
  | Drop_inval_ack of { nth : int }
  | Lost_diff of { nth : int }

(* The run's counts, exported read-only as [Dsm.stats]. *)
type stats = {
  mutable barriers_entered : int;
  mutable locks_acquired : int;
  mutable invalidations : int;
  mutable data_replies : int;
  mutable grant_upgrades : int;
  mutable pushes : int;
  mutable groups_fetched : int;
  mutable home_redirects : int;
  mutable home_migrations : int;
  mutable resent_requests : int;
  mutable retransmits : int;
  mutable dups_suppressed : int;
  mutable heartbeats_sent : int;
  mutable suspects : int;
  mutable suspect_recoveries : int;
  mutable leases_revoked : int;
  mutable recovered_minipages : int;
  mutable shadow_syncs : int;
  mutable barrier_reconfigs : int;
  mutable barrier_release_replays : int;
  mutable backup_promotions : int;
  mutable tail_repairs : int;
  mutable rolled_back_minipages : int;
  mutable log_records_applied : int;
  mutable rc_promotes : int;
  mutable rc_demotes : int;
  mutable rc_twins : int;
  mutable rc_diffs : int;
  mutable rc_diff_bytes : int;
}

type t = {
  engine : Engine.t;
  config : Config.t;
  fabric : Proto.body Fabric.t;
  transport : transport option;
  host_states : host_state array;
  allocator : Allocator.t;
  dirs : Directory.t array;
      (* one directory shard per host; under the Central policy only shard 0
         ever holds entries, which keeps that configuration bit-identical to
         the pre-sharding single manager *)
  home_tbl : (int, int) Hashtbl.t;  (* authoritative: mp_id -> home host *)
  ft_pending : (int, unit) Hashtbl.t;
      (* First_toucher minipages still parked at host 0 awaiting their first
         remote touch *)
  mutable next_req : int;
  mutable total_threads : int;
  mutable finished_threads : int;
  (* Barrier and lock state is kept global: the sync home is advisory message
     routing (it decides which host's server process runs the handler), so
     re-homing sync objects after a crash migrates no state — recovery only
     has to replay what was in flight to the dead home, which the send-side
     ground truth below makes idempotent. *)
  barrier_counts : (int, (int * int) list ref) Hashtbl.t;
      (* phase -> (host, tid) entered *)
  barrier_sent : (int, (int * int) list ref) Hashtbl.t;
      (* phase -> every (host, tid) that sent BARRIER_ENTER (send-side ground
         truth, pruned at release) *)
  released_phases : (int, int) Hashtbl.t;
      (* phase -> the home that released it, so a release that died with its
         sender (dropped copy, then the sender declared dead before the
         retransmission fired) can be re-sent at declaration time *)
  locks : (int, lock_state) Hashtbl.t;
  lock_requests : (int, (int * int) list ref) Hashtbl.t;
      (* lock -> (host, tid) acquires sent and not yet granted *)
  pending_releases : (int, (int * int) list ref) Hashtbl.t;
      (* lock -> (host, target home) releases sent and not yet processed *)
  groups : (int, int list) Hashtbl.t;  (* composed views: group -> minipage ids *)
  mutable next_group : int;
  reply_bufs : (int, bytes Pool.t) Hashtbl.t;
      (* length -> free [Reply_data] buffers.  A buffer is taken by the
         supplier and goes back once the requester's dispatch of the reply
         returns; no other copy of the message is ever read (the transport
         suppresses a duplicate or retransmission before dispatch, and
         labels it from its [info]). *)
  stats : stats;
  recorder : Mp_obs.Recorder.t;
  mutable started : bool;
  mutable infos : Proto.info array;  (* by mp_id, built by [run] *)
  (* crash-fault state.  [crashed] is ground truth (injection or fencing);
     [declared] is the manager's view, which is what the protocol acts on. *)
  crashed : bool array;
  declared : bool array;
  suspected : bool array;
  last_beat : float array;
  threads_by_host : int array;
  finished_by_host : int array;
  mutable ft_stop : bool;  (* tells the ft daemons to wind down *)
  mutable dispatches : int;
      (* non-heartbeat dispatches under FT: the deadlock watchdog's measure
         of progress *)
  mutable lost_mps : int list;
  mutable watchdog_sig : int;
  mutable watchdog_idle : int;
  idem_retention_us : float;  (* completed-request retention window *)
  mutable completions : int;
  (* replicated home shards (whenever FT is on): [replicas.(p)] is the
     replica of primary p's directory log, physically held at its backup
     host; [log_seq.(p)] is the primary's last assigned log sequence number;
     [promoted.(p)] is set once dead p's shard was taken over by its
     backup. *)
  replicas : Directory.Replica.t array;
  log_seq : int array;
  promoted : bool array;
  (* adaptive-consistency state: governor signatures (keyed by mp_id, held
     logically at the minipage's home shard) and run-level mode accounting *)
  gov : (int, gov) Hashtbl.t;
  mutable mode_switch_log : (float * int * Proto.mode) list;  (* newest first *)
  clock : Float.Array.t;  (* one slot, for [clock] *)
  (* test-only mutation state *)
  mutable mutation : test_mutation option;
  mutable mutation_count : int;
  mutable mutation_fired : bool;
}

(* [lock_ev] is the thread's one lock event: it waits on one lock at a
   time, so every [lock] reuses it. *)
type ctx = {
  t : t;
  hs : host_state;
  tid : int;
  mutable barrier_phase : int;
  lock_ev : Sync.Event.t;
}

let manager = 0

let engine t = t.engine
let hosts t = Array.length t.host_states

let fresh_req t =
  t.next_req <- t.next_req + 1;
  t.next_req

(* A test-only mutation's hook: counts a hit when [is_site] accepts the
   armed mutation, and is true at its [nth] hit only. *)
let mutation_fires t is_site =
  match t.mutation with
  | Some ((Stale_reply_data { nth } | Drop_inval_ack { nth } | Lost_diff { nth }) as m)
    when is_site m ->
    t.mutation_count <- t.mutation_count + 1;
    if t.mutation_count = nth then t.mutation_fired <- true;
    t.mutation_count = nth
  | Some _ | None -> false

(* [l] without its first element that [p] accepts.  A predicate on a pair
   takes it whole: [fun (a, b) -> ...] compiles to a tupled closure, a word
   larger than [fun e -> ...]. *)
let rec drop_first p = function
  | [] -> []
  | x :: rest when p x -> rest
  | x :: rest -> x :: drop_first p rest

let access_idx = function Proto.Read -> 0 | Proto.Write -> 1

(* A host's faults in flight.  It has at most one per thread plus its
   prefetches, so a scan of a few slots finds one, and once the arrays have
   grown a fault allocates nothing here. *)

(* The in-flight key of an [idx] fault on [vpage] of [view]. *)
let fault_key ~view ~vpage idx = (((view lsl 31) lor vpage) lsl 1) lor idx

let rec fault_slot_from keys n key i =
  if i = n then -1 else if keys.(i) = key then i else fault_slot_from keys n key (i + 1)

(* The slot of the fault in flight under [key], or -1. *)
let fault_slot (h : host_state) key = fault_slot_from h.fault_keys h.faults key 0

let rec req_slot_from (recs : inflight array) n req_id i =
  if i = n then -1
  else if recs.(i).req_id = req_id then i
  else req_slot_from recs n req_id (i + 1)

(* The slot of the fault in flight whose request is [req_id], or -1. *)
let req_slot (h : host_state) req_id = req_slot_from h.fault_recs h.faults req_id 0

let add_fault (h : host_state) key e =
  if h.faults = Array.length h.fault_keys then
    if h.faults = 0 then begin
      h.fault_keys <- Array.make 4 key;
      h.fault_recs <- Array.make 4 e
    end
    else begin
      h.fault_keys <- Array.append h.fault_keys h.fault_keys;
      h.fault_recs <- Array.append h.fault_recs h.fault_recs
    end;
  h.fault_keys.(h.faults) <- key;
  h.fault_recs.(h.faults) <- e;
  h.faults <- h.faults + 1

(* Remove slot [i]'s fault; the later ones move down a slot, in order. *)
let remove_fault (h : host_state) i =
  Array.blit h.fault_keys (i + 1) h.fault_keys i (h.faults - i - 1);
  Array.blit h.fault_recs (i + 1) h.fault_recs i (h.faults - i - 1);
  h.faults <- h.faults - 1

let make_info (mp : Minipage.t) =
  { Proto.mp_id = mp.id; base_off = mp.offset; length = mp.length; mp_view = mp.view }

(* Chunk growth changes a minipage's length during the init phase.  [malloc]
   refuses once [run] has started, so [run] builds each minipage's info
   then, and every message after reuses it. *)
let info_of t (mp : Minipage.t) = if t.started then t.infos.(mp.id) else make_info mp

(* A constant, so filling a large array with it forces no minor collection
   (see [Mpt]). *)
let no_info = { Proto.mp_id = -1; base_off = 0; length = 0; mp_view = 0 }

let build_infos t =
  let mpt = Allocator.mpt t.allocator in
  t.infos <- Array.make (Mpt.count mpt) no_info;
  Mpt.iter mpt (fun mp -> t.infos.(mp.Minipage.id) <- make_info mp)

let first_vpage t (info : Proto.info) = info.base_off / t.config.page_size
let last_vpage t (info : Proto.info) = (info.base_off + info.length - 1) / t.config.page_size
let n_vpages t info = last_vpage t info - first_vpage t info + 1

let protect_info _t (h : host_state) (info : Proto.info) prot =
  Vm.protect_range h.vm ~view:info.mp_view ~phys_off:info.base_off ~len:info.length prot

(* The protection change of a whole minipage, charged without boxing its
   cost. *)
let delay_set_prot t info = Engine.delay_n t.config.cost.set_prot_us (n_vpages t info)

module Obs = Mp_obs.Recorder
module Sharing = Mp_obs.Sharing

let obs t = t.recorder

(* The time a recorder hook stamps: the clock while the recorder records,
   and 0.0 while it is off, so a disabled recorder costs no clock box.
   Protocol state never takes it: a semantic read is [Engine.now]. *)
let otime t = if Obs.enabled t.recorder then Engine.now t.engine else 0.0

(* The clock, unboxed where this is inlined: a breakdown charge subtracts
   two readings, and [Engine.now] would box each new instant. *)
let[@inline] clock t =
  Engine.now_into t.engine t.clock 0;
  Float.Array.get t.clock 0

let obs_access = function
  | Proto.Read -> Mp_obs.Event.Read
  | Proto.Write -> Mp_obs.Event.Write

let header t = t.config.cost.header_bytes
let chan_of t ~src ~dst = (src * hosts t) + dst

let ft_on t = t.config.ft <> None

(* Release-consistent machinery is live only when the run can ever hold an
   RC minipage; every RC code path is gated here, so [`Sc] runs are
   bit-identical to a build without the feature. *)
let rc_on t = t.config.consistency.Config.Consistency.mode <> `Sc
let adaptive_on t = t.config.consistency.Config.Consistency.mode = `Adaptive

(* Every home shard is replicated whenever the failure detector runs
   (promotion is driven by DECLARE_DEAD) on more than one host (a backup must
   differ from its primary).  Every replication code path is gated here, so
   FT-off runs are bit-identical to a build without the feature. *)
let replicating t = ft_on t && hosts t > 1

let backup_of_home t home = Config.Homes.backup_of ~hosts:(hosts t) home

(* ------------------------------------------------------------------ *)
(* Home assignment and lookup (sharded management)                     *)
(* ------------------------------------------------------------------ *)

let central t = t.config.homes.Config.Homes.policy = Config.Homes.Central

(* Allocation-time placement.  First_toucher parks the minipage at host 0
   until its first remote touch migrates it (see [manager_request]). *)
let assign_home t mp_id =
  let n = hosts t in
  match t.config.homes.Config.Homes.policy with
  | Config.Homes.Central | Config.Homes.First_toucher -> 0
  | Config.Homes.Round_robin -> mp_id mod n
  | Config.Homes.Block -> mp_id / max 1 t.config.homes.Config.Homes.block mod n

let home_of_mp t mp_id =
  match Hashtbl.find t.home_tbl mp_id with home -> home | exception Not_found -> manager

let hint_of (h : host_state) mp_id =
  match Hashtbl.find h.hints mp_id with home -> home | exception Not_found -> manager

(* Which host serves a barrier phase or lock: deterministic over the live
   hosts, so every sender picks the same home and re-picks consistently once
   a host is declared dead (in-flight traffic to the old home is replayed by
   recovery). *)
let sync_home t key =
  if central t then manager
  else begin
    let live = ref [] in
    for h = hosts t - 1 downto 0 do
      if not t.declared.(h) then live := h :: !live
    done;
    List.nth !live (key mod List.length !live)
  end

(* Every non-crashed host has finished all its application threads (crashed
   hosts are excused — their threads were killed). *)
let all_live_done t =
  let ok = ref true in
  Array.iteri
    (fun h c -> if (not t.crashed.(h)) && t.finished_by_host.(h) < c then ok := false)
    t.threads_by_host;
  !ok

(* Re-arm the per-packet retransmission timer: while (chan, seq) is unacked,
   resend with exponential backoff; give up (the run is unrecoverable, e.g.
   the loss rate is ~1) after [max_retries]. *)
let rec transport_arm t tr ~chan ~src ~dst ~seq ~timeout =
  Engine.schedule t.engine ~at:(Engine.now t.engine +. timeout) (fun () ->
      match Hashtbl.find_opt tr.tx_unacked (chan, seq) with
      | None -> () (* acked in the meantime *)
      | Some _ when t.crashed.(src) || t.declared.(dst) ->
        (* the sender died (it cannot retransmit) or the destination was
           declared dead (nobody will ever Tack): abandon the packet *)
        Hashtbl.remove tr.tx_unacked (chan, seq)
      | Some e ->
        e.tries <- e.tries + 1;
        if e.tries > t.config.net.Config.Net.max_retries then
          failwith
            (Printf.sprintf
               "millipage transport: h%d -> h%d seq %d lost after %d \
                retransmissions"
               src dst seq t.config.net.Config.Net.max_retries);
        t.stats.retransmits <- t.stats.retransmits + 1;
        if Obs.enabled (obs t) then
          Obs.retransmit (obs t) ~time:(otime t) ~host:src ~dst ~seq ~attempt:e.tries
            ~label:(Proto.describe e.tx_body);
        Fabric.send t.fabric ~src ~dst ~bytes:e.tx_bytes
          (Proto.Data { seq; body = e.tx_body });
        transport_arm t tr ~chan ~src ~dst ~seq
          ~timeout:(timeout *. t.config.net.Config.Net.rto_backoff))

let send t ~src ~dst ~bytes body =
  match t.transport with
  | None -> Fabric.send t.fabric ~src ~dst ~bytes body
  | Some tr ->
    let chan = chan_of t ~src ~dst in
    let seq = tr.tx_next.(chan) in
    tr.tx_next.(chan) <- seq + 1;
    Hashtbl.replace tr.tx_unacked (chan, seq) { tries = 0; tx_bytes = bytes; tx_body = body };
    Fabric.send t.fabric ~src ~dst ~bytes (Proto.Data { seq; body });
    transport_arm t tr ~chan ~src ~dst ~seq ~timeout:t.config.net.Config.Net.rto_us

(* ------------------------------------------------------------------ *)
(* Replicated home shards: the primary side of the directory log       *)
(* ------------------------------------------------------------------ *)

let record_tag = function
  | Proto.L_admit _ -> "admit"
  | Proto.L_complete _ -> "complete"
  | Proto.L_state _ -> "state"
  | Proto.L_shadow _ -> "shadow"
  | Proto.L_mode _ -> "mode"
  | Proto.L_diff _ -> "diff"

let record_span = function
  | Proto.L_admit { req_id; _ } | Proto.L_complete { req_id; _ } -> req_id
  | Proto.L_state _ | Proto.L_shadow _ | Proto.L_mode _ | Proto.L_diff _ ->
    Mp_obs.Event.no_span

(* Append one record to [home]'s directory log: streamed to the backup over
   the ARQ transport in the same tool round as the state change it mirrors,
   before any message the record justifies leaves the home.  The channel is
   FIFO exactly-once, so the backup always holds a dense prefix of the
   primary's log; only records still inside the final retransmission window
   when the primary dies can be missing (and only under message loss), and
   promotion repairs exactly that tail. *)
let log_append t ~home record =
  if replicating t then begin
    let b = backup_of_home t home in
    if (not t.declared.(home)) && not t.declared.(b) then begin
      t.log_seq.(home) <- t.log_seq.(home) + 1;
      let lseq = t.log_seq.(home) in
      let bytes =
        header t
        + match record with Proto.L_shadow { data; _ } -> Bytes.length data | _ -> 0
      in
      Obs.log_append (obs t) ~time:(otime t) ~host:home ~span:(record_span record)
        ~primary:home ~backup:b ~lseq ~record_tag:(record_tag record);
      send t ~src:home ~dst:b ~bytes (Proto.Log_append { primary = home; lseq; record })
    end
  end

(* Each of these makes its record only when the log is on. *)
let log_entry_state t ~home (e : Directory.entry) =
  if replicating t then
    log_append t ~home
      (Proto.L_state
         { mp_id = e.mp.Minipage.id; owner = e.owner;
           copyset = Host_set.elements e.copyset })

let log_admit t ~home ~req_id ~mp_id =
  if replicating t then log_append t ~home (Proto.L_admit { req_id; mp_id })

(* Inlined, so a caller's unboxed [at] is boxed only when replicating. *)
let[@inline] log_complete t ~home ~req_id ~at =
  if replicating t then log_append t ~home (Proto.L_complete { req_id; at })

let log_shadow t ~home (e : Directory.entry) =
  if replicating t then
    match e.shadow with
    | Some data -> log_append t ~home (Proto.L_shadow { mp_id = e.mp.Minipage.id; data })
    | None -> ()

(* Mark a request completed at [home]'s directory and mirror the completion
   (with its original timestamp) into the log. *)
let mark_completed_logged t ~home ~req_id ~now =
  Directory.mark_completed t.dirs.(home) ~req_id ~now;
  log_complete t ~home ~req_id ~at:now

(* ------------------------------------------------------------------ *)
(* Manager: directory-side protocol (runs in host 0's server process)  *)
(* ------------------------------------------------------------------ *)

let choose_read_replica (e : Directory.entry) =
  if Host_set.mem e.owner e.copyset then e.owner else Host_set.min_elt e.copyset

let choose_supplier (e : Directory.entry) ~from =
  let cs = Host_set.remove from e.copyset in
  if Host_set.mem e.owner cs then e.owner else Host_set.min_elt cs

let proceed_write t ~home (e : Directory.entry) ~req_id ~from ~supplier =
  e.pending <-
    Directory.Write_in_flight
      { req_id; from; supplier = Option.value ~default:(-1) supplier };
  Obs.forward (obs t) ~time:(otime t) ~host:home ~span:req_id
    ~access:Mp_obs.Event.Write ~mp_id:e.mp.Minipage.id
    ~supplier:(Option.value ~default:(-1) supplier);
  match supplier with
  | None ->
    t.stats.grant_upgrades <- t.stats.grant_upgrades + 1;
    send t ~src:home ~dst:from ~bytes:(header t)
      (Proto.Write_grant { req_id; info = info_of t e.mp })
  | Some s ->
    send t ~src:home ~dst:s ~bytes:(header t)
      (Proto.Forward { req_id; from; access = Proto.Write; info = info_of t e.mp })

(* A survivor touched a minipage whose only current copy died with its
   crashed owner: fail fast (the recovered shadow is stale). *)
let check_lost t (e : Directory.entry) ~from =
  if e.lost then
    raise
      (Crash_unrecoverable
         (Printf.sprintf
            "millipage: h%d accessed minipage %d, whose last writes died with \
             a crashed host (lost minipages: %s)"
            from e.mp.Minipage.id
            (String.concat ", "
               (List.map string_of_int (List.sort_uniq compare t.lost_mps)))))

(* ------------------------------------------------------------------ *)
(* Adaptation governor: online sharing signatures at the home           *)
(* ------------------------------------------------------------------ *)

let gov_of t mp_id =
  match Hashtbl.find_opt t.gov mp_id with
  | Some g -> g
  | None ->
    let g =
      { g_sig = Sharing.fresh (); g_rc_streak = 0; g_sc_streak = 0;
        g_pushed = false; g_win_writes = 0 }
    in
    Hashtbl.add t.gov mp_id g;
    g

(* Feed the signature on the home's request path (both modes): the same
   evidence the offline profiler derives from the event stream, computed
   online where the adaptation decision is made. *)
let gov_note_request t (e : Directory.entry) ~from ~access ~addr =
  if adaptive_on t then begin
    let g = gov_of t e.mp.Minipage.id in
    let write = match access with Proto.Write -> true | Proto.Read -> false in
    if write then g.g_win_writes <- g.g_win_writes + 1;
    Sharing.note_access g.g_sig from ~write ~addr
  end

(* One SC invalidation round: count the fan-out, and mark the invalidations
   whose writer/target footprints are disjoint — the intra-unit
   false-sharing signal that pushes a minipage toward RC. *)
let gov_note_invals t (e : Directory.entry) ~writer ~targets =
  if adaptive_on t then begin
    let sg = (gov_of t e.mp.Minipage.id).g_sig in
    sg.Sharing.inval_rounds <- sg.Sharing.inval_rounds + 1;
    let fw = Sharing.footprint sg writer in
    Host_set.iter
      (fun target ->
        sg.Sharing.invals <- sg.Sharing.invals + 1;
        sg.Sharing.inval_targets <- sg.Sharing.inval_targets + 1;
        let ft = Sharing.footprint sg target in
        if
          fw <> Sharing.Footprint.empty
          && ft <> Sharing.Footprint.empty
          && not (Sharing.Footprint.overlaps fw ft)
        then begin
          sg.Sharing.false_invals <- sg.Sharing.false_invals + 1;
          sg.Sharing.false_caused <- sg.Sharing.false_caused + 1
        end)
      targets
  end

(* A release-time diff is the RC path's write evidence. *)
let gov_note_diff t mp_id ~from diff =
  if adaptive_on t then begin
    let g = gov_of t mp_id in
    let sg = g.g_sig in
    g.g_win_writes <- g.g_win_writes + 1;
    sg.Sharing.writes <- sg.Sharing.writes + 1;
    sg.Sharing.writers <- Host_set.add from sg.Sharing.writers;
    sg.Sharing.transfers <- sg.Sharing.transfers + 1;
    sg.Sharing.bytes_in <- sg.Sharing.bytes_in + Twin_diff.encoded_bytes diff
  end

(* Serve a request that can start now.  [charge_lookup]: crash recovery
   calls this from the failure detector, which must restart queued
   operations atomically — no simulated delay. *)
let manager_start_request ~charge_lookup t ~home (e : Directory.entry) ~req_id ~from
    ~access ~addr =
  let cost = t.config.cost in
  if charge_lookup then Engine.delay cost.mpt_lookup_us;
  check_lost t e ~from;
  gov_note_request t e ~from ~access ~addr;
  let info = info_of t e.mp in
  if e.mode = Proto.Rc then begin
    (* release-consistent serve: data straight from the home's master copy
       — no forward hop, no invalidation round.  Reads and writes alike
       get a copy; concurrent writers are reconciled by release-time
       diffs, so a write serve leaves every other copy in place. *)
    let data =
      match e.shadow with
      | Some master -> Bytes.copy master
      | None -> failwith "millipage: RC minipage without a master copy"
    in
    (match e.pending with
    | Directory.Reads_in_flight | Directory.No_op ->
      Directory.add_read t.dirs.(home) e ~req_id ~from ~supplier:home ~group:false
    | _ -> failwith "millipage: RC serve during a conflicting operation");
    send t ~src:home ~dst:from
      ~bytes:(Cost_model.data_message_bytes cost info.length)
      (Proto.Rc_data { req_id; access; info; epoch = e.epoch; data })
  end
  else
  match access with
  | Proto.Read ->
    let replica = choose_read_replica e in
    (match e.pending with
    | Directory.Reads_in_flight | Directory.No_op ->
      Directory.add_read t.dirs.(home) e ~req_id ~from ~supplier:replica ~group:false
    | _ -> failwith "millipage: read started during a conflicting operation");
    Obs.forward (obs t) ~time:(otime t) ~host:home ~span:req_id
      ~access:Mp_obs.Event.Read ~mp_id:info.mp_id ~supplier:replica;
    send t ~src:home ~dst:replica ~bytes:(header t)
      (Proto.Forward { req_id; from; access = Proto.Read; info })
  | Proto.Write ->
    let upgrade = Host_set.mem from e.copyset in
    let supplier = if upgrade then None else Some (choose_supplier e ~from) in
    let targets =
      let cs = Host_set.remove from e.copyset in
      match supplier with Some s -> Host_set.remove s cs | None -> cs
    in
    if Host_set.is_empty targets then proceed_write t ~home e ~req_id ~from ~supplier
    else begin
      gov_note_invals t e ~writer:from ~targets;
      e.pending <-
        Directory.Write_waiting_invals { req_id; from; targets; waiting = targets };
      Host_set.iter
        (fun target ->
          t.stats.invalidations <- t.stats.invalidations + 1;
          Obs.inval_send (obs t) ~time:(otime t) ~host:home ~span:req_id
            ~mp_id:info.mp_id ~target ~writer:from;
          send t ~src:home ~dst:target ~bytes:(header t)
            (Proto.Invalidate { req_id; info }))
        targets
    end

let manager_start ?(charge_lookup = true) t ~home (e : Directory.entry)
    (q : Directory.queued) =
  match q with
  | Directory.Q_request { req_id; from; access; addr } ->
    manager_start_request ~charge_lookup t ~home e ~req_id ~from ~access ~addr
  | Directory.Q_push { req_id; from; data } ->
    let info = info_of t e.mp in
    (* a push overwrites the whole minipage with fresh content, so it makes a
       lost minipage whole again *)
    e.lost <- false;
    (* a push refreshes the shadow under ft (recovery source) and under RC
       (the shadow IS the master copy); the governor also pins pushed
       minipages to SC — promotion would forfeit the push path *)
    if adaptive_on t then (gov_of t info.mp_id).g_pushed <- true;
    if ft_on t || e.mode = Proto.Rc then begin
      e.shadow <- Some (Bytes.copy data);
      Obs.shadow_refresh (obs t) ~time:(otime t) ~host:home ~mp_id:info.mp_id
        ~bytes:info.length;
      log_shadow t ~home e
    end;
    let others =
      List.filter
        (fun h -> h <> from && not t.declared.(h))
        (List.init (hosts t) Fun.id)
    in
    if others = [] then begin
      e.copyset <- Host_set.singleton from;
      e.owner <- from;
      log_complete t ~home ~req_id ~at:(Engine.now t.engine);
      log_entry_state t ~home e;
      send t ~src:home ~dst:from ~bytes:(header t) (Proto.Push_complete { req_id })
    end
    else begin
      e.pending <-
        Directory.Push_waiting_acks
          { req_id; from;
            waiting = List.fold_left (fun acc h -> Host_set.add h acc) Host_set.empty others
          };
      List.iter
        (fun dst ->
          send t ~src:home ~dst ~bytes:(header t + info.length)
            (Proto.Push_update { info; data }))
        others
    end

(* A read can start whenever only reads are in flight; anything else needs
   the minipage completely quiet. *)
let can_start_request (e : Directory.entry) access =
  match (e.pending, access) with
  | Directory.No_op, _ -> true
  | Directory.Reads_in_flight, Proto.Read -> true
  | Directory.Reads_in_flight, Proto.Write ->
    (* multi-writer: an RC home serves concurrent writes without waiting;
       a Mode_switch_wait fence (like every other pending) blocks all starts *)
    e.mode = Proto.Rc
  | _ -> false

let can_start (e : Directory.entry) (q : Directory.queued) =
  match q with
  | Directory.Q_request { access; _ } -> can_start_request e access
  | Directory.Q_push _ -> e.pending = Directory.No_op

let queued_span = function
  | Directory.Q_request { req_id; _ } | Directory.Q_push { req_id; _ } -> req_id

let manager_enqueue t ~home (e : Directory.entry) (q : Directory.queued) =
  let dir = t.dirs.(home) in
  Directory.enqueue dir e q;
  let depth = Directory.queue_depth dir in
  Obs.queue_enter (obs t) ~time:(otime t) ~host:home ~span:(queued_span q)
    ~mp_id:e.mp.Minipage.id ~depth;
  if not (central t) then Obs.home_queue_depth (obs t) ~home ~depth

let manager_submit t ~home (e : Directory.entry) (q : Directory.queued) =
  if can_start e q then manager_start t ~home e q else manager_enqueue t ~home e q

(* Start every queued request that has become compatible, in arrival order:
   after a write completes this drains the whole leading run of reads. *)
let rec manager_drain_queue ?(charge_lookup = true) t ~home (e : Directory.entry) =
  match Directory.peek e with
  | Some q when can_start e q ->
    let dir = t.dirs.(home) in
    ignore (Directory.dequeue dir e);
    let depth = Directory.queue_depth dir in
    Obs.queue_exit (obs t) ~time:(otime t) ~host:home ~span:(queued_span q)
      ~mp_id:e.mp.Minipage.id ~depth;
    if not (central t) then Obs.home_queue_depth (obs t) ~home ~depth;
    manager_start ~charge_lookup t ~home e q;
    manager_drain_queue ~charge_lookup t ~home e
  | Some _ | None -> ()

(* First-toucher migration: the first remote touch fixes the minipage's home.
   The entry is quiet by construction (this is its first operation), so the
   move is a metadata-only transfer between shards. *)
let ft_migrate t ~mp_id ~to_ =
  let from_home = home_of_mp t mp_id in
  if from_home <> to_ then begin
    let e = Directory.entry t.dirs.(from_home) ~mp_id in
    Directory.remove t.dirs.(from_home) ~mp_id;
    Directory.adopt t.dirs.(to_) e;
    Hashtbl.replace t.home_tbl mp_id to_;
    t.stats.home_migrations <- t.stats.home_migrations + 1;
    Obs.home_assign (obs t) ~time:(otime t) ~host:to_ ~mp_id ~home:to_;
    (* the minipage now belongs to [to_]'s log stream; the old home's stale
       replica entry is harmless (promotion walks the corpse's directory) *)
    log_entry_state t ~home:to_ e;
    log_shadow t ~home:to_ e
  end

let home_redirect t ~home ~req_id ~mp_id ~from =
  let new_home = home_of_mp t mp_id in
  t.stats.home_redirects <- t.stats.home_redirects + 1;
  Obs.home_redirect (obs t) ~time:(otime t) ~host:home ~span:req_id ~mp_id
    ~old_home:home ~new_home;
  send t ~src:home ~dst:from ~bytes:(header t)
    (Proto.Home_redirect { req_id; mp_id; home = new_home })

(* A REQUEST arriving at a host: resolve the minipage, settle first-toucher
   placement, and either serve it (we are its home), redirect a stale hint,
   or suppress a transport duplicate. *)
let manager_request t ~home ~req_id ~from ~access ~addr =
  let vm = t.host_states.(home).vm in
  let view = Vm.view_of vm addr and off = Vm.phys_off vm addr in
  let mp = Mpt.find_exn (Allocator.mpt t.allocator) off in
  if mp.Minipage.view <> view then
    failwith
      (Printf.sprintf
         "millipage: host accessed offset %d through view %d, but its minipage \
          belongs to view %d"
         off view mp.Minipage.view);
  let mp_id = mp.Minipage.id in
  if home = 0 && Hashtbl.mem t.ft_pending mp_id then begin
    Hashtbl.remove t.ft_pending mp_id;
    if from <> 0 then ft_migrate t ~mp_id ~to_:from
  end;
  if home_of_mp t mp_id <> home then home_redirect t ~home ~req_id ~mp_id ~from
  else if Directory.note_request t.dirs.(home) ~req_id then begin
    log_admit t ~home ~req_id ~mp_id;
    (* the queue record is made only for a request that must wait *)
    let e = Directory.entry t.dirs.(home) ~mp_id in
    if can_start_request e access then
      manager_start_request ~charge_lookup:true t ~home e ~req_id ~from ~access ~addr
    else manager_enqueue t ~home e (Directory.Q_request { req_id; from; access; addr })
  end
  else begin
    if Obs.enabled (obs t) then
      Obs.dup_suppressed (obs t) ~time:(otime t) ~host:home ~span:req_id ~src:from
        ~seq:(-1)
        ~label:(Printf.sprintf "REQUEST(%s @%d)" (Proto.access_to_string access) addr)
        ()
  end

let manager_push t ~home ~req_id ~from ~mp_id data =
  Hashtbl.remove t.ft_pending mp_id;
  if home_of_mp t mp_id <> home then home_redirect t ~home ~req_id ~mp_id ~from
  else begin
    log_admit t ~home ~req_id ~mp_id;
    manager_submit t ~home
      (Directory.entry t.dirs.(home) ~mp_id)
      (Directory.Q_push { req_id; from; data })
  end

let manager_inval_reply t ~home ~req_id ~mp_id ~from =
  let e = Directory.entry t.dirs.(home) ~mp_id in
  match e.pending with
  | Directory.Write_waiting_invals w when w.req_id = req_id ->
    w.waiting <- Host_set.remove from w.waiting;
    Obs.inval_ack (obs t) ~time:(otime t) ~host:home ~span:w.req_id ~mp_id ~from
      ~last:(Host_set.is_empty w.waiting);
    if Host_set.is_empty w.waiting then begin
      let upgrade = Host_set.mem w.from e.copyset in
      let supplier = if upgrade then None else Some (choose_supplier e ~from:w.from) in
      proceed_write t ~home e ~req_id:w.req_id ~from:w.from ~supplier
    end
  | _ ->
    (* stale: the write this inval belonged to already went through *)
    if Directory.completed t.dirs.(home) ~req_id then begin
      if Obs.enabled (obs t) then
        Obs.dup_suppressed (obs t) ~time:(otime t) ~host:home ~span:req_id
          ~src:from ~seq:(-1)
          ~label:(Printf.sprintf "INVALIDATE_REPLY(mp%d)" mp_id) ()
    end
    else failwith "millipage: unexpected INVALIDATE_REPLY"

(* Stamp a request's whole operation as done, and periodically prune both
   idempotence tables: once a completion is older than the retransmission
   window no duplicate of it can still arrive, so remembering it is pure
   memory growth (satellite: bounded idempotence state on soak runs). *)
let complete_req t ~home ~req_id e =
  let now = clock t in
  Directory.mark_completed_slot t.dirs.(home) ~req_id t.clock 0;
  log_complete t ~home ~req_id ~at:now;
  log_entry_state t ~home e;
  t.completions <- t.completions + 1;
  if t.completions land 255 = 0 then
    ignore
      (Directory.prune_completed t.dirs.(home) ~before:(now -. t.idem_retention_us))

let manager_ack t ~home ~req_id ~mp_id ~from =
  let e = Directory.entry t.dirs.(home) ~mp_id in
  if Directory.completed t.dirs.(home) ~req_id then begin
    (* a retransmitted ack for an operation that already closed: tolerate *)
    if Obs.enabled (obs t) then
      Obs.dup_suppressed (obs t) ~time:(otime t) ~host:home ~span:req_id ~src:from
        ~seq:(-1)
        ~label:(Printf.sprintf "ACK(mp%d)" mp_id) ()
  end
  else begin
    Obs.ack (obs t) ~time:(otime t) ~host:home ~span:req_id ~mp_id ~from;
    (match e.pending with
    | Directory.Reads_in_flight ->
      (* an ACK that matches no flight, or several, is a protocol error *)
      if not (Directory.remove_read t.dirs.(home) e ~req_id) then
        failwith "millipage: unexpected ACK";
      e.copyset <- Host_set.add from e.copyset
    | Directory.Write_in_flight { from = f; _ } when f = from ->
      e.copyset <- Host_set.singleton from;
      e.owner <- from;
      e.pending <- Directory.No_op
    | _ -> failwith "millipage: unexpected ACK");
    complete_req t ~home ~req_id e;
    manager_drain_queue t ~home e
  end

let live_copyset t =
  List.fold_left
    (fun acc h -> if t.declared.(h) then acc else Host_set.add h acc)
    Host_set.empty
    (List.init (hosts t) Fun.id)

let finish_push ?charge_lookup t ~home (e : Directory.entry) ~req_id ~from =
  e.copyset <- live_copyset t;
  e.owner <- (if t.declared.(from) then home else from);
  log_complete t ~home ~req_id ~at:(Engine.now t.engine);
  log_entry_state t ~home e;
  if not t.declared.(from) then
    send t ~src:home ~dst:from ~bytes:(header t) (Proto.Push_complete { req_id });
  e.pending <- Directory.No_op;
  manager_drain_queue ?charge_lookup t ~home e

let manager_push_ack t ~home ~mp_id ~from =
  match Directory.find t.dirs.(home) ~mp_id with
  | None -> ()
  | Some e -> (
    match e.pending with
    | Directory.Push_waiting_acks p ->
      p.waiting <- Host_set.remove from p.waiting;
      if Host_set.is_empty p.waiting then
        finish_push t ~home e ~req_id:p.req_id ~from:p.from
    | _ ->
      (* PUSH_UPDATE_ACK carries no req_id, so after crash recovery re-sent
         a push, a straggler ack for the aborted attempt can still land *)
      if not (ft_on t) then failwith "millipage: unexpected PUSH_UPDATE_ACK")

(* ------------------------------------------------------------------ *)
(* Composed views (§5): group fetch                                    *)
(* ------------------------------------------------------------------ *)

let manager_group_fetch t ~home ~req_id ~from ~group_id =
  let cost = t.config.cost in
  let members =
    match Hashtbl.find_opt t.groups group_id with
    | Some ids -> ids
    | None -> failwith (Printf.sprintf "millipage: unknown composed view %d" group_id)
  in
  Engine.delay_n cost.mpt_lookup_us (List.length members);
  (* serve only the members this shard homes; a member whose hint was stale
     lands in the wrong sub-fetch, is skipped here, and faults on demand
     later.  A group fetch counts as a touch: it fixes first-toucher members
     at host 0 (the fetcher gets a copy, not management). *)
  let members =
    List.filter
      (fun mp_id ->
        let mine = home_of_mp t mp_id = home in
        if mine then Hashtbl.remove t.ft_pending mp_id;
        mine)
      members
  in
  (* batch the fetchable members by the replica that will supply them *)
  let batches : (int, Proto.info list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun mp_id ->
      let e = Directory.entry t.dirs.(home) ~mp_id in
      let fetchable =
        (match e.pending with
        | Directory.No_op | Directory.Reads_in_flight -> true
        | _ -> false)
        && not (Host_set.mem from e.copyset)
        && e.mode = Proto.Sc
        (* RC members are skipped: they fault on demand and are served from
           the master copy *)
      in
      if fetchable then begin
        check_lost t e ~from;
        let replica = choose_read_replica e in
        Directory.add_read t.dirs.(home) e ~req_id ~from ~supplier:replica ~group:true;
        let infos =
          match Hashtbl.find_opt batches replica with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add batches replica r;
            r
        in
        infos := info_of t e.mp :: !infos
      end)
    members;
  send t ~src:home ~dst:from ~bytes:(header t)
    (Proto.Group_plan { req_id; batches = Hashtbl.length batches });
  Hashtbl.iter
    (fun replica infos ->
      send t ~src:home ~dst:replica
        ~bytes:(header t + (8 * List.length !infos))
        (Proto.Forward_group { req_id; from; members = !infos }))
    batches

(* Lenient on purpose: after crash recovery a batch may have been dropped
   (its flights scrubbed) while its data had already left the supplier, so a
   GROUP_ACK can name minipages with no matching flight. *)
let manager_group_ack t ~home ~req_id ~from ~mp_ids =
  List.iter
    (fun mp_id ->
      match Directory.find t.dirs.(home) ~mp_id with
      | None -> ()
      | Some e -> (
        match e.pending with
        | Directory.Reads_in_flight ->
          let acked = ref false in
          Directory.filter_reads t.dirs.(home) e ~keep:(fun f ->
              let mine = f.rf_req = req_id && f.rf_from = from in
              if mine then acked := true;
              not mine);
          if !acked then begin
            e.copyset <- Host_set.add from e.copyset;
            log_entry_state t ~home e;
            manager_drain_queue t ~home e
          end
        | _ -> ()))
    mp_ids

(* ------------------------------------------------------------------ *)
(* Release consistency: home side (master copy, diffs, mode switches)  *)
(* ------------------------------------------------------------------ *)

(* Finish a mode switch once every fenced sharer acked (or there was nobody
   to fence).  Also called from crash recovery, so it charges no simulated
   delay.  After a demotion the Figure-3 machine restarts from a clean
   single-copy state: the master copy installed at the home, sole member of
   the copyset. *)
let complete_mode_switch t ~home (e : Directory.entry) =
  let info = info_of t e.mp in
  let hh = t.host_states.(home) in
  (match e.mode with
  | Proto.Sc -> (
    Hashtbl.remove hh.rc_copies info.mp_id;
    match e.shadow with
    | Some master ->
      Vm.priv_write_bytes hh.vm ~off:info.base_off master;
      protect_info t hh info Prot.Read_only
    | None -> ())
  | Proto.Rc -> ());
  e.owner <- home;
  e.copyset <- Host_set.singleton home;
  e.pending <- Directory.No_op;
  log_append t ~home (Proto.L_mode { mp_id = info.mp_id; mode = e.mode; epoch = e.epoch });
  log_shadow t ~home e;
  log_entry_state t ~home e;
  manager_drain_queue ~charge_lookup:false t ~home e

(* Rc -> Sc.  Precondition: the entry is quiet (governor) or freshly scrubbed
   (recovery).  The mode and epoch flip immediately — requests arriving
   during the fence queue behind [Mode_switch_wait] and drain under SC. *)
let demote_entry t ~home (e : Directory.entry) =
  let info = info_of t e.mp in
  let targets = Host_set.filter (fun x -> not t.declared.(x)) e.copyset in
  e.mode <- Proto.Sc;
  e.epoch <- e.epoch + 1;
  t.stats.rc_demotes <- t.stats.rc_demotes + 1;
  t.mode_switch_log <- (Engine.now t.engine, info.mp_id, Proto.Sc) :: t.mode_switch_log;
  if Host_set.is_empty targets then complete_mode_switch t ~home e
  else begin
    e.pending <- Directory.Mode_switch_wait { epoch = e.epoch; waiting = targets };
    Host_set.iter
      (fun dst ->
        send t ~src:home ~dst ~bytes:(header t)
          (Proto.Mode_switch { mp_id = info.mp_id; epoch = e.epoch; mode = Proto.Sc; info }))
      targets
  end

(* Sc -> Rc: fence the sharers and capture the master copy.  Three sources,
   by decreasing directness: the home's own copy when it is a sharer (the SC
   invariant makes home-in-copyset equivalent to home-copy-current); the
   owner's [Mode_ack] payload when the home holds no copy — the fence stops
   further writes, so the owner's copy at fence receipt is the final SC
   content; the shadow when nobody holds a copy at all (then the shadow IS
   the content — the last completed barrier refreshed it and no copy means
   no writer since).  A copyless, shadowless entry has nothing to promote
   from and stays SC until a later tick. *)
let promote_entry t ~home (e : Directory.entry) =
  let info = info_of t e.mp in
  let hh = t.host_states.(home) in
  let home_has_copy = Host_set.mem home e.copyset in
  if home_has_copy || not (Host_set.is_empty e.copyset) || e.shadow <> None
  then begin
    e.mode <- Proto.Rc;
    e.epoch <- e.epoch + 1;
    t.stats.rc_promotes <- t.stats.rc_promotes + 1;
    t.mode_switch_log <- (Engine.now t.engine, info.mp_id, Proto.Rc) :: t.mode_switch_log;
    if home_has_copy then begin
      e.shadow <- Some (Vm.priv_read_bytes hh.vm ~off:info.base_off ~len:info.length);
      (* the home keeps a clean read-only RC copy of the fresh master *)
      delay_set_prot t info;
      protect_info t hh info Prot.Read_only;
      Hashtbl.replace hh.rc_copies info.mp_id
        { rc_info = info; rc_epoch = e.epoch; rc_twin = None }
    end;
    let targets =
      Host_set.filter (fun x -> x <> home && not t.declared.(x)) e.copyset
    in
    if Host_set.is_empty targets then complete_mode_switch t ~home e
    else begin
      e.pending <- Directory.Mode_switch_wait { epoch = e.epoch; waiting = targets };
      Host_set.iter
        (fun dst ->
          send t ~src:home ~dst ~bytes:(header t)
            (Proto.Mode_switch
               { mp_id = info.mp_id; epoch = e.epoch; mode = Proto.Rc; info }))
        targets
    end
  end

let manager_mode_ack t ~home ~mp_id ~epoch ~from ~data =
  match Directory.find t.dirs.(home) ~mp_id with
  | None -> ()
  | Some e -> (
    match e.pending with
    | Directory.Mode_switch_wait w when w.epoch = epoch ->
      (* a promotion ack may carry the sharer's SC copy: the owner's is the
         final content (its writes stop at fence receipt, and the channel is
         FIFO); any sharer's stands in when the owner is declared dead —
         surviving copies are all clean, hence identical *)
      (match data with
      | Some master when e.mode = Proto.Rc && (from = e.owner || t.declared.(e.owner))
        ->
        e.shadow <- Some master
      | _ -> ());
      w.waiting <- Host_set.remove from w.waiting;
      if Host_set.is_empty w.waiting then complete_mode_switch t ~home e
    | _ -> ())

(* A release-time diff reached a home: apply it to the master copy and ack
   the releaser.  Runs carry absolute replacement bytes, so application is
   idempotent (safe under crash-recovery resends), and the app's own
   synchronization keeps concurrent diffs disjoint (data-race freedom).
   During a fence, diffs from any older epoch are still merged — a sharer
   racing the fence (or two recovery demotions in a row) must not lose its
   writes; afterwards stale epochs are dropped. *)
let manager_rc_diff t ~home ~req_id ~from ~mp_id ~epoch ~(diff : Twin_diff.t) =
  let authoritative = home_of_mp t mp_id in
  if authoritative <> home then begin
    (* stale hint: pass the diff along to the authoritative home *)
    send t ~src:home ~dst:authoritative
      ~bytes:(header t + Twin_diff.encoded_bytes diff)
      (Proto.Rc_diff { req_id; from; mp_id; epoch; diff })
  end
  else begin
    Engine.delay t.config.cost.mpt_lookup_us;
    let e = Directory.entry t.dirs.(home) ~mp_id in
    let acceptable =
      (e.mode = Proto.Rc && epoch = e.epoch)
      ||
      match e.pending with
      | Directory.Mode_switch_wait _ -> epoch < e.epoch
      | _ -> false
    in
    (match e.shadow with
    | Some master when acceptable ->
      Engine.delay (Twin_diff.apply_cost_us diff);
      (* test-only mutation: the home silently discards the nth diff it
         would have applied — the releaser still gets its ack, so the
         release completes and the writes are lost without any protocol
         symptom.  Only the refinement spec's happens-before floor (an
         acquirer of the same lock reading below the released rank) can
         catch this. *)
      if not (mutation_fires t (function Lost_diff _ -> true | _ -> false)) then begin
        Twin_diff.apply diff master;
        gov_note_diff t mp_id ~from diff;
        log_append t ~home (Proto.L_diff { mp_id; diff })
      end
    | Some _ | None -> ());
    if not t.declared.(from) then
      send t ~src:home ~dst:from ~bytes:(header t) (Proto.Rc_diff_ack { req_id; mp_id })
  end

(* One governor evaluation over [home]'s shard, run when the host processes
   a barrier release — mode switches happen at sync points only, by
   construction.  Classification works on a windowed (decayed) signature
   with hysteresis streaks; pushed minipages are pinned to SC (promotion
   would forfeit the push path). *)
let governor_tick t ~home ~phase =
  if adaptive_on t then begin
    let c = t.config.consistency in
    if (phase + 1) mod max 1 c.Config.Consistency.adapt_interval = 0 then begin
      let entries =
        List.of_seq (Directory.entries t.dirs.(home))
        |> List.sort (fun (a : Directory.entry) b ->
               compare a.mp.Minipage.id b.mp.Minipage.id)
      in
      List.iter
        (fun (e : Directory.entry) ->
          match Hashtbl.find_opt t.gov e.mp.Minipage.id with
          | None -> ()
          | Some g when g.g_pushed -> ()
          | Some g ->
            if e.pending = Directory.No_op then begin
              (match Sharing.classify g.g_sig with
              | Sharing.Write_shared | Sharing.Falsely_shared
                when g.g_win_writes > 0 ->
                g.g_rc_streak <- g.g_rc_streak + 1;
                g.g_sc_streak <- 0
              | (Sharing.Write_shared | Sharing.Falsely_shared)
                when e.mode = Proto.Rc ->
                (* the decayed signature still reads write-shared but nobody
                   wrote this window: the write phase is over, lean SC *)
                g.g_sc_streak <- g.g_sc_streak + 1;
                g.g_rc_streak <- 0
              | Sharing.Write_shared | Sharing.Falsely_shared
              | Sharing.Low_traffic ->
                ()
              | _ ->
                g.g_sc_streak <- g.g_sc_streak + 1;
                g.g_rc_streak <- 0);
              g.g_win_writes <- 0;
              match e.mode with
              | Proto.Sc when g.g_rc_streak >= c.Config.Consistency.promote_after ->
                g.g_rc_streak <- 0;
                promote_entry t ~home e
              | Proto.Rc when g.g_sc_streak >= c.Config.Consistency.demote_after ->
                g.g_sc_streak <- 0;
                demote_entry t ~home e
              | _ -> ()
            end;
            Sharing.decay g.g_sig)
        entries
    end
  end

(* Refresh the shadow of every quiet minipage owned by [host] from the
   host's current content.  Called when [host] enters a barrier: at that
   point its phase writes are final (any release-consistent reader passes
   the same barrier), which makes a crash while parked at — or after — the
   barrier fully recoverable. *)
let shadow_sync_host t ~host =
  let refreshed = ref 0 in
  Array.iteri
    (fun home dir ->
      Seq.iter
        (fun (e : Directory.entry) ->
          if
            e.owner = host && e.pending = Directory.No_op && not e.lost
            && e.mode = Proto.Sc
            (* an RC shadow is the master copy, maintained by diffs — a sync
               from one sharer's VM would clobber the other writers' runs *)
          then begin
            let info = info_of t e.mp in
            let cur =
              Vm.priv_read_bytes t.host_states.(host).vm ~off:info.base_off
                ~len:info.length
            in
            let stale =
              match e.shadow with Some s -> not (Bytes.equal s cur) | None -> true
            in
            if stale then begin
              e.shadow <- Some cur;
              log_shadow t ~home e;
              incr refreshed
            end
          end)
        (Directory.entries dir))
    t.dirs;
  if !refreshed > 0 then begin
    t.stats.shadow_syncs <- t.stats.shadow_syncs + 1;
    Obs.shadow_sync (obs t) ~time:(otime t) ~host ~refreshed:!refreshed
  end

(* How many application threads the current barrier must collect: all of
   them, minus those of declared-dead hosts. *)
let live_thread_target t =
  let n = ref 0 in
  Array.iteri
    (fun h c -> if not t.declared.(h) then n := !n + c)
    t.threads_by_host;
  !n

let barrier_release t ~home ~phase =
  Hashtbl.remove t.barrier_counts phase;
  Hashtbl.remove t.barrier_sent phase;
  Hashtbl.replace t.released_phases phase home;
  for dst = 0 to hosts t - 1 do
    if not t.declared.(dst) then
      send t ~src:home ~dst ~bytes:(header t) (Proto.Barrier_release { phase })
  done

let manager_barrier_enter t ~home ~from ~tid ~phase =
  if not (t.declared.(from) || Hashtbl.mem t.released_phases phase) then begin
    if ft_on t then shadow_sync_host t ~host:from;
    let entered =
      match Hashtbl.find_opt t.barrier_counts phase with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add t.barrier_counts phase l;
        l
    in
    (* idempotent per thread: recovery may replay an enter the dead home had
       already counted *)
    if not (List.exists (fun (_, tid') -> tid' = tid) !entered) then begin
      entered := (from, tid) :: !entered;
      if List.length !entered >= live_thread_target t then
        barrier_release t ~home ~phase
    end
  end

let lock_state t lock =
  match Hashtbl.find t.locks lock with
  | s -> s
  | exception Not_found ->
    let s =
      { holder_host = -1; holder_tid = -1; lock_queue = Queue.create (); granted_from = -1 }
    in
    Hashtbl.add t.locks lock s;
    s

let grant_lock t ~home (s : lock_state) ~lock ~host ~tid =
  s.holder_host <- host;
  s.holder_tid <- tid;
  s.granted_from <- home;
  send t ~src:home ~dst:host ~bytes:(header t) (Proto.Lock_grant { lock; tid })

(* Whether [host]'s thread [tid] waits in [s]'s queue. *)
let queued (s : lock_state) ~host ~tid =
  (not (Queue.is_empty s.lock_queue))
  && Queue.fold (fun acc w -> acc || (w.w_host = host && w.w_tid = tid)) false s.lock_queue

let manager_lock_acquire t ~home ~from ~tid ~lock =
  let s = lock_state t lock in
  if (s.holder_host = from && s.holder_tid = tid) || queued s ~host:from ~tid then
    (* recovery re-enqueued this request from the sender's ground truth and
       the original acquire straggled in afterwards (or vice versa) *)
    ()
  else if s.holder_host >= 0 then Queue.add { w_host = from; w_tid = tid } s.lock_queue
  else grant_lock t ~home s ~lock ~host:from ~tid

(* Grant [s] to its next live waiter, or free it when none is left. *)
let rec pass_lock t ~home (s : lock_state) ~lock =
  if Queue.is_empty s.lock_queue then begin
    s.holder_host <- -1;
    s.holder_tid <- -1;
    s.granted_from <- -1
  end
  else
    let w = Queue.take s.lock_queue in
    if t.declared.(w.w_host) then pass_lock t ~home s ~lock
    else grant_lock t ~home s ~lock ~host:w.w_host ~tid:w.w_tid

(* The holder-side release logic, shared between live message processing and
   crash recovery's replay of releases swallowed by a dead home. *)
let lock_release_engine t ~home ~from ~lock =
  let s = lock_state t lock in
  if s.holder_host < 0 then begin
    (* recovery can legitimately produce a straggling duplicate *)
    if not (ft_on t) then failwith "millipage: release of a free lock"
  end
  (* a release from another host lost its lease (holder declared dead) while
     in flight, or is a fenced host's straggler: ignore it *)
  else if s.holder_host = from then pass_lock t ~home s ~lock

let manager_lock_release t ~home ~from ~lock =
  (* retire this release from the sender-side ground truth: it reached a home *)
  (match Hashtbl.find t.pending_releases lock with
  | entries -> entries := drop_first (fun e -> fst e = from) !entries
  | exception Not_found -> ());
  lock_release_engine t ~home ~from ~lock

(* ------------------------------------------------------------------ *)
(* Host side: replica and faulting-host handlers                       *)
(* ------------------------------------------------------------------ *)

let server_ack t (h : host_state) ~req_id ~mp_id =
  send t ~src:h.id ~dst:(hint_of h mp_id) ~bytes:(header t)
    (Proto.Ack { req_id; mp_id; from = h.id })

(* Eager shadow refresh: every data transfer out of a host deposits the
   transferred content in the home-side shadow (modeled as a piggybacked
   copy), so the shadow always holds the minipage's last observed version. *)
let shadow_refresh t (info : Proto.info) data =
  if ft_on t then begin
    let home = home_of_mp t info.mp_id in
    let e = Directory.entry t.dirs.(home) ~mp_id:info.mp_id in
    e.shadow <- Some (Bytes.copy data);
    Obs.shadow_refresh (obs t) ~time:(otime t) ~host:home ~mp_id:info.mp_id
      ~bytes:info.length;
    log_shadow t ~home e
  end

(* A [Reply_data] buffer of [len] bytes, from the free stack when it has
   one.  Its bytes are stale until the caller fills them. *)
let take_reply_buf t len =
  match Hashtbl.find t.reply_bufs len with
  | s when not (Pool.is_empty s) -> Pool.pop s
  | _ -> Bytes.create len
  | exception Not_found ->
    Hashtbl.add t.reply_bufs len (Pool.create ());
    Bytes.create len

let host_forward t (h : host_state) ~req_id ~from ~access (info : Proto.info) =
  let cost = t.config.cost in
  (* never serve a declared-dead requester; the manager scrubbed (or will
     scrub) this flight at declaration *)
  if not (ft_on t && Host_set.mem from h.dead_peers) then begin
    (match access with
    | Proto.Read ->
      Engine.delay cost.get_prot_us;
      let first = first_vpage t info in
      (match Vm.protection h.vm ~view:info.mp_view ~vpage:first with
      | Prot.Read_write ->
        delay_set_prot t info;
        protect_info t h info Prot.Read_only
      | Prot.Read_only | Prot.No_access -> ())
    | Proto.Write ->
      (* the supplier gives its copy away *)
      delay_set_prot t info;
      protect_info t h info Prot.No_access);
    let data = take_reply_buf t info.length in
    Vm.priv_read_into h.vm ~off:info.base_off data;
    shadow_refresh t info data;
    (* test-only mutation: the nth data reply serves the minipage's initial
       (all-zero) snapshot instead of the current bytes — the stale-supply
       bug mpcheck's coherence checker must catch *)
    if mutation_fires t (function Stale_reply_data _ -> true | _ -> false) then
      Bytes.fill data 0 info.length '\000';
    send t ~src:h.id ~dst:from ~bytes:(header t)
      (Proto.Reply_header { req_id; access; info });
    t.stats.data_replies <- t.stats.data_replies + 1;
    send t ~src:h.id ~dst:from
      ~bytes:(Cost_model.data_message_bytes cost info.length)
      (Proto.Reply_data { req_id; access; info; data })
  end

(* Wake the threads blocked on a fault record [e] already removed from the
   in-flight table.  With none, nothing reads [e] again, so it is free at
   once; otherwise the last of them frees it ([on_fault]). *)
let wake_flight (h : host_state) e =
  Sync.Event.set e.event;
  if e.waiters = 0 then Pool.push h.free_flights e

(* Wake the fault in flight on [vp] for [idx], if any; true when it was
   [req_id]'s. *)
let wake_inflight t (h : host_state) ~req_id (info : Proto.info) vp idx =
  let i = fault_slot h (fault_key ~view:info.mp_view ~vpage:vp idx) in
  if i < 0 then false
  else begin
    let e = h.fault_recs.(i) in
    remove_fault h i;
    let mine = e.req_id = req_id in
    if mine then begin
      if e.waiters > 0 then begin
        e.ack_req <- req_id;
        e.ack_mp <- info.mp_id
      end
      else server_ack t h ~req_id ~mp_id:info.mp_id
    end;
    wake_flight h e;
    mine
  end

(* Wake the faulting thread(s) a landed data message satisfies and route the
   protocol ack — shared by the SC reply path and the RC serve path. *)
let reply_wake t (h : host_state) ~req_id ~access (info : Proto.info) =
  let first = first_vpage t info and last = last_vpage t info in
  let matched = ref false in
  for vp = first to last do
    (* a write reply satisfies everyone; a read reply only read waiters *)
    (match access with
    | Proto.Write ->
      if wake_inflight t h ~req_id info vp (access_idx Proto.Write) then matched := true
    | Proto.Read -> ());
    if wake_inflight t h ~req_id info vp (access_idx Proto.Read) then matched := true
  done;
  if not !matched then server_ack t h ~req_id ~mp_id:info.mp_id

(* A reply landed ([Write_grant], or [Reply_data] once its bytes are
   written): protect the minipage and wake its faulting threads. *)
let host_reply t (h : host_state) ~req_id ~access (info : Proto.info) =
  delay_set_prot t info;
  protect_info t h info
    (match access with Proto.Read -> Prot.Read_only | Proto.Write -> Prot.Read_write);
  Obs.reply (obs t) ~time:(otime t) ~host:h.id ~span:req_id
    ~access:(obs_access access) ~mp_id:info.mp_id ~bytes:info.length;
  reply_wake t h ~req_id ~access info

let host_reply_data t (h : host_state) ~req_id ~access (info : Proto.info) data =
  Engine.delay_n t.config.cost.recv_dma_us_per_byte info.length;
  Vm.priv_write_bytes h.vm ~off:info.base_off data;
  host_reply t h ~req_id ~access info

(* ------------------------------------------------------------------ *)
(* Release consistency: sharer side (copies, twins, flushes)           *)
(* ------------------------------------------------------------------ *)

(* A release-consistent serve landed: install the master-copy snapshot,
   twin it on a write, wake the faulting thread.  The reply itself tells
   this host the minipage is in RC mode (registering the local RC copy).
   When a dirty copy already exists — two serves raced to the same host —
   the snapshot is NOT installed: the local bytes are the same snapshot
   plus this host's own writes, which the install would lose. *)
let host_rc_data t (h : host_state) ~req_id ~access (info : Proto.info) ~epoch data =
  let cost = t.config.cost in
  Engine.delay_n cost.recv_dma_us_per_byte info.length;
  let c =
    match Hashtbl.find_opt h.rc_copies info.mp_id with
    | Some c ->
      c.rc_epoch <- epoch;
      c
    | None ->
      let c = { rc_info = info; rc_epoch = epoch; rc_twin = None } in
      Hashtbl.add h.rc_copies info.mp_id c;
      c
  in
  if c.rc_twin = None then Vm.priv_write_bytes h.vm ~off:info.base_off data;
  (match access with
  | Proto.Read ->
    delay_set_prot t info;
    protect_info t h info Prot.Read_only
  | Proto.Write ->
    if c.rc_twin = None then begin
      Engine.delay (Twin_diff.creation_cost_us ~page_bytes:info.length);
      c.rc_twin <- Some (Twin_diff.twin data);
      t.stats.rc_twins <- t.stats.rc_twins + 1
    end;
    delay_set_prot t info;
    protect_info t h info Prot.Read_write);
  Obs.reply (obs t) ~time:(otime t) ~host:h.id ~span:req_id
    ~access:(obs_access access) ~mp_id:info.mp_id ~bytes:info.length;
  reply_wake t h ~req_id ~access info

(* A write fault on a minipage this host already holds read-only under RC:
   no message at all — twin the page and upgrade locally (the multi-writer
   fast path that makes write-shared data cheap). *)
let rc_write_local t (h : host_state) (c : rc_copy) =
  let info = c.rc_info in
  if c.rc_twin = None then begin
    Engine.delay (Twin_diff.creation_cost_us ~page_bytes:info.length);
    (* [priv_read_bytes] returns a fresh copy: it is the twin *)
    c.rc_twin <- Some (Vm.priv_read_bytes h.vm ~off:info.base_off ~len:info.length);
    t.stats.rc_twins <- t.stats.rc_twins + 1
  end;
  delay_set_prot t info;
  protect_info t h info Prot.Read_write

let host_rc_diff_ack (h : host_state) ~req_id =
  match Hashtbl.find_opt h.rc_out req_id with
  | None -> ()
  | Some o ->
    Hashtbl.remove h.rc_out req_id;
    if o.rd_waited then begin
      h.rc_flush_pending <- h.rc_flush_pending - 1;
      (* wake every blocked releaser; each re-checks its own condition (two
         threads of one host can be flushing concurrently) *)
      Queue.iter Sync.Event.set h.rc_flush_waiters;
      Queue.clear h.rc_flush_waiters
    end

(* Send a copy's release diff to its home, unless it is empty, and keep it
   in [rc_out] until the ack so a home crash can re-aim it.  [waited]: a
   release blocks on the ack. *)
let rc_send_diff t (h : host_state) ~mp_id ~epoch ~waited diff =
  if not (Twin_diff.is_empty diff) then begin
    let req_id = fresh_req t in
    let o =
      { rd_req = req_id; rd_mp = mp_id; rd_epoch = epoch; rd_diff = diff;
        rd_target = hint_of h mp_id; rd_waited = waited }
    in
    Hashtbl.replace h.rc_out req_id o;
    if waited then h.rc_flush_pending <- h.rc_flush_pending + 1;
    t.stats.rc_diffs <- t.stats.rc_diffs + 1;
    t.stats.rc_diff_bytes <- t.stats.rc_diff_bytes + Twin_diff.encoded_bytes diff;
    send t ~src:h.id ~dst:o.rd_target
      ~bytes:(header t + Twin_diff.encoded_bytes diff)
      (Proto.Rc_diff { req_id; from = h.id; mp_id; epoch; diff })
  end

(* Flush every dirty RC copy on this host to its home as a run-length diff
   and block until each diff is acked — the release half of the protocol,
   called at barrier entry, unlock, and before a push. *)
let rc_flush t (h : host_state) =
  if rc_on t then begin
    let dirty =
      Hashtbl.fold
        (fun mp_id c acc -> if c.rc_twin <> None then (mp_id, c) :: acc else acc)
        h.rc_copies []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter
      (fun (mp_id, c) ->
        let info = c.rc_info in
        let twin = Option.get c.rc_twin in
        let current = Vm.priv_read_bytes h.vm ~off:info.base_off ~len:info.length in
        Engine.delay (Twin_diff.creation_cost_us ~page_bytes:info.length);
        let diff = Twin_diff.diff ~twin ~current in
        c.rc_twin <- None;
        delay_set_prot t info;
        protect_info t h info Prot.Read_only;
        rc_send_diff t h ~mp_id ~epoch:c.rc_epoch ~waited:true diff)
      dirty;
    while h.rc_flush_pending > 0 do
      let ev = Sync.Event.create ~auto_reset:false ~name:"rc-flush" () in
      Queue.add ev h.rc_flush_waiters;
      Sync.Event.wait ev
    done
  end

(* Acquire-side conservative invalidation: on a barrier release or lock
   grant, drop every CLEAN local RC copy, so post-acquire reads refetch the
   master copy (which holds every write released before this acquire).
   Dirty copies survive: their pending writes are race-free by the app's own
   synchronization and flush at this host's next release. *)
let rc_acquire_invalidate t (h : host_state) =
  let copies =
    Hashtbl.fold (fun mp_id c acc -> (mp_id, c) :: acc) h.rc_copies []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (mp_id, (c : rc_copy)) ->
      if c.rc_twin = None then begin
        Hashtbl.remove h.rc_copies mp_id;
        delay_set_prot t c.rc_info;
        protect_info t h c.rc_info Prot.No_access
      end)
    copies

(* The epoch fence of a mode switch arrives at a sharer: flush a dirty copy
   (the channel is FIFO, so the diff precedes the ack at the home), drop the
   copy, and acknowledge.  SC sharers being promoted hold no [rc_copies]
   entry and just drop protection. *)
let host_mode_switch t (h : host_state) ~mp_id ~epoch ~mode (info : Proto.info) =
  (* on a promotion fence, a valid SC copy rides along on the ack — captured
     before protection drops (the home adopts the owner's payload as master) *)
  let data =
    if mode = Proto.Rc && not (Hashtbl.mem h.rc_copies mp_id) then begin
      let first = first_vpage t info in
      if Vm.protection h.vm ~view:info.mp_view ~vpage:first <> Prot.No_access
      then Some (Vm.priv_read_bytes h.vm ~off:info.base_off ~len:info.length)
      else None
    end
    else None
  in
  (match Hashtbl.find_opt h.rc_copies mp_id with
  | Some c ->
    (match c.rc_twin with
    | Some twin ->
      let current = Vm.priv_read_bytes h.vm ~off:info.base_off ~len:info.length in
      Engine.delay (Twin_diff.creation_cost_us ~page_bytes:info.length);
      let diff = Twin_diff.diff ~twin ~current in
      c.rc_twin <- None;
      rc_send_diff t h ~mp_id ~epoch:c.rc_epoch ~waited:false diff
    | None -> ());
    Hashtbl.remove h.rc_copies mp_id
  | None -> ());
  delay_set_prot t info;
  protect_info t h info Prot.No_access;
  send t ~src:h.id ~dst:(hint_of h mp_id)
    ~bytes:(header t + match data with Some b -> Bytes.length b | None -> 0)
    (Proto.Mode_ack { mp_id; epoch; from = h.id; data })

(* wake read waiters covered by a freshly arrived minipage, without claiming
   any ack (used by group fetches, whose single GROUP_ACK covers everything) *)
let wake_read_entries (h : host_state) t (info : Proto.info) =
  let first = first_vpage t info and last = last_vpage t info in
  for vp = first to last do
    let i = fault_slot h (fault_key ~view:info.mp_view ~vpage:vp (access_idx Proto.Read)) in
    if i >= 0 then begin
      let e = h.fault_recs.(i) in
      remove_fault h i;
      wake_flight h e
    end
  done

(* The fetching thread registers its sub-fetch record before sending, so a
   plan or data message with no record is stale (the fetch completed, or was
   re-aimed by crash recovery under a fresh id). *)
let new_group_fetch (h : host_state) req_id ~group_id ~target =
  let gf =
    {
      gf_event = Sync.Event.create ~auto_reset:false ~name:"group-fetch" ();
      gf_group = group_id;
      gf_target = target;
      gf_expected = None;
      gf_received = 0;
      gf_mp_ids = [];
    }
  in
  Hashtbl.add h.group_fetches req_id gf;
  gf

let group_fetch_check gf =
  match gf.gf_expected with
  | Some k when gf.gf_received >= k -> Sync.Event.set gf.gf_event
  | Some _ | None -> ()

let host_forward_group t (h : host_state) ~req_id ~from members =
  let cost = t.config.cost in
  if not (ft_on t && Host_set.mem from h.dead_peers) then begin
  let payload =
    List.map
      (fun (info : Proto.info) ->
        Engine.delay cost.get_prot_us;
        let first = first_vpage t info in
        (match Vm.protection h.vm ~view:info.mp_view ~vpage:first with
        | Prot.Read_write ->
          delay_set_prot t info;
          protect_info t h info Prot.Read_only
        | Prot.Read_only | Prot.No_access -> ());
        let data = Vm.priv_read_bytes h.vm ~off:info.base_off ~len:info.length in
        shadow_refresh t info data;
        (info, data))
      members
  in
  let bytes =
    List.fold_left
      (fun acc ((info : Proto.info), _) -> acc + 8 + info.length)
      (header t) payload
  in
  send t ~src:h.id ~dst:from ~bytes (Proto.Group_data { req_id; members = payload })
  end

let host_group_data t (h : host_state) ~req_id members =
  let cost = t.config.cost in
  List.iter
    (fun ((info : Proto.info), data) ->
      Engine.delay
        ((cost.recv_dma_us_per_byte *. float_of_int info.length)
        +. (cost.set_prot_us *. float_of_int (n_vpages t info)));
      Vm.priv_write_bytes h.vm ~off:info.base_off data;
      protect_info t h info Prot.Read_only;
      wake_read_entries h t info)
    members;
  match Hashtbl.find_opt h.group_fetches req_id with
  | None ->
    (* the data is still useful (written and protected above); only the
       completion bookkeeping is stale *)
    ()
  | Some gf ->
    gf.gf_received <- gf.gf_received + 1;
    gf.gf_mp_ids <-
      List.fold_left
        (fun acc ((info : Proto.info), _) -> info.mp_id :: acc)
        gf.gf_mp_ids members;
    group_fetch_check gf

let host_group_plan (h : host_state) ~req_id ~batches =
  match Hashtbl.find_opt h.group_fetches req_id with
  | None -> ()
  | Some gf ->
    gf.gf_expected <- Some batches;
    group_fetch_check gf

(* Crash recovery dropped [drop] of the announced batches (their supplier
   died); the skipped members fault on demand later.  The channel is FIFO,
   so the plan always precedes its replan. *)
let host_group_replan (h : host_state) ~req_id ~drop =
  match Hashtbl.find_opt h.group_fetches req_id with
  | None -> () (* fetch already complete *)
  | Some gf -> (
    match gf.gf_expected with
    | None -> failwith "millipage: GROUP_REPLAN before GROUP_PLAN"
    | Some k ->
      gf.gf_expected <- Some (k - drop);
      group_fetch_check gf)

let host_invalidate t (h : host_state) ~req_id (info : Proto.info) =
  delay_set_prot t info;
  protect_info t h info Prot.No_access;
  (* test-only mutation: swallow the nth invalidation acknowledgement — the
     writer's invalidation round never completes, which the invariant
     checker (Inval without Inval_ack, Fault without Fault_done) and the
     deadlock report must both surface *)
  if not (mutation_fires t (function Drop_inval_ack _ -> true | _ -> false)) then
    send t ~src:h.id ~dst:(hint_of h info.mp_id) ~bytes:(header t)
      (Proto.Invalidate_reply { req_id; mp_id = info.mp_id; from = h.id })

let host_push_update t (h : host_state) (info : Proto.info) data =
  let cost = t.config.cost in
  Engine.delay_n cost.recv_dma_us_per_byte info.length;
  Vm.priv_write_bytes h.vm ~off:info.base_off data;
  (* a push overwrites the whole minipage: any local RC twin is obsolete
     (the pushed content IS the new master) *)
  (match Hashtbl.find_opt h.rc_copies info.mp_id with
  | Some c -> c.rc_twin <- None
  | None -> ());
  delay_set_prot t info;
  protect_info t h info Prot.Read_only;
  send t ~src:h.id ~dst:(hint_of h info.mp_id) ~bytes:(header t)
    (Proto.Push_update_ack { mp_id = info.mp_id; from = h.id })

let host_barrier_release (h : host_state) ~phase =
  let ev =
    match Hashtbl.find_opt h.barrier_events phase with
    | Some ev -> ev
    | None ->
      let ev = Sync.Event.create ~auto_reset:false ~name:"barrier" () in
      Hashtbl.add h.barrier_events phase ev;
      ev
  in
  Sync.Event.set ev

let host_lock_grant t (h : host_state) ~lock ~tid =
  (* retire the granted request from the sender-side ground truth; the home
     grants in our send order, so the first entry for this host is [tid]'s *)
  (match Hashtbl.find t.lock_requests lock with
  | entries -> entries := drop_first (fun e -> fst e = h.id && snd e = tid) !entries
  | exception Not_found -> ());
  match Hashtbl.find h.lock_waiters lock with
  | q when not (Queue.is_empty q) -> Sync.Event.set (Queue.take q)
  | _ -> failwith "millipage: LOCK_GRANT with no local waiter"
  | exception Not_found -> failwith "millipage: LOCK_GRANT with no local waiter"

let host_push_complete (h : host_state) ~req_id =
  match Hashtbl.find_opt h.push_waiters req_id with
  | Some pw ->
    Hashtbl.remove h.push_waiters req_id;
    Sync.Event.set pw.pu_event
  | None -> failwith "millipage: PUSH_COMPLETE with no waiter"

(* Our home hint was stale: learn the minipage's current home and resend the
   operation there under the same request id (the id, not the destination,
   is what the idempotence tables key on). *)
let host_home_redirect t (h : host_state) ~req_id ~mp_id ~home =
  Hashtbl.replace h.hints mp_id home;
  let i = req_slot h req_id in
  if i >= 0 then begin
    let e = h.fault_recs.(i) in
    e.target <- home;
    send t ~src:h.id ~dst:home ~bytes:(header t)
      (Proto.Request { req_id; from = h.id; access = e.access; addr = e.addr })
  end
  else
    match Hashtbl.find_opt h.push_waiters req_id with
    | Some pw ->
      pw.pu_target <- home;
      send t ~src:h.id ~dst:home
        ~bytes:(header t + pw.pu_info.Proto.length)
        (Proto.Push { req_id; from = h.id; info = pw.pu_info; data = pw.pu_data })
    | None ->
      (* the operation completed through another path (e.g. a duplicate was
         redirected after the original was served) *)
      ()

(* ------------------------------------------------------------------ *)
(* Crash faults: injection, failure detection, recovery                *)
(* ------------------------------------------------------------------ *)

(* Fail-stop a host: silence its fabric endpoint and kill its processes
   (application threads and heartbeat sender).  Used both for injected
   crashes and for fencing a host the detector declared dead — a declared
   host is evicted even if it was merely stalled, so detector false
   positives degrade to fail-stop evictions instead of split-brain. *)
let crash_host t h ~fenced =
  if not t.crashed.(h) then begin
    t.crashed.(h) <- true;
    Fabric.crash t.fabric ~host:h;
    ignore (Engine.kill_group t.engine h);
    if not fenced then Obs.host_crash (obs t) ~time:(otime t) ~host:h;
    if all_live_done t then t.ft_stop <- true
  end

let stall_host t h ~until =
  if not (t.crashed.(h) || t.declared.(h)) then begin
    Fabric.stall t.fabric ~host:h ~until;
    Obs.host_stall (obs t) ~time:(otime t) ~host:h ~until
  end

(* Did the dead host write this minipage after its last observed transfer?
   Ground truth read from the corpse's simulated memory — the manager only
   learns the consequence (shadow mismatch ⇒ the content is unrecoverable). *)
let dead_wrote t dead (e : Directory.entry) =
  let info = info_of t e.mp in
  let hvm = t.host_states.(dead).vm in
  let first = first_vpage t info in
  match Vm.protection hvm ~view:info.mp_view ~vpage:first with
  | Prot.Read_write -> (
    let cur = Vm.priv_read_bytes hvm ~off:info.base_off ~len:info.length in
    match e.shadow with Some s -> not (Bytes.equal cur s) | None -> true)
  | Prot.Read_only | Prot.No_access -> false

(* The dead host held the only copy: re-materialize the minipage at [at]
   (the serving home, or the promoted backup) from the shadow, its last
   observed version.  If the dead host wrote after that version was captured
   the install is a release-consistency rollback: the dead host's
   un-released writes are discarded and survivors continue from the last
   synced version (a write is only "acked" once it was released, and
   releases sync the shadow).  A minipage with no shadow at all is lost:
   there is nothing to roll back to. *)
let install_shadow t (e : Directory.entry) ~dead ~at =
  let info = info_of t e.mp in
  let lost = e.shadow = None in
  let rolled = (not lost) && dead_wrote t dead e in
  (match e.shadow with
  | Some data ->
    let mh = t.host_states.(at) in
    Vm.priv_write_bytes mh.vm ~off:info.base_off data;
    protect_info t mh info Prot.Read_only
  | None -> ());
  e.owner <- at;
  e.copyset <- Host_set.singleton at;
  if lost then begin
    e.lost <- true;
    t.lost_mps <- info.mp_id :: t.lost_mps
  end;
  if rolled then t.stats.rolled_back_minipages <- t.stats.rolled_back_minipages + 1;
  if not lost then t.stats.recovered_minipages <- t.stats.recovered_minipages + 1;
  Obs.recover_minipage (obs t) ~time:(otime t) ~host:at ~span:0
    ~mp_id:info.mp_id ~lost

(* Walk one directory shard and erase host [h] from it: drop its queued
   operations, remove it from copysets, resolve every pending operation it
   participated in, and recover minipages it exclusively owned.  [home] is
   the shard's host, which runs the recovery sends. *)
let scrub_shard t ~home h =
  let now = Engine.now t.engine in
  let dir = t.dirs.(home) in
  (* (req_id, fetching host) of group batches that died with their supplier *)
  let dead_batches : (int * int, unit) Hashtbl.t = Hashtbl.create 4 in
  Seq.iter
    (fun (e : Directory.entry) ->
      let info = info_of t e.mp in
      (* 1. the dead host's queued operations will never be acked: drop them *)
      let dropped =
        Directory.drop_queued dir e ~keep:(function
          | Directory.Q_request { from; _ } | Directory.Q_push { from; _ } ->
            from <> h)
      in
      List.iter
        (fun q ->
          let req_id = queued_span q in
          Obs.queue_exit (obs t) ~time:now ~host:home ~span:req_id
            ~mp_id:info.mp_id ~depth:(Directory.queue_depth dir);
          mark_completed_logged t ~home ~req_id ~now)
        dropped;
      (* 2. scrub the copyset *)
      e.copyset <- Host_set.remove h e.copyset;
      let exclusive = e.owner = h && Host_set.is_empty e.copyset in
      if e.owner = h && not exclusive then e.owner <- Host_set.min_elt e.copyset;
      (* 3. resolve the pending operation *)
      (match e.pending with
      | Directory.No_op -> if exclusive then install_shadow t e ~dead:h ~at:home
      | Directory.Reads_in_flight ->
        if exclusive then install_shadow t e ~dead:h ~at:home;
        Directory.filter_reads dir e ~keep:(fun f ->
          if f.rf_from = h then begin
            (* the requester died; its reply (if any) lands on a silenced
               endpoint *)
            mark_completed_logged t ~home ~req_id:f.rf_req ~now;
            false
          end
          else if f.rf_supplier = h then
            if f.rf_group then begin
              (* the whole batch died with its supplier: tell the fetcher
                 to stop waiting for it (members fault on demand later) *)
              Hashtbl.replace dead_batches (f.rf_req, f.rf_from) ();
              false
            end
            else begin
              (* re-aim the forward at a surviving replica (possibly the
                 manager's freshly recovered copy) *)
              check_lost t e ~from:f.rf_from;
              let replica = choose_read_replica e in
              f.rf_supplier <- replica;
              Obs.forward (obs t) ~time:now ~host:home ~span:f.rf_req
                ~access:Mp_obs.Event.Read ~mp_id:info.mp_id ~supplier:replica;
              send t ~src:home ~dst:replica ~bytes:(header t)
                (Proto.Forward
                   { req_id = f.rf_req; from = f.rf_from; access = Proto.Read;
                     info });
              true
            end
          else true)
      | Directory.Write_waiting_invals w ->
        if w.from = h then begin
          (* the writer died before its invalidation round finished.  Targets
             that already processed the INVALIDATE dropped their copies and
             the rest will when it arrives, so none of them can serve
             anymore. *)
          mark_completed_logged t ~home ~req_id:w.req_id ~now;
          e.copyset <- Host_set.diff e.copyset w.targets;
          e.pending <- Directory.No_op;
          if Host_set.is_empty e.copyset then install_shadow t e ~dead:h ~at:home
          else if not (Host_set.mem e.owner e.copyset) then
            e.owner <- Host_set.min_elt e.copyset
        end
        else if Host_set.mem h w.waiting then begin
          (* the dead host was an invalidation target: its copy is gone with
             it, which is exactly what the INVALIDATE wanted *)
          w.waiting <- Host_set.remove h w.waiting;
          if Host_set.is_empty w.waiting then begin
            let upgrade = Host_set.mem w.from e.copyset in
            let supplier =
              if upgrade then None else Some (choose_supplier e ~from:w.from)
            in
            proceed_write t ~home e ~req_id:w.req_id ~from:w.from ~supplier
          end
        end
      | Directory.Write_in_flight w ->
        if w.from = h then begin
          (* the data (or grant) went to the dead writer; the supplier has
             already downgraded to No_access, so the shadow holds the only
             recoverable version *)
          mark_completed_logged t ~home ~req_id:w.req_id ~now;
          e.pending <- Directory.No_op;
          install_shadow t e ~dead:h ~at:home
        end
        else if w.supplier = h then begin
          (* the supplier died before serving (had it served, the reply and
             ack would have completed the operation well inside the declare
             timeout): recover at the home and re-forward from there *)
          install_shadow t e ~dead:h ~at:home;
          check_lost t e ~from:w.from;
          w.supplier <- home;
          Obs.forward (obs t) ~time:now ~host:home ~span:w.req_id
            ~access:Mp_obs.Event.Write ~mp_id:info.mp_id ~supplier:home;
          send t ~src:home ~dst:home ~bytes:(header t)
            (Proto.Forward
               { req_id = w.req_id; from = w.from; access = Proto.Write; info })
        end
      | Directory.Push_waiting_acks p ->
        if p.from = h then begin
          (* the pusher died waiting for update acks; the updates themselves
             carry complete fresh content, so the push still completes for
             the survivors *)
          mark_completed_logged t ~home ~req_id:p.req_id ~now;
          finish_push ~charge_lookup:false t ~home e ~req_id:p.req_id ~from:p.from
        end
        else if Host_set.mem h p.waiting then begin
          p.waiting <- Host_set.remove h p.waiting;
          if Host_set.is_empty p.waiting then
            finish_push ~charge_lookup:false t ~home e ~req_id:p.req_id ~from:p.from
        end
      | Directory.Mode_switch_wait w ->
        (* a fenced sharer died: its copy is gone with it, which is exactly
           what the fence wanted (any dirty diff it held is discarded — a
           rollback to the last release, like the shadow path) *)
        if Host_set.mem h w.waiting then begin
          w.waiting <- Host_set.remove h w.waiting;
          if Host_set.is_empty w.waiting then complete_mode_switch t ~home e
        end);
      (* the scrub itself is a state transition this home's backup must see *)
      log_entry_state t ~home e;
      (* 4. whatever became startable, start it *)
      manager_drain_queue ~charge_lookup:false t ~home e)
    (Directory.entries dir);
  Hashtbl.iter
    (fun (req_id, from) () ->
      if not t.declared.(from) then
        send t ~src:home ~dst:from ~bytes:(header t)
          (Proto.Group_replan { req_id; drop = 1 }))
    dead_batches

(* Lock leases: a lock held by the dead host is revoked and granted to the
   next live waiter.  Recovery grants run from [site], the recovery site
   [declare_dead] picked. *)
let revoke_leases t h ~site =
  Hashtbl.iter
    (fun lock (s : lock_state) ->
      if s.holder_host = h then begin
        pass_lock t ~home:site s ~lock;
        t.stats.leases_revoked <- t.stats.leases_revoked + 1;
        Obs.lease_revoke (obs t) ~time:(otime t) ~host:h ~lock ~next:s.holder_host
      end)
    t.locks

(* Lock-side recovery beyond lease revocation.  The global lock state
   survived (only its home — message routing — changed), but traffic in
   flight to the dead home is gone: replay releases it swallowed, re-enqueue
   acquires it swallowed (idempotently, from the senders' ground truth), and
   re-send a grant the dead home issued that may never have been delivered. *)
let rebuild_locks t h ~site =
  (* releases that were aimed at the dead home *)
  Hashtbl.iter
    (fun lock entries ->
      let swallowed, rest =
        List.partition
          (fun (from, target) -> target = h && not t.declared.(from))
          !entries
      in
      entries := List.filter (fun (from, _) -> not t.declared.(from)) rest;
      List.iter (fun (from, _) -> lock_release_engine t ~home:site ~from ~lock) swallowed)
    t.pending_releases;
  (* acquires outstanding anywhere: drop dead senders, restore swallowed ones *)
  Hashtbl.iter
    (fun lock entries ->
      entries := List.filter (fun (from, _) -> not t.declared.(from)) !entries;
      let s = lock_state t lock in
      let keep = Queue.create () in
      Queue.iter (fun w -> if not t.declared.(w.w_host) then Queue.add w keep) s.lock_queue;
      Queue.clear s.lock_queue;
      Queue.transfer keep s.lock_queue;
      List.iter
        (fun (from, tid) ->
          if s.holder_host = from && s.holder_tid = tid then begin
            (* the grant left the dead home; if the host-side record is still
               outstanding it was swallowed (or may race recovery — the
               receiver dedupes), so re-send it from the recovery site *)
            if s.granted_from = h then grant_lock t ~home:site s ~lock ~host:from ~tid
          end
          else if not (queued s ~host:from ~tid) then
            Queue.add { w_host = from; w_tid = tid } s.lock_queue)
        !entries;
      (* a free lock with waiters can only arise from the replays above *)
      if s.holder_host < 0 then pass_lock t ~home:site s ~lock)
    t.lock_requests

(* Degraded barriers: every unreleased phase is rebuilt from the senders'
   ground truth — this both shrinks it to the survivors and restores enters
   swallowed by a dead sync home — then released if the survivors are now
   all in.  Already-released phases are not safe to skip outright: a release
   the dead host [h] sent can have been dropped on the wire with the
   retransmission abandoned at its death, leaving a survivor parked forever
   in a phase the rest of the cluster left — so [h]'s releases are re-sent
   from [site] (receivers treat duplicates as no-ops). *)
let rebuild_barriers t h ~site =
  let stale =
    Hashtbl.fold
      (fun phase releaser acc -> if releaser = h then phase :: acc else acc)
      t.released_phases []
  in
  List.iter
    (fun phase ->
      Hashtbl.replace t.released_phases phase site;
      t.stats.barrier_release_replays <- t.stats.barrier_release_replays + 1;
      for dst = 0 to hosts t - 1 do
        if not t.declared.(dst) then
          send t ~src:site ~dst ~bytes:(header t) (Proto.Barrier_release { phase })
      done)
    stale;
  let target = live_thread_target t in
  let phases = Hashtbl.fold (fun phase l acc -> (phase, l) :: acc) t.barrier_sent [] in
  List.iter
    (fun (phase, sent) ->
      if not (Hashtbl.mem t.released_phases phase) then begin
        let entered =
          match Hashtbl.find_opt t.barrier_counts phase with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add t.barrier_counts phase l;
            l
        in
        entered := List.filter (fun (from, _) -> not t.declared.(from)) !sent;
        t.stats.barrier_reconfigs <- t.stats.barrier_reconfigs + 1;
        Obs.barrier_reconfig (obs t) ~time:(otime t) ~host:site ~bphase:phase
          ~expected:target;
        if List.length !entered >= target then
          barrier_release t ~home:site ~phase
      end)
    phases

(* Hosts with an unacked release diff aimed at the dead home may have
   already dropped (or cleaned) their local copy, so the protections walk
   misses them — yet the diff they resend at the new home (via
   [resend_orphans], which runs after the takeover) must still find the
   recovery fence open, or the release's writes would be dropped as stale.
   Fencing them keeps the fence up until their channel drains; FIFO order
   guarantees the resent diff precedes their MODE_ACK. *)
let rc_diff_stragglers t ~dead ~mp_id set =
  Array.fold_left
    (fun acc (hs : host_state) ->
      if t.declared.(hs.id) || t.crashed.(hs.id) then acc
      else
        Hashtbl.fold
          (fun _ (rd : rc_diff_out) acc ->
            if rd.rd_target = dead && rd.rd_mp = mp_id then
              Host_set.add hs.id acc
            else acc)
          hs.rc_out acc)
    set t.host_states

(* The dead host was a home: promote its backup under the same entries.
   Authoritative state comes from the replicated log (owner/copyset images,
   shadow contents, completed-request stamps).  The log channel is FIFO
   exactly-once, so the replica always holds a strict prefix of the
   primary's history; the only possible gap is the primary's final
   retransmission window (reachable only under message loss, since a dead
   sender cannot retransmit).  Promotion closes that gap from two ground
   truths that survive the crash — the corpse's completion table
   (completions the log lost) and the survivors' page protections (location
   state the log lost, including the in-flight tail of admitted-but-open
   operations) — counting every hit as a tail repair.  The corpse directory
   is also walked to balance the obs trace with synthetic
   queue-exit/inval-ack/ack events for the books the dead home left open. *)
let promote_backup t ~dead:h ~backup:b =
  let now = Engine.now t.engine in
  let dir_d = t.dirs.(h) and dir_b = t.dirs.(b) in
  let rep = t.replicas.(h) in
  t.promoted.(h) <- true;
  let entries = List.of_seq (Directory.entries dir_d) in
  (* 1. repair every hint and the authoritative map first: from this instant
     no live host can aim traffic at the corpse, and every orphan resend
     (which runs after the takeover) lands at the backup *)
  List.iter
    (fun (e : Directory.entry) ->
      let mp_id = e.mp.Minipage.id in
      Hashtbl.replace t.home_tbl mp_id b;
      Array.iter
        (fun (hs : host_state) ->
          if not t.declared.(hs.id) then Hashtbl.replace hs.hints mp_id b)
        t.host_states)
    entries;
  (* 2. idempotence handoff: replicated completions install under their
     ORIGINAL stamps; completions the log lost in the final retransmission
     window are re-installed from the corpse's table *)
  Directory.Replica.handoff_idempotence rep ~into:dir_b;
  List.iter
    (fun (req_id, at) ->
      if not (Directory.completed dir_b ~req_id) then begin
        Directory.mark_completed dir_b ~req_id ~now:at;
        t.stats.tail_repairs <- t.stats.tail_repairs + 1;
        Obs.log_replay (obs t) ~time:now ~host:b ~span:req_id ~primary:h
          ~mp_id:(-1) ~via:"completion" ()
      end)
    (Directory.completed_stamps dir_d);
  (* 3. per entry: close the dead home's open books, install the replicated
     state, then validate it against the survivors' page protections *)
  List.iter
    (fun (e : Directory.entry) ->
      let info = info_of t e.mp in
      let mp_id = info.mp_id in
      let dropped = Directory.drop_queued dir_d e ~keep:(fun _ -> false) in
      List.iter
        (fun q ->
          let req_id = queued_span q in
          Obs.queue_exit (obs t) ~time:now ~host:h ~span:req_id ~mp_id
            ~depth:(Directory.queue_depth dir_d);
          Directory.mark_completed dir_b ~req_id ~now)
        dropped;
      (match e.pending with
      | Directory.No_op -> ()
      | Directory.Reads_in_flight ->
        Directory.filter_reads dir_d e ~keep:(fun f ->
            Directory.mark_completed dir_b ~req_id:f.rf_req ~now;
            false)
      | Directory.Write_waiting_invals w ->
        Directory.mark_completed dir_b ~req_id:w.req_id ~now;
        let remaining = Host_set.cardinal w.waiting in
        ignore
          (Host_set.fold
             (fun target i ->
               Obs.inval_ack (obs t) ~time:now ~host:b ~span:w.req_id ~mp_id
                 ~from:target ~last:(i = remaining);
               i + 1)
             w.waiting 1)
      | Directory.Write_in_flight w ->
        Directory.mark_completed dir_b ~req_id:w.req_id ~now;
        (* balances the FORWARD(write) the dead home logged *)
        Obs.ack (obs t) ~time:now ~host:b ~span:w.req_id ~mp_id ~from:w.from
      | Directory.Push_waiting_acks p ->
        Directory.mark_completed dir_b ~req_id:p.req_id ~now
      | Directory.Mode_switch_wait _ ->
        (* the fence dies with the primary; the survivors are re-fenced
           below under a fresh epoch *)
        ());
      let was_fenced =
        match e.pending with Directory.Mode_switch_wait _ -> true | _ -> false
      in
      e.pending <- Directory.No_op;
      (* install the replicated image (the corpse's shadow — and its
         mode/epoch — are at least as fresh as the log's prefix — only take
         the replica's when the corpse lost its own, which cannot happen in
         this simulation but keeps the replica authoritative on principle) *)
      (match Directory.Replica.find rep ~mp_id with
      | Some r ->
        e.owner <- r.r_owner;
        e.copyset <- r.r_copyset;
        (match (r.r_shadow, e.shadow) with
        | Some s, None -> e.shadow <- Some (Bytes.copy s)
        | _ -> ())
      | None -> ());
      (* ground truth: the survivors' protections.  The log can be behind by
         at most the in-flight tail; any disagreement is repaired here *)
      let copyset = ref Host_set.empty in
      let rw = ref None in
      let first = first_vpage t info in
      for x = 0 to hosts t - 1 do
        if not t.declared.(x) then
          match Vm.protection t.host_states.(x).vm ~view:info.mp_view ~vpage:first with
          | Prot.Read_write ->
            copyset := Host_set.add x !copyset;
            rw := Some x
          | Prot.Read_only -> copyset := Host_set.add x !copyset
          | Prot.No_access -> ()
      done;
      let rc_recover = e.mode = Proto.Rc || was_fenced in
      if rc_recover then begin
        (* RC protections are local working copies, not Figure-3 read
           copies: record the surviving sharers, then demote under a fresh
           epoch fence (below, after adoption) so each flushes its dirty
           diff into the master and drops its copy *)
        e.copyset <- !copyset;
        e.owner <- b;
        Obs.log_replay (obs t) ~time:now ~host:b ~primary:h ~mp_id ~via:"log" ()
      end
      else if Host_set.is_empty !copyset then begin
        install_shadow t e ~dead:h ~at:b;
        Obs.log_replay (obs t) ~time:now ~host:b ~primary:h ~mp_id ~via:"log" ()
      end
      else begin
        let truth_owner =
          match !rw with
          | Some x -> x
          | None ->
            if Host_set.mem e.owner !copyset then e.owner
            else Host_set.min_elt !copyset
        in
        (* the dead host evaporating from the logged copyset is the crash
           itself, not a log gap — only flag genuine disagreements *)
        let agreed =
          Host_set.equal (Host_set.remove h e.copyset) !copyset
          && (e.owner = truth_owner || e.owner = h)
        in
        e.copyset <- !copyset;
        e.owner <- truth_owner;
        if agreed then
          Obs.log_replay (obs t) ~time:now ~host:b ~primary:h ~mp_id ~via:"log" ()
        else begin
          t.stats.tail_repairs <- t.stats.tail_repairs + 1;
          Obs.log_replay (obs t) ~time:now ~host:b ~primary:h ~mp_id
            ~via:"protections" ()
        end
      end;
      (* adopt under the same entries at the backup: the single
         BACKUP_PROMOTE below covers the whole shard *)
      Directory.remove dir_d ~mp_id;
      Directory.adopt dir_b e;
      if rc_recover then begin
        e.copyset <- rc_diff_stragglers t ~dead:h ~mp_id e.copyset;
        demote_entry t ~home:b e
      end)
    entries;
  (* 4. operations the log admitted whose completion it never saw: close
     them at the new home so straggling duplicates stay suppressed (their
     requesters resend under fresh ids via [resend_orphans]) *)
  List.iter
    (fun (req_id, mp_id) ->
      if not (Directory.completed dir_b ~req_id) then begin
        Directory.mark_completed dir_b ~req_id ~now;
        Obs.log_replay (obs t) ~time:now ~host:b ~span:req_id ~primary:h ~mp_id
          ~via:"open-admission" ()
      end)
    (Directory.Replica.open_admissions rep);
  t.stats.backup_promotions <- t.stats.backup_promotions + 1;
  Obs.backup_promote (obs t) ~time:now ~host:b ~primary:h ~backup:b
    ~entries:(List.length entries) ~applied:(Directory.Replica.applied rep)

(* Requester-side recovery: every live host resends, under a fresh id and
   aimed at [to_] (the promoted backup, or host 0 when the dead host's
   backup is gone too and its shard was empty), each operation it had in
   flight to the dead home. *)
let resend_orphans t h ~to_ =
  let now = Engine.now t.engine in
  Array.iter
    (fun (hs : host_state) ->
      if not (t.declared.(hs.id) || t.crashed.(hs.id)) then begin
        (* oldest first, the order the faults were sent in *)
        for i = 0 to hs.faults - 1 do
          let e = hs.fault_recs.(i) in
          if e.target = h then begin
            mark_completed_logged t ~home:to_ ~req_id:e.req_id ~now;
            let req_id = fresh_req t in
            e.req_id <- req_id;
            e.target <- to_;
            t.stats.resent_requests <- t.stats.resent_requests + 1;
            Obs.request_sent (obs t) ~time:now ~host:hs.id ~span:req_id
              ~access:(obs_access e.access) ~addr:e.addr ~prefetch:e.by_prefetch;
            send t ~src:hs.id ~dst:to_ ~bytes:(header t)
              (Proto.Request { req_id; from = hs.id; access = e.access; addr = e.addr })
          end
        done;
        let orphan_pushes =
          Hashtbl.fold
            (fun req_id (pw : push_state) acc ->
              if pw.pu_target = h then (req_id, pw) :: acc else acc)
            hs.push_waiters []
        in
        List.iter
          (fun (old_req, (pw : push_state)) ->
            Hashtbl.remove hs.push_waiters old_req;
            mark_completed_logged t ~home:to_ ~req_id:old_req ~now;
            let req_id = fresh_req t in
            pw.pu_target <- to_;
            Hashtbl.replace hs.push_waiters req_id pw;
            send t ~src:hs.id ~dst:to_
              ~bytes:(header t + pw.pu_info.Proto.length)
              (Proto.Push
                 { req_id; from = hs.id; info = pw.pu_info; data = pw.pu_data }))
          orphan_pushes;
        let orphan_fetches =
          Hashtbl.fold
            (fun req_id (gf : group_fetch_state) acc ->
              if gf.gf_target = h then (req_id, gf) :: acc else acc)
            hs.group_fetches []
        in
        List.iter
          (fun (old_req, (gf : group_fetch_state)) ->
            Hashtbl.remove hs.group_fetches old_req;
            let req_id = fresh_req t in
            gf.gf_target <- to_;
            gf.gf_expected <- None;
            gf.gf_received <- 0;
            Hashtbl.replace hs.group_fetches req_id gf;
            send t ~src:hs.id ~dst:to_ ~bytes:(header t)
              (Proto.Group_fetch { req_id; from = hs.id; group_id = gf.gf_group }))
          orphan_fetches;
        (* release-time diffs whose ack the dead home swallowed: resend to
           the new home under a fresh id.  Diff application is idempotent
           (absolute replacement runs), so a diff the dead home did apply —
           and replicate — before dying merges harmlessly twice. *)
        let orphan_diffs =
          Hashtbl.fold
            (fun req_id (rd : rc_diff_out) acc ->
              if rd.rd_target = h then (req_id, rd) :: acc else acc)
            hs.rc_out []
        in
        List.iter
          (fun (old_req, (rd : rc_diff_out)) ->
            Hashtbl.remove hs.rc_out old_req;
            mark_completed_logged t ~home:to_ ~req_id:old_req ~now;
            let req_id = fresh_req t in
            rd.rd_req <- req_id;
            rd.rd_target <- to_;
            Hashtbl.replace hs.rc_out req_id rd;
            send t ~src:hs.id ~dst:to_
              ~bytes:(header t + Twin_diff.encoded_bytes rd.rd_diff)
              (Proto.Rc_diff
                 { req_id; from = hs.id; mp_id = rd.rd_mp; epoch = rd.rd_epoch;
                   diff = rd.rd_diff }))
          orphan_diffs
      end)
    t.host_states

(* Declaration: the point of no return.  Fence the host, purge transport
   state aimed at it, notify the survivors, and run manager-side recovery.
   A home whose backup is already dead (declared or crashed) is a typed
   fail-stop when its shard holds any entry: the shard's only replica died
   with the backup.  An empty shard needs no takeover, so recovery of its
   orphans, leases, locks and barriers runs at host 0. *)
let declare_dead t h =
  if not t.declared.(h) then begin
    t.declared.(h) <- true;
    Obs.declare_dead (obs t) ~time:(otime t) ~host:h;
    let b = backup_of_home t h in
    let backup_alive = not (t.declared.(b) || t.crashed.(b)) in
    if (not backup_alive) && not (Seq.is_empty (Directory.entries t.dirs.(h))) then
      raise
        (Crash_unrecoverable
           (Printf.sprintf "millipage: home %d and its backup %d both died" h b));
    crash_host t h ~fenced:true;
    (match t.transport with
    | Some tr ->
      let n = hosts t in
      Hashtbl.fold
        (fun (chan, seq) _ acc ->
          if chan mod n = h || chan / n = h then (chan, seq) :: acc else acc)
        tr.tx_unacked []
      |> List.iter (fun k -> Hashtbl.remove tr.tx_unacked k)
    | None -> ());
    for s = 1 to hosts t - 1 do
      if s <> h && not t.declared.(s) then
        send t ~src:manager ~dst:s ~bytes:(header t) (Proto.Dead_notice { dead = h })
    done;
    (* the manager knows immediately; survivors learn at receipt (their
       DEAD_NOTICE obs event is emitted in dispatch) *)
    t.host_states.(manager).dead_peers <-
      Host_set.add h t.host_states.(manager).dead_peers;
    Obs.dead_notice (obs t) ~time:(otime t) ~host:manager ~dead:h;
    (* erase the dead host from every surviving shard, then have its backup
       take over the shard it was itself running (same home id, log-replay
       recovery), then have live requesters resend what was in flight to it
       (hints are repaired up front in the takeover, before any resend can
       land) *)
    for s = 0 to hosts t - 1 do
      if s <> h && not t.declared.(s) then scrub_shard t ~home:s h
    done;
    let site = if backup_alive then b else manager in
    if backup_alive then promote_backup t ~dead:h ~backup:b;
    resend_orphans t h ~to_:site;
    revoke_leases t h ~site;
    rebuild_locks t h ~site;
    rebuild_barriers t h ~site;
    if all_live_done t then t.ft_stop <- true
  end

let deadlock_report t =
  let live_missing = ref 0 in
  Array.iteri
    (fun h c ->
      if not t.crashed.(h) then
        live_missing := !live_missing + (c - t.finished_by_host.(h)))
    t.threads_by_host;
  let blocked =
    Engine.blocked t.engine
    |> List.map (fun (proc, on) -> Printf.sprintf "%s on %s" proc on)
    |> String.concat "; "
  in
  let busy = ref 0 and queued = ref 0 in
  Array.iter
    (fun dir ->
      queued := !queued + Directory.queue_depth dir;
      Seq.iter
        (fun (e : Directory.entry) -> if Directory.busy e then incr busy)
        (Directory.entries dir))
    t.dirs;
  Printf.sprintf
    "millipage: deadlock — %d live application thread(s) did not finish; \
     blocked: [%s]; manager: %d request(s) queued behind %d busy minipage(s)"
    !live_missing blocked !queued !busy

let detector_tick t (ft : Config.Ft.t) =
  let now = Engine.now t.engine in
  for h = 1 to hosts t - 1 do
    if not t.declared.(h) then begin
      let silent = now -. t.last_beat.(h) in
      if silent > ft.declare_after_us then declare_dead t h
      else if silent > ft.suspect_after_us then begin
        if not t.suspected.(h) then begin
          t.suspected.(h) <- true;
          t.stats.suspects <- t.stats.suspects + 1;
          Obs.suspect (obs t) ~time:now ~host:h
        end;
        Obs.heartbeat_miss (obs t) ~time:now ~host:h
          ~missed:(int_of_float (silent /. ft.hb_interval_us))
      end
      else if t.suspected.(h) then begin
        (* the stall ended before the declare timeout: suspicion retracted *)
        t.suspected.(h) <- false;
        t.stats.suspect_recoveries <- t.stats.suspect_recoveries + 1
      end
    end
  done;
  (* deadlock watchdog: no protocol progress (non-heartbeat dispatches or
     thread completions) for deadlock_ticks detector periods *)
  let s = t.dispatches + t.finished_threads in
  if s = t.watchdog_sig then begin
    t.watchdog_idle <- t.watchdog_idle + 1;
    if t.watchdog_idle >= ft.deadlock_ticks then raise (Deadlock (deadlock_report t))
  end
  else begin
    t.watchdog_sig <- s;
    t.watchdog_idle <- 0
  end

let start_ft t (ft : Config.Ft.t) =
  List.iter
    (fun (h, at) ->
      Engine.schedule t.engine ~at (fun () -> crash_host t h ~fenced:false))
    ft.crashes;
  List.iter
    (fun (h, at, dur) ->
      Engine.schedule t.engine ~at (fun () -> stall_host t h ~until:(at +. dur)))
    ft.stalls;
  (* heartbeat senders: real fabric messages, so their cost shows up in the
     message and byte counters like any other traffic *)
  for h = 1 to hosts t - 1 do
    let beat = ref 0 in
    Engine.spawn t.engine ~name:(Printf.sprintf "ft.hb.h%d" h) ~group:h (fun () ->
        while not t.ft_stop do
          Engine.delay ft.hb_interval_us;
          if (not t.ft_stop)
             && Engine.now t.engine >= Fabric.stalled_until t.fabric ~host:h
          then begin
            incr beat;
            t.stats.heartbeats_sent <- t.stats.heartbeats_sent + 1;
            send t ~src:h ~dst:manager ~bytes:(header t)
              (Proto.Heartbeat { from = h; beat = !beat })
          end
        done)
  done;
  Engine.spawn t.engine ~name:"ft.detector" (fun () ->
      (* give every host a full interval of grace before the first tick *)
      let now0 = Engine.now t.engine in
      Array.iteri (fun i _ -> t.last_beat.(i) <- now0) t.last_beat;
      while not t.ft_stop do
        Engine.delay ft.hb_interval_us;
        if not t.ft_stop then detector_tick t ft
      done)

(* ------------------------------------------------------------------ *)
(* Message dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let dispatch t (h : host_state) (body : Proto.body) =
  let cost = t.config.cost in
  (* the deadlock watchdog counts non-heartbeat dispatches as progress *)
  (if ft_on t then
     match body with
     | Proto.Heartbeat _ -> ()
     | _ -> t.dispatches <- t.dispatches + 1);
  (* control acks can chase a minipage that migrated away (stale hint at the
     sender): forward them to the authoritative home — one extra hop, after
     which the sender's hint has usually been repaired anyway *)
  let forward_to_home ~mp_id body =
    send t ~src:h.id ~dst:(home_of_mp t mp_id) ~bytes:(header t) body
  in
  match body with
  | Proto.Request { req_id; from; access; addr } ->
    Engine.delay cost.dispatch_us;
    manager_request t ~home:h.id ~req_id ~from ~access ~addr
  | Proto.Home_redirect { req_id; mp_id; home } ->
    Engine.delay cost.sync_dispatch_us;
    host_home_redirect t h ~req_id ~mp_id ~home
  | Proto.Invalidate_reply { req_id; mp_id; from } ->
    Engine.delay cost.sync_dispatch_us;
    if home_of_mp t mp_id = h.id then manager_inval_reply t ~home:h.id ~req_id ~mp_id ~from
    else forward_to_home ~mp_id body
  | Proto.Ack { req_id; mp_id; from } ->
    Engine.delay cost.sync_dispatch_us;
    if home_of_mp t mp_id = h.id then manager_ack t ~home:h.id ~req_id ~mp_id ~from
    else forward_to_home ~mp_id body
  | Proto.Forward { req_id; from; access; info } ->
    Engine.delay cost.dispatch_us;
    host_forward t h ~req_id ~from ~access info
  | Proto.Reply_header _ ->
    (* stage 1 of the two-stage receive: the contents follow on the same
       FIFO channel *)
    Engine.delay cost.sync_dispatch_us
  | Proto.Reply_data { req_id; access; info; data } ->
    Engine.delay cost.dispatch_us;
    host_reply_data t h ~req_id ~access info data;
    (* [host_reply_data] has written the bytes: the buffer is free *)
    Pool.push (Hashtbl.find t.reply_bufs info.length) data
  | Proto.Write_grant { req_id; info } ->
    Engine.delay cost.dispatch_us;
    host_reply t h ~req_id ~access:Proto.Write info
  | Proto.Invalidate { req_id; info } ->
    Engine.delay cost.sync_dispatch_us;
    host_invalidate t h ~req_id info
  | Proto.Barrier_enter { from; tid; phase } ->
    Engine.delay cost.sync_dispatch_us;
    manager_barrier_enter t ~home:h.id ~from ~tid ~phase
  | Proto.Barrier_release { phase } ->
    Engine.delay cost.sync_dispatch_us;
    (* a barrier release is an acquire: drop clean RC copies so phase reads
       refetch the master, then let the governor evaluate this shard *)
    if rc_on t then begin
      rc_acquire_invalidate t h;
      governor_tick t ~home:h.id ~phase
    end;
    host_barrier_release h ~phase
  | Proto.Lock_acquire { req_id = _; from; tid; lock } ->
    Engine.delay cost.sync_dispatch_us;
    manager_lock_acquire t ~home:h.id ~from ~tid ~lock
  | Proto.Lock_grant { lock; tid } ->
    Engine.delay cost.sync_dispatch_us;
    if rc_on t then rc_acquire_invalidate t h;
    host_lock_grant t h ~lock ~tid
  | Proto.Lock_release { from; lock } ->
    Engine.delay cost.sync_dispatch_us;
    manager_lock_release t ~home:h.id ~from ~lock
  | Proto.Push { req_id; from; info; data } ->
    Engine.delay cost.dispatch_us;
    manager_push t ~home:h.id ~req_id ~from ~mp_id:info.mp_id data
  | Proto.Push_update { info; data } ->
    Engine.delay cost.dispatch_us;
    host_push_update t h info data
  | Proto.Push_update_ack { mp_id; from } ->
    Engine.delay cost.sync_dispatch_us;
    if home_of_mp t mp_id = h.id then manager_push_ack t ~home:h.id ~mp_id ~from
    else forward_to_home ~mp_id body
  | Proto.Push_complete { req_id } ->
    Engine.delay cost.sync_dispatch_us;
    host_push_complete h ~req_id
  | Proto.Group_fetch { req_id; from; group_id } ->
    Engine.delay cost.dispatch_us;
    manager_group_fetch t ~home:h.id ~req_id ~from ~group_id
  | Proto.Group_plan { req_id; batches } ->
    Engine.delay cost.sync_dispatch_us;
    host_group_plan h ~req_id ~batches
  | Proto.Forward_group { req_id; from; members } ->
    Engine.delay cost.dispatch_us;
    host_forward_group t h ~req_id ~from members
  | Proto.Group_data { req_id; members } ->
    Engine.delay cost.dispatch_us;
    host_group_data t h ~req_id members
  | Proto.Group_ack { req_id; from; mp_ids } ->
    Engine.delay cost.sync_dispatch_us;
    manager_group_ack t ~home:h.id ~req_id ~from ~mp_ids
  | Proto.Group_replan { req_id; drop } ->
    Engine.delay cost.sync_dispatch_us;
    host_group_replan h ~req_id ~drop
  | Proto.Rc_data { req_id; access; info; epoch; data } ->
    Engine.delay cost.dispatch_us;
    host_rc_data t h ~req_id ~access info ~epoch data
  | Proto.Rc_diff { req_id; from; mp_id; epoch; diff } ->
    Engine.delay cost.dispatch_us;
    manager_rc_diff t ~home:h.id ~req_id ~from ~mp_id ~epoch ~diff
  | Proto.Rc_diff_ack { req_id; mp_id = _ } ->
    Engine.delay cost.sync_dispatch_us;
    host_rc_diff_ack h ~req_id
  | Proto.Mode_switch { mp_id; epoch; mode; info } ->
    Engine.delay cost.sync_dispatch_us;
    host_mode_switch t h ~mp_id ~epoch ~mode info
  | Proto.Mode_ack { mp_id; epoch; from; data } ->
    Engine.delay cost.sync_dispatch_us;
    if home_of_mp t mp_id = h.id then
      manager_mode_ack t ~home:h.id ~mp_id ~epoch ~from ~data
    else forward_to_home ~mp_id body
  | Proto.Heartbeat { from; beat = _ } ->
    Engine.delay cost.sync_dispatch_us;
    if not t.declared.(from) then t.last_beat.(from) <- Engine.now t.engine
  | Proto.Dead_notice { dead } ->
    Engine.delay cost.sync_dispatch_us;
    h.dead_peers <- Host_set.add dead h.dead_peers;
    Obs.dead_notice (obs t) ~time:(otime t) ~host:h.id ~dead
  | Proto.Log_append { primary; lseq; record } ->
    (* backup side of a replicated home shard: the ARQ channel delivers the
       log in order exactly once, so [lseq] arrives dense; a record from an
       already-declared primary never reaches here ([on_message] drops it) *)
    Engine.delay cost.sync_dispatch_us;
    Directory.Replica.apply t.replicas.(primary) ~lseq record;
    t.stats.log_records_applied <- t.stats.log_records_applied + 1;
    if t.stats.log_records_applied land 255 = 0 then
      ignore
        (Directory.Replica.prune t.replicas.(primary)
           ~before:(Engine.now t.engine -. t.idem_retention_us));
    Obs.log_apply (obs t) ~time:(otime t) ~host:h.id ~span:(record_span record)
      ~primary ~lseq ~record_tag:(record_tag record)
  | Proto.Data _ | Proto.Tack _ -> failwith "millipage: a transport packet reached dispatch"

(* Transport receive: unwrap packets, ack and resequence on a faulty fabric.
   Every Data is Tack'ed (even duplicates — the original Tack may itself have
   been dropped); delivery to [dispatch] is strictly in sequence order, so
   the protocol handlers above never see loss, duplication or reordering. *)
let on_message t (h : host_state) (m : Proto.body Fabric.msg) =
  (* a straggler from a declared-dead host (sent before it was silenced):
     never let the protocol hear from the dead *)
  if not (ft_on t && t.declared.(m.Fabric.src)) then
  match t.transport with
  | None -> dispatch t h m.Fabric.body
  | Some tr -> (
    match m.Fabric.body with
    | Proto.Tack { seq } ->
      Engine.delay t.config.cost.sync_dispatch_us;
      (* acks our own transmission on the reverse channel h.id -> m.src *)
      Hashtbl.remove tr.tx_unacked (chan_of t ~src:h.id ~dst:m.src, seq)
    | Proto.Data { seq; body } ->
      (* any packet from [src] proves it alive when it reaches the detector:
         a heartbeat resequenced behind a twice-lost packet would otherwise
         reach dispatch past the declare timeout and fence a live host *)
      if h.id = manager && ft_on t then t.last_beat.(m.src) <- Engine.now t.engine;
      let chan = chan_of t ~src:m.src ~dst:h.id in
      Fabric.send t.fabric ~src:h.id ~dst:m.src ~bytes:(header t)
        (Proto.Tack { seq });
      if seq < tr.rx_next.(chan) || Hashtbl.mem tr.rx_hold (chan, seq) then begin
        t.stats.dups_suppressed <- t.stats.dups_suppressed + 1;
        if Obs.enabled (obs t) then
          Obs.dup_suppressed (obs t) ~time:(otime t) ~host:h.id ~src:m.src ~seq
            ~label:(Proto.describe body) ()
      end
      else begin
        Hashtbl.replace tr.rx_hold (chan, seq) body;
        (* deliver the contiguous run now available, in order *)
        let rec drain () =
          let next = tr.rx_next.(chan) in
          match Hashtbl.find_opt tr.rx_hold (chan, next) with
          | Some body ->
            Hashtbl.remove tr.rx_hold (chan, next);
            tr.rx_next.(chan) <- next + 1;
            dispatch t h body;
            drain ()
          | None -> ()
        in
        drain ()
      end
    | _ -> failwith "millipage: bare body on a faulty fabric")

(* ------------------------------------------------------------------ *)
(* Faulting-thread side                                                *)
(* ------------------------------------------------------------------ *)

(* The slot of the fault in flight that an [access] fault on [vpage] of
   [view] joins, or -1: a write satisfies both kinds, a read only reads. *)
let joinable (h : host_state) ~view ~vpage access =
  if h.faults = 0 then -1
  else
    let write = fault_slot h (fault_key ~view ~vpage (access_idx Proto.Write)) in
    match access with
    | Proto.Write -> write
    | Proto.Read ->
      if write >= 0 then write
      else fault_slot h (fault_key ~view ~vpage (access_idx Proto.Read))

let send_request t (h : host_state) ~view ~vpage ~access ~addr ~by_prefetch =
  let req_id = fresh_req t in
  let mp = Mpt.find_exn (Allocator.mpt t.allocator) (Vm.phys_off h.vm addr) in
  let target = hint_of h mp.Minipage.id in
  let e =
    if not (Pool.is_empty h.free_flights) then begin
      let e = Pool.pop h.free_flights in
      Sync.Event.reset e.event;
      e.req_id <- req_id;
      e.access <- access;
      e.addr <- addr;
      e.target <- target;
      e.by_prefetch <- by_prefetch;
      e
    end
    else
      {
        req_id;
        access;
        addr;
        target;
        event = Sync.Event.create ~auto_reset:false ~name:"fault" ();
        waiters = 0;
        by_prefetch;
        ack_req = 0;
        ack_mp = -1;
      }
  in
  add_fault h (fault_key ~view ~vpage (access_idx access)) e;
  Obs.request_sent (obs t) ~time:(otime t) ~host:h.id ~span:req_id
    ~access:(obs_access access) ~addr ~prefetch:by_prefetch;
  send t ~src:h.id ~dst:target ~bytes:(header t)
    (Proto.Request { req_id; from = h.id; access; addr });
  e

type bucket = B_compute | B_prefetch | B_read | B_write | B_synch

(* Inlined, so [dt] is not boxed. *)
let[@inline] charge (h : host_state) bucket dt =
  let bd = h.bd in
  match bucket with
  | B_compute -> bd.Breakdown.compute <- bd.Breakdown.compute +. dt
  | B_prefetch -> bd.Breakdown.prefetch <- bd.Breakdown.prefetch +. dt
  | B_read -> bd.Breakdown.read_fault <- bd.Breakdown.read_fault +. dt
  | B_write -> bd.Breakdown.write_fault <- bd.Breakdown.write_fault +. dt
  | B_synch -> bd.Breakdown.synch <- bd.Breakdown.synch +. dt

let on_fault t (h : host_state) (f : Vm.fault) =
  let cost = t.config.cost in
  let access = match f.access with Prot.Read -> Proto.Read | Prot.Write -> Proto.Write in
  let t0 = clock t in
  Engine.delay cost.fault_us;
  (* RC write upgrade: a write fault on a read-only copy this host already
     holds under RC is served locally — twin and re-protect, no message *)
  let rc_local =
    if rc_on t && access = Proto.Write then begin
      (* [f.phys_off] is the faulting vpage's start, which under millipage
         names whichever minipage happens to sit first in the page — resolve
         the accessed minipage from the faulting address instead *)
      match Mpt.find (Allocator.mpt t.allocator) (Vm.phys_off h.vm f.addr) with
      | Some mp -> (
        match Hashtbl.find_opt h.rc_copies mp.Minipage.id with
        | Some c
          when Vm.protection h.vm ~view:f.view ~vpage:f.vpage = Prot.Read_only ->
          Some c
        | _ -> None)
      | None -> None
    end
    else None
  in
  match rc_local with
  | Some c ->
    let span = fresh_req t in
    if Obs.enabled (obs t) then
      Obs.fault_begin (obs t) ~time:t0 ~host:h.id ~span ~access:(obs_access access)
        ~addr:f.addr ~view:f.view ~vpage:f.vpage;
    rc_write_local t h c;
    charge h B_write (clock t -. t0);
    Obs.fault_end (obs t) ~time:(otime t) ~host:h.id ~span
  | None ->
  let joined = joinable h ~view:f.view ~vpage:f.vpage access in
  let e =
    if joined >= 0 then h.fault_recs.(joined)
    else
      send_request t h ~view:f.view ~vpage:f.vpage ~access ~addr:f.addr
        ~by_prefetch:false
  in
  (* capture the span now: crash recovery may re-send the request under a
     fresh req_id while we sleep, and fault_end must close the span that
     fault_begin opened *)
  let span0 = e.req_id in
  if Obs.enabled (obs t) then
    Obs.fault_begin (obs t) ~time:t0 ~host:h.id ~span:span0
      ~access:(obs_access access) ~addr:f.addr ~view:f.view ~vpage:f.vpage;
  e.waiters <- e.waiters + 1;
  Sync.Event.wait e.event;
  Engine.delay cost.wakeup_us;
  let bucket =
    if e.by_prefetch then B_prefetch
    else match access with Proto.Read -> B_read | Proto.Write -> B_write
  in
  charge h bucket (clock t -. t0);
  Obs.fault_end (obs t) ~time:(otime t) ~host:h.id ~span:span0;
  if e.ack_mp >= 0 then begin
    let mp_id = e.ack_mp in
    e.ack_mp <- -1;
    server_ack t h ~req_id:e.ack_req ~mp_id
  end;
  (* the last waiter to read [e] frees it *)
  e.waiters <- e.waiters - 1;
  if e.waiters = 0 then Pool.push h.free_flights e

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create engine ~hosts:nhosts ?(config = Config.default) () =
  if nhosts <= 0 then invalid_arg "Dsm.create: hosts";
  (match config.ft with
  | None -> ()
  | Some ft ->
    if ft.hb_interval_us <= 0.0 then invalid_arg "Dsm.create: ft.hb_interval_us";
    if ft.suspect_after_us <= ft.hb_interval_us then
      invalid_arg "Dsm.create: ft.suspect_after_us must exceed the heartbeat interval";
    if ft.declare_after_us <= ft.suspect_after_us then
      invalid_arg "Dsm.create: ft.declare_after_us must exceed ft.suspect_after_us";
    if ft.deadlock_ticks <= 0 then invalid_arg "Dsm.create: ft.deadlock_ticks";
    List.iter
      (fun (h, at) ->
        if h <= 0 || h >= nhosts then
          invalid_arg "Dsm.create: ft.crashes may name hosts 1..hosts-1 only \
                       (the manager cannot crash)";
        if at < 0.0 then invalid_arg "Dsm.create: ft.crashes time")
      ft.crashes;
    List.iter
      (fun (h, at, dur) ->
        if h <= 0 || h >= nhosts then
          invalid_arg "Dsm.create: ft.stalls may name hosts 1..hosts-1 only";
        if at < 0.0 || dur <= 0.0 then invalid_arg "Dsm.create: ft.stalls time")
      ft.stalls);
  if config.homes.Config.Homes.block < 1 then invalid_arg "Dsm.create: homes.block";
  let fabric =
    Fabric.create engine ~hosts:nhosts ~polling:config.polling ~seed:config.seed
      ~faults:config.net.Config.Net.faults ~fault_seed:config.net.Config.Net.seed ()
  in
  let transport =
    if Fabric.faulty fabric then
      Some
        {
          tx_next = Array.make (nhosts * nhosts) 0;
          rx_next = Array.make (nhosts * nhosts) 0;
          tx_unacked = Hashtbl.create 64;
          rx_hold = Hashtbl.create 64;
        }
    else None
  in
  let mk_host id =
    let obj = Memobject.create ~page_size:config.page_size ~size:config.object_size () in
    let vm = Vm.create obj in
    for _ = 1 to config.views do
      ignore (Vm.map_view vm Prot.No_access)
    done;
    ignore (Vm.map_privileged_view vm);
    {
      id;
      vm;
      fault_keys = [||];
      fault_recs = [||];
      faults = 0;
      barrier_events = Hashtbl.create 16;
      lock_waiters = Hashtbl.create 8;
      push_waiters = Hashtbl.create 8;
      group_fetches = Hashtbl.create 8;
      hints = Hashtbl.create 64;
      computing = 0;
      dead_peers = Host_set.empty;
      bd = Breakdown.create ();
      rc_copies = Hashtbl.create 64;
      rc_out = Hashtbl.create 16;
      rc_flush_pending = 0;
      rc_flush_waiters = Queue.create ();
      free_flights = Pool.create ();
    }
  in
  (* completed-request retention: twice the worst-case retransmission span
     of a packet, after which no duplicate can still arrive *)
  let idem_retention_us =
    match transport with
    | None -> 0.0
    | Some _ ->
      let net = config.net in
      let rec span i acc d =
        if i > net.Config.Net.max_retries then acc
        else span (i + 1) (acc +. d) (d *. net.Config.Net.rto_backoff)
      in
      2.0 *. span 0 0.0 net.Config.Net.rto_us
  in
  let t =
    {
      engine;
      config;
      fabric;
      transport;
      host_states = Array.init nhosts mk_host;
      allocator =
        Allocator.create ~chunking:config.chunking ~page_size:config.page_size
          ~object_size:config.object_size ~views:config.views ();
      dirs = Array.init nhosts (fun _ -> Directory.create ~initial_owner:manager);
      home_tbl = Hashtbl.create 256;
      ft_pending = Hashtbl.create 32;
      next_req = 0;
      total_threads = 0;
      finished_threads = 0;
      barrier_counts = Hashtbl.create 16;
      barrier_sent = Hashtbl.create 16;
      released_phases = Hashtbl.create 16;
      locks = Hashtbl.create 8;
      lock_requests = Hashtbl.create 8;
      pending_releases = Hashtbl.create 8;
      groups = Hashtbl.create 8;
      next_group = 0;
      reply_bufs = Hashtbl.create 8;
      stats =
        {
          barriers_entered = 0; locks_acquired = 0; invalidations = 0; data_replies = 0;
          grant_upgrades = 0; pushes = 0; groups_fetched = 0; home_redirects = 0;
          home_migrations = 0; resent_requests = 0; retransmits = 0; dups_suppressed = 0;
          heartbeats_sent = 0; suspects = 0; suspect_recoveries = 0; leases_revoked = 0;
          recovered_minipages = 0; shadow_syncs = 0; barrier_reconfigs = 0;
          barrier_release_replays = 0; backup_promotions = 0; tail_repairs = 0;
          rolled_back_minipages = 0; log_records_applied = 0; rc_promotes = 0;
          rc_demotes = 0; rc_twins = 0; rc_diffs = 0; rc_diff_bytes = 0;
        };
      recorder = Mp_obs.Recorder.create ~capacity:4096 ();
      started = false;
      infos = [||];
      crashed = Array.make nhosts false;
      declared = Array.make nhosts false;
      suspected = Array.make nhosts false;
      last_beat = Array.make nhosts 0.0;
      threads_by_host = Array.make nhosts 0;
      finished_by_host = Array.make nhosts 0;
      ft_stop = false;
      dispatches = 0;
      lost_mps = [];
      watchdog_sig = -1;
      watchdog_idle = 0;
      idem_retention_us;
      completions = 0;
      replicas = Array.init nhosts (fun _ -> Directory.Replica.create ());
      log_seq = Array.make nhosts 0;
      promoted = Array.make nhosts false;
      gov = Hashtbl.create 64;
      mode_switch_log = [];
      clock = Float.Array.make 1 0.0;
      mutation = None;
      mutation_count = 0;
      mutation_fired = false;
    }
  in
  Fabric.attach_obs fabric ~obs:t.recorder ~describe:Proto.describe;
  Array.iter
    (fun h ->
      Vm.set_fault_handler h.vm (fun f -> on_fault t h f);
      Fabric.set_handler fabric ~host:h.id (fun m -> on_message t h m))
    t.host_states;
  t

(* ------------------------------------------------------------------ *)
(* Init phase                                                          *)
(* ------------------------------------------------------------------ *)

let malloc t size =
  if t.started then invalid_arg "Dsm.malloc: allocation only in the init phase";
  let mp, off = Allocator.malloc t.allocator size in
  let mp_id = mp.Minipage.id in
  if not (Hashtbl.mem t.home_tbl mp_id) then begin
    let home = assign_home t mp_id in
    Directory.register t.dirs.(home) mp;
    Hashtbl.replace t.home_tbl mp_id home;
    if not (central t) then
      Obs.home_assign (obs t) ~time:(otime t) ~host:home ~mp_id ~home;
    if t.config.homes.Config.Homes.policy = Config.Homes.First_toucher then
      Hashtbl.replace t.ft_pending mp_id ();
    Array.iter (fun hs -> Hashtbl.replace hs.hints mp_id home) t.host_states;
    (* the init phase is message-free: the backup's replica is seeded
       directly, mirroring the hint caches above *)
    if replicating t then Directory.Replica.seed t.replicas.(home) ~mp_id ~owner:manager
  end;
  (* host 0 owns fresh memory read-write; re-protect the whole (possibly
     chunk-grown) minipage *)
  protect_info t t.host_states.(manager) (info_of t mp) Prot.Read_write;
  (* minipage layout for stream consumers (Profile); re-emitted on every
     allocation so chunk growth updates the mapping *)
  let info = info_of t mp in
  let first = first_vpage t info and last = last_vpage t info in
  Obs.mp_map (obs t) ~time:(otime t) ~host:manager ~mp_id
    ~view:mp.Minipage.view
    ~base_addr:
      (Vm.address t.host_states.(manager).vm ~view:mp.Minipage.view
         mp.Minipage.offset)
    ~length:mp.Minipage.length ~first_vpage:first ~last_vpage:last;
  Vm.address t.host_states.(manager).vm ~view:mp.Minipage.view off

let malloc_array t ~count ~size = Array.init count (fun _ -> malloc t size)

let init_vm t = t.host_states.(manager).vm
let init_write_f64 t addr v = Vm.write_f64 (init_vm t) addr v
let init_write_int t addr v = Vm.write_int (init_vm t) addr v
let init_write_i32 t addr v = Vm.write_i32 (init_vm t) addr v
let init_write_f32 t addr v = Vm.write_f32 (init_vm t) addr v
let init_write_u8 t addr v = Vm.write_u8 (init_vm t) addr v

let spawn t ~host ?name f =
  if host < 0 || host >= hosts t then invalid_arg "Dsm.spawn: bad host";
  let tid = t.total_threads in
  t.total_threads <- t.total_threads + 1;
  t.threads_by_host.(host) <- t.threads_by_host.(host) + 1;
  let name = Option.value ~default:(Printf.sprintf "app.h%d" host) name in
  let ctx =
    {
      t;
      hs = t.host_states.(host);
      tid;
      barrier_phase = 0;
      lock_ev = Sync.Event.create ~name:"lock" ();
    }
  in
  Engine.spawn t.engine ~name ~group:host (fun () ->
      f ctx;
      t.finished_threads <- t.finished_threads + 1;
      t.finished_by_host.(host) <- t.finished_by_host.(host) + 1;
      if ft_on t && all_live_done t then t.ft_stop <- true)

(* With [`Rc] every minipage starts release-consistent: materialize each
   entry's master copy from the init-phase content before the clock starts
   (message-free, like hint seeding).  Host 0 held the only copy after
   allocation, so its bytes are the ground truth; dropping its protection
   makes the first touch of every host — including host 0 — fetch from the
   master. *)
let materialize_rc t =
  let h0 = t.host_states.(manager) in
  Array.iteri
    (fun home dir ->
      Seq.iter
        (fun (e : Directory.entry) ->
          let info = info_of t e.mp in
          let master = Vm.priv_read_bytes h0.vm ~off:info.base_off ~len:info.length in
          e.mode <- Proto.Rc;
          e.shadow <- Some master;
          e.owner <- home;
          e.copyset <- Host_set.empty;
          protect_info t h0 info Prot.No_access;
          if replicating t then
            match Directory.Replica.find t.replicas.(home) ~mp_id:info.mp_id with
            | Some r ->
              r.Directory.Replica.r_mode <- Proto.Rc;
              r.Directory.Replica.r_shadow <- Some (Bytes.copy master)
            | None -> ())
        (Directory.entries dir))
    t.dirs

let run t =
  build_infos t;
  t.started <- true;
  if t.config.consistency.Config.Consistency.mode = `Rc then materialize_rc t;
  (match t.config.ft with Some ft -> start_ft t ft | None -> ());
  Engine.run t.engine;
  if not (all_live_done t) then raise (Deadlock (deadlock_report t))

(* ------------------------------------------------------------------ *)
(* Application-thread operations                                       *)
(* ------------------------------------------------------------------ *)

let host ctx = ctx.hs.id

let read_f64 ctx addr = Vm.read_f64 ctx.hs.vm addr
let write_f64 ctx addr v = Vm.write_f64 ctx.hs.vm addr v
let read_int ctx addr = Vm.read_int ctx.hs.vm addr
let write_int ctx addr v = Vm.write_int ctx.hs.vm addr v
let read_i32 ctx addr = Vm.read_i32 ctx.hs.vm addr
let write_i32 ctx addr v = Vm.write_i32 ctx.hs.vm addr v
let read_f32 ctx addr = Vm.read_f32 ctx.hs.vm addr
let write_f32 ctx addr v = Vm.write_f32 ctx.hs.vm addr v
let read_u8 ctx addr = Vm.read_u8 ctx.hs.vm addr
let write_u8 ctx addr v = Vm.write_u8 ctx.hs.vm addr v

let compute ctx us =
  if us < 0.0 then invalid_arg "Dsm.compute: negative time";
  let t = ctx.t and h = ctx.hs in
  h.computing <- h.computing + 1;
  if h.computing = 1 then Fabric.set_busy t.fabric ~host:h.id true;
  Engine.delay us;
  charge h B_compute us;
  h.computing <- h.computing - 1;
  if h.computing = 0 then Fabric.set_busy t.fabric ~host:h.id false

let barrier ctx =
  let t = ctx.t and h = ctx.hs in
  let phase = ctx.barrier_phase in
  ctx.barrier_phase <- phase + 1;
  let ev =
    match Hashtbl.find_opt h.barrier_events phase with
    | Some ev -> ev
    | None ->
      let ev = Sync.Event.create ~auto_reset:false ~name:"barrier" () in
      Hashtbl.add h.barrier_events phase ev;
      ev
  in
  let t0 = clock t in
  t.stats.barriers_entered <- t.stats.barriers_entered + 1;
  if Obs.enabled (obs t) then Obs.barrier_enter (obs t) ~time:t0 ~host:h.id ~bphase:phase;
  (* barrier entry is a release: flush this host's dirty RC copies to their
     homes (and wait for the acks) before announcing arrival *)
  rc_flush t h;
  let target = sync_home t phase in
  let sent =
    match Hashtbl.find_opt t.barrier_sent phase with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add t.barrier_sent phase r;
      r
  in
  sent := !sent @ [ (h.id, ctx.tid) ];
  send t ~src:h.id ~dst:target ~bytes:(header t)
    (Proto.Barrier_enter { from = h.id; tid = ctx.tid; phase });
  Sync.Event.wait ev;
  Engine.delay t.config.cost.wakeup_us;
  if Obs.enabled (obs t) then
    Obs.barrier_exit (obs t) ~time:(Engine.now t.engine) ~host:h.id ~bphase:phase
      ~waited_us:(clock t -. t0);
  charge h B_synch (clock t -. t0)

let lock ctx l =
  let t = ctx.t and h = ctx.hs in
  let q =
    match Hashtbl.find h.lock_waiters l with
    | q -> q
    | exception Not_found ->
      let q = Queue.create () in
      Hashtbl.add h.lock_waiters l q;
      q
  in
  Queue.add ctx.lock_ev q;
  let t0 = clock t in
  t.stats.locks_acquired <- t.stats.locks_acquired + 1;
  if Obs.enabled (obs t) then Obs.lock_acquire (obs t) ~time:t0 ~host:h.id ~lock:l;
  let target = sync_home t l in
  let reqs =
    match Hashtbl.find t.lock_requests l with
    | r -> r
    | exception Not_found ->
      let r = ref [] in
      Hashtbl.add t.lock_requests l r;
      r
  in
  reqs := !reqs @ [ (h.id, ctx.tid) ];
  send t ~src:h.id ~dst:target ~bytes:(header t)
    (Proto.Lock_acquire { req_id = fresh_req t; from = h.id; tid = ctx.tid; lock = l });
  Sync.Event.wait ctx.lock_ev;
  Engine.delay t.config.cost.wakeup_us;
  if Obs.enabled (obs t) then
    Obs.lock_grant (obs t) ~time:(Engine.now t.engine) ~host:h.id ~lock:l
      ~waited_us:(clock t -. t0);
  charge h B_synch (clock t -. t0)

let unlock ctx l =
  let t = ctx.t and h = ctx.hs in
  Obs.lock_release (obs t) ~time:(otime t) ~host:h.id ~lock:l;
  (* an unlock is a release: the next holder's acquire must find this
     critical section's writes at the master copies *)
  rc_flush t h;
  let target = sync_home t l in
  let rels =
    match Hashtbl.find t.pending_releases l with
    | r -> r
    | exception Not_found ->
      let r = ref [] in
      Hashtbl.add t.pending_releases l r;
      r
  in
  rels := !rels @ [ (h.id, target) ];
  send t ~src:h.id ~dst:target ~bytes:(header t)
    (Proto.Lock_release { from = h.id; lock = l })

let prefetch ctx addr access =
  let t = ctx.t and h = ctx.hs in
  let view, vpage, _off = Vm.translate h.vm addr in
  let prot = Vm.protection h.vm ~view ~vpage in
  let needed = match access with Proto.Read -> Prot.Read | Proto.Write -> Prot.Write in
  if (not (Prot.allows prot needed)) && joinable h ~view ~vpage access < 0 then begin
    let e = send_request t h ~view ~vpage ~access ~addr ~by_prefetch:true in
    Obs.prefetch_issued (obs t) ~time:(otime t) ~host:h.id ~span:e.req_id
      ~access:(obs_access access) ~addr;
    Engine.delay 2.0
  end

let push_to_all ctx addr =
  let t = ctx.t and h = ctx.hs in
  let view, vpage, off = Vm.translate h.vm addr in
  (* the allocation layout is fixed after init, so hosts may consult the MPT
     for their own pushes without a manager round-trip *)
  let mp = Mpt.find_exn (Allocator.mpt t.allocator) off in
  let rc_local = rc_on t && Hashtbl.mem h.rc_copies mp.Minipage.id in
  (match Vm.protection h.vm ~view ~vpage with
  | Prot.Read_write -> ()
  | Prot.Read_only when rc_local ->
    (* an RC holder's copy may be clean (read-only) yet current: a push is a
       release, so the flush below reconciles before the data is read *)
    ()
  | Prot.Read_only | Prot.No_access ->
    invalid_arg "Dsm.push_to_all: caller must hold the writable copy");
  if rc_local then rc_flush t h;
  let info = info_of t mp in
  let cost = t.config.cost in
  delay_set_prot t info;
  protect_info t h info Prot.Read_only;
  let data = Vm.priv_read_bytes h.vm ~off:info.base_off ~len:info.length in
  let req_id = fresh_req t in
  let ev = Sync.Event.create ~auto_reset:false ~name:"push" () in
  let pw =
    { pu_event = ev; pu_info = info; pu_data = data; pu_target = hint_of h info.mp_id }
  in
  Hashtbl.replace h.push_waiters req_id pw;
  t.stats.pushes <- t.stats.pushes + 1;
  let t0 = clock t in
  send t ~src:h.id ~dst:pw.pu_target
    ~bytes:(header t + info.length)
    (Proto.Push { req_id; from = h.id; info; data });
  Sync.Event.wait ev;
  Engine.delay cost.wakeup_us;
  charge h B_synch (clock t -. t0)

(* ------------------------------------------------------------------ *)
(* Composed views: registration and thread-side fetch                  *)
(* ------------------------------------------------------------------ *)

let compose t addrs =
  if t.started then invalid_arg "Dsm.compose: composed views are built in the init phase";
  let mpt_table = Allocator.mpt t.allocator in
  let vm = t.host_states.(manager).vm in
  let ids =
    Array.to_list addrs
    |> List.map (fun addr ->
           let _view, _vpage, off = Vm.translate vm addr in
           (Mpt.find_exn mpt_table off).Minipage.id)
    |> List.sort_uniq compare
  in
  let group_id = t.next_group in
  t.next_group <- group_id + 1;
  Hashtbl.add t.groups group_id ids;
  group_id

let fetch_group ctx group_id =
  let t = ctx.t and h = ctx.hs in
  let members =
    match Hashtbl.find_opt t.groups group_id with
    | Some ids -> ids
    | None -> invalid_arg "Dsm.fetch_group: unknown composed view"
  in
  (* one sub-fetch per distinct home the group's minipages hint to; under the
     central policy this collapses to the single manager round-trip *)
  let targets = List.sort_uniq compare (List.map (fun id -> hint_of h id) members) in
  t.stats.groups_fetched <- t.stats.groups_fetched + 1;
  let t0 = clock t in
  List.iter
    (fun target ->
      let req_id = fresh_req t in
      let gf = new_group_fetch h req_id ~group_id ~target in
      send t ~src:h.id ~dst:target ~bytes:(header t)
        (Proto.Group_fetch { req_id; from = h.id; group_id });
      Sync.Event.wait gf.gf_event;
      Engine.delay t.config.cost.wakeup_us;
      Hashtbl.remove h.group_fetches req_id;
      let mp_ids = List.sort_uniq compare gf.gf_mp_ids in
      if mp_ids <> [] then
        send t ~src:h.id ~dst:gf.gf_target
          ~bytes:(header t + (4 * List.length mp_ids))
          (Proto.Group_ack { req_id; from = h.id; mp_ids }))
    targets;
  charge h B_prefetch (clock t -. t0)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let breakdown t ~host = t.host_states.(host).bd

let breakdown_total t =
  Array.fold_left (fun acc h -> Breakdown.add acc h.bd) (Breakdown.zero ()) t.host_states

let competing_requests t =
  Array.fold_left (fun acc dir -> acc + Directory.competing_requests dir) 0 t.dirs

let sum_hosts t f = Array.fold_left (fun acc h -> acc + f h.vm) 0 t.host_states
let read_faults t = sum_hosts t Vm.read_faults
let write_faults t = sum_hosts t Vm.write_faults
let stats t = t.stats
let messages_sent t = (Fabric.stats t.fabric).sent
let bytes_sent t = (Fabric.stats t.fabric).bytes
let mpt t = Allocator.mpt t.allocator
let views_used t = Allocator.views_used t.allocator
let max_queue_depth t =
  Array.fold_left (fun acc dir -> max acc (Directory.max_queue_depth dir)) 0 t.dirs

let max_queue_depth_by_home t = Array.map Directory.max_queue_depth t.dirs

let home_of t ~addr =
  let vm = t.host_states.(manager).vm in
  let _, _, off = Vm.translate vm addr in
  let mp = Mpt.find_exn (Allocator.mpt t.allocator) off in
  home_of_mp t mp.Minipage.id

let homes t =
  let max_id = Hashtbl.fold (fun id _ acc -> max id acc) t.home_tbl (-1) in
  Array.init (max_id + 1) (fun id -> home_of_mp t id)

let faulty t = Fabric.faulty t.fabric
let net_dropped t = (Fabric.stats t.fabric).dropped
let net_duplicated t = (Fabric.stats t.fabric).duplicated
let net_reordered t = (Fabric.stats t.fabric).reordered

(* ------------------------------------------------------------------ *)
(* Crash-fault statistics                                              *)
(* ------------------------------------------------------------------ *)

let hosts_where a =
  Array.to_list (Array.mapi (fun h v -> (h, v)) a)
  |> List.filter_map (fun (h, v) -> if v then Some h else None)

let crashed_hosts t = hosts_where t.crashed
let declared_dead t = hosts_where t.declared
let lost_minipages t = List.sort_uniq compare t.lost_mps

let idempotence_size t =
  Array.fold_left (fun acc dir -> acc + Directory.idempotence_size dir) 0 t.dirs

(* ------------------------------------------------------------------ *)
(* Replication statistics                                              *)
(* ------------------------------------------------------------------ *)

let log_records_sent t = Array.fold_left ( + ) 0 t.log_seq
let promoted_homes t = hosts_where t.promoted

(* ------------------------------------------------------------------ *)
(* Adaptive-consistency statistics                                     *)
(* ------------------------------------------------------------------ *)

let mode_of_mp t mp_id =
  match Directory.find t.dirs.(home_of_mp t mp_id) ~mp_id with
  | Some (e : Directory.entry) -> e.mode
  | None -> Proto.Sc

let mode_of t ~addr =
  let vm = t.host_states.(manager).vm in
  let _, _, off = Vm.translate vm addr in
  let mp = Mpt.find_exn (Allocator.mpt t.allocator) off in
  mode_of_mp t mp.Minipage.id

let modes t =
  let sc = ref 0 and rc = ref 0 in
  Array.iter
    (fun dir ->
      Seq.iter
        (fun (e : Directory.entry) ->
          match e.mode with Proto.Sc -> incr sc | Proto.Rc -> incr rc)
        (Directory.entries dir))
    t.dirs;
  [ (Proto.Sc, !sc); (Proto.Rc, !rc) ]

let mode_switches t = List.length t.mode_switch_log
let mode_switch_log t = List.rev t.mode_switch_log

(* ------------------------------------------------------------------ *)
(* Test-only protocol mutations                                        *)
(* ------------------------------------------------------------------ *)

module Testonly = struct
  type mutation = test_mutation =
    | Stale_reply_data of { nth : int }
    | Drop_inval_ack of { nth : int }
    | Lost_diff of { nth : int }

  let set_mutation t m =
    if t.started then invalid_arg "Dsm.Testonly.set_mutation: run already started";
    t.mutation <- m;
    t.mutation_count <- 0;
    t.mutation_fired <- false

  let mutation_fired t = t.mutation_fired
  let inject t ~src ~dst body = send t ~src ~dst ~bytes:(header t) body
end
