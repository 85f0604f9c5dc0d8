(** mpprof: online sharing-pattern profiler with protocol-cost attribution.

    A passive consumer of the typed event stream.  Attach one to a
    {!Recorder} and it streams every recorded event into per-minipage
    sharing signatures (classified with {!Sharing.classify}), false-sharing
    attribution back to the enclosing view/vpage (the paper's Figure-5
    effect), and per-host / per-home protocol-cost accounts.

    The profiler is strictly an observer: it never interacts with the
    simulation (no delays, no messages, no randomness), so enabling it
    leaves protocol timing and mpcheck choice-point sequences bit-identical
    to a profiler-off run. *)

type t

val create :
  ?thresholds:Sharing.thresholds -> ?bucket_us:float -> unit -> t
(** [bucket_us] (default 1000) is the timeline resolution used for the
    Perfetto counter series. *)

val feed_all : t -> Event.t list -> unit
(** Consume the events in order.  Never raises. *)

(** {2 Recorder attachment}

    [attach] installs the profiler as the recorder's tap (replacing any
    previous profiler on that recorder) and registers it so other layers —
    [Dsm_intf.S.profile], [bin/mprun] — can find it with {!attached}. *)

val attach :
  ?thresholds:Sharing.thresholds -> ?bucket_us:float -> Recorder.t -> t

val detach : Recorder.t -> unit
val attached : Recorder.t -> t option

(** {2 Read-out} *)

val event_count : t -> int

type host_cost = {
  mutable msgs : int;
  mutable bytes : int;
  mutable retransmits : int;
  mutable redirects : int;
  mutable data_msgs : int;
  mutable data_bytes : int;
  mutable heartbeat_msgs : int;
  mutable recovery_msgs : int;
  mutable control_msgs : int;
}

type home_cost = {
  mutable forwards : int;
  mutable invals_sent : int;
  mutable queued : int;
  mutable redirect_repairs : int;
}

type unit_stat = {
  s_uid : int;
  s_view : int;
  s_pattern : Sharing.pattern;
  s_sg : Sharing.signature_;
  s_culprits : (int * int) list;
      (** co-located culprit unit id, invalidations blamed on it *)
}

val units : t -> unit_stat list
(** All sharing units, classified, sorted by unit id.  Minipages keep their
    protocol id; accesses that matched no minipage map get pseudo-units
    (ids ≥ 1_000_000, one per (view, vpage)). *)

val summary : t -> (string * int) list
(** Unit count per pattern name, in fixed taxonomy order. *)

val hosts : t -> (int * host_cost) list
(** Per-host protocol cost, sorted by host. *)

val homes : t -> (int * home_cost) list
(** Per-home (manager-side) cost, sorted by home host. *)

val host_msgs : host_cost -> int
val host_bytes : host_cost -> int

val report : t -> string
(** Human-readable: pattern summary, top units, false-sharing blame lines,
    ASCII access heatmap (units × hosts), per-host and per-home cost. *)

val to_json : ?meta:(string * string) list -> t -> string
(** Deterministic JSON (stable ordering, no wall-clock): summary, per-unit
    signatures with culprit attribution, per-host and per-home cost.
    [meta] is emitted first in caller order. *)

val perfetto_counters : t -> string list
(** Pre-rendered counter events (events / invalidations / data transfers per
    time bucket) for {!Export.perfetto_json}'s [?extra]. *)
