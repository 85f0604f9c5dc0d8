(** Metrics registry: named counters, gauges and latency distributions.

    One registry per system (plus per-host registries if a caller wants
    them — {!merge_into} combines).  Latency series feed both a streaming
    {!Mp_util.Stats.Summary} (exact mean/max/total) and a fixed-width
    {!Mp_util.Stats.Histogram} (p50/p95/p99), rendered as one ASCII table
    via {!Mp_util.Tab} or exported as JSON. *)

type t

val create : unit -> t

(** {2 Counters} *)

val counters : t -> Mp_util.Stats.Counters.t
val incr : t -> string -> unit
val add : t -> string -> int -> unit

(** {2 Gauges} *)

val gauge_set : t -> string -> float -> unit
(** Sets the current value and tracks the high-water mark. *)

(** {2 Latency distributions} *)

val observe : t -> ?bucket_width:float -> ?buckets:int -> string -> float -> unit
(** Record one sample (µs).  Bucket geometry is fixed at the first
    observation of a name; defaults 2 µs × 4096 buckets (≈8.2 ms range,
    overflow clamps into the last bucket). *)

val summary : t -> string -> Mp_util.Stats.Summary.t option
val percentile : t -> string -> float -> float option
val observations : t -> string -> int

(** {2 Reports} *)

val latency_table : t -> string
val counters_table : t -> string

val report : t -> string
(** All non-empty sections concatenated. *)

val to_json : ?meta:(string * string) list -> t -> string
(** Deterministic JSON: counters, gauges and latency series are emitted in
    sorted key order so reports from fixed-seed runs diff cleanly.  [meta]
    (run metadata: app, hosts, homes policy, seeds …) is emitted first, in
    caller order, under a ["meta"] object. *)

val merge_into : dst:t -> t -> unit
(** Adds counters and overwrites gauges; latency series are not merged. *)
