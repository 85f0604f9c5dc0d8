(** Metrics registry: named counters, gauges and latency distributions.

    A recorder fills one while it records, and mpcheck's explorer fills
    one its caller passes.  Latency series feed both a streaming
    {!Mp_util.Stats.Summary} (exact mean/max/total) and a fixed-width
    {!Mp_util.Stats.Histogram} (p50/p95/p99), rendered as one ASCII table
    via {!Mp_util.Tab}. *)

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

val percentile : t -> string -> float -> float option

(** {2 Reports} *)

val latency_table : t -> string
val counters_table : t -> string

val report : t -> string
(** All non-empty sections concatenated. *)
