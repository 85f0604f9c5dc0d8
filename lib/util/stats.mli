(** Running statistics and named counters for instrumenting the simulator. *)

module Summary : sig
  (** Streaming mean / variance / extrema (Welford's algorithm). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val stddev : t -> float
  (** Sample standard deviation; 0 with fewer than two samples. *)

  val min : t -> float
  val max : t -> float
  (** Extrema raise [Invalid_argument] when empty. *)

  val total : t -> float
  val merge : t -> t -> t
  (** [merge a b] is a fresh summary equivalent to having seen both streams. *)
end

module Counters : sig
  (** A mutable bag of named integer counters. *)

  type t

  val create : unit -> t
  val incr : t -> string -> unit
  val add : t -> string -> int -> unit
  val get : t -> string -> int
  (** 0 for a name never incremented. *)

  val to_list : t -> (string * int) list
  (** Sorted by name. *)

  val reset : t -> unit
  val merge_into : dst:t -> t -> unit
end

module Histogram : sig
  (** Fixed-width bucket histogram over \[0, width*buckets); overflow goes to
      the last bucket.  [buckets] is a bound: the bucket array grows by
      doubling up to the highest bucket a sample has reached, so a series
      whose samples stay low allocates few buckets. *)

  type t

  val create : bucket_width:float -> buckets:int -> t

  val add : t -> float -> unit
  (** Every input lands in a defined bucket: negative values (and [-inf])
      count into the first bucket, while NaN, [+inf] and values at or beyond
      the last bucket's edge count into the last. *)

  val count : t -> int

  val bucket_counts : t -> int array
  (** All [buckets] counts, zero for buckets no sample reached. *)

  val percentile : t -> float -> float
  (** [percentile t 0.99] returns the upper edge of the bucket containing the
      given quantile.  Raises [Invalid_argument] when empty or p outside
      [\[0,1\]]. *)
end
