(** Sharing-pattern taxonomy and the online classifier.

    {!Profile} maintains one mutable {!signature_} per sharing unit
    (minipage) and periodically asks {!classify} for its pattern.  The
    classifier is a pure function of the signature and thresholds — no
    clocks, no randomness — so classification of a fixed event stream is
    deterministic by construction. *)

type pattern =
  | Private  (** one host touches it *)
  | Read_mostly  (** many readers, (almost) no writes after init *)
  | Migratory  (** ownership hops host to host, each writer also reads *)
  | Producer_consumer  (** one stable writer, other hosts read *)
  | Write_shared  (** concurrent writers, wide invalidation fan-out *)
  | Falsely_shared
      (** protocol traffic dominated by co-location artifacts: invalidations
          between hosts whose footprints don't overlap, or caused by an
          unrelated minipage on the same vpage (the paper's Figure 5) *)
  | Low_traffic  (** too few accesses to judge *)

val pattern_name : pattern -> string

(** Per-host byte ranges touched within a unit, as sorted disjoint
    intervals.  Disjoint footprints between the invalidating writer and the
    invalidated host are the intra-unit false-sharing signal. *)
module Footprint : sig
  type t

  val empty : t
  val add : lo:int -> hi:int -> t -> t
  val overlaps : t -> t -> bool
end

type signature_ = {
  mutable reads : int;
  mutable writes : int;
  mutable readers : Mp_util.Host_set.t;
  mutable writers : Mp_util.Host_set.t;
  mutable transfers : int;
  mutable bytes_in : int;
  mutable invals : int;
  mutable inval_rounds : int;
  mutable inval_targets : int;
  mutable false_invals : int;
  mutable false_caused : int;
  mutable last_writer : int;
  mutable writer_changes : int;
  mutable footprints : (int * Footprint.t) list;
}

val fresh : unit -> signature_
val footprint : signature_ -> int -> Footprint.t

val note_access : signature_ -> int -> write:bool -> addr:int -> unit
(** [note_access s host ~write ~addr]: [host] read ([write] false) or
    wrote the 8 bytes at [addr].  Adds them to the host's footprint and
    counts the access, its reader or writer, and a write by a host other
    than the last writer. *)

val accesses : signature_ -> int

val decay : signature_ -> unit
(** Halve every counter in place (integer division), so a windowed caller —
    e.g. the adaptive-consistency governor, once per evaluation — sees
    recent behaviour dominate while structural facts (reader/writer sets,
    footprints, last writer) are retained. *)

type thresholds = {
  min_accesses : int;
  write_ratio : float;
  migratory_alternation : float;
  migratory_max_targets : float;
  false_ratio : float;
}

val default_thresholds : thresholds
val classify : ?thresholds:thresholds -> signature_ -> pattern
val to_json : signature_ -> string
