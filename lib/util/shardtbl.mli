(** A striped hash table safe for concurrent use from multiple domains.

    Keys are hashed onto a fixed set of independently locked shards, so
    domains touching different keys rarely contend.  Used by the mpcheck
    explorer to dedupe state and trace fingerprints across a worker pool;
    the whole-table operations ({!length}, {!keys}) lock one shard at a
    time and therefore see a consistent per-shard — not globally atomic —
    snapshot, which is all deduplication needs. *)

type ('a, 'b) t

val create : ?size:int -> unit -> ('a, 'b) t
(** [size] is the initial capacity of each shard (default 64). *)

val replace : ('a, 'b) t -> 'a -> 'b -> unit
val length : ('a, 'b) t -> int
val keys : ('a, 'b) t -> 'a list
