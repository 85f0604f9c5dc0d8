(** The history of one explored schedule, and the two oracles that read it.

    The racer records every shared read and write once, with its
    completion time, and every acquire, release and barrier, into a
    {!hist}.  Write values come from the history's own allocator
    ({!fresh_value}), so every write to a location has a unique value.
    Two checks read the recorded {!entries}:

    - {!coherence} — the per-location oracle every schedule runs.  Taken
      in completion order, every read returns the initial value or a
      recorded write's, and no host observes an older write of a location
      after a newer one (a stale read after an invalidation).  Write
      order is completion order, which the single-writer protocol makes
      unambiguous: a second write cannot complete before the first's ack
      releases the minipage.

    - {!check} — refinement against an executable sequential
      specification, a MapSpec-style state machine: a map from minipage
      locations to the value of their newest write, advanced by
      simulating the history {e in execution order} (the order the
      scheduler ran the operations, which is the order they were
      recorded).  Two relations:
      {ul
      {- {!Sc} — sequential consistency at operation completion instants.
         Every read must return exactly the spec map's current value: the
         completed operations, in completion order, must {e be} an
         execution of the atomic-memory spec.  This is strictly stronger
         than {!coherence}, which only demands per-host monotonicity.}
      {- {!Weak} — release consistency.  Reads may lag the spec map (a
         host may still be on a pre-acquire copy) but must never run
         ahead of it, never regress below the host's own observation
         front, and never regress below the host's {e happens-before
         floor}: acquiring a lock inherits everything its previous
         releasers had observed or written; a barrier releases into and
         acquires from a global channel.  The floor is what catches a
         lost release diff — the acquirer of the same lock reads below
         the rank the release published, which neither {!coherence} nor
         the invariant checker can see (the lost value is never observed
         by anyone).}}

    Every location holds 0 before its first write. *)

type entry =
  | Read of { time : float; host : int; loc : int; value : int }
  | Write of { time : float; host : int; loc : int; value : int }
      (** [time] is the operation's completion instant (µs), which
          {!coherence} orders by; {!check} ignores it *)
  | Acquire of { host : int; key : int }
  | Release of { host : int; key : int }
  | Barrier of { host : int }

type hist

val hist : unit -> hist
val record : hist -> entry -> unit

val fresh_value : hist -> int
(** A write value that no earlier {!record}ed write or {!fresh_value} on
    this history has used, and never 0.  Threads that all draw from it
    cannot break the unique-write-value precondition by accident. *)

val entries : hist -> entry list
(** Every recorded entry, in recording order. *)

val operations : hist -> int
(** The reads and writes recorded. *)

val coherence : entry list -> string list
(** Empty when the reads and writes in [entries] are coherent; otherwise
    one human-readable violation per offending operation. *)

type mode = Sc | Weak

type verdict = {
  passed : bool;
  reads_checked : int;  (** reads the simulation validated *)
  violations : string list;  (** each prefixed ["refinement: "] *)
}

val check : ?hb:bool -> mode:mode -> entry list -> verdict
(** Simulate [entries] in order against the spec under [mode].  [hb]
    (default [true]) enables the happens-before machinery — fronts, lock
    channels, the barrier channel.  Crash scenarios pass [~hb:false]:
    recovery rollback legitimately regresses what a host has observed, so
    only value provenance and the no-reads-from-the-future rule apply. *)
