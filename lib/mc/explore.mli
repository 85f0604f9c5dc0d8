(** Bounded systematic schedule exploration, and shrinking of failures.

    Two search modes over one {!Scenario.t}:

    - {!random_walk} — seeded random scheduling: every run perturbs tie
      order and message latency independently; distinct traces are counted
      by fingerprint.  Cheap, embarrassingly diverse, the default.
    - {!delay_bounded} — breadth-first over plans with at most [bound]
      deviations from the default schedule (delay-bounded scheduling).
      Two partial-order reductions prune the tree:
      {ul
      {- {e persistent-set promotion}: a tie alternative that commutes with
         every earlier same-instant event is never promoted — the swap
         cannot reach a new state;}
      {- {e DPOR sleep sets}: an event explored from a sibling branch goes
         to sleep in the branches promoted after it, and stays asleep — its
         re-promotion pruned — until a {e dependent} event executes.
         Sleepers are identified by (instant, label), which is stable under
         tie reordering.  See DESIGN.md §16.}}

    Both modes drain their work (seed indices for the walk, the plan
    frontier for the bounded search) with a pool of [jobs] workers: the
    calling domain and [jobs - 1] spawned ones, each replaying scenarios on
    its own private engine, so [~jobs:1] (the default) spawns no domain.
    Fingerprints dedupe through domain-safe sharded tables.  The
    fingerprint {e sets} of a clean walk within its schedule budget are
    identical for any [jobs], because run index [i] computes the same
    schedule no matter which worker claims it; so are those of a bounded
    search that empties its frontier, because every plan has one parent.

    Both stop at the first violating schedule and return it (the walk
    reports the smallest failing run index, whatever [jobs] is); {!shrink}
    then greedily removes deviations while the violation still reproduces,
    yielding the minimal replayable plan. *)

type budget = { max_schedules : int; max_wall_s : float }

val budget : ?max_schedules:int -> ?max_wall_s:float -> unit -> budget
(** Defaults: 1000 schedules, 60 s of wall clock. *)

type result = {
  schedules : int;  (** schedules actually run *)
  distinct_traces : int;  (** unique choice-sequence fingerprints *)
  distinct_states : int;  (** unique end-state fingerprints *)
  total_choice_points : int;  (** summed over all runs *)
  max_choice_points : int;  (** largest single run *)
  pruned : int;  (** plans skipped by persistent-set promotion *)
  sleep_pruned : int;  (** plans skipped by DPOR sleep sets *)
  wall_s : float;
  trace_sigs : int list;  (** the deduped trace fingerprints, sorted *)
  state_sigs : int list;  (** the deduped state fingerprints, sorted *)
  failure : (Plan.t * Scenario.outcome) option;
      (** first violating schedule, unshrunk *)
}

val random_walk :
  ?metrics:Mp_obs.Metrics.t ->
  ?prob:float ->
  ?jobs:int ->
  Scenario.t ->
  seed:int ->
  budget ->
  result
(** Runs the default schedule first, then random walks seeded [seed + i].
    [prob] is the per-choice-point deviation probability (default 0.05).
    [jobs] (default 1) sizes the worker pool; workers claim run indices
    from a shared counter.  When [metrics] is given, progress lands in the
    registry under ["mc.schedules"], ["mc.violations"],
    ["mc.choice_points"] (histogram). *)

val delay_bounded :
  ?metrics:Mp_obs.Metrics.t ->
  ?sleep_sets:bool ->
  ?jobs:int ->
  Scenario.t ->
  bound:int ->
  budget ->
  result
(** [sleep_sets] (default [true]) enables the DPOR layer; pruning counts
    split into [pruned] (persistent-set) and [sleep_pruned] (sleep sets),
    and mirror into the metrics registry under ["mc.pruned.persistent"] /
    ["mc.pruned.sleep"].  [jobs] (default 1) sizes the worker pool draining
    the shared plan frontier, which holds at most 200,000 plans. *)

val shrink : Scenario.t -> Plan.t -> Plan.t * Scenario.outcome
(** Greedy fixpoint: repeatedly drop any single deviation whose removal
    keeps the run violating; returns the minimal plan and its outcome.
    If the input plan does not reproduce a violation it is returned as-is. *)
