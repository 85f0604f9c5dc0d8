(** One cell of the mpcheck exploration matrix, and how to run it.

    A scenario fixes everything about an execution except the schedule: the
    workload, host count, home-assignment policy, injected network faults
    and crashes, seeds, and the scheduler's perturbation granularity.
    {!run} executes it under a {!Sched.t} and returns an {!outcome} that
    bundles every check mpcheck knows: per-location coherence
    ({!Spec.coherence}) and, with [refine], refinement ({!Spec.check}),
    both over the run's one recorded history; the observability invariant
    checker; application-level verification; deadlock/unrecoverable
    detection — plus fingerprints for coverage accounting and replay
    validation.

    Scenarios round-trip through {!to_string}/{!of_string} so failing
    schedules can be persisted as replayable artifacts. *)

type workload =
  | Racer of {
      locs : int;
      ops_per_host : int;
      wseed : int;
      barrier_every : int;
    }
      (** The adversarial workload: every host runs a seeded plan of
          lock-protected writes, unsynchronized reads and short computes
          over [locs] shared words.  Maximizes protocol races per
          simulated microsecond.  Each read and write is recorded once,
          with its completion time, into the run's {!Spec.hist}, beside
          the acquires, releases and barriers.  [barrier_every > 0] adds
          a global barrier every that many ops (same op indices on every
          host): barriers produce the cross-host same-instant tie groups
          DPOR sleep sets prune, and exercise the refinement spec's
          barrier channel.  [0] — the default, and the only shape that
          existed before refinement — keeps pre-existing artifacts
          bit-identical. *)
  | App of string
      (** A real benchmark at miniature scale, named as in
          {!Mp_apps.App.names}, and set up through {!Mp_apps.App.Make}.
          Checked by the application's own verifier plus the obs invariant
          checker. *)

type t = {
  workload : workload;
  hosts : int;
  homes : Mp_millipage.Dsm.Config.Homes.t;
  consistency : Mp_millipage.Dsm.Config.Consistency.t;
      (** protocol mode column: sc, rc, or adaptive switching *)
  faults : Mp_net.Fabric.faults;
  net_seed : int;
  crashes : (int * float) list;  (** (host, time µs) fail-stop injections *)
  mutation : Mp_millipage.Dsm.Testonly.mutation option;
      (** seeded protocol bug, for checker validation *)
  seed : int;  (** DSM config seed *)
  quantum_us : float;  (** µs of delivery delay per net-point pick step *)
  max_delay_steps : int;  (** net-point picks range over [0, max_delay_steps] *)
  refine : bool;
      (** simulate the run's read/write/sync history against the executable
          {!Spec} state machine; refinement violations join [violations].
          Off by default.  The history is recorded either way (the
          coherence check and [state_sig] read it), so turning refinement
          on changes no schedule, and no fingerprint of a run the spec
          passes. *)
  lockread : bool;
      (** racer variant: each critical section reads its location before
          writing, placing an observation above the lock's happens-before
          floor.  Required for the refinement spec to catch a lost release
          diff.  Changes the schedule, so off by default. *)
}

val default : t
(** 3-host racer, central homes, reliable fabric, no crashes, no mutation. *)

val name : t -> string
(** Short display label, e.g. ["racer h3 rr loss crash"]. *)

val to_string : t -> string
(** Single-line [k=v] encoding (artifact format). *)

val of_string : string -> t
(** Inverse of {!to_string}; unknown keys raise [Failure]. *)

type outcome = {
  violations : string list;
      (** everything that failed, prefixed ["deadlock:"], ["coherence:"],
          ["invariant:"], ["refinement:"], ["result:"], ["transport:"] *)
  end_us : float;  (** simulated completion time *)
  steps : Sched.step array;  (** the schedule's full choice-point log *)
  taken : Plan.t;  (** non-default picks taken (replays this schedule) *)
  choice_points : int;
  state_sig : int;
      (** fingerprint of the observed state: the history's reads and writes
          (host, location, kind, value, in recording order), end time,
          message count, dead hosts — distinct-state coverage *)
  trace_sig : int;  (** fingerprint of the choice sequence itself *)
  ops : int;  (** reads and writes recorded ({!Spec.operations}) *)
  obs_events : int;  (** typed events captured by the recorder *)
  mutation_fired : bool;
  crashed : int list;  (** hosts declared dead *)
  profile : Mp_obs.Profile.t option;
      (** sharing-pattern profile of the run, when [run ~profile:true] *)
  refinement : Spec.verdict option;
      (** the spec simulation's verdict, when the scenario has [refine]
          set.  Vacuously passing for runs that did not complete (a
          half-recorded critical section is not a spec execution). *)
}

val run : ?profile:bool -> t -> sched:Sched.t -> outcome
(** [profile] (default [false]) attaches an {!Mp_obs.Profile} to the run's
    recorder.  The profiler is a passive tap: timing, choice points and both
    fingerprints are bit-identical with and without it. *)

val run_plan : ?profile:bool -> t -> Plan.t -> outcome
(** {!run} under a [Follow]-mode scheduler: deterministic replay of the
    plan (the empty plan is the engine's default schedule). *)

val run_random : ?profile:bool -> t -> seed:int -> prob:float -> outcome
(** {!run} under a fresh [Random]-mode scheduler. *)
