(** Discrete-event simulation engine with cooperative processes.

    Time is a [float] number of microseconds.  Processes are ordinary OCaml
    functions run under an effect handler: inside a process, {!delay} advances
    simulated time and {!suspend} parks the process until some other party
    resumes it.  Everything is deterministic: events scheduled for the same
    instant fire in scheduling order.

    Everything the engine runs is an {!event}: a label and a callback,
    built once and posted again and again, but never queued twice at once.
    A process's start, delay and resumption are events built at spawn, and
    the network fabric reuses its message deliveries and poll timers the
    same way.  Posting and firing an event allocate nothing but the
    caller's boxed time.  A process parks its continuation in a one-slot
    array made at its first park, so a delay allocates only its
    continuation and its boxed wake-up time; a suspension adds the
    one-shot [resume] thunk and its deadlock-report entry.  {!schedule}
    posts a fresh event. *)

type t

exception Not_in_process
(** Raised when {!delay} / {!suspend} / {!self_name} is performed outside a
    process spawned on an engine. *)

exception Stopped
(** Raised inside a process that is resumed after {!stop} was called, letting
    daemon-style loops unwind cleanly. *)

exception Killed
(** Raised inside a process whose group was passed to {!kill_group}; the
    process unwinds at its next suspension point and counts as finished. *)

val create : unit -> t

val now : t -> float
(** Current simulated time in µs. *)

val spawn : t -> ?name:string -> ?group:int -> (unit -> unit) -> unit
(** [spawn t f] registers process [f] to start at the current time.  An
    exception escaping [f] (other than {!Stopped} / {!Killed}) aborts the
    whole run.  [group] tags the process for {!kill_group} (used to model
    host crashes: everything running on host [h] is spawned in group [h]). *)

type event
(** A reusable callback with its label: while it is queued, it is not posted
    again; once it fires, it may be. *)

val event : label:string -> (unit -> unit) -> event
(** [event ~label run] builds an event that runs the plain callback [run]
    (not a process: it must not perform effects).  [label] names it for
    the {!chooser}'s same-instant tie-breaks. *)

val post : t -> event -> at:float -> unit
(** Queue the event to fire at absolute time [at], clamped to now.  Raises
    [Invalid_argument] when the event is still queued: queued twice, it
    would fire with the wrong time.  Its callback may post it again. *)

val schedule : t -> at:float -> ?label:string -> (unit -> unit) -> unit
(** [schedule t ~at run] posts a fresh event.  [label] defaults to ["cb"];
    the engine's own events are labeled ["start:"], ["delay:"] and
    ["resume:"] plus the process name. *)

val delay : float -> unit
(** Advance this process's clock by the given number of µs. *)

val yield : unit -> unit
(** Let every other event scheduled for the current instant run first. *)

val suspend : name:string -> ((unit -> unit) -> unit) -> unit
(** [suspend ~name register] parks the calling process and hands a one-shot
    [resume] thunk to [register].  Calling [resume] schedules the process to
    continue at the engine's then-current time; calling it twice is a no-op.
    [name] labels the suspension for deadlock reports. *)

val self_name : unit -> string
(** Name of the running process (["proc"] when spawned without a name). *)

val run : t -> unit
(** Execute events until the queue drains or {!stop} is called.  Returns
    normally even if some processes are still suspended; inspect {!blocked}
    to detect deadlock. *)

val run_until : t -> float -> unit
(** Like {!run} but stops once the clock would pass the given time. *)

val stop : t -> unit
(** Make {!run} return after the current event; subsequently resumed
    processes receive {!Stopped}. *)

val live : t -> int
(** Number of spawned processes that have not finished. *)

val blocked : t -> (string * string) list
(** [(process, suspension)] pairs for every currently suspended process. *)

(** {2 Schedule exploration}

    Without a chooser the engine is strictly deterministic: same-instant
    events fire in scheduling order.  A {!chooser} turns the two sources of
    schedule freedom into controlled choice points so a model checker
    (lib/mc) can explore them: {!chooser.choose} breaks same-instant ties,
    and {!chooser.perturb_latency} lets cooperating components (the network
    fabric) stretch a delivery latency.  A chooser whose [choose] always
    returns 0 and whose [perturb_latency] always returns 0.0 reproduces the
    default schedule bit-for-bit. *)

type chooser = {
  choose : time:float -> labels:string array -> int;
      (** Called whenever ≥ 2 events are runnable at the same instant, with
          their labels in scheduling ([seq]) order; returns the index of the
          event to run first (out-of-range picks fall back to 0).  The
          remaining events stay queued and produce further choice points. *)
  perturb_latency : label:string -> now:float -> float;
      (** Extra latency (µs, ≥ 0) a cooperating component adds to one
          delivery; consulted through {!perturb_latency} at send time so
          FIFO-channel clamps still apply {e after} the perturbation. *)
}

val set_chooser : t -> chooser option -> unit
(** Install or remove the exploration hook.  [None] (the default) keeps the
    zero-cost deterministic fast path. *)

val chooser_active : t -> bool

val perturb_latency : t -> label:string -> float
(** [perturb_latency t ~label] asks the installed chooser for extra latency
    (clamped to ≥ 0); 0.0 when no chooser is installed. *)

val kill_group : t -> int -> int
(** [kill_group t g] cancels every unfinished process spawned with
    [~group:g]: suspended processes unwind with {!Killed} immediately,
    delayed ones when their timer fires, unstarted ones never run.  Returns
    the number of processes cancelled.  Idempotent. *)
