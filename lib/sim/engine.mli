(** Discrete-event simulation engine with cooperative processes.

    Time is a [float] number of microseconds.  Processes are ordinary OCaml
    functions run under an effect handler: inside a process, {!delay} advances
    simulated time and {!park} and {!suspend} park the process until some
    other party wakes it.  Everything is deterministic: events scheduled for
    the same instant fire in scheduling order.

    Everything the engine runs is an {!event}: a label and a callback,
    built once and posted again and again, but never queued twice at once.
    A process's start, delay and resumption are events built at spawn, and
    the network fabric reuses its message deliveries and poll timers the
    same way.  {!schedule} posts a fresh event.

    On the hot path a time moves through a [Float.Array] slot, not as a
    float argument or result: the dev profile compiles each module with
    [-opaque], so a float that crosses a call the compiler does not inline
    is boxed.  The clock and the queue's times live in slots; a delay
    writes its wake-up time straight into the queue, and {!post_slot} and
    {!now_into} move a time between the engine and a slot its caller owns.
    {!now} boxes the clock once per instant that someone reads it.  So a
    delay allocates only its continuation, and so does a wait on a {!ring}:
    a parked process is an entry in the ring's two arrays, which grow by
    doubling. *)

type t

exception Not_in_process
(** Raised when {!delay} / {!park} / {!suspend} is performed outside a
    process spawned on an engine. *)

exception Stopped
(** Raised inside a process that is resumed after {!stop} was called, letting
    daemon-style loops unwind cleanly. *)

exception Killed
(** Raised inside a process whose group was passed to {!kill_group}; the
    process unwinds at its next suspension point and counts as finished. *)

val create : unit -> t

val now : t -> float
(** Current simulated time in µs.  The first read at each instant boxes it;
    later reads at that instant return the same box. *)

val now_into : t -> Float.Array.t -> int -> unit
(** [now_into t a i] copies the current time into [a.(i)] without boxing
    it. *)

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
(** Queue the event to fire at absolute time [at]; a time before now fires
    now.  Raises [Invalid_argument] when [at] is NaN, and when the event is
    still queued: queued twice, it would fire with the wrong time.  Its
    callback may post it again. *)

val post_slot : t -> event -> Float.Array.t -> int -> unit
(** [post_slot t ev a i] is [post t ev ~at:a.(i)] without boxing the
    time. *)

val schedule : t -> at:float -> ?label:string -> (unit -> unit) -> unit
(** [schedule t ~at run] posts a fresh event.  [label] defaults to ["cb"];
    the engine's own events are labeled ["start:"], ["delay:"] and
    ["resume:"] plus the process name. *)

val delay : float -> unit
(** Advance this process's clock by the given number of µs; a negative
    delay is 0.  Raises [Invalid_argument] on NaN. *)

val delay_n : float -> int -> unit
(** [delay_n per n] is [delay (per *. float_of_int n)], with the product
    computed inside the engine, so a caller that passes a cost it holds
    boxes nothing. *)

val yield : unit -> unit
(** Let every other event scheduled for the current instant run first. *)

(** {2 Waiting} *)

type ring
(** A FIFO of parked processes. *)

val ring : unit -> ring

val park : ring -> name:string -> unit
(** [park r ~name] parks the calling process at the tail of [r] until a
    {!wake} reaches it.  [name] labels the wait for {!blocked}. *)

val wake : ring -> unit
(** Take the head of the ring, if any, and schedule it to continue at the
    current time.  A head that {!kill_group} cancelled while it waited has
    already unwound, and absorbs the wake: nothing continues.  A head
    cancelled before it parked unwinds with {!Killed} at once, and after
    {!stop} with {!Stopped}. *)

val parked : ring -> int
(** Entries in the ring, counting those cancelled since they parked. *)

val suspend : name:string -> ((unit -> unit) -> unit) -> unit
(** [suspend ~name register] parks the calling process on a ring of its own
    and hands a one-shot [resume] thunk to [register], which may call it.
    Calling [resume] wakes the process; calling it again is a no-op.  [name]
    labels the suspension for {!blocked}. *)

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
(** [(process, wait)] pairs for every currently parked process, in spawn
    order. *)

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
    [~group:g], and no user code of theirs runs after it: parked processes
    unwind with {!Killed} at once (their ring entries stay and absorb a
    wake each), and processes whose delay timer or resumption is queued
    unwind when it fires, even when that is at the same instant.  Unstarted
    processes never run.  Returns the number of processes cancelled.
    Idempotent. *)
