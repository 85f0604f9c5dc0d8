(** [mprun]'s command line as a library, in four stages: its flags
    ({!term}, {!parse}), the run they describe ({!setup}), the run itself
    ({!run}) and the report [mprun] prints ({!report}).

    [bin/mprun.ml] is the Cmdliner entry point over these, and [bench sims]
    parses its [mprun] command lines with the same term and runs them with
    the same code, so no other code turns a command line into a run. *)

(** {1 The systems} *)

(** A DSM system as [mprun] runs and reports it. *)
module type SYSTEM = sig
  type t

  val name : string

  val create : Mp_sim.Engine.t -> hosts:int -> Mp_millipage.Dsm.Config.t -> t
  (** The baselines take only the polling mode (and MRC the chunking) from
      the configuration. *)

  val setup : t -> Mp_apps.App.t -> unit -> bool
  (** {!Mp_apps.App.Make}'s [setup]. *)

  val run : t -> unit
  val engine : t -> Mp_sim.Engine.t
  val read_faults : t -> int
  val write_faults : t -> int
  val messages_sent : t -> int
  val bytes_sent : t -> int
  val breakdown : t -> (string * float) list
  val obs : t -> Mp_obs.Recorder.t
  val profile : t -> Mp_obs.Profile.t option

  val degraded : t -> bool
  (** A host was declared dead, so a failed verification is expected. *)

  val report : Buffer.t -> Mp_millipage.Dsm.Config.t -> t -> unit
  (** The system's own report lines, after the result. *)

  val report_ft : Buffer.t -> t -> unit
  (** The crash-fault tolerance lines (Millipage only). *)
end

(** {1 Parse} *)

type crash = At of int * float  (** HOST\@TIME *) | Rand of float  (** rand:P *)

(** The flags, as given.  An enumerated flag keeps its spelling beside its
    value. *)
type options = {
  app : string;
  system : string;
  hosts : int;
  chunking : string * Mp_multiview.Allocator.chunking;
  polling : string * Mp_net.Polling.mode;
  paper : bool;
  trace_out : string option;
  perfetto : string option;
  metrics : bool;
  profile : bool;
  profile_out : string option;
  loss : float;
  dup : float;
  reorder : float;
  net_seed : int;
  ft : bool;
  crash : crash list;
  stall : (int * float * float) list;
  crash_seed : int;
  crash_horizon : float;
  homes : string * Mp_millipage.Dsm.Config.Homes.policy;
  home_block : int;
  consistency : string * Mp_millipage.Dsm.Config.Consistency.mode;
  adapt_interval : int;
}

val term : options Cmdliner.Term.t
(** Every usage error is a Cmdliner error: each flag's value is checked by
    its converter, and the flags that need each other (a Millipage-only
    flag on another system, a crashed or stalled host outside 1..hosts-1)
    by the term. *)

val info : Cmdliner.Cmd.info

val parse : string list -> (options, string) result
(** [parse args] parses [mprun]'s arguments (without the program name), or
    returns Cmdliner's usage message. *)

(** {1 Map} *)

type setup = {
  app : Mp_apps.App.t;
  hosts : int;
  system : (module SYSTEM);
  config : Mp_millipage.Dsm.Config.t;
}

val setup : options -> setup

(** {1 Run} *)

type outcome =
  | Verified
  | Degraded  (** not verified, with a host declared dead *)
  | Mismatch
  | Deadlock of string
  | Unrecoverable of string  (** a home and its backup both died *)

type run =
  | Run : {
      sys : (module SYSTEM with type t = 'a);
      dsm : 'a;
      config : Mp_millipage.Dsm.Config.t;
      outcome : outcome;
    }
      -> run

val run : ?trace:bool -> options -> setup -> run
(** Build the engine and the DSM, arm the recorder as the options ask, set
    the app up, run it and verify it.  [trace] arms the recorder as
    [--trace-out] does, with its 2{^22}-event bound, without writing
    anything. *)

(** {1 Report} *)

val report : Buffer.t -> options -> run -> int
(** Write the report [mprun] prints to the buffer, and any file the options
    name; return [mprun]'s exit code: 0, or 1 on a verification mismatch, an
    invariant violation or a file that cannot be written, 2 on a deadlock
    (whose message goes to stderr), and 3 when a home and its backup both
    died without an injected crash. *)
