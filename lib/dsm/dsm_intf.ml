(** The DSM interface the benchmark applications are written against.

    Millipage, the Ivy-style page-grain baseline and the two twin/diff
    release-consistency baselines, LRC over pages and MRC over minipages,
    all satisfy [S], so every application functor ({!Mp_apps.Sor.Make}
    etc.) runs unchanged on each system. *)

module type S = sig
  type t
  type ctx

  val name : string
  val hosts : t -> int
  val engine : t -> Mp_sim.Engine.t

  val home_of : t -> addr:int -> int
  (** Host running the coherence state machine for the sharing unit holding
      [addr].  Single-manager systems answer 0 for every address; Millipage
      answers the minipage's current home under the configured sharding
      policy. *)

  (** {2 Init phase} *)

  val malloc : t -> int -> int
  val init_write_f64 : t -> int -> float -> unit
  val init_write_int : t -> int -> int -> unit
  val init_write_i32 : t -> int -> int32 -> unit
  val init_write_f32 : t -> int -> float -> unit
  val init_write_u8 : t -> int -> int -> unit
  val spawn : t -> host:int -> ?name:string -> (ctx -> unit) -> unit
  val run : t -> unit

  (** {2 Thread operations} *)

  val host : ctx -> int
  val read_f64 : ctx -> int -> float
  val write_f64 : ctx -> int -> float -> unit
  val read_int : ctx -> int -> int
  val write_int : ctx -> int -> int -> unit
  val read_i32 : ctx -> int -> int32
  val write_i32 : ctx -> int -> int32 -> unit

  val read_f32 : ctx -> int -> float
  val write_f32 : ctx -> int -> float -> unit
  (** Single-precision floats stored in 4 bytes — the element type of the
      SPLASH-2 matrices (a 256-byte SOR row is 64 of these). *)

  val read_u8 : ctx -> int -> int
  val write_u8 : ctx -> int -> int -> unit
  val compute : ctx -> float -> unit
  val barrier : ctx -> unit
  val lock : ctx -> int -> unit
  val unlock : ctx -> int -> unit

  val prefetch : ctx -> int -> Mp_memsim.Prot.access -> unit
  (** May be a no-op on systems without prefetch. *)

  val push_to_all : ctx -> int -> unit
  (** Systems without a push primitive implement this as a plain write (their
      coherence machinery propagates it). *)

  val compose : t -> int array -> int
  (** Register a composed view over the sharing units holding the given
      addresses (init phase); returns a group id.  See §5 of the paper. *)

  val fetch_group : ctx -> int -> unit
  (** Bring read copies of the whole composed view.  On Millipage this is a
      single batched protocol operation; baselines approximate it with
      pipelined per-unit fetches. *)

  (** {2 Consistency modes} *)

  val mode_of : t -> int -> Mp_millipage.Proto.mode
  (** Consistency protocol currently serving the sharing unit with the given
      id: {!Mp_millipage.Proto.Sc} (single-writer invalidation) or [Rc]
      (multi-writer twin/diff release consistency).  Fixed by construction on
      the single-protocol systems — Ivy answers [Sc], the LRC and MRC
      baselines answer [Rc] — while Millipage's adaptive mode can move a
      minipage between the two at sync points over the run. *)

  val modes : t -> (Mp_millipage.Proto.mode * int) list
  (** Census of sharing units by current mode, as [[(Sc, n); (Rc, m)]]. *)

  (** {2 Statistics} *)

  val messages_sent : t -> int
  val bytes_sent : t -> int
  val read_faults : t -> int
  val write_faults : t -> int

  val breakdown : t -> (string * float) list
  (** [(bucket, µs)] execution-time breakdown summed over every host's
      application threads (compute / prefetch / read fault / write fault /
      synch — the Figure 6 buckets).  Every system reports the same labels so
      runners can print one table per system. *)

  val obs : t -> Mp_obs.Recorder.t
  (** The system's observability recorder: typed protocol events, fault-span
      latency metrics, Perfetto export.  Disabled by default; enable it (and
      widen its ring) before {!run} to capture a trace. *)

  val profile : t -> Mp_obs.Profile.t option
  (** The sharing-pattern profiler attached to this system's recorder with
      {!Mp_obs.Profile.attach}, if any.  [None] until a caller attaches
      one. *)
end
