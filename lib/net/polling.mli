(** The poller / sweeper / timer structure of §3.5.1.

    FM messages are only noticed when some thread polls.  Millipage runs a
    low-priority {e poller} that busy-polls whenever the CPU is otherwise
    idle, and a {e sweeper} woken by a 1 ms multimedia timer that polls even
    while application threads compute.  NT's timers are wildly inaccurate
    (Jones & Regehr measured σ ≈ 955 µs on 1 ms timers); most firings come
    either within tens of µs or after several ms, which is what makes busy
    hosts slow to service minipage requests (~500 µs average response).

    {!mode} selects between that faithful model and an idealized [Fast] mode
    (the "once the polling problem is solved" regime the paper anticipates),
    used by ablation benches. *)

type nt_params = {
  p_short : float;  (** probability of a short inter-tick interval *)
  short_lo : float;
  short_hi : float;  (** short interval bounds, µs *)
  long_lo : float;
  long_hi : float;  (** long interval bounds, µs *)
}

type mode =
  | Fast
      (** Messages are picked up [poll_idle_us] after arrival regardless of
          CPU state. *)
  | Nt_timer of nt_params
      (** Idle hosts poll after [poll_idle_us]; busy hosts poll at the next
          sweeper tick. *)

val default_nt : nt_params
(** Calibrated so a request hitting a busy host waits ≈ 500 µs on average. *)

val nt_mode : mode
(** [Nt_timer default_nt]. *)

type t
(** Per-host polling state: the sweeper's tick stream. *)

val create : mode -> poll_idle_us:float -> rng:Mp_util.Prng.t -> t

val next_poll_time : t -> busy:bool -> Float.Array.t -> int -> unit
(** [next_poll_time t ~busy a i] replaces the arrival time in [a.(i)] with
    the earliest instant a message arriving then will be noticed.  The time
    goes through the slot because a float passed to or returned from another
    module's function is boxed. *)

val mean_busy_wait : nt_params -> float
(** Analytic expected wait of a random arrival until the next tick
    (length-biased interval sampling); used by tests and calibration. *)
