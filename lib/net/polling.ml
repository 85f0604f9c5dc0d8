open Mp_util

type nt_params = {
  p_short : float;
  short_lo : float;
  short_hi : float;
  long_lo : float;
  long_hi : float;
}

type mode = Fast | Nt_timer of nt_params

let default_nt =
  { p_short = 0.4; short_lo = 20.0; short_hi = 80.0; long_lo = 600.0; long_hi = 1600.0 }

let nt_mode = Nt_timer default_nt

(* [next_tick] is a one-slot [Float.Array], so advancing it boxes nothing. *)
type t = { mode : mode; poll_idle_us : float; rng : Prng.t; next_tick : Float.Array.t }

let create mode ~poll_idle_us ~rng =
  { mode; poll_idle_us; rng; next_tick = Float.Array.make 1 0.0 }

(* An interval is drawn as [lo + (hi - lo) * u] with [u = Prng.float rng 1.0],
   which equals [lo + Prng.float rng (hi - lo)] bit for bit and passes no
   float to [Prng]. *)
let next_poll_time t ~busy a i =
  match t.mode with
  | Nt_timer p when busy ->
    (* advance the sweeper's tick stream past the arrival *)
    let now = Float.Array.get a i in
    while Float.Array.get t.next_tick 0 <= now do
      let interval =
        if Prng.float t.rng 1.0 < p.p_short then
          p.short_lo +. ((p.short_hi -. p.short_lo) *. Prng.float t.rng 1.0)
        else p.long_lo +. ((p.long_hi -. p.long_lo) *. Prng.float t.rng 1.0)
      in
      Float.Array.set t.next_tick 0 (Float.Array.get t.next_tick 0 +. interval)
    done;
    Float.Array.set a i (Float.Array.get t.next_tick 0)
  | Fast | Nt_timer _ -> Float.Array.set a i (Float.Array.get a i +. t.poll_idle_us)

let mean_busy_wait p =
  (* A random arrival falls into an interval with probability proportional to
     its length; expected residual wait is E[I²] / (2 E[I]). *)
  let mean_u lo hi = (lo +. hi) /. 2.0 in
  let m2_u lo hi =
    (* E[X²] for X ~ U(lo,hi) *)
    ((hi -. lo) ** 2.0 /. 12.0) +. (mean_u lo hi ** 2.0)
  in
  let ei =
    (p.p_short *. mean_u p.short_lo p.short_hi)
    +. ((1.0 -. p.p_short) *. mean_u p.long_lo p.long_hi)
  in
  let ei2 =
    (p.p_short *. m2_u p.short_lo p.short_hi)
    +. ((1.0 -. p.p_short) *. m2_u p.long_lo p.long_hi)
  in
  ei2 /. (2.0 *. ei)
