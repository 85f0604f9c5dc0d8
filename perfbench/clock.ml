(** Host-side measurement: a nanosecond clock and allocated words. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(** Words allocated so far: minor + major − promoted, so a value promoted
    out of the minor heap counts once.  Unlike [Gc.minor_words] alone, this
    also sees blocks too large for the minor heap (a 4 KB twin, a 16 MB
    memory object). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted
