(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows from explicitly seeded generators so
    that every experiment is reproducible bit-for-bit.  The implementation is
    xoshiro256** seeded through splitmix64, following the reference
    constructions of Blackman and Vigna.

    The state lives in a [Bytes], read and written with the unboxed
    [int64] primitives, so a draw allocates nothing but a boxed result:
    {!int} and {!bool} allocate nothing, {!float} 2 words and {!bits64}
    3. *)

type t
(** A generator with its own independent state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator whose whole state is derived from
    [seed] via splitmix64. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Useful to give each simulated host its own stream. *)

val bits64 : t -> int64
(** Next 64 uniformly distributed bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed sample (Box-Muller). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
