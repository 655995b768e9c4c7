(** Deterministic pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator — coin flips, random
    schedulers, workload generators — draws from one of these, so whole
    experiments are reproducible from a single 64-bit seed.  We do not use
    [Stdlib.Random] because its global state would couple unrelated
    components and break run-for-run determinism. *)

type t

val create : int64 -> t
val copy : t -> t
val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)] (53 bits of precision). *)

val float_bits : t -> int
(** The 53-bit integer [k] behind a {!float} draw, which is exactly
    [Float.of_int k *. 0x1p-53]; both advance the stream by one output.
    A float returned across a module boundary is boxed (2 words), an int
    is not: the fault-injection layer draws its per-message probability
    this way and converts locally. *)

val bool : t -> bool

val coin : t -> int
(** 0 or 1, uniform — the paper's coin flip (Algorithm 1, line 6). *)

val split : t -> t
(** Derive an independent stream (for per-process randomness). *)
