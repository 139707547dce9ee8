(** Splitmix64: the seed-derivation PRNG behind every parallel sweep.

    Two properties matter here and plain LCG chains have neither:

    - {b dispersion}: nearby inputs (root seeds [41] and [42], job
      indices [k] and [k+1]) land on unrelated streams, so two jobs of
      one budget can never alias to the same campaign; and
    - {b O(1) indexed access}: {!derive} jumps straight to the stream
      of [(root, index)] without generating the [index - 1] streams
      before it, which is what lets a worker pool hand job [k] its RNG
      without replaying jobs [0 .. k-1].

    Every draw is a pure function of [(root, index, draw position)] —
    never of worker identity or completion order — which is the whole
    determinism contract of {!Supervise}. *)

type t
(** A mutable generator (one independent stream). *)

val create : int -> t
(** [create seed] seeds a stream directly from [seed]. *)

val derive : root:int -> index:int -> t
(** [derive ~root ~index] is the [index]-th substream of [root]: the
    seed pair is mixed through two finalizer rounds, so substreams of
    one root — and equal indices of different roots — are unrelated. *)

val next64 : t -> int64
(** Next raw 64-bit draw. *)

val next : t -> int
(** Next non-negative 62-bit draw (a native [int], always [>= 0]). *)

val next_in : t -> int -> int
(** [next_in t bound] draws uniformly from [\[0, bound)]; [bound] must
    be positive. *)
