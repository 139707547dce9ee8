(** Bit-level stream writer/reader for the MPEG2 codec.

    MSB-first within each byte, as in MPEG bitstreams. *)

type t

val create : unit -> t

val put : t -> bits:int -> int -> unit
(** [put t ~bits v] appends the low [bits] (1..30) bits of [v],
    MSB first.
    @raise Invalid_argument on a bad width or negative value. *)

val length_bits : t -> int

type reader

val reader : t -> reader

val get : reader -> bits:int -> int
(** @raise Invalid_argument when reading past the end. *)

val to_bytes : t -> Bytes.t
(** Padded with zero bits to a byte boundary. *)

val of_bytes : Bytes.t -> t
