(** Arbitrary-width bit vectors.

    A value of type {!t} is an immutable unsigned bit vector with an explicit
    width in bits.  All arithmetic is modulo [2^width].  Bit 0 is the least
    significant bit.  This module is the value domain of the RTL engines
    ({!Engine}) and of constant expressions ({!Expr.Const}). *)

type t

(** {1 Construction} *)

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w].  [w >= 1]. *)

val one : int -> t
(** [one w] is the vector of width [w] holding the value 1. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val of_int : width:int -> int -> t
(** [of_int ~width v] truncates the two's-complement representation of [v]
    to [width] bits.  Negative [v] wraps (e.g. [of_int ~width:4 (-1)] is
    [0xF]). *)

val of_bool : bool -> t
(** [of_bool b] is a 1-bit vector. *)

val init : int -> (int -> bool) -> t
(** [init w f] is the [w]-bit vector whose bit [i] is [f i]. *)

val of_string : string -> t
(** [of_string s] parses ["<width>'b<binary>"], ["<width>'h<hex>"] or
    ["<width>'d<decimal>"] (Verilog-style, [_] separators allowed).
    @raise Invalid_argument on malformed input or overflow. *)

(** {1 Observation} *)

val width : t -> int

val to_int_exn : t -> int
(** Value as a non-negative OCaml [int].
    @raise Invalid_argument if the value does not fit in 62 bits. *)

val to_int_trunc : t -> int
(** Low [min width 62] bits as a non-negative OCaml [int]; never raises. *)

val bit : t -> int -> bool
(** [bit t i] is bit [i]; [false] when [i >= width t].
    @raise Invalid_argument if [i < 0]. *)

val is_zero : t -> bool

val to_binary_string : t -> string
(** MSB-first, exactly [width] characters of ['0']/['1']. *)

val to_hex_string : t -> string
(** MSB-first hex, [ceil (width/4)] digits. *)

val to_verilog_literal : t -> string
(** E.g. [8'hff]. *)

val pp : Format.formatter -> t -> unit

(** {1 Structure} *)

val concat : t -> t -> t
(** [concat hi lo] has width [width hi + width lo]; [lo] occupies the low
    bits. *)

val concat_list : t list -> t
(** [concat_list vs] concatenates with the head of [vs] most significant.
    @raise Invalid_argument on the empty list. *)

val select : t -> int -> int -> t
(** [select t hi lo] is bits [hi..lo] inclusive, width [hi - lo + 1].
    @raise Invalid_argument unless [0 <= lo <= hi < width t]. *)

val resize : t -> int -> t
(** Zero-extend or truncate to the given width. *)

val repeat : t -> int -> t
(** [repeat t n] concatenates [n >= 1] copies of [t]. *)

(** {1 Logic} *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val reduce_or : t -> bool
val reduce_and : t -> bool
val reduce_xor : t -> bool

(** {1 Arithmetic (unsigned, widths of both operands must match)} *)

val add : t -> t -> t
val sub : t -> t -> t

val mul : t -> t -> t
(** Full-width product: [width (mul a b) = width a + width b]. *)

val smul : t -> t -> t
(** Signed (two's complement) full-width product, same width rule as
    {!mul}. *)

val to_signed_int_exn : t -> int
(** Two's-complement value as an OCaml [int].
    @raise Invalid_argument if the magnitude does not fit in 62 bits. *)

val of_signed_int : width:int -> int -> t
(** Alias of {!of_int} (negative values already wrap); provided for
    call-site clarity. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** {1 Comparison (unsigned; widths must match for the orderings)} *)

val equal : t -> t -> bool
(** Width and value equality. *)

val compare : t -> t -> int
(** Unsigned value order; shorter-width values are zero-extended. *)

val ult : t -> t -> bool
val ule : t -> t -> bool
