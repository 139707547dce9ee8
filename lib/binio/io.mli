(** Binary serialization primitives.

    A tiny, dependency-free length-prefixed format: integers are 8
    little-endian bytes, strings and sequences carry their length.
    Readers never trust the input — every decode is bounds-checked and
    a malformed buffer raises {!Corrupt} with a position, which callers
    turn into a clean [Error].  No OCaml [Marshal] anywhere: the bytes
    must be stable across compiler versions and diagnosable with [xxd].

    This is the bottom layer shared by checkpoint files
    ([Busgen_ckpt]), the process-pool wire protocol
    ([Busgen_par.Procpool]) and the serve journal. *)

type writer

val writer : unit -> writer
val contents : writer -> string

val w_int : writer -> int -> unit
(** Any OCaml [int] (63-bit, sign included). *)

val w_bool : writer -> bool -> unit
val w_string : writer -> string -> unit

val w_raw : writer -> string -> unit
(** Bytes with no length prefix (magic numbers). *)

val w_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val w_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val w_opt : writer -> (writer -> 'a -> unit) -> 'a option -> unit

exception Corrupt of string
(** Raised by every [r_*] function on truncated or malformed input; the
    message names the failing decode and byte position. *)

type reader

val reader : string -> reader

val corrupt : reader -> string -> 'a
(** [corrupt r what] raises {!Corrupt} naming [what] and the current
    byte position — for higher-level decoders layered on this one. *)

val r_int : reader -> int
val r_bool : reader -> bool
val r_string : reader -> string
val r_list : reader -> (reader -> 'a) -> 'a list
val r_array : reader -> (reader -> 'a) -> 'a array
val r_opt : reader -> (reader -> 'a) -> 'a option

val at_end : reader -> bool

val pos : reader -> int
(** Current byte offset (for error messages in higher-level decoders). *)

val crc32 : string -> int
(** IEEE CRC-32 (the zlib/Ethernet polynomial) of the whole string, in
    [\[0, 2{^32})].  Table-driven; used as the checkpoint content
    checksum and the {!frame} checksum. *)

(** {1 Frames} *)

val frame : string -> string
(** [frame payload] is an 8-byte LE payload length, the payload, and an
    8-byte LE {!crc32} of the payload — the one record format of the
    process-pool pipes and the serve journal.  Their readers stay
    separate: a pipe is read with patience for a stalled peer, a
    journal file is scanned with torn-tail rules. *)

val frame_overhead : int
(** Bytes a frame adds to its payload (16). *)
