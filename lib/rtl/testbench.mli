(** Self-checking testbench driver for {!Engine} simulations.

    Wraps an evaluation engine with named drive/expect/wait operations
    and descriptive failures, so protocol tests read as transactions
    instead of raw pokes.  All values are given as OCaml ints (convenient
    for bus tests; widths are taken from the design). *)

type t

exception Timeout of string
(** Raised by the wait combinators, naming the condition. *)

exception Mismatch of string
(** Raised by {!expect}, naming signal, got and want. *)

val create : ?engine:Engine.kind -> Circuit.t -> t
(** Build the engine (default {!Engine.default_kind}) and {!restart}
    it. *)

val restart : Engine.t -> Circuit.t -> t
(** Bring an engine built for the circuit back to the state {!create}
    leaves a fresh one in: observers and injections cleared, registers
    and memories reset, every input driven to zero, settled.  Lets one
    compiled engine serve many runs. *)

val of_engine : Engine.t -> t
(** Wrap an existing simulation (inputs are left as they are). *)

val engine : t -> Engine.t

val drive : t -> string -> int -> unit
(** Set an input (truncated to the port width). *)

val drive_many : t -> (string * int) list -> unit

val step : t -> ?n:int -> unit -> unit

val cycles : t -> int
(** Clock cycles stepped so far (via {!step} and everything built on
    it, e.g. {!wait_for} and the {!Cpu} transactions). *)

val settle : t -> unit
(** Re-evaluate combinational logic after {!drive} without advancing the
    clock. *)

val peek : t -> string -> int

val expect : t -> string -> int -> unit
(** Settle, then compare a signal against the expected value.
    @raise Mismatch on difference. *)

val wait_for : t -> ?timeout:int -> string -> int -> unit
(** Step until the signal equals the value (default timeout 1000 cycles).
    @raise Timeout when exceeded. *)

val pulse : t -> string -> unit
(** Drive the 1-bit input high for one cycle, then low. *)

(** A CPU-socket master for generated Bus Systems: the [cpu<k>_*] port
    bundle every architecture exposes. *)
module Cpu : sig
  val write : t -> pe:int -> addr:int -> int -> unit
  (** Issue a write transaction and wait for the acknowledge.
      @raise Timeout if the bus never answers. *)

  val read : t -> pe:int -> addr:int -> int
  (** Issue a read transaction; returns the data. *)

  val read_signed : t -> pe:int -> addr:int -> int
  (** Like {!read}, decoding the bus word as two's complement. *)

  val check_read : t -> pe:int -> addr:int -> int -> unit
  (** {!read} then compare. @raise Mismatch on difference. *)

  val irq : t -> pe:int -> bool
  (** Current level of [cpu<k>_irq] (false if the port is absent). *)
end
