(** Tape-compiled interpreter with activity-based evaluation: the fast
    engine.

    {!create} compiles the levelized circuit into a flat linear tape of
    pre-decoded ops — int opcode plus slot operands in contiguous
    arrays, no per-expression closures — with the immediate-int fast
    path inlined for signals of width <= 62 bits.  Activity-based
    evaluation rides on the tape: per-level dirty sets from a slot ->
    fanout map, so unchanged combinational cones are skipped.

    The API mirrors {!Interp_ref} exactly — same fault-injection and
    observer interfaces, and {!Flat.state} snapshots interchange between
    the two.  Differential tests in [test/test_rtl.ml] hold this engine
    bit-exact against {!Interp_ref}. *)

type t

val create : Circuit.t -> t
(** Flatten, levelize and tape-compile the design.
    @raise Invalid_argument on combinational loops or width-rule
    violations. *)

val reset : t -> unit
val set_input : t -> string -> Bits.t -> unit
val settle : t -> unit
val step : t -> unit

val run : t -> int -> unit
(** [run t n] is [n] calls of {!step}. *)

val peek : t -> string -> Bits.t
(** @raise Not_found if unknown. *)

val peek_int : t -> string -> int
val peek_mem : t -> string -> int -> Bits.t
val poke_mem : t -> string -> int -> Bits.t -> unit

val signals : t -> (string * int) list
(** Every flat signal as [(name, width)], in slot order. *)

val on_cycle : t -> (int -> unit) -> unit
(** Register a per-cycle observer.  It runs after the combinational
    settle with the cycle's inputs, before the clock edge, and receives
    the cycle number. *)

val clear_observers : t -> unit

val reader : t -> string -> unit -> int
(** Pre-resolved accessor for a flat signal's value as {!peek_int}
    reads it (truncated to the low 62 bits); no allocation per call.
    @raise Not_found if the signal is unknown. *)

val inject : t -> Flat.injection list -> unit
(** Install injections.  They accumulate across calls until
    {!clear_injections}.  The whole list is checked before any of it is
    installed, so a rejected list installs nothing.
    @raise Invalid_argument on unknown signals, bad schedules or a flip
    bit outside the signal's width. *)

val clear_injections : t -> unit

val current_cycle : t -> int
(** Steps taken since [create]/[reset]. *)

val export_state : t -> Flat.state
(** Snapshot the current state.  The layout is {!Flat.flatten}'s, so
    checkpoints interchange with {!Interp_ref}. *)

val import_state : t -> Flat.state -> unit
(** Restore a snapshot into an engine created from the same circuit.
    @raise Invalid_argument on unknown names or width/depth mismatch. *)

type mark
(** An in-process snapshot of this engine: the cycle, the register and
    undriven slots (top inputs, floating wires) and the memories.  A
    memory is kept in 16-word chunks, shared with the previous mark
    except for the chunks written since. *)

val mark : t -> mark

val rewind : t -> mark -> unit
(** Restore the mark's state, drop the active faults (installed
    injections stay) and re-settle the combinational network.
    @raise Invalid_argument if the mark was taken on another engine. *)

val matches : t -> mark -> bool
(** The engine's cycle, register and undriven slots and memories equal
    the mark's.  The combinational cells are not compared: on a
    settled engine with no fault active they follow from the rest.
    @raise Invalid_argument if the mark was taken on another engine. *)
