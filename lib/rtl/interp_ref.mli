(** Reference interpreter: the original string-keyed, tree-walking
    evaluation engine, kept as the executable specification of the
    simulation semantics (the oracle).

    {!Interp_tape} (the fast engine) must agree with this module bit for
    bit; the differential tests in [test/test_rtl.ml] enforce that on
    every generated bus architecture.  Use {!Interp_tape} everywhere
    else — this engine re-walks every expression tree with hashtable
    lookups per signal per cycle and is an order of magnitude slower.
    It keeps its own flattening and fault transform and shares only the
    {!Flat} types with the fast engine. *)

type t

val create : Circuit.t -> t
(** Flatten and schedule the design.
    @raise Invalid_argument on duplicate flat signals, combinational
    loops, unknown signals, and any assignment, register next or
    register init whose width differs from its target's. *)

val reset : t -> unit
val set_input : t -> string -> Bits.t -> unit
val settle : t -> unit
val step : t -> unit
val run : t -> int -> unit

val peek : t -> string -> Bits.t
(** @raise Not_found if unknown. *)

val peek_int : t -> string -> int
val peek_mem : t -> string -> int -> Bits.t
val poke_mem : t -> string -> int -> Bits.t -> unit

val signals : t -> (string * int) list
(** Every flat signal as [(name, width)], in no particular order. *)

val on_cycle : t -> (int -> unit) -> unit
(** Register a per-cycle observer.  It runs after the combinational
    settle with the cycle's inputs, before the clock edge, and receives
    the cycle number. *)

val clear_observers : t -> unit

val reader : t -> string -> unit -> int
(** Accessor for a flat signal's value as {!peek_int} reads it (hashes
    the name per call — this is the slow engine).
    @raise Not_found if the signal is unknown. *)

val inject : t -> Flat.injection list -> unit
(** Install injections (cumulative with previous calls), so faulty runs
    of both engines can be compared differentially.
    @raise Invalid_argument on unknown signals or bad schedules. *)

val clear_injections : t -> unit

val current_cycle : t -> int
(** Steps taken since [create]/[reset]. *)

val export_state : t -> Flat.state
(** Snapshot the current state.  Shares {!Flat.state} so a checkpoint
    written by one engine can restore the other — the flattening (and
    therefore the flat-name universe) is identical. *)

val import_state : t -> Flat.state -> unit
(** Restore a snapshot into an engine created from the same circuit.
    @raise Invalid_argument on unknown names or width/depth mismatch. *)

type mark
(** An in-process snapshot: {!export_state} and the engine it was taken
    on. *)

val mark : t -> mark

val rewind : t -> mark -> unit
(** {!import_state} of the mark, then a settle.
    @raise Invalid_argument if the mark was taken on another engine. *)

val matches : t -> mark -> bool
(** The engine's {!export_state} equals the mark's, signal by signal
    ({!Bits.equal}) and word by word.
    @raise Invalid_argument if the mark was taken on another engine. *)
