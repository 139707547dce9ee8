(** One handle over the two evaluation engines: {!Interp_tape}, checked
    against the {!Interp_ref} oracle.

    Downstream subsystems (testbench, property monitors, fault
    campaigns, checkpoint/soak drivers, CLI) hold an {!t} instead of a
    concrete engine, so [--engine tape|ref] swaps the evaluator without
    touching them.  Both engines share the flat-name universe and the
    {!Flat.state} snapshot layout, so cross-engine checkpoint restore
    works by construction. *)

type kind = Ref | Tape

val kind_of_string : string -> (kind, string) result
(** ["tape"] or ["ref"]; [Error] carries a one-line message naming both,
    suitable for stderr. *)

val kind_to_string : kind -> string

val all_kinds : kind list
(** [[Ref; Tape]], for test matrices. *)

val default_kind : kind
(** {!Tape} — the fast engine, held bit-exact against the oracle by the
    differential suite. *)

type t

val create : ?kind:kind -> Circuit.t -> t
(** Flatten and compile the design with the chosen engine
    (default {!default_kind}).
    @raise Invalid_argument on combinational loops. *)

val kind : t -> kind

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
val signal_names : t -> string list
(** All flat signal names, sorted. *)

val on_cycle : t -> (int -> unit) -> unit
val clear_observers : t -> unit

val reader : t -> string -> unit -> int
(** A pre-resolved reader of one signal's value as {!peek_int} reads it
    (truncated to the low 62 bits), for property monitors that read
    every cycle; the tape engine's reader does not allocate.
    @raise Not_found if the signal is unknown. *)

val inject : t -> Flat.injection list -> unit
(** Install injections.  They accumulate across calls until
    {!clear_injections}, and they stay across {!reset}, {!import_state}
    and {!rewind}.  The whole list is checked before any of it is
    installed, so a rejected list installs nothing.
    @raise Invalid_argument on an unknown signal or a bad schedule; the
    tape engine also rejects a flip bit outside the signal's width. *)

val clear_injections : t -> unit
val current_cycle : t -> int

val export_state : t -> Flat.state
val import_state : t -> Flat.state -> unit
(** The portable checkpoint: every flat signal and memory by name, so
    a state exported by one engine imports into the other (and into a
    later process, through {!Busgen_ckpt}).  For rewinding one engine
    in process, {!mark} is far cheaper. *)

type mark
(** An in-process snapshot of one engine, for returning to a point of a
    run and for asking whether another run has reached the same state.
    On the tape engine it holds the cycle, the register and undriven
    slots (top inputs, floating wires) and the memories, shared with
    the previous mark except for the 16-word chunks written since.  On
    the reference engine it is an {!export_state}.  A mark
    is not a checkpoint: it is valid only on the engine that took it. *)

val mark : t -> mark

val rewind : t -> mark -> unit
(** Return the engine to the mark: cycle, state and memories restored,
    active faults dropped, combinational logic re-settled.  Installed
    injections and observers stay, as with {!import_state}.
    @raise Invalid_argument if the mark was taken on another engine. *)

val matches : t -> mark -> bool
(** The engine is in the mark's state: same cycle, registers, undriven
    signals and memories (the reference engine compares every signal).
    On a settled engine with no fault active this is {!export_state}
    equality, so two runs that match at a cycle after their last fault
    evolve identically from there under the same inputs.
    @raise Invalid_argument if the mark was taken on another engine. *)

val random_campaign :
  t -> seed:int -> n:int -> horizon:int -> Flat.injection list
(** {!Flat.random_campaign} over the design's flat signals: the stream
    depends on the circuit and the arguments, never on the engine. *)
