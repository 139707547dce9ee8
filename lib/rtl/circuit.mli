(** Hierarchical synchronous circuits.

    A circuit is a module with input/output ports, combinational assignments,
    registers, memories and instances of sub-circuits.  All state is clocked
    by a single implicit clock with a synchronous active-high reset; the
    Verilog emitter materialises these as [clk]/[rst] ports and the
    interpreter drives them directly.

    Circuits are constructed with the {!Builder} API and are immutable once
    {!Builder.finish}ed. *)

type direction = Input | Output

type port = { port_name : string; port_width : int; direction : direction }

type signal = { sig_name : string; sig_width : int }

type assign = { target : string; expr : Expr.t }

type reg = {
  reg_name : string;
  reg_width : int;
  init : Bits.t;       (** value after reset *)
  next : Expr.t;       (** value latched at each clock edge *)
}

type mem_write = { we : Expr.t; waddr : Expr.t; wdata : Expr.t }

type memory = {
  mem_name : string;
  data_width : int;
  depth : int;                       (** number of words *)
  init : Bits.t array;
      (** initial contents (ROM/boot image); shorter than [depth] pads
          with zeros, empty means all-zero *)
  writes : mem_write list;           (** applied in order at the clock edge *)
  reads : (string * Expr.t) list;    (** (output signal, address): asynchronous reads *)
}

type instance = {
  inst_name : string;
  sub : t;
  (* port-of-sub -> signal-of-parent *)
  in_connections : (string * Expr.t) list;
  out_connections : (string * string) list;
}

and t = {
  circ_name : string;
  ports : port list;
  wires : signal list;               (** internal combinational signals *)
  assigns : assign list;             (** drives wires and output ports *)
  regs : reg list;
  memories : memory list;
  instances : instance list;
}

val name : t -> string
val find_port : t -> string -> port option
val inputs : t -> port list
val outputs : t -> port list

val signal_width : t -> string -> int
(** Width of any named signal (port, wire, reg, or memory read output).
    @raise Not_found if undeclared. *)

val has_state : t -> bool
(** True if the circuit (or any sub-circuit) contains registers or
    memories, i.e. needs [clk]/[rst]. *)

val sub_circuits : t -> t list
(** All distinct sub-circuits of the hierarchy (deepest first, top excluded),
    deduplicated by module name.
    @raise Invalid_argument if two structurally different circuits share a
    module name. *)

(** Imperative construction of a circuit. *)
module Builder : sig
  type b

  val create : string -> b

  val input : b -> string -> int -> Expr.t
  (** Declare an input port; returns [Var name]. *)

  val output : b -> string -> int -> unit
  (** Declare an output port that must later be driven with {!assign}. *)

  val wire : b -> string -> int -> Expr.t
  (** Declare an internal wire; returns [Var name].  Must be driven exactly
      once with {!assign} (or by an instance output). *)

  val assign : b -> string -> Expr.t -> unit
  (** Drive a declared wire or output port. *)

  val reg : b -> string -> int -> ?init:Bits.t -> unit -> Expr.t
  (** Declare a register (reset value [init], default zero); returns
      [Var name].  Its next-state function must be set with {!set_next}. *)

  val set_next : b -> string -> Expr.t -> unit

  val memory :
    b ->
    ?init:Bits.t array ->
    string ->
    data_width:int ->
    depth:int ->
    writes:mem_write list ->
    reads:(string * Expr.t) list ->
    Expr.t list
  (** Declare a memory.  Returns one [Var] per read port, in order.  Read
      port names must be fresh.  [init] preloads the first words (a ROM
      when [writes] is empty); reset restores it.
      @raise Invalid_argument if [init] is longer than [depth] or a word
      has the wrong width. *)

  val instantiate :
    b ->
    name:string ->
    t ->
    inputs:(string * Expr.t) list ->
    outputs:(string * string) list ->
    Expr.t list
  (** Instantiate [t].  [inputs] connects each input port of the
      sub-circuit to a parent expression; [outputs] names a fresh parent
      wire for each output port.  Returns one [Var] per entry of
      [outputs], in order.  Every port of the sub-circuit must be
      connected exactly once. *)

  val finish : b -> t
  (** Close the builder.
      @raise Invalid_argument if an output or wire is undriven or driven
      twice, a register lacks a next-state function, a name is declared
      twice, an expression fails width checking, or an instance connection
      mismatches. *)
end
