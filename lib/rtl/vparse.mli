(** Parser for the Verilog subset {!Verilog} emits, and a structural
    equivalence check against the source {!Circuit}.

    Together they form a round-trip regression harness for the emitter:
    [matches_circuit (parse (Verilog.of_circuit c)) c] must hold for
    every generated module.  The grammar accepted is exactly the
    emitter's output shape (fully parenthesised expressions, one
    [always @(posedge clk)] block with an [if (rst)] arm, continuous
    assignments, memory arrays with asynchronous read assignments and
    guarded writes, named-port instances). *)

type vmodule = {
  vname : string;
  vinputs : (string * int) list;   (** name, width — [clk]/[rst] included *)
  voutputs : (string * int) list;
  vwires : (string * int) list;
  vregs : (string * int) list;
  vmems : (string * int * int) list;  (** name, width, depth *)
  vassigns : (string * Expr.t) list;
      (** memory read assignments appear here with the RHS rewritten as a
          variable reference [mem$read] marker — see {!read_marker} *)
  vresets : (string * Bits.t) list;   (** reg <= literal under [if (rst)] *)
  vmem_inits : (string * int * Bits.t) list;
      (** mem[idx] <= literal under [if (rst)] *)
  vnexts : (string * Expr.t) list;    (** reg <= expr in the else arm *)
  vmem_writes : (Expr.t * string * Expr.t * Expr.t) list;
      (** guard, memory, address, data *)
  vinstances : (string * string * (string * Expr.t) list) list;
      (** module, instance, port connections (output ports connect to
          plain variables) *)
}

val read_marker : mem:string -> addr:Expr.t -> Expr.t
(** How a memory read [mem\[addr\]] is encoded in {!vmodule.vassigns}. *)

val parse_module : string -> (vmodule, string) result
(** Parse one module.  The error carries a line/column hint. *)

val matches_circuit : vmodule -> Circuit.t -> (unit, string list) result
(** Structural equivalence with the circuit the emitter was given:
    same ports (plus [clk]/[rst] exactly when the circuit holds state),
    wires, registers with equal reset values and next-state expressions,
    memories with equal write and read ports, continuous assignments,
    and instances.  Expressions are compared as trees. *)
