(** Combinational critical-path estimation, in gate levels.

    The companion of {!Area}: where [Area] substitutes for Design
    Compiler's gate counts, [Depth] substitutes for its timing report.
    Each operator contributes a technology-independent number of logic
    levels (and/or/mux = 1, xor = 1, comparator = [1 + log2 w], adder =
    [2 * log2 w] as a carry-lookahead, multiplier = Wallace tree plus
    final adder); wiring-only operations (select, concat, constant
    shifts) are free.  The design is {!Flat.flatten}'s, so paths that
    cross instance boundaries combinationally are followed end to end;
    registers and memories terminate paths.

    The estimate is deliberately coarse — it ranks the generated bus
    systems against each other (e.g. how much combinational depth a
    bridge chain or a wide [Busjoin] adds) rather than predicting
    nanoseconds. *)

type report = {
  levels : int;          (** longest register-to-register / port-to-port path *)
  endpoint : string;     (** flat name of the signal ending that path *)
}

val of_circuit : Circuit.t -> report
(** The critical path of [top], over {!Flat.flatten}'s design.  Every
    combinational target (output ports included), register D input and
    memory write port is an endpoint.  The first strictly deeper
    endpoint wins, with combinational targets taken in slot order, then
    registers and then memory write ports, each in reverse declaration
    order.
    @raise Invalid_argument on a duplicate flat signal (from
    {!Flat.flatten}), on a variable no flat declaration names, and on a
    combinational loop, which the message names as {!Flat.levelize}
    does: [Depth: combinational loop: a -> b -> a]. *)

val expr_levels : env:(string -> int) -> (string -> int) -> Expr.t -> int
(** [expr_levels ~env depth_of_var e]: levels through one expression,
    where [env] gives signal widths and [depth_of_var] the depth already
    accumulated at each leaf variable.  Exposed for tests. *)

val pp_report : Format.formatter -> report -> unit
