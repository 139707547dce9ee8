(** Structural checks on circuits beyond what {!Circuit.Builder.finish}
    enforces. *)

type report = {
  errors : string list;
  warnings : string list;
}

val check : Circuit.t -> report
(** Per module: duplicate instance names and signals named [clk]/[rst]
    (reserved by the Verilog emitter) are errors; wires that drive
    nothing (unread) are warnings.  Modules that share a name but differ
    are an error ({!Circuit.sub_circuits}).

    On the flattened hierarchy, the rules the tape engine's build
    enforces, reported as one error (the first found): duplicate flat
    signals ({!Flat.flatten}), combinational loops ({!Flat.levelize},
    the graph the tape engine schedules from), unknown flat signals (a
    variable of an assignment, register next or memory port that is not
    in {!Flat.design}'s name -> slot table, the one the tape reads) and
    flat width mismatches (an assignment or register next whose
    {!Expr.width} differs from its target's, a register init of the
    wrong width, or an expression that fails {!Expr.width}).  The check is structural: it builds no engine,
    allocates no memory words and settles nothing, so its cost does not
    grow with memory depth. *)

val is_clean : report -> bool
(** No errors (warnings allowed). *)

val pp_report : Format.formatter -> report -> unit
