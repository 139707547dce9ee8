(** NAND2-equivalent gate-count estimation.

    The paper reports Synopsys Design Compiler gate counts in the LEDA TSMC
    0.25um standard-cell library.  We substitute a technology-independent
    per-primitive model (full adder = 9 NAND2, flip-flop = 6, 2:1 mux bit =
    3, XOR = 3, ...), which preserves the relative area of the different bus
    systems.  Memories are excluded by default, as the paper counts the "Bus
    System logic" only. *)

type breakdown = {
  register_bits : int;
  gates_comb : int;   (** combinational NAND2 equivalents *)
  gates_regs : int;   (** NAND2 equivalents of the flip-flops *)
  memory_bits : int;  (** total memory bits (informational) *)
}

val gates : breakdown -> int
(** [gates_comb + gates_regs]. *)

val of_circuit : ?include_memories:bool -> Circuit.t -> breakdown
(** Estimate the whole hierarchy (instances included).  When
    [include_memories] is true (default false), each memory bit adds
    a register-bit cost. *)

val glue_row : string
(** The module-name pseudo-row ["<top-level glue>"] used by
    {!by_instance} and {!by_module} for logic owned by the top level
    itself. *)

val by_instance :
  ?include_memories:bool -> Circuit.t -> (string * int * int) list
(** Per-module area of the top level's direct instances:
    [(module_name, instance_count, total_gates)] rows, heaviest first,
    with the top's own glue logic as ["<top-level glue>"].  Instances
    of the same module are summed (their count is reported), so the
    output reads like a synthesis area report.  The glue row includes
    the cost of expressions driving instance ports, so the rows sum
    exactly to [gates (of_circuit c)]. *)

val by_module :
  ?include_memories:bool -> Circuit.t -> (string * int * int) list
(** Fully flattened per-module report: every instance at any depth of
    the hierarchy contributes one count, and each row's gates are that
    module's {e own} logic (assigns, registers, memories, and the port
    expressions it feeds its direct children) — sub-instances are
    reported on their own rows.  Rows sum exactly to
    [gates (of_circuit c)], so protection modules (WATCHDOG,
    PARITY_GEN/PARITY_CHK) and bridges are visible wherever they are
    instantiated.  Sorted heaviest first, ties by name. *)
