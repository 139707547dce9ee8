(** The flat view of a {!Circuit} hierarchy: the flattening, the
    fault-injection descriptors and the simulation-state snapshot.

    {!flatten} is the one flattening of the library outside the
    {!Interp_ref} oracle.  {!Interp_tape}, {!Lint} and {!Depth} all read
    its {!design}, which interns every flat signal to a slot once, so
    this module fixes the flat-name universe, the slot order and the
    {!state} layout that checkpoints store.  {!Interp_ref} keeps its own
    flattening and shares only the types, so a snapshot taken under
    either engine restores into the other. *)

(** {1 Flattening} *)

type flat_reg = { fr_name : string; fr_init : Bits.t; fr_next : Expr.t }

type flat_mem = {
  fm_name : string;
  fm_width : int;
  fm_depth : int;
  fm_init : Bits.t array;
  fm_writes : Circuit.mem_write list;  (** expressions already renamed *)
  fm_reads : (string * Expr.t) list;
}

type design = {
  d_names : string array;  (** slot -> flat name, in declaration order *)
  d_widths : int array;  (** slot -> width *)
  d_slots : (string, int) Hashtbl.t;  (** flat name -> slot *)
  d_inputs : (string, int) Hashtbl.t;  (** top-level input -> slot *)
  d_assigns : (string * Expr.t) list;
      (** combinational assignments; instance boundaries become alias
          assignments *)
  d_regs : flat_reg list;
  d_mems : flat_mem list;
}
(** A flattened hierarchy.  Every declared signal (port, wire,
    register, memory read port) has one slot; the signals of instance
    [u] are named [u$signal].  Assignments, registers and memories are
    in declaration order. *)

val flatten : Circuit.t -> design
(** @raise Invalid_argument if two declarations flatten to the same name
    (the message names both instance paths). *)

val signals : design -> (string * int) list
(** Every flat signal as [(name, width)], in slot order. *)

exception Combinational_cycle of string list
(** A dependency cycle among combinational nodes; the payload is the
    node names along the cycle, in dependency order. *)

val levelize_graph : (string * string list) list -> (string * int) list
(** [levelize_graph nodes] topologically orders combinational [nodes],
    each given as [(name, dependencies)].  Dependencies that are not
    themselves nodes (inputs, registers, memory words) are sources at
    level 0.  Returns every node paired with its level — [1 + max] of
    its dependencies' levels — in evaluation (dependency-first) order,
    so evaluating the returned sequence once settles the whole network
    without any fixed-point iteration.  The traversal is deterministic
    in the order of [nodes].
    @raise Combinational_cycle on a dependency cycle. *)

val levelize : design -> (string * int) list
(** [levelize d] orders the combinational graph of [d] with
    {!levelize_graph}: one node per assignment target and per memory
    read port, each depending on the variables of its expression (a
    read port on its address).  {!Interp_tape} schedules from it and
    {!Lint} checks it, so both see the same graph.
    @raise Invalid_argument on a combinational loop; the message names
    the cycle in dependency order, closed once:
    [combinational loop: a -> b -> a] means [a] reads [b] and [b]
    reads [a]. *)

(** {1 Fault injection}

    Deterministic, cycle-scheduled faults on named flat signals.  While
    active, an injection perturbs the value a signal presents to the
    rest of the design: combinational targets after every evaluation,
    registers at the clock-edge commit, and undriven signals (top
    inputs, floating wires) once per step. *)

type fault =
  | Stuck_at_0      (** force every bit to 0 while active *)
  | Stuck_at_1      (** force every bit to 1 while active *)
  | Flip of int     (** invert one bit (LSB = 0) while active *)

type injection = {
  inj_signal : string;  (** flat signal name *)
  inj_fault : fault;
  inj_start : int;      (** first affected cycle, counted by steps *)
  inj_cycles : int;     (** duration; [1] models a transient glitch *)
}

val apply_fault : fault -> Bits.t -> Bits.t
(** The value a faulted signal presents.  A [Flip] outside the width
    leaves the value unchanged. *)

val random_campaign :
  (string * int) list -> seed:int -> n:int -> horizon:int -> injection list
(** [random_campaign signals ~seed ~n ~horizon] draws [n] injections
    over [signals] ([(flat name, width)] pairs, in any order; the draw
    walks them sorted by name), with start cycles in [\[0, horizon)]
    and durations of 1-4 cycles, from a seeded LCG: no global RNG, no
    wall clock.  The same arguments always give the same campaign.
    @raise Invalid_argument if [n < 0] or [horizon < 1]. *)

(** {1 State snapshot}

    Full simulation state as plain data, for checkpoint/restore.  A
    snapshot taken after a step and imported into a freshly created
    engine of the same circuit resumes bit-exactly.  Installed
    injections are not part of the state: the restoring caller
    re-installs them (they are scheduled on absolute cycles, so they
    re-arm correctly against the restored cycle). *)

type state = {
  st_cycle : int;  (** steps taken at snapshot time *)
  st_values : (string * Bits.t) array;  (** every flat signal's value *)
  st_mems : (string * Bits.t array) array;  (** every memory's words *)
}
