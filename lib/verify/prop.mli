(** Property monitors: a small combinator language for safety invariants
    and bounded-liveness properties over RTL simulations, compiled to
    per-cycle checkers that attach to {!Busgen_rtl.Engine} runs through
    the engine's observer hook.

    A {!pred} is a named boolean observation over the current cycle's
    sampled signal values; a property wraps predicates into a temporal
    shape ([always] / [never] / [implies_within]).  Compilation resolves
    every signal name to a slot reader once, so an armed monitor costs a
    few array reads and bit tests per property per cycle. *)

type read = string -> unit -> Busgen_rtl.Bits.t
(** Signal access as handed to predicate compilation: pre-resolved
    per-name readers ({!Busgen_rtl.Engine.reader}). *)

type pred

val pred : string -> (read -> unit -> bool) -> pred
(** [pred desc compile]: a custom observation.  [compile] receives the
    reader factory once, at attach time. *)

val desc : pred -> string

(** {2 Ready-made predicates}  All names are flat signal paths. *)

val high : string -> pred
(** The 1-bit (or reduce-or of a wider) signal is non-zero. *)

val low : string -> pred

val eq_int : string -> int -> pred
val le_int : string -> int -> pred
val le_sig : string -> string -> pred
(** Unsigned [a <= b]; the two signals must have equal widths. *)

val onehot_or_zero : string -> pred
(** At most one bit of the signal is set. *)

val subset_of : string -> string -> pred
(** [subset_of a b]: every set bit of [a] is also set in [b] (equal
    widths) — e.g. "grant implies request". *)

val at_most_one_of : string list -> pred
(** At most one of the listed (1-bit) signals is high. *)

val conj : pred -> pred -> pred
val disj : pred -> pred -> pred
val neg : pred -> pred
val iff : pred -> pred -> pred

(** {2 Properties} *)

type shape =
  | Always of pred      (** the predicate holds on every sampled cycle *)
  | Never of pred       (** the predicate holds on no sampled cycle *)
  | Implies_within of { cycles : int; trigger : pred; goal : pred }
      (** whenever [trigger] holds at cycle [c], [goal] must hold at
          some cycle in [c, c + cycles] (bounded liveness) *)

type t = { p_name : string; p_shape : shape }

val always : name:string -> pred -> t
val never : name:string -> pred -> t
val implies_within : name:string -> cycles:int -> pred -> pred -> t

(** {2 Monitors} *)

type violation = {
  v_prop : string;
  v_cycle : int;   (** sampled cycle of the (first) violation *)
  v_detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type monitor

val attach : Busgen_rtl.Engine.t -> t list -> monitor
(** Compile the properties against the design and register one observer
    ({!Busgen_rtl.Engine.on_cycle}).  Only the first violation of each
    property is stored; later ones are counted.
    @raise Invalid_argument if a property names an unknown signal (the
    message says which property and which signal). *)

val violations : monitor -> violation list
(** First violation of each violated property, in cycle order. *)

val violation_count : monitor -> int
(** Total violations observed, including repeats per property. *)

val violated_props : monitor -> string list
(** Names of violated properties, in first-violation order. *)

val property_count : monitor -> int

val reset : monitor -> unit
(** Forget recorded violations and pending obligations (e.g. between a
    golden and a faulty run on the same interpreter). *)

(** {2 Monitor state snapshot}

    The hidden temporal state of a monitor (pending [implies_within]
    obligations plus recorded violations) as plain data, so a resumed
    checkpointed run reports exactly what an uninterrupted run would. *)

type monitor_state = {
  ms_pending : int array;
      (** per-checker obligation state, in attach order ([-1] = none) *)
  ms_firsts : violation list;  (** first violation per property, in order *)
  ms_total : int;  (** total violations including repeats *)
}

val export_state : monitor -> monitor_state

val import_state : monitor -> monitor_state -> unit
(** Restore into a monitor attached with the {e same} property list.
    @raise Invalid_argument if the checker count differs. *)
