(** Property monitors: a small combinator language for safety invariants
    and bounded-liveness properties over RTL simulations, checked each
    cycle through the engine's observer hook
    ({!Busgen_rtl.Engine.on_cycle}).

    A {!pred} is plain data: a boolean observation over the current
    cycle's values of named flat signals.  A property wraps predicates
    into a temporal shape ([always] / [never] / [implies_within]).
    {!attach} resolves each distinct signal once to an index and a
    reader; each cycle the monitor reads every signal once as an
    unboxed [int] and one evaluator checks every property. *)

type pred
(** Plain data, built with the functions below: no closures. *)

(** {2 Predicates}  All names are flat signal paths of at most 62 bits;
    integer constants are truncated to the signal's width, as
    {!Busgen_rtl.Bits.of_int} does. *)

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
(** [subset_of a b]: every set bit of [a] is also set in [b] — e.g.
    "grant implies request". *)

val at_most_one_of : string list -> pred
(** At most one of the listed signals is non-zero. *)

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
(** Resolve the properties against the design and register one observer
    ({!Busgen_rtl.Engine.on_cycle}).  Only the first violation of each
    property is stored; later ones are counted.
    @raise Invalid_argument if a property names an unknown signal or one
    wider than 62 bits, or compares signals of different widths with
    {!le_sig} (the message says which property and which signal). *)

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
      (** per property, in attach order: the earliest undischarged
          [implies_within] trigger cycle ([-1] = none) *)
  ms_firsts : violation list;  (** first violation per property, in order *)
  ms_total : int;  (** total violations including repeats *)
}

val export_state : monitor -> monitor_state

val import_state : monitor -> monitor_state -> unit
(** Restore into a monitor attached with the {e same} property list.
    @raise Invalid_argument if the property count differs. *)
