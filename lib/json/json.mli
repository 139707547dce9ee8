(** Minimal JSON for the serve protocol — no third-party dependency,
    and hardened the way a network-facing parser must be: bounds are
    the caller's (frame size is capped before [parse] is called),
    nesting depth is capped here, and every parse error is a [result],
    never an exception.

    Printing is {e canonical}: no whitespace, object fields in the
    order given, integers as integers, floats printed with the fewest
    significant digits (15/16/17) that parse back to the identical
    IEEE double, so [parse (to_string (Float f)) = Float f] for every
    finite non-integral [f].  The daemon's chaos test diffs reply
    bytes across a kill/restart, so reply serialization must be a pure
    function of the data. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : ?max_depth:int -> string -> (t, string) result
(** Parse one JSON document (trailing whitespace allowed, trailing
    garbage rejected).  [max_depth] (default 32) bounds recursion so a
    ["[[[[..."] frame cannot blow the stack.  Integral number literals
    that fit in an OCaml [int] parse as [Int], everything else as
    [Float].  Strings must be valid JSON escapes; [\uXXXX] decodes to
    UTF-8. *)

val to_string : t -> string
(** Canonical one-line serialization (see above). *)

(** {2 Accessors} — all total; [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field lookup in an [Obj] (first match). *)

val get_string : t -> string option
val get_int : t -> int option
val get_bool : t -> bool option
