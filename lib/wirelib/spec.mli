(** Wire Library data model (paper Section V.A, Figs. 15-17).

    A wire specification names a wire, its width, and its two endpoints;
    each endpoint is a module reference, a port name and the wire bit range
    ([wmsb:wlsb]) the port attaches to.

    A module reference is either an exact instance name ([SRAM_A]) or a
    group pattern ([BAN\[A,B,C,D\]], paper Example 8) meaning "the linked
    chain of these instances": the tool serially connects consecutive
    members with enumerated wire names ([w_data_1], [w_data_2], ...),
    wrapping from the last member back to the first as in paper
    Fig. 17(a). *)

type module_ref =
  | Exact of string
  | Group of string * string list
      (** [Group (base, members)]: [base\[m1,m2,...\]] *)

type endpoint = {
  m_ref : module_ref;
  pname : string;  (** port name within the module *)
  wmsb : int;
  wlsb : int;
}

type wire = {
  w_name : string;
  w_width : int;
  end1 : endpoint;
  end2 : endpoint;
}

type entry = {
  lib_name : string;  (** the [%wire <library_name>] header *)
  wires : wire list;
}

type t = entry list

val endpoint_width : endpoint -> int
(** [wmsb - wlsb + 1]. *)

val validate_wire : wire -> (unit, string) result
(** Ranges within the wire width, non-empty module/port names, no
    duplicate group members.  Group endpoints may differ (the paper's
    [BAN\[B\]] / [BAN\[FFT\]] wires); only wires whose two endpoints carry
    the {e same} group are chain-expanded. *)

val validate : t -> (unit, string) result
(** All wires valid; no duplicate wire names within an entry; no duplicate
    entry names. *)

val is_group : wire -> bool
(** True when both endpoints use the same group pattern. *)

val expand_groups : entry -> entry
(** Replace every group wire by its chain expansion (paper Example 8 and
    Fig. 17(a)): for members [m0..m{n-1}], wire [w] with ends
    [(dn-port, up-port)] becomes [w_1 .. w_n] where [w_k] connects
    [m{k-1}]'s [end1] port to [m{k mod n}]'s [end2] port.  Non-group wires
    are kept unchanged, except that a one-member group reference
    ([BAN[B]], the paper's spelling for "BAN B" in Example 8's FFT
    wires) is normalized to the exact member.
    @raise Invalid_argument if the entry fails {!validate_wire}. *)

val wires_for : entry -> instance:string -> port:string -> wire list
(** All wires (group wires already expanded or not — matching is on the
    entry as given) with an endpoint matching this instance and port.  An
    [Exact] reference matches the instance name; a [Group] matches any
    member. *)

val pp_wire : Format.formatter -> wire -> unit
val pp_entry : Format.formatter -> entry -> unit
