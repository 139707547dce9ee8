(** Value Change Dump (IEEE 1364 §18) writer for {!Engine} runs.

    Record a set of flat signals while stepping a simulation and write a
    VCD file viewable in GTKWave — the working equivalent of watching the
    generated bus in the paper's Seamless/XRay setup. *)

type t

val create :
  Engine.t -> signals:string list -> Buffer.t -> t
(** Start a trace of the given flat signal names (see
    {!Engine.signal_names}); writes the header immediately.
    @raise Not_found if a signal does not exist. *)

val sample : t -> unit
(** Record the current values under the current cycle number (only
    changes are emitted).  Call once per clock cycle, after
    {!Engine.step}. *)

val step_and_sample : t -> cycles:int -> unit
(** [Engine.step] then {!sample}, [cycles] times. *)

val finish : t -> unit
(** Emit the final timestamp. *)

val trace_to_string :
  Engine.t -> signals:string list -> cycles:int -> string
(** Convenience: trace a fresh run of [cycles] steps and return the VCD
    text. *)
