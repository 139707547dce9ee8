(** The RTL checks both front ends run on a generated design: the
    monitored traffic run behind [verify] and the fault-injection
    campaign behind [inject].  The CLI and the [serve] daemon call
    these functions and differ only in how they format the result, so
    the same arguments give the same numbers on either. *)

(** {2 Monitored run} *)

type report = {
  vr_stats : Traffic.stats;
  vr_properties : int;  (** properties armed by the {!Pack} *)
  vr_violations : Prop.violation list;
}

val verify :
  engine:Busgen_rtl.Engine.kind -> Bussyn.Generate.t -> cycles:int -> report
(** A fresh {!Busgen_rtl.Testbench}, the standard property pack
    attached, then seeded protocol traffic (seed 42) for at least
    [cycles] cycles.
    @raise Busgen_rtl.Testbench.Timeout if the bus stops answering. *)

val clean : report -> bool
(** No violation and no shadow-model mismatch. *)

(** {2 Protection taps} *)

val signals_containing : Busgen_rtl.Engine.t -> string list -> string list
(** [signals_containing sim needles] is the design's flat signals,
    sorted by name, whose name contains one of [needles].  The scan
    builds no substring. *)

val protection_taps : Busgen_rtl.Engine.t -> string list
(** The flat signals that carry the protection strobes of the PARITY_CHK
    and WATCHDOG instances.  They dangle into [nc_] wires at the system
    level but stay observable; empty for an unprotected design. *)

(** {2 Fault-injection campaign}

    One seeded input schedule drives a golden run and then one run per
    injection.  Each run records the top outputs and the protection
    taps every cycle; an injection is classified by comparing its trace
    against the golden one. *)

type campaign

val campaign :
  engine:Busgen_rtl.Engine.kind ->
  Busgen_rtl.Circuit.t ->
  seed:int ->
  n:int ->
  cycles:int ->
  campaign
(** Build the engine, derive the input schedule from [seed], run the
    golden trace over [cycles] cycles and draw [n] injections within
    that horizon. *)

val injections : campaign -> Busgen_rtl.Flat.injection list
(** The drawn injections, in campaign order. *)

val protected : campaign -> bool
(** Whether the design has any {!protection_taps}. *)

type verdict = {
  corrupted : bool;  (** some top output diverged from the golden run *)
  flagged : bool;  (** some protection tap diverged from the golden run *)
}

val classify : campaign -> Busgen_rtl.Flat.injection -> verdict
(** Re-run the schedule with this one injection installed and classify
    it into one of the four quadrants.  Runs on the campaign's engine,
    so calls are serial within a process; a forked worker classifies on
    its own copy-on-write copy.  The verdict depends only on the
    circuit, the schedule and the injection. *)
