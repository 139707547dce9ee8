(** Design-space exploration: score every candidate in a profile's
    architecture × width × depth × arbitration × protection grid and
    emit a deterministic Pareto front.

    Each candidate is generated ({!Bussyn.Generate}), costed with the
    {!Busgen_rtl.Area} gate model, and simulated bit-exactly: the
    seeded {!Busgen_verify.Traffic} driver issues the profile's
    transaction stream through a {!Busgen_rtl.Testbench} on the chosen
    engine and the elapsed cycle count is the performance score.  With
    [faults > 0] a deterministic fault campaign
    ({!Busgen_rtl.Engine.random_campaign} over the fault-free run's
    cycles) scores each injection as if the same traffic were re-run
    from reset with it installed: reliability is the exact fraction of
    injections survived (no timeout, no read-back mismatch), and
    detection counts the injections whose run saw a protection tap
    high.  The fault-free
    run keeps a {!Busgen_rtl.Engine.mark} at every transaction
    boundary; a faulted run resumes at the last one before its fault,
    and stops at the first boundary after its fault window where its
    engine and traffic state equal the fault-free run's, whose verdict
    it then shares — identical runs from equal states.

    Determinism contract: the report, the ranked text and the JSON
    front are pure functions of (profile, engine) — byte-identical for
    every [jobs] value including 1, in process or on forked workers,
    and across a checkpoint/resume split (the {!score} codec
    round-trips exactly). *)

type candidate = {
  ca_arch : Bussyn.Generate.arch;
  ca_width : int;
  ca_depth : int;
  ca_arb : Busgen_modlib.Arbiter.policy;
  ca_protect : bool;
}

val candidates : Profile.t -> candidate array
(** The grid in canonical order: architecture-major, then width,
    depth, arbitration, protection — the job-index space of a sweep. *)

val label : candidate -> string
(** Unique deterministic name, e.g. ["ccba/w16/d8/priority/prot"]. *)

val config_of : Profile.t -> candidate -> Bussyn.Archs.config

type score = {
  sc_label : string;
  sc_arch : string;          (** lowercase architecture name *)
  sc_width : int;
  sc_depth : int;
  sc_arb : string;
  sc_protect : bool;
  sc_gates : int;            (** Area NAND2 equivalents *)
  sc_cycles : int;           (** fault-free traffic run *)
  sc_transactions : int;
  sc_mismatches : int;       (** golden-run shadow mismatches (0) *)
  sc_rel_num : int;          (** injections survived *)
  sc_rel_den : int;          (** campaign size; 1/1 when no campaign *)
  sc_detected : int;         (** injections flagged by parity/watchdog *)
}

val score :
  ?engine:Busgen_rtl.Engine.kind ->
  ?generate:(Bussyn.Generate.arch -> Bussyn.Archs.config -> Bussyn.Generate.t) ->
  Profile.t ->
  candidate ->
  score
(** Score one candidate.  [generate] defaults to
    {!Bussyn.Generate.generate}; the serve daemon passes its memoizing
    circuit cache here so repeated explorations hit the LRU.  Raises
    [Failure] if the fault-free run times out or the generator rejects
    the configuration — surfaced as a deterministic casualty by
    {!run}. *)

val encode_score : score -> string
val decode_score : string -> (score, string) result
(** Lossless codec (the procpool result codec and the sweep-checkpoint
    payload): [decode_score (encode_score s) = Ok s]. *)

type report = {
  x_profile : Profile.t;
  x_scores : score option array;  (** [None] = casualty at that index *)
  x_casualties : (int * string) list;
      (** (candidate index, deterministic describe line) *)
}

val worker_backend : Busgen_par.Procpool.config -> score Busgen_par.Supervise.backend
(** Forked workers with [config] that return scores through
    {!encode_score}. *)

val run :
  ?engine:Busgen_rtl.Engine.kind ->
  ?generate:(Bussyn.Generate.arch -> Bussyn.Archs.config -> Bussyn.Generate.t) ->
  ?jobs:int ->
  ?policy:Busgen_par.Supervise.policy ->
  ?backend:score Busgen_par.Supervise.backend ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?on_case:(int -> score -> unit) ->
  ?skip:(int -> score option) ->
  ?should_stop:(unit -> bool) ->
  Profile.t ->
  report
(** Score the whole grid under {!Busgen_par.Supervise.run}.  Without
    [backend], [jobs] defaults to 1 and the candidates are scored in the
    calling process (so [generate] runs there too); [jobs > 1] without
    [backend] uses [worker_backend Procpool.default_config].  [on_case]
    fires once per freshly
    computed score (checkpoint hook); [skip] pre-fills a slot (resume
    hook).  May raise {!Busgen_par.Supervise.Interrupted}. *)

val points : report -> Pareto.point list
(** The scored candidates as Pareto points (casualties excluded). *)

val front_json : report -> Busgen_json.Json.t
(** Canonical JSON: profile hash, grid size, Pareto front, ranked
    points and casualties.  Reliability appears as exact [num]/[den]
    integers, so the serialization is trivially byte-stable. *)

val report_text : report -> string
(** Ranked human-readable table (front members starred), followed by a
    casualty summary when the sweep was partial. *)
