(** Seeded deterministic fuzzing over the generator's option space, with
    shrinking and replayable repro files.

    A {!scenario} bundles everything one verification case needs: an
    option tree, a traffic seed, a cycle horizon and an optional fault
    load (explicit injections and/or a seeded random campaign).
    {!classify} runs the full pipeline on it — generate, lint,
    {!Busgen_rtl.Interp_tape} vs {!Busgen_rtl.Interp_ref} differential,
    monitored simulation under {!Pack} with {!Traffic} stimulus — and
    reports one {!outcome}.  Everything is driven by seeds: the same
    scenario always classifies identically. *)

type scenario = {
  sc_options : Bussyn.Options.t;
  sc_seed : int;        (** traffic / differential stimulus seed *)
  sc_cycles : int;      (** monitored simulation horizon, in cycles *)
  sc_campaign : (int * int) option;
      (** [(seed, n)]: derive [n] random injections from the generated
          design via {!Busgen_rtl.Flat.random_campaign} *)
  sc_faults : Busgen_rtl.Flat.injection list;
      (** explicit injections, applied in addition to the campaign *)
}

val scenario : ?campaign:int * int -> ?faults:Busgen_rtl.Flat.injection list
  -> ?cycles:int -> seed:int -> Bussyn.Options.t -> scenario
(** [cycles] defaults to 1000. *)

val faulted : scenario -> bool
(** The scenario carries a campaign or explicit injections. *)

type outcome =
  | Clean
  | Generation_error of string  (** options rejected / builder refused *)
  | Lint_error of string        (** generated circuit fails {!Busgen_rtl.Lint} *)
  | Engine_divergence of string (** tape and the ref oracle disagree *)
  | Property_violation of Prop.violation list
      (** monitors fired during the monitored run (under faults, this is
          the monitors *detecting* the fault load) *)
  | Traffic_error of string
      (** shadow-model mismatch or bus timeout that no monitor flagged *)

val outcome_class : outcome -> string
(** Stable one-word labels: [clean], [generation-error], [lint-error],
    [engine-divergence], [property-violation], [traffic-error]. *)

type result = {
  r_scenario : scenario;
  r_outcome : outcome;
  r_arch : string option;   (** architecture name once generation worked *)
  r_properties : int;       (** properties armed in the monitored run *)
  r_detections : string list;
      (** names of properties that fired (faulted scenarios) *)
}

val classify : scenario -> result
(** Run the pipeline.  Deterministic; never raises on scenario content
    (failures are folded into the outcome). *)

(** {2 Fuzzing} *)

type casualty = {
  c_case : int;       (** absolute case index ([first_case] + job) *)
  c_class : string;   (** {!Busgen_par.Supervise.outcome_class} label *)
  c_detail : string;  (** deterministic detail (error, or configured
                          deadline — never a measured elapsed time) *)
  c_attempts : int;
}
(** A case the supervisor could not complete: it crashed, timed out, or
    was quarantined.  Casualties are {e not} failures — a failure is a
    verification signal from a completed case; a casualty is a hole in
    the sweep. *)

type report = {
  f_seed : int;
  f_first_case : int;        (** index of the first case classified *)
  f_budget : int;
  f_results : result list;   (** in execution order *)
  f_failures : result list;
      (** fault-free scenarios whose outcome is neither [Clean] nor
          [Generation_error] (the signal the fuzzer hunts for) *)
  f_casualties : casualty list;  (** in case-index order; [[]] = the
                                     sweep completed every case *)
}

val case_seeds : seed:int -> int -> int * int * int
(** [case_seeds ~seed case] is the [(option, traffic, campaign)] seed
    triple of case [case]: three draws from the
    {!Busgen_par.Splitmix.derive}d substream of [(seed, case)].  Pure
    and O(1) in [case]; distinct cases of one root get uncorrelated
    triples (no aliasing of two configs to one campaign). *)

val run :
  ?cycles:int -> ?first_case:int -> ?jobs:int ->
  ?policy:Busgen_par.Supervise.policy ->
  ?backend:result list Busgen_par.Supervise.backend ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?on_case:(int -> result list -> unit) ->
  ?skip:(int -> result list option) ->
  ?should_stop:(unit -> bool) ->
  seed:int -> budget:int ->
  unit -> report
(** Classify [budget] scenarios sampled from
    {!Bussyn.Options.sample}; every other valid case additionally
    carries a seeded fault campaign.  Deterministic per [seed].
    [cycles] bounds each monitored run (default 1000).

    [first_case] (default 0) makes budgets resumable: case seeds are
    indexed (see {!case_seeds}), so
    [run ~seed ~first_case:a ~budget:b ()] classifies exactly the cases
    [a, a+b) of [run ~seed ~budget:(a+b) ()] — an interrupted campaign
    continues where it stopped with no repeated or skipped cases.

    Without [backend] the cases run one at a time in the calling
    process.  [backend] shards the budget over [jobs] forked
    {!Busgen_par.Supervise} workers, one job per case; its codec for
    [result list] must be lossless (the sweep checkpoint codec in
    [Busgen_ckpt.Sweep] is one).  [jobs] (default 1) above 1, or a
    deadline, without [backend] raises [Invalid_argument].  The report
    — results, order, failures, JSON — is byte-identical for every
    [jobs] value, with or without the backend, as long as no deadline
    fires and no worker dies.

    [policy] arms per-case deadlines / retry / quarantine
    (default {!Busgen_par.Supervise.default_policy}: none of them);
    cases the supervisor cannot complete land in [f_casualties] instead
    of sinking the sweep.  The remaining hooks are {b job}-indexed
    ([0 .. budget-1], add [first_case] for the absolute case):
    [on_case i rs] fires once per completed job with its results (the
    sweep-checkpoint feed), [skip i = Some rs] pre-completes a job with
    previously checkpointed results, [on_progress] is the live counter
    and [should_stop] the interrupt poll (raises
    {!Busgen_par.Supervise.Interrupted}). *)

val casualty_lines : report -> string list
(** [f_casualties] rendered one deterministic line each, in case-index
    order: ["case 17: timed-out (deadline 30s; attempts 1)"]. *)

val report_to_json : report -> string
(** Machine-readable summary (class counts, per-case lines, failures,
    casualties). *)

(** {2 Shrinking} *)

val shrink : ?max_evals:int -> scenario -> result -> scenario
(** Greedy minimization: repeatedly try to shorten the cycle horizon,
    drop injections, remove BANs / buses / subsystems and shrink widths,
    keeping every change that preserves [outcome_class].  [max_evals]
    bounds the number of {!classify} calls (default 60).  Returns the
    smallest scenario found (the original if nothing shrank). *)

(** {2 Repro files} *)

val repro_to_string : expect:string -> scenario -> string
(** Serialize as a replayable repro ([# busgen-verify repro v1] header,
    seed / cycles / expect / campaign / inject lines, then the option
    tree in {!Bussyn.Options_text} format). *)

val repro_of_string : string -> (scenario * string, string) Stdlib.result
(** Parse a repro; returns the scenario and the expected class. *)

val save_repro : dir:string -> name:string -> expect:string -> scenario -> string
(** Write [<dir>/<name>.repro] (creating [dir]); returns the path. *)

val replay : string -> (result * string, string) Stdlib.result
(** Load a repro file, classify it, and return the result together with
    the file's expected class (comparison is the caller's business).
    Never raises: a missing or unreadable file, unparseable content, or
    a parseable scenario the pipeline cannot honor (e.g. an injection
    naming an unknown signal) all come back as [Error] with a one-line
    message. *)
