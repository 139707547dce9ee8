(** Supervised long co-simulations with crash recovery.

    A soak run drives the generated RTL with the deterministic traffic
    driver ({!Busgen_verify.Traffic}) under the standard property pack,
    writing a {!Ckpt.snapshot} on a cycle (and optionally wall-clock)
    cadence and keeping the newest few.  Restarting the same run
    against the same checkpoint directory resumes from the newest
    checkpoint that validates — a corrupt newest file (torn write, bad
    block) is skipped with a note and the previous good one is used —
    and, because every layer of state is snapshotted, the resumed run
    is bit-exact with the uninterrupted one.

    A heartbeat watchdog guards against wedged runs: a transaction that
    stops making progress (the bus never acknowledges within the
    testbench timeout) trips it, and the run terminates with a
    diagnostic naming the control signals frozen across a probe window
    instead of spinning forever. *)

type config = {
  sk_arch : Bussyn.Generate.arch;
  sk_config : Bussyn.Archs.config;
  sk_seed : int;              (** traffic seed *)
  sk_cycles : int;            (** run until at least this many cycles *)
  sk_dir : string;            (** checkpoint directory (created if needed) *)
  sk_cadence : int;           (** checkpoint every N cycles; [<= 0] disables *)
  sk_wall : float option;     (** also checkpoint every this many seconds *)
  sk_keep : int;              (** checkpoint files retained (newest first) *)
  sk_campaign : (int * int) option;
      (** [(seed, n)]: install a random fault campaign over the design
          (see {!Busgen_rtl.Engine.random_campaign}) *)
  sk_monitor : bool;          (** arm the standard property pack *)
  sk_engine : Busgen_rtl.Engine.kind;  (** evaluation engine *)
  sk_log : string -> unit;    (** progress lines (checkpoints, resume, skips) *)
}

val config :
  ?cadence:int -> ?wall:float option -> ?keep:int ->
  ?campaign:int * int -> ?monitor:bool ->
  ?engine:Busgen_rtl.Engine.kind -> ?log:(string -> unit) ->
  arch:Bussyn.Generate.arch -> config:Bussyn.Archs.config -> seed:int ->
  cycles:int -> dir:string -> unit -> config
(** Defaults: cadence 10_000 cycles, no wall-clock cadence, keep 3,
    no campaign, monitors on, engine {!Busgen_rtl.Engine.default_kind},
    silent log.  Checkpoints interchange across engines: a run
    checkpointed under one engine resumes under any other. *)

type outcome = {
  so_stats : Busgen_verify.Traffic.stats;
      (** cumulative over the whole logical run, resumes included *)
  so_cycles : int;            (** absolute cycle count reached *)
  so_violations : Busgen_verify.Prop.violation list;
  so_checkpoints : int;       (** checkpoint files written by this process *)
  so_resumed_at : int option; (** cycle of the checkpoint resumed from *)
  so_skipped : (string * string) list;
      (** corrupt/unreadable checkpoints skipped during recovery *)
}

val run : config -> (outcome, string) result
(** Run (or resume) to [sk_cycles].  [Error] cases: a checkpoint whose
    provenance (tool version, design hash, traffic seed) does not match
    — see {!Ckpt.check_provenance} — or a tripped watchdog, whose
    message names the frozen control signals. *)
