(** The architectural cycle simulator.

    Executes one {!Program.t} per PE against a transaction-level model of
    one of the seven bus architectures.  Buses are explicit resources:
    every shared-path access queues at its bus, waits for the grant
    (FCFS by default, matching the paper's global arbiter), holds the
    bus for the burst and releases it.  Private paths (a BFBA BAN's
    local SRAM, Bi-FIFO ports) cost latency but no contention.

    Compute phases generate background instruction-fetch traffic at the
    configured cache-miss rate over the PE's {e program memory} path —
    private for the custom architectures, the shared bus for GGBA/CCBA.
    This models the paper's observation (B) that buses holding program
    and local data in shared memory pay arbitration on every miss. *)

type arch = Bussyn.Generate.arch

type policy = Fcfs | Fixed_priority | Round_robin

type fault_config = {
  f_seed : int;          (** campaign seed; per-bus streams derive from it *)
  f_error_num : int;     (** per-grant error probability, over [f_den] *)
  f_timeout_num : int;   (** per-grant slave-timeout probability *)
  f_den : int;
  f_max_retries : int;   (** attempts before the PE is quarantined *)
  f_backoff_cycles : int;   (** first retry delay; doubles per attempt *)
  f_watchdog_cycles : int;  (** bus cycles lost to a timeout before the
                                watchdog forces release *)
}
(** Per-bus transaction fault model (the transaction-level view of the
    generated watchdog/parity hardware).  Every granted transaction
    draws from a deterministic per-bus LCG seeded by [f_seed] and the
    bus index: with probability [f_timeout_num/f_den] the slave times
    out (the bus is held [f_watchdog_cycles] extra cycles), else with
    probability [f_error_num/f_den] it error-responds.  Failed
    transactions never run their effect — no silent corruption — and the
    master retries with exponential backoff up to [f_max_retries] times
    before the arbiter quarantines it (its locks are released and the
    run continues degraded). *)

val fault_config :
  ?max_retries:int ->
  ?backoff_cycles:int ->
  ?watchdog_cycles:int ->
  seed:int ->
  rate:float ->
  unit ->
  fault_config
(** [fault_config ~seed ~rate ()] builds the standard campaign model:
    error probability [rate], timeout probability [rate/4], 8 retries,
    backoff starting at 8 cycles, 64-cycle watchdog.
    @raise Invalid_argument unless [0 <= rate <= 1]. *)

val fault_config_of_string : string -> (fault_config, string) result
(** Parse a ["SEED:RATE"] spec (e.g. ["42:0.001"]) into the standard
    campaign model.  Never raises; malformed specs explain the expected
    shape and the [\[0, 1\]] rate range in the error. *)

type config = {
  arch : arch;
  n_pes : int;
  timing : Timing.t;
  fifo_depth : int;           (** Bi-FIFO capacity in words *)
  policy : policy;            (** shared-bus arbitration *)
  n_subsystems : int;
      (** SplitBA: how many bus subsystems the PEs are split across
          (PE [k] lives in subsystem [k / (n_pes / n_subsystems)];
          ignored by other architectures) *)
  l1 : Cache.config option;
      (** [None] (default): cache misses follow the rational
          [Timing.miss_rate_num/den].  [Some cfg]: each PE simulates a
          real L1 of that shape over a deterministic
          sequential-with-jumps instruction stream, and every actual
          miss becomes a line fetch on the program-memory path —
          slower, but the miss rate emerges from the cache instead of
          being a constant. *)
  var_home : string -> int;
      (** SplitBA: which subsystem's memory holds a named control
          variable or lock (ignored by other architectures) *)
  initial_flags : (Program.flag * bool) list;
  trace : bool;               (** record every transaction (see {!stats.trace}) *)
  faults : fault_config option;
      (** [None] (default): fault-free, bit-identical to the engine
          without the fault model.  [Some fc]: inject bus faults per
          [fc] and report {!stats.reliability}. *)
}

val default_config : arch -> n_pes:int -> config
(** FCFS, paper timing ({!Timing.generated}, or {!Timing.ccba} for
    CCBA), depth-1024 FIFOs, BFBA-style [DONE_OP=1] initialisation on
    architectures with handshake register blocks. *)

type reliability = {
  r_errors : int;       (** bus error responses drawn *)
  r_timeouts : int;     (** slave timeouts (watchdog releases) drawn *)
  r_retries : int;      (** retry transactions issued *)
  r_recovered : int;    (** transactions that succeeded after retrying *)
  r_unrecovered : int;  (** transactions that exhausted their retries *)
  r_quarantined : int list;  (** PEs halted by the arbiter, in order *)
}
(** Outcome of a faulty run.  [r_unrecovered = 0] means every
    transaction eventually completed correctly; otherwise the run is
    degraded and [r_quarantined] names the halted PEs. *)

type stats = {
  cycles : int;               (** total simulated cycles *)
  pe_busy : int array;        (** compute cycles per PE *)
  pe_wait : int array;        (** cycles blocked on buses/flags/FIFOs *)
  bus_busy : (string * int) list;  (** occupancy per bus resource *)
  transactions : int;
  words_transferred : int;
  polls : int;                (** handshake/lock poll transactions *)
  marks : (string * int) list;
      (** [Mark] labels with the cycle they executed at, in time order *)
  trace : txn_record list;
      (** per-transaction records in completion order, when
          [config.trace] is set; empty otherwise *)
  reliability : reliability option;
      (** [Some _] exactly when [config.faults] is set *)
}

and txn_record = {
  tr_pe : int;
  tr_kind : string;  (** [read], [write], [flag], [lock], [miss], [fifo] *)
  tr_label : string option;
      (** the lock name for [lock] transactions; [None] otherwise *)
  tr_resource : string option;  (** bus name, or [None] for private paths *)
  tr_submit : int;   (** cycle the request was issued *)
  tr_grant : int;    (** cycle the bus granted it (= submit when private) *)
  tr_finish : int;
  tr_words : int;
}

exception Invalid_program of string
(** Raised when a program uses an operation the architecture cannot
    perform (e.g. [Loc_global] on BFBA), naming the PE and operation. *)

exception Deadlock of string
(** Raised when no PE can make progress, or when PEs are still running
    at [max_cycles].  The message names every non-halted PE with its program position (ops
    fetched) and phase, e.g. ["pe1 at op #12, queued on a bus"]. *)

val run : ?max_cycles:int -> config -> Program.t array -> stats
(** Run until every PE halts.  [max_cycles] (default 200 million) guards
    against livelock.

    With [config.faults] set, a run whose unrecovered-failure count is
    non-zero never raises [Deadlock]: quarantined PEs may leave peers
    legitimately wedged, so the run stops and reports through
    {!stats.reliability} instead.
    @raise Invalid_program / [Deadlock] as above; [Invalid_argument] if
    the program count differs from [n_pes] or the same (stateful)
    program generator appears under two PEs. *)

val ns_per_cycle : float
(** 10.0 — the paper's 100 MHz SYSCLK. *)

val throughput_mbps : bits:int -> cycles:int -> float
(** Application throughput at 100 MHz, in Mbit/s.  Total: a run with
    [cycles <= 0] (nothing executed, or every PE quarantined before
    the first grant) reports [0.0], never inf/NaN. *)
