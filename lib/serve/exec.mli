(** Deterministic job execution for the daemon.

    A job's reply is a pure function of its request: no timestamps, no
    measured durations, no wall-clock anything (the generator's
    [generation_time_ms] is deliberately excluded from [generate]
    replies) — the chaos test diffs reply bytes across a SIGKILL /
    restart, where re-run jobs execute at a different time on a cold
    cache.

    {!validate} runs in the parent at admission: full parameter
    parsing and bounds checks (PE counts, widths, cycle and budget
    caps), then, for the kinds that simulate or emit one design, the
    design's build through the circuit cache.  So a malformed job, or
    one whose builder refuses its configuration, is rejected with
    [bad-request] before it is journaled, and a hostile one cannot make
    the parent itself do unbounded work.  {!run} executes in a procpool
    worker child; a deterministic in-job failure comes back as an error
    {e reply} (code [crashed]), while a worker death or hang is the
    supervisor's business and never reaches this module.

    Debug kinds ([sleep], [spin], [crash], [fail]) exist to let tests
    and operators exercise the supervision path on demand; they are
    rejected at admission unless the server runs with
    [--debug-kinds]. *)

val job_kinds : string list
(** The serviceable kinds: generate, simulate, verify, fuzz, inject,
    explore. *)

val debug_kinds : string list
(** sleep, spin, crash, fail. *)

val validate : allow_debug:bool -> Proto.request -> (unit, string) result
(** Parse and bounds-check, and build a [generate]/[verify]/[inject]
    design through the circuit cache, so forked workers inherit the
    entry.  A builder's [Invalid_argument] is the error; the error is
    one [bad-request] line. *)

val warm : Proto.request -> unit
(** Parent-side cache warm for [explore]: build the first candidate's
    circuit; the worker reuses the cache for the whole grid.  Never
    raises; does nothing for other kinds ({!validate} already built
    their design) or params that fail to parse. *)

val run : Proto.request -> string * Cache.snap
(** Execute (in a worker child) and return the reply line plus this
    job's cache-counter delta. *)

val encode_result : string * Cache.snap -> string
val decode_result : string -> string * Cache.snap
(** The lossless codec for results crossing the worker-process
    boundary ({!Busgen_par.Procpool.spec}). *)
