(** The BusSyn daemon: a single-process event loop serving the
    newline-delimited JSON protocol ({!Proto}) over a Unix socket or
    stdio, executing admitted jobs in supervised batches on the
    procpool process backend.

    Architecture (DESIGN.md §13): the loop alternates between an
    {e admission pump} (accept connections, read lines, answer
    [health]/[stats] and every rejection immediately, journal and
    enqueue valid jobs) and {e batch execution} of the queued jobs via
    {!Busgen_par.Supervise.run}.  While a batch runs, the pump rides
    the supervisor's [should_stop] poll (called every scheduler
    iteration, ≤ [sv_poll] apart), so admission, health replies and
    backpressure stay live during execution; the poll returns [true] —
    aborting the batch — only on the second signal.  The process never
    spawns a domain, preserving procpool's fork-safety requirement.

    Robustness properties and their mechanisms:
    - {b crash recovery}: every admission is journaled ({!Journal})
      before it is queued; on restart, accepted-but-unresolved jobs
      re-run exactly once in admission order.  Replies are
      deterministic ({!Exec}), so the recovered results are
      byte-identical to what an uninterrupted run would have sent.
    - {b containment}: jobs execute in forked workers; a crash, hang
      or rlimit trip costs that job only (reply [crashed]/[timed-out]/
      [quarantined] naming the signal), and the job is journaled as
      quarantined so a restart does not re-run poison.
    - {b backpressure}: a bounded unfinished-job count (queue depth),
      per-client in-flight caps and per-request queue deadlines; past
      any of them the client gets an immediate [overloaded]/[expired]
      error instead of unbounded queue growth.
    - {b graceful drain}: first SIGTERM/SIGINT (or stdio EOF, or a
      [drain] request) stops job admission, finishes the queue,
      fsyncs the journal and exits 0; a second signal SIGKILLs the
      workers and exits 130 with the journal still naming every
      unresolved job for the next run. *)

type transport = Stdio | Socket of string

type config = {
  cf_transport : transport;
  cf_journal : string option;  (** [None]: volatile queue (no recovery) *)
  cf_queue_depth : int;
  cf_client_inflight : int;
  cf_policy : Busgen_par.Supervise.policy;
  cf_jobs : int;
  cf_limits : Busgen_par.Procpool.config;
  cf_max_frame : int;  (** request-line byte cap *)
  cf_debug_kinds : bool;
  cf_circuit_cap : int;
  cf_journal_max_bytes : int;  (** auto-compaction threshold *)
  cf_log : string -> unit;
}

val config :
  ?journal:string option ->
  ?queue_depth:int ->
  ?client_inflight:int ->
  ?policy:Busgen_par.Supervise.policy ->
  ?jobs:int ->
  ?limits:Busgen_par.Procpool.config ->
  ?max_frame:int ->
  ?debug_kinds:bool ->
  ?circuit_cap:int ->
  ?journal_max_bytes:int ->
  ?log:(string -> unit) ->
  transport ->
  config
(** Defaults: journal [Some "serve-journal"], queue depth 256, client
    in-flight 64, default supervise policy with a 30 s deadline and
    1 retry, jobs = available cores, 1 MiB frames, debug kinds off,
    a 64-circuit cache, 256 MiB compaction threshold, log to
    stderr.  Raises [Invalid_argument] on non-positive bounds. *)

val run : config -> int
(** Serve until drained (0) or hard-interrupted (130).  Installs the
    {!Busgen_par.Intr} handlers. *)

(** {2 Client-side helpers (the CLI's [--ping] / [--send])} *)

val ping : socket:string -> (string, string) result
(** Connect, send a [health] request, return the raw reply line. *)

val send_file :
  ?timeout:float -> socket:string -> path:string -> unit -> (int, string) result
(** Send every line of [path] (["-"] = stdin) as a request and print
    each reply line to stdout as it arrives; returns the reply count.
    [timeout] (default 120 s) bounds the wait for {e each} reply. *)

(** {2 Journal inspection (the CLI's [--dump-journal] / [--dump-replies])} *)

val dump_journal : dir:string -> (unit, string) result
(** Print every journal record as one JSON line
    ([{"record":"accept"|"done"|"quarantine",...}]) plus a trailing
    summary line with corrupt/torn counts. *)

val dump_replies : dir:string -> (unit, string) result
(** Print the reply line of every resolved-with-reply job, sorted by
    request id — the chaos test's byte-diff view. *)
