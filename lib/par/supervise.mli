(** Supervision of parallel sweeps: per-job wall-clock deadlines,
    bounded retry with exponential backoff, quarantine of jobs that
    exhaust retries, and graceful completion — a sweep containing hung
    and crashing jobs still drains to the end and reports every job's
    fate.

    Parallel sweeps run on forked worker processes ({!Procpool}): an
    overdue job's worker is SIGKILLed and reaped, a worker dying to
    SIGSEGV/OOM surfaces as that one job's [Crashed], and per-worker
    rlimits bound CPU and memory.  Without a backend the jobs run one
    at a time in the calling process under the same retry, quarantine,
    hook and skip rules.

    Determinism contract: as long as no deadline fires and no worker
    dies, the outcome array is a pure function of the job function,
    byte-identical for every [jobs] including 1, with or without the
    backend.  A job's work must be a pure function of its {b index} —
    any RNG it needs comes from {!Splitmix.derive} on
    [(root seed, index)], never from worker identity or completion
    order — and results merge into one slot per index.  Deadline
    firings depend on wall-clock scheduling and are inherently
    non-deterministic, but the {b rendering} of a [Timed_out] outcome
    is deterministic: it carries the configured deadline, never a
    measured elapsed time. *)

type policy = {
  sv_deadline : float option;
      (** Per-attempt wall-clock budget in seconds; [None] = no limit.
          Needs a process backend. *)
  sv_retries : int;  (** Extra attempts after a crash (0 = fail fast). *)
  sv_backoff : float;
      (** Base sleep before retry [k] is [backoff * 2^(k-1)] seconds. *)
  sv_poll : float;  (** Scheduler polling interval in seconds. *)
}

val default_policy : policy
(** No deadline, no retries, backoff 0.05 s, 20 ms poll. *)

val policy :
  ?deadline:float -> ?retries:int -> ?backoff:float -> ?poll:float -> unit ->
  policy
(** Validating constructor over {!default_policy}.  Raises
    [Invalid_argument] on negative [retries]/[backoff] or non-positive
    [deadline]/[poll]. *)

type 'a outcome =
  | Ok of 'a  (** The job returned a value (possibly after retries). *)
  | Crashed of { error : string; attempts : int }
      (** Raised with retries disabled; [attempts = 1].  This also
          covers a worker killed by a signal mid-job ([error] names it,
          e.g. ["worker killed by SIGSEGV"]) and rlimit trips. *)
  | Timed_out of { deadline : float; attempts : int }
      (** Attempt [attempts] exceeded the deadline; its worker was
          SIGKILLed and reaped. *)
  | Quarantined of { error : string; attempts : int }
      (** Crashed on every attempt with retries enabled; [error] is
          from the final attempt. *)

type 'a backend =
  | Processes of 'a Procpool.spec
      (** Forked worker processes.  True cancellation (SIGKILL + reap,
          zero zombies), crash containment (a dying worker fails only
          its own job), per-worker rlimits and recycling.  Results
          cross the process boundary through the spec's codec, which
          must be lossless for byte-identity to hold. *)

val default_jobs : unit -> int
(** The machine's recommended worker count
    ([Domain.recommended_domain_count ()]) — the [-j] default. *)

val outcome_class : _ outcome -> string
(** ["ok"] | ["crashed"] | ["timed-out"] | ["quarantined"]. *)

val describe : _ outcome -> string
(** One deterministic human line, e.g.
    ["timed out (deadline 30s, attempt 1)"]. *)

val casualties : 'a outcome array -> (int * string) list
(** Non-[Ok] slots as [(index, describe)] pairs in index order — the
    deterministic failure-summary feed. *)

exception Interrupted
(** Raised out of {!run} when [should_stop] returns [true].  Every
    worker process is SIGKILLed and reaped first; the caller is
    expected to flush state and exit promptly. *)

val interruptible_sleep : abort:(unit -> bool) -> float -> bool
(** [interruptible_sleep ~abort seconds] sleeps in small chunks,
    checking [abort] between chunks; returns [true] when cut short.
    This is what keeps an in-process retry backoff from delaying an
    interrupt: a SIGINT arriving mid-backoff is noticed within one
    chunk (50 ms), not after the full exponential wait.  A raising
    [abort] counts as an abort. *)

val run :
  ?policy:policy ->
  ?backend:'a backend ->
  ?jobs:int ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?on_result:(int -> 'a outcome -> unit) ->
  ?skip:(int -> 'a option) ->
  ?should_stop:(unit -> bool) ->
  int ->
  (int -> 'a) ->
  'a outcome array
(** [run ~policy ~backend ~jobs n f] evaluates [f 0 .. f (n-1)] under
    supervision and returns one outcome per index.

    With [backend] each [f i] runs in a forked worker child and only
    its encoded result returns (side effects on parent state stay in
    the child); [jobs] defaults to {!default_jobs}[ ()] and is capped
    at [n].  Even [jobs = 1] forks, so [-j 1] keeps crash containment
    and resource limits.  Without [backend] the jobs run one at a time
    in the calling process; [jobs] defaults to 1, and [jobs > 1] or a
    [policy] deadline raises [Invalid_argument] rather than being
    ignored.

    [skip i = Some v] pre-completes slot [i] with [Ok v] before any job
    runs ([f] is not called for it) — the resume hook for sweep
    checkpoints.  [on_result] fires exactly once per index as its
    outcome commits (completion order); [on_progress] fires after it
    with the running done-count.  Both run in the calling process; the
    first exception one of them raises is re-raised from [run] after
    the sweep drains, and later hook calls are suppressed.
    [should_stop] is polled between jobs, during retry backoffs and on
    every scheduler iteration; [true] raises {!Interrupted}.  Raises
    [Invalid_argument] on negative [n] or [jobs < 1]. *)

val progress_line :
  ?min_interval:float -> label:string -> unit -> done_:int -> total:int -> unit
(** A ready-made [on_progress] hook: rewrites a
    ["label: k/n jobs done"] line on stderr, rate-limited to one update
    per [min_interval] (default 0.25 s) plus a final newline-terminated
    update.  No-op when stderr is not a TTY. *)
