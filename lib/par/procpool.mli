(** Forked sweep workers.

    Each worker is a forked child process speaking a length-prefixed,
    CRC-checked binary job/result protocol over a pair of pipes
    ([Busgen_binio.Io] frames and codecs — the same bytes-on-the-wire
    discipline as the checkpoint files and the serve journal).  This
    buys three robustness properties an in-process loop cannot
    provide:

    - {b true cancellation} — an overdue job's worker is SIGKILLed and
      reaped via [waitpid], then replaced; no zombies, no abandoned
      computations;
    - {b crash containment} — a worker dying to SIGSEGV, the OOM
      killer, or any uncaught signal surfaces as that one job's failure
      (with the signal name) while the sweep drains normally;
    - {b resource limits} — per-worker [rlimit] on CPU seconds and
      address space, plus recycling after N jobs to bound memory
      growth.

    This module is the {e mechanics} layer only: spawning, framing,
    killing, reaping, recycling bookkeeping.  Scheduling — deadlines,
    retry, quarantine, result ordering — lives in {!Supervise}.

    Jobs run in the child, so they see a copy-on-write snapshot of the
    parent's state at spawn time and mutations never flow back: results
    travel only through the encoded reply. *)

(** {1 Configuration} *)

type limits = {
  li_cpu_seconds : int option;
      (** [RLIMIT_CPU] for the worker, in seconds; the kernel delivers
          SIGXCPU at the limit. *)
  li_mem_bytes : int option;
      (** [RLIMIT_AS] for the worker, in bytes; allocations beyond it
          fail (typically surfacing as [Out_of_memory]). *)
}

type config = {
  pc_limits : limits;
  pc_recycle_after : int option;
      (** Replace a worker after this many completed jobs, bounding
          memory growth in long sweeps.  [None] = never recycle. *)
}

val config :
  ?cpu_seconds:int -> ?mem_bytes:int -> ?recycle_after:int -> unit -> config
(** All values must be positive; raises [Invalid_argument] otherwise. *)

val default_config : config
(** No rlimits, recycle after 256 jobs. *)

type 'a spec = {
  sp_config : config;
  sp_encode : 'a -> string;  (** Result serializer, runs in the child. *)
  sp_decode : string -> 'a;  (** Result parser, runs in the parent. *)
}
(** Everything the supervisor needs to run a ['a]-returning sweep over
    processes: results cross the process boundary as bytes, so the
    caller supplies the codec ([Busgen_binio.Io] is the natural
    vocabulary; it must be lossless for the [-j N] ≡ [-j 1]
    byte-identity contract to hold). *)

(** {1 Workers} *)

type worker

val pid : worker -> int
val jobs_done : worker -> int
val result_fd : worker -> Unix.file_descr
(** For [Unix.select] in the supervisor's event loop. *)

exception Closed
(** The peer's pipe end is gone: EOF or EPIPE.  In the parent this
    means the worker died. *)

exception Protocol of string
(** The stream is unusable: bad frame length, CRC mismatch, malformed
    reply, or a peer stalled mid-frame.  Treat the worker as crashed. *)

(** {1 Wire framing}

    One frame is a [Busgen_binio.Io.frame]: an 8-byte LE payload
    length, the payload bytes, and an 8-byte LE CRC-32 of the payload.
    Exposed for the protocol tests. *)

val write_frame : Unix.file_descr -> string -> unit
(** Raises {!Closed} when the read end is gone (EPIPE/EBADF). *)

val read_frame : ?patience:float -> Unix.file_descr -> string
(** Read one frame, blocking.  With [patience] set, a stream that
    stalls mid-frame for that many seconds raises {!Protocol} instead
    of blocking forever.  Raises {!Closed} on EOF, {!Protocol} on a
    corrupt length or CRC. *)

val spawn : limits:limits -> run:(int -> string) -> worker list -> worker
(** [spawn ~limits ~run others] forks a worker that applies [run] to
    each job index it receives and replies with the encoded result
    (or the exception text if [run] raises).  [others] must list every
    other live worker so the child can close their inherited pipe ends
    — a sibling holding a dead worker's write end would defeat EOF
    crash detection. *)

val send_job : worker -> int -> unit
(** Hand the worker a job index.  Raises {!Closed} if it died. *)

type reply = Ok_reply of int * string | Err_reply of int * string
(** [Ok_reply (index, encoded_result)] or
    [Err_reply (index, exception_text)]. *)

val read_reply : worker -> reply
(** Read one result frame.  Call only after [select] reports
    {!result_fd} readable.  Raises {!Closed} if the worker died,
    {!Protocol} if the stream is corrupt or stalled. *)

(** {1 Termination} *)

type death = Exited of int | Signaled of string

val kill : worker -> death
(** SIGKILL then reap ([waitpid], blocking — SIGKILL cannot be
    ignored).  True cancellation for a worker running an overdue job.
    Idempotent through {!reap}'s bookkeeping. *)

val shutdown : worker -> death
(** Polite stop for an {e idle} worker: send the shutdown frame and
    reap.  Must not be used on a worker running a job (it would block
    in [waitpid]); use {!kill} there. *)

val reap : worker -> death
(** Close the parent's pipe ends and [waitpid] the child.  Safe to call
    twice (the second call reports [Exited 0] without waiting). *)

(** {1 Accounting} *)

val forked_total : unit -> int
val reaped_total : unit -> int
(** Process-lifetime counters over all pools.  After any completed or
    interrupted sweep they are equal — the tests use this plus a
    [waitpid (-1)] ECHILD probe to prove the no-zombie property. *)

val signal_name : int -> string
(** Human name ("SIGKILL", "SIGXCPU", …) of an OCaml [Sys] signal
    number, for crash reports. *)
