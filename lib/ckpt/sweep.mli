(** Crash-resumable sweep checkpoints.

    A sweep checkpoint is one {!Ckpt} container at [<dir>/sweep.bsck]
    holding a completed-job bitmap and the accumulated per-job result
    payloads (opaque strings), rewritten atomically at a cadence.  A
    SIGKILLed sweep resumes by {!load}ing the directory and feeding
    {!lookup}ed payloads back through
    {!Busgen_par.Supervise.run}'s [skip] hook; because payloads replay
    verbatim in job-index order, the resumed run's final report is
    byte-identical to an uninterrupted one.

    The file is keyed by provenance: tool version, a free-text sweep
    identity (seed / first-case / budget / cycles for fuzz), and the
    total job count.  A file from a {e different} sweep is a refusal
    ([Error] from {!load} — it would be overwritten), while a corrupt
    or torn file degrades gracefully to a fresh start. *)

type t

val load :
  ?log:(string -> unit) ->
  ?every:int ->
  ?wall:float ->
  dir:string ->
  ident:string ->
  total:int ->
  unit ->
  (t, string) result
(** [load ~dir ~ident ~total ()] opens (creating [dir] if needed) the
    sweep checkpoint for the sweep identified by [ident] with [total]
    jobs.  Missing file: fresh, zero jobs completed.  Unreadable or
    corrupt file: one line through [log], then fresh.  Valid file for a
    {b different} sweep (tool / ident / total mismatch): [Error] with a
    one-line reason — never silently clobbered.

    Autosave cadence: {!note} rewrites the file after [every] new
    completions (default 32) or when [wall] seconds (default 5.0) have
    passed since the last save, whichever comes first.
    @raise Sys_error if [dir] cannot be created. *)

val ident : t -> string
val total : t -> int

val completed : t -> int
(** Number of jobs already recorded (the resume head start). *)

val lookup : t -> int -> string option
(** The checkpointed payload of job [i], if completed. *)

val note : t -> int -> string -> unit
(** Record job [i] as completed with its payload; duplicate notes are
    ignored.  May autosave (see {!load}); thread-safe.
    @raise Invalid_argument if [i] is outside [\[0, total)].
    @raise Sys_error if an autosave fails. *)

val save : t -> unit
(** Force a write now (final flush on completion or interrupt).
    @raise Sys_error on I/O failure. *)

(** {1 Fuzz result payloads}

    Codec between {!Busgen_verify.Fuzz.result} lists and the opaque
    payload strings above — same [Io] discipline as the snapshot
    codecs: no [Marshal], every decode bounds-checked.  Round-trips
    exactly: a decoded list feeds {!Busgen_verify.Fuzz.report_to_json}
    byte-identically. *)

val encode_fuzz_results : Busgen_verify.Fuzz.result list -> string

val decode_fuzz_results :
  string -> (Busgen_verify.Fuzz.result list, string) result
(** [Error] on any corruption (bad tag, truncation, unparseable option
    text) — a caller should fall back to re-running the case. *)

val fuzz_backend :
  Busgen_par.Procpool.config ->
  Busgen_verify.Fuzz.result list Busgen_par.Supervise.backend
(** Forked fuzz workers with [config] that return each case's results
    through this codec. *)

(** {1 Generic string-list payloads}

    For sweeps whose per-job result is a flat list of strings (the
    explore candidate rows): same [Io] discipline, exact round-trip,
    [Error] on any corruption. *)

val encode_strings : string list -> string
val decode_strings : string -> (string list, string) result
