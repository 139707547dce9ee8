(** The serve wire protocol: newline-delimited JSON, one request per
    line, one reply per request, correlated by [id].

    Request: [{"id":"r1","kind":"generate","params":{...}}] with an
    optional ["deadline_ms"] (queue deadline: if the job has not
    {e started} within that many milliseconds of admission it is shed
    with code [expired] instead of running dead work).

    Reply (success): [{"id":"r1","ok":true,"result":{...}}].
    Reply (error):   [{"id":"r1","ok":false,"code":"...","error":"..."}]
    — [id] is absent when the request was too broken to carry one.

    The error codes are a closed set (the [code_*] values below); the
    human-readable [error] text may evolve, the codes are the API. *)

type request = {
  rq_id : string;
  rq_kind : string;
  rq_params : Busgen_json.Json.t;  (** always an [Obj] (defaults to empty) *)
  rq_deadline_ms : int option;
}

val parse_request : string -> (request, string) result
(** Validate one line: JSON object, non-empty printable [id] of at
    most 128 bytes, non-empty [kind], optional [params] object,
    optional positive [deadline_ms].  Unknown top-level fields are
    ignored (forward compatibility).  The error string is one line,
    suitable for a [bad-request] reply. *)

(** {2 Reply builders} — return the reply line {e without} the
    trailing newline. *)

val ok_reply : id:string -> Busgen_json.Json.t -> string
val err_reply : ?id:string -> code:string -> string -> string

(** {2 Error codes} *)

val code_bad_request : string  (** unparseable or invalid request *)

val code_duplicate_id : string
(** id already used by an accepted request (this run or journaled) *)

val code_overloaded : string  (** queue depth or in-flight cap hit *)

val code_expired : string  (** queue deadline passed before start *)

val code_shutting_down : string  (** draining; no new jobs admitted *)

val code_crashed : string  (** job failed/died, retries exhausted *)

val code_timed_out : string  (** job exceeded its execution deadline *)

val code_quarantined : string  (** job or journal entry quarantined *)

val code_oversized : string  (** request line exceeded the frame cap *)
