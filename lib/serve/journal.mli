(** Write-ahead journal of the daemon's request queue.

    One append-only file ([<dir>/journal.bsjl]) of CRC-framed records,
    written {e before} the action they describe is acknowledged:

    - [Accept (id, request_line)] — the request was admitted; until a
      matching terminal record appears, a restart must run it.
    - [Done (id, reply_line)] — the job finished; the stored reply is
      the byte-exact line that was (or would have been) sent.
    - [Quarantine (id, reason)] — the job was given up on (crash /
      deadline / unparseable journal entry); a restart must {e not}
      rerun it.

    Each record is one [Busgen_binio.Io.frame] (the procpool wire
    frame) around a lib/binio record, so torn and corrupted writes are
    detectable per record.
    Recovery semantics on open:

    - a torn tail (partial final frame — the SIGKILL case) is
      truncated away and counted in [rc_torn_bytes];
    - a mid-file record with a bad CRC is skipped and counted in
      [rc_corrupt] (and the [Accept]s it may have hidden are lost with
      it — the client never got a reply and can safely resubmit, which
      is why ids live in the journal and not only in memory);
    - a missing or foreign header sets the file aside as
      [journal.bsjl.bad] and starts fresh (graceful degradation
      beats refusing to serve).

    Durability target is process death, not power loss: records are
    pushed to the kernel with plain [write] (SIGKILL cannot revoke
    them); {!sync} adds an [fsync] and is called on graceful drain.

    Compaction ({!compact}, triggered automatically past a size cap)
    atomically rewrites the file (temp + rename, the lib/ckpt
    discipline) keeping unresolved [Accept]s and recent [Done]s in
    full; older [Done] replies are reduced to id-only markers that
    still block duplicate ids and reruns. *)

type t

type record =
  | Accept of string * string  (** id, request line *)
  | Done of string * string  (** id, reply line ("" once compacted) *)
  | Quarantine of string * string  (** id, reason *)

type recovery = {
  rc_pending : (string * string) list;
      (** accepted-but-unresolved (id, request line), admission order *)
  rc_seen : (string, unit) Hashtbl.t;  (** every id ever accepted *)
  rc_replies : (string * string) list;
      (** resolved (id, reply line) still in the journal, in order —
          what a restarted server does {e not} resend but the chaos
          diff reads back via {!read_all} *)
  rc_done : int;
  rc_quarantined : int;
  rc_corrupt : int;  (** CRC-mismatched records skipped *)
  rc_torn_bytes : int;  (** truncated partial tail, in bytes *)
  rc_records : int;  (** valid records recovered *)
}

val open_ : ?log:(string -> unit) -> dir:string -> unit -> t * recovery
(** Create [dir] if needed, recover the existing journal per the rules
    above, and open it for appending.  [log] receives one line per
    notable event (torn tail, corrupt skip, header rotation). *)

val accept : t -> id:string -> line:string -> unit
val done_ : t -> id:string -> reply:string -> unit
val quarantine : t -> id:string -> reason:string -> unit

val sync : t -> unit
(** [fsync] the journal (drain path). *)

val close : t -> unit

val path : t -> string
val size_bytes : t -> int
val records_written : t -> int
(** Appends since open (recovery not included). *)

val compact : t -> keep_done:int -> unit
(** Atomically rewrite the journal: pending [Accept]s and the last
    [keep_done] [Done]s survive in full, earlier [Done]s shrink to
    id-only markers, [Quarantine]s survive in full. *)

val read_all :
  dir:string ->
  (record list * int * int, string) result
(** Offline scan for [--dump-journal] / the chaos diff: the valid
    records plus (corrupt record count, torn tail bytes).  [Error] if
    there is no journal or the header is foreign. *)
