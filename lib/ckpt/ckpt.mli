(** Crash-safe checkpoint files for long co-simulations.

    A checkpoint is a versioned binary container — magic ["BSCK"],
    format version, named sections, CRC-32 trailer over everything
    before it — written atomically (temp file in the same directory,
    then [rename]), so a run killed mid-write can never leave a
    half-written file under a checkpoint name.  Loading validates the
    magic, version and CRC before decoding anything; every failure is a
    clean [Error] naming the file and the reason.

    On top of the container sits one typed snapshot, {!snapshot}: full
    RTL co-simulation state — engine signal and memory values
    ({!Busgen_rtl.Flat.state}), installed fault injections, the traffic
    driver's RNG and shadow model ({!Busgen_verify.Traffic.state}),
    property-monitor obligations ({!Busgen_verify.Prop.monitor_state})
    — plus the provenance needed to refuse a mismatched resume: tool
    version and {!Bussyn.Generate.design_hash} over the architecture
    and config (both of which are stored too, so a resume can
    re-generate the exact circuit). *)

(** {1 Container} *)

val format_version : int

val write_file : ?log:(string -> unit) -> string -> (string * string) list -> unit
(** [write_file path sections] encodes and atomically replaces [path].
    [log] (default: drop) receives a one-line report if cleaning up the
    temp file after a failed write itself fails — the original failure
    is still raised.
    @raise Sys_error on I/O failure. *)

val read_file : string -> ((string * string) list, string) result
(** Validate magic, version and CRC, then return the sections.  Never
    raises on file content; the [Error] is one line. *)

(** {1 Bit-vector codecs} *)

val w_bits : Busgen_binio.Io.writer -> Busgen_rtl.Bits.t -> unit
(** Width plus hex digits; round-trips exactly. *)

val r_bits : Busgen_binio.Io.reader -> Busgen_rtl.Bits.t
(** Inverse of {!w_bits}.  Raises [Busgen_binio.Io.Corrupt] on a
    malformed width or digit string. *)

(** {1 Record codecs}, shared with {!Sweep}'s fuzz-result payloads *)

val w_pair : Busgen_binio.Io.writer -> int * int -> unit
val r_pair : Busgen_binio.Io.reader -> int * int
val w_injection : Busgen_binio.Io.writer -> Busgen_rtl.Flat.injection -> unit
val r_injection : Busgen_binio.Io.reader -> Busgen_rtl.Flat.injection
val w_violation : Busgen_binio.Io.writer -> Busgen_verify.Prop.violation -> unit
val r_violation : Busgen_binio.Io.reader -> Busgen_verify.Prop.violation

(** {1 RTL co-simulation snapshots} *)

type snapshot = {
  ck_tool : string;           (** {!Bussyn.Generate.tool_version} of the writer *)
  ck_hash : string;           (** {!Bussyn.Generate.design_hash} of the design *)
  ck_arch : Bussyn.Generate.arch;
  ck_config : Bussyn.Archs.config;
  ck_seed : int;              (** traffic seed of the run *)
  ck_interp : Busgen_rtl.Flat.state;
  ck_injections : Busgen_rtl.Flat.injection list;
  ck_traffic : Busgen_verify.Traffic.state option;
  ck_monitor : Busgen_verify.Prop.monitor_state option;
}

val save : ?log:(string -> unit) -> path:string -> snapshot -> unit
(** Atomic write (see above); [log] as in {!write_file}. *)

val load : path:string -> (snapshot, string) result

val check_provenance :
  snapshot -> arch:Bussyn.Generate.arch -> config:Bussyn.Archs.config ->
  seed:int -> (unit, string) result
(** Refuse a resume against a different world: the snapshot's tool
    version, design hash and traffic seed must all match what the
    resuming run would use.  The [Error] says which differs and how. *)

(** {1 Checkpoint directories}

    Checkpoints live in a directory as [ckpt-<cycle>.bsck], one file
    per checkpointed cycle, newest-first recovery with graceful
    degradation: a corrupt newest file (torn disk, bad block) is
    skipped and the previous good one is used. *)

val path_for : dir:string -> cycle:int -> string

val list_files : dir:string -> (int * string) list
(** Checkpoint files present, newest (highest cycle) first.  A missing
    directory is an empty list. *)

val latest_valid :
  dir:string -> load:(path:string -> ('a, string) result) ->
  ('a * int * string) option * (string * string) list
(** Try [load] on each file, newest first; return the first success (with
    its cycle and path) and every [(path, reason)] skipped on the way.
    [(None, skipped)] when nothing loads. *)

val prune : ?log:(string -> unit) -> dir:string -> keep:int -> unit -> unit
(** Delete all but the newest [keep] checkpoint files.  Removal is
    best-effort — resume correctness rests on {!latest_valid}, not on a
    clean directory — but a file that cannot be removed is reported as
    a one-line [prune: skipping <path>: <reason>] through [log]
    (default: drop) instead of being silently left behind, so a
    supervised soak can tell a half-pruned directory from corruption. *)
