(** The daemon's design-keyed circuit memo and the counters its [stats]
    reply reports.

    {b circuits} is a {!Busgen_cache.Lru} from [design_hash] to
    [Generate.t], the generated system with its metrics.  It lives in
    the supervising parent, which warms it at admission, and forked
    procpool workers inherit it copy-on-write, so a batch's workers
    start hot.  Simulation engines are not cached: each job builds its
    own.

    A {!snap} holds the circuit counters and the module library's
    ({!Busgen_modlib.Catalog.cache_stats}).  Workers send their
    counters back to the parent as {!snap} deltas piggybacked on each
    job result, so the [stats] reply aggregates the whole fleet. *)

type snap = {
  sn_circuits : Busgen_cache.Lru.stats;
  sn_catalog : Busgen_cache.Lru.stats;
}

val set_circuit_cap : int -> unit
(** Rebound the circuit memo (default 64).  Raises [Invalid_argument]
    on caps [< 1]. *)

val circuit : Bussyn.Generate.arch -> Bussyn.Archs.config -> Bussyn.Generate.t
(** Memoized {!Bussyn.Generate.generate}, keyed by
    {!Bussyn.Generate.design_hash}. *)

val snapshot : unit -> snap
(** Current counters of this process. *)

val sub : snap -> snap -> snap
(** [sub after before]: counter-wise difference (sizes/caps kept from
    [after]) — a job's delta. *)

val add : snap -> snap -> snap
(** Counter-wise sum (sizes/caps kept from the first) — fleet
    aggregation. *)

val zero : snap

val encode : Busgen_binio.Io.writer -> snap -> unit
val decode : Busgen_binio.Io.reader -> snap
