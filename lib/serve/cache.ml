module Lru = Busgen_cache.Lru
module G = Bussyn.Generate
module Io = Busgen_binio.Io

type snap = { sn_circuits : Lru.stats; sn_catalog : Lru.stats }

let circuits : (string, G.t) Lru.t = Lru.create ~cap:64 ()
let set_circuit_cap cap = Lru.resize circuits ~cap

let circuit arch config =
  let key = G.design_hash arch config in
  Lru.find_or_add circuits key (fun () -> G.generate arch config)

let snapshot () =
  {
    sn_circuits = Lru.stats circuits;
    sn_catalog = Busgen_modlib.Catalog.cache_stats ();
  }

let map2 f (a : Lru.stats) (b : Lru.stats) : Lru.stats =
  {
    a with
    Lru.st_hits = f a.Lru.st_hits b.Lru.st_hits;
    st_misses = f a.Lru.st_misses b.Lru.st_misses;
    st_evictions = f a.Lru.st_evictions b.Lru.st_evictions;
  }

let sub after before =
  {
    sn_circuits = map2 ( - ) after.sn_circuits before.sn_circuits;
    sn_catalog = map2 ( - ) after.sn_catalog before.sn_catalog;
  }

let add a b =
  {
    sn_circuits = map2 ( + ) a.sn_circuits b.sn_circuits;
    sn_catalog = map2 ( + ) a.sn_catalog b.sn_catalog;
  }

let zero_stats : Lru.stats =
  { Lru.st_size = 0; st_cap = 0; st_hits = 0; st_misses = 0; st_evictions = 0 }

let zero = { sn_circuits = zero_stats; sn_catalog = zero_stats }

let encode_stats w (s : Lru.stats) =
  Io.w_int w s.Lru.st_size;
  Io.w_int w s.Lru.st_cap;
  Io.w_int w s.Lru.st_hits;
  Io.w_int w s.Lru.st_misses;
  Io.w_int w s.Lru.st_evictions

let decode_stats r =
  let st_size = Io.r_int r in
  let st_cap = Io.r_int r in
  let st_hits = Io.r_int r in
  let st_misses = Io.r_int r in
  let st_evictions = Io.r_int r in
  { Lru.st_size; st_cap; st_hits; st_misses; st_evictions }

let encode w s =
  encode_stats w s.sn_circuits;
  encode_stats w s.sn_catalog

let decode r =
  let sn_circuits = decode_stats r in
  let sn_catalog = decode_stats r in
  { sn_circuits; sn_catalog }
