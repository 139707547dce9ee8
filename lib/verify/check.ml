module G = Bussyn.Generate
module A = Bussyn.Archs
module E = Busgen_rtl.Engine
module C = Busgen_rtl.Circuit
module B = Busgen_rtl.Bits
module Tb = Busgen_rtl.Testbench

(* ------------------------------------------------------------------ *)
(* Monitored run                                                       *)
(* ------------------------------------------------------------------ *)

type report = {
  vr_stats : Traffic.stats;
  vr_properties : int;
  vr_violations : Prop.violation list;
}

let verify ~engine (r : G.t) ~cycles =
  let top = r.G.generated.A.top in
  let tb = Tb.create ~engine top in
  let mon = Pack.attach (Tb.engine tb) top in
  let stats =
    Traffic.drive tb ~arch:r.G.arch ~config:r.G.config ~seed:42
      ~min_cycles:cycles
  in
  {
    vr_stats = stats;
    vr_properties = Prop.property_count mon;
    vr_violations = Prop.violations mon;
  }

let clean r = r.vr_violations = [] && r.vr_stats.Traffic.mismatches = 0

(* ------------------------------------------------------------------ *)
(* Protection taps                                                     *)
(* ------------------------------------------------------------------ *)

(* [needle] occurs in [hay] at offset [i], from its [j]th character on.
   Compares in place: no substring is built. *)
let rec occurs_at hay needle i j =
  j = String.length needle
  || (hay.[i + j] = needle.[j] && occurs_at hay needle i (j + 1))

(* [needle] occurs in [hay] at offset [i] or later. *)
let rec occurs hay needle i =
  i + String.length needle <= String.length hay
  && (occurs_at hay needle i 0 || occurs hay needle (i + 1))

let rec contains_any hay = function
  | [] -> false
  | needle :: rest -> occurs hay needle 0 || contains_any hay rest

let signals_containing sim needles =
  List.filter (fun s -> contains_any s needles) (E.signal_names sim)

let protection_taps sim =
  signals_containing sim [ "parity_error"; "bus_timeout"; "par_err"; "wd_to" ]

(* ------------------------------------------------------------------ *)
(* Fault-injection campaign                                            *)
(* ------------------------------------------------------------------ *)

type campaign = {
  cp_sim : E.t;
  cp_schedule : (string * B.t) list array;  (* input values per cycle *)
  cp_observed : string list;  (* top outputs, then protection taps *)
  cp_n_outputs : int;
  cp_golden : B.t list array;
  cp_injections : Busgen_rtl.Flat.injection list;
}

(* One run of the schedule from reset: the observed values per cycle. *)
let trace sim schedule observed =
  E.reset sim;
  Array.map
    (fun ins ->
      List.iter (fun (nm, v) -> E.set_input sim nm v) ins;
      E.step sim;
      List.map (E.peek sim) observed)
    schedule

let campaign ~engine top ~seed ~n ~cycles =
  let sim = E.create ~kind:engine top in
  let outputs = List.map (fun (p : C.port) -> p.C.port_name) (C.outputs top) in
  let lcg = ref ((seed lxor 0x5EED) land 0x3FFFFFFF) in
  let next () =
    lcg := ((!lcg * 1664525) + 1013904223) land 0x3FFFFFFF;
    !lcg
  in
  let schedule =
    Array.init cycles (fun _ ->
        List.map
          (fun (p : C.port) ->
            ( p.C.port_name,
              B.init p.C.port_width (fun _ -> next () land 1 = 1) ))
          (C.inputs top))
  in
  let observed = outputs @ protection_taps sim in
  let golden = trace sim schedule observed in
  {
    cp_sim = sim;
    cp_schedule = schedule;
    cp_observed = observed;
    cp_n_outputs = List.length outputs;
    cp_golden = golden;
    cp_injections = E.random_campaign sim ~seed ~n ~horizon:cycles;
  }

let injections cp = cp.cp_injections
let protected cp = List.length cp.cp_observed > cp.cp_n_outputs

type verdict = { corrupted : bool; flagged : bool }

let classify cp inj =
  E.clear_injections cp.cp_sim;
  E.inject cp.cp_sim [ inj ];
  let corrupted = ref false and flagged = ref false in
  Array.iteri
    (fun cy vals ->
      List.iteri
        (fun i v ->
          if not (B.equal v (List.nth cp.cp_golden.(cy) i)) then
            if i < cp.cp_n_outputs then corrupted := true else flagged := true)
        vals)
    (trace cp.cp_sim cp.cp_schedule cp.cp_observed);
  { corrupted = !corrupted; flagged = !flagged }
