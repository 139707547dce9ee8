(* Tests for the verification subsystem: the standard property pack over
   every architecture, monitor detection of injected faults, fuzzer
   determinism, shrinking, and corpus replay. *)

open Busgen_rtl
open Bussyn
open Busgen_verify
module G = Generate

let small = Archs.small_config ~n_pes:2

let builders =
  [
    ("bfba", G.Bfba, Archs.bfba);
    ("gbavi", G.Gbavi, Archs.gbavi);
    ("gbavii", G.Gbavii, Archs.gbavii);
    ("gbaviii", G.Gbaviii, Archs.gbaviii);
    ("hybrid", G.Hybrid, Archs.hybrid);
    ("splitba", G.Splitba, Archs.splitba);
    ("ggba", G.Ggba, Archs.ggba);
    ("ccba", G.Ccba, Archs.ccba);
  ]

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* The small BFBA option tree used by the shrinking tests (matches the
   seed corpus entry). *)
let bfba_options =
  let src =
    "protection on\n\
     subsystem\n\
    \  bus bfba addr 24 data 32 depth 4\n\
    \  ban cpu mpc755 mem sram 8 32\n\
    \  ban cpu mpc755 mem sram 8 32\n"
  in
  match Options_text.parse src with
  | Ok o -> o
  | Error m -> failwith ("bfba_options: " ^ m)

let fifo_empty_fault =
  {
    Flat.inj_signal = "BAN_0$BIF$fifo_a2b$empty";
    inj_fault = Flat.Stuck_at_1;
    inj_start = 50;
    inj_cycles = 2000;
  }

(* ------------------------------------------------------------------ *)
(* The pack holds fault-free on every architecture                     *)
(* ------------------------------------------------------------------ *)

let test_pack_fault_free (name, arch, build) () =
  let cfg = { small with Archs.protect = true } in
  let g = build cfg in
  let tb = Testbench.create g.Archs.top in
  let mon = Pack.attach (Testbench.engine tb) g.Archs.top in
  Alcotest.(check bool)
    (name ^ " derives properties") true
    (Prop.property_count mon > 0);
  let stats =
    Traffic.drive tb ~arch ~config:cfg ~seed:42 ~min_cycles:10_000
  in
  Alcotest.(check bool)
    (name ^ " ran 10k cycles") true (stats.Traffic.cycles >= 10_000);
  Alcotest.(check int) (name ^ " shadow mismatches") 0 stats.Traffic.mismatches;
  (match Prop.violations mon with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s: %d violation(s), first: %a" name
        (Prop.violation_count mon) Prop.pp_violation v);
  Alcotest.(check int) (name ^ " fault-free violations") 0
    (Prop.violation_count mon)

(* ------------------------------------------------------------------ *)
(* Monitors flag a fault class the protection hardware does not        *)
(* ------------------------------------------------------------------ *)

let test_monitors_flag_unflagged_fault () =
  (* A stuck-at-1 on a Bi-FIFO empty flag corrupts data without tripping
     the watchdog or parity strobes — the `inject` command labels this
     class "corrupted outputs, NOT flagged".  The property pack must
     catch it. *)
  let cfg = { small with Archs.protect = true } in
  let g = Archs.bfba cfg in
  let tb = Testbench.create g.Archs.top in
  let sim = Testbench.engine tb in
  (* Watch PR 2's protection strobes with never-properties, so their
     silence is recorded by the same monitor that catches the fault. *)
  let watch =
    List.filter
      (fun s -> contains s "parity_error" || contains s "bus_timeout")
      (Engine.signal_names sim)
  in
  Alcotest.(check bool) "protection strobes exist" true (watch <> []);
  let watch_props =
    List.map (fun s -> Prop.never ~name:("watch:" ^ s) (Prop.high s)) watch
  in
  let mon =
    Prop.attach sim (Pack.for_circuit g.Archs.top @ watch_props)
  in
  Engine.inject sim
    [
      {
        Flat.inj_signal = "BAN_0$BIF$fifo_a2b$empty";
        inj_fault = Flat.Stuck_at_1;
        inj_start = 100;
        inj_cycles = 10_000;
      };
    ];
  (* The wedged FIFO may stall or corrupt the traffic; only the
     monitors' verdict matters here. *)
  (try
     ignore
       (Traffic.drive tb ~arch:G.Bfba ~config:cfg ~seed:7 ~min_cycles:4_000)
   with Testbench.Timeout _ | Testbench.Mismatch _ -> ());
  let fired = Prop.violated_props mon in
  Alcotest.(check bool) "pack detects the stuck empty flag" true
    (List.exists (fun p -> contains p "fifo_a2b") fired);
  Alcotest.(check bool) "watchdog/parity strobes stay silent" true
    (not (List.exists (fun p -> contains p "watch:") fired))

(* ------------------------------------------------------------------ *)
(* Fuzzer: deterministic per seed                                      *)
(* ------------------------------------------------------------------ *)

let test_fuzz_deterministic () =
  let run () = Fuzz.run ~cycles:400 ~seed:11 ~budget:6 () in
  let j1 = Fuzz.report_to_json (run ()) in
  let j2 = Fuzz.report_to_json (run ()) in
  Alcotest.(check string) "same seed, same report" j1 j2;
  let j3 = Fuzz.report_to_json (Fuzz.run ~cycles:400 ~seed:12 ~budget:6 ()) in
  Alcotest.(check bool) "different seed, different cases" true (j1 <> j3)

let test_fuzz_classifies () =
  (* A small budget still exercises the sampler's valid and invalid
     shapes, and fault-free sampled designs never fail. *)
  let report = Fuzz.run ~cycles:400 ~seed:3 ~budget:8 () in
  Alcotest.(check int) "fault-free failures" 0
    (List.length report.Fuzz.f_failures);
  Alcotest.(check bool) "classified at least budget cases" true
    (List.length report.Fuzz.f_results >= 8);
  Alcotest.(check bool) "some cases ran faulted" true
    (List.exists
       (fun r -> Fuzz.faulted r.Fuzz.r_scenario)
       report.Fuzz.f_results)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let test_shrink_minimizes () =
  let sc = Fuzz.scenario ~faults:[ fifo_empty_fault ] ~cycles:3000 ~seed:9
      bfba_options
  in
  let res = Fuzz.classify sc in
  Alcotest.(check string) "synthetic failure classifies" "property-violation"
    (Fuzz.outcome_class res.Fuzz.r_outcome);
  let sh = Fuzz.shrink sc res in
  Alcotest.(check bool) "cycle horizon reduced" true
    (sh.Fuzz.sc_cycles < sc.Fuzz.sc_cycles);
  Alcotest.(check bool) "no new faults appear" true
    (List.length sh.Fuzz.sc_faults <= List.length sc.Fuzz.sc_faults);
  let res' = Fuzz.classify sh in
  Alcotest.(check string) "class preserved by shrinking" "property-violation"
    (Fuzz.outcome_class res'.Fuzz.r_outcome)

(* ------------------------------------------------------------------ *)
(* Repro files and the corpus                                          *)
(* ------------------------------------------------------------------ *)

let test_repro_roundtrip () =
  let sc =
    Fuzz.scenario ~campaign:(77, 3) ~faults:[ fifo_empty_fault ]
      ~cycles:1234 ~seed:55 bfba_options
  in
  let text = Fuzz.repro_to_string ~expect:"property-violation" sc in
  match Fuzz.repro_of_string text with
  | Error m -> Alcotest.failf "repro reparse: %s" m
  | Ok (sc', expect) ->
      Alcotest.(check string) "expect" "property-violation" expect;
      Alcotest.(check bool) "scenario survives the round trip" true
        (sc = sc')

(* Replay must degrade to a one-line [Error] on anything short of a
   valid, honorable repro file — a supervising script keys off the exit
   code, so an exception here would be a usability bug. *)
let test_replay_missing_file () =
  match Fuzz.replay "/nonexistent/dir/never.repro" with
  | Ok _ -> Alcotest.fail "replaying a missing file succeeded"
  | Error m ->
      Alcotest.(check bool) "error names the file" true
        (contains m "never.repro");
      Alcotest.(check bool) "error is one line" true
        (not (String.contains m '\n'))

let test_replay_corrupt_content () =
  let dir = Filename.temp_file "repro_corrupt" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name text =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    path
  in
  let garbage = write "garbage.repro" "\x00\xffnot a repro at all\n" in
  let truncated =
    let good =
      Fuzz.repro_to_string ~expect:"clean" (Fuzz.scenario ~seed:1 bfba_options)
    in
    write "truncated.repro" (String.sub good 0 (String.length good / 3))
  in
  List.iter
    (fun path ->
      match Fuzz.replay path with
      | Ok _ -> Alcotest.failf "%s: corrupt repro replayed" path
      | Error m ->
          Alcotest.(check bool)
            (Filename.basename path ^ " error is one line")
            true
            (not (String.contains m '\n')))
    [ garbage; truncated ]

let test_replay_unknown_signal () =
  (* Well-formed repro whose injection names a signal the generated
     design does not have: parseable, but the pipeline cannot honor it. *)
  let sc =
    Fuzz.scenario
      ~faults:
        [
          {
            Flat.inj_signal = "BAN_9$NOPE$does_not_exist";
            inj_fault = Flat.Stuck_at_1;
            inj_start = 10;
            inj_cycles = 100;
          };
        ]
      ~cycles:200 ~seed:4 bfba_options
  in
  let path = Filename.temp_file "repro_unknown" ".repro" in
  let oc = open_out path in
  output_string oc (Fuzz.repro_to_string ~expect:"clean" sc);
  close_out oc;
  (match Fuzz.replay path with
  | Ok _ -> Alcotest.fail "unknown-signal repro replayed"
  | Error m ->
      Alcotest.(check bool) "error mentions the signal" true
        (contains m "does_not_exist"));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Resumable budgets                                                   *)
(* ------------------------------------------------------------------ *)

let test_fuzz_first_case_equivalence () =
  let a = 3 and b = 4 in
  let full = Fuzz.run ~cycles:300 ~seed:21 ~budget:(a + b) () in
  let slice = Fuzz.run ~cycles:300 ~seed:21 ~first_case:a ~budget:b () in
  let tail l n =
    let rec drop l n = if n = 0 then l else drop (List.tl l) (n - 1) in
    drop l (List.length l - n)
  in
  let expect = tail full.Fuzz.f_results (List.length slice.Fuzz.f_results) in
  Alcotest.(check int) "slice classified the tail cases"
    (List.length expect)
    (List.length slice.Fuzz.f_results);
  List.iter2
    (fun (e : Fuzz.result) (g : Fuzz.result) ->
      Alcotest.(check bool) "same scenario" true
        (e.Fuzz.r_scenario = g.Fuzz.r_scenario);
      Alcotest.(check string) "same class"
        (Fuzz.outcome_class e.Fuzz.r_outcome)
        (Fuzz.outcome_class g.Fuzz.r_outcome))
    expect slice.Fuzz.f_results

let corpus_dir =
  (* `dune runtest` runs in _build/default/test with the corpus dep
     materialized one level up; `dune exec` runs from the project root. *)
  List.find_opt
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    [ Filename.concat Filename.parent_dir_name "corpus"; "corpus" ]
  |> Option.value ~default:"corpus"

let test_corpus_replay () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus has repro files" true (files <> []);
  List.iter
    (fun f ->
      match Fuzz.replay (Filename.concat corpus_dir f) with
      | Error m -> Alcotest.failf "%s: %s" f m
      | Ok (res, expect) ->
          Alcotest.(check string) (f ^ " replays to its expect class")
            expect
            (Fuzz.outcome_class res.Fuzz.r_outcome))
    files

(* ------------------------------------------------------------------ *)
(* Testbench.restart leaves an engine as Testbench.create builds one   *)
(* ------------------------------------------------------------------ *)

let same_state (a : Flat.state) (b : Flat.state) =
  a.Flat.st_cycle = b.Flat.st_cycle
  && Array.for_all2
       (fun (n, v) (n', v') -> n = n' && Bits.equal v v')
       a.Flat.st_values b.Flat.st_values
  && Array.for_all2
       (fun (n, ws) (n', ws') -> n = n' && Array.for_all2 Bits.equal ws ws')
       a.Flat.st_mems b.Flat.st_mems

(* A dirty first run (faults installed, an observer counting cycles),
   then [restart] and a clean run: the clean run must match the same
   traffic on a fresh [create] exactly, and the old observer must stay
   silent. *)
let test_restart_matches_create (name, arch, build) () =
  let config = { small with Archs.protect = true } in
  let top = (build config).Archs.top in
  let session tb =
    let tr = Traffic.create tb ~arch ~config ~seed:9 in
    for _ = 1 to 40 do
      Traffic.step tr
    done;
    ( Traffic.stats tr ~cycles:(Testbench.cycles tb),
      Traffic.export_state tr,
      Engine.export_state (Testbench.engine tb) )
  in
  List.iter
    (fun kind ->
      let what = name ^ "/" ^ Engine.kind_to_string kind in
      let tb = Testbench.create ~engine:kind top in
      let sim = Testbench.engine tb in
      let fired = ref 0 in
      Engine.on_cycle sim (fun _ -> incr fired);
      Engine.inject sim (Engine.random_campaign sim ~seed:5 ~n:12 ~horizon:200);
      (try ignore (session tb)
       with Testbench.Timeout _ | Testbench.Mismatch _ -> ());
      Alcotest.(check bool) (what ^ ": observer ran") true (!fired > 0);
      let fired_before = !fired in
      let stats, traffic, state = session (Testbench.restart sim top) in
      Alcotest.(check int) (what ^ ": old observer silent") fired_before !fired;
      let stats', traffic', state' =
        session (Testbench.create ~engine:kind top)
      in
      Alcotest.(check bool) (what ^ ": traffic stats") true (stats = stats');
      Alcotest.(check bool) (what ^ ": traffic state") true
        (traffic = traffic');
      Alcotest.(check bool) (what ^ ": engine state") true
        (same_state state state'))
    Engine.all_kinds

(* ------------------------------------------------------------------ *)
(* Prop monitors: verdicts, violation text and state                   *)
(* ------------------------------------------------------------------ *)

(* Inputs [a] and [b] share width [w]; [c] has its own width.  A top
   input's flat name is its port name, so monitors watch them directly. *)
let passthrough w wc =
  let open Circuit.Builder in
  let b = create "passthrough" in
  let a = input b "a" w in
  ignore (input b "b" w);
  ignore (input b "c" wc);
  output b "y" w;
  assign b "y" a;
  finish b

type sample = { va : Bits.t; vb : Bits.t; vc : Bits.t; k : int }

(* Whether [pred] held on the one cycle sampled with the given inputs. *)
let held kind pred s =
  let sim =
    Engine.create ~kind (passthrough (Bits.width s.va) (Bits.width s.vc))
  in
  Engine.reset sim;
  Engine.set_input sim "a" s.va;
  Engine.set_input sim "b" s.vb;
  Engine.set_input sim "c" s.vc;
  let m = Prop.attach sim [ Prop.always ~name:"p" pred ] in
  Engine.step sim;
  Prop.violation_count m = 0

let gen_value w =
  QCheck.Gen.(
    oneof
      [
        return (Bits.zero w);
        return (Bits.ones w);
        map (fun i -> Bits.of_int ~width:w (1 lsl (i mod w))) nat;
        map (fun k -> Bits.of_int ~width:w k) small_nat;
        (fun st -> Bits.init w (fun _ -> Random.State.bool st));
      ])

(* Constants near the value, beyond the width (they truncate as
   [Bits.of_int ~width] does), negative, and Pack's [max_int] default. *)
let gen_const va =
  let x = Bits.to_int_trunc va and w = Bits.width va in
  QCheck.Gen.(
    oneof
      [
        return max_int; return min_int; return (-1); int; small_signed_int;
        return x; return (x + 1); return (x - 1); return (x lor (1 lsl w));
      ])

let arb_sample =
  let gen =
    QCheck.Gen.(
      int_range 1 62 >>= fun w ->
      int_range 1 62 >>= fun wc ->
      gen_value w >>= fun va ->
      gen_value w >>= fun vb ->
      gen_value wc >>= fun vc ->
      gen_const va >|= fun k -> { va; vb; vc; k })
  in
  let print s =
    Printf.sprintf "a=%s b=%s c=%s k=%d"
      (Bits.to_verilog_literal s.va)
      (Bits.to_verilog_literal s.vb)
      (Bits.to_verilog_literal s.vc)
      s.k
  in
  QCheck.make ~print gen

let nz = Bits.reduce_or
let konst v k = Bits.of_int ~width:(Bits.width v) k

let popcount v =
  List.length (List.filter (Bits.bit v) (List.init (Bits.width v) Fun.id))

(* Each combinator with its Bits oracle; the connectives combine leaves
   over different signals. *)
let combinators =
  [
    ("high", (fun _ -> Prop.high "a"), fun s -> nz s.va);
    ("low", (fun _ -> Prop.low "a"), fun s -> not (nz s.va));
    ( "eq_int",
      (fun s -> Prop.eq_int "a" s.k),
      fun s -> Bits.equal s.va (konst s.va s.k) );
    ( "le_int",
      (fun s -> Prop.le_int "a" s.k),
      fun s -> Bits.ule s.va (konst s.va s.k) );
    ("le_sig", (fun _ -> Prop.le_sig "a" "b"), fun s -> Bits.ule s.va s.vb);
    ( "onehot_or_zero",
      (fun _ -> Prop.onehot_or_zero "a"),
      fun s -> popcount s.va <= 1 );
    ( "subset_of",
      (fun _ -> Prop.subset_of "a" "b"),
      fun s -> Bits.is_zero (Bits.logand s.va (Bits.lognot s.vb)) );
    ( "at_most_one_of",
      (fun _ -> Prop.at_most_one_of [ "a"; "b"; "c" ]),
      fun s -> List.length (List.filter nz [ s.va; s.vb; s.vc ]) <= 1 );
    ( "conj",
      (fun s -> Prop.conj (Prop.high "c") (Prop.le_int "a" s.k)),
      fun s -> nz s.vc && Bits.ule s.va (konst s.va s.k) );
    ( "disj",
      (fun s -> Prop.disj (Prop.low "c") (Prop.eq_int "a" s.k)),
      fun s -> (not (nz s.vc)) || Bits.equal s.va (konst s.va s.k) );
    ( "neg",
      (fun _ -> Prop.neg (Prop.onehot_or_zero "c")),
      fun s -> popcount s.vc > 1 );
    ( "iff",
      (fun _ -> Prop.iff (Prop.high "c") (Prop.subset_of "a" "b")),
      fun s ->
        nz s.vc = Bits.is_zero (Bits.logand s.va (Bits.lognot s.vb)) );
  ]

let prop_verdicts =
  List.map
    (fun (name, pred, oracle) ->
      QCheck.Test.make ~count:150
        ~name:("monitor verdict matches Bits: " ^ name)
        arb_sample
        (fun s ->
          List.for_all
            (fun kind -> held kind (pred s) s = oracle s)
            Engine.all_kinds))
    combinators

let test_constants_truncate () =
  let s v =
    { va = Bits.of_int ~width:4 v; vb = Bits.zero 4; vc = Bits.zero 1; k = 0 }
  in
  List.iter
    (fun (what, pred, v, expect) ->
      List.iter
        (fun kind ->
          Alcotest.(check bool)
            (what ^ "/" ^ Engine.kind_to_string kind)
            expect (held kind pred (s v)))
        Engine.all_kinds)
    [
      ("le_int max_int holds at all-ones", Prop.le_int "a" max_int, 15, true);
      ("eq_int max_int is all-ones", Prop.eq_int "a" max_int, 15, true);
      ("eq_int max_int rejects 14", Prop.eq_int "a" max_int, 14, false);
      ("eq_int 20 truncates to 4", Prop.eq_int "a" 20, 4, true);
      ("eq_int -1 is all-ones", Prop.eq_int "a" (-1), 15, true);
      ("le_int 17 truncates to 1", Prop.le_int "a" 17, 2, false);
    ]

(* Drive 1-bit inputs [a] (trigger) and [b] (goal) from per-cycle
   strings, one character per cycle ('1' = high). *)
let drive_ab sim ts gs =
  String.iteri
    (fun i t ->
      Engine.set_input sim "a" (Bits.of_bool (t = '1'));
      Engine.set_input sim "b" (Bits.of_bool (gs.[i] = '1'));
      Engine.step sim)
    ts

let within ~cycles =
  Prop.implies_within ~name:"w" ~cycles (Prop.high "a") (Prop.high "b")

let run_within ~kind ~cycles ts gs =
  let sim = Engine.create ~kind (passthrough 1 1) in
  Engine.reset sim;
  let m = Prop.attach sim [ within ~cycles ] in
  drive_ab sim ts gs;
  m

let render v = Format.asprintf "%a" Prop.pp_violation v

let test_implies_within () =
  List.iter
    (fun kind ->
      let what s = Engine.kind_to_string kind ^ ": " ^ s in
      let count ~cycles ts gs =
        Prop.violation_count (run_within ~kind ~cycles ts gs)
      in
      Alcotest.(check int) (what "goal in time discharges") 0
        (count ~cycles:2 "1000000" "0010000");
      Alcotest.(check int) (what "goal on the trigger's cycle discharges") 0
        (count ~cycles:0 "1000" "1000");
      Alcotest.(check int) (what "no report before the deadline passes") 0
        (count ~cycles:2 "100" "000");
      let m = run_within ~kind ~cycles:2 "1000" "0000" in
      Alcotest.(check (list string))
        (what "miss reported one cycle past the bound")
        [ "cycle 3: w: a at cycle 0 was not followed by b within 2 cycle(s)" ]
        (List.map render (Prop.violations m));
      let m = run_within ~kind ~cycles:0 "10" "00" in
      Alcotest.(check (list string))
        (what "zero bound misses on the next cycle")
        [ "cycle 1: w: a at cycle 0 was not followed by b within 0 cycle(s)" ]
        (List.map render (Prop.violations m));
      (* A held trigger re-arms on the cycle of each miss: misses at
         3, 6 and 9, and only the first is stored. *)
      let m = run_within ~kind ~cycles:2 "1111111111" "0000000000" in
      Alcotest.(check int) (what "re-arming counts every miss") 3
        (Prop.violation_count m);
      Alcotest.(check (list string)) (what "first miss stored")
        [ "cycle 3: w: a at cycle 0 was not followed by b within 2 cycle(s)" ]
        (List.map render (Prop.violations m));
      (* A second trigger while one is pending keeps the earlier
         deadline. *)
      let m = run_within ~kind ~cycles:2 "1010000" "0000000" in
      Alcotest.(check (list string)) (what "earliest trigger kept")
        [ "cycle 3: w: a at cycle 0 was not followed by b within 2 cycle(s)" ]
        (List.map render (Prop.violations m));
      Alcotest.(check int) (what "one miss") 1 (Prop.violation_count m);
      Prop.reset m;
      Alcotest.(check int) (what "reset forgets") 0 (Prop.violation_count m))
    Engine.all_kinds

(* Every combinator's description, through a [never] that fires. *)
let test_violation_text () =
  let sim = Engine.create (passthrough 4 1) in
  Engine.reset sim;
  Engine.set_input sim "a" (Bits.of_int ~width:4 1);
  Engine.set_input sim "b" (Bits.of_int ~width:4 3);
  let open Prop in
  let cases =
    [
      (high "a", "a");
      (low "c", "!c");
      (eq_int "a" 1, "a == 1");
      (le_int "a" 5, "a <= 5");
      (le_sig "a" "b", "a <= b");
      (onehot_or_zero "a", "onehot0(a)");
      (subset_of "a" "b", "a within b");
      (at_most_one_of [ "a"; "c" ], "at-most-one(a,c)");
      (conj (high "a") (low "c"), "(a && !c)");
      (disj (high "c") (high "a"), "(c || a)");
      (neg (high "c"), "!(c)");
      (iff (high "a") (neg (low "b")), "(a <-> !(!b))");
    ]
  in
  let props =
    List.mapi (fun i (p, _) -> never ~name:(Printf.sprintf "n%d" i) p) cases
    @ [ always ~name:"inv" (eq_int "a" 2) ]
  in
  let m = attach sim props in
  Engine.step sim;
  let expect =
    List.mapi
      (fun i (_, d) ->
        Printf.sprintf "cycle 0: n%d: forbidden condition %s holds" i d)
      cases
    @ [ "cycle 0: inv: invariant a == 2 does not hold" ]
  in
  Alcotest.(check (list string)) "violation text, in property order" expect
    (List.map render (violations m));
  Alcotest.(check (list string)) "violated props in order"
    (List.map (fun (p : t) -> p.p_name) props)
    (violated_props m);
  Alcotest.(check int) "property count" (List.length props) (property_count m)

(* A checkpoint taken while an obligation is pending resumes, on either
   engine, to the bytes of an uninterrupted run. *)
let test_state_mid_obligation () =
  let props =
    [ within ~cycles:3; Prop.always ~name:"x" (Prop.low "c") ]
  in
  let ts = "1000000" and gs = "0000000" in
  let fresh kind =
    let sim = Engine.create ~kind (passthrough 1 1) in
    Engine.reset sim;
    (sim, Prop.attach sim props)
  in
  let sim, whole = fresh Engine.Tape in
  drive_ab sim ts gs;
  List.iter
    (fun kind ->
      let sim, m = fresh Engine.Tape in
      drive_ab sim (String.sub ts 0 2) (String.sub gs 0 2);
      let st = Prop.export_state m in
      Alcotest.(check (array int)) "pending trigger at cycle 0" [| 0; -1 |]
        st.Prop.ms_pending;
      let sim', m' = fresh kind in
      Engine.import_state sim' (Engine.export_state sim);
      Prop.import_state m' st;
      drive_ab sim' (String.sub ts 2 5) (String.sub gs 2 5);
      Alcotest.(check bool)
        ("resumed on " ^ Engine.kind_to_string kind ^ " = uninterrupted")
        true
        (Prop.export_state m' = Prop.export_state whole))
    Engine.all_kinds;
  Alcotest.(check (list string)) "the resumed miss"
    [ "cycle 4: w: a at cycle 0 was not followed by b within 3 cycle(s)" ]
    (List.map render (Prop.violations whole));
  let _, other = fresh Engine.Tape in
  Alcotest.check_raises "checker count must match"
    (Invalid_argument
       "Prop.import_state: snapshot has 1 checkers, monitor has 2")
    (fun () ->
      Prop.import_state other
        { (Prop.export_state other) with Prop.ms_pending = [| -1 |] })

(* Attach rejects what the evaluator cannot read, naming the property
   and the signal. *)
let test_attach_rejects () =
  let rejects ?(w = 63) what props needles =
    match Prop.attach (Engine.create (passthrough w 4)) props with
    | _ -> Alcotest.failf "%s: attached" what
    | exception Invalid_argument msg ->
        List.iter
          (fun n ->
            if not (contains msg n) then
              Alcotest.failf "%s: %S does not name %S" what msg n)
          needles
  in
  rejects "unknown signal"
    [ Prop.always ~name:"ghost" (Prop.high "nope") ]
    [ "ghost"; "nope" ];
  rejects "wider than 62 bits"
    [ Prop.never ~name:"wide" (Prop.conj (Prop.high "c") (Prop.high "a")) ]
    [ "wide"; "a" ];
  rejects ~w:8 "le_sig over unequal widths"
    [ Prop.always ~name:"cmp" (Prop.le_sig "c" "a") ]
    [ "cmp"; "c"; "a" ]

let () =
  Alcotest.run "verify"
    [
      ( "prop monitor",
        List.map QCheck_alcotest.to_alcotest prop_verdicts
        @ [
            Alcotest.test_case "constants truncate to the signal width"
              `Quick test_constants_truncate;
            Alcotest.test_case "implies_within discharge, miss, re-arm"
              `Quick test_implies_within;
            Alcotest.test_case "violation text per shape and combinator"
              `Quick test_violation_text;
            Alcotest.test_case "state round-trips mid-obligation" `Quick
              test_state_mid_obligation;
            Alcotest.test_case "attach rejects unreadable signals" `Quick
              test_attach_rejects;
          ] );
      ( "property pack fault-free (10k cycles each)",
        List.map
          (fun ((name, _, _) as b) ->
            Alcotest.test_case name `Slow (test_pack_fault_free b))
          builders );
      ( "testbench restart matches create",
        List.map
          (fun ((name, _, _) as b) ->
            Alcotest.test_case name `Quick (test_restart_matches_create b))
          builders );
      ( "fault detection",
        [
          Alcotest.test_case "monitors flag an unflagged fault class" `Quick
            test_monitors_flag_unflagged_fault;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "deterministic per seed" `Slow
            test_fuzz_deterministic;
          Alcotest.test_case "classification pipeline" `Slow
            test_fuzz_classifies;
          Alcotest.test_case "first-case budgets compose" `Slow
            test_fuzz_first_case_equivalence;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "minimizes a synthetic failure" `Slow
            test_shrink_minimizes;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "repro text roundtrip" `Quick
            test_repro_roundtrip;
          Alcotest.test_case "replay checked-in repros" `Quick
            test_corpus_replay;
          Alcotest.test_case "replay of a missing file errors cleanly" `Quick
            test_replay_missing_file;
          Alcotest.test_case "replay of corrupt content errors cleanly" `Quick
            test_replay_corrupt_content;
          Alcotest.test_case "replay with an unknown signal errors cleanly"
            `Quick test_replay_unknown_signal;
        ] );
    ]
