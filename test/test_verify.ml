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

let () =
  Alcotest.run "verify"
    [
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
