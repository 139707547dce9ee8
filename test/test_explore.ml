(* Design-space exploration: the Pareto kernel (dominance, ties,
   ordering and permutation invariance on hand-built points), the
   profile file format (parse errors, canonical round-trip, stable
   hash), the score codec, the fault campaign's verdicts (pinned on
   both engines, and held injection by injection against runs from
   reset), and the end-to-end determinism contract — the JSON front
   emitted by a [jobs = 4] run must be byte-identical to the
   [jobs = 1] run's. *)

module X = Busgen_explore.Explore
module Xp = Busgen_explore.Profile
module P = Busgen_explore.Pareto
module Json = Busgen_json.Json
module G = Bussyn.Generate
module A = Bussyn.Archs
module E = Busgen_rtl.Engine
module F = Busgen_rtl.Flat
module B = Busgen_rtl.Bits
module Tb = Busgen_rtl.Testbench
module Traffic = Busgen_verify.Traffic
module Prop = Busgen_verify.Prop

let pt ?(rel = (1, 1)) label cycles gates =
  {
    P.pt_label = label;
    pt_cycles = cycles;
    pt_gates = gates;
    pt_rel_num = fst rel;
    pt_rel_den = snd rel;
  }

let labels ps = List.map (fun p -> p.P.pt_label) ps

(* ------------------------------------------------------------------ *)
(* Pareto kernel                                                       *)
(* ------------------------------------------------------------------ *)

let test_dominance () =
  let a = pt "a" 100 1000 and b = pt "b" 200 2000 in
  Alcotest.(check bool) "better on both dominates" true (P.dominates a b);
  Alcotest.(check bool) "worse never dominates" false (P.dominates b a);
  let c = pt "c" 100 2000 and d = pt "d" 200 1000 in
  Alcotest.(check bool) "trade-off c vs d" false (P.dominates c d);
  Alcotest.(check bool) "trade-off d vs c" false (P.dominates d c);
  (* Equal on two axes, strictly better on one. *)
  let e = pt "e" 100 1000 ~rel:(3, 4) and f = pt "f" 100 1000 ~rel:(1, 2) in
  Alcotest.(check bool) "reliability breaks the tie" true (P.dominates e f);
  Alcotest.(check bool) "not backwards" false (P.dominates f e);
  (* Cross-multiplied rationals: 2/3 > 3/5. *)
  let g = pt "g" 1 1 ~rel:(2, 3) and h = pt "h" 1 1 ~rel:(3, 5) in
  Alcotest.(check bool) "2/3 beats 3/5" true (P.rel_compare g h > 0);
  Alcotest.(check bool) "equal ratios equal" true
    (P.rel_compare (pt "i" 1 1 ~rel:(1, 2)) (pt "j" 1 1 ~rel:(2, 4)) = 0)

let test_identical_points_never_dominate () =
  let a = pt "a" 100 1000 ~rel:(1, 2) and b = pt "b" 100 1000 ~rel:(2, 4) in
  Alcotest.(check bool) "a !> b" false (P.dominates a b);
  Alcotest.(check bool) "b !> a" false (P.dominates b a);
  (* Duplicates therefore both survive on the front. *)
  let front = P.front [ a; b; pt "z" 200 2000 ~rel:(1, 2) ] in
  Alcotest.(check (list string)) "both duplicates kept" [ "a"; "b" ]
    (labels front)

let test_front_hand_built () =
  let points =
    [
      pt "slow-small" 300 500;
      pt "fast-big" 100 3000;
      pt "mid" 200 1000;
      pt "dominated" 250 1200;     (* beaten by mid on both axes *)
      pt "strictly-worst" 400 4000;
    ]
  in
  let front = P.front points in
  Alcotest.(check (list string))
    "front, cycles ascending"
    [ "fast-big"; "mid"; "slow-small" ]
    (labels front);
  (* rank puts the dominated remainder after the front, same order
     rule. *)
  Alcotest.(check (list string))
    "ranked order"
    [ "fast-big"; "mid"; "slow-small"; "dominated"; "strictly-worst" ]
    (labels (P.rank points))

let prop_front_permutation_invariant =
  QCheck.Test.make ~name:"front invariant under input permutation" ~count:200
    QCheck.(
      pair (list_of_size Gen.(int_range 0 12) (pair small_nat small_nat))
        int)
    (fun (raw, salt) ->
      let points =
        List.mapi
          (fun i (c, g) -> pt (Printf.sprintf "p%d" i) (c mod 7) (g mod 7))
          raw
      in
      let shuffled =
        (* Deterministic pseudo-shuffle: sort by a salted hash. *)
        List.sort
          (fun a b ->
            compare
              (Hashtbl.hash (salt, a.P.pt_label))
              (Hashtbl.hash (salt, b.P.pt_label)))
          points
      in
      labels (P.front points) = labels (P.front shuffled)
      && labels (P.rank points) = labels (P.rank shuffled))

let prop_front_sound_and_complete =
  QCheck.Test.make ~name:"front = exactly the non-dominated points"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 15) (pair small_nat small_nat))
    (fun raw ->
      let points =
        List.mapi (fun i (c, g) -> pt (Printf.sprintf "p%d" i) c g) raw
      in
      let front = P.front points in
      let dominated p = List.exists (fun q -> P.dominates q p) points in
      List.for_all (fun p -> not (dominated p)) front
      && List.for_all
           (fun p -> dominated p || List.memq p front)
           points)

(* ------------------------------------------------------------------ *)
(* Profile format                                                      *)
(* ------------------------------------------------------------------ *)

let profile = Alcotest.testable (Fmt.of_to_string Xp.canonical) ( = )

let test_profile_defaults () =
  match Xp.parse "" with
  | Error e -> Alcotest.failf "empty profile rejected: %s" e
  | Ok p ->
      Alcotest.check profile "empty text = defaults" Xp.default p;
      Alcotest.(check int) "8 archs by default" 8 (Xp.n_candidates p)

let test_profile_parse () =
  let text =
    "# comment\n\
     seed = 7\n\
     transactions = 12\n\
     pes = 3\n\
     archs = ccba, bfba, ccba\n\
     widths = 32, 16\n\
     depths = 4\n\
     arbs = rr, priority\n\
     protect = both\n\
     faults = 5\n\
     fault_seed = 9\n"
  in
  match Xp.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
      Alcotest.(check int) "seed" 7 p.Xp.seed;
      Alcotest.(check int) "dedup keeps first occurrence" 2
        (List.length p.Xp.archs);
      Alcotest.(check (list int)) "width order preserved" [ 32; 16 ]
        p.Xp.widths;
      Alcotest.(check (list bool)) "both = false,true" [ false; true ]
        p.Xp.protect;
      Alcotest.(check int) "grid size" (2 * 2 * 1 * 2 * 2)
        (Xp.n_candidates p);
      (* Canonical round-trip: parse . canonical = identity. *)
      (match Xp.parse (Xp.canonical p) with
      | Ok p' ->
          Alcotest.check profile "canonical round-trip" p p';
          Alcotest.(check string) "hash stable" (Xp.hash p) (Xp.hash p')
      | Error e -> Alcotest.failf "canonical text rejected: %s" e);
      Alcotest.(check int) "hash is 16 hex digits" 16
        (String.length (Xp.hash p));
      String.iter
        (fun ch ->
          Alcotest.(check bool) "hex digit" true
            ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')))
        (Xp.hash p)

let test_profile_errors () =
  let bad what text expect =
    match Xp.parse text with
    | Ok _ -> Alcotest.failf "%s: accepted %S" what text
    | Error msg ->
        let contains needle =
          let n = String.length msg and m = String.length needle in
          let rec go i =
            i + m <= n && (String.sub msg i m = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S mentions %S" what msg expect)
          true (contains expect)
  in
  bad "unknown key" "width = 16\n" "line 1";
  bad "bad arch" "archs = martian\n" "martian";
  bad "bad width" "widths = 12\n" "width";
  bad "depth not pow2" "depths = 6\n" "depth";
  bad "pes range" "pes = 1\n" "pes";
  bad "txn range" "transactions = 0\n" "transactions";
  bad "not a number" "seed = banana\n" "seed";
  bad "missing =" "just words\n" "line 1"

(* ------------------------------------------------------------------ *)
(* Score codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_score_codec () =
  let s =
    {
      X.sc_label = "ccba/w32/d4/rr/prot";
      sc_arch = "ccba";
      sc_width = 32;
      sc_depth = 4;
      sc_arb = "rr";
      sc_protect = true;
      sc_gates = 12345;
      sc_cycles = 678;
      sc_transactions = 40;
      sc_mismatches = 0;
      sc_rel_num = 7;
      sc_rel_den = 8;
      sc_detected = 3;
    }
  in
  (match X.decode_score (X.encode_score s) with
  | Ok s' -> Alcotest.(check bool) "lossless round-trip" true (s = s')
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (match X.decode_score "garbage" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* A truncated payload must be a decode error, not a crash. *)
  let enc = X.encode_score s in
  match X.decode_score (String.sub enc 0 (String.length enc / 2)) with
  | Ok _ -> Alcotest.fail "truncated payload accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Fault campaign                                                      *)
(* ------------------------------------------------------------------ *)

(* Eight faults on every architecture, with and without protection.
   The draw holds the cases a campaign has to get right (the
   differential below checks that it still does): faults starting at
   cycle 0, faults starting inside the last transaction, faults whose
   effect latches into state and never washes out, faults that wedge
   the bus, and a fault that corrupts a read while the hardware washes
   clean (only the traffic's shadow model remembers it).  It also holds,
   unchecked, a fault whose window spans a transaction boundary at
   which the state still equals the fault-free run's, and which does
   its damage after that boundary: a campaign that rejoined there would
   miss it. *)
let campaign_profile () =
  match
    Xp.parse
      "seed = 29\n\
       transactions = 60\n\
       pes = 4\n\
       archs = bfba, gbavi, gbavii, gbaviii, hybrid, splitba, ggba, ccba\n\
       widths = 16\n\
       depths = 4\n\
       arbs = priority\n\
       protect = both\n\
       faults = 8\n\
       fault_seed = 31\n"
  with
  | Ok p -> p
  | Error e -> Alcotest.failf "campaign profile: %s" e

(* (label, injections survived, injections detected) per candidate. *)
let campaign_pins =
  [
    ("bfba/w16/d4/priority", 7, 0);
    ("bfba/w16/d4/priority/prot", 8, 0);
    ("gbavi/w16/d4/priority", 7, 0);
    ("gbavi/w16/d4/priority/prot", 7, 0);
    ("gbavii/w16/d4/priority", 8, 0);
    ("gbavii/w16/d4/priority/prot", 8, 0);
    ("gbaviii/w16/d4/priority", 8, 0);
    ("gbaviii/w16/d4/priority/prot", 8, 0);
    ("hybrid/w16/d4/priority", 8, 0);
    ("hybrid/w16/d4/priority/prot", 8, 0);
    ("splitba/w16/d4/priority", 8, 0);
    ("splitba/w16/d4/priority/prot", 8, 1);
    ("ggba/w16/d4/priority", 8, 0);
    ("ggba/w16/d4/priority/prot", 8, 0);
    ("ccba/w16/d4/priority", 6, 0);
    ("ccba/w16/d4/priority/prot", 7, 1);
  ]

let test_campaign_pins engine () =
  let p = campaign_profile () in
  let got =
    Array.to_list (X.run ~engine ~jobs:1 p).X.x_scores
    |> List.map (function
         | Some s -> (s.X.sc_label, s.X.sc_rel_num, s.X.sc_detected)
         | None -> Alcotest.fail "casualty in the campaign profile")
  in
  Alcotest.(check (list (triple string int int)))
    "(label, survived, detected)" campaign_pins got

let state_equal (a : F.state) (b : F.state) =
  a.F.st_cycle = b.F.st_cycle
  && Array.for_all2
       (fun (n, v) (m, w) -> n = m && B.equal v w)
       a.F.st_values b.F.st_values
  && Array.for_all2
       (fun (n, v) (m, w) -> n = m && Array.for_all2 B.equal v w)
       a.F.st_mems b.F.st_mems

type from_reset = {
  fr_ok : bool;  (** every transaction answered *)
  fr_mismatches : int;
  fr_detected : bool;  (** a protection tap was high on some cycle *)
  fr_boundaries : int array;  (** cycle after each transaction *)
  fr_final : F.state;
}

(* The oracle: each run restarts the design and drives the whole
   transaction stream from reset, watched by one [Prop.never] monitor
   per protection tap. *)
let from_reset (p : Xp.t) (c : X.candidate) =
  let config = X.config_of p c in
  let top = (G.generate c.X.ca_arch config).G.generated.A.top in
  let sim = E.create top in
  let taps =
    List.map
      (fun s -> Prop.never ~name:s (Prop.high s))
      (Busgen_verify.Check.protection_taps sim)
  in
  let run injs =
    let tb = Tb.restart sim top in
    if injs <> [] then E.inject sim injs;
    let mon = Prop.attach sim taps in
    let tr = Traffic.create tb ~arch:c.X.ca_arch ~config ~seed:p.Xp.seed in
    let bounds = Array.make (p.Xp.transactions + 1) 0 in
    let ok =
      try
        for k = 1 to p.Xp.transactions do
          Traffic.step tr;
          bounds.(k) <- Tb.cycles tb
        done;
        true
      with Tb.Timeout _ -> false
    in
    let st = Traffic.stats tr ~cycles:(Tb.cycles tb) in
    {
      fr_ok = ok;
      fr_mismatches = st.Traffic.mismatches;
      fr_detected = Prop.violation_count mon > 0;
      fr_boundaries = bounds;
      fr_final = E.export_state sim;
    }
  in
  (sim, run)

(* Explore.score's verdict on each injection of [p], against the same
   injection run from reset.  A campaign of k faults is the first k of
   a campaign of n (same seed and horizon), so the scores of
   consecutive campaign sizes differ by exactly one injection's
   verdict.  Returns how many injections started at cycle 0, started
   inside the last transaction, latched into state for good, wedged the
   bus, and corrupted a read but left the hardware as the fault-free
   run left it. *)
let campaign_differential (p : Xp.t) =
  let n = p.Xp.faults and last = p.Xp.transactions in
  let start0 = ref 0 and in_last = ref 0 and latched = ref 0
  and wedged = ref 0 and misread = ref 0 in
  Array.iter
    (fun c ->
      let lbl = X.label c in
      let sim, run = from_reset p c in
      let golden = run [] in
      let horizon = golden.fr_boundaries.(last) in
      let campaign = E.random_campaign sim ~seed:p.Xp.fault_seed ~n ~horizon in
      let counts k =
        if k = 0 then (0, 0)
        else
          let s = X.score { p with Xp.faults = k } c in
          Alcotest.(check int) (lbl ^ ": golden cycles") horizon s.X.sc_cycles;
          (s.X.sc_rel_num, s.X.sc_detected)
      in
      List.iteri
        (fun i (inj : F.injection) ->
          let what =
            Printf.sprintf "%s: %s at %d+%d" lbl inj.F.inj_signal
              inj.F.inj_start inj.F.inj_cycles
          in
          Alcotest.(check bool) (what ^ ": prefix of the campaign") true
            (E.random_campaign sim ~seed:p.Xp.fault_seed ~n:(i + 1) ~horizon
            = List.filteri (fun j _ -> j <= i) campaign);
          let r = run [ inj ] in
          let s0, d0 = counts i and s1, d1 = counts (i + 1) in
          Alcotest.(check bool) (what ^ ": survived")
            (r.fr_ok && r.fr_mismatches = 0) (s1 - s0 = 1);
          Alcotest.(check bool) (what ^ ": detected") r.fr_detected
            (d1 - d0 = 1);
          if inj.F.inj_start = 0 then incr start0;
          if inj.F.inj_start >= golden.fr_boundaries.(last - 1) then
            incr in_last;
          let same_state = state_equal r.fr_final golden.fr_final in
          if r.fr_ok && not same_state then incr latched;
          if r.fr_ok && same_state && r.fr_mismatches > 0 then incr misread;
          if not r.fr_ok then incr wedged)
        campaign)
    (X.candidates p);
  (!start0, !in_last, !latched, !wedged, !misread)

let test_campaign_differential () =
  let start0, in_last, latched, wedged, misread =
    campaign_differential (campaign_profile ())
  in
  Alcotest.(check bool) "a fault starts at cycle 0" true (start0 > 0);
  Alcotest.(check bool) "a fault starts inside the last transaction" true
    (in_last > 0);
  Alcotest.(check bool) "a fault never washes out" true (latched > 0);
  Alcotest.(check bool) "a fault wedges the bus" true (wedged > 0);
  Alcotest.(check bool) "a fault corrupts a read and washes out" true
    (misread > 0)

(* A profile long enough that the fault-free run keeps only every
   third transaction boundary: faulted runs resume further back and
   rejoin later, with the same verdicts. *)
let test_campaign_differential_long () =
  match
    Xp.parse
      "seed = 31
       transactions = 600
       pes = 4
       archs = gbavi, hybrid
       widths = 16
       depths = 4
       arbs = rr
       protect = both
       faults = 8
       fault_seed = 12
"
  with
  | Error e -> Alcotest.failf "long campaign profile: %s" e
  | Ok p -> ignore (campaign_differential p)

(* ------------------------------------------------------------------ *)
(* End-to-end determinism                                              *)
(* ------------------------------------------------------------------ *)

let small_profile () =
  match
    Xp.parse
      "seed = 11\n\
       transactions = 10\n\
       archs = bfba, ggba, ccba\n\
       widths = 16\n\
       depths = 4, 8\n\
       arbs = priority\n"
  with
  | Ok p -> p
  | Error e -> Alcotest.failf "small profile: %s" e

let test_grid_order () =
  let p = small_profile () in
  let cands = X.candidates p in
  Alcotest.(check int) "grid size" 6 (Array.length cands);
  Alcotest.(check (list string))
    "arch-major, then depth"
    [
      "bfba/w16/d4/priority"; "bfba/w16/d8/priority";
      "ggba/w16/d4/priority"; "ggba/w16/d8/priority";
      "ccba/w16/d4/priority"; "ccba/w16/d8/priority";
    ]
    (Array.to_list (Array.map X.label cands))

let test_jobs_byte_identity () =
  let p = small_profile () in
  let front r = Json.to_string (X.front_json r) in
  let j1 = front (X.run ~jobs:1 p) in
  let j4 = front (X.run ~jobs:4 p) in
  Alcotest.(check string) "-j 4 front == -j 1 front" j1 j4;
  Alcotest.(check string) "report text too"
    (X.report_text (X.run ~jobs:1 p))
    (X.report_text (X.run ~jobs:4 p));
  (* The scored grid survives the reliability denominators: no fault
     campaign pins rel to 1/1, never 0/0. *)
  let r = X.run ~jobs:1 p in
  List.iter
    (fun pnt ->
      Alcotest.(check bool) "den >= 1" true (pnt.P.pt_rel_den >= 1))
    (X.points r)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_front_permutation_invariant; prop_front_sound_and_complete ]

let () =
  Alcotest.run "explore"
    [
      ( "pareto",
        [
          Alcotest.test_case "dominance" `Quick test_dominance;
          Alcotest.test_case "ties and duplicates" `Quick
            test_identical_points_never_dominate;
          Alcotest.test_case "hand-built front" `Quick test_front_hand_built;
        ] );
      ( "profile",
        [
          Alcotest.test_case "defaults" `Quick test_profile_defaults;
          Alcotest.test_case "parse and canonical" `Quick test_profile_parse;
          Alcotest.test_case "error messages" `Quick test_profile_errors;
        ] );
      ( "codec",
        [ Alcotest.test_case "score round-trip" `Quick test_score_codec ] );
      ( "campaign",
        [
          Alcotest.test_case "pinned verdicts, tape" `Quick
            (test_campaign_pins E.Tape);
          Alcotest.test_case "pinned verdicts, ref" `Slow
            (test_campaign_pins E.Ref);
          Alcotest.test_case "differential against runs from reset" `Slow
            test_campaign_differential;
          Alcotest.test_case "differential over sparse boundaries" `Slow
            test_campaign_differential_long;
        ] );
      ( "run",
        [
          Alcotest.test_case "grid order" `Quick test_grid_order;
          Alcotest.test_case "jobs byte-identity" `Slow
            test_jobs_byte_identity;
        ] );
      ("properties", qcheck_cases);
    ]
