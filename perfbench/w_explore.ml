(* explore_grid: profile -> Pareto front through Explore.run at -j 1.

   Each round scores the 128-candidate grid of one pool profile (8
   architectures x widths {16, 32} x depths {4, 16} x arbs {priority,
   rr} x protect both, 4 PEs, 100 transactions, a 2-injection fault
   campaign) and checks the front bytes against the pinned digest.
   Candidate latency is the time between successive calls of
   Explore.run's [?generate] hook; the hook also runs the calibration
   kernel (Calib) when it is due, outside the timed gaps.

   The traced run scores round 0's profile again several ways: on the
   process backend at -j 2 (first: the process backend forks, and a
   process must not fork once it has spawned a domain), with and
   without the hook, candidate by candidate through Explore.score,
   stage by stage through public calls (which must agree with
   Explore.score), under a sweep checkpoint, and on domains at -j 2. *)

module G = Bussyn.Generate
module A = Bussyn.Archs
module C = Busgen_rtl.Circuit
module E = Busgen_rtl.Engine
module B = Busgen_rtl.Bits
module Tb = Busgen_rtl.Testbench
module Traffic = Busgen_verify.Traffic
module X = Busgen_explore.Explore
module Xp = Busgen_explore.Profile
module Sv = Busgen_par.Supervise
module Sweep = Busgen_ckpt.Sweep
module Json = Busgen_json.Json

let profile idx =
  match Xp.parse (Plan.explore_profile_text Plan.explore_pool.(idx)) with
  | Ok p -> p
  | Error e -> failwith ("explore profile: " ^ e)

let front_key idx = Printf.sprintf "front/%d" idx
let front_bytes report = Json.to_string (X.front_json report)

type setup = { oracle : Oracle.t; first : int * Xp.t }

let setup ~seed =
  let idx = Plan.explore_round ~seed ~round:0 in
  { oracle = Oracle.load "explore_grid"; first = (idx, profile idx) }

(* One Explore.run at -j 1; [stamps] gets the time each candidate's
   scoring was entered and the time it started, which differ by the
   calibration kernel [cal] may run first.  The wall and the candidate
   gaps leave the kernel out. *)
let timed_run ?(hook = fun f -> f ()) ?cal p =
  let stamps = ref [] and spent = ref 0. in
  let generate a c =
    let entered = Host.now () in
    (match cal with Some cal -> spent := !spent +. Calib.tick cal | None -> ());
    stamps := (entered, Host.now ()) :: !stamps;
    hook (fun () -> G.generate a c)
  in
  let report, wall = Host.time (fun () -> X.run ~jobs:1 ~generate p) in
  let t_end = Host.now () in
  let starts = List.rev !stamps in
  let rec gaps = function
    | (_, a) :: ((b, _) :: _ as rest) -> ((b -. a) *. 1000.) :: gaps rest
    | [ (_, a) ] -> [ (t_end -. a) *. 1000. ]
    | [] -> []
  in
  (report, wall -. !spent, gaps starts)

let golden_cycles report =
  Array.fold_left
    (fun acc -> function Some s -> acc + s.X.sc_cycles | None -> acc)
    0 report.X.x_scores

(* ---- stage-by-stage replay (traced run) ---------------------------- *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* The protection taps Explore watches. *)
let watch_signals sim =
  List.filter
    (fun s ->
      contains s "parity_error" || contains s "bus_timeout"
      || contains s "par_err" || contains s "wd_to")
    (E.signal_names sim)

type replayed = {
  rp_gates : int;
  rp_cycles : int;
  rp_rel : int * int;
  rp_detected : int;
  rp_faulted_cycles : int;
}

let replay tr (p : Xp.t) (c : X.candidate) =
  let config = X.config_of p c in
  let arch = c.X.ca_arch in
  let r = Trace.span tr "core.generate" (fun () -> G.generate arch config) in
  let top = r.G.generated.A.top in
  let sim = Trace.span tr "rtl.tape_compile" (fun () -> E.create top) in
  let fresh_tb injs =
    E.clear_injections sim;
    E.clear_observers sim;
    E.reset sim;
    List.iter
      (fun (pt : C.port) -> E.set_input sim pt.C.port_name (B.zero pt.C.port_width))
      (C.inputs top);
    E.settle sim;
    if injs <> [] then E.inject sim injs;
    Tb.of_engine sim
  in
  let drive tb =
    let t = Traffic.create tb ~arch ~config ~seed:p.Xp.seed in
    let ok =
      try
        for _ = 1 to p.Xp.transactions do
          Traffic.step t
        done;
        true
      with Tb.Timeout _ -> false
    in
    (ok, Traffic.stats t ~cycles:(Tb.cycles tb))
  in
  let ok, golden = Trace.span tr "verify.traffic_golden" (fun () -> drive (fresh_tb [])) in
  if not ok then failwith (X.label c ^ ": fault-free traffic timed out in replay");
  let faulted_cycles = ref 0 in
  let rel, detected =
    if p.Xp.faults = 0 then ((1, 1), 0)
    else begin
      let campaign, watch =
        Trace.span tr "rtl.fault_campaign" (fun () ->
            ( E.random_campaign sim ~seed:p.Xp.fault_seed ~n:p.Xp.faults
                ~horizon:(max 1 golden.Traffic.cycles),
              watch_signals sim ))
      in
      let survived = ref 0 and det = ref 0 in
      List.iter
        (fun inj ->
          Trace.span tr "verify.traffic_faulted" (fun () ->
              let tb = fresh_tb [ inj ] in
              let flagged = ref false in
              if watch <> [] then
                E.on_cycle sim (fun _ ->
                    if (not !flagged) && List.exists (fun s -> E.peek_int sim s <> 0) watch
                    then flagged := true);
              let ok, st = drive tb in
              faulted_cycles := !faulted_cycles + st.Traffic.cycles;
              if ok && st.Traffic.mismatches = 0 then incr survived;
              if !flagged then incr det))
        campaign;
      E.clear_observers sim;
      E.clear_injections sim;
      ((!survived, p.Xp.faults), !det)
    end
  in
  { rp_gates = r.G.gate_count; rp_cycles = golden.Traffic.cycles; rp_rel = rel;
    rp_detected = detected; rp_faulted_cycles = !faulted_cycles }

let agrees (s : X.score) rp =
  s.X.sc_gates = rp.rp_gates && s.X.sc_cycles = rp.rp_cycles
  && (s.X.sc_rel_num, s.X.sc_rel_den) = rp.rp_rel
  && s.X.sc_detected = rp.rp_detected

let proc_backend =
  Sv.Processes
    {
      Busgen_par.Procpool.sp_config = Busgen_par.Procpool.default_config;
      sp_encode = X.encode_score;
      sp_decode =
        (fun s -> match X.decode_score s with Ok v -> v | Error e -> failwith e);
    }

(* ---- the workload --------------------------------------------------- *)

let traced_layers tr oracle (idx, p) ~problems =
  let n = Xp.n_candidates p in
  let check_front what report =
    if not (Oracle.check oracle (front_key idx) (Oracle.digest (front_bytes report)))
    then problems := (what ^ ": front differs from the pinned one") :: !problems
  in
  let wall_proc2 =
    let r, w = Host.time (fun () -> X.run ~jobs:2 ~backend:proc_backend p) in
    check_front "-j 2 process backend" r;
    w
  in
  let report, wall_plain, _ = timed_run p in
  let hook_tr = Trace.create ~enabled:true in
  let _, wall_hook, _ =
    timed_run ~hook:(fun f -> Trace.span hook_tr "core.generate" f) p
  in
  let cands = X.candidates p in
  let scores, score_s =
    Host.time (fun () -> Array.map (fun c -> X.score p c) cands)
  in
  Array.iteri
    (fun i s ->
      if report.X.x_scores.(i) <> Some s then
        problems := Printf.sprintf "Explore.score %s differs from Explore.run" s.X.sc_label
                    :: !problems)
    scores;
  let golden = ref 0 and faulted = ref 0 in
  Trace.span tr "replay" (fun () ->
      Array.iteri
        (fun i c ->
          let rp = replay tr p c in
          golden := !golden + rp.rp_cycles;
          faulted := !faulted + rp.rp_faulted_cycles;
          Trace.span tr "other" (fun () ->
              if not (agrees scores.(i) rp) then
                problems :=
                  Printf.sprintf "stage replay of %s disagrees with Explore.score"
                    (X.label c)
                  :: !problems);
          Trace.span tr "explore.codec" (fun () ->
              for _ = 1 to 10 do
                match X.decode_score (X.encode_score scores.(i)) with
                | Ok s when s = scores.(i) -> ()
                | _ -> problems := "score codec does not round-trip" :: !problems
              done))
        cands;
      Trace.span tr "explore.front" (fun () ->
          ignore (Sys.opaque_identity (front_bytes report));
          ignore (Sys.opaque_identity (X.report_text report))));
  let wall_ckpt =
    let dir = Host.fresh_dir "explore-ckpt" in
    let (), w =
      Host.time (fun () ->
          match
            Sweep.load ~dir ~ident:("explore/profile=" ^ Xp.hash p) ~total:n ()
          with
          | Error e -> failwith ("sweep checkpoint: " ^ e)
          | Ok t ->
              let r =
                X.run ~jobs:1 ~on_case:(fun i s -> Sweep.note t i (X.encode_score s)) p
              in
              Sweep.save t;
              check_front "sweep checkpoint" r)
    in
    Host.rm_rf dir;
    w
  in
  let wall_dom2 =
    let r, w = Host.time (fun () -> X.run ~jobs:2 p) in
    check_front "-j 2 domains" r;
    w
  in
  let wall, rows = Trace.coverage tr ~root:"replay" in
  let stage name = (Trace.find tr name).Trace.total_s in
  let per_s cycles s = if s > 0. then float_of_int cycles /. s else 0. in
  let pct a b = (a -. b) /. b *. 100. in
  Report.
    [
      m "core.generate_ms" "ms" (Trace.mean_ms hook_tr "core.generate");
      m "rtl.tape_compile_ms" "ms" (Trace.mean_ms tr "rtl.tape_compile");
      m "rtl.tape_alloc_mb" "MB" (Trace.mean_alloc_mb tr "rtl.tape_compile");
      m "verify.traffic_golden_ms" "ms" (Trace.mean_ms tr "verify.traffic_golden");
      m "rtl.golden_cycles_per_s" "1/s" (per_s !golden (stage "verify.traffic_golden"));
      m "verify.traffic_faulted_ms" "ms"
        (stage "verify.traffic_faulted" *. 1000. /. float_of_int n);
      m "rtl.faulted_cycles_per_s" "1/s" (per_s !faulted (stage "verify.traffic_faulted"));
      m "rtl.sim_cycles" "count" (float_of_int !golden);
      m "rtl.faulted_cycles" "count" (float_of_int !faulted);
      m "explore.front_ms" "ms" (Trace.mean_ms tr "explore.front");
      m "explore.codec_us" "us" (Trace.mean_ms tr "explore.codec" *. 100.);
      m "par.inline_overhead_pct" "%" (pct wall_plain score_s);
      m "par.j2_domain_speedup" "x" (wall_plain /. wall_dom2);
      m "par.j2_proc_speedup" "x" (wall_plain /. wall_proc2);
      m "ckpt.sweep_overhead_pct" "%" (pct wall_ckpt wall_plain);
      m "trace.unattributed_pct" "%" (List.assoc "unattributed" rows /. wall *. 100.);
      m "bench.trace_overhead_pct" "%" (pct wall_hook wall_plain);
    ]
  @ List.map (fun (l, s) -> Report.m ("coverage." ^ l ^ "_s") "s" s) rows

let run ~seed ~seconds ~tr (s : setup) =
  let problems = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let walls = ref [] and lat = ref [] and cycles = ref 0 and first_cycles = ref 0 in
  let cal = Calib.create () in
  let t0 = Host.now () in
  let rec loop round (idx, p) =
    let report, wall, gaps = timed_run ~cal p in
    let n = Xp.n_candidates p in
    attempted := !attempted + n;
    let casualties = List.length report.X.x_casualties in
    failed := !failed + casualties;
    if not (Oracle.check s.oracle (front_key idx) (Oracle.digest (front_bytes report)))
    then failed := !failed + (n - casualties);
    walls := wall :: !walls;
    lat := gaps @ !lat;
    cycles := !cycles + golden_cycles report;
    if round = 0 then first_cycles := golden_cycles report;
    if (not (Trace.enabled tr)) && Host.now () -. t0 +. wall <= seconds then
      let idx = Plan.explore_round ~seed ~round:(round + 1) in
      loop (round + 1) (idx, profile idx)
  in
  loop 0 s.first;
  List.iter
    (fun (k, want, got) ->
      problems := Printf.sprintf "oracle %s: want %s got %s" k want got :: !problems)
    (Oracle.mismatches s.oracle);
  let layers =
    if Trace.enabled tr then traced_layers tr s.oracle s.first ~problems else []
  in
  (* Times at the reference host speed (Calib). *)
  let f = Calib.factor cal in
  let total_wall = Stats.sum !walls *. f in
  let cands_per_s = float_of_int !attempted /. total_wall in
  let p50 = Stats.median !lat *. f in
  let p90 = Report.tail problems "candidate_ms_p90" 0.9 !lat *. f in
  let cps = float_of_int !cycles /. total_wall in
  let rss = Host.peak_rss_mb_self () in
  {
    Report.attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    e2e =
      Report.
        [
          m "peak_rss_mb" "MB" rss;
          m "ops_per_s" "1/s" cands_per_s;
          m "op_ms_p50" "ms" p50;
          m "op_ms_p90" "ms" p90;
          m "sim_cycles_per_s" "1/s" cps;
        ];
    named =
      Report.
        [
          m "explore_candidates_per_s" "1/s" cands_per_s;
          m "candidate_ms_p50" "ms" p50;
          m "candidate_ms_p90" "ms" p90;
          m "candidate_samples" "count" (float_of_int (List.length !lat));
          m "golden_cycles_per_s" "1/s" cps;
          m "rounds" "count" (float_of_int (List.length !walls));
          m "peak_rss_mb" "MB" rss;
          m "calib_kernel_ms" "ms" (Calib.kernel_s cal *. 1000.);
        ];
    layers;
    counts = [ ("rtl.sim_cycles", !first_cycles) ];
  }

let pin () =
  Oracle.save "explore_grid"
    (List.init (Array.length Plan.explore_pool) (fun idx ->
         let report = X.run ~jobs:1 (profile idx) in
         (front_key idx, Oracle.digest (front_bytes report))))
