(* paper_repro: the paper's own evaluation, in-process.

   Part one is options -> Verilog over Table V's designs (all eight
   architectures, 1/8/16/24 PEs): four passes that time options text ->
   Verilog text per design, and the generate --lint flow over the
   designs with at most 8 PEs.  Part two is Tables II-IV on the
   transaction-level Machine.  A round runs all of it once, interleaved;
   rounds run back to back for the run's seconds, the last one cut off
   at the deadline.  A round takes most of a 30-second run, so the
   metrics are taken over per-operation means (Stats.key_means) rather
   than over every sample.
   Untraced runs call the public entry points ([*.run]); the traced run
   replays part two as [*.programs] + [Machine.run] and must reach the
   same cycles. *)

module G = Bussyn.Generate
module A = Bussyn.Archs
module O = Bussyn.Options
module OT = Bussyn.Options_text
module M = Busgen_sim.Machine
module Lint = Busgen_rtl.Lint
module Catalog = Busgen_modlib.Catalog
open Busgen_apps

type input =
  | Text of string  (** options text, for the architectures users can reach *)
  | Direct of G.arch * A.config  (** GGBA/CCBA: baselines with no options form *)

let with_variant (d : Plan.design) (o : O.t) =
  let bus (b : O.bus_prop) =
    { b with
      O.bus_data_width = d.Plan.d_width;
      bififo_depth = Option.map (fun _ -> d.Plan.d_depth) b.O.bififo_depth }
  in
  let ban (b : O.ban_prop) =
    { b with
      O.memories =
        List.map
          (fun (mp : O.memory_prop) -> { mp with O.mem_data_width = d.Plan.d_width })
          b.O.memories }
  in
  { o with
    O.subsystems =
      List.map
        (fun (ss : O.subsystem_prop) ->
          { O.buses = List.map bus ss.O.buses; bans = List.map ban ss.O.bans })
        o.O.subsystems }

let input_of (d : Plan.design) =
  match Bussyn.Preset.scaled ~arch:d.Plan.d_arch ~n_pes:d.Plan.d_pes with
  | Some o -> Text (OT.print (with_variant d o))
  | None ->
      Direct
        ( d.Plan.d_arch,
          { (A.paper_config ~n_pes:d.Plan.d_pes) with
            A.bus_data_width = d.Plan.d_width;
            fifo_depth = d.Plan.d_depth } )

let generate tr = function
  | Text s -> (
      match Trace.span tr "core.options_text" (fun () -> OT.parse s) with
      | Error e -> failwith ("options text: " ^ e)
      | Ok o -> (
          match Trace.span tr "core.generate" (fun () -> G.from_options o) with
          | Ok r -> r
          | Error e -> failwith ("generate: " ^ e)))
  | Direct (a, c) -> Trace.span tr "core.generate" (fun () -> G.generate a c)

let to_verilog tr input =
  let r = generate tr input in
  (r, Trace.span tr "rtl.verilog" (fun () -> G.verilog r))

let gen_key d = "gen/" ^ Plan.design_key d
let gen_value (r : G.t) v = Printf.sprintf "%s:%d" (Oracle.digest v) r.G.gate_count

let lint_key (d : Plan.design) =
  Printf.sprintf "lint/%s/%d" (Plan.lower_arch d.Plan.d_arch) d.Plan.d_pes

let lint_value (rep : Lint.report) =
  Printf.sprintf "%b:%d:%d" (Lint.is_clean rep) (List.length rep.Lint.errors)
    (List.length rep.Lint.warnings)

let case_key c = "case/" ^ Plan.case_id c

(* One case through the public entry point: (cycles, transactions,
   reported value, paper value). *)
let run_case = function
  | Plan.Table2 (_, a, style, paper) ->
      let r = Ofdm.run a style in
      (r.Ofdm.stats.M.cycles, r.Ofdm.stats.M.transactions, r.Ofdm.throughput_mbps, paper)
  | Plan.Table3 (_, a, paper) ->
      let r = Mpeg2.run a in
      (r.Mpeg2.stats.M.cycles, r.Mpeg2.stats.M.transactions, r.Mpeg2.throughput_mbps, paper)
  | Plan.Table4 (_, a, paper) ->
      let r = Database.run a in
      (r.Database.stats.M.cycles, r.Database.stats.M.transactions,
       r.Database.execution_time_ns, paper)

(* The configuration each [*.session] builds by default, rebuilt from
   public pieces; the consistency check proves it matches. *)
let var_home name =
  match String.index_opt name '#' with
  | None -> 0
  | Some i -> int_of_string (String.sub name (i + 1) (String.length name - i - 1))

let machine_config ?miss arch =
  let base = M.default_config arch ~n_pes:4 in
  let timing =
    match miss with
    | None -> base.M.timing
    | Some (num, den) ->
        { base.M.timing with
          Busgen_sim.Timing.miss_rate_num = num; miss_rate_den = den }
  in
  { base with M.var_home; timing }

let traced_case tr c =
  let programs, config =
    Trace.span tr "apps.programs" (fun () ->
        match c with
        | Plan.Table2 (_, a, style, _) ->
            (Ofdm.programs ~arch:a ~style ~n_pes:4 ~packets:8 (), machine_config a)
        | Plan.Table3 (_, a, _) ->
            (Mpeg2.programs ~arch:a ~n_pes:4 ~gops:8, machine_config ~miss:(1, 50) a)
        | Plan.Table4 (_, a, _) ->
            ( Database.programs ~arch:a ~n_pes:4 ~clients:40,
              machine_config ~miss:(1, 8) a ))
  in
  let st = Trace.span tr "sim.machine" (fun () -> M.run config programs) in
  (st.M.cycles, st.M.transactions)

(* Samples are kept per operation key (design variant, lint design,
   table case): see Stats.key_means. *)
type acc = {
  mutable gen_ms : (string * float) list;
  mutable flow_s : (string * float) list;
  mutable mach_cycles : int;  (** per round *)
  mutable mach_txns : int;
  mutable case_s : (string * float) list;
  mutable case_cycles : (string * float) list;
  mutable err : (string * float) list;
  mutable attempted : int;
  mutable failed : int;
}

let attempt acc f =
  acc.attempted <- acc.attempted + 1;
  match f () with
  | true -> ()
  | false -> acc.failed <- acc.failed + 1
  | exception e ->
      acc.failed <- acc.failed + 1;
      Printf.eprintf "paper_repro: %s\n%!" (Printexc.to_string e)

(* One round's operations, in a seed-drawn interleaving: each class of
   work is sampled across the whole round, not in one window of it, so
   the host's slower drifts touch every metric alike. *)
type op =
  | Gen of Plan.design * input
  | Flow of Plan.design * input  (** generate --lint *)
  | Case of Plan.case

(* Generation is quick next to the lint flow and the tables, so a round
   runs its passes [gen_repeats] times: more samples per design variant
   for the same share of the run. *)
let gen_repeats = 3

let round_ops ~seed ~round =
  let p = Plan.paper_plan ~seed ~round in
  let gens = Array.map (Array.map (fun d -> Gen (d, input_of d))) p.Plan.gen_passes in
  let ops =
    Array.concat
      (List.concat (List.init gen_repeats (fun _ -> Array.to_list gens))
      @ [ Array.map (fun d -> Flow (d, input_of d)) p.Plan.lint_flow;
          Array.map (fun c -> Case c) Plan.cases ])
  in
  Plan.shuffle (Plan.rng seed (1500 + round)) ops

let run_op tr oracle acc op =
  let check key value = Trace.span tr "other" (fun () -> Oracle.check oracle key value) in
  attempt acc (fun () ->
      match op with
      | Gen (d, input) ->
          let (r, v), dt = Host.time (fun () -> to_verilog tr input) in
          acc.gen_ms <- (gen_key d, dt *. 1000.) :: acc.gen_ms;
          check (gen_key d) (gen_value r v)
      | Flow (d, input) ->
          (* Collect before and after each design's simulated memories,
             so peak RSS is the largest single design rather than an
             accident of collector timing. *)
          Trace.span tr "other" Gc.full_major;
          let ((r, v), rep), dt =
            Host.time (fun () ->
                let r, v = to_verilog tr input in
                let top = r.G.generated.A.top in
                ((r, v), Trace.span tr "rtl.lint" (fun () -> Lint.check top)))
          in
          acc.flow_s <- (lint_key d, dt) :: acc.flow_s;
          let ok_gen = check (gen_key d) (gen_value r v) in
          let ok_lint = check (lint_key d) (lint_value rep) in
          Trace.span tr "other" Gc.full_major;
          ok_gen && ok_lint
      | Case c ->
          let cycles, txns =
            if Trace.enabled tr then begin
              let counts, dt = Host.time (fun () -> traced_case tr c) in
              acc.case_s <- (case_key c, dt) :: acc.case_s;
              counts
            end
            else begin
              let (cycles, txns, ours, paper), dt = Host.time (fun () -> run_case c) in
              acc.case_s <- (case_key c, dt) :: acc.case_s;
              acc.err <- (case_key c, Float.abs (ours -. paper) /. paper) :: acc.err;
              (cycles, txns)
            end
          in
          acc.mach_cycles <- acc.mach_cycles + cycles;
          acc.mach_txns <- acc.mach_txns + txns;
          acc.case_cycles <- (case_key c, float_of_int cycles) :: acc.case_cycles;
          (* A Machine run leaves far more garbage than one generation;
             collect it here rather than inside the next timed design. *)
          Trace.span tr "other" Gc.full_major;
          check (case_key c) (string_of_int cycles))

(* Runs [ops] up to the first one that would start after [until], with
   the calibration kernel between operations when due. *)
let run_round ?(until = infinity) tr cal oracle acc ops =
  acc.mach_cycles <- 0;
  acc.mach_txns <- 0;
  Trace.span tr "round" (fun () ->
      Array.iter
        (fun op ->
          if Host.now () < until then begin
            Trace.span tr "other" (fun () -> ignore (Calib.tick cal));
            run_op tr oracle acc op
          end)
        ops)

type setup = { oracle : Oracle.t; first : op array }

let setup ~seed = { oracle = Oracle.load "paper_repro"; first = round_ops ~seed ~round:0 }

(* Tracing cost: the round's first 31 generations timed with spans off
   and on, alternating after a warm-up. *)
let trace_overhead_pct ops =
  let pass = List.filter_map (function Gen (_, i) -> Some i | _ -> None) (Array.to_list ops) in
  let pass = List.filteri (fun i _ -> i < Array.length Plan.designs) pass in
  let off = Trace.create ~enabled:false and on = Trace.create ~enabled:true in
  let time tr =
    snd (Host.time (fun () -> List.iter (fun i -> ignore (to_verilog tr i)) pass))
  in
  ignore (time off);
  let pairs = List.init 5 (fun _ -> let u = time off in (u, time on)) in
  let u = Stats.median (List.map fst pairs) and t = Stats.median (List.map snd pairs) in
  (t -. u) /. u *. 100.

let run ~seed ~seconds ~tr (s : setup) =
  let acc =
    { gen_ms = []; flow_s = []; mach_cycles = 0; mach_txns = 0; case_s = [];
      case_cycles = []; err = []; attempted = 0; failed = 0 }
  in
  let overhead =
    if Trace.enabled tr then trace_overhead_pct s.first else 0.
  in
  let cat0 = Catalog.cache_stats () in
  let cal = Calib.create () in
  let until = Host.now () +. seconds in
  (* The first round always completes: its simulated counts are the
     ones traced and untraced runs must agree on. *)
  run_round tr cal s.oracle acc s.first;
  let round_cycles = acc.mach_cycles and round_txns = acc.mach_txns in
  let round = ref 1 in
  while Host.now () < until do
    run_round ~until tr cal s.oracle acc (round_ops ~seed ~round:!round);
    incr round
  done;
  let cat1 = Catalog.cache_stats () in
  let problems = ref [] in
  List.iter
    (fun (k, want, got) ->
      problems := Printf.sprintf "oracle %s: want %s got %s" k want got :: !problems)
    (Oracle.mismatches s.oracle);
  (* Times at the reference host speed (Calib), over per-key means: the
     first round is complete, so every key has a sample, and the cut-off
     last round adds to some keys without shifting the mix. *)
  let f = Calib.factor cal in
  let gen = Stats.key_means acc.gen_ms in
  let gen_p50 = Stats.median gen *. f in
  let gen_p90 = Report.tail problems "gen_ms_p90" 0.9 gen *. f in
  let flow = Stats.key_means acc.flow_s in
  let flow_per_s = float_of_int (List.length flow) /. (Stats.sum flow *. f) in
  let rss = Host.peak_rss_mb_self () in
  let layers =
    if not (Trace.enabled tr) then []
    else begin
      let wall, rows = Trace.coverage tr ~root:"round" in
      let unattributed = List.assoc "unattributed" rows /. wall *. 100. in
      let hits = cat1.Busgen_cache.Lru.st_hits - cat0.Busgen_cache.Lru.st_hits in
      let misses = cat1.Busgen_cache.Lru.st_misses - cat0.Busgen_cache.Lru.st_misses in
      Report.
        [
          m "core.options_text_ms" "ms" (Trace.mean_ms tr "core.options_text");
          m "core.generate_ms" "ms" (Trace.mean_ms tr "core.generate");
          m "core.generate_alloc_mb" "MB" (Trace.mean_alloc_mb tr "core.generate");
          m "modlib.catalog_hit_ratio" "ratio" (ratio hits (hits + misses));
          m "rtl.verilog_ms" "ms" (Trace.mean_ms tr "rtl.verilog");
          m "rtl.lint_ms" "ms" (Trace.mean_ms tr "rtl.lint");
          m "rtl.lint_alloc_mb" "MB" (Trace.mean_alloc_mb tr "rtl.lint");
          m "apps.programs_ms" "ms" (Trace.mean_ms tr "apps.programs");
          m "sim.machine_ms" "ms" (Trace.mean_ms tr "sim.machine");
          m "sim.machine_cycles" "count" (float_of_int round_cycles);
          m "sim.machine_txns" "count" (float_of_int round_txns);
          m "trace.unattributed_pct" "%" unattributed;
          m "bench.trace_overhead_pct" "%" overhead;
        ]
      @ List.map (fun (l, s) -> Report.m ("coverage." ^ l ^ "_s") "s" s) rows
    end
  in
  let machine_cps =
    Stats.sum (Stats.key_means acc.case_cycles) /. (Stats.sum (Stats.key_means acc.case_s) *. f)
  in
  {
    Report.attempted = acc.attempted;
    failed = acc.failed;
    problems = List.rev !problems;
    e2e =
      Report.
        [
          m "peak_rss_mb" "MB" rss;
          m "ops_per_s" "1/s" flow_per_s;
          m "op_ms_p50" "ms" gen_p50;
          m "op_ms_p90" "ms" gen_p90;
          m "sim_cycles_per_s" "1/s" machine_cps;
        ];
    named =
      Report.
        [
          m "gen_ms_p50" "ms" gen_p50;
          m "gen_ms_p90" "ms" gen_p90;
          m "gen_samples" "count" (float_of_int (List.length acc.gen_ms));
          m "gen_designs" "count" (float_of_int (List.length gen));
          m "flow_designs_per_s" "1/s" flow_per_s;
          m "flow_samples" "count" (float_of_int (List.length acc.flow_s));
          m "machine_cycles_per_s" "1/s" machine_cps;
          m "peak_rss_mb" "MB" rss;
          m "calib_kernel_ms" "ms" (Calib.kernel_s cal *. 1000.);
        ]
      (* Tables II-IV values exist only on the public path (untraced). *)
      @ (if acc.err = [] then []
         else [ Report.m "paper_err_pct" "%" (Stats.mean (Stats.key_means acc.err) *. 100.) ]);
    layers;
    counts = [ ("sim.machine_cycles", round_cycles) ];
  }

(* Pinned values for every design variant, lint verdict and case the
   plans can draw. *)
let pin () =
  let off = Trace.create ~enabled:false in
  let gen =
    List.map
      (fun d ->
        let r, v = to_verilog off (input_of d) in
        (gen_key d, gen_value r v))
      (Plan.all_variants ())
  in
  let lint =
    List.filter_map
      (fun (a, n) ->
        if n > Plan.lint_max_pes then None
        else
          let d = Plan.paper_variant (a, n) in
          let r, _ = to_verilog off (input_of d) in
          let rep = Lint.check r.G.generated.A.top in
          Gc.full_major ();
          Some (lint_key d, lint_value rep))
      (Array.to_list Plan.designs)
  in
  let cases =
    List.map
      (fun c ->
        let cycles, _, _, _ = run_case c in
        (case_key c, string_of_int cycles))
      (Array.to_list Plan.cases)
  in
  Oracle.save "paper_repro" (gen @ lint @ cases)
