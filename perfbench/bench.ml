(* The repository's benchmark: three seeded workloads, end-to-end
   metrics from untraced runs, per-layer metrics from a traced run.

     python3 perfbench/run.py --workload paper_repro --seed 1 --seconds 30 --trace 0

   builds this program and the CLI, then runs

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--rev R]

   from the repository root.  The last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics"}, with the
   end-to-end metrics when --trace is 0 and the per-layer metrics when
   it is 1.  End-to-end times and rates are scaled to a reference host
   speed by a calibration kernel run between operations (calib.ml);
   the per-layer metrics are not.  Lines before the result, starting
   with '#', give the host (cores, revision, OCaml version), the same
   numbers under each workload's own names with sample counts and the
   run's kernel time, the simulated counts that must not change with
   tracing, and in traced runs the layer coverage.

   Other modes: --pin rewrites the pinned oracles in perfbench/oracle/
   from the current code; --self-test runs the benchmark's own checks;
   --setup-probe (internal) performs one workload's set-up and exits,
   which is what setup_s times for the in-process workloads. *)

module Json = Busgen_json.Json

let workloads = [ "paper_repro"; "explore_grid"; "serve_mixed" ]

(* Must list the same names and units as BENCHMARK.json. *)
let e2e_metrics =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("ops_per_s", "1/s");
    ("op_ms_p50", "ms"); ("op_ms_p90", "ms"); ("sim_cycles_per_s", "1/s") ]

(* Every layer metric of every workload.  A traced run reports the ones
   its workload reaches and 0 for layers it never calls. *)
let layer_metrics =
  [ ("core.options_text_ms", "ms"); ("core.generate_ms", "ms");
    ("core.generate_alloc_mb", "MB"); ("modlib.catalog_hit_ratio", "ratio");
    ("rtl.verilog_ms", "ms"); ("rtl.lint_ms", "ms"); ("rtl.lint_alloc_mb", "MB");
    ("apps.programs_ms", "ms"); ("sim.machine_ms", "ms");
    ("sim.machine_cycles", "count"); ("sim.machine_txns", "count");
    ("rtl.tape_compile_ms", "ms"); ("rtl.tape_alloc_mb", "MB");
    ("verify.traffic_golden_ms", "ms"); ("rtl.golden_cycles_per_s", "1/s");
    ("verify.traffic_faulted_ms", "ms"); ("rtl.faulted_cycles_per_s", "1/s");
    ("rtl.sim_cycles", "count"); ("rtl.faulted_cycles", "count");
    ("explore.front_ms", "ms"); ("explore.codec_us", "us");
    ("par.inline_overhead_pct", "%"); ("par.j2_domain_speedup", "x");
    ("par.j2_proc_speedup", "x"); ("ckpt.sweep_overhead_pct", "%");
    ("serve.health_ms_p50", "ms"); ("serve.noop_ms_p50", "ms");
    ("serve.generate_ms_p50", "ms"); ("serve.simulate_ms_p50", "ms");
    ("serve.verify_ms_p50", "ms"); ("serve.inject_ms_p50", "ms");
    ("serve.explore_ms_p50", "ms"); ("serve.circuit_hit_ratio", "ratio");
    ("serve.tape_hit_ratio", "ratio"); ("serve.catalog_hit_ratio", "ratio");
    ("serve.journal_bytes_per_req", "B"); ("serve.failed", "count");
    ("serve.rejected", "count"); ("trace.unattributed_pct", "%");
    ("bench.trace_overhead_pct", "%") ]

(* Layer coverage: the share of traced wall time no span explains. *)
let max_unattributed_pct = 5.0

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable rev : string;
  mutable mode : [ `Run | `Pin | `Self_test | `Setup_probe ];
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload (paper_repro|explore_grid|serve_mixed) --seed N \
     --seconds S --trace 0|1 [--rev R] | --pin | --self-test";
  exit 2

let parse_args () =
  let a =
    { workload = ""; seed = 0; seconds = 10.; trace = false; rev = "unknown"; mode = `Run }
  in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a.workload <- w; go rest
    | "--seed" :: s :: rest -> a.seed <- int_arg s; go rest
    | "--seconds" :: s :: rest -> a.seconds <- float_of_int (int_arg s); go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> a.trace <- t = "1"; go rest
    | "--rev" :: r :: rest -> a.rev <- r; go rest
    | "--pin" :: rest -> a.mode <- `Pin; go rest
    | "--self-test" :: rest -> a.mode <- `Self_test; go rest
    | "--setup-probe" :: rest -> a.mode <- `Setup_probe; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if a.mode <> `Pin && a.mode <> `Self_test && not (List.mem a.workload workloads)
  then usage ();
  a

(* setup_s for the in-process workloads: a fresh process that performs
   the set-up (runtime start, oracle load, input generation) and exits,
   timed from spawn to exit, median of [Stats.setup_probes], scaled to
   the reference host (Calib) by kernel runs between the probes. *)
let probe_setup a =
  let cal = Calib.create () in
  let times =
    List.init Stats.setup_probes (fun _ ->
        Calib.burst cal Calib.burst_n;
        let argv =
          [| Sys.executable_name; "--setup-probe"; "--workload"; a.workload;
             "--seed"; string_of_int a.seed |]
        in
        let t0 = Host.now () in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> Host.now () -. t0
        | _ -> failwith "set-up probe failed")
  in
  Stats.median times *. Calib.factor cal

let run_workload a tr =
  match a.workload with
  | "paper_repro" ->
      let setup = probe_setup a in
      (setup, W_paper.run ~seed:a.seed ~seconds:a.seconds ~tr (W_paper.setup ~seed:a.seed))
  | "explore_grid" ->
      let setup = probe_setup a in
      (setup, W_explore.run ~seed:a.seed ~seconds:a.seconds ~tr (W_explore.setup ~seed:a.seed))
  | _ ->
      W_serve.run ~seed:a.seed ~seconds:a.seconds ~tr (Oracle.load "serve_mixed")

let metric_json v unit_ = Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit_) ]

let metrics_obj ms =
  Json.Obj (List.map (fun r -> (r.Report.m_name, metric_json r.Report.m_value r.Report.m_unit)) ms)

let run a =
  Host.mkdir_p Host.work_dir;
  let tr = Trace.create ~enabled:a.trace in
  let setup, r = run_workload a tr in
  let problems = ref r.Report.problems in
  let e2e = Report.m "setup_s" "s" setup :: r.Report.e2e in
  let chosen, declared =
    if a.trace then (r.Report.layers, layer_metrics) else (e2e, e2e_metrics)
  in
  let final =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun x -> x.Report.m_name = name) chosen with
        | Some x -> x
        | None when a.trace -> Report.m name unit_ 0.
        | None ->
            problems := ("no value for " ^ name) :: !problems;
            Report.m name unit_ 0.)
      declared
  in
  List.iter
    (fun x ->
      if not (Float.is_finite x.Report.m_value) then
        problems := ("non-finite " ^ x.Report.m_name) :: !problems)
    final;
  if a.trace then begin
    match List.find_opt (fun x -> x.Report.m_name = "trace.unattributed_pct") final with
    | Some x when x.Report.m_value > max_unattributed_pct ->
        problems :=
          Printf.sprintf "layer coverage: %.1f%% of traced time unattributed (bound %.1f%%)"
            x.Report.m_value max_unattributed_pct
          :: !problems
    | _ -> ()
  end;
  let problems = List.rev !problems in
  List.iter (fun p -> Printf.eprintf "%s: %s\n%!" a.workload p) problems;
  let sanitize x = if Float.is_finite x.Report.m_value then x else { x with Report.m_value = 0. } in
  let final = List.map sanitize final in
  print_endline
    ("# host "
    ^ Json.to_string
        (Json.Obj
           [ ("workload", Json.String a.workload); ("seed", Json.Int a.seed);
             ("seconds", Json.Float a.seconds); ("trace", Json.Bool a.trace);
             ("cores", Json.Int (Host.cores ())); ("rev", Json.String a.rev);
             ("ocaml", Json.String Sys.ocaml_version) ]));
  print_endline
    ("# named " ^ Json.to_string (metrics_obj (List.map sanitize (Report.m "setup_s" "s" setup :: r.Report.named))));
  print_endline
    ("# counts "
    ^ Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.Report.counts)));
  if a.trace then begin
    let coverage =
      List.filter
        (fun x -> String.starts_with ~prefix:"coverage." x.Report.m_name)
        r.Report.layers
    in
    print_endline ("# coverage " ^ Json.to_string (metrics_obj (List.map sanitize coverage)))
  end;
  if problems <> [] then
    print_endline
      ("# problems " ^ Json.to_string (Json.List (List.map (fun p -> Json.String p) problems)));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.Report.failed = 0 && problems = []));
            ("attempted", Json.Int r.Report.attempted);
            ("failed", Json.Int r.Report.failed);
            ("metrics", metrics_obj final);
          ]))

let () =
  let a = parse_args () in
  match a.mode with
  | `Setup_probe -> (
      match a.workload with
      | "paper_repro" -> ignore (Sys.opaque_identity (W_paper.setup ~seed:a.seed))
      | "explore_grid" -> ignore (Sys.opaque_identity (W_explore.setup ~seed:a.seed))
      | _ -> usage ())
  | `Pin ->
      Host.mkdir_p Host.work_dir;
      if a.workload = "" || a.workload = "paper_repro" then W_paper.pin ();
      if a.workload = "" || a.workload = "explore_grid" then W_explore.pin ();
      if a.workload = "" || a.workload = "serve_mixed" then W_serve.pin ()
  | `Self_test -> exit (Selftest.run ())
  | `Run -> run a
