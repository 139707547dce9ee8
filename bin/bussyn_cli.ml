(* BusSyn command-line interface: the tool of paper Fig. 18 and Fig. 28.

   `bussyn_cli generate` turns user options into synthesizable Verilog
   plus the Wire Library and a report; `list` shows the Module Library
   and architectures; `simulate` runs an application workload on a bus
   system and prints its performance. *)

open Cmdliner
module G = Bussyn.Generate
module Sv = Busgen_par.Supervise
module Procpool = Busgen_par.Procpool
module Bio = Busgen_binio.Io

(* ------------------------------------------------------------------ *)
(* Supervised-sweep plumbing shared by inject and verify               *)
(* ------------------------------------------------------------------ *)

(* Exit codes, extending the 0/1/2 convention documented at the bottom
   of this file: 3 = the sweep ran to completion but some jobs were
   casualties (crashed / timed out / quarantined), so the results are
   partial; 130 = interrupted by SIGINT/SIGTERM after flushing any
   sweep checkpoint (128 + SIGINT, the shell convention). *)
let exit_partial = 3
let exit_interrupted = 130

(* Signals land in the shared Busgen_par.Intr counter, which the
   supervisor polls; the sweep legs catch [Sv.Interrupted],
   flush their checkpoint and exit 130 (see intr.mli for the flush
   semantics).  Never installed for the non-sweep subcommands —
   default signal behavior is right for them. *)
let should_stop () = Busgen_par.Intr.requested ()
let install_interrupt_handlers () = Busgen_par.Intr.install ()

(* --job-deadline / --job-retries / --worker-* are plain strings
   validated in the handlers (see the --engine comment below): a bad
   value is a user error and must exit 2 with one line on stderr, not
   cmdliner's exit 124. *)
let deadline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "job-deadline"; "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-job wall-clock budget in seconds for the sharded sweeps.  \
           A job that exceeds it is reported as timed-out in the failure \
           summary and its worker process is SIGKILLed and reaped, so one \
           pathological design point cannot stall the sweep.  Default: no \
           limit.")

let retries_arg =
  Arg.(
    value & opt string "0"
    & info [ "job-retries"; "retries" ] ~docv:"N"
        ~doc:
          "Re-run a crashed job up to N extra times (exponential \
           backoff) before quarantining it.  Default 0: a crash is \
           reported on the first attempt.")

let worker_mem_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "worker-mem-mb" ] ~docv:"MB"
        ~doc:
          "Cap each worker process's address space at MB megabytes \
           (RLIMIT_AS).  A job that allocates past the cap fails alone \
           and is reported in the failure summary.")

let worker_cpu_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "worker-cpu-s" ] ~docv:"SEC"
        ~doc:
          "Cap each worker process's CPU time at SEC seconds \
           (RLIMIT_CPU; the kernel delivers SIGXCPU at the limit).  \
           Catches spin loops that a wall-clock deadline alone would let \
           burn a core until the sweep ends.")

let arch_conv =
  let parse s =
    match G.arch_of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  let print fmt a = Format.pp_print_string fmt (G.arch_name a) in
  Arg.conv (parse, print)

let arch_arg =
  Arg.(
    required
    & opt (some arch_conv) None
    & info [ "a"; "arch" ] ~docv:"ARCH"
        ~doc:
          "Bus architecture: one of bfba, gbavi, gbavii, gbaviii, hybrid, \
           splitba (generated), or ggba, ccba (hand-designed baselines).")

(* Counts and sizes are validated here, once for every subcommand: a
   value outside [(lo, hi)] ([hi = max_int]: no upper bound) is a user
   error (exit 2, one line on stderr), raised while cmdliner evaluates
   the term and before any work starts. *)
let check_range ~flag (lo, hi) n =
  if n < lo || n > hi then
    failwith
      (Printf.sprintf "invalid %s %d (expected %s)" flag n
         (if hi < max_int then Printf.sprintf "an integer in [%d, %d]" lo hi
          else
            match lo with
            | 0 -> "a non-negative integer"
            | 1 -> "a positive integer"
            | _ -> Printf.sprintf "an integer >= %d" lo));
  n

let in_range ~flag range arg = Term.(const (check_range ~flag range) $ arg)
let positive ~flag arg = in_range ~flag (1, max_int) arg
let non_negative ~flag arg = in_range ~flag (0, max_int) arg

let pes_arg =
  positive ~flag:"--pes"
    Arg.(
      value & opt int 4
      & info [ "p"; "pes" ] ~docv:"N" ~doc:"Number of processing elements.")

let jobs_arg =
  positive ~flag:"--jobs"
    Arg.(
      value
      & opt int (Sv.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker processes for the embarrassingly parallel legs (fuzz \
             budgets, fault campaigns, the all-architectures matrix, \
             exploration grids, serve batches).  Reports, corpus files \
             and exit codes are byte-identical for every N, including 1: \
             job seeds are derived from (root seed, job index) and results \
             merge in job order.  Default: the machine's recommended \
             worker count.")

(* The sweep checkpoint flags of `verify --fuzz` and `explore`. *)
let sweep_ckpt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sweep-ckpt" ] ~docv:"DIR"
        ~doc:
          "Checkpoint sweep progress (completed-job bitmap + accumulated \
           results: fuzz cases for verify --fuzz, scored candidates for \
           explore) to DIR/sweep.bsck at a cadence, and resume from it if \
           it already exists — a SIGKILLed sweep re-run with the same \
           arguments picks up where it died and produces a \
           byte-identical final report.")

let sweep_every_arg =
  positive ~flag:"--sweep-every"
    Arg.(
      value & opt int 32
      & info [ "sweep-every" ] ~docv:"N"
          ~doc:
            "With --sweep-ckpt: rewrite the checkpoint after every N newly \
             completed jobs (it is also rewritten on a wall-clock cadence \
             and always on exit).  Default 32.")

let engine_arg =
  Arg.(
    value & opt string "tape"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "RTL evaluation engine for the simulation-backed legs: tape \
           (flat tape with activity-based skipping, the default) or ref \
           (the tree-walking reference oracle).  The two are bit-exact; \
           pick ref to cross-check a result or to bisect a suspected \
           tape-compiler bug.")

(* Deliberately a plain string option validated here, not an
   [Arg.conv]: cmdliner reports conversion failures as CLI errors
   (exit 124), while an unknown engine is a user error and must exit 2
   with one line on stderr — the `wires --check` / options-file
   convention enforced by the handler at the bottom of this file. *)
let engine_of_string s =
  match Busgen_rtl.Engine.kind_of_string s with
  | Ok k -> k
  | Error msg -> failwith msg

let parse_seconds ~flag = function
  | None -> None
  | Some s -> (
      match float_of_string_opt s with
      | Some d when d > 0. && Float.is_finite d -> Some d
      | _ ->
          failwith
            (Printf.sprintf
               "invalid %s %S (expected a positive number of seconds)" flag s))

let parse_job_deadline = parse_seconds ~flag:"--job-deadline"

let parse_job_retries s =
  match int_of_string_opt s with
  | Some r when r >= 0 -> r
  | _ ->
      failwith
        (Printf.sprintf
           "invalid --job-retries %S (expected a non-negative integer)" s)

let parse_positive_int ~flag = function
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v > 0 -> Some v
      | _ ->
          failwith
            (Printf.sprintf "invalid %s %S (expected a positive integer)" flag
               s))

(* Validates the worker limits up front (so a bad value exits 2 before
   any generation work); [worker_backend] then pairs them with a leg's
   result codec. *)
let worker_config ~worker_mem_mb ~worker_cpu_s =
  let mem = parse_positive_int ~flag:"--worker-mem-mb" worker_mem_mb in
  let cpu = parse_positive_int ~flag:"--worker-cpu-s" worker_cpu_s in
  Procpool.config ?cpu_seconds:cpu
    ?mem_bytes:(Option.map (fun mb -> mb * 1024 * 1024) mem)
    ~recycle_after:256 ()

let worker_backend config ~encode ~decode =
  Sv.Processes
    { Procpool.sp_config = config; sp_encode = encode; sp_decode = decode }

let config_of ~pes ~data_width ~mem_addr_width ~fifo_depth =
  {
    (Bussyn.Archs.paper_config ~n_pes:pes) with
    Bussyn.Archs.bus_data_width = data_width;
    mem_addr_width;
    global_mem_addr_width = mem_addr_width;
    fifo_depth;
  }

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let out_arg =
    Arg.(
      value & opt string "bussyn_out"
      & info [ "o"; "output" ] ~docv:"DIR"
          ~doc:"Output directory for the Verilog files, wires.txt and report.")
  in
  let data_width =
    in_range ~flag:"--data-width" Bussyn.Archs.data_width_range
      Arg.(
        value & opt int 64
        & info [ "data-width" ] ~docv:"BITS" ~doc:"Bus data width (option 3.2).")
  in
  let mem_addr_width =
    in_range ~flag:"--mem-addr-width" Bussyn.Archs.mem_addr_width_range
      Arg.(
        value & opt int 20
        & info [ "mem-addr-width" ] ~docv:"BITS"
            ~doc:"Per-BAN memory address width (option 5.2); 20 = 8 MB of \
                  64-bit words.")
  in
  let fifo_depth =
    in_range ~flag:"--fifo-depth" Bussyn.Archs.fifo_depth_range
      Arg.(
        value & opt int 1024
        & info [ "fifo-depth" ] ~docv:"WORDS"
            ~doc:"Bi-FIFO depth (option 3.3, BFBA/Hybrid only).")
  in
  let lint =
    Arg.(value & flag & info [ "lint" ] ~doc:"Run the structural linter too.")
  in
  let optimize =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:"Constant-fold and simplify the generated expressions \
                before emission.")
  in
  let testbench =
    Arg.(
      value & flag
      & info [ "testbench" ]
          ~doc:"Also emit a self-checking Verilog testbench (tb_<sys>.v) \
                that writes and reads back every PE's local memory; \
                expected data is computed by the built-in interpreter.")
  in
  let fft =
    Arg.(
      value & flag
      & info [ "fft" ]
          ~doc:"Attach the hardware FFT BAN of paper Example 8 over \
                dedicated wires (bfba only; needs >= 2 PEs and a bus of \
                32 bits or wider).")
  in
  let options_arg =
    Arg.(
      value & opt (some string) None
      & info [ "options" ] ~docv:"FILE"
          ~doc:"Read the full option tree from FILE (see \
                lib/core/options_text.mli for the format); overrides \
                --arch and the width flags.")
  in
  let protect =
    Arg.(
      value & flag
      & info [ "protect" ]
          ~doc:"Generate bus error-protection hardware: a watchdog across \
                each bus arbiter and even-parity generator/checker pairs \
                across the bus data lines (option 1.2, 'protection on' in \
                options files).")
  in
  let run arch pes out data_width mem_addr_width fifo_depth lint options
      optimize fft testbench protect =
    let result =
      match options with
      | Some file -> (
          match Bussyn.Options_text.load file with
          | Error msg -> failwith msg
          | Ok opts -> (
              match G.from_options opts with
              | Error msg -> failwith msg
              | Ok r -> r))
      | None ->
          let config = config_of ~pes ~data_width ~mem_addr_width ~fifo_depth in
          let config =
            if fft then { config with Bussyn.Archs.accelerator = Bussyn.Archs.Acc_fft }
            else config
          in
          let config = { config with Bussyn.Archs.protect } in
          G.generate arch config
    in
    Format.printf "%a@." G.pp_report result;
    let result =
      if optimize then begin
        let top = result.G.generated.Bussyn.Archs.top in
        let before, after = Busgen_rtl.Opt.savings top in
        Printf.printf "optimizer: %d -> %d gates\n" before after;
        {
          result with
          G.generated =
            {
              result.G.generated with
              Bussyn.Archs.top = Busgen_rtl.Opt.circuit top;
            };
        }
      end
      else result
    in
    let files = G.write_output ~dir:out result in
    let files =
      if testbench then
        files
        @ [
            Busgen_rtl.Tbgen.write_testbench ~dir:out
              result.G.generated.Bussyn.Archs.top
              ~script:
                (Busgen_rtl.Tbgen.smoke_script
                   ~n_pes:result.G.config.Bussyn.Archs.n_pes);
          ]
      else files
    in
    Printf.printf "wrote %d files under %s/\n" (List.length files) out;
    if lint then begin
      let report =
        Busgen_rtl.Lint.check result.G.generated.Bussyn.Archs.top
      in
      if Busgen_rtl.Lint.is_clean report then begin
        print_endline "lint: clean";
        0
      end
      else begin
        (* Lint errors make the exit status non-zero so scripted flows
           (CI, make) fail instead of shipping a broken netlist. *)
        Format.printf "%a@." Busgen_rtl.Lint.pp_report report;
        1
      end
    end
    else 0
  in
  let term =
    Term.(
      const run $ arch_arg $ pes_arg $ out_arg $ data_width $ mem_addr_width
      $ fifo_depth $ lint $ options_arg $ optimize $ fft $ testbench
      $ protect)
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a Bus System in synthesizable Verilog (BusSyn).")
    term

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "Bus architectures:";
    List.iter
      (fun (a, note) ->
        Printf.printf "  %-9s %s\n" (G.arch_name a) note)
      [
        (G.Bfba, "Bi-FIFO bus architecture (Fig. 4)");
        (G.Gbavi, "segmented global bus, version I (Fig. 3)");
        (G.Gbaviii, "global bus with global memory and arbiter (Fig. 5)");
        (G.Hybrid, "BFBA + GBAVIII combination (Fig. 6)");
        (G.Splitba, "split bus, two subsystems over a bridge (Fig. 7)");
        (G.Ggba, "hand-designed general global bus baseline (Fig. 9)");
        (G.Ccba, "hand-designed CoreConnect-like baseline (Fig. 8)");
      ];
    print_endline "\nModule Library components:";
    List.iter (Printf.printf "  %s\n") Busgen_modlib.Catalog.available;
    print_endline "\nPE cores (IP, interfaced through CBI modules):";
    List.iter (Printf.printf "  %s\n") Busgen_modlib.Catalog.pe_catalog;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List architectures and Module Library components.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let faults_conv =
  let parse s =
    match Busgen_sim.Machine.fault_config_of_string s with
    | Ok fc -> Ok fc
    | Error msg -> Error (`Msg msg)
  in
  let print fmt (fc : Busgen_sim.Machine.fault_config) =
    Format.fprintf fmt "%d:%g" fc.Busgen_sim.Machine.f_seed
      (float_of_int fc.Busgen_sim.Machine.f_error_num
      /. float_of_int fc.Busgen_sim.Machine.f_den)
  in
  Arg.conv (parse, print)

let simulate_cmd =
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Record every bus transaction and print queueing/utilization \
                analysis.")
  in
  let app_arg =
    Arg.(
      required
      & opt (some (enum [ ("ofdm-ppa", `Ofdm_ppa); ("ofdm-fpa", `Ofdm_fpa);
                          ("mpeg2", `Mpeg2); ("database", `Database) ]))
          None
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:"Workload: ofdm-ppa, ofdm-fpa, mpeg2 or database.")
  in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"PREFIX"
          ~doc:"With --trace: write PREFIX-trace.csv (per-transaction \
                records), PREFIX-util.csv (bucketed bus utilization) and \
                PREFIX-util.gp (a gnuplot script for the latter).")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some faults_conv) None
      & info [ "faults" ] ~docv:"SEED:RATE"
          ~doc:"Enable the deterministic bus fault model: every granted \
                transaction errors with probability RATE (and times out \
                with RATE/4) from a per-bus LCG seeded by SEED; masters \
                retry with exponential backoff and the run reports its \
                reliability outcome.")
  in
  let max_cycles_arg =
    Term.(
      const (Option.map (check_range ~flag:"--max-cycles" (1, max_int)))
      $ Arg.(
          value & opt (some int) None
          & info [ "max-cycles" ] ~docv:"N"
              ~doc:"Cycle budget (default 200 million).  A run whose PEs \
                    have not all halted by cycle N fails with exit 1, unless \
                    --faults quarantined a PE: that degraded run stops at N \
                    and is reported."))
  in
  let run arch app trace csv faults max_cycles =
    let module M = Busgen_sim.Machine in
    if csv <> None && not trace then
      failwith "--csv needs --trace (no transactions recorded)";
    let report stats =
      if trace then
        Format.printf "%a@." Busgen_sim.Analysis.pp_report stats;
      (if not trace then
         match Busgen_sim.Analysis.reliability stats with
         | None -> ()
         | Some rr ->
             Format.printf "%a@." Busgen_sim.Analysis.pp_reliability rr);
      match csv with
      | None -> ()
      | Some prefix ->
          let module A = Busgen_sim.Analysis in
          let buckets = 40 in
          let util = prefix ^ "-util.csv" in
          A.write_csv ~path:(prefix ^ "-trace.csv") (A.csv_of_trace stats);
          A.write_csv ~path:util (A.csv_of_timeline stats ~buckets);
          A.write_csv ~path:(prefix ^ "-util.gp")
            (A.gnuplot_utilization ~data_path:util ~buckets stats);
          Printf.printf "wrote %s-{trace,util}.csv and %s-util.gp\n" prefix
            prefix
    in
    match
      match app with
      | `Ofdm_ppa | `Ofdm_fpa ->
          let style =
            match app with
            | `Ofdm_ppa -> Busgen_apps.Ofdm.Ppa
            | _ -> Busgen_apps.Ofdm.Fpa
          in
          let r = Busgen_apps.Ofdm.run ~trace ?faults ?max_cycles arch style in
          Printf.printf "OFDM %s on %s: %.4f Mbps (%d cycles)\n"
            (Busgen_apps.Ofdm.style_name style)
            (G.arch_name arch) r.Busgen_apps.Ofdm.throughput_mbps
            r.Busgen_apps.Ofdm.stats.M.cycles;
          r.Busgen_apps.Ofdm.stats
      | `Mpeg2 ->
          let r = Busgen_apps.Mpeg2.run ~trace ?faults ?max_cycles arch in
          Printf.printf "MPEG2 on %s: %.4f Mbps (%d cycles)\n"
            (G.arch_name arch) r.Busgen_apps.Mpeg2.throughput_mbps
            r.Busgen_apps.Mpeg2.stats.M.cycles;
          r.Busgen_apps.Mpeg2.stats
      | `Database ->
          let r = Busgen_apps.Database.run ~trace ?faults ?max_cycles arch in
          Printf.printf "Database on %s: %.0f ns (%d tasks)\n"
            (G.arch_name arch) r.Busgen_apps.Database.execution_time_ns
            r.Busgen_apps.Database.tasks;
          r.Busgen_apps.Database.stats
    with
    | stats ->
        report stats;
        0
    | exception M.Deadlock msg ->
        (* The simulator's progress check ran and failed: exit 1, with
           nothing on stdout. *)
        prerr_endline ("bussyn_cli: " ^ msg);
        1
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run an application workload on a bus architecture and report \
             its performance.")
    Term.(
      const run $ arch_arg $ app_arg $ trace_arg $ csv_arg $ faults_arg
      $ max_cycles_arg)

(* ------------------------------------------------------------------ *)
(* inject                                                              *)
(* ------------------------------------------------------------------ *)

let inject_cmd =
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Campaign seed; the same seed always draws the same faults.")
  in
  let n_arg =
    positive ~flag:"-n"
      Arg.(
        value & opt int 24
        & info [ "n" ] ~docv:"COUNT" ~doc:"Number of faults to inject.")
  in
  let cycles_arg =
    positive ~flag:"--cycles"
      Arg.(
        value & opt int 120
        & info [ "cycles" ] ~docv:"N"
            ~doc:"Cycles to simulate per run (fault start times are drawn \
                  within this horizon).")
  in
  let protect_arg =
    Arg.(
      value & flag
      & info [ "protect" ]
          ~doc:"Generate the system with bus error protection (watchdog \
                and parity modules), so faults can be flagged by the \
                protection signals.")
  in
  let run arch pes seed n cycles protect jobs deadline retries worker_mem_mb
      worker_cpu_s engine =
    let module I = Busgen_rtl.Flat in
    let module Check = Busgen_verify.Check in
    let kind = engine_of_string engine in
    let policy =
      Sv.policy
        ?deadline:(parse_job_deadline deadline)
        ~retries:(parse_job_retries retries) ()
    in
    let workers = worker_config ~worker_mem_mb ~worker_cpu_s in
    (* Verdicts cross the worker-process boundary as two booleans; the
       codec is lossless, so every -j prints the same bytes. *)
    let backend =
      worker_backend workers
        ~encode:(fun (v : Check.verdict) ->
          let w = Bio.writer () in
          Bio.w_bool w v.Check.corrupted;
          Bio.w_bool w v.Check.flagged;
          Bio.contents w)
        ~decode:(fun s ->
          let r = Bio.reader s in
          let corrupted = Bio.r_bool r in
          let flagged = Bio.r_bool r in
          { Check.corrupted; flagged })
    in
    install_interrupt_handlers ();
    let config =
      { (Bussyn.Archs.small_config ~n_pes:pes) with Bussyn.Archs.protect }
    in
    let r = G.generate arch config in
    let c =
      Check.campaign ~engine:kind r.G.generated.Bussyn.Archs.top ~seed ~n
        ~cycles
    in
    let campaign = Array.of_list (Check.injections c) in
    let fault_name = function
      | I.Stuck_at_0 -> "stuck-at-0"
      | I.Stuck_at_1 -> "stuck-at-1"
      | I.Flip b -> Printf.sprintf "flip bit %d" b
    in
    (* One job per injection: workers fork after the golden run, so
       each classifies on its own copy of the campaign's engine.  The
       quadrant a fault lands in depends only on (circuit, schedule,
       injection), so the merged-in-order results are identical for
       every -j.  Supervision keeps the campaign draining past a hung
       or crashing injection run: that row prints as NOT CLASSIFIED
       and the exit code flips to 3 (partial). *)
    match
      Sv.run ~policy ~backend ~jobs
        ~on_progress:(Sv.progress_line ~label:"inject" ())
        ~should_stop (Array.length campaign)
        (fun idx -> Check.classify c campaign.(idx))
    with
    | exception Sv.Interrupted ->
        prerr_endline "inject: interrupted";
        exit_interrupted
    | classified ->
        let detected_corrupt = ref 0
        and silent_corrupt = ref 0
        and detected_masked = ref 0
        and masked = ref 0
        and casualties = ref 0 in
        Array.iteri
          (fun idx outcome ->
            let inj : I.injection = campaign.(idx) in
            let verdict =
              match outcome with
              | Sv.Ok { Check.corrupted; flagged } ->
                  incr
                    (match (corrupted, flagged) with
                    | true, true -> detected_corrupt
                    | true, false -> silent_corrupt
                    | false, true -> detected_masked
                    | false, false -> masked);
                  (match (corrupted, flagged) with
                  | true, true -> "corrupted outputs, flagged"
                  | true, false -> "corrupted outputs, NOT flagged"
                  | false, true -> "masked, flagged"
                  | false, false -> "masked")
              | o ->
                  incr casualties;
                  "NOT CLASSIFIED: " ^ Sv.describe o
            in
            Printf.printf "%-28s @%4d for %d cycle(s) on %-24s -> %s\n"
              (fault_name inj.I.inj_fault)
              inj.I.inj_start inj.I.inj_cycles inj.I.inj_signal verdict)
          classified;
        Printf.printf
          "\ncampaign: %s, %d PEs, %d faults over %d cycles (seed %d%s)\n"
          (G.arch_name arch) pes n cycles seed
          (if protect then ", protection on" else "");
        Printf.printf
          "  corrupted + flagged:  %d\n  corrupted, unflagged: %d\n\
          \  masked but flagged:   %d\n  fully masked:         %d\n"
          !detected_corrupt !silent_corrupt !detected_masked !masked;
        if !casualties > 0 then
          Printf.printf "  NOT CLASSIFIED:       %d (sweep casualties)\n"
            !casualties;
        if not (Check.protected c) then
          print_endline
            "  (no protection signals in this design; use --protect to add \
             watchdog/parity hardware)";
        if !casualties > 0 then exit_partial else 0
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Run a deterministic RTL fault-injection campaign (stuck-at, \
             bit-flip and glitch faults on random internal signals) \
             against a golden run of the same stimulus, and report which \
             faults corrupted outputs and which were flagged by the \
             generated protection hardware.")
    Term.(
      const run $ arch_arg $ pes_arg $ seed_arg $ n_arg $ cycles_arg
      $ protect_arg $ jobs_arg $ deadline_arg $ retries_arg $ worker_mem_arg
      $ worker_cpu_arg $ engine_arg)

(* ------------------------------------------------------------------ *)
(* soak                                                                *)
(* ------------------------------------------------------------------ *)

let soak_cmd =
  let module S = Busgen_ckpt.Soak in
  let campaign_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some seed, Some n when n > 0 -> Ok (seed, n)
          | _ -> Error (`Msg "expected SEED:COUNT (two integers)"))
      | _ -> Error (`Msg "expected SEED:COUNT (e.g. 7:4)")
    in
    let print fmt (s, n) = Format.fprintf fmt "%d:%d" s n in
    Arg.conv (parse, print)
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Traffic seed for the run.")
  in
  let cycles_arg =
    positive ~flag:"--cycles"
      Arg.(
        value & opt int 200_000
        & info [ "cycles" ] ~docv:"N"
            ~doc:"Run until at least N bus cycles have been simulated.")
  in
  let dir_arg =
    Arg.(
      value & opt string "soak_ckpt"
      & info [ "ckpt-dir" ] ~docv:"DIR"
          ~doc:"Checkpoint directory; re-running against it resumes from \
                the newest valid checkpoint (a corrupt newest file is \
                skipped in favor of the previous good one).")
  in
  let every_arg =
    non_negative ~flag:"--every"
      Arg.(
        value & opt int 10_000
        & info [ "every" ] ~docv:"CYCLES"
            ~doc:"Checkpoint cadence in simulated cycles (0 disables).")
  in
  let wall_arg =
    Term.(
      const (parse_seconds ~flag:"--every-seconds")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "every-seconds" ] ~docv:"SEC"
              ~doc:"Also checkpoint whenever SEC wall-clock seconds (a \
                    positive number) have passed since the last one."))
  in
  let keep_arg =
    positive ~flag:"--keep"
      Arg.(
        value & opt int 3
        & info [ "keep" ] ~docv:"N" ~doc:"Checkpoint files retained.")
  in
  let campaign_arg =
    Arg.(
      value & opt (some campaign_conv) None
      & info [ "faults" ] ~docv:"SEED:COUNT"
          ~doc:"Install a random RTL fault campaign (COUNT injections \
                drawn from SEED over the run's horizon) before driving \
                traffic.")
  in
  let protect_arg =
    Arg.(
      value & flag
      & info [ "protect" ]
          ~doc:"Generate the design with bus error-protection hardware.")
  in
  let no_monitor_arg =
    Arg.(
      value & flag
      & info [ "no-monitor" ]
          ~doc:"Do not arm the standard property pack.")
  in
  let run arch pes seed cycles dir every wall keep campaign protect no_monitor
      engine =
    let config =
      { (Bussyn.Archs.small_config ~n_pes:pes) with Bussyn.Archs.protect }
    in
    let cfg =
      S.config ~cadence:every ~wall ~keep ?campaign ~monitor:(not no_monitor)
        ~engine:(engine_of_string engine)
        ~log:(fun m -> Printf.printf "[soak] %s\n%!" m)
        ~arch ~config ~seed ~cycles ~dir ()
    in
    match S.run cfg with
    | Error e ->
        prerr_endline ("soak: " ^ e);
        1
    | Ok o ->
        let module T = Busgen_verify.Traffic in
        Printf.printf "[soak] wrote %d checkpoint(s) under %s\n" o.S.so_checkpoints
          dir;
        Printf.printf
          "soak %s: %d cycles, %d transactions (%d reads, %d writes), %d \
           mismatch(es), %d violation(s)\n"
          (G.arch_name arch) o.S.so_cycles o.S.so_stats.T.transactions
          o.S.so_stats.T.reads o.S.so_stats.T.writes
          o.S.so_stats.T.mismatches
          (List.length o.S.so_violations);
        List.iter
          (fun v -> Format.printf "  %a@." Busgen_verify.Prop.pp_violation v)
          o.S.so_violations;
        if o.S.so_stats.T.mismatches > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Supervised long co-simulation: drive deterministic traffic \
             through the generated RTL under the property pack, writing \
             crash-safe checkpoints on a cycle/wall-clock cadence.  \
             Re-running with the same checkpoint directory resumes \
             bit-exactly from the newest valid checkpoint; a heartbeat \
             watchdog converts a wedged bus into a diagnostic naming the \
             frozen control signals.")
    Term.(
      const run $ arch_arg $ pes_arg $ seed_arg $ cycles_arg $ dir_arg
      $ every_arg $ wall_arg $ keep_arg $ campaign_arg $ protect_arg
      $ no_monitor_arg $ engine_arg)

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let module V = Busgen_verify in
  let arch_opt =
    Arg.(
      value
      & opt (some arch_conv) None
      & info [ "a"; "arch" ] ~docv:"ARCH"
          ~doc:
            "Architecture for the monitored run (default: all eight). \
             Ignored with --fuzz / --replay.")
  in
  let cycles_arg =
    positive ~flag:"--cycles"
      Arg.(
        value & opt int 2000
        & info [ "cycles" ] ~docv:"N"
            ~doc:"Cycle horizon per monitored run.")
  in
  let protect_arg =
    Arg.(
      value & flag
      & info [ "protect" ]
          ~doc:"Generate the designs with bus error protection.")
  in
  let fuzz_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz" ] ~docv:"SEED"
          ~doc:
            "Fuzz the generator: sample option trees, lint, run the \
             interpreter differential and the monitored simulation \
             (alternating cases add a seeded fault campaign). \
             Deterministic per SEED.")
  in
  let budget_arg =
    positive ~flag:"--budget"
      Arg.(
        value & opt int 32
        & info [ "budget" ] ~docv:"N"
            ~doc:"Number of fuzz cases to classify (with --fuzz).")
  in
  let first_case_arg =
    non_negative ~flag:"--first-case"
      Arg.(
        value & opt int 0
        & info [ "first-case" ] ~docv:"K"
            ~doc:
              "With --fuzz: start at case index K instead of 0, so a long \
               campaign can be split across invocations (cases [K, \
               K+budget) of the same seed).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a .repro file and compare against its expect line.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "With --fuzz: shrink every fault-free failure and save it as \
             a replayable .repro file under DIR.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print a machine-readable JSON report.")
  in
  (* Builds its report into a buffer instead of printing, so the
     all-architectures matrix can run the cells on a worker pool and
     still print byte-identical output in architecture order. *)
  let monitored_run arch ~pes ~cycles ~protect ~json ~engine =
    let b = Buffer.create 256 in
    let cfg =
      { (Bussyn.Archs.small_config ~n_pes:pes) with Bussyn.Archs.protect }
    in
    let r = V.Check.verify ~engine (G.generate arch cfg) ~cycles in
    let stats = r.V.Check.vr_stats and violations = r.V.Check.vr_violations in
    if json then
      Printf.bprintf b
        "{\"arch\": \"%s\", \"cycles\": %d, \"transactions\": %d, \
         \"properties\": %d, \"mismatches\": %d, \"violations\": %d}\n"
        (G.arch_name arch) stats.V.Traffic.cycles stats.V.Traffic.transactions
        r.V.Check.vr_properties stats.V.Traffic.mismatches
        (List.length violations)
    else begin
      Printf.bprintf b
        "%-8s %6d cycles, %5d transactions, %3d properties armed: %s\n"
        (G.arch_name arch) stats.V.Traffic.cycles stats.V.Traffic.transactions
        r.V.Check.vr_properties
        (if V.Check.clean r then "clean"
         else
           Printf.sprintf "%d violation(s), %d mismatch(es)"
             (List.length violations) stats.V.Traffic.mismatches);
      List.iter
        (fun v ->
          Buffer.add_string b
            (Format.asprintf "  %a@." V.Prop.pp_violation v))
        violations
    end;
    (V.Check.clean r, Buffer.contents b)
  in
  let run arch pes cycles protect fuzz budget first_case replay corpus json
      jobs deadline retries worker_mem_mb worker_cpu_s sweep_ckpt sweep_every
      engine =
    (* Validated up front so `verify --engine bogus` (or a bad
       --job-deadline / --worker-* value) exits 2 before any generation work;
       the fuzz and replay legs run their own tape-vs-ref differential
       and ignore the engine choice. *)
    let ekind = engine_of_string engine in
    let policy =
      Sv.policy
        ?deadline:(parse_job_deadline deadline)
        ~retries:(parse_job_retries retries) ()
    in
    let workers = worker_config ~worker_mem_mb ~worker_cpu_s in
    match replay with
    | Some path -> (
        match V.Fuzz.replay path with
        | Error msg ->
            prerr_endline ("verify: " ^ msg);
            2
        | Ok (res, expect) ->
            let got = V.Fuzz.outcome_class res.V.Fuzz.r_outcome in
            Printf.printf "%s: expect %s, got %s%s\n" path expect got
              (if got = expect then "" else "  <-- MISMATCH");
            if got = expect then 0 else 1)
    | None -> (
        match fuzz with
        | Some seed -> (
            install_interrupt_handlers ();
            let module Sweep = Busgen_ckpt.Sweep in
            (* The checkpoint is keyed on everything that determines the
               case set; resuming with different arguments must refuse,
               not silently mix two sweeps. *)
            let sweep =
              match sweep_ckpt with
              | None -> None
              | Some dir -> (
                  let ident =
                    Printf.sprintf "fuzz/seed=%d/first=%d/budget=%d/cycles=%d"
                      seed first_case budget cycles
                  in
                  match
                    Sweep.load ~log:prerr_endline ~every:sweep_every ~dir
                      ~ident ~total:budget ()
                  with
                  | Error msg -> failwith msg (* user error: exit 2 *)
                  | Ok t ->
                      let done_ = Sweep.completed t in
                      if done_ > 0 then
                        Printf.eprintf
                          "[sweep] resuming: %d/%d cases already complete\n%!"
                          done_ budget;
                      Some t)
            in
            let skip =
              Option.map
                (fun t i ->
                  match Sweep.lookup t i with
                  | None -> None
                  | Some payload -> (
                      match Sweep.decode_fuzz_results payload with
                      | Ok rs -> Some rs
                      | Error why ->
                          Printf.eprintf
                            "[sweep] case %d: corrupt payload (%s); \
                             re-running\n\
                             %!"
                            (first_case + i) why;
                          None))
                sweep
            in
            let on_case =
              Option.map
                (fun t i rs -> Sweep.note t i (Sweep.encode_fuzz_results rs))
                sweep
            in
            (* Case results cross the worker-process boundary through
               the sweep-checkpoint codec — already proven lossless by
               the resume byte-identity tests. *)
            match
              V.Fuzz.run ~cycles ~seed ~budget ~first_case ~jobs ~policy
                ~backend:(Sweep.fuzz_backend workers)
                ~on_progress:(Sv.progress_line ~label:"fuzz" ())
                ?on_case ?skip ~should_stop ()
            with
            | exception Sv.Interrupted ->
                (match (sweep, sweep_ckpt) with
                | Some t, Some dir ->
                    Sweep.save t;
                    Printf.eprintf
                      "verify: interrupted — sweep checkpoint flushed to %s\n%!"
                      dir
                | _ -> prerr_endline "verify: interrupted");
                exit_interrupted
            | report ->
            (match sweep with None -> () | Some t -> Sweep.save t);
            if json then print_string (V.Fuzz.report_to_json report)
            else begin
              let count pred =
                List.length (List.filter pred report.V.Fuzz.f_results)
              in
              Printf.printf
                "fuzz seed %d: %d cases (%d faulted), %d clean, %d \
                 generation errors, %d failures\n"
                seed budget
                (count (fun r -> V.Fuzz.faulted r.V.Fuzz.r_scenario))
                (count (fun r -> r.V.Fuzz.r_outcome = V.Fuzz.Clean))
                (count (fun r ->
                     match r.V.Fuzz.r_outcome with
                     | V.Fuzz.Generation_error _ -> true
                     | _ -> false))
                (List.length report.V.Fuzz.f_failures);
              List.iter
                (fun (r : V.Fuzz.result) ->
                  Printf.printf "  FAIL %s (options seed %d)\n"
                    (V.Fuzz.outcome_class r.V.Fuzz.r_outcome)
                    r.V.Fuzz.r_scenario.V.Fuzz.sc_seed)
                report.V.Fuzz.f_failures;
              if report.V.Fuzz.f_casualties <> [] then begin
                Printf.printf
                  "supervision: %d of %d cases did not complete\n"
                  (List.length report.V.Fuzz.f_casualties)
                  budget;
                List.iter
                  (fun line -> Printf.printf "  %s\n" line)
                  (V.Fuzz.casualty_lines report)
              end
            end;
            (match corpus with
            | None -> ()
            | Some dir ->
                List.iteri
                  (fun i (r : V.Fuzz.result) ->
                    let sc = V.Fuzz.shrink r.V.Fuzz.r_scenario r in
                    let expect =
                      V.Fuzz.outcome_class r.V.Fuzz.r_outcome
                    in
                    let path =
                      V.Fuzz.save_repro ~dir
                        ~name:(Printf.sprintf "fuzz_s%d_f%d" seed i)
                        ~expect sc
                    in
                    Printf.printf "shrunk failure %d -> %s\n" i path)
                  report.V.Fuzz.f_failures);
            if report.V.Fuzz.f_casualties <> [] then exit_partial
            else if report.V.Fuzz.f_failures = [] then 0
            else 1)
        | None ->
            let archs =
              match arch with
              | Some a -> [| a |]
              | None ->
                  [| G.Bfba; G.Gbavi; G.Gbavii; G.Gbaviii; G.Hybrid;
                     G.Splitba; G.Ggba; G.Ccba |]
            in
            (* One monitored run per architecture is an independent
               job; outputs are printed in architecture order after the
               merge, so -j never reorders the matrix.  A cell the
               supervisor cannot complete prints as a casualty row in
               its slot and flips the exit code to 3. *)
            install_interrupt_handlers ();
            (* A matrix cell is (clean?, buffered report text). *)
            let backend =
              worker_backend workers
                ~encode:(fun (ok, out) ->
                  let w = Bio.writer () in
                  Bio.w_bool w ok;
                  Bio.w_string w out;
                  Bio.contents w)
                ~decode:(fun s ->
                  let r = Bio.reader s in
                  let ok = Bio.r_bool r in
                  let out = Bio.r_string r in
                  (ok, out))
            in
            match
              Sv.run ~policy ~backend ~jobs
                ~on_progress:(Sv.progress_line ~label:"verify" ())
                ~should_stop (Array.length archs)
                (fun i ->
                  monitored_run archs.(i) ~pes ~cycles ~protect ~json
                    ~engine:ekind)
            with
            | exception Sv.Interrupted ->
                prerr_endline "verify: interrupted";
                exit_interrupted
            | cells ->
                let ok = ref true and partial = ref false in
                Array.iteri
                  (fun i cell ->
                    match cell with
                    | Sv.Ok (cell_ok, out) ->
                        print_string out;
                        if not cell_ok then ok := false
                    | o ->
                        partial := true;
                        let why = Sv.describe o in
                        if json then begin
                          let esc s =
                            String.concat ""
                              (List.map
                                 (function
                                   | '"' -> "\\\""
                                   | '\\' -> "\\\\"
                                   | '\n' -> "\\n"
                                   | c -> String.make 1 c)
                                 (List.init (String.length s) (String.get s)))
                          in
                          Printf.printf
                            "{\"arch\": \"%s\", \"sweep_casualty\": \"%s\"}\n"
                            (G.arch_name archs.(i))
                            (esc why)
                        end
                        else
                          Printf.printf "%-8s SWEEP CASUALTY: %s\n"
                            (G.arch_name archs.(i))
                            why)
                  cells;
                if !partial then exit_partial else if !ok then 0 else 1)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Runtime verification: attach the standard property pack \
          (arbiter, FIFO, handshake, bridge, watchdog, parity \
          invariants) to a monitored simulation, fuzz the generator \
          with seeded option/fault sampling, or replay a shrunk .repro \
          file from the corpus.")
    Term.(
      const run $ arch_opt $ pes_arg $ cycles_arg $ protect_arg $ fuzz_arg
      $ budget_arg $ first_case_arg $ replay_arg $ corpus_arg $ json_arg
      $ jobs_arg $ deadline_arg $ retries_arg $ worker_mem_arg $ worker_cpu_arg
      $ sweep_ckpt_arg $ sweep_every_arg $ engine_arg)

(* ------------------------------------------------------------------ *)
(* wires                                                               *)
(* ------------------------------------------------------------------ *)

let wires_cmd =
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the Wire Library text to FILE instead of stdout.")
  in
  let check_arg =
    Arg.(
      value & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:"Parse and validate an existing Wire Library file instead \
                of dumping a generated one.")
  in
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:"Emit the system topology as a Graphviz digraph instead of \
                the ASCII wire list (regenerates the paper's block \
                diagrams; render with dot -Tsvg).")
  in
  let run arch out check dot =
    match check with
    | Some file -> (
        (* Bad input — unreadable, unparsable or invalid — follows the
           `verify --replay` convention: exit 2 with one line on
           stderr, never a raw exception.  (The unreadable-file case
           used to escape as an uncaught Sys_error, and the other two
           exited 1, indistinguishable from a failed check of valid
           input.) *)
        match
          let ic = open_in file in
          let len = in_channel_length ic in
          let src = really_input_string ic len in
          close_in ic;
          src
        with
        | exception Sys_error msg ->
            Printf.eprintf "wires: %s\n" msg;
            2
        | src -> (
            match Busgen_wirelib.Text.parse src with
            | Error msg ->
                Printf.eprintf "wires: parse error: %s\n" msg;
                2
            | Ok lib -> (
                match Busgen_wirelib.Spec.validate lib with
                | Error msg ->
                    Printf.eprintf "wires: invalid: %s\n" msg;
                    2
                | Ok () ->
                    Printf.printf "%s: %d entries, %d wires, all valid\n" file
                      (List.length lib)
                      (List.fold_left
                         (fun a (e : Busgen_wirelib.Spec.entry) ->
                           a + List.length e.Busgen_wirelib.Spec.wires)
                         0 lib);
                    0)))
    | None ->
        let config = Bussyn.Archs.paper_config ~n_pes:4 in
        let result = G.generate arch config in
        let text =
          if dot then Bussyn.Topology.dot result.G.generated
          else G.wire_library_text result
        in
        (match out with
        | None -> print_string text
        | Some file ->
            let oc = open_out file in
            output_string oc text;
            close_out oc;
            Printf.printf "wrote %s\n" file);
        0
  in
  Cmd.v
    (Cmd.info "wires"
       ~doc:"Dump the Wire Library of a generated Bus System, or validate \
             a Wire Library file (the paper's Fig. 15 ASCII format).")
    Term.(const run $ arch_arg $ out_arg $ check_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* wizard                                                              *)
(* ------------------------------------------------------------------ *)

let wizard_cmd =
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the resulting options file to FILE (default: print \
                to stdout).")
  in
  let run out =
    let read () = try Some (input_line stdin) with End_of_file -> None in
    let emit line =
      print_endline line;
      flush stdout
    in
    match Bussyn.Wizard.run ~read ~emit with
    | Error msg ->
        prerr_endline ("wizard: " ^ msg);
        1
    | Ok opts -> (
        let text = Bussyn.Options_text.print opts in
        (match out with
        | None -> print_string text
        | Some file ->
            let oc = open_out file in
            output_string oc text;
            close_out oc;
            Printf.printf
              "wrote %s (generate with: bussyn_cli generate --options %s)\n"
              file file);
        match G.from_options opts with
        | Ok r ->
            Printf.printf "dispatches to %s, %d PE(s)\n"
              (G.arch_name r.G.arch) r.G.config.Bussyn.Archs.n_pes;
            0
        | Error msg ->
            Printf.printf "note: %s\n" msg;
            0)
  in
  Cmd.v
    (Cmd.info "wizard"
       ~doc:"Walk the paper's option tree (Fig. 18) interactively and \
             produce an options file for generate --options.")
    Term.(const run $ out_arg)

(* ------------------------------------------------------------------ *)
(* explore                                                             *)
(* ------------------------------------------------------------------ *)

let explore_cmd =
  let module X = Busgen_explore.Explore in
  let module Xp = Busgen_explore.Profile in
  let module Json = Busgen_json.Json in
  let profile_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Traffic/application profile file (key = value lines: seed, \
             transactions, pes, archs, widths, depths, arbs, protect, \
             faults, fault_seed).  Omitted keys take their defaults; the \
             grid flags below override the file.")
  in
  (* Every grid flag is a raw profile value: the override text is fed
     through the same Profile.parse as the file, so validation and
     error wording cannot drift between the two paths. *)
  let override key name doc =
    ( Arg.(
        value
        & opt (some string) None
        & info [ name ] ~docv:"V" ~doc),
      key )
  in
  let seed_arg, seed_key = override "seed" "seed" "Traffic RNG root seed." in
  let txn_arg, txn_key =
    override "transactions" "transactions"
      "Blocking transactions driven per candidate."
  in
  let pes_arg, pes_key = override "pes" "pes" "Processing elements (2-8)." in
  let archs_arg, archs_key =
    override "archs" "archs"
      "Comma-separated architectures to sweep (default: all 8)."
  in
  let widths_arg, widths_key =
    override "widths" "widths" "Comma-separated bus data widths (8/16/32/64)."
  in
  let depths_arg, depths_key =
    override "depths" "depths"
      "Comma-separated Bi-FIFO depths (powers of two in [2, 1024])."
  in
  let arbs_arg, arbs_key =
    override "arbs" "arbs"
      "Comma-separated arbitration policies (priority, rr, fcfs)."
  in
  let protect_arg, protect_key =
    override "protect" "protect"
      "Sweep bus protection hardware: true, false or both."
  in
  let faults_arg, faults_key =
    override "faults" "faults"
      "Fault injections per candidate for the reliability score (0 = \
       skip the campaign)."
  in
  let fault_seed_arg, fault_seed_key =
    override "fault_seed" "fault-seed" "Fault-campaign RNG seed."
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the canonical JSON front (profile hash, Pareto front, \
             ranked points, casualties) instead of the table.  \
             Byte-identical for every -j and \
             across a --sweep-ckpt resume.")
  in
  let run profile seed txns pes archs widths depths arbs protect faults
      fault_seed json jobs deadline retries worker_mem_mb worker_cpu_s
      sweep_ckpt sweep_every engine =
    let ekind = engine_of_string engine in
    let policy =
      Sv.policy
        ?deadline:(parse_job_deadline deadline)
        ~retries:(parse_job_retries retries) ()
    in
    let workers = worker_config ~worker_mem_mb ~worker_cpu_s in
    let file_text =
      match profile with
      | None -> ""
      | Some path -> (
          match
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with
          | text -> text
          | exception Sys_error msg -> failwith msg)
    in
    let overrides =
      List.filter_map
        (fun (key, v) ->
          Option.map (fun v -> Printf.sprintf "%s = %s" key v) v)
        [ (seed_key, seed); (txn_key, txns); (pes_key, pes);
          (archs_key, archs); (widths_key, widths); (depths_key, depths);
          (arbs_key, arbs); (protect_key, protect); (faults_key, faults);
          (fault_seed_key, fault_seed) ]
    in
    let p =
      match
        Xp.parse (file_text ^ "\n" ^ String.concat "\n" overrides ^ "\n")
      with
      | Ok p -> p
      | Error msg -> failwith ("profile: " ^ msg)
    in
    let total = Xp.n_candidates p in
    install_interrupt_handlers ();
    let module Sweep = Busgen_ckpt.Sweep in
    (* The checkpoint identity is the profile hash: resuming a sweep
       with a different search space must refuse, not silently mix. *)
    let sweep =
      match sweep_ckpt with
      | None -> None
      | Some dir -> (
          let ident = Printf.sprintf "explore/profile=%s" (Xp.hash p) in
          match
            Sweep.load ~log:prerr_endline ~every:sweep_every ~dir ~ident
              ~total ()
          with
          | Error msg -> failwith msg (* user error: exit 2 *)
          | Ok t ->
              let done_ = Sweep.completed t in
              if done_ > 0 then
                Printf.eprintf
                  "[sweep] resuming: %d/%d candidates already scored\n%!"
                  done_ total;
              Some t)
    in
    let skip =
      Option.map
        (fun t i ->
          match Sweep.lookup t i with
          | None -> None
          | Some payload -> (
              match X.decode_score payload with
              | Ok s -> Some s
              | Error why ->
                  Printf.eprintf
                    "[sweep] candidate %d: corrupt payload (%s); \
                     re-scoring\n\
                     %!"
                    i why;
                  None))
        sweep
    in
    let on_case =
      Option.map (fun t i s -> Sweep.note t i (X.encode_score s)) sweep
    in
    match
      X.run ~engine:ekind ~jobs ~policy ~backend:(X.worker_backend workers)
        ~on_progress:(Sv.progress_line ~label:"explore" ())
        ?on_case ?skip ~should_stop p
    with
    | exception Sv.Interrupted ->
        (match (sweep, sweep_ckpt) with
        | Some t, Some dir ->
            Sweep.save t;
            Printf.eprintf
              "explore: interrupted — sweep checkpoint flushed to %s\n%!" dir
        | _ -> prerr_endline "explore: interrupted");
        exit_interrupted
    | report ->
        (match sweep with None -> () | Some t -> Sweep.save t);
        if json then print_endline (Json.to_string (X.front_json report))
        else print_string (X.report_text report);
        if report.X.x_casualties <> [] then exit_partial else 0
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Design-space exploration: score every candidate in the \
          architecture × width × depth × arbitration × protection grid of \
          a traffic profile (simulated cycles, gate count, reliability \
          under injected faults) on the supervised worker pool, and emit \
          a deterministic Pareto front as a ranked table or canonical \
          JSON.  Crash-resumable with --sweep-ckpt.")
    Term.(
      const run $ profile_arg $ seed_arg $ txn_arg $ pes_arg $ archs_arg
      $ widths_arg $ depths_arg $ arbs_arg $ protect_arg $ faults_arg
      $ fault_seed_arg $ json_arg $ jobs_arg $ deadline_arg $ retries_arg
      $ worker_mem_arg $ worker_cpu_arg $ sweep_ckpt_arg $ sweep_every_arg
      $ engine_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Server = Busgen_serve.Server in
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve on stdin/stdout instead of a Unix socket: one client, \
             EOF on stdin drains and exits.  The transport the protocol \
             tests and the CI chaos step drive.")
  in
  let socket_arg =
    Arg.(
      value & opt string "bussyn.sock"
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Unix-domain socket path to listen on (or to connect to, for \
             --ping / --send).  A stale socket left by a SIGKILLed server \
             is replaced; a live one is a user error (exit 2).")
  in
  let journal_arg =
    Arg.(
      value & opt string "serve-journal"
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Journal directory.  Every accepted job is appended here \
             before it is queued, so a crashed or SIGKILLed server re-runs \
             accepted-but-unfinished jobs exactly once on restart.")
  in
  let no_journal_arg =
    Arg.(
      value & flag
      & info [ "no-journal" ]
          ~doc:
            "Run with a volatile queue: no write-ahead journal, no crash \
             recovery.  For benchmarking the journaling overhead.")
  in
  let queue_depth_arg =
    Arg.(
      value & opt string "256"
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Backpressure bound: cap on accepted-but-unfinished jobs.  \
             Past it new jobs are rejected with an immediate $(i,overloaded) \
             reply instead of growing the queue without bound.")
  in
  let inflight_arg =
    Arg.(
      value & opt string "64"
      & info [ "client-inflight" ] ~docv:"N"
          ~doc:
            "Per-client cap on unfinished jobs, so one greedy client \
             cannot monopolize the queue; past it that client gets \
             $(i,overloaded) while others are still admitted.")
  in
  let max_frame_arg =
    Arg.(
      value & opt string "1024"
      & info [ "max-frame-kb" ] ~docv:"KB"
          ~doc:
            "Request-line byte cap in KiB.  An oversized line gets one \
             $(i,oversized) error reply and is discarded; the connection \
             keeps serving.")
  in
  let circuit_cache_arg =
    Arg.(
      value & opt string "64"
      & info [ "circuit-cache" ] ~docv:"N"
          ~doc:
            "Bounded LRU cap on memoized generated circuits (keyed by \
             design hash).  Hit/miss/eviction counters are in the \
             $(i,stats) reply.")
  in
  let debug_kinds_arg =
    Arg.(
      value & flag
      & info [ "debug-kinds" ]
          ~doc:
            "Also accept the supervision-exercise job kinds (sleep, spin, \
             crash, fail).  For tests and operators probing the deadline / \
             quarantine machinery; off by default.")
  in
  let ping_arg =
    Arg.(
      value & flag
      & info [ "ping" ]
          ~doc:
            "Client mode: connect to --socket, send a health request, \
             print the one-line reply and exit 0; exit 2 with one line on \
             stderr if no server answers.")
  in
  let send_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "send" ] ~docv:"FILE"
          ~doc:
            "Client mode: send every line of FILE (- for stdin) to \
             --socket as a request and print each reply line to stdout.")
  in
  let dump_journal_arg =
    Arg.(
      value & flag
      & info [ "dump-journal" ]
          ~doc:
            "Offline: print every --journal record as one JSON line plus \
             a summary (corrupt/torn counts), then exit.")
  in
  let dump_replies_arg =
    Arg.(
      value & flag
      & info [ "dump-replies" ]
          ~doc:
            "Offline: print the reply line of every resolved job in the \
             --journal, sorted by request id — the view the CI chaos step \
             byte-diffs across a SIGKILL/restart.")
  in
  let parse_count ~flag ~min s =
    match int_of_string_opt s with
    | Some v when v >= min -> v
    | _ ->
        failwith
          (Printf.sprintf "invalid %s %S (expected an integer >= %d)" flag s
             min)
  in
  let run stdio socket journal no_journal queue_depth inflight max_frame_kb
      circuit_cache debug_kinds ping send dump_journal dump_replies
      jobs deadline retries worker_mem_mb worker_cpu_s =
    if ping then (
      match Server.ping ~socket with
      | Ok line ->
          print_endline line;
          0
      | Error e -> failwith e)
    else
      match send with
      | Some path -> (
          match Server.send_file ~socket ~path () with
          | Ok _replies -> 0
          | Error e -> failwith e)
      | None ->
          if dump_journal then (
            match Server.dump_journal ~dir:journal with
            | Ok () -> 0
            | Error e -> failwith e)
          else if dump_replies then (
            match Server.dump_replies ~dir:journal with
            | Ok () -> 0
            | Error e -> failwith e)
          else begin
            let policy =
              Sv.policy
                ~deadline:
                  (Option.value (parse_job_deadline deadline) ~default:30.)
                ~retries:(parse_job_retries retries) ()
            in
            let limits = worker_config ~worker_mem_mb ~worker_cpu_s in
            let cfg =
              Server.config
                ~journal:(if no_journal then None else Some journal)
                ~queue_depth:
                  (parse_count ~flag:"--queue-depth" ~min:1 queue_depth)
                ~client_inflight:
                  (parse_count ~flag:"--client-inflight" ~min:1 inflight)
                ~policy ~jobs ~limits
                ~max_frame:
                  (1024 * parse_count ~flag:"--max-frame-kb" ~min:1 max_frame_kb)
                ~debug_kinds
                ~circuit_cap:
                  (parse_count ~flag:"--circuit-cache" ~min:1 circuit_cache)
                (if stdio then Server.Stdio else Server.Socket socket)
            in
            Server.run cfg
          end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run BusSyn as a persistent daemon: newline-delimited JSON \
          requests (generate, simulate, verify, fuzz, inject, explore, \
          health, stats, drain) over a Unix socket or stdio, with a \
          write-ahead journaled queue (SIGKILL-safe exactly-once \
          execution), supervised worker processes, bounded-queue \
          backpressure and graceful drain on SIGTERM.")
    Term.(
      const run $ stdio_arg $ socket_arg $ journal_arg $ no_journal_arg
      $ queue_depth_arg $ inflight_arg $ max_frame_arg $ circuit_cache_arg
      $ debug_kinds_arg $ ping_arg $ send_arg $ dump_journal_arg
      $ dump_replies_arg $ jobs_arg $ deadline_arg $ retries_arg
      $ worker_mem_arg $ worker_cpu_arg)

let () =
  let doc =
    "BusSyn: automated bus generation for multiprocessor SoC design \
     (reproduction of Ryu & Mooney, DATE 2003)."
  in
  let info = Cmd.info "bussyn_cli" ~version:"1.0" ~doc in
  let cmd =
    Cmd.group info
      [ generate_cmd; list_cmd; simulate_cmd; inject_cmd; soak_cmd;
        verify_cmd; wires_cmd; explore_cmd; wizard_cmd; serve_cmd ]
  in
  (* Option-level rejections (bad architecture/flag combinations,
     malformed or missing options files) are user errors, not crashes:
     one line on stderr and exit 2, the same convention as
     `verify --replay` and `wires --check`.  Exit 1 stays reserved for
     a *check that ran and failed* (dirty lint, fuzz failures, replay
     mismatch, soak mismatch), so scripted flows can tell "you asked
     wrong" from "the design is wrong". *)
  let code =
    try Cmd.eval' ~catch:false cmd
    with Invalid_argument msg | Failure msg | Sys_error msg ->
      prerr_endline ("bussyn_cli: " ^ msg);
      2
  in
  exit code
