(* Benchmark harness: regenerates every measured table of the paper
   (Tables II, III, IV and V) and runs the ablation studies listed in
   DESIGN.md.  Paper reference values are printed beside ours; absolute
   agreement is not expected (our substrate is a simulator, not the
   authors' Seamless CVE testbed), but the orderings and rough factors
   should hold.

   Four more sections time what the repeated, calibrated benchmark in
   perfbench/ (BENCHMARK.json) does not measure yet: the bus fault
   model, the property monitors, checkpointing, and the serve journal's
   overhead.  Each writes BENCH_<section>.json at the working
   directory.  Every other speed number comes from perfbench. *)

open Busgen_apps
module G = Bussyn.Generate
module Machine = Busgen_sim.Machine

let line = String.make 78 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

let all_sections =
  [ "table1"; "table2"; "table3"; "table4"; "table5"; "ablations"; "faults";
    "monitors"; "soak"; "serve" ]

(* Sections selected on the command line ([] = everything), e.g.
   `dune exec bench/main.exe -- table5 serve` for a CI smoke run.  An
   unknown name is a user error: one line on stderr and exit 2, before
   any section runs. *)
let sections =
  let args = List.tl (Array.to_list Sys.argv) in
  match List.find_opt (fun s -> not (List.mem s all_sections)) args with
  | Some s ->
      Printf.eprintf "bench: unknown section %s (expected %s)\n" s
        (String.concat ", " all_sections);
      exit 2
  | None -> args

let want name = sections = [] || List.mem name sections

(* ------------------------------------------------------------------ *)
(* Table II: OFDM transmitter                                          *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table I - OFDM function assignment for PPA (static, from the paper)";
  List.iter
    (fun (group, ban, fns) ->
      Printf.printf "%-3s %-7s %s\n" group ban (String.concat "; " fns))
    Ofdm.function_groups;
  print_string
    "[note] Functions marked * run once at startup and are excluded from\n\
    \       throughput, as in the paper.  The paper's figures carry no\n\
    \       measured data (they are block diagrams and FSMs); regenerate\n\
    \       the architecture diagrams with `bussyn_cli wires --dot`.\n"

let table2 () =
  header
    "Table II - OFDM transmitter throughput [Mbps] (4 MPC755s, 8 packets)";
  Printf.printf "%-5s %-9s %-6s %10s %10s %8s\n" "Case" "Bus" "Style" "ours"
    "paper" "ratio";
  let cases =
    List.map
      (fun (case, arch, style, paper) ->
        ( case, arch,
          (match style with `Ppa -> Ofdm.Ppa | `Fpa -> Ofdm.Fpa),
          paper ))
      Paper_data.table2
  in
  List.iter
    (fun (case, arch, style, paper) ->
      let r = Ofdm.run arch style in
      Printf.printf "%-5s %-9s %-6s %10.4f %10.4f %8.2f\n%!" case
        (G.arch_name arch) (Ofdm.style_name style) r.Ofdm.throughput_mbps
        paper
        (r.Ofdm.throughput_mbps /. paper))
    cases;
  (* Beyond the paper: GBAVII, the version the paper says "could easily
     be added to our tool". *)
  List.iter
    (fun (arch, style) ->
      let r = Ofdm.run arch style in
      Printf.printf "  (extra) %-9s %-6s %10.4f\n%!" (G.arch_name arch)
        (Ofdm.style_name style) r.Ofdm.throughput_mbps)
    [ (G.Gbavii, Ofdm.Ppa); (G.Gbavii, Ofdm.Fpa) ];
  print_string
    "[note] Paper Table II labels cases 2 and 9 'FPA'; its observation (D)\n\
    \       compares them as PPA-style cases, which is also the only style\n\
    \       GBAVI supports without a shared memory.  We follow (D).\n"

(* ------------------------------------------------------------------ *)
(* Table III: MPEG2 decoder                                            *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table III - MPEG2 decoder throughput [Mbps] (16x16 pictures, FPA)";
  Printf.printf "%-5s %-9s %10s %10s %8s\n" "Case" "Bus" "ours" "paper" "ratio";
  let cases = Paper_data.table3 in
  let thr = Hashtbl.create 8 in
  List.iter
    (fun (case, arch, paper) ->
      let r = Mpeg2.run arch in
      Hashtbl.replace thr arch r.Mpeg2.throughput_mbps;
      Printf.printf "%-5s %-9s %10.4f %10.4f %8.2f\n%!" case
        (G.arch_name arch) r.Mpeg2.throughput_mbps paper
        (r.Mpeg2.throughput_mbps /. paper))
    cases;
  let r = Mpeg2.run G.Gbavii in
  Printf.printf "  (extra) %-9s %10.4f\n%!" (G.arch_name G.Gbavii)
    r.Mpeg2.throughput_mbps;
  let h = Hashtbl.find thr G.Hybrid and c = Hashtbl.find thr G.Ccba in
  Printf.printf "[check] Hybrid over CCBA: %+.2f%% (paper: +%.2f%%)\n"
    (100. *. (h -. c) /. c)
    (100. *. Paper_data.hybrid_over_ccba)

(* ------------------------------------------------------------------ *)
(* Table IV: database example                                          *)
(* ------------------------------------------------------------------ *)

let table4 () =
  header "Table IV - database example execution time [ns] (41 RTOS tasks)";
  Printf.printf "%-5s %-9s %12s %12s %8s\n" "Case" "Bus" "ours" "paper" "ratio";
  let results =
    List.map
      (fun (case, arch, paper) ->
        let r = Database.run arch in
        Printf.printf "%-5s %-9s %12.0f %12.0f %8.2f\n%!" case
          (G.arch_name arch) r.Database.execution_time_ns paper
          (r.Database.execution_time_ns /. paper);
        r.Database.execution_time_ns)
      Paper_data.table4
  in
  (match results with
  | [ ggba; split ] ->
      Printf.printf
        "[check] SplitBA reduction over GGBA: %.1f%% (paper: %.1f%%)\n"
        (100. *. (ggba -. split) /. ggba)
        (100. *. Paper_data.splitba_reduction)
  | _ -> ());
  List.iter
    (fun arch ->
      let r = Database.run arch in
      Printf.printf "  (extra) %-9s %12.0f\n%!" (G.arch_name arch)
        r.Database.execution_time_ns)
    [ G.Gbavii; G.Gbaviii; G.Hybrid; G.Ccba ]

(* ------------------------------------------------------------------ *)
(* Table V: generation time and gate count                             *)
(* ------------------------------------------------------------------ *)

let table5 () =
  header "Table V - BusSyn generation time [ms] and NAND2 gate count";
  let paper = Paper_data.table5 @ [ (G.Gbavii, []) (* beyond the paper *) ] in
  Printf.printf "%-9s %5s %10s %12s %12s\n" "Bus" "PEs" "time[ms]"
    "gates(ours)" "gates(paper)";
  List.iter
    (fun (arch, rows) ->
      List.iter
        (fun n ->
          match Bussyn.Preset.scaled ~arch ~n_pes:n with
          | None ->
              Printf.printf "%-9s %5d %10s %12s %12s\n" (G.arch_name arch) n
                "N/A" "N/A" "N/A"
          | Some opts -> (
              match G.from_options opts with
              | Error e ->
                  Printf.printf "%-9s %5d  ERROR %s\n" (G.arch_name arch) n e
              | Ok r ->
                  let paper_gates =
                    match List.assoc_opt n rows with
                    | Some g -> string_of_int g
                    | None -> "-"
                  in
                  Printf.printf "%-9s %5d %10.1f %12d %12s\n%!"
                    (G.arch_name arch) n r.G.generation_time_ms r.G.gate_count
                    paper_gates))
        [ 1; 8; 16; 24 ])
    paper;
  print_string
    "[note] Our gate model counts the full generated interface logic\n\
    \       (address decoders, bus multiplexers), landing a few times\n\
    \       above the paper's Synopsys numbers; the linear growth with\n\
    \       processor count, the Hybrid maximum and the SplitBA minimum\n\
    \       are preserved.  Generation takes milliseconds (paper: ~0.5 s\n\
    \       on a 2002 UltraSPARC; about a week by hand).\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let db_config arch ~policy =
  let base = Machine.default_config arch ~n_pes:4 in
  {
    base with
    Machine.policy;
    var_home =
      (fun name ->
        match String.index_opt name '#' with
        | None -> 0
        | Some i ->
            int_of_string (String.sub name (i + 1) (String.length name - i - 1)));
    timing =
      { base.Machine.timing with
        Busgen_sim.Timing.miss_rate_num = 1; miss_rate_den = 8 };
  }

let ablation_arbiter () =
  header "Ablation - arbitration policy (database example on GGBA)";
  List.iter
    (fun (name, policy) ->
      let r = Database.run ~config:(db_config G.Ggba ~policy) G.Ggba in
      Printf.printf "%-15s %12.0f ns\n%!" name r.Database.execution_time_ns)
    [
      ("FCFS (paper)", Machine.Fcfs);
      ("fixed priority", Machine.Fixed_priority);
      ("round robin", Machine.Round_robin);
    ]

let ablation_fifo_depth () =
  header "Ablation - Bi-FIFO depth (user option 3.3), bursty consumer";
  (* A steady producer feeds a consumer that drains in bursts (compute,
     then drain): a deep Bi-FIFO absorbs the bursts, a shallow one
     stalls the producer.  The OFDM pipeline itself is insensitive to
     depth beyond one 64-word chunk, which is why the paper's default
     1024 is comfortable. *)
  let module Program = Busgen_sim.Program in
  let module P = Busgen_sim.Program in
  let rounds = 40 in
  List.iter
    (fun depth ->
      let config =
        { (Machine.default_config G.Bfba ~n_pes:2) with
          Machine.fifo_depth = depth }
      in
      let producer =
        Program.concat
          [
            P.of_list [ P.Fifo_set_threshold (1, 64) ];
            P.repeat rounds (fun _ ->
                [ P.Compute 16; P.Fifo_push (1, 64) ]);
            P.of_list [ P.Halt ];
          ]
      in
      let consumer =
        Program.concat
          [
            P.repeat (rounds / 4) (fun _ ->
                P.Compute 600
                :: List.concat
                     (List.init 4 (fun _ -> [ P.Wait_fifo_irq; P.Fifo_pop 64 ])));
            P.of_list [ P.Halt ];
          ]
      in
      let stats = Machine.run config [| producer; consumer |] in
      (* The consumer's burstiness bounds the wall clock; what the depth
         buys is producer decoupling: blocked-on-full cycles vanish as
         the FIFO deepens (the producer retires early). *)
      Printf.printf "depth %5d: %7d cycles, producer blocked %6d cycles\n%!"
        depth stats.Machine.cycles stats.Machine.pe_wait.(0))
    [ 64; 128; 256; 1024; 4096 ]

let ablation_miss_rate () =
  header "Ablation - shared program memory cost (OFDM FPA, GGBA vs GBAVIII)";
  List.iter
    (fun den ->
      let run arch =
        let base = Machine.default_config arch ~n_pes:4 in
        let config =
          { base with
            Machine.timing =
              { base.Machine.timing with
                Busgen_sim.Timing.miss_rate_num = 1; miss_rate_den = den } }
        in
        (Ofdm.run ~config arch Ofdm.Fpa).Ofdm.throughput_mbps
      in
      let ggba = run G.Ggba and gbaviii = run G.Gbaviii in
      Printf.printf "miss 1/%-5d GGBA %7.4f  GBAVIII %7.4f  gap %5.1f%%\n%!"
        den ggba gbaviii
        (100. *. (gbaviii -. ggba) /. gbaviii))
    [ 2000; 1000; 500; 200; 100 ]

let ablation_handshake () =
  header
    "Ablation - handshake protocol (OFDM PPA on GBAVIII; paper Sec. IV.C)";
  List.iter
    (fun (name, protocol) ->
      let r = Ofdm.run ~protocol G.Gbaviii Ofdm.Ppa in
      Printf.printf "%-28s %8.4f Mbps\n%!" name r.Ofdm.throughput_mbps)
    [
      ("2 registers (paper, Ex. 2)", Comm.Two_reg);
      ("3 registers (classical [21])", Comm.Three_reg);
    ]

let ablation_arb_latency () =
  header "Ablation - global arbitration latency (OFDM FPA on GBAVIII)";
  List.iter
    (fun arb ->
      let base = Machine.default_config G.Gbaviii ~n_pes:4 in
      let config =
        { base with
          Machine.timing =
            { base.Machine.timing with Busgen_sim.Timing.arb_cycles = arb } }
      in
      let r = Ofdm.run ~config G.Gbaviii Ofdm.Fpa in
      Printf.printf "arb %2d cycles: %8.4f Mbps\n%!" arb r.Ofdm.throughput_mbps)
    [ 1; 3; 5; 8; 16 ]

let ablation_scalability () =
  header "Ablation - FPA scalability with PE count (OFDM on GBAVIII)";
  List.iter
    (fun n ->
      let config = Machine.default_config G.Gbaviii ~n_pes:n in
      let programs =
        Ofdm.programs ~arch:G.Gbaviii ~style:Ofdm.Fpa ~n_pes:n ~packets:(2 * n)
          ()
      in
      let stats = Machine.run config programs in
      let thr =
        Machine.throughput_mbps
          ~bits:(2 * n * Ofdm.Kernel.bits_per_packet)
          ~cycles:stats.Machine.cycles
      in
      Printf.printf "%2d PEs: %8.4f Mbps (%.2fx of 2 PEs per PE pair)\n%!" n
        thr (thr /. 2.26))
    [ 2; 4; 8 ]

let ablation_bus_energy () =
  header
    "Ablation - relative bus energy (database; paper's bus-splitting power \
claim)";
  let baseline = ref 1.0 in
  List.iter
    (fun arch ->
      let r = Database.run ~trace:true arch in
      let e = Busgen_sim.Analysis.bus_energy r.Database.stats ~n_pes:4 in
      if arch = G.Ggba then baseline := e;
      Printf.printf "%-9s %12.0f units (%.0f%% of GGBA)\n%!"
        (G.arch_name arch) e (100.0 *. e /. !baseline))
    [ G.Ggba; G.Splitba; G.Gbaviii; G.Gbavii ]

let ablation_bus_width () =
  header
    "Ablation - data-bus width vs generated hardware cost (4 PEs)";
  Printf.printf "%-9s %6s %12s %10s %8s\n" "Bus" "width" "gates" "regs"
    "levels";
  List.iter
    (fun arch ->
      List.iter
        (fun dw ->
          let c =
            {
              (Bussyn.Archs.paper_config ~n_pes:4) with
              Bussyn.Archs.bus_data_width = dw;
            }
          in
          let r = G.generate arch c in
          Printf.printf "%-9s %6d %12d %10d %8d\n%!" (G.arch_name arch) dw
            r.G.gate_count r.G.register_bits r.G.depth_levels)
        [ 32; 64; 128 ])
    [ G.Gbaviii; G.Bfba ];
  print_string
    "[note] Gate count tracks the datapath width roughly linearly (the\n\
    \       bus muxes, FIFOs and interface registers are all dw bits\n\
    \       wide) while the critical path barely moves — decode and\n\
    \       arbitration depth depends on the address map and master\n\
    \       count, not the data width.  User option 3.2 is therefore a\n\
    \       pure area/bandwidth trade.\n"

let ablation_splitba_subsystems () =
  header
    "Ablation - SplitBA generalized to N subsystems (12 PEs, local traffic)";
  let base_cycles = ref 0 in
  List.iter
    (fun n_ss ->
      let c =
        {
          (Machine.default_config G.Splitba ~n_pes:12) with
          Machine.n_subsystems = n_ss;
        }
      in
      let programs =
        Array.init 12 (fun _ ->
            Busgen_sim.Program.of_list
              (List.concat
                 (List.init 40 (fun _ ->
                      [ Busgen_sim.Program.Compute 5;
                        Busgen_sim.Program.Read (Busgen_sim.Program.Loc_local, 8);
                        Busgen_sim.Program.Write (Busgen_sim.Program.Loc_local, 8)
                      ]))
              @ [ Busgen_sim.Program.Halt ]))
      in
      let stats = Machine.run c programs in
      if n_ss = 2 then base_cycles := stats.Machine.cycles;
      Printf.printf
        "%2d subsystems: %8d cycles  (%.2fx vs 2 subsystems)\n%!" n_ss
        stats.Machine.cycles
        (float_of_int !base_cycles /. float_of_int stats.Machine.cycles))
    [ 2; 3; 4; 6 ];
  print_string
    "[note] Each added subsystem splits the shared-memory traffic over\n\
    \       one more arbiter — the mechanism behind Table IV's 41%\n\
    \       reduction, extended past the paper's two subsystems (the\n\
    \       generator builds the full bridge mesh; splitba_n).\n"

let ablation_l1_model () =
  header
    "Ablation - rational miss constant vs simulated L1 (OFDM FPA, GBAVIII)";
  let base = Machine.default_config G.Gbaviii ~n_pes:4 in
  let rational = Ofdm.run ~config:base G.Gbaviii Ofdm.Fpa in
  Printf.printf "rational 1/%d constant:   %8.4f Mbps\n%!"
    base.Machine.timing.Busgen_sim.Timing.miss_rate_den
    rational.Ofdm.throughput_mbps;
  List.iter
    (fun (nm, l1) ->
      let r =
        Ofdm.run ~config:{ base with Machine.l1 = Some l1 } G.Gbaviii Ofdm.Fpa
      in
      Printf.printf "%-24s %8.4f Mbps  (%+5.1f%%)\n%!" nm
        r.Ofdm.throughput_mbps
        (100.0
        *. (r.Ofdm.throughput_mbps -. rational.Ofdm.throughput_mbps)
        /. rational.Ofdm.throughput_mbps))
    [ ("MPC755-like 32K 8-way:", Busgen_sim.Cache.mpc755_l1);
      ("small 2K direct-mapped:",
       { Busgen_sim.Cache.line_words = 4; sets = 128; ways = 1 }) ];
  print_string
    "[note] The calibrated 1/1000 constant reproduces the MPC755-sized\n\
    \       L1 within a fraction of a percent — the OFDM kernels are\n\
    \       cache-resident on the paper's hardware, which is exactly\n\
    \       what the constant encodes.  Shrinking the cache to 2 KB\n\
    \       halves throughput: program-memory traffic starts competing\n\
    \       for the shared bus (the mechanism of observation (B)).\n"

let ablation_cache_derivation () =
  header
    "Ablation - cache-derived miss rates vs the Timing calibration constants";
  let module C = Busgen_sim.Cache in
  let run name trace used =
    let c = C.create C.mpc755_l1 in
    List.iter (fun a -> ignore (C.access c a)) trace;
    let st = C.stats c in
    Printf.printf "%-22s %9d accesses %8d misses   rate 1/%-6.0f %s\n%!" name
      st.C.accesses st.C.misses
      (1.0 /. Float.max 1e-9 (C.miss_rate c))
      used
  in
  run "OFDM 4096-pt FFT" (C.Trace.fft ~n:4096) "(calibrated 1/1000)";
  run "OFDM guard streaming"
    (C.Trace.streaming ~words:40_000)
    "(single-pass floor: 1/line)";
  (* A GOP re-reads its reference frame for every predicted frame. *)
  run "MPEG2 8x8 blocks, GOP"
    (List.concat (List.init 4 (fun _ -> C.Trace.blocked8 ~frames:8 ~width:64)))
    "(calibrated 1/50, +syntax)";
  run "database random objects"
    (C.Trace.db_random ~objects:512 ~object_words:100 ~accesses:400)
    "(calibrated 1/8)";
  print_string
    "[note] Rates are per memory access on an MPC755-like L1 (32 KB,\n\
    \       8-way, 8-word lines); the Timing constants are per compute\n\
    \       cycle, so each calibrated value folds in the kernel's\n\
    \       accesses-per-cycle density.  The ordering that drives the\n\
    \       paper's results — OFDM nearly cache-resident, MPEG2 in\n\
    \       between, the database thrashing — falls out of the access\n\
    \       shapes themselves.\n"

let ablation_area_by_module () =
  header "Ablation - area by module (Hybrid, 4 PEs; heaviest first)";
  let r = G.generate G.Hybrid (Bussyn.Archs.paper_config ~n_pes:4) in
  let rows = Busgen_rtl.Area.by_instance r.G.generated.Bussyn.Archs.top in
  let total = List.fold_left (fun a (_, _, g) -> a + g) 0 rows in
  List.iter
    (fun (m, n, g) ->
      Printf.printf "%-28s x%-3d %10d gates  (%4.1f%%)\n" m n g
        (100.0 *. float_of_int g /. float_of_int total))
    rows;
  Printf.printf "%-28s %14d gates\n%!" "TOTAL" total;
  print_string
    "[note] The BAN interfaces dominate (one CBI + MBI + HS + Bi-FIFO\n\
    \       block per processor), which is why Table V grows linearly\n\
    \       with PE count and Hybrid — carrying both the FIFO ring and\n\
    \       the global-bus interfaces — is the heaviest architecture.\n"

let ablation_depth () =
  header
    "Ablation - combinational critical path per architecture (gate levels)";
  Printf.printf "%-9s %8s %14s   %s\n" "Bus" "levels" "gates" "path endpoint";
  List.iter
    (fun arch ->
      let r = G.generate arch (Bussyn.Archs.paper_config ~n_pes:4) in
      let d = Busgen_rtl.Depth.of_circuit r.G.generated.Bussyn.Archs.top in
      Printf.printf "%-9s %8d %14d   %s\n%!" (G.arch_name arch)
        d.Busgen_rtl.Depth.levels r.G.gate_count d.Busgen_rtl.Depth.endpoint)
    [ G.Bfba; G.Gbavi; G.Gbavii; G.Gbaviii; G.Hybrid; G.Splitba; G.Ggba;
      G.Ccba ];
  print_string
    "[note] Depth complements Table V's area: the bridged segment chains\n\
    \       of GBAVI/GBAVII are the deepest (a neighbour read threads\n\
    \       decode -> bridge -> far-segment decode combinationally), CCBA\n\
    \       pays for its many-master arbitration, while BFBA's\n\
    \       point-to-point FIFOs and GGBA's single hub keep paths short.\n"

(* The middle element of a non-empty sample. *)
let median l = List.nth (List.sort compare l) (List.length l / 2)

(* ------------------------------------------------------------------ *)
(* Fault model: overhead of the armed-but-silent machinery, and the    *)
(* cost of actually injected faults (retries + watchdog stalls)        *)
(* ------------------------------------------------------------------ *)

type fault_row = {
  fr_name : string;
  fr_ns_per_run : float;
  fr_cycles : int;
  fr_words : int;
  fr_errors : int;
  fr_timeouts : int;
  fr_retries : int;
  fr_unrecovered : int;
}

let fault_rows : fault_row list ref = ref []

let bench_faults () =
  header "Fault model - OFDM/FPA on GBAVIII, disabled vs armed vs injecting";
  let variants =
    [
      ("disabled", None);
      ("armed-rate0", Some (Busgen_sim.Machine.fault_config ~seed:1 ~rate:0.0 ()));
      ("rate-2e-2", Some (Busgen_sim.Machine.fault_config ~seed:1 ~rate:0.02 ()));
      ("rate-1e-1", Some (Busgen_sim.Machine.fault_config ~seed:1 ~rate:0.1 ()));
    ]
  in
  let go faults = Ofdm.run ?faults ~packets:2 G.Gbaviii Ofdm.Fpa in
  (* One untimed run per variant warms up and yields its counters.  The
     timed runs then take turns, one run of each variant per round, so
     the host's speed drift falls on every variant alike; a variant's
     time is the median of its rounds. *)
  let firsts = List.map (fun (_, faults) -> go faults) variants in
  let times = Array.make (List.length variants) [] in
  for _ = 1 to 15 do
    List.iteri
      (fun i (_, faults) ->
        let t0 = Unix.gettimeofday () in
        ignore (go faults);
        times.(i) <- ((Unix.gettimeofday () -. t0) *. 1e9) :: times.(i))
      variants
  done;
  Printf.printf "%-14s %12s %10s %8s %8s %8s\n" "variant" "ns/run" "cycles"
    "faults" "retries" "unrec";
  List.iteri
    (fun i ((nm, _), r) ->
      let ns = median times.(i) in
      let s = r.Ofdm.stats in
      let errors, timeouts, retries, unrecovered =
        match s.Busgen_sim.Machine.reliability with
        | None -> (0, 0, 0, 0)
        | Some rel ->
            Busgen_sim.Machine.(
              (rel.r_errors, rel.r_timeouts, rel.r_retries, rel.r_unrecovered))
      in
      Printf.printf "%-14s %12.0f %10d %8d %8d %8d\n%!" nm ns
        s.Busgen_sim.Machine.cycles (errors + timeouts) retries unrecovered;
      fault_rows :=
        {
          fr_name = nm;
          fr_ns_per_run = ns;
          fr_cycles = s.Busgen_sim.Machine.cycles;
          fr_words = s.Busgen_sim.Machine.words_transferred;
          fr_errors = errors;
          fr_timeouts = timeouts;
          fr_retries = retries;
          fr_unrecovered = unrecovered;
        }
        :: !fault_rows)
    (List.combine variants firsts)

let write_faults_json path =
  if !fault_rows <> [] then begin
    let oc = open_out path in
    let rows =
      List.rev !fault_rows
      |> List.map (fun r ->
             Printf.sprintf
               "    {\"name\": %S, \"ns_per_run\": %.1f, \"cycles\": %d, \
                \"words\": %d, \"errors\": %d, \"timeouts\": %d, \
                \"retries\": %d, \"unrecovered\": %d}"
               r.fr_name r.fr_ns_per_run r.fr_cycles r.fr_words r.fr_errors
               r.fr_timeouts r.fr_retries r.fr_unrecovered)
      |> String.concat ",\n"
    in
    Printf.fprintf oc
      "{\n\
      \  \"schema\": \"busgen-faults-bench/1\",\n\
      \  \"runs\": [\n%s\n  ]\n\
       }\n"
      rows;
    close_out oc;
    Printf.printf "\n[bench] wrote %s\n" path
  end

(* ------------------------------------------------------------------ *)
(* Property monitors: per-cycle cost of the armed standard pack        *)
(* ------------------------------------------------------------------ *)

type monitor_row = {
  mr_arch : string;
  mr_properties : int;
  mr_bare_cps : float;
  mr_armed_cps : float;
}

let monitor_rows : monitor_row list ref = ref []

let bench_monitors () =
  header
    "Property monitors - cycles/second, bare tape engine vs armed pack";
  Printf.printf "%-10s %6s %14s %14s %10s\n" "arch" "props" "bare[c/s]"
    "armed[c/s]" "overhead";
  List.iter
    (fun (nm, arch) ->
      let cfg =
        { (Bussyn.Archs.small_config ~n_pes:4) with Bussyn.Archs.protect = true }
      in
      let top = (G.generate arch cfg).G.generated.Bussyn.Archs.top in
      (* Paired interleaved measurement on ONE sim instance.  The delta
         we measure (a few us per cycle) is smaller than the drift of
         two independent multi-second runs — GC state, CPU frequency
         and heap layout all move more than the observer cost.  So:
         same sim, alternate bare/armed chunks, take medians. *)
      let tb = Busgen_rtl.Testbench.create top in
      let sim = Busgen_rtl.Testbench.engine tb in
      (* Seeded bus traffic keeps the dirty sets non-empty, so the bare
         side times real evaluation. *)
      let traffic = Busgen_verify.Traffic.create tb ~arch ~config:cfg ~seed:1 in
      let run_cycles n =
        let stop = Busgen_rtl.Engine.current_cycle sim + n in
        while Busgen_rtl.Engine.current_cycle sim < stop do
          Busgen_verify.Traffic.step traffic
        done
      in
      let chunk = 1500 and rounds = 24 in
      run_cycles 2000 (* warm-up *);
      let mon = ref None in
      let time_chunk () =
        let c0 = Busgen_rtl.Engine.current_cycle sim in
        let t0 = Unix.gettimeofday () in
        run_cycles chunk;
        (Unix.gettimeofday () -. t0)
        /. float_of_int (Busgen_rtl.Engine.current_cycle sim - c0)
      in
      let bares = ref [] and ratios = ref [] in
      for _ = 1 to rounds do
        Busgen_rtl.Engine.clear_observers sim;
        let tb = time_chunk () in
        mon := Some (Busgen_verify.Pack.attach sim top);
        let ta = time_chunk () in
        bares := tb :: !bares;
        (* overhead as a within-round ratio: clock-frequency and GC
           drift between rounds cancels inside each adjacent pair *)
        ratios := (ta /. tb) :: !ratios
      done;
      let b = 1.0 /. median !bares in
      let a = b /. median !ratios in
      let props =
        match !mon with Some m -> Busgen_verify.Prop.property_count m | None -> 0
      in
      Printf.printf "%-10s %6d %14.0f %14.0f %9.1f%%\n%!" nm props b a
        (100.0 *. (b -. a) /. b);
      monitor_rows :=
        { mr_arch = nm; mr_properties = props; mr_bare_cps = b; mr_armed_cps = a }
        :: !monitor_rows)
    [ ("bfba", G.Bfba); ("gbaviii", G.Gbaviii); ("hybrid", G.Hybrid) ]

let write_monitors_json path =
  if !monitor_rows <> [] then begin
    let oc = open_out path in
    let rows =
      List.rev !monitor_rows
      |> List.map (fun r ->
             Printf.sprintf
               "    {\"arch\": %S, \"properties\": %d, \
                \"bare_cycles_per_sec\": %.1f, \"armed_cycles_per_sec\": \
                %.1f, \"overhead_pct\": %.2f}"
               r.mr_arch r.mr_properties r.mr_bare_cps r.mr_armed_cps
               (100.0 *. (r.mr_bare_cps -. r.mr_armed_cps) /. r.mr_bare_cps))
      |> String.concat ",\n"
    in
    Printf.fprintf oc
      "{\n\
      \  \"schema\": \"busgen-monitors-bench/1\",\n\
      \  \"engine\": \"tape\",\n\
      \  \"cores_detected\": %d,\n\
      \  \"runs\": [\n%s\n  ]\n\
       }\n"
      (Busgen_par.Supervise.default_jobs ())
      rows;
    close_out oc;
    Printf.printf "\n[bench] wrote %s\n" path
  end

(* ------------------------------------------------------------------ *)
(* Checkpointing: write cost, resume latency, soak-cadence overhead    *)
(* ------------------------------------------------------------------ *)

type soak_row = {
  sr_arch : string;
  sr_ckpt_bytes : int;
  sr_save_ms : float;        (* one checkpoint: snapshot + atomic write *)
  sr_resume_ms : float;      (* load + rebuild + import, ready to step *)
  sr_cycles_per_sec : float; (* driven traffic, no checkpointing *)
  sr_overhead_pct : float;   (* save cost amortized over a 100k cadence *)
}

let soak_rows : soak_row list ref = ref []

let bench_soak () =
  let module K = Busgen_ckpt.Ckpt in
  header
    "Checkpointing - write cost, resume latency, overhead at 100k cadence";
  Printf.printf "%-10s %9s %9s %10s %12s %10s\n" "arch" "bytes" "save[ms]"
    "resume[ms]" "drive[c/s]" "overhead";
  let dir = Filename.get_temp_dir_name () in
  List.iter
    (fun (nm, arch) ->
      let cfg =
        { (Bussyn.Archs.small_config ~n_pes:4) with
          Bussyn.Archs.protect = true }
      in
      let gen = G.generate arch cfg in
      let top = gen.G.generated.Bussyn.Archs.top in
      let tb = Busgen_rtl.Testbench.create top in
      let sim = Busgen_rtl.Testbench.engine tb in
      let mon = Busgen_verify.Pack.attach sim top in
      let traffic =
        Busgen_verify.Traffic.create tb ~arch ~config:cfg ~seed:42
      in
      (* Warm up into a representative mid-run state. *)
      while Busgen_rtl.Engine.current_cycle sim < 5_000 do
        Busgen_verify.Traffic.step traffic
      done;
      let snapshot () =
        {
          K.ck_tool = G.tool_version;
          ck_hash = G.design_hash arch cfg;
          ck_arch = arch;
          ck_config = cfg;
          ck_seed = 42;
          ck_interp = Busgen_rtl.Engine.export_state sim;
          ck_injections = [];
          ck_traffic = Some (Busgen_verify.Traffic.export_state traffic);
          ck_monitor = Some (Busgen_verify.Prop.export_state mon);
        }
      in
      let path = Filename.concat dir (Printf.sprintf "bench_%s.bsck" nm) in
      let rounds = 9 in
      let saves =
        List.init rounds (fun _ ->
            let t0 = Unix.gettimeofday () in
            K.save ~path (snapshot ());
            Unix.gettimeofday () -. t0)
      in
      let bytes = (Unix.stat path).Unix.st_size in
      let resumes =
        List.init rounds (fun _ ->
            let t0 = Unix.gettimeofday () in
            (match K.load ~path with
            | Error e -> failwith ("bench_soak: " ^ e)
            | Ok snap ->
                let sim' = Busgen_rtl.Engine.create top in
                let mon' = Busgen_verify.Pack.attach sim' top in
                Busgen_rtl.Engine.import_state sim' snap.K.ck_interp;
                let tb' = Busgen_rtl.Testbench.of_engine sim' in
                let traffic' =
                  Busgen_verify.Traffic.create tb' ~arch ~config:cfg ~seed:42
                in
                (match snap.K.ck_traffic with
                | Some ts -> Busgen_verify.Traffic.import_state traffic' ts
                | None -> ());
                (match snap.K.ck_monitor with
                | Some ms -> Busgen_verify.Prop.import_state mon' ms
                | None -> ()));
            Unix.gettimeofday () -. t0)
      in
      Sys.remove path;
      (* Drive rate without checkpointing, on the same warm instance. *)
      let t0 = Unix.gettimeofday () in
      let c0 = Busgen_rtl.Engine.current_cycle sim in
      while Busgen_rtl.Engine.current_cycle sim < c0 + 20_000 do
        Busgen_verify.Traffic.step traffic
      done;
      let drive_s = Unix.gettimeofday () -. t0 in
      let cps =
        float_of_int (Busgen_rtl.Engine.current_cycle sim - c0) /. drive_s
      in
      let save_s = median saves and resume_s = median resumes in
      (* One save per 100k driven cycles, as the soak default ships. *)
      let overhead = save_s /. (100_000.0 /. cps) *. 100.0 in
      Printf.printf "%-10s %9d %9.2f %10.2f %12.0f %9.2f%%\n%!" nm bytes
        (save_s *. 1e3) (resume_s *. 1e3) cps overhead;
      soak_rows :=
        {
          sr_arch = nm;
          sr_ckpt_bytes = bytes;
          sr_save_ms = save_s *. 1e3;
          sr_resume_ms = resume_s *. 1e3;
          sr_cycles_per_sec = cps;
          sr_overhead_pct = overhead;
        }
        :: !soak_rows)
    [ ("bfba", G.Bfba); ("gbaviii", G.Gbaviii); ("hybrid", G.Hybrid) ];
  List.iter
    (fun r ->
      if r.sr_overhead_pct >= 3.0 then
        Printf.printf
          "[bench] WARNING: %s checkpoint overhead %.2f%% exceeds the 3%% \
           budget at a 100k-cycle cadence\n"
          r.sr_arch r.sr_overhead_pct)
    !soak_rows

let write_soak_json path =
  if !soak_rows <> [] then begin
    let oc = open_out path in
    let rows =
      List.rev !soak_rows
      |> List.map (fun r ->
             Printf.sprintf
               "    {\"arch\": %S, \"ckpt_bytes\": %d, \"save_ms\": %.3f, \
                \"resume_ms\": %.3f, \"drive_cycles_per_sec\": %.1f, \
                \"overhead_pct_100k\": %.3f}"
               r.sr_arch r.sr_ckpt_bytes r.sr_save_ms r.sr_resume_ms
               r.sr_cycles_per_sec r.sr_overhead_pct)
      |> String.concat ",\n"
    in
    Printf.fprintf oc
      "{\n\
      \  \"schema\": \"busgen-soak-bench/1\",\n\
      \  \"runs\": [\n%s\n  ]\n\
       }\n"
      rows;
    close_out oc;
    Printf.printf "\n[bench] wrote %s\n" path
  end

(* ------------------------------------------------------------------ *)
(* serve: the journal's overhead on pipelined daemon throughput        *)
(* (BENCH_serve.json)                                                  *)
(* ------------------------------------------------------------------ *)

type serve_row = {
  se_pipelined_jobs : int;
  se_journal_reqs_per_s : float;
  se_nojournal_reqs_per_s : float;
  se_journal_overhead_pct : float;
}

let serve_row : serve_row option ref = ref None

let bench_serve () =
  header "Daemon serving (bussyn_cli serve --stdio)";
  let exe =
    List.find_opt Sys.file_exists
      [
        "_build/default/bin/bussyn_cli.exe";
        Filename.concat ".." (Filename.concat "bin" "bussyn_cli.exe");
        "bin/bussyn_cli.exe";
      ]
  in
  match exe with
  | None ->
      print_string
        "  [bench] bussyn_cli.exe not built; skipping the serve section\n"
  | Some exe ->
      let start args =
        let r_in, w_in = Unix.pipe ~cloexec:true () in
        let r_out, w_out = Unix.pipe ~cloexec:true () in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let argv = Array.of_list (exe :: "serve" :: "--stdio" :: args) in
        let pid = Unix.create_process exe argv r_in w_out devnull in
        Unix.close r_in;
        Unix.close w_out;
        Unix.close devnull;
        (pid, w_in, r_out)
      in
      let write_all fd s =
        let b = Bytes.unsafe_of_string s in
        let n = Bytes.length b in
        let off = ref 0 in
        while !off < n do
          off := !off + Unix.write fd b !off (n - !off)
        done
      in
      let read_lines fd want =
        (* Count newlines until [want] replies arrived. *)
        let b = Bytes.create 65536 in
        let got = ref 0 in
        while !got < want do
          match Unix.read fd b 0 (Bytes.length b) with
          | 0 -> failwith "serve bench: server closed stdout early"
          | n ->
              for i = 0 to n - 1 do
                if Bytes.get b i = '\n' then incr got
              done
        done
      in
      let finish pid w_in r_out =
        Unix.close w_in;
        let b = Bytes.create 65536 in
        let rec drain () = if Unix.read r_out b 0 65536 > 0 then drain () in
        (try drain () with Unix.Unix_error _ -> ());
        Unix.close r_out;
        ignore (Unix.waitpid [] pid)
      in
      (* The sleep-0 debug job is the protocol no-op: one fork, one
         journal append pair, one reply — the daemon's fixed costs with
         no simulation work hiding them. *)
      let req i =
        Printf.sprintf "{\"id\":\"b%04d\",\"kind\":\"sleep\",\"params\":{\"ms\":0}}\n" i
      in
      let pipelined_jobs = 64 in
      let pipelined args =
        let pid, w_in, r_out = start ("--debug-kinds" :: "--jobs" :: "1" :: args) in
        let batch = String.concat "" (List.init pipelined_jobs req) in
        let t0 = Unix.gettimeofday () in
        write_all w_in batch;
        read_lines r_out pipelined_jobs;
        let dt = Unix.gettimeofday () -. t0 in
        finish pid w_in r_out;
        float_of_int pipelined_jobs /. dt
      in
      let journal =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "bussyn_bench_serve-%d" (Unix.getpid ()))
      in
      let journal_rps = pipelined [ "--journal"; journal ] in
      Array.iter
        (fun f -> Sys.remove (Filename.concat journal f))
        (Sys.readdir journal);
      Sys.rmdir journal;
      let nojournal_rps = pipelined [ "--no-journal" ] in
      let overhead_pct = (nojournal_rps -. journal_rps) /. journal_rps *. 100. in
      Printf.printf "  pipelined (%d sleep-0 jobs, -j 1):\n" pipelined_jobs;
      Printf.printf "    journaled    %8.1f req/s\n" journal_rps;
      Printf.printf "    no journal   %8.1f req/s   journaling overhead %+.2f%%\n"
        nojournal_rps overhead_pct;
      if overhead_pct > 5.0 then
        Printf.printf
          "[bench] WARNING: journaling overhead %.2f%% above the 5%% target\n"
          overhead_pct;
      serve_row :=
        Some
          {
            se_pipelined_jobs = pipelined_jobs;
            se_journal_reqs_per_s = journal_rps;
            se_nojournal_reqs_per_s = nojournal_rps;
            se_journal_overhead_pct = overhead_pct;
          }

let write_serve_json path =
  match !serve_row with
  | None -> ()
  | Some r ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"busgen-serve-bench/2\",\n\
        \  \"pipelined_jobs\": %d,\n\
        \  \"journal_reqs_per_s\": %.1f,\n\
        \  \"nojournal_reqs_per_s\": %.1f,\n\
        \  \"journal_overhead_pct\": %.2f,\n\
        \  \"target_overhead_pct\": 5.0\n\
         }\n"
        r.se_pipelined_jobs r.se_journal_reqs_per_s r.se_nojournal_reqs_per_s
        r.se_journal_overhead_pct;
      close_out oc;
      Printf.printf "\n[bench] wrote %s\n" path

let () =
  print_string
    "BusSyn reproduction benchmarks (Ryu & Mooney, DATE 2003)\n\
     Every measured table of the paper, regenerated.\n";
  if sections <> [] then
    Printf.printf "[sections: %s]\n" (String.concat " " sections);
  if want "table1" then table1 ();
  if want "table2" then table2 ();
  if want "table3" then table3 ();
  if want "table4" then table4 ();
  if want "table5" then table5 ();
  if want "ablations" then begin
    ablation_arbiter ();
    ablation_fifo_depth ();
    ablation_miss_rate ();
    ablation_handshake ();
    ablation_arb_latency ();
    ablation_scalability ();
    ablation_bus_energy ();
    ablation_bus_width ();
    ablation_splitba_subsystems ();
    ablation_l1_model ();
    ablation_cache_derivation ();
    ablation_area_by_module ();
    ablation_depth ()
  end;
  if want "faults" then bench_faults ();
  if want "monitors" then bench_monitors ();
  if want "soak" then bench_soak ();
  if want "serve" then bench_serve ();
  write_faults_json "BENCH_faults.json";
  write_monitors_json "BENCH_monitors.json";
  write_soak_json "BENCH_soak.json";
  write_serve_json "BENCH_serve.json";
  print_string "\nAll benchmarks complete.\n"
