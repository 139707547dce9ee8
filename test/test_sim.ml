(* Tests for the architectural simulator: program generators, per-
   architecture paths, arbitration policies, handshakes, FIFOs, locks,
   cache-miss traffic and deadlock detection. *)

open Busgen_sim
module G = Bussyn.Generate

let cfg ?(arch = G.Gbaviii) ?(n_pes = 2) () = Machine.default_config arch ~n_pes

let run ?max_cycles c programs = Machine.run ?max_cycles c programs

(* ------------------------------------------------------------------ *)
(* Program combinators                                                 *)
(* ------------------------------------------------------------------ *)

let test_program_of_list () =
  let p = Program.of_list [ Program.Compute 1; Program.Halt ] in
  (match p () with Some (Program.Compute 1) -> () | _ -> Alcotest.fail "op 1");
  (match p () with Some Program.Halt -> () | _ -> Alcotest.fail "op 2");
  (match p () with None -> () | Some _ -> Alcotest.fail "exhausted")

let test_program_repeat () =
  let p = Program.repeat 3 (fun i -> [ Program.Compute (i + 1) ]) in
  let collected = ref [] in
  let rec drain () =
    match p () with
    | Some (Program.Compute n) ->
        collected := n :: !collected;
        drain ()
    | Some _ -> Alcotest.fail "unexpected op"
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "bodies in order" [ 1; 2; 3 ] (List.rev !collected)

let test_program_concat () =
  let p =
    Program.concat
      [ Program.of_list [ Program.Compute 1 ];
        Program.of_list [ Program.Compute 2 ] ]
  in
  let xs = ref [] in
  let rec drain () =
    match p () with
    | Some (Program.Compute n) ->
        xs := n :: !xs;
        drain ()
    | Some _ | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "concatenated" [ 1; 2 ] (List.rev !xs)

(* ------------------------------------------------------------------ *)
(* Basic machine behaviour                                             *)
(* ------------------------------------------------------------------ *)

let test_compute_only () =
  let c = cfg () in
  let stats =
    run c
      [| Program.of_list [ Program.Compute 100; Program.Halt ];
         Program.of_list [ Program.Halt ] |]
  in
  Alcotest.(check int) "pe0 busy" 100 stats.Machine.pe_busy.(0);
  Alcotest.(check bool) "finishes promptly" true (stats.Machine.cycles < 200)

let test_private_vs_shared_latency () =
  (* A local burst on GBAVIII is private; a global burst pays
     arbitration. *)
  let c = cfg () in
  let time ops =
    (run c [| Program.of_list (ops @ [ Program.Halt ]);
              Program.of_list [ Program.Halt ] |]).Machine.cycles
  in
  let local = time [ Program.Read (Program.Loc_local, 64) ] in
  let global = time [ Program.Read (Program.Loc_global, 64) ] in
  Alcotest.(check bool) "global slower than local" true (global > local)

let test_contention_slows_down () =
  let c = cfg () in
  let burst = List.init 20 (fun _ -> Program.Read (Program.Loc_global, 64)) in
  let solo =
    (run c
       [| Program.of_list (burst @ [ Program.Halt ]);
          Program.of_list [ Program.Halt ] |]).Machine.cycles
  in
  let both =
    (run c
       [| Program.of_list (burst @ [ Program.Halt ]);
          Program.of_list (burst @ [ Program.Halt ]) |]).Machine.cycles
  in
  Alcotest.(check bool) "two masters slower than one" true
    (both > solo + (solo / 2))

let test_invalid_ops_rejected () =
  let expect_invalid arch ops =
    let c = cfg ~arch () in
    match run c [| Program.of_list (ops @ [ Program.Halt ]);
                   Program.of_list [ Program.Halt ] |] with
    | exception Machine.Invalid_program _ -> ()
    | _ -> Alcotest.failf "expected Invalid_program on %s" (G.arch_name arch)
  in
  expect_invalid G.Bfba [ Program.Read (Program.Loc_global, 4) ];
  expect_invalid G.Gbavi [ Program.Read (Program.Loc_global, 4) ];
  expect_invalid G.Gbaviii [ Program.Read (Program.Loc_peer_mem 1, 4) ];
  expect_invalid G.Gbaviii [ Program.Fifo_push (1, 4) ];
  expect_invalid G.Bfba [ Program.Lock_acquire "x" ];
  expect_invalid G.Gbaviii
    [ Program.Set_flag (Program.Hs_flag (0, "done_op"), true) ];
  expect_invalid G.Bfba [ Program.Set_flag (Program.Var_flag "v", true) ]

(* ------------------------------------------------------------------ *)
(* Handshake flags                                                     *)
(* ------------------------------------------------------------------ *)

let test_flag_handshake () =
  let c = cfg () in
  let producer =
    Program.of_list
      [ Program.Compute 50;
        Program.Set_flag (Program.Var_flag "ready", true);
        Program.Halt ]
  in
  let consumer =
    Program.of_list
      [ Program.Wait_flag (Program.Var_flag "ready", true);
        Program.Compute 10;
        Program.Halt ]
  in
  let stats = run c [| producer; consumer |] in
  (* The consumer cannot finish before the producer's 50 cycles. *)
  Alcotest.(check bool) "ordering respected" true (stats.Machine.cycles > 60)

let test_bfba_done_op_initialised () =
  (* Paper Example 4: DONE_OP starts at 1, so the first sender's wait
     succeeds without a partner. *)
  let c = cfg ~arch:G.Bfba () in
  let p0 =
    Program.of_list
      [ Program.Wait_flag (Program.Hs_flag (1, "done_op"), true);
        Program.Halt ]
  in
  let stats = run c [| p0; Program.of_list [ Program.Halt ] |] in
  Alcotest.(check bool) "no long poll" true (stats.Machine.cycles < 50)

(* ------------------------------------------------------------------ *)
(* FIFO links                                                          *)
(* ------------------------------------------------------------------ *)

let test_fifo_pipeline () =
  let c = { (cfg ~arch:G.Bfba ()) with Machine.fifo_depth = 128 } in
  let sender =
    Program.of_list
      ([ Program.Fifo_set_threshold (1, 64) ]
      @ List.init 4 (fun _ -> Program.Fifo_push (1, 64))
      @ [ Program.Halt ])
  in
  let receiver =
    Program.of_list
      (List.concat
         (List.init 4 (fun _ -> [ Program.Wait_fifo_irq; Program.Fifo_pop 64 ]))
      @ [ Program.Halt ])
  in
  let stats = run c [| sender; receiver |] in
  Alcotest.(check int) "words moved" (2 * 4 * 64) stats.Machine.words_transferred

let test_fifo_blocks_when_full () =
  let c = { (cfg ~arch:G.Bfba ()) with Machine.fifo_depth = 64 } in
  (* Sender pushes 2 x 64 but the receiver only pops after computing:
     the second push must block until the pop. *)
  let sender =
    Program.of_list
      [ Program.Fifo_set_threshold (1, 64);
        Program.Fifo_push (1, 64);
        Program.Fifo_push (1, 64);
        Program.Halt ]
  in
  let receiver =
    Program.of_list
      [ Program.Compute 500; Program.Fifo_pop 64; Program.Fifo_pop 64;
        Program.Halt ]
  in
  let stats = run c [| sender; receiver |] in
  Alcotest.(check bool) "sender blocked on full FIFO" true
    (stats.Machine.pe_wait.(0) > 100)

let test_fifo_deadlock_detected () =
  let c = cfg ~arch:G.Bfba () in
  (* Both PEs pop from empty FIFOs: no progress is possible. *)
  let p pe =
    ignore pe;
    Program.of_list [ Program.Fifo_pop 1; Program.Halt ]
  in
  match run c [| p 0; p 1 |] with
  | exception Machine.Deadlock _ -> ()
  | _ -> Alcotest.fail "deadlock not detected"

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)
(* ------------------------------------------------------------------ *)

let test_lock_mutual_exclusion () =
  let c = cfg () in
  (* Both PEs increment inside the lock; the loser must wait for the
     holder's critical section. *)
  let critical =
    [ Program.Lock_acquire "m"; Program.Compute 200;
      Program.Lock_release "m"; Program.Halt ]
  in
  let stats = run c [| Program.of_list critical; Program.of_list critical |] in
  Alcotest.(check bool) "serialized critical sections" true
    (stats.Machine.cycles > 400)

let test_try_lock_callback () =
  let c = cfg () in
  let outcome = ref [] in
  let p0 =
    Program.of_list
      [ Program.Lock_acquire "m";
        Program.Compute 300;
        Program.Lock_release "m";
        Program.Halt ]
  in
  let p1 =
    Program.of_list
      [ Program.Compute 50; (* let p0 win the lock *)
        Program.Try_lock ("m", fun ok -> outcome := ok :: !outcome);
        Program.Compute 400; (* p0 releases meanwhile *)
        Program.Try_lock ("m", fun ok -> outcome := ok :: !outcome);
        Program.Halt ]
  in
  ignore (run c [| p0; p1 |]);
  Alcotest.(check (list bool)) "fail then succeed" [ false; true ]
    (List.rev !outcome)

let test_lock_release_of_unheld () =
  let c = cfg () in
  match
    run c
      [| Program.of_list [ Program.Lock_release "m"; Program.Halt ];
         Program.of_list [ Program.Halt ] |]
  with
  | exception Machine.Invalid_program _ -> ()
  | _ -> Alcotest.fail "unheld release not rejected"

(* ------------------------------------------------------------------ *)
(* Arbitration policies                                                *)
(* ------------------------------------------------------------------ *)

let test_policies_differ_in_order () =
  (* Four PEs issue global reads continuously; every policy completes
     the same work. *)
  let work = List.init 10 (fun _ -> Program.Read (Program.Loc_global, 16)) in
  let totals =
    List.map
      (fun policy ->
        let c = { (cfg ~n_pes:4 ()) with Machine.policy } in
        let stats =
          run c
            (Array.init 4 (fun _ -> Program.of_list (work @ [ Program.Halt ])))
        in
        stats.Machine.words_transferred)
      [ Machine.Fcfs; Machine.Fixed_priority; Machine.Round_robin ]
  in
  match totals with
  | [ a; b; c ] ->
      Alcotest.(check int) "same words (fcfs vs prio)" a b;
      Alcotest.(check int) "same words (fcfs vs rr)" a c
  | _ -> Alcotest.fail "unexpected"

let test_ccba_slower_arbitration () =
  (* The same global traffic takes longer with CCBA's 5-cycle grant. *)
  let work = List.init 50 (fun _ -> Program.Read (Program.Loc_global, 1)) in
  let time arch =
    let c = cfg ~arch () in
    (run c
       [| Program.of_list (work @ [ Program.Halt ]);
          Program.of_list [ Program.Halt ] |]).Machine.cycles
  in
  Alcotest.(check bool) "ccba slower" true (time G.Ccba > time G.Gbaviii)

(* ------------------------------------------------------------------ *)
(* Cache-miss traffic                                                  *)
(* ------------------------------------------------------------------ *)

let test_miss_traffic_on_shared_program_memory () =
  let compute = [ Program.Compute 10_000; Program.Halt ] in
  let busy arch =
    let c = cfg ~arch () in
    let stats = run c [| Program.of_list compute; Program.of_list [ Program.Halt ] |] in
    List.fold_left (fun acc (_, b) -> acc + b) 0 stats.Machine.bus_busy
  in
  Alcotest.(check bool) "GGBA computes generate bus traffic" true
    (busy G.Ggba > 0);
  Alcotest.(check int) "GBAVIII computes stay private" 0 (busy G.Gbaviii)

let test_splitba_var_home () =
  (* A lock homed in subsystem 1 generates traffic on ss1 only. *)
  let c =
    { (cfg ~arch:G.Splitba ~n_pes:4 ()) with
      Machine.var_home = (fun _ -> 1) }
  in
  let p =
    Program.of_list
      [ Program.Lock_acquire "x"; Program.Lock_release "x"; Program.Halt ]
  in
  let stats =
    run c (Array.init 4 (fun i -> if i = 0 then p else Program.of_list [ Program.Halt ]))
  in
  let busy name = List.assoc name stats.Machine.bus_busy in
  Alcotest.(check bool) "ss1 used" true (busy "ss1" > 0);
  Alcotest.(check int) "ss0 untouched" 0 (busy "ss0")

let test_trace_and_analysis () =
  let c = { (cfg ()) with Machine.trace = true } in
  let make () =
    Program.of_list
      [ Program.Read (Program.Loc_global, 32);
        Program.Write (Program.Loc_global, 16);
        Program.Compute 2000;
        Program.Halt ]
  in
  let stats = run c [| make (); make () |] in
  Alcotest.(check bool) "trace recorded" true (List.length stats.Machine.trace > 3);
  (* Words by kind account for the explicit traffic. *)
  let words k =
    match List.assoc_opt k (Analysis.words_by_kind stats) with
    | Some w -> w
    | None -> 0
  in
  Alcotest.(check int) "read words" 64 (words "read");
  Alcotest.(check int) "write words" 32 (words "write");
  Alcotest.(check bool) "misses traced" true (words "miss" > 0);
  (* Queueing: the second master's burst waits for the first. *)
  (match Analysis.queueing stats with
  | [ ("global", l) ] ->
      Alcotest.(check bool) "some grants" true (l.Analysis.count > 3);
      Alcotest.(check bool) "max wait positive" true (l.Analysis.max > 0)
  | _ -> Alcotest.fail "expected one bus");
  (* Timeline buckets sum to overall utilization. *)
  let buckets = 4 in
  (match Analysis.timeline stats ~buckets with
  | [ ("global", arr) ] ->
      Alcotest.(check int) "bucket count" buckets (Array.length arr);
      let mean = Array.fold_left ( +. ) 0.0 arr /. float_of_int buckets in
      let overall = List.assoc "global" (Analysis.utilization stats) in
      Alcotest.(check bool) "timeline consistent with utilization" true
        (Float.abs (mean -. overall) < 0.05)
  | _ -> Alcotest.fail "expected one bus timeline");
  (* Without tracing, the trace stays empty. *)
  let stats2 = run (cfg ()) [| Program.of_list [ Program.Halt ];
                               Program.of_list [ Program.Halt ] |] in
  Alcotest.(check int) "no trace by default" 0 (List.length stats2.Machine.trace)

let test_per_pe_analysis () =
  let c = { (cfg ()) with Machine.trace = true } in
  let p0 =
    Program.of_list
      [ Program.Read (Program.Loc_global, 10); Program.Halt ]
  in
  let p1 =
    Program.of_list
      [ Program.Write (Program.Loc_global, 30); Program.Halt ]
  in
  let stats = run c [| p0; p1 |] in
  (match Analysis.per_pe stats with
  | [ (0, _, w0); (1, _, w1) ] ->
      Alcotest.(check int) "pe0 words" 10 w0;
      Alcotest.(check int) "pe1 words" 30 w1
  | other ->
      Alcotest.failf "unexpected per-pe shape (%d entries)"
        (List.length other))

let test_bus_energy () =
  (* The same traffic costs less switched capacitance on a split bus
     than on one global bus (the paper's power argument). *)
  let workload arch =
    let c =
      { (Machine.default_config arch ~n_pes:4) with Machine.trace = true }
    in
    let make pe =
      ignore pe;
      Program.of_list
        [ Program.Read (Program.Loc_global, 64);
          Program.Write (Program.Loc_global, 64);
          Program.Halt ]
    in
    let stats = Machine.run c (Array.init 4 make) in
    Analysis.bus_energy stats ~n_pes:4
  in
  let ggba = workload G.Ggba and split = workload G.Splitba in
  Alcotest.(check bool) "split cheaper" true (split < ggba);
  Alcotest.(check bool) "roughly the capacitance ratio" true
    (split > 0.4 *. ggba && split < 0.7 *. ggba)

let test_marks_record_time () =
  let c = cfg () in
  let p =
    Program.of_list
      [ Program.Mark "start"; Program.Compute 100; Program.Mark "end";
        Program.Halt ]
  in
  let stats = run c [| p; Program.of_list [ Program.Halt ] |] in
  match stats.Machine.marks with
  | [ ("start", t0); ("end", t1) ] ->
      Alcotest.(check bool) "100 cycles apart" true (t1 - t0 >= 100)
  | _ -> Alcotest.fail "marks missing"

(* Property: total busy+wait per PE never exceeds the wall clock. *)
let prop_accounting =
  QCheck.Test.make ~name:"pe accounting bounded by wall clock" ~count:30
    QCheck.(pair (int_range 1 500) (int_range 1 40))
    (fun (comp, words) ->
      let c = cfg () in
      let make () =
        Program.of_list
          [ Program.Compute comp;
            Program.Read (Program.Loc_global, words);
            Program.Write (Program.Loc_global, words);
            Program.Halt ]
      in
      let stats = run c [| make (); make () |] in
      Array.for_all
        (fun i -> i <= stats.Machine.cycles)
        (Array.mapi (fun i b -> b + stats.Machine.pe_wait.(i)) stats.Machine.pe_busy))

let prop_throughput_monotone =
  (* More contention never reduces total cycles. *)
  QCheck.Test.make ~name:"adding a master never speeds the bus" ~count:20
    (QCheck.int_range 1 30)
    (fun n ->
      let work = List.init n (fun _ -> Program.Read (Program.Loc_global, 8)) in
      let time pes =
        let c = cfg ~n_pes:4 () in
        let stats =
          run c
            (Array.init 4 (fun i ->
                 if i < pes then Program.of_list (work @ [ Program.Halt ])
                 else Program.of_list [ Program.Halt ]))
        in
        stats.Machine.cycles
      in
      time 1 <= time 2 && time 2 <= time 4)

let test_throughput_totality () =
  (* A run where every job was quarantined reports 0 cycles; the
     derived rate must be 0.0, never inf or NaN. *)
  let z = Machine.throughput_mbps ~bits:0 ~cycles:0 in
  Alcotest.(check (float 0.0)) "0/0 is 0.0" 0.0 z;
  let neg = Machine.throughput_mbps ~bits:1024 ~cycles:(-5) in
  Alcotest.(check (float 0.0)) "negative cycles clamp to 0.0" 0.0 neg;
  let v = Machine.throughput_mbps ~bits:1024 ~cycles:0 in
  Alcotest.(check bool) "bits/0 is finite" true (Float.is_finite v);
  Alcotest.(check (float 0.0)) "bits/0 is 0.0" 0.0 v

let test_csv_export () =
  let c = { (cfg ()) with Machine.trace = true } in
  let p =
    Program.of_list
      [ Program.Compute 10;
        Program.Write (Program.Loc_global, 4);
        Program.Read (Program.Loc_global, 4); Program.Halt ]
  in
  let stats = Machine.run c [| p; Program.of_list [ Program.Halt ] |] in
  let trace_csv = Analysis.csv_of_trace stats in
  let lines = String.split_on_char '\n' (String.trim trace_csv) in
  Alcotest.(check string)
    "header" "pe,kind,resource,submit,grant,finish,words" (List.hd lines);
  Alcotest.(check int)
    "one row per transaction"
    (List.length stats.Machine.trace)
    (List.length lines - 1);
  List.iter
    (fun row ->
      match String.split_on_char ',' row with
      | [ pe; _kind; _res; submit; grant; finish; words ] ->
          let i = int_of_string in
          Alcotest.(check bool) "ordered timestamps" true
            (i submit <= i grant && i grant <= i finish);
          Alcotest.(check bool) "pe in range" true (i pe >= 0 && i pe < 2);
          Alcotest.(check bool) "words positive" true (i words > 0)
      | _ -> Alcotest.failf "malformed row %s" row)
    (List.tl lines);
  let util_csv = Analysis.csv_of_timeline stats ~buckets:10 in
  let ulines = String.split_on_char '\n' (String.trim util_csv) in
  Alcotest.(check int) "header + 10 buckets" 11 (List.length ulines);
  List.iteri
    (fun i row ->
      if i > 0 then
        List.iteri
          (fun j f ->
            if j > 0 then
              let v = float_of_string f in
              Alcotest.(check bool) "utilization in [0,1]" true
                (v >= 0.0 && v <= 1.0))
          (String.split_on_char ',' row))
    ulines;
  let gp = Analysis.gnuplot_utilization ~data_path:"u.csv" ~buckets:10 stats in
  Alcotest.(check bool) "gnuplot plots the data file" true
    (let sub = "'u.csv' using 1:2" in
     let n = String.length gp and m = String.length sub in
     let rec go i = i + m <= n && (String.sub gp i m = sub || go (i + 1)) in
     go 0)

let test_splitba_n_subsystems_paths () =
  (* Three subsystems: a PE's own-subsystem traffic must be cheaper
     than one-bridge-hop traffic to either peer subsystem. *)
  let time ~target =
    let c =
      { (cfg ~arch:G.Splitba ~n_pes:6 ()) with Machine.n_subsystems = 3 }
    in
    let p =
      Program.of_list
        [ Program.Read (Program.Loc_peer_mem target, 64); Program.Halt ]
    in
    let stats =
      Machine.run c
        (Array.init 6 (fun i ->
             if i = 0 then p else Program.of_list [ Program.Halt ]))
    in
    stats.Machine.cycles
  in
  let own = time ~target:0 in
  let mid = time ~target:2 in
  let far = time ~target:5 in
  Alcotest.(check bool) "own subsystem cheapest" true (own < mid);
  Alcotest.(check bool) "both hops cost one bridge" true (mid = far)

let test_words_by_kind () =
  let c = { (cfg ()) with Machine.trace = true } in
  let stats =
    Machine.run c
      [| Program.of_list
           [ Program.Read (Program.Loc_global, 10);
             Program.Write (Program.Loc_global, 7);
             Program.Write (Program.Loc_global, 3);
             Program.Set_flag (Program.Var_flag "f", true); Program.Halt ];
         Program.of_list [ Program.Halt ] |]
  in
  let kinds = Analysis.words_by_kind stats in
  Alcotest.(check (option int)) "reads" (Some 10)
    (List.assoc_opt "read" kinds);
  Alcotest.(check (option int)) "writes summed" (Some 10)
    (List.assoc_opt "write" kinds);
  Alcotest.(check (option int)) "flag word" (Some 1)
    (List.assoc_opt "flag" kinds);
  let counts = List.map snd kinds in
  Alcotest.(check bool) "descending" true
    (counts = List.sort (fun a b -> compare b a) counts)

let test_pp_report_renders () =
  (* The human-readable analysis report mentions every section when a
     trace is present, and degrades gracefully without one. *)
  let c = { (cfg ()) with Machine.trace = true } in
  let stats =
    Machine.run c
      [| Program.of_list
           [ Program.Compute 10; Program.Write (Program.Loc_global, 8);
             Program.Lock_acquire "l"; Program.Lock_release "l";
             Program.Halt ];
         Program.of_list [ Program.Read (Program.Loc_global, 4);
                           Program.Halt ] |]
  in
  let text = Format.asprintf "%a" Analysis.pp_report stats in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains needle))
    [ "queueing"; "traffic"; "lock l"; "load" ];
  let untr =
    Machine.run (cfg ())
      [| Program.of_list [ Program.Compute 1; Program.Halt ];
         Program.of_list [ Program.Halt ] |]
  in
  let text' = Format.asprintf "%a" Analysis.pp_report untr in
  Alcotest.(check bool) "explains missing trace" true
    (let sub = "no trace" in
     let n = String.length text' and m = String.length sub in
     let rec go i = i + m <= n && (String.sub text' i m = sub || go (i + 1)) in
     go 0)

let test_real_l1_mode () =
  (* With a real L1 enabled, miss traffic emerges from the cache: a
     tiny direct-mapped cache must fetch far more lines than a big
     associative one over the same compute. *)
  let run_l1 l1 =
    let c = { (cfg ()) with Machine.l1 = Some l1; trace = true } in
    let stats =
      Machine.run c
        [| Program.of_list [ Program.Compute 20_000; Program.Halt ];
           Program.of_list [ Program.Halt ] |]
    in
    List.length
      (List.filter
         (fun (r : Machine.txn_record) -> r.Machine.tr_kind = "miss")
         stats.Machine.trace)
  in
  let tiny = run_l1 { Cache.line_words = 4; sets = 8; ways = 1 } in
  let big = run_l1 Cache.mpc755_l1 in
  Alcotest.(check bool) "tiny cache misses more" true (tiny > 4 * big);
  Alcotest.(check bool) "big cache still has compulsory misses" true
    (big > 0);
  (* Deterministic: the same config reproduces exactly. *)
  Alcotest.(check int) "reproducible"
    (run_l1 Cache.mpc755_l1)
    big

let test_queueing_statistics () =
  (* Four masters hammer one bus; the queueing stats must reflect real
     arbitration delay: mean > 0, p95 <= max, count = granted txns. *)
  let c = { (cfg ~arch:G.Ggba ~n_pes:4 ()) with Machine.trace = true } in
  let p () =
    Program.of_list
      (List.concat
         (List.init 10 (fun _ -> [ Program.Read (Program.Loc_global, 4) ]))
      @ [ Program.Halt ])
  in
  let stats = Machine.run c (Array.init 4 (fun _ -> p ())) in
  match Analysis.queueing stats with
  | [ (bus, l) ] ->
      Alcotest.(check string) "one shared bus" "global" bus;
      Alcotest.(check bool) "every txn counted" true
        (l.Analysis.count >= 40);
      Alcotest.(check bool) "contention visible" true (l.Analysis.mean > 0.0);
      Alcotest.(check bool) "p95 within max" true
        (l.Analysis.p95 <= l.Analysis.max);
      Alcotest.(check bool) "mean within max" true
        (l.Analysis.mean <= float_of_int l.Analysis.max)
  | other ->
      Alcotest.failf "expected one bus, got %d" (List.length other)

let test_exports_without_trace () =
  (* Untraced runs still produce well-formed (header-only / all-zero)
     exports rather than failing. *)
  let stats =
    run (cfg ())
      [| Program.of_list [ Program.Compute 5; Program.Halt ];
         Program.of_list [ Program.Halt ] |]
  in
  Alcotest.(check string) "trace csv is just the header"
    "pe,kind,resource,submit,grant,finish,words"
    (String.trim (Analysis.csv_of_trace stats));
  let util = Analysis.csv_of_timeline stats ~buckets:5 in
  Alcotest.(check int) "timeline has header + 5 rows" 6
    (List.length (String.split_on_char '\n' (String.trim util)));
  Alcotest.(check (list (pair string (triple int (float 0.01) int))))
    "no queueing data" []
    (List.map (fun (b, l) ->
         (b, (l.Analysis.count, l.Analysis.mean, l.Analysis.max)))
       (Analysis.queueing stats));
  Alcotest.(check (list string)) "no lock data" []
    (List.map (fun (n, _, _) -> n) (Analysis.lock_contention stats))

let test_lock_contention () =
  let c = { (cfg ()) with Machine.trace = true } in
  let holder =
    Program.of_list
      [ Program.Lock_acquire "hot"; Program.Compute 400;
        Program.Lock_release "hot"; Program.Halt ]
  in
  let contender =
    Program.of_list
      [ Program.Compute 5; Program.Lock_acquire "hot";
        Program.Lock_release "hot"; Program.Lock_acquire "cold";
        Program.Lock_release "cold"; Program.Halt ]
  in
  let stats = Machine.run c [| holder; contender |] in
  match Analysis.lock_contention stats with
  | (hot, hot_txns, _) :: rest ->
      Alcotest.(check string) "hot lock first" "hot" hot;
      Alcotest.(check bool) "spinning counted" true (hot_txns > 4);
      Alcotest.(check bool) "cold lock present" true
        (List.exists (fun (n, _, _) -> n = "cold") rest)
  | [] -> Alcotest.fail "no lock records in the trace"

(* ------------------------------------------------------------------ *)
(* Cache model                                                         *)
(* ------------------------------------------------------------------ *)

let test_cache_compulsory_misses () =
  (* A cold sequential stream misses exactly once per line. *)
  let c = Cache.create { Cache.line_words = 8; sets = 16; ways = 2 } in
  List.iter
    (fun a -> ignore (Cache.access c a))
    (Cache.Trace.streaming ~words:512);
  let st = Cache.stats c in
  Alcotest.(check int) "accesses" 512 st.Cache.accesses;
  Alcotest.(check int) "one miss per line" (512 / 8) st.Cache.misses;
  (* A second pass over a working set larger than the cache (512 words
     > 16*2*8 = 256) still misses: capacity. *)
  List.iter
    (fun a -> ignore (Cache.access c a))
    (Cache.Trace.streaming ~words:512);
  Alcotest.(check bool)
    "capacity misses" true
    ((Cache.stats c).Cache.misses > 512 / 8)

let test_cache_lru_and_associativity () =
  (* Three lines mapping to the same set of a 2-way cache: LRU keeps
     the two most recent. *)
  let cfg = { Cache.line_words = 4; sets = 8; ways = 2 } in
  let c = Cache.create cfg in
  let line k = k * cfg.Cache.line_words * cfg.Cache.sets in
  Alcotest.(check bool) "A cold" true (Cache.access c (line 0) = `Miss);
  Alcotest.(check bool) "B cold" true (Cache.access c (line 1) = `Miss);
  Alcotest.(check bool) "A warm" true (Cache.access c (line 0) = `Hit);
  Alcotest.(check bool) "C evicts B" true (Cache.access c (line 2) = `Miss);
  Alcotest.(check bool) "A survived (LRU)" true
    (Cache.access c (line 0) = `Hit);
  Alcotest.(check bool) "B was evicted" true
    (Cache.access c (line 1) = `Miss);
  Alcotest.(check int) "evictions counted" 2 (Cache.stats c).Cache.evictions;
  (* The same ping-pong thrashes a direct-mapped cache but not a 2-way. *)
  let thrash ways =
    let c = Cache.create { cfg with Cache.ways } in
    for _ = 1 to 10 do
      ignore (Cache.access c (line 0));
      ignore (Cache.access c (line 1))
    done;
    (Cache.stats c).Cache.misses
  in
  Alcotest.(check int) "direct-mapped thrashes" 20 (thrash 1);
  Alcotest.(check int) "2-way holds both" 2 (thrash 2);
  Cache.reset c;
  Alcotest.(check int) "reset clears stats" 0 (Cache.stats c).Cache.accesses;
  Alcotest.(check bool) "reset invalidates" true
    (Cache.access c (line 0) = `Miss)

let test_cache_bad_configs () =
  let expect_invalid what cfg =
    match Cache.create cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  expect_invalid "line not pow2" { Cache.line_words = 3; sets = 8; ways = 1 };
  expect_invalid "sets not pow2" { Cache.line_words = 4; sets = 6; ways = 1 };
  expect_invalid "zero ways" { Cache.line_words = 4; sets = 8; ways = 0 };
  let c = Cache.create { Cache.line_words = 4; sets = 8; ways = 1 } in
  match Cache.access c (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative address accepted"

let test_cache_kernel_shapes () =
  (* The derivation behind the Timing calibration constants: streaming
     and blocked kernels are cache-friendly on the MPC755-like L1; the
     database's random object picks are not. *)
  let run trace =
    let c = Cache.create Cache.mpc755_l1 in
    List.iter (fun a -> ignore (Cache.access c a)) trace;
    Cache.miss_rate c
  in
  let ofdm = run (Cache.Trace.fft ~n:4096) in
  let mpeg2 = run (Cache.Trace.blocked8 ~frames:8 ~width:64) in
  let db =
    run (Cache.Trace.db_random ~objects:512 ~object_words:100 ~accesses:200)
  in
  if not (ofdm < 0.05) then Alcotest.failf "fft miss rate %.4f too high" ofdm;
  if not (mpeg2 < 0.2) then
    Alcotest.failf "blocked miss rate %.4f too high" mpeg2;
  if not (db > 2.0 *. ofdm) then
    Alcotest.failf "db (%.4f) should miss far more than fft (%.4f)" db ofdm

let prop_cache_sane =
  QCheck.Test.make ~name:"cache counters are consistent" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (int_range 0 100_000))
    (fun addrs ->
      let c = Cache.create { Cache.line_words = 4; sets = 8; ways = 2 } in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      let st = Cache.stats c in
      st.Cache.accesses = List.length addrs
      && st.Cache.misses <= st.Cache.accesses
      && st.Cache.evictions <= st.Cache.misses
      (* Re-touching the most recent address is always a hit. *)
      &&
      match List.rev addrs with
      | last :: _ -> Cache.access c last = `Hit
      | [] -> true)

(* Fuzz: random deadlock-free programs on every architecture must
   terminate, conserve words, and respect the accounting identity. *)
let legal_locations arch n_pes =
  match arch with
  | G.Bfba -> [ Program.Loc_local ]
  | G.Gbavi ->
      Program.Loc_local
      :: List.init n_pes (fun k -> Program.Loc_peer_mem k)
  | G.Gbavii ->
      (Program.Loc_local :: Program.Loc_global
      :: List.init n_pes (fun k -> Program.Loc_peer_mem k))
  | G.Gbaviii | G.Hybrid -> [ Program.Loc_local; Program.Loc_global ]
  | G.Splitba | G.Ggba | G.Ccba ->
      (Program.Loc_local :: Program.Loc_global
      :: List.init n_pes (fun k -> Program.Loc_peer_mem k))

let all_archs =
  [ G.Bfba; G.Gbavi; G.Gbavii; G.Gbaviii; G.Hybrid; G.Splitba; G.Ggba;
    G.Ccba ]

let prop_random_programs_terminate =
  let gen =
    QCheck.Gen.(
      pair (int_range 0 (List.length all_archs - 1))
        (list_size (int_range 1 25) (pair (int_range 0 2) (int_range 1 30))))
  in
  let print (ai, ops) =
    Printf.sprintf "%s/%d ops" (G.arch_name (List.nth all_archs ai))
      (List.length ops)
  in
  QCheck.Test.make ~name:"random programs terminate with sane accounting"
    ~count:60
    (QCheck.make ~print gen)
    (fun (ai, raw) ->
      let arch = List.nth all_archs ai in
      let n_pes = 4 in
      let locs = Array.of_list (legal_locations arch n_pes) in
      let issued = ref 0 in
      let to_op i (kind, words) =
        let loc = locs.((i + words) mod Array.length locs) in
        match kind with
        | 0 -> Program.Compute words
        | 1 ->
            issued := !issued + words;
            Program.Read (loc, words)
        | _ ->
            issued := !issued + words;
            Program.Write (loc, words)
      in
      let c = cfg ~arch ~n_pes () in
      let programs =
        Array.init n_pes (fun pe ->
            Program.of_list
              (List.mapi (fun i rw -> to_op (i + pe) rw) raw
              @ [ Program.Halt ]))
      in
      let stats = run ~max_cycles:2_000_000 c programs in
      stats.Machine.cycles > 0
      && stats.Machine.words_transferred >= !issued
      && Array.for_all
           (fun v -> v <= stats.Machine.cycles)
           (Array.mapi
              (fun i b -> b + stats.Machine.pe_wait.(i))
              stats.Machine.pe_busy))

let prop_flag_handshakes_complete =
  (* A producer/consumer pair using the architecture's native flag kind
     finishes for any interleaving of compute padding. *)
  QCheck.Test.make ~name:"flag handshakes always complete" ~count:40
    QCheck.(pair (int_range 0 200) (int_range 0 200))
    (fun (pad0, pad1) ->
      List.for_all
        (fun (arch, flag) ->
          let c = cfg ~arch ~n_pes:2 () in
          let p0 =
            Program.of_list
              [ Program.Compute (pad0 + 1);
                Program.Write (Program.Loc_local, 4);
                Program.Set_flag (flag, true); Program.Halt ]
          in
          let p1 =
            Program.of_list
              [ Program.Compute (pad1 + 1);
                Program.Wait_flag (flag, true); Program.Halt ]
          in
          let stats = run ~max_cycles:1_000_000 c [| p0; p1 |] in
          stats.Machine.cycles > 0)
        [ (G.Bfba, Program.Hs_flag (1, "done_op"));
          (G.Gbavi, Program.Hs_flag (1, "done_op"));
          (G.Gbaviii, Program.Var_flag "rdy");
          (G.Hybrid, Program.Hs_flag (1, "done_op"));
          (G.Splitba, Program.Var_flag "rdy");
          (G.Ggba, Program.Var_flag "rdy");
          (G.Ccba, Program.Var_flag "rdy") ])

(* ------------------------------------------------------------------ *)
(* Bus fault model                                                     *)
(* ------------------------------------------------------------------ *)

(* A bus-heavy workload using only locations legal on [arch], so the
   same generator drives the campaign on every architecture. *)
let fault_workload arch n_pes =
  let locs = Array.of_list (legal_locations arch n_pes) in
  Array.init n_pes (fun pe ->
      Program.of_list
        (List.concat
           (List.init 30 (fun i ->
                let loc = locs.((pe + i) mod Array.length locs) in
                [
                  Program.Compute ((i mod 7) + 1);
                  (if (pe + i) mod 2 = 0 then
                     Program.Read (loc, (i mod 9) + 1)
                   else Program.Write (loc, (i mod 9) + 1));
                ]))
        @ [ Program.Halt ]))

let reliability_exn name stats =
  match stats.Machine.reliability with
  | Some r -> r
  | None -> Alcotest.failf "%s: expected reliability stats" name

(* The headline robustness property: on every architecture, a seeded
   fault campaign is deterministic and every run either completes or
   reports its damage — never a hang, never a silent loss. *)
let test_fault_campaign_all_archs () =
  List.iter
    (fun arch ->
      List.iter
        (fun seed ->
          let name = Printf.sprintf "%s seed %d" (G.arch_name arch) seed in
          let c =
            {
              (cfg ~arch ~n_pes:4 ()) with
              Machine.faults = Some (Machine.fault_config ~seed ~rate:0.02 ());
            }
          in
          let go () =
            try run ~max_cycles:2_000_000 c (fault_workload arch 4)
            with Machine.Deadlock msg ->
              Alcotest.failf "%s: campaign raised Deadlock: %s" name msg
          in
          let s1 = go () in
          let s2 = go () in
          let r1 = reliability_exn name s1 and r2 = reliability_exn name s2 in
          (* Determinism: the same seed replays the same run exactly. *)
          Alcotest.(check int) (name ^ ": cycles repeat") s1.Machine.cycles
            s2.Machine.cycles;
          Alcotest.(check int) (name ^ ": words repeat")
            s1.Machine.words_transferred s2.Machine.words_transferred;
          Alcotest.(check (list int)) (name ^ ": quarantine repeats")
            r1.Machine.r_quarantined r2.Machine.r_quarantined;
          Alcotest.(check int) (name ^ ": faults repeat")
            (r1.Machine.r_errors + r1.Machine.r_timeouts)
            (r2.Machine.r_errors + r2.Machine.r_timeouts);
          (* Accounting: every drawn fault is either retried or given
             up on, and a give-up quarantines exactly one PE. *)
          Alcotest.(check int) (name ^ ": fault accounting")
            (r1.Machine.r_errors + r1.Machine.r_timeouts)
            (r1.Machine.r_retries + r1.Machine.r_unrecovered);
          Alcotest.(check bool) (name ^ ": recovered <= retries") true
            (r1.Machine.r_recovered <= r1.Machine.r_retries);
          Alcotest.(check int) (name ^ ": quarantined = unrecovered")
            r1.Machine.r_unrecovered
            (List.length r1.Machine.r_quarantined);
          (* BFBA has no shared buses, so the bus fault model is
             vacuous there: the campaign must draw nothing. *)
          if arch = G.Bfba then
            Alcotest.(check int) (name ^ ": bfba fault-free") 0
              (r1.Machine.r_errors + r1.Machine.r_timeouts))
        [ 1; 7; 42 ])
    all_archs

(* rate = 0.0 keeps the fault machinery armed but never fires: the run
   must be cycle-for-cycle identical to one with faults disabled. *)
let test_fault_rate_zero_identical () =
  let arch = G.Gbavii in
  let base = cfg ~arch ~n_pes:4 () in
  let s_off = run base (fault_workload arch 4) in
  let c_on =
    { base with
      Machine.faults = Some (Machine.fault_config ~seed:5 ~rate:0.0 ()) }
  in
  let s_on = run c_on (fault_workload arch 4) in
  Alcotest.(check int) "cycles" s_off.Machine.cycles s_on.Machine.cycles;
  Alcotest.(check int) "transactions" s_off.Machine.transactions
    s_on.Machine.transactions;
  Alcotest.(check int) "words" s_off.Machine.words_transferred
    s_on.Machine.words_transferred;
  Alcotest.(check (array int)) "pe busy" s_off.Machine.pe_busy
    s_on.Machine.pe_busy;
  Alcotest.(check (array int)) "pe wait" s_off.Machine.pe_wait
    s_on.Machine.pe_wait;
  (match s_off.Machine.reliability with
  | None -> ()
  | Some _ -> Alcotest.fail "faults disabled must not report reliability");
  let r = reliability_exn "rate zero" s_on in
  Alcotest.(check int) "no faults drawn" 0
    (r.Machine.r_errors + r.Machine.r_timeouts + r.Machine.r_retries
   + r.Machine.r_unrecovered)

(* Retries recover: a moderate fault rate with generous retries must
   still complete all programs (no quarantine, words conserved). *)
let test_fault_retries_recover () =
  let arch = G.Gbaviii in
  let base = cfg ~arch ~n_pes:4 () in
  let s_clean = run base (fault_workload arch 4) in
  let c =
    { base with
      Machine.faults = Some (Machine.fault_config ~seed:3 ~rate:0.05 ()) }
  in
  let s = run ~max_cycles:2_000_000 c (fault_workload arch 4) in
  let r = reliability_exn "retries recover" s in
  Alcotest.(check bool) "faults actually fired" true
    (r.Machine.r_errors + r.Machine.r_timeouts > 0);
  Alcotest.(check int) "all recovered" 0 r.Machine.r_unrecovered;
  Alcotest.(check int) "recovered = retried faults" r.Machine.r_recovered
    (r.Machine.r_errors + r.Machine.r_timeouts);
  (* Retries resubmit real traffic, so the run can only move more
     words and take longer than the clean one — never fewer. *)
  Alcotest.(check bool) "words conserved" true
    (s.Machine.words_transferred >= s_clean.Machine.words_transferred);
  Alcotest.(check bool) "faults cost cycles" true
    (s.Machine.cycles >= s_clean.Machine.cycles)

(* Near-certain faults with no retry budget: PEs are quarantined, the
   run still terminates and reports the damage instead of raising. *)
let test_fault_quarantine_degrades () =
  let c =
    {
      (cfg ~arch:G.Gbaviii ~n_pes:4 ()) with
      Machine.faults =
        Some (Machine.fault_config ~seed:9 ~rate:0.9 ~max_retries:1 ());
    }
  in
  let s = run ~max_cycles:200_000 c (fault_workload G.Gbaviii 4) in
  let r = reliability_exn "quarantine" s in
  Alcotest.(check bool) "unrecovered faults occurred" true
    (r.Machine.r_unrecovered > 0);
  Alcotest.(check bool) "PEs quarantined" true (r.Machine.r_quarantined <> []);
  Alcotest.(check int) "one quarantine per give-up" r.Machine.r_unrecovered
    (List.length r.Machine.r_quarantined);
  List.iter
    (fun pe ->
      Alcotest.(check bool) (Printf.sprintf "pe%d is a valid PE" pe) true
        (pe >= 0 && pe < 4))
    r.Machine.r_quarantined;
  (* The analysis digest stays consistent with the raw counters. *)
  match Analysis.reliability s with
  | None -> Alcotest.fail "analysis digest missing"
  | Some rr ->
      Alcotest.(check int) "digest unrecovered" r.Machine.r_unrecovered
        rr.Analysis.rr_unrecovered;
      Alcotest.(check bool) "digest fault rate positive" true
        (rr.Analysis.rr_fault_rate > 0.0)

let test_fault_config_validates () =
  (match Machine.fault_config ~seed:1 ~rate:2.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate > 1 accepted");
  match Machine.fault_config ~seed:1 ~rate:(-0.1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rate accepted"

let test_fault_config_of_string () =
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  (match Machine.fault_config_of_string "42:0.001" with
  | Ok fc ->
      Alcotest.(check int) "seed" 42 fc.Machine.f_seed;
      Alcotest.(check int) "error numerator" 1000 fc.Machine.f_error_num
  | Error m -> Alcotest.fail m);
  (* Malformed specs explain the expected shape instead of raising. *)
  List.iter
    (fun (spec, hint) ->
      match Machine.fault_config_of_string spec with
      | Ok _ -> Alcotest.failf "%S accepted" spec
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error mentions %S" spec hint)
            true (contains msg hint))
    [
      ("42", "SEED:RATE");
      ("x:0.1", "integer SEED");
      ("42:boom", "integer SEED");
      ("1:2.0", "[0, 1]");
      ("1:-0.5", "[0, 1]");
    ]

(* Satellite: the max_cycles diagnostic names every stuck PE with its
   program position and phase, so a wedged run is debuggable. *)
let test_max_cycles_diagnostic () =
  let c = cfg ~n_pes:2 () in
  let spin () = Some (Program.Compute 5) in
  let programs = [| spin; Program.of_list [ Program.Halt ] |] in
  match run ~max_cycles:2_000 c programs with
  | exception Machine.Deadlock msg ->
      let has sub =
        let n = String.length sub and m = String.length msg in
        let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
        at 0
      in
      let req sub =
        Alcotest.(check bool)
          (Printf.sprintf "message mentions %S (got %S)" sub msg)
          true (has sub)
      in
      req "max_cycles (2000) exceeded";
      req "1 of 2 PEs not halted";
      req "pe0 at op #";
      Alcotest.(check bool)
        (Printf.sprintf "message describes pe0's phase (got %S)" msg)
        true
        (has "computing" || has "fetching")
  | _ -> Alcotest.fail "expected the max_cycles diagnostic"

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_accounting; prop_throughput_monotone;
      prop_random_programs_terminate; prop_flag_handshakes_complete;
      prop_cache_sane ]

let () =
  Alcotest.run "sim"
    [
      ( "program",
        [
          Alcotest.test_case "of_list" `Quick test_program_of_list;
          Alcotest.test_case "repeat" `Quick test_program_repeat;
          Alcotest.test_case "concat" `Quick test_program_concat;
        ] );
      ( "machine",
        [
          Alcotest.test_case "compute" `Quick test_compute_only;
          Alcotest.test_case "latency" `Quick test_private_vs_shared_latency;
          Alcotest.test_case "contention" `Quick test_contention_slows_down;
          Alcotest.test_case "invalid ops" `Quick test_invalid_ops_rejected;
          Alcotest.test_case "marks" `Quick test_marks_record_time;
          Alcotest.test_case "trace analysis" `Quick test_trace_and_analysis;
          Alcotest.test_case "bus energy" `Quick test_bus_energy;
          Alcotest.test_case "per-pe analysis" `Quick test_per_pe_analysis;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "flags" `Quick test_flag_handshake;
          Alcotest.test_case "bfba init" `Quick test_bfba_done_op_initialised;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "pipeline" `Quick test_fifo_pipeline;
          Alcotest.test_case "blocks when full" `Quick test_fifo_blocks_when_full;
          Alcotest.test_case "deadlock" `Quick test_fifo_deadlock_detected;
        ] );
      ( "locks",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "try_lock" `Quick test_try_lock_callback;
          Alcotest.test_case "unheld release" `Quick test_lock_release_of_unheld;
        ] );
      ( "arbitration",
        [
          Alcotest.test_case "policies" `Quick test_policies_differ_in_order;
          Alcotest.test_case "ccba arb" `Quick test_ccba_slower_arbitration;
        ] );
      ( "paths",
        [
          Alcotest.test_case "miss traffic" `Quick
            test_miss_traffic_on_shared_program_memory;
          Alcotest.test_case "splitba var home" `Quick test_splitba_var_home;
        ] );
      ( "analysis export",
        [ Alcotest.test_case "throughput totality" `Quick
            test_throughput_totality;
          Alcotest.test_case "csv and gnuplot" `Quick test_csv_export;
          Alcotest.test_case "lock contention" `Quick test_lock_contention;
          Alcotest.test_case "exports without trace" `Quick
            test_exports_without_trace;
          Alcotest.test_case "queueing statistics" `Quick
            test_queueing_statistics;
          Alcotest.test_case "real l1 mode" `Quick test_real_l1_mode;
          Alcotest.test_case "report rendering" `Quick
            test_pp_report_renders;
          Alcotest.test_case "words by kind" `Quick test_words_by_kind;
          Alcotest.test_case "splitba n subsystems" `Quick
            test_splitba_n_subsystems_paths ] );
      ( "cache",
        [
          Alcotest.test_case "compulsory misses" `Quick
            test_cache_compulsory_misses;
          Alcotest.test_case "lru and associativity" `Quick
            test_cache_lru_and_associativity;
          Alcotest.test_case "bad configs" `Quick test_cache_bad_configs;
          Alcotest.test_case "kernel shapes" `Quick test_cache_kernel_shapes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "campaign over all architectures" `Quick
            test_fault_campaign_all_archs;
          Alcotest.test_case "rate zero identical" `Quick
            test_fault_rate_zero_identical;
          Alcotest.test_case "retries recover" `Quick
            test_fault_retries_recover;
          Alcotest.test_case "quarantine degrades gracefully" `Quick
            test_fault_quarantine_degrades;
          Alcotest.test_case "config validation" `Quick
            test_fault_config_validates;
          Alcotest.test_case "SEED:RATE parsing" `Quick
            test_fault_config_of_string;
          Alcotest.test_case "max_cycles diagnostic" `Quick
            test_max_cycles_diagnostic;
        ] );
      ("properties", qcheck_cases);
    ]
