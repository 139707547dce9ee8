(* Binary-level tests of the CLI's exit-code contract and the -j
   determinism contract.  Exit codes: 0 = clean, 1 = a check ran and
   failed, 2 = user/input error (one line on stderr, never a raw
   exception trace).  Sharded runs (-j N) must print byte-identical
   output to -j 1. *)

(* `dune runtest` runs us from _build/default/test; `dune exec` from
   the project root.  Find the built CLI either way. *)
let exe =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "bin" "bussyn_cli.exe");
      Filename.concat "_build"
        (Filename.concat "default" (Filename.concat "bin" "bussyn_cli.exe"));
      Filename.concat "bin" "bussyn_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith "bussyn_cli.exe not found next to the test"

let tmp_dir =
  let d = Filename.concat (Filename.get_temp_dir_name ()) "bussyn_cli_test" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let in_tmp name = Filename.concat tmp_dir name

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Run the CLI, capturing exit code, stdout and stderr. *)
let run args =
  let out = in_tmp "stdout" and err = in_tmp "stderr" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code =
    match Sys.command cmd with
    | c -> c
  in
  (code, read_file out, read_file err)

let is_one_line s =
  let t = String.trim s in
  t <> "" && not (String.contains t '\n')

let check_user_error name args ~on_stderr =
  let code, _, err = run args in
  Alcotest.(check int) (name ^ ": exit 2") 2 code;
  Alcotest.(check bool) (name ^ ": one line on stderr") true
    (is_one_line err);
  let has needle hay =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: stderr mentions %S (got %S)" name on_stderr err)
    true (has on_stderr err)

(* ------------------------------------------------------------------ *)
(* Exit-code convention on user errors                                 *)
(* ------------------------------------------------------------------ *)

let test_wires_check_missing () =
  check_user_error "missing file"
    [ "wires"; "-a"; "bfba"; "--check"; in_tmp "no_such_file.wires" ]
    ~on_stderr:"wires:"

let test_wires_check_parse_error () =
  let f = in_tmp "garbage.wires" in
  write_file f "this is not a wire library\n";
  check_user_error "parse error"
    [ "wires"; "-a"; "bfba"; "--check"; f ]
    ~on_stderr:"parse error"

let test_wires_check_invalid () =
  (* Parses fine but fails Spec.validate: duplicate entry name. *)
  let f = in_tmp "dup.wires" in
  write_file f "%wire foo\n%endwire\n%wire foo\n%endwire\n";
  check_user_error "invalid library"
    [ "wires"; "-a"; "bfba"; "--check"; f ]
    ~on_stderr:"invalid"

let test_generate_options_missing () =
  check_user_error "generate --options missing"
    [ "generate"; "-a"; "bfba"; "--options"; in_tmp "no_such_options.txt";
      "-o"; in_tmp "gen_out" ]
    ~on_stderr:"bussyn_cli:"

let test_verify_replay_missing () =
  check_user_error "verify --replay missing"
    [ "verify"; "--replay"; in_tmp "no_such.repro" ]
    ~on_stderr:"verify:"

(* Unknown --engine follows the same user-error contract on every
   subcommand that accepts the flag. *)
let test_engine_unknown () =
  check_user_error "inject --engine bogus"
    [ "inject"; "-a"; "bfba"; "-p"; "2"; "--engine"; "bogus" ]
    ~on_stderr:"unknown engine";
  check_user_error "verify --engine bogus"
    [ "verify"; "-a"; "bfba"; "--cycles"; "100"; "--engine"; "bogus" ]
    ~on_stderr:"unknown engine";
  check_user_error "soak --engine bogus"
    [ "soak"; "-a"; "bfba"; "-p"; "2"; "--cycles"; "100"; "--ckpt-dir";
      in_tmp "soak_engine_bogus"; "--engine"; "bogus" ]
    ~on_stderr:"unknown engine";
  (* So is the removed [slot] engine, and the one line names the
     engines that exist. *)
  check_user_error "inject --engine slot"
    [ "inject"; "-a"; "bfba"; "-p"; "2"; "--engine"; "slot" ]
    ~on_stderr:"expected tape or ref";
  check_user_error "verify --engine slot"
    [ "verify"; "-a"; "bfba"; "--cycles"; "100"; "--engine"; "slot" ]
    ~on_stderr:"expected tape or ref";
  check_user_error "soak --engine slot"
    [ "soak"; "-a"; "bfba"; "-p"; "2"; "--cycles"; "100"; "--ckpt-dir";
      in_tmp "soak_engine_slot"; "--engine"; "slot" ]
    ~on_stderr:"expected tape or ref"

(* The supervision and worker flags follow the same user-error
   contract: a bad value is one line on stderr and exit 2, never a
   stack trace.  Negative numbers must use the = form — cmdliner eats a
   bare "-3" as an unknown option (exit 124), which is its contract,
   not ours. *)
let test_supervision_flag_validation () =
  check_user_error "invalid --job-deadline"
    [ "verify"; "--cycles"; "100"; "--job-deadline"; "nope" ]
    ~on_stderr:"invalid --job-deadline";
  check_user_error "negative --job-deadline"
    [ "verify"; "--cycles"; "100"; "--job-deadline=-2" ]
    ~on_stderr:"invalid --job-deadline";
  check_user_error "invalid --job-retries"
    [ "inject"; "-a"; "bfba"; "-p"; "2"; "--job-retries"; "2.5" ]
    ~on_stderr:"invalid --job-retries";
  check_user_error "negative --job-retries"
    [ "inject"; "-a"; "bfba"; "-p"; "2"; "--job-retries=-3" ]
    ~on_stderr:"invalid --job-retries";
  check_user_error "invalid --worker-mem-mb"
    [ "verify"; "--cycles"; "100"; "--worker-mem-mb"; "lots" ]
    ~on_stderr:"invalid --worker-mem-mb";
  check_user_error "zero --jobs"
    [ "inject"; "-a"; "bfba"; "-p"; "2"; "-n"; "4"; "--cycles"; "40";
      "--jobs=0" ]
    ~on_stderr:"invalid --jobs";
  check_user_error "negative --jobs"
    [ "inject"; "-a"; "bfba"; "-p"; "2"; "-n"; "4"; "--cycles"; "40";
      "--jobs=-3" ]
    ~on_stderr:"invalid --jobs";
  check_user_error "serve --jobs 0"
    [ "serve"; "--stdio"; "--no-journal"; "--jobs"; "0" ]
    ~on_stderr:"invalid --jobs";
  check_user_error "verify --sweep-every 0"
    [ "verify"; "--fuzz"; "1"; "--budget"; "3"; "--cycles"; "50";
      "--sweep-ckpt"; in_tmp "sweep_every_zero"; "--sweep-every=0" ]
    ~on_stderr:"invalid --sweep-every 0 (expected a positive integer)";
  check_user_error "explore --sweep-every 0"
    [ "explore"; "--archs"; "bfba"; "--sweep-ckpt";
      in_tmp "explore_every_zero"; "--sweep-every=0" ]
    ~on_stderr:"invalid --sweep-every 0 (expected a positive integer)"

(* A count below 1 is a user error on every subcommand: exit 2 and one
   line on stderr before any work, so no output directory appears
   either. *)
let test_count_flag_validation () =
  let gen_dir = in_tmp "count_gen" and soak_dir = in_tmp "count_soak" in
  let soak = [ "soak"; "-a"; "gbaviii"; "--ckpt-dir"; soak_dir ] in
  let cases =
    [
      ("--pes", [ "generate"; "-a"; "gbavi"; "-o"; gen_dir ]);
      ("--pes", [ "verify"; "-a"; "gbavi" ]);
      ("--pes", [ "inject"; "-a"; "gbavi" ]);
      ("--pes", soak);
      ("--cycles", [ "verify"; "-a"; "gbavi" ]);
      ("--cycles", [ "inject"; "-a"; "gbavi" ]);
      ("--cycles", soak);
      ("-n", [ "inject"; "-a"; "gbavi" ]);
      ("--budget", [ "verify"; "--fuzz"; "1" ]);
      ("--keep", soak);
    ]
  in
  List.iter
    (fun (flag, args) ->
      List.iter
        (fun v ->
          (* A short flag takes its value glued on ("-n-1"); a long one
             after "=", so cmdliner does not read "-1" as an option. *)
          let arg =
            if String.length flag = 2 then flag ^ v else flag ^ "=" ^ v
          in
          List.iter
            (fun d -> if Sys.file_exists d then Sys.rmdir d)
            [ gen_dir; soak_dir ];
          check_user_error
            (List.hd args ^ " " ^ arg)
            (args @ [ arg ])
            ~on_stderr:
              (Printf.sprintf "invalid %s %s (expected a positive integer)"
                 flag v);
          Alcotest.(check bool)
            (arg ^ ": no output directory") false
            (Sys.file_exists gen_dir || Sys.file_exists soak_dir))
        [ "0"; "-1" ])
    cases;
  (* Flags with other bounds: the soak cadences (0 still turns the
     cycle cadence off), generate's sizes (Archs' single-field limits,
     checked even where no module would use the value) and verify's
     first fuzz case. *)
  let gen arch = [ "generate"; "-a"; arch; "-o"; gen_dir ] in
  let seconds v =
    Printf.sprintf
      "invalid --every-seconds %S (expected a positive number of seconds)" v
  in
  List.iter
    (fun (args, arg, on_stderr) ->
      List.iter
        (fun d -> if Sys.file_exists d then Sys.rmdir d)
        [ gen_dir; soak_dir ];
      check_user_error (List.hd args ^ " " ^ arg) (args @ [ arg ]) ~on_stderr;
      Alcotest.(check bool)
        (arg ^ ": no output directory") false
        (Sys.file_exists gen_dir || Sys.file_exists soak_dir))
    [
      (soak, "--every=-1", "invalid --every -1 (expected a non-negative integer)");
      (soak, "--every-seconds=0", seconds "0");
      (soak, "--every-seconds=-1", seconds "-1");
      (soak, "--every-seconds=nan", seconds "nan");
      (soak, "--every-seconds=inf", seconds "inf");
      ( gen "gbaviii", "--data-width=0",
        "invalid --data-width 0 (expected a positive integer)" );
      ( gen "gbaviii", "--mem-addr-width=0",
        "invalid --mem-addr-width 0 (expected an integer in [1, 20])" );
      ( gen "gbaviii", "--mem-addr-width=21",
        "invalid --mem-addr-width 21 (expected an integer in [1, 20])" );
      ( gen "gbaviii", "--fifo-depth=0",
        "invalid --fifo-depth 0 (expected an integer >= 2)" );
      ( gen "splitba", "--fifo-depth=1",
        "invalid --fifo-depth 1 (expected an integer >= 2)" );
      ( [ "verify"; "--fuzz"; "1" ], "--first-case=-1",
        "invalid --first-case -1 (expected a non-negative integer)" );
    ]

let test_wires_check_valid_ok () =
  (* The happy path still exits 0: dump a library, then validate it. *)
  let f = in_tmp "valid.wires" in
  let code, _, _ = run [ "wires"; "-a"; "bfba"; "-o"; f ] in
  Alcotest.(check int) "dump exits 0" 0 code;
  let code, out, _ = run [ "wires"; "-a"; "bfba"; "--check"; f ] in
  Alcotest.(check int) "check exits 0" 0 code;
  Alcotest.(check bool) "reports all valid" true
    (let has needle hay =
       let n = String.length hay and m = String.length needle in
       let rec go i =
         i + m <= n && (String.sub hay i m = needle || go (i + 1))
       in
       go 0
     in
     has "all valid" out)

(* ------------------------------------------------------------------ *)
(* -j N vs -j 1: identical bytes on stdout, identical exit codes       *)
(* ------------------------------------------------------------------ *)

let test_inject_jobs_identical () =
  let args j =
    [ "inject"; "-a"; "gbaviii"; "-p"; "2"; "--protect"; "--seed"; "7";
      "-n"; "6"; "--cycles"; "60"; "-j"; string_of_int j ]
  in
  let c1, o1, _ = run (args 1) in
  let c4, o4, _ = run (args 4) in
  Alcotest.(check int) "same exit code" c1 c4;
  Alcotest.(check string) "same stdout" o1 o4

(* Both engines must print byte-identical campaign reports: the faults
   drawn, the stimulus and every classification depend only on
   (circuit, seed), never on the evaluator. *)
let test_inject_engines_agree () =
  let args e =
    [ "inject"; "-a"; "gbaviii"; "-p"; "2"; "--protect"; "--seed"; "7";
      "-n"; "4"; "--cycles"; "50"; "--engine"; e ]
  in
  let ct, ot, _ = run (args "tape") in
  let cr, orf, _ = run (args "ref") in
  Alcotest.(check int) "tape vs ref exit" ct cr;
  Alcotest.(check string) "tape vs ref stdout" ot orf

(* [verify] reaches [Engine.run] through [Testbench.step]: pin its
   numbers on the default tape engine, then hold the reference oracle
   to the same lines on two designs. *)
let test_verify_pinned_engines () =
  let args rest =
    [ "verify"; "-p"; "2"; "--protect"; "--cycles"; "2000" ] @ rest
  in
  let code, out, _ = run (args []) in
  Alcotest.(check int) "tape: exit 0" 0 code;
  Alcotest.(check string) "tape: pinned lines"
    "BFBA       2003 cycles,   462 transactions,  44 properties armed: clean\n\
     GBAVI      2006 cycles,   409 transactions,  30 properties armed: clean\n\
     GBAVII     2007 cycles,   337 transactions,  41 properties armed: clean\n\
     GBAVIII    2002 cycles,   282 transactions,  23 properties armed: clean\n\
     Hybrid     2004 cycles,   375 transactions,  55 properties armed: clean\n\
     SplitBA    2000 cycles,   250 transactions,  30 properties armed: clean\n\
     GGBA       2000 cycles,   250 transactions,  11 properties armed: clean\n\
     CCBA       2001 cycles,   250 transactions,   9 properties armed: clean\n"
    out;
  List.iter
    (fun a ->
      let ct, ot, _ = run (args [ "-a"; a; "--engine"; "tape" ]) in
      let cr, orf, _ = run (args [ "-a"; a; "--engine"; "ref" ]) in
      Alcotest.(check int) (a ^ ": tape vs ref exit") ct cr;
      Alcotest.(check string) (a ^ ": tape vs ref stdout") ot orf)
    [ "gbaviii"; "hybrid" ]

let test_inject_tape_jobs_identical () =
  let args j =
    [ "inject"; "-a"; "hybrid"; "-p"; "2"; "--protect"; "--seed"; "11";
      "-n"; "6"; "--cycles"; "60"; "--engine"; "tape"; "-j";
      string_of_int j ]
  in
  let c1, o1, _ = run (args 1) in
  let c2, o2, _ = run (args 2) in
  Alcotest.(check int) "same exit code" c1 c2;
  Alcotest.(check string) "same stdout" o1 o2

let test_verify_matrix_jobs_identical () =
  let args j =
    [ "verify"; "--cycles"; "300"; "--json"; "-j"; string_of_int j ]
  in
  let c1, o1, _ = run (args 1) in
  let c4, o4, _ = run (args 4) in
  Alcotest.(check int) "same exit code" c1 c4;
  Alcotest.(check string) "same stdout" o1 o4

let test_verify_fuzz_jobs_identical () =
  let args j =
    [ "verify"; "--fuzz"; "2026"; "--budget"; "8"; "--cycles"; "300";
      "--json"; "-j"; string_of_int j ]
  in
  let c1, o1, _ = run (args 1) in
  let c4, o4, _ = run (args 4) in
  Alcotest.(check int) "same exit code" c1 c4;
  Alcotest.(check string) "same stdout" o1 o4

let explore_profile =
  "seed = 11\n\
   transactions = 10\n\
   archs = bfba, ggba\n\
   widths = 16\n\
   depths = 4, 8\n\
   arbs = priority\n"

let test_explore_jobs_identical () =
  (* The acceptance contract: the emitted front is byte-identical
     across -j 1 / -j 4, capped worker processes, and --json/text. *)
  let prof = in_tmp "explore_profile.txt" in
  write_file prof explore_profile;
  let args rest = [ "explore"; "--profile"; prof; "--json" ] @ rest in
  let cd, od, _ = run (args [ "-j"; "1" ]) in
  Alcotest.(check int) "clean run" 0 cd;
  let c4, o4, _ = run (args [ "-j"; "4" ]) in
  let cp, op, _ =
    run
      (args
         [ "-j"; "2"; "--worker-mem-mb"; "2048"; "--worker-cpu-s"; "60" ])
  in
  Alcotest.(check int) "-j 4 exit" cd c4;
  Alcotest.(check int) "capped -j 2 exit" cd cp;
  Alcotest.(check string) "-j 4 front byte-identical" od o4;
  Alcotest.(check string) "capped -j 2 front byte-identical" od op;
  (* Grid overrides funnel through the same parser as the file. *)
  let ce, _, err =
    run (args [ "--archs"; "martian" ])
  in
  Alcotest.(check int) "bad override is a user error" 2 ce;
  Alcotest.(check bool) "one-line stderr" true (is_one_line err)

let test_explore_text_report () =
  let prof = in_tmp "explore_profile.txt" in
  write_file prof explore_profile;
  let code, out, _ = run [ "explore"; "--profile"; prof ] in
  Alcotest.(check int) "clean run" 0 code;
  let has needle hay =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions candidates" true (has "4 candidates" out);
  Alcotest.(check bool) "ranked rows present" true (has "bfba/w16/d4" out)

(* ------------------------------------------------------------------ *)
(* Sweep checkpoints                                                   *)
(* ------------------------------------------------------------------ *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_verify_fuzz_sweep_resume () =
  (* A completed checkpoint replays to byte-identical output: the
     second run classifies nothing, yet prints the same report with the
     same exit code. *)
  let dir = in_tmp "sweep_resume" in
  rm_rf dir;
  let args =
    [ "verify"; "--fuzz"; "2026"; "--budget"; "6"; "--cycles"; "300";
      "--json"; "-j"; "2"; "--sweep-ckpt"; dir; "--sweep-every"; "2" ]
  in
  let c1, o1, _ = run args in
  let c2, o2, err2 = run args in
  Alcotest.(check int) "same exit code" c1 c2;
  Alcotest.(check string) "same stdout from checkpoint replay" o1 o2;
  let has needle hay =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "second run announces the resume" true
    (has "resuming: 6/6" err2)

let test_sigint_flushes_sweep_ckpt () =
  (* Interrupt a live sweep on worker processes with a real SIGINT: the
     supervisor must flush the sweep checkpoint, reap its workers and
     exit 130 promptly; a rerun must resume from the flushed state. *)
  let dir = in_tmp "sweep_sigint" in
  rm_rf dir;
  let out = in_tmp "sigint_stdout" and err = in_tmp "sigint_stderr" in
  let argv =
    [| exe; "verify"; "--fuzz"; "2026"; "--budget"; "200"; "--cycles"; "300";
       "--json"; "-j"; "2"; "--sweep-every"; "1";
       "--sweep-ckpt"; dir |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid = Unix.create_process exe argv devnull out_fd err_fd in
  List.iter Unix.close [ devnull; out_fd; err_fd ];
  (* Wait for the first checkpoint flush before pulling the trigger, so
     the interrupt provably lands mid-sweep with state on disk. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let progressed () =
    Sys.file_exists dir && Array.length (Sys.readdir dir) > 0
  in
  while (not (progressed ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  Alcotest.(check bool) "sweep made checkpointed progress" true (progressed ());
  Unix.kill pid Sys.sigint;
  let t_kill = Unix.gettimeofday () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () -. t_kill > 30.0 then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "CLI did not exit within 30s of SIGINT"
        end
        else begin
          Unix.sleepf 0.05;
          reap ()
        end
    | _, status -> status
  in
  (match reap () with
  | Unix.WEXITED 130 -> ()
  | Unix.WEXITED n -> Alcotest.failf "expected exit 130, got exit %d" n
  | Unix.WSIGNALED s -> Alcotest.failf "CLI died to signal %d" s
  | Unix.WSTOPPED _ -> Alcotest.fail "CLI stopped unexpectedly");
  Alcotest.(check bool)
    (Printf.sprintf "exited promptly after SIGINT (%.1fs)"
       (Unix.gettimeofday () -. t_kill))
    true
    (Unix.gettimeofday () -. t_kill < 15.0);
  Alcotest.(check bool) "checkpoint survives the interrupt" true
    (progressed ());
  (* The flushed checkpoint is usable: the rerun announces a resume. *)
  let code, _, err2 =
    run
      [ "verify"; "--fuzz"; "2026"; "--budget"; "200"; "--cycles"; "300";
        "--json"; "-j"; "2"; "--sweep-ckpt"; dir ]
  in
  Alcotest.(check int) "resumed sweep completes" 0 code;
  let has needle hay =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "rerun resumes from flushed state (stderr: %s)"
       (String.trim err2))
    true (has "resuming:" err2)

let test_verify_fuzz_sweep_mismatch_refused () =
  let dir = in_tmp "sweep_mismatch" in
  rm_rf dir;
  let args seed =
    [ "verify"; "--fuzz"; seed; "--budget"; "4"; "--cycles"; "300";
      "--sweep-ckpt"; dir ]
  in
  let c1, _, _ = run (args "2026") in
  Alcotest.(check int) "first sweep completes" 0 c1;
  check_user_error "mismatched sweep identity"
    (args "999")
    ~on_stderr:"sweep-ckpt"

(* ------------------------------------------------------------------ *)
(* simulate: the transaction-level Machine behind Tables II-IV         *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let simulate args = run ([ "simulate"; "-a"; "gbaviii"; "-w"; "ofdm-fpa" ] @ args)

let test_simulate_pinned () =
  List.iter
    (fun (arch, workload, want) ->
      let name = arch ^ " " ^ workload in
      let code, out, err = run [ "simulate"; "-a"; arch; "-w"; workload ] in
      Alcotest.(check int) (name ^ ": exit 0") 0 code;
      Alcotest.(check string) (name ^ ": stdout") (want ^ "\n") out;
      Alcotest.(check string) (name ^ ": stderr") "" err)
    [
      ("gbaviii", "ofdm-fpa", "OFDM FPA on GBAVIII: 4.5096 Mbps (726635 cycles)");
      ("gbaviii", "ofdm-ppa", "OFDM PPA on GBAVIII: 2.4154 Mbps (1564213 cycles)");
      ("gbaviii", "mpeg2", "MPEG2 on GBAVIII: 1.0853 Mbps (3019139 cycles)");
      ("ccba", "database", "Database on CCBA: 3136830 ns (41 tasks)");
    ]

let test_simulate_faults () =
  let code, out, _ =
    simulate [ "--faults"; "42:0.05"; "--max-cycles"; "2000000" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check (list string))
    "result, fault and recovery lines"
    [ "OFDM FPA on GBAVIII: 4.5095 Mbps (726651 cycles)";
      "faults: 21 errors, 5 timeouts (0.0083 per txn)";
      "recovery: 26 retries, 25 recovered, 0 unrecovered" ]
    (List.filteri (fun i _ -> i < 3) (String.split_on_char '\n' out))

let test_simulate_trace_csv () =
  let prefix = in_tmp "sim_csv" in
  let files = List.map (( ^ ) prefix) [ "-trace.csv"; "-util.csv"; "-util.gp" ] in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) files;
  let code, out, _ = simulate [ "--trace"; "--csv"; prefix ] in
  Alcotest.(check int) "exit 0" 0 code;
  (match String.split_on_char '\n' out with
  | result :: report :: _ ->
      Alcotest.(check string) "result line"
        "OFDM FPA on GBAVIII: 4.5096 Mbps (726635 cycles)" result;
      Alcotest.(check string) "report starts with the run totals"
        "run: 726635 cycles, 3167 transactions, 62555 words" report
  | _ -> Alcotest.failf "short output %S" out);
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " written") true (Sys.file_exists f))
    files

(* --csv without --trace has nothing to write: a user error, rejected
   before the simulation runs, so nothing reaches stdout. *)
let test_simulate_csv_needs_trace () =
  let code, out, err =
    run [ "simulate"; "-a"; "splitba"; "-w"; "mpeg2"; "--csv";
          in_tmp "sim_csv_no_trace" ]
  in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check string) "nothing ran" "" out;
  Alcotest.(check bool) "one line on stderr" true (is_one_line err);
  Alcotest.(check bool) "names the missing flag" true
    (contains ~needle:"--csv needs --trace" err)

(* A run still going at --max-cycles is the simulator's progress check
   failing (exit 1, one stderr line), not an uncaught exception; a
   bound below 1 is a user error. *)
let test_simulate_deadlock () =
  let code, out, err = simulate [ "--max-cycles"; "1000" ] in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check string) "nothing on stdout" "" out;
  Alcotest.(check bool) "one line on stderr" true (is_one_line err);
  Alcotest.(check bool) "no uncaught exception" false
    (contains ~needle:"Fatal error" err);
  Alcotest.(check bool)
    (Printf.sprintf "names the guard (got %S)" err)
    true
    (contains ~needle:"bussyn_cli: max_cycles (1000) exceeded, 4 of 4 PEs" err);
  List.iter
    (fun n ->
      check_user_error ("--max-cycles=" ^ n)
        [ "simulate"; "-a"; "gbaviii"; "-w"; "ofdm-fpa"; "--max-cycles=" ^ n ]
        ~on_stderr:
          (Printf.sprintf "invalid --max-cycles %s (expected a positive integer)"
             n))
    [ "0"; "-5" ]

(* simulate has no checkpoints: the flag is cmdliner's unknown option. *)
let test_simulate_no_ckpt_dir () =
  let code, out, err = simulate [ "--ckpt-dir"; in_tmp "sim_ckpt" ] in
  Alcotest.(check int) "exit 124" 124 code;
  Alcotest.(check string) "nothing ran" "" out;
  Alcotest.(check bool) "unknown option" true
    (contains ~needle:"unknown option '--ckpt-dir'" err)

(* ------------------------------------------------------------------ *)
(* Checkpoints written by the deleted slot engine                      *)
(* ------------------------------------------------------------------ *)

(* fixtures/slot-ckpt holds the cycle-3003 checkpoint that the slot
   engine wrote, before it was deleted, for

     soak -a gbaviii -p 2 --engine slot --seed 42 --faults 3:4
          --cycles 6000 --every 1000 --keep 10

   (four installed injections).  The flattening, slot order and
   snapshot layout are unchanged, so both remaining engines must resume
   it and end on the uninterrupted run's stats line. *)
let slot_fixture =
  let name = Filename.concat "slot-ckpt" "ckpt-000000003003.bsck" in
  let candidates =
    [ Filename.concat "fixtures" name;
      Filename.concat "test" (Filename.concat "fixtures" name) ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith "slot checkpoint fixture not found"

let test_slot_checkpoint_resumes () =
  List.iter
    (fun engine ->
      let dir = in_tmp ("slot_ckpt_" ^ engine) in
      rm_rf dir;
      Sys.mkdir dir 0o755;
      write_file
        (Filename.concat dir "ckpt-000000003003.bsck")
        (read_file slot_fixture);
      let code, out, _ =
        run
          [ "soak"; "-a"; "gbaviii"; "-p"; "2"; "--engine"; engine;
            "--seed"; "42"; "--faults"; "3:4"; "--cycles"; "6000";
            "--every"; "1000"; "--keep"; "10"; "--ckpt-dir"; dir ]
      in
      Alcotest.(check int) (engine ^ ": exit 0") 0 code;
      let lines = String.split_on_char '\n' (String.trim out) in
      Alcotest.(check string)
        (engine ^ ": resumes at cycle 3003")
        (Printf.sprintf "[soak] resuming from %s (cycle 3003)"
           (Filename.concat dir "ckpt-000000003003.bsck"))
        (List.hd lines);
      Alcotest.(check string)
        (engine ^ ": same final stats as the uninterrupted run")
        "soak GBAVIII: 6003 cycles, 855 transactions (264 reads, 591 \
         writes), 0 mismatch(es), 0 violation(s)"
        (List.nth lines (List.length lines - 1)))
    [ "tape"; "ref" ]

(* A faulted soak that wedges still reports what it recorded before the
   watchdog tripped: the stats line and the violation, then the
   watchdog's diagnostic on stderr, and exit 1, on both engines. *)
let test_soak_wedged_keeps_verdict () =
  List.iter
    (fun engine ->
      let dir = in_tmp ("soak_wedged_" ^ engine) in
      rm_rf dir;
      let code, out, err =
        run
          [ "soak"; "-a"; "bfba"; "-p"; "2"; "--protect"; "--faults"; "7:40";
            "--seed"; "3"; "--cycles"; "20000"; "--every"; "0"; "--engine";
            engine; "--ckpt-dir"; dir ]
      in
      Alcotest.(check int) (engine ^ ": exit 1") 1 code;
      Alcotest.(check (list string))
        (engine ^ ": stdout")
        [ "[soak] wrote 0 checkpoint(s) under " ^ dir;
          "soak BFBA: 8092 cycles, 1639 transactions (543 reads, 1096 \
           writes), 0 mismatch(es), 1 violation(s)";
          "  cycle 7156: BAN_1$WDOG:no_timeout: forbidden condition \
           BAN_1$WDOG$timeout holds" ]
        (String.split_on_char '\n' (String.trim out));
      Alcotest.(check string)
        (engine ^ ": the watchdog line on stderr")
        "soak: watchdog: run wedged at cycle 8092 (pe1: no acknowledge for \
         address 0x300001); 6 control signal(s) frozen across a 64-cycle \
         probe: BAN_1$CBI$bus_req, BAN_1$CBI$bus_sel, BAN_1$LMUX$m_sel, \
         BAN_1$WDOG$req, BAN_1$w_lb_sel, BAN_1$w_self_gnt"
        (String.trim err))
    [ "tape"; "ref" ]

let () =
  Alcotest.run "cli"
    [
      ( "exit codes",
        [
          Alcotest.test_case "wires --check missing file" `Quick
            test_wires_check_missing;
          Alcotest.test_case "wires --check parse error" `Quick
            test_wires_check_parse_error;
          Alcotest.test_case "wires --check invalid library" `Quick
            test_wires_check_invalid;
          Alcotest.test_case "generate --options missing file" `Quick
            test_generate_options_missing;
          Alcotest.test_case "verify --replay missing file" `Quick
            test_verify_replay_missing;
          Alcotest.test_case "unknown --engine" `Quick test_engine_unknown;
          Alcotest.test_case "supervision flag validation" `Quick
            test_supervision_flag_validation;
          Alcotest.test_case "count flag validation" `Quick
            test_count_flag_validation;
          Alcotest.test_case "wires --check valid file" `Quick
            test_wires_check_valid_ok;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "pinned results" `Quick test_simulate_pinned;
          Alcotest.test_case "--faults reliability lines" `Quick
            test_simulate_faults;
          Alcotest.test_case "--trace --csv report and files" `Quick
            test_simulate_trace_csv;
          Alcotest.test_case "--csv without --trace runs nothing" `Quick
            test_simulate_csv_needs_trace;
          Alcotest.test_case "max-cycles deadlock is one stderr line" `Quick
            test_simulate_deadlock;
          Alcotest.test_case "--ckpt-dir is an unknown option" `Quick
            test_simulate_no_ckpt_dir;
        ] );
      ( "engine equivalence",
        [
          Alcotest.test_case "inject ref vs tape" `Slow
            test_inject_engines_agree;
          Alcotest.test_case "inject --engine tape -j 1 vs -j 2" `Slow
            test_inject_tape_jobs_identical;
          Alcotest.test_case "verify pinned on tape and ref" `Slow
            test_verify_pinned_engines;
          Alcotest.test_case "wedged soak keeps its verdict" `Slow
            test_soak_wedged_keeps_verdict;
          Alcotest.test_case "slot checkpoint resumes under tape and ref"
            `Quick test_slot_checkpoint_resumes;
        ] );
      ( "sharding determinism",
        [
          Alcotest.test_case "inject -j 1 vs -j 4" `Slow
            test_inject_jobs_identical;
          Alcotest.test_case "verify matrix -j 1 vs -j 4" `Slow
            test_verify_matrix_jobs_identical;
          Alcotest.test_case "verify --fuzz -j 1 vs -j 4" `Slow
            test_verify_fuzz_jobs_identical;
        ] );
      ( "explore",
        [
          Alcotest.test_case "explore -j 1 vs -j 4 vs proc" `Slow
            test_explore_jobs_identical;
          Alcotest.test_case "explore text report" `Slow
            test_explore_text_report;
        ] );
      ( "sweep checkpoints",
        [
          Alcotest.test_case "fuzz --sweep-ckpt replays byte-identically"
            `Slow test_verify_fuzz_sweep_resume;
          Alcotest.test_case "mismatched sweep identity refused" `Slow
            test_verify_fuzz_sweep_mismatch_refused;
          Alcotest.test_case "SIGINT flushes sweep checkpoint, exit 130"
            `Slow test_sigint_flushes_sweep_ckpt;
        ] );
    ]
