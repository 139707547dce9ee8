(* Tests for the forked worker backend: framed pipe protocol, crash
   containment (a worker SIGKILLed mid-job fails only its own job),
   true cancellation (overdue workers are SIGKILLed and reaped — the
   ECHILD probe proves zero zombies), rlimit enforcement, worker
   recycling, the supervisor's hook contract, and the byte-identity
   contract between forked workers and the in-process path. *)

module P = Busgen_par.Procpool
module Sv = Busgen_par.Supervise
module Io = Busgen_binio.Io
module Fuzz = Busgen_verify.Fuzz
module Sweep = Busgen_ckpt.Sweep

let enc_int v =
  let w = Io.writer () in
  Io.w_int w v;
  Io.contents w

let dec_int s = Io.r_int (Io.reader s)

let int_spec ?(config = P.default_config) () =
  { P.sp_config = config; sp_encode = enc_int; sp_decode = dec_int }

let proc ?config () = Sv.Processes (int_spec ?config ())

(* The no-zombie property, checked after every sweep: every fork was
   matched by a waitpid, and the kernel agrees there are no children
   left (running or zombie). *)
let assert_all_reaped what =
  Alcotest.(check int)
    (what ^ ": forked = reaped")
    (P.forked_total ()) (P.reaped_total ());
  let echild =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false
  in
  Alcotest.(check bool) (what ^ ": kernel reports no children") true echild

let ok_value = function
  | Sv.Ok v -> v
  | o -> Alcotest.failf "expected Ok, got %s" (Sv.describe o)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let r, w = Unix.pipe () in
  (* Largest payload stays under the 64 KB pipe buffer: writer and
     reader are the same process here, so an over-capacity frame would
     deadlock. *)
  let payloads = [ ""; "x"; String.make 30000 'q'; "\x00\xff bytes \n" ] in
  List.iter
    (fun p ->
      P.write_frame w p;
      Alcotest.(check string) "frame round-trips" p (P.read_frame r))
    payloads;
  Unix.close w;
  (match P.read_frame r with
  | exception P.Closed -> ()
  | _ -> Alcotest.fail "EOF must raise Closed");
  Unix.close r

let test_frame_corruption () =
  let r, w = Unix.pipe () in
  (* A frame with a flipped payload byte: the CRC trailer no longer
     matches and the reader must refuse rather than deliver it. *)
  let payload = "important bytes" in
  let buf = Buffer.create 64 in
  let add_int v =
    let iw = Io.writer () in
    Io.w_int iw v;
    Buffer.add_string buf (Io.contents iw)
  in
  add_int (String.length payload);
  Buffer.add_string buf "important Bytes";
  add_int (Io.crc32 payload);
  let s = Buffer.to_bytes buf in
  ignore (Unix.write w s 0 (Bytes.length s));
  (match P.read_frame r with
  | exception P.Protocol _ -> ()
  | _ -> Alcotest.fail "corrupt frame must raise Protocol");
  (* An absurd length prefix is rejected before any allocation. *)
  Buffer.clear buf;
  add_int max_int;
  let s = Buffer.to_bytes buf in
  ignore (Unix.write w s 0 (Bytes.length s));
  (match P.read_frame r with
  | exception P.Protocol _ -> ()
  | _ -> Alcotest.fail "oversized frame length must raise Protocol");
  Unix.close r;
  Unix.close w

(* ------------------------------------------------------------------ *)
(* Clean sweeps and determinism                                        *)
(* ------------------------------------------------------------------ *)

let test_clean_sweep () =
  let n = 17 in
  let r = Sv.run ~backend:(proc ()) ~jobs:4 n (fun i -> (i * 31) + 5) in
  Array.iteri
    (fun i o -> Alcotest.(check int) "value" ((i * 31) + 5) (ok_value o))
    r;
  assert_all_reaped "clean sweep"

let test_j1_vs_j4_identity () =
  let f i = (i * i) - (3 * i) in
  let outcomes jobs = Sv.run ~backend:(proc ()) ~jobs 23 f in
  let v jobs = Array.map ok_value (outcomes jobs) in
  Alcotest.(check (array int)) "-j 4 matches -j 1" (v 1) (v 4);
  assert_all_reaped "identity sweep"

let test_side_effects_stay_in_child () =
  (* Jobs run in forked children: parent state they mutate must not
     change in the supervisor's process. *)
  let cell = ref 0 in
  let r =
    Sv.run ~backend:(proc ()) ~jobs:2 4
      (fun i ->
        cell := 100 + i;
        i)
  in
  Array.iteri (fun i o -> Alcotest.(check int) "value" i (ok_value o)) r;
  Alcotest.(check int) "parent cell untouched" 0 !cell;
  assert_all_reaped "side-effect sweep"

let test_skip_prevents_forking () =
  (* An all-skipped sweep (fully resumed checkpoint) must not fork at
     all. *)
  let forked_before = P.forked_total () in
  let r =
    Sv.run ~backend:(proc ()) ~jobs:4 ~skip:(fun i -> Some (i * 7)) 6
      (fun _ -> Alcotest.fail "job ran despite skip")
  in
  Array.iteri (fun i o -> Alcotest.(check int) "value" (i * 7) (ok_value o)) r;
  Alcotest.(check int) "no forks" forked_before (P.forked_total ())

let test_hooks_once_per_index () =
  (* on_result fires exactly once per index (skipped ones included) and
     on_progress follows it with done counts 1..n, all in the parent. *)
  let n = 12 in
  let reported = Array.make n 0 in
  let progress = ref [] in
  let r =
    Sv.run ~backend:(proc ()) ~jobs:3
      ~skip:(fun i -> if i mod 4 = 0 then Some (-i) else None)
      ~on_result:(fun i _ -> reported.(i) <- reported.(i) + 1)
      ~on_progress:(fun ~done_ ~total ->
        Alcotest.(check int) "total is n" n total;
        progress := done_ :: !progress)
      n
      (fun i -> i)
  in
  Array.iteri
    (fun i o ->
      Alcotest.(check int) "value" (if i mod 4 = 0 then -i else i) (ok_value o))
    r;
  Array.iteri
    (fun i k ->
      Alcotest.(check int) (Printf.sprintf "on_result once for job %d" i) 1 k)
    reported;
  Alcotest.(check (list int)) "done counts are 1..n in order"
    (List.init n (fun i -> i + 1))
    (List.rev !progress);
  assert_all_reaped "hook sweep"

let test_hook_exception_after_drain () =
  (* The first hook exception is held until every job has committed;
     later hook calls are suppressed, and no worker is left behind. *)
  let calls = ref 0 in
  (match
     Sv.run ~backend:(proc ()) ~jobs:2
       ~on_result:(fun i _ ->
         incr calls;
         if i = 1 then failwith "hook failed at 1")
       6
       (fun i -> i)
   with
  | _ -> Alcotest.fail "expected the hook's exception"
  | exception Failure msg ->
      Alcotest.(check string) "first hook error re-raised" "hook failed at 1" msg);
  Alcotest.(check bool)
    (Printf.sprintf "later hook calls suppressed (%d calls)" !calls)
    true (!calls < 6);
  assert_all_reaped "hook-exception sweep"

let test_casualties_j1_vs_j4 () =
  (* Deterministic crashers give the same failure-summary lines on one
     worker as on four. *)
  let job i = if i mod 5 = 3 then failwith (Printf.sprintf "bad point %d" i) else i in
  let lines jobs =
    List.map
      (fun (i, why) -> Printf.sprintf "%d: %s" i why)
      (Sv.casualties (Sv.run ~backend:(proc ()) ~jobs 20 job))
  in
  let l1 = lines 1 in
  Alcotest.(check int) "four casualties" 4 (List.length l1);
  Alcotest.(check (list string)) "-j 1 vs -j 4 casualty lines" l1 (lines 4);
  assert_all_reaped "casualty sweeps"

(* ------------------------------------------------------------------ *)
(* Crash containment                                                   *)
(* ------------------------------------------------------------------ *)

let test_sigkill_contained () =
  let n = 7 in
  let r =
    Sv.run ~backend:(proc ()) ~jobs:3 n
      (fun i ->
        if i = 2 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        i * 11)
  in
  Array.iteri
    (fun i o ->
      if i = 2 then
        match o with
        | Sv.Crashed { error; attempts } ->
            Alcotest.(check string)
              "signal named" "worker killed by SIGKILL" error;
            Alcotest.(check int) "one attempt" 1 attempts
        | o -> Alcotest.failf "expected Crashed, got %s" (Sv.describe o)
      else
        Alcotest.(check int) "survivor value matches casualty-free run"
          (i * 11) (ok_value o))
    r;
  assert_all_reaped "sigkill sweep"

let test_child_exit_contained () =
  (* A job that exits the worker process underneath the pool. *)
  let r =
    Sv.run ~backend:(proc ()) ~jobs:2 4
      (fun i ->
        if i = 1 then Unix._exit 9;
        i)
  in
  (match r.(1) with
  | Sv.Crashed { error; attempts = 1 } ->
      Alcotest.(check string)
        "exit code named" "worker exited unexpectedly (code 9)" error
  | o -> Alcotest.failf "expected Crashed, got %s" (Sv.describe o));
  List.iter
    (fun i -> Alcotest.(check int) "survivor" i (ok_value r.(i)))
    [ 0; 2; 3 ];
  assert_all_reaped "exit sweep"

(* ------------------------------------------------------------------ *)
(* Deadlines: true cancellation                                        *)
(* ------------------------------------------------------------------ *)

let test_deadline_true_cancellation () =
  let t0 = Unix.gettimeofday () in
  let r =
    Sv.run
      ~policy:(Sv.policy ~deadline:0.3 ())
      ~backend:(proc ()) ~jobs:2 5
      (fun i ->
        if i = 1 then Unix.sleep 600;
        i + 40)
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match r.(1) with
  | Sv.Timed_out { deadline; attempts } ->
      Alcotest.(check (float 1e-9)) "configured deadline" 0.3 deadline;
      Alcotest.(check int) "attempt 1" 1 attempts
  | o -> Alcotest.failf "expected Timed_out, got %s" (Sv.describe o));
  List.iter
    (fun i -> Alcotest.(check int) "survivor" (i + 40) (ok_value r.(i)))
    [ 0; 2; 3; 4 ];
  Alcotest.(check bool)
    (Printf.sprintf "cancelled promptly (%.2fs)" wall)
    true (wall < 10.);
  (* The hung worker was SIGKILLed and reaped, not parked: the kernel
     has no child left at all. *)
  assert_all_reaped "deadline sweep"

let test_mixed_casualties_acceptance () =
  (* The acceptance scenario from the issue: one worker SIGKILLed, one
     job over its deadline, in the same forked sweep.  The
     sweep completes, each casualty gets its own outcome, zero zombies
     remain, and the survivors are byte-identical to a casualty-free
     ordering of the same results. *)
  let n = 10 in
  let f_pure i = (i * 13) + 2 in
  let r =
    Sv.run
      ~policy:(Sv.policy ~deadline:0.4 ())
      ~backend:(proc ()) ~jobs:3 n
      (fun i ->
        if i = 2 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        if i = 5 then Unix.sleep 600;
        f_pure i)
  in
  Array.iteri
    (fun i o ->
      match (i, o) with
      | 2, Sv.Crashed { error; attempts = 1 } ->
          Alcotest.(check string) "crash names signal"
            "worker killed by SIGKILL" error
      | 5, Sv.Timed_out { attempts = 1; _ } -> ()
      | 2, o | 5, o ->
          Alcotest.failf "job %d: unexpected %s" i (Sv.describe o)
      | i, o ->
          Alcotest.(check int)
            (Printf.sprintf "survivor %d matches casualty-free value" i)
            (f_pure i) (ok_value o))
    r;
  let rendered = Sv.casualties r in
  Alcotest.(check int) "exactly two casualties" 2 (List.length rendered);
  assert_all_reaped "mixed-casualty sweep"

(* ------------------------------------------------------------------ *)
(* Retry and quarantine                                                *)
(* ------------------------------------------------------------------ *)

let with_marker f =
  let marker = Filename.temp_file "busgen_procpool" ".marker" in
  Sys.remove marker;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists marker then Sys.remove marker)
    (fun () -> f marker)

let test_retry_transient_exception () =
  (* Attempt state cannot live in worker memory (a retry may run in a
     different process), so the transient fault leaves a marker on the
     filesystem: first attempt creates it and fails, the retry sees it
     and succeeds. *)
  with_marker (fun marker ->
      let r =
        Sv.run
          ~policy:(Sv.policy ~retries:2 ~backoff:0.01 ())
          ~backend:(proc ()) ~jobs:2 3
          (fun i ->
            if i = 0 && not (Sys.file_exists marker) then begin
              close_out (open_out marker);
              failwith "transient"
            end;
            i + 70)
      in
      Array.iteri
        (fun i o -> Alcotest.(check int) "value" (i + 70) (ok_value o))
        r);
  assert_all_reaped "transient-exception sweep"

let test_retry_after_worker_death () =
  (* Same marker trick, but the first attempt takes the whole worker
     down: the scheduler must refork and re-run the job. *)
  with_marker (fun marker ->
      let r =
        Sv.run
          ~policy:(Sv.policy ~retries:1 ~backoff:0.01 ())
          ~backend:(proc ()) ~jobs:2 3
          (fun i ->
            if i = 1 && not (Sys.file_exists marker) then begin
              close_out (open_out marker);
              Unix.kill (Unix.getpid ()) Sys.sigkill
            end;
            i + 300)
      in
      Array.iteri
        (fun i o -> Alcotest.(check int) "value" (i + 300) (ok_value o))
        r);
  assert_all_reaped "death-retry sweep"

let test_quarantine_exhausted () =
  let r =
    Sv.run
      ~policy:(Sv.policy ~retries:2 ~backoff:0.01 ())
      ~backend:(proc ()) ~jobs:2 3
      (fun i ->
        if i = 0 then failwith "always";
        i)
  in
  (match r.(0) with
  | Sv.Quarantined { attempts; _ } ->
      Alcotest.(check int) "all attempts consumed" 3 attempts
  | o -> Alcotest.failf "expected Quarantined, got %s" (Sv.describe o));
  assert_all_reaped "quarantine sweep"

(* ------------------------------------------------------------------ *)
(* Resource limits and recycling                                       *)
(* ------------------------------------------------------------------ *)

let test_rlimit_address_space () =
  (* A 512 MB address-space cap against a job that tries to hold ~2 GB:
     the worker must fail alone — promptly, not by hanging or swapping
     the machine.  The exact failure shape depends on the runtime (a
     clean Out_of_memory reaching the error reply, or the child dying),
     so only Ok is unacceptable. *)
  let config = P.config ~mem_bytes:(512 * 1024 * 1024) ~recycle_after:4 () in
  let t0 = Unix.gettimeofday () in
  let r =
    Sv.run ~backend:(proc ~config ()) ~jobs:2 3
      (fun i ->
        if i = 1 then begin
          let hog = ref [] in
          for _ = 1 to 64 do
            hog := String.make (32 * 1024 * 1024) 'x' :: !hog
          done;
          ignore (Sys.opaque_identity !hog)
        end;
        i)
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match r.(1) with
  | Sv.Ok _ -> Alcotest.fail "a 2 GB job survived a 512 MB rlimit"
  | _ -> ());
  List.iter (fun i -> Alcotest.(check int) "survivor" i (ok_value r.(i))) [ 0; 2 ];
  Alcotest.(check bool)
    (Printf.sprintf "failed promptly (%.2fs)" wall)
    true (wall < 60.);
  assert_all_reaped "rlimit-as sweep"

let test_rlimit_cpu_seconds () =
  (* RLIMIT_CPU 1s against a spin loop: the kernel delivers SIGXCPU and
     the sweep reports the signal by name — no wall-clock deadline
     needed to stop a runaway compute job. *)
  let config = P.config ~cpu_seconds:1 () in
  let t0 = Unix.gettimeofday () in
  let r =
    Sv.run ~backend:(proc ~config ()) ~jobs:2 3
      (fun i ->
        if i = 1 then begin
          let v = ref 0 in
          while Sys.opaque_identity true do
            incr v
          done;
          ignore (Sys.opaque_identity !v)
        end;
        i + 7)
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match r.(1) with
  | Sv.Crashed { error; _ } ->
      Alcotest.(check string) "SIGXCPU named" "worker killed by SIGXCPU" error
  | o -> Alcotest.failf "expected Crashed, got %s" (Sv.describe o));
  List.iter
    (fun i -> Alcotest.(check int) "survivor" (i + 7) (ok_value r.(i)))
    [ 0; 2 ];
  Alcotest.(check bool)
    (Printf.sprintf "stopped by the kernel (%.2fs)" wall)
    true (wall < 30.);
  assert_all_reaped "rlimit-cpu sweep"

let test_recycling () =
  (* recycle_after 2 over 12 jobs on one worker: at least 6 distinct
     child pids must have served, and every retired worker was reaped. *)
  let config = P.config ~recycle_after:2 () in
  let r =
    Sv.run ~backend:(proc ~config ()) ~jobs:1 12 (fun _ -> Unix.getpid ())
  in
  let pids = Array.to_list (Array.map ok_value r) in
  let distinct = List.length (List.sort_uniq compare pids) in
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct worker pids" distinct)
    true (distinct >= 6);
  assert_all_reaped "recycling sweep"

(* ------------------------------------------------------------------ *)
(* Interrupts                                                          *)
(* ------------------------------------------------------------------ *)

let test_interrupt_reaps_everything () =
  let t0 = Unix.gettimeofday () in
  (match
     Sv.run ~backend:(proc ()) ~jobs:2
       ~should_stop:(fun () -> Unix.gettimeofday () -. t0 > 0.2)
       6
       (fun i ->
         if i >= 2 then Unix.sleep 600;
         i)
   with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Sv.Interrupted -> ());
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "interrupted promptly (%.2fs)" wall)
    true (wall < 5.);
  (* Nothing is abandoned: both hung workers were SIGKILLed and reaped
     on the way out. *)
  assert_all_reaped "interrupted sweep"

let test_interrupt_mid_backoff_prompt () =
  (* Retry backoff of 10 s × 2^k, every job crashing: an interrupt
     flag raised 0.3 s in must cut the sweep short long before the
     first backoff expires.  The process scheduler parks retries in a
     ready-time queue, so the wait is interruptible by construction. *)
  let t0 = Unix.gettimeofday () in
  (match
     Sv.run
       ~policy:(Sv.policy ~retries:5 ~backoff:10.0 ())
       ~backend:(proc ()) ~jobs:2
       ~should_stop:(fun () -> Unix.gettimeofday () -. t0 > 0.3)
       4
       (fun _ -> failwith "crash into backoff")
   with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Sv.Interrupted -> ());
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "backoff did not delay the interrupt (%.2fs)" wall)
    true (wall < 5.);
  assert_all_reaped "backoff-interrupt sweep"

(* ------------------------------------------------------------------ *)
(* Fuzz sweeps over processes                                          *)
(* ------------------------------------------------------------------ *)

let fuzz_backend () = Sweep.fuzz_backend P.default_config

let test_fuzz_proc_byte_identity () =
  (* The whole-stack determinism contract on forked workers: for each
     seed, the full report JSON must be byte-identical between -j 1 and
     -j 4 process sweeps AND the in-process run — proving the
     sweep-checkpoint codec is lossless on the wire. *)
  List.iter
    (fun seed ->
      let report backend jobs =
        Fuzz.report_to_json
          (Fuzz.run ~cycles:300 ~seed ~budget:8 ~jobs ?backend ())
      in
      let inline = report None 1 in
      let proc1 = report (Some (fuzz_backend ())) 1 in
      let proc4 = report (Some (fuzz_backend ())) 4 in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: proc -j 1 = inline" seed)
        inline proc1;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: proc -j 4 = inline" seed)
        inline proc4)
    [ 11; 2026; 31337 ];
  assert_all_reaped "fuzz sweeps"

let () =
  Alcotest.run "procpool"
    [
      ( "framing",
        [
          Alcotest.test_case "frame round-trip and EOF" `Quick
            test_frame_roundtrip;
          Alcotest.test_case "CRC and length corruption" `Quick
            test_frame_corruption;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "clean sweep" `Quick test_clean_sweep;
          Alcotest.test_case "-j 1 vs -j 4 identity" `Quick
            test_j1_vs_j4_identity;
          Alcotest.test_case "side effects stay in the child" `Quick
            test_side_effects_stay_in_child;
          Alcotest.test_case "fully-skipped sweep never forks" `Quick
            test_skip_prevents_forking;
          Alcotest.test_case "hooks fire once per index" `Quick
            test_hooks_once_per_index;
          Alcotest.test_case "hook exception re-raised after drain" `Quick
            test_hook_exception_after_drain;
          Alcotest.test_case "casualty lines -j 1 vs -j 4" `Quick
            test_casualties_j1_vs_j4;
        ] );
      ( "crash containment",
        [
          Alcotest.test_case "SIGKILLed worker fails only its job" `Quick
            test_sigkill_contained;
          Alcotest.test_case "worker exit fails only its job" `Quick
            test_child_exit_contained;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "deadline SIGKILLs and reaps" `Quick
            test_deadline_true_cancellation;
          Alcotest.test_case "mixed SIGKILL + deadline acceptance" `Quick
            test_mixed_casualties_acceptance;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient exception retried" `Quick
            test_retry_transient_exception;
          Alcotest.test_case "worker death retried" `Quick
            test_retry_after_worker_death;
          Alcotest.test_case "quarantine after exhaustion" `Quick
            test_quarantine_exhausted;
        ] );
      ( "limits",
        [
          Alcotest.test_case "address-space rlimit" `Slow
            test_rlimit_address_space;
          Alcotest.test_case "CPU rlimit (SIGXCPU)" `Slow
            test_rlimit_cpu_seconds;
          Alcotest.test_case "worker recycling" `Quick test_recycling;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "interrupt reaps all workers" `Quick
            test_interrupt_reaps_everything;
          Alcotest.test_case "interrupt during retry backoff" `Quick
            test_interrupt_mid_backoff_prompt;
        ] );
      ( "fuzz determinism",
        [
          Alcotest.test_case "proc j1/j4 vs inline, 3 seeds" `Slow
            test_fuzz_proc_byte_identity;
        ] );
    ]
