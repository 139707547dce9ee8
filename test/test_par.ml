(* Tests for the sweep scheduler: splitmix substream derivation,
   worker-pool ordering and crash attribution, the supervision policy
   on both the in-process path and forked workers, and the determinism
   contract — a sharded fuzz sweep must be byte-identical to the
   sequential one, report and repro corpus alike. *)

module Sm = Busgen_par.Splitmix
module Sv = Busgen_par.Supervise
module Procpool = Busgen_par.Procpool
module Io = Busgen_binio.Io
module Fuzz = Busgen_verify.Fuzz
module Sweep = Busgen_ckpt.Sweep

(* ------------------------------------------------------------------ *)
(* Splitmix                                                            *)
(* ------------------------------------------------------------------ *)

let test_splitmix_deterministic () =
  let draw () =
    let g = Sm.create 42 in
    List.init 8 (fun _ -> Sm.next64 g)
  in
  Alcotest.(check (list int64)) "same seed, same stream" (draw ()) (draw ())

let test_splitmix_derive_indexed () =
  (* derive is a pure function of (root, index): re-deriving mid-run
     must give the same substream, independent of any other generator's
     progress. *)
  let a = Sm.derive ~root:7 ~index:13 in
  let _ = Sm.next64 a in
  let _ = Sm.next64 a in
  let b = Sm.derive ~root:7 ~index:13 in
  Alcotest.(check int64) "substream restarts from its head"
    (Sm.next64 (Sm.derive ~root:7 ~index:13))
    (Sm.next64 b);
  (* Distinct indices give distinct heads. *)
  let heads =
    List.init 64 (fun i -> Sm.next64 (Sm.derive ~root:7 ~index:i))
  in
  let sorted = List.sort_uniq compare heads in
  Alcotest.(check int) "64 indices, 64 distinct heads" 64
    (List.length sorted)

let test_splitmix_nonneg () =
  let g = Sm.create (-5) in
  for _ = 1 to 1000 do
    let v = Sm.next g in
    if v < 0 then Alcotest.failf "next returned negative %d" v;
    let b = Sm.next_in g 17 in
    if b < 0 || b >= 17 then Alcotest.failf "next_in out of range %d" b
  done

(* ------------------------------------------------------------------ *)
(* Seed partitioning: no collisions after the 30-bit engine mask       *)
(* ------------------------------------------------------------------ *)

let test_case_seed_collisions () =
  (* Options.sample and Flat.random_campaign both mask their seed to
     30 bits.  The old LCG derivation made case k+1's option stream a
     one-step offset of case k's campaign stream; the splitmix streams
     must keep all three roles of all cases distinct after masking. *)
  List.iter
    (fun root ->
      let tbl = Hashtbl.create 4096 in
      for case = 0 to 511 do
        let o, t, c = Fuzz.case_seeds ~seed:root case in
        List.iter
          (fun (role, s) ->
            let masked = s land 0x3FFFFFFF in
            match Hashtbl.find_opt tbl masked with
            | Some (case', role') ->
                Alcotest.failf
                  "root %d: %s seed of case %d collides with %s seed of \
                   case %d (masked %d)"
                  root role case role' case' masked
            | None -> Hashtbl.add tbl masked (case, role))
          [ ("option", o); ("traffic", t); ("campaign", c) ]
      done)
    [ 1; 42; 2026 ]

(* ------------------------------------------------------------------ *)
(* The process worker pool                                             *)
(* ------------------------------------------------------------------ *)

let int_backend () =
  Sv.Processes
    {
      Procpool.sp_config = Procpool.default_config;
      sp_encode =
        (fun v ->
          let w = Io.writer () in
          Io.w_int w v;
          Io.contents w);
      sp_decode = (fun s -> Io.r_int (Io.reader s));
    }

let ok_value i = function
  | Sv.Ok v -> v
  | o -> Alcotest.failf "job %d not Ok: %s" i (Sv.describe o)

let test_pool_order_and_results () =
  List.iter
    (fun jobs ->
      let r = Sv.run ~backend:(int_backend ()) ~jobs 37 (fun i -> i * i) in
      Alcotest.(check int) "length" 37 (Array.length r);
      Array.iteri
        (fun i o -> Alcotest.(check int) "slot i holds f i" (i * i) (ok_value i o))
        r)
    [ 1; 4 ]

let test_pool_crash_attribution () =
  (* A crashing job lands as Crashed in its own slot; siblings complete. *)
  let r =
    Sv.run ~backend:(int_backend ()) ~jobs:4 8 (fun i ->
        if i = 5 then failwith "boom five" else i + 100)
  in
  Array.iteri
    (fun i o ->
      match (i, o) with
      | 5, Sv.Crashed { error; attempts } ->
          Alcotest.(check int) "one attempt" 1 attempts;
          Alcotest.(check bool) "error names the exception" true
            (let rec has j =
               j + 9 <= String.length error
               && (String.sub error j 9 = "boom five" || has (j + 1))
             in
             has 0)
      | 5, o -> Alcotest.failf "job 5 ruled %s" (Sv.describe o)
      | _, o -> Alcotest.(check int) "sibling completed" (i + 100) (ok_value i o))
    r

let test_pool_progress_monotone () =
  let seen = ref [] in
  let _ =
    Sv.run ~backend:(int_backend ()) ~jobs:4
      ~on_progress:(fun ~done_ ~total ->
        Alcotest.(check int) "total is n" 23 total;
        seen := done_ :: !seen)
      23
      (fun i -> i)
  in
  let seq = List.rev !seen in
  Alcotest.(check int) "one call per job" 23 (List.length seq);
  Alcotest.(check (list int)) "done counts are 1..n in order"
    (List.init 23 (fun i -> i + 1))
    seq

(* ------------------------------------------------------------------ *)
(* Supervision: deadlines, retry, quarantine, determinism              *)
(* ------------------------------------------------------------------ *)

let test_supervise_clean_matches_pool () =
  (* With no pathology the in-process sweep and the worker pool agree:
     every slot Ok, values identical. *)
  let f i = (i * 7) + 1 in
  let inline = Sv.run 31 f in
  let pooled = Sv.run ~backend:(int_backend ()) ~jobs:4 31 f in
  Alcotest.(check int) "length" 31 (Array.length inline);
  Array.iteri
    (fun i o ->
      Alcotest.(check int) "in-process slot value" (f i) (ok_value i o);
      Alcotest.(check int) "pool slot value" (f i) (ok_value i pooled.(i)))
    inline

let test_supervise_timeout_spares_siblings () =
  (* One job hangs; with a deadline armed its worker is SIGKILLed and
     the job ruled Timed_out while every sibling completes. *)
  let outcomes =
    Sv.run ~backend:(int_backend ())
      ~policy:(Sv.policy ~deadline:0.3 ~poll:0.01 ())
      ~jobs:2 6
      (fun i ->
        if i = 2 then Unix.sleep 600;
        i * 10)
  in
  Array.iteri
    (fun i o ->
      match (i, o) with
      | 2, Sv.Timed_out { deadline; attempts } ->
          Alcotest.(check (float 1e-9)) "configured deadline recorded" 0.3
            deadline;
          Alcotest.(check int) "first attempt timed out" 1 attempts
      | 2, o -> Alcotest.failf "hung job ruled %s" (Sv.describe o)
      | _, o -> Alcotest.(check int) "sibling value" (i * 10) (ok_value i o))
    outcomes

let test_supervise_retry_succeeds () =
  (* Each flaky job crashes on its first two attempts and succeeds on
     the third; with retries:2 every slot must end Ok.  In process, so
     the attempt counters are visible here. *)
  let attempts = Array.make 8 0 in
  let outcomes =
    Sv.run
      ~policy:(Sv.policy ~retries:2 ~backoff:0.005 ())
      8
      (fun i ->
        attempts.(i) <- attempts.(i) + 1;
        if attempts.(i) < 3 then failwith "transient" else i + 50)
  in
  Array.iteri
    (fun i o -> Alcotest.(check int) "value after retries" (i + 50) (ok_value i o))
    outcomes;
  Array.iteri
    (fun i a ->
      Alcotest.(check int)
        (Printf.sprintf "job %d ran exactly 3 attempts" i)
        3 a)
    attempts

let test_supervise_quarantine_and_crash () =
  (* A job that always crashes: with retries it is Quarantined after
     1 + retries attempts; with retries:0 it is Crashed on attempt 1.
     Both schedulers apply the same rule. *)
  let hopeless i = if i = 1 then failwith "hopeless" else i in
  List.iter
    (fun (what, backend, jobs) ->
      let q =
        Sv.run ?backend ~jobs
          ~policy:(Sv.policy ~retries:2 ~backoff:0.005 ())
          3 hopeless
      in
      (match q.(1) with
      | Sv.Quarantined { attempts; error } ->
          Alcotest.(check int) (what ^ ": 1 + retries attempts") 3 attempts;
          Alcotest.(check bool) (what ^ ": error names the exception") true
            (String.length error > 0)
      | o -> Alcotest.failf "%s: expected quarantine, got %s" what (Sv.describe o));
      let c = Sv.run ?backend ~jobs 3 hopeless in
      match c.(1) with
      | Sv.Crashed { attempts; _ } ->
          Alcotest.(check int) (what ^ ": single attempt") 1 attempts
      | o -> Alcotest.failf "%s: expected crash, got %s" what (Sv.describe o))
    [ ("in-process", None, 1); ("forked", Some (int_backend ()), 2) ]

let test_supervise_skip_and_on_result () =
  (* skip pre-completes even slots: f must not run for them, and
     on_result must still fire exactly once per index. *)
  let ran = Array.make 10 false in
  let reported = Array.make 10 0 in
  let outcomes =
    Sv.run
      ~skip:(fun i -> if i mod 2 = 0 then Some (i * 100) else None)
      ~on_result:(fun i _ -> reported.(i) <- reported.(i) + 1)
      10
      (fun i ->
        ran.(i) <- true;
        i * 100)
  in
  Array.iteri
    (fun i o -> Alcotest.(check int) "slot value" (i * 100) (ok_value i o))
    outcomes;
  Array.iteri
    (fun i r ->
      if i mod 2 = 0 then
        Alcotest.(check bool)
          (Printf.sprintf "f skipped for pre-completed job %d" i)
          false r)
    ran;
  Array.iteri
    (fun i n ->
      Alcotest.(check int)
        (Printf.sprintf "on_result fired once for job %d" i)
        1 n)
    reported

let test_supervise_casualties_byte_identity () =
  (* A deterministic crasher must produce the same failure-summary
     lines in process at -j 1 as on four workers: the j1 ≡ jN contract
     extends to failures. *)
  let job i =
    if i mod 5 = 3 then failwith (Printf.sprintf "bad point %d" i) else i
  in
  let lines outcomes =
    List.map
      (fun (i, why) -> Printf.sprintf "%d: %s" i why)
      (Sv.casualties outcomes)
  in
  let l1 = lines (Sv.run 20 job) in
  Alcotest.(check int) "four casualties" 4 (List.length l1);
  Alcotest.(check (list string)) "j1 vs j4 casualty lines" l1
    (lines (Sv.run ~backend:(int_backend ()) ~jobs:4 20 job))

let test_supervise_needs_backend () =
  (* Without a backend nothing can be cancelled or run in parallel, so
     asking for either is refused instead of silently ignored. *)
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  refused "jobs > 1" (fun () -> Sv.run ~jobs:2 3 Fun.id);
  refused "deadline" (fun () ->
      Sv.run ~policy:(Sv.policy ~deadline:1.0 ()) 3 Fun.id);
  refused "jobs < 1" (fun () -> Sv.run ~backend:(int_backend ()) ~jobs:0 3 Fun.id)

let test_interruptible_sleep () =
  (* Abort flag raised from the start: the sleep must return almost
     immediately and report it was cut short. *)
  let t0 = Unix.gettimeofday () in
  let cut = Sv.interruptible_sleep ~abort:(fun () -> true) 30.0 in
  Alcotest.(check bool) "reports interruption" true cut;
  Alcotest.(check bool) "returns promptly" true
    (Unix.gettimeofday () -. t0 < 1.0);
  (* No abort: the full (tiny) duration elapses and it reports a
     complete sleep. *)
  let t0 = Unix.gettimeofday () in
  let cut = Sv.interruptible_sleep ~abort:(fun () -> false) 0.12 in
  let slept = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "reports completion" false cut;
  Alcotest.(check bool)
    (Printf.sprintf "slept the full duration (%.3fs)" slept)
    true
    (slept >= 0.1)

let test_supervise_interrupt_mid_backoff () =
  (* Regression: retry backoff used to be a dead [sleepf], so a SIGINT
     arriving mid-backoff waited out the full exponential delay before
     the sweep noticed.  With every job crashing into a 10 s backoff
     and the stop flag raised at 0.3 s, the in-process sweep must
     abandon within a couple of seconds, not after the backoff
     expires. *)
  let t0 = Unix.gettimeofday () in
  (match
     Sv.run
       ~policy:(Sv.policy ~retries:5 ~backoff:10.0 ())
       ~should_stop:(fun () -> Unix.gettimeofday () -. t0 > 0.3)
       4
       (fun _ -> failwith "crash into backoff")
   with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Sv.Interrupted -> ());
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "interrupt beat the backoff (%.2fs)" wall)
    true (wall < 5.0)

(* ------------------------------------------------------------------ *)
(* Fuzz sharding: -j N byte-identical to -j 1                          *)
(* ------------------------------------------------------------------ *)

let fuzz_backend () = Sweep.fuzz_backend Procpool.default_config

let test_fuzz_byte_identity () =
  List.iter
    (fun seed ->
      let r1 = Fuzz.run ~cycles:300 ~jobs:1 ~seed ~budget:10 () in
      let r4 =
        Fuzz.run ~cycles:300 ~jobs:4 ~backend:(fuzz_backend ()) ~seed
          ~budget:10 ()
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: report JSON identical" seed)
        (Fuzz.report_to_json r1) (Fuzz.report_to_json r4);
      let repros r =
        List.map
          (fun f ->
            Fuzz.repro_to_string
              ~expect:(Fuzz.outcome_class f.Fuzz.r_outcome)
              f.Fuzz.r_scenario)
          r.Fuzz.f_failures
      in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: repro corpus identical" seed)
        (repros r1) (repros r4))
    [ 3; 11; 21 ]

let test_fuzz_resume_matches_sharded () =
  (* first_case composition must hold under sharding too: the second
     half of a sharded budget equals a fresh resumed run. *)
  let sharded = Fuzz.run ~cycles:300 ~jobs:4 ~backend:(fuzz_backend ()) in
  let whole = sharded ~seed:11 ~budget:8 () in
  let tail = sharded ~seed:11 ~first_case:4 ~budget:4 () in
  let classes r =
    List.map (fun x -> Fuzz.outcome_class x.Fuzz.r_outcome) r.Fuzz.f_results
  in
  let drop n l = List.filteri (fun i _ -> i >= n) l in
  (* Odd cases add a faulted sibling, so compare per-case class lists
     by aligning on the case split: cases 0..3 of [whole] contribute the
     prefix; the rest must equal [tail]. *)
  let whole_classes = classes whole and tail_classes = classes tail in
  let prefix_len = List.length whole_classes - List.length tail_classes in
  Alcotest.(check (list string)) "resumed tail equals sharded tail"
    tail_classes
    (drop prefix_len whole_classes)

let () =
  Alcotest.run "par"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "indexed derive" `Quick test_splitmix_derive_indexed;
          Alcotest.test_case "nonnegative draws" `Quick test_splitmix_nonneg;
          Alcotest.test_case "no 30-bit seed collisions" `Quick
            test_case_seed_collisions;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordered results" `Quick test_pool_order_and_results;
          Alcotest.test_case "crash attribution" `Quick
            test_pool_crash_attribution;
          Alcotest.test_case "progress hook monotone" `Quick
            test_pool_progress_monotone;
        ] );
      ( "supervise",
        [
          Alcotest.test_case "clean run matches pool" `Quick
            test_supervise_clean_matches_pool;
          Alcotest.test_case "timeout spares siblings" `Quick
            test_supervise_timeout_spares_siblings;
          Alcotest.test_case "retry succeeds on flaky job" `Quick
            test_supervise_retry_succeeds;
          Alcotest.test_case "quarantine and crash attempts" `Quick
            test_supervise_quarantine_and_crash;
          Alcotest.test_case "skip and on_result" `Quick
            test_supervise_skip_and_on_result;
          Alcotest.test_case "j1 vs j4 casualty byte-identity" `Quick
            test_supervise_casualties_byte_identity;
          Alcotest.test_case "interruptible_sleep" `Quick
            test_interruptible_sleep;
          Alcotest.test_case "interrupt cuts retry backoff short" `Quick
            test_supervise_interrupt_mid_backoff;
          Alcotest.test_case "no backend: no parallelism, no deadline"
            `Quick test_supervise_needs_backend;
        ] );
      ( "fuzz sharding",
        [
          Alcotest.test_case "j1 vs j4 byte-identity (3 seeds)" `Slow
            test_fuzz_byte_identity;
          Alcotest.test_case "resume composes under sharding" `Slow
            test_fuzz_resume_matches_sharded;
        ] );
    ]
