(* Checkpoint/restore and soak-runner tests.

   The load-bearing property is bit-exact resume: running N cycles
   straight must equal running to K, checkpointing, restoring into a
   fresh engine and running the remaining N-K — for every architecture,
   with and without protection hardware and fault campaigns, for both
   evaluation engines.  On top of that: container integrity (CRC,
   truncation), graceful fallback over corrupt checkpoints, and the
   provenance refusal path. *)

module A = Bussyn.Archs
module G = Bussyn.Generate
module I = Busgen_rtl.Flat
module E = Busgen_rtl.Engine
module Bits = Busgen_rtl.Bits
module T = Busgen_verify.Traffic
module P = Busgen_verify.Prop
module Ckpt = Busgen_ckpt.Ckpt
module Soak = Busgen_ckpt.Soak
module Io = Busgen_binio.Io

let has_infix needle hay =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let all_archs =
  [ G.Bfba; G.Gbavi; G.Gbavii; G.Gbaviii; G.Hybrid; G.Splitba; G.Ggba; G.Ccba ]

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "bsck_test_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir)
    else Sys.mkdir dir 0o755;
    dir

(* The two engines export in different orders (slot order vs. sorted);
   [import_state] matches by name, so compare order-independently. *)
let sort_state (st : I.state) =
  let by_name (x, _) (y, _) = compare x y in
  {
    st with
    I.st_values =
      (let a = Array.copy st.I.st_values in
       Array.sort by_name a;
       a);
    st_mems =
      (let a = Array.copy st.I.st_mems in
       Array.sort by_name a;
       a);
  }

let check_state_equal what a b =
  let a = sort_state a and b = sort_state b in
  Alcotest.(check int) (what ^ ": cycle") a.I.st_cycle b.I.st_cycle;
  Alcotest.(check int)
    (what ^ ": signal count")
    (Array.length a.I.st_values)
    (Array.length b.I.st_values);
  Array.iteri
    (fun i (name, v) ->
      let name', v' = b.I.st_values.(i) in
      Alcotest.(check string) (what ^ ": signal name") name name';
      if not (Bits.equal v v') then
        Alcotest.failf "%s: signal %s differs: %s vs %s" what name
          (Bits.to_hex_string v) (Bits.to_hex_string v'))
    a.I.st_values;
  Array.iteri
    (fun i (name, words) ->
      let name', words' = b.I.st_mems.(i) in
      Alcotest.(check string) (what ^ ": memory name") name name';
      Array.iteri
        (fun j w ->
          if not (Bits.equal w words'.(j)) then
            Alcotest.failf "%s: %s[%d] differs" what name j)
        words)
    a.I.st_mems

(* ------------------------------------------------------------------ *)
(* Io / container                                                      *)
(* ------------------------------------------------------------------ *)

let test_io_roundtrip () =
  let b = Io.writer () in
  Io.w_int b 0;
  Io.w_int b (-1);
  Io.w_int b max_int;
  Io.w_int b min_int;
  Io.w_string b "hello";
  Io.w_string b "";
  Ckpt.w_bits b (Bits.of_string "17'h1ffff");
  Io.w_list b Io.w_int [ 3; 1; 4; 1; 5 ];
  Io.w_array b Io.w_bool [| true; false; true |];
  Io.w_opt b Io.w_int None;
  Io.w_opt b Io.w_int (Some 99);
  let r = Io.reader (Io.contents b) in
  Alcotest.(check int) "zero" 0 (Io.r_int r);
  Alcotest.(check int) "minus one" (-1) (Io.r_int r);
  Alcotest.(check int) "max_int" max_int (Io.r_int r);
  Alcotest.(check int) "min_int" min_int (Io.r_int r);
  Alcotest.(check string) "string" "hello" (Io.r_string r);
  Alcotest.(check string) "empty string" "" (Io.r_string r);
  Alcotest.(check bool) "bits" true
    (Bits.equal (Bits.of_string "17'h1ffff") (Ckpt.r_bits r));
  Alcotest.(check (list int)) "list" [ 3; 1; 4; 1; 5 ] (Io.r_list r Io.r_int);
  Alcotest.(check (array bool))
    "array" [| true; false; true |]
    (Io.r_array r Io.r_bool);
  Alcotest.(check (option int)) "none" None (Io.r_opt r Io.r_int);
  Alcotest.(check (option int)) "some" (Some 99) (Io.r_opt r Io.r_int);
  Alcotest.(check bool) "at end" true (Io.at_end r)

let test_io_corrupt () =
  let truncated = "\x05\x00\x00" in
  (match Io.r_int (Io.reader truncated) with
  | _ -> Alcotest.fail "truncated int decoded"
  | exception Io.Corrupt _ -> ());
  let b = Io.writer () in
  Io.w_int b 1_000_000;
  (* A length prefix far past the end of the buffer. *)
  match Io.r_string (Io.reader (Io.contents b)) with
  | _ -> Alcotest.fail "bogus string decoded"
  | exception Io.Corrupt _ -> ()

let test_crc32_vector () =
  (* The classic check value for the IEEE polynomial. *)
  Alcotest.(check int) "crc32(\"123456789\")" 0xCBF43926
    (Io.crc32 "123456789")

let test_container_roundtrip () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "round.bsck" in
  let sections = [ ("alpha", "payload one"); ("beta", String.make 4096 'x') ] in
  Ckpt.write_file path sections;
  (match Ckpt.read_file path with
  | Ok got -> Alcotest.(check (list (pair string string))) "sections" sections got
  | Error e -> Alcotest.fail e);
  (* No temp files left behind. *)
  Alcotest.(check (list string))
    "only the checkpoint on disk" [ "round.bsck" ]
    (Array.to_list (Sys.readdir dir))

let read_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_container_corruption () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "c.bsck" in
  Ckpt.write_file path [ ("s", "some payload to damage") ];
  let orig = read_bytes path in
  (* Bit-flip in the middle: CRC must catch it. *)
  let flipped = Bytes.of_string orig in
  let mid = String.length orig / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x10));
  write_bytes path (Bytes.to_string flipped);
  (match Ckpt.read_file path with
  | Ok _ -> Alcotest.fail "bit-flipped file accepted"
  | Error e ->
      Alcotest.(check bool) "mentions CRC" true
        (has_infix "CRC" e));
  (* Truncation. *)
  write_bytes path (String.sub orig 0 (String.length orig - 5));
  (match Ckpt.read_file path with
  | Ok _ -> Alcotest.fail "truncated file accepted"
  | Error _ -> ());
  (* Not a checkpoint at all. *)
  write_bytes path "just some text, definitely not binary";
  match Ckpt.read_file path with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e ->
      Alcotest.(check bool) "mentions magic or CRC" true
        (has_infix "magic" e
        || has_infix "CRC" e)

(* ------------------------------------------------------------------ *)
(* Snapshot resume: the determinism matrix                             *)
(* ------------------------------------------------------------------ *)

(* One cell of the matrix: straight N-cycle monitored traffic run
   vs. run-to-K / export / import-into-fresh-engine / finish — compare
   every signal, every memory word, the traffic counters and the
   monitor state. *)
let resume_cell arch ~protect ~faulted () =
  let cfg = { (A.small_config ~n_pes:2) with A.protect } in
  let gen = G.generate arch cfg in
  let top = gen.G.generated.A.top in
  let seed = 42 in
  let total = 60 and k = 25 in
  let faults sim =
    if not faulted then []
    else
      (* A short transient on a mid-run cycle: deterministic, active
         across the checkpoint boundary's neighborhood, and drawn from
         the design itself so every architecture gets a real signal. *)
      match E.random_campaign sim ~seed:7 ~n:2 ~horizon:10 with
      | campaign ->
          List.map
            (fun (inj : I.injection) -> { inj with I.inj_start = k + 5 })
            campaign
  in
  let straight () =
    let tb = Busgen_rtl.Testbench.create top in
    let sim = Busgen_rtl.Testbench.engine tb in
    let mon = Busgen_verify.Pack.attach sim top in
    let inj = faults sim in
    if inj <> [] then E.inject sim inj;
    let d = T.create tb ~arch ~config:cfg ~seed in
    (try
       while E.current_cycle sim < total do
         T.step d
       done;
       Ok ()
     with Busgen_rtl.Testbench.Timeout m -> Error m)
    |> fun outcome ->
    ( outcome,
      E.export_state sim,
      T.export_state d,
      P.export_state mon,
      inj )
  in
  let outcome_s, state_s, traffic_s, monitor_s, inj_s = straight () in
  (* Interrupted: first engine runs to K and checkpoints... *)
  let snap =
    let tb = Busgen_rtl.Testbench.create top in
    let sim = Busgen_rtl.Testbench.engine tb in
    let mon = Busgen_verify.Pack.attach sim top in
    if inj_s <> [] then E.inject sim inj_s;
    let d = T.create tb ~arch ~config:cfg ~seed in
    while E.current_cycle sim < k do
      T.step d
    done;
    {
      Ckpt.ck_tool = G.tool_version;
      ck_hash = G.design_hash arch cfg;
      ck_arch = arch;
      ck_config = cfg;
      ck_seed = seed;
      ck_interp = E.export_state sim;
      ck_injections = inj_s;
      ck_traffic = Some (T.export_state d);
      ck_monitor = Some (P.export_state mon);
    }
  in
  (* ...through the binary file... *)
  let dir = fresh_dir () in
  let path = Ckpt.path_for ~dir ~cycle:snap.Ckpt.ck_interp.I.st_cycle in
  Ckpt.save ~path snap;
  let snap =
    match Ckpt.load ~path with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (* ...into a fresh engine that finishes the run. *)
  let sim = E.create top in
  let mon = Busgen_verify.Pack.attach sim top in
  if snap.Ckpt.ck_injections <> [] then E.inject sim snap.Ckpt.ck_injections;
  E.import_state sim snap.Ckpt.ck_interp;
  let tb = Busgen_rtl.Testbench.of_engine sim in
  let d = T.create tb ~arch ~config:cfg ~seed in
  (match snap.Ckpt.ck_traffic with
  | Some ts -> T.import_state d ts
  | None -> ());
  (match snap.Ckpt.ck_monitor with
  | Some ms -> P.import_state mon ms
  | None -> ());
  let outcome_r =
    try
      while E.current_cycle sim < total do
        T.step d
      done;
      Ok ()
    with Busgen_rtl.Testbench.Timeout m -> Error m
  in
  (match (outcome_s, outcome_r) with
  | Ok (), Ok () -> ()
  | Error a, Error b -> Alcotest.(check string) "same timeout" a b
  | Ok (), Error m -> Alcotest.failf "resumed run timed out (%s), straight did not" m
  | Error m, Ok () -> Alcotest.failf "straight run timed out (%s), resumed did not" m);
  check_state_equal "final state" state_s (E.export_state sim);
  let traffic_r = T.export_state d in
  Alcotest.(check int) "rng" traffic_s.T.ts_rng traffic_r.T.ts_rng;
  Alcotest.(check int)
    "transactions" traffic_s.T.ts_transactions traffic_r.T.ts_transactions;
  Alcotest.(check int) "reads" traffic_s.T.ts_reads traffic_r.T.ts_reads;
  Alcotest.(check int) "writes" traffic_s.T.ts_writes traffic_r.T.ts_writes;
  Alcotest.(check int)
    "mismatches" traffic_s.T.ts_mismatches traffic_r.T.ts_mismatches;
  Alcotest.(check bool) "shadow model" true
    (traffic_s.T.ts_local = traffic_r.T.ts_local
    && traffic_s.T.ts_shared = traffic_r.T.ts_shared
    && traffic_s.T.ts_hs = traffic_r.T.ts_hs
    && traffic_s.T.ts_queues = traffic_r.T.ts_queues);
  let monitor_r = P.export_state mon in
  Alcotest.(check (array int))
    "monitor pending" monitor_s.P.ms_pending monitor_r.P.ms_pending;
  Alcotest.(check int) "monitor total" monitor_s.P.ms_total monitor_r.P.ms_total;
  Alcotest.(check (list (pair string int)))
    "monitor firsts"
    (List.map (fun v -> (v.P.v_prop, v.P.v_cycle)) monitor_s.P.ms_firsts)
    (List.map (fun v -> (v.P.v_prop, v.P.v_cycle)) monitor_r.P.ms_firsts)

let matrix_tests =
  List.concat_map
    (fun arch ->
      List.concat_map
        (fun protect ->
          List.map
            (fun faulted ->
              Alcotest.test_case
                (Printf.sprintf "%s%s%s resume == straight" (G.arch_name arch)
                   (if protect then " +protect" else "")
                   (if faulted then " +faults" else ""))
                `Quick
                (resume_cell arch ~protect ~faulted))
            [ false; true ])
        [ false; true ])
    all_archs

(* The full cross-engine matrix: a snapshot taken under either engine
   restores into the other, and two fresh engines restored from the
   same snapshot advance bit-exactly — free-running and under an
   identical fault campaign.  This is the contract that lets a soak run
   checkpointed under `--engine ref` resume under `--engine tape` (and
   back). *)
let test_cross_engine_resume () =
  let cfg = A.small_config ~n_pes:2 in
  let gen = G.generate G.Hybrid cfg in
  let top = gen.G.generated.A.top in
  List.iter
    (fun src ->
      (* Warm the source engine into a non-trivial mid-run state. *)
      let tb = Busgen_rtl.Testbench.create ~engine:src top in
      let sim = Busgen_rtl.Testbench.engine tb in
      let d = T.create tb ~arch:G.Hybrid ~config:cfg ~seed:9 in
      while E.current_cycle sim < 25 do
        T.step d
      done;
      let st = E.export_state sim in
      let campaign = E.random_campaign sim ~seed:3 ~n:6 ~horizon:80 in
      List.iter
        (fun dst ->
          if dst <> src then begin
            let what =
              Printf.sprintf "%s -> %s" (E.kind_to_string src)
                (E.kind_to_string dst)
            in
            let a = E.create ~kind:src top in
            let b = E.create ~kind:dst top in
            E.import_state a st;
            E.import_state b st;
            check_state_equal (what ^ ": after import") st (E.export_state b);
            E.run a 40;
            E.run b 40;
            check_state_equal
              (what ^ ": 40 free-running cycles")
              (E.export_state a) (E.export_state b);
            E.inject a campaign;
            E.inject b campaign;
            E.run a 40;
            E.run b 40;
            check_state_equal
              (what ^ ": 40 faulted cycles")
              (E.export_state a) (E.export_state b)
          end)
        E.all_kinds)
    E.all_kinds

(* ------------------------------------------------------------------ *)
(* Provenance refusal                                                  *)
(* ------------------------------------------------------------------ *)

let test_provenance_refusal () =
  let cfg = A.small_config ~n_pes:2 in
  let snap =
    {
      Ckpt.ck_tool = G.tool_version;
      ck_hash = G.design_hash G.Bfba cfg;
      ck_arch = G.Bfba;
      ck_config = cfg;
      ck_seed = 1;
      ck_interp = { I.st_cycle = 0; st_values = [||]; st_mems = [||] };
      ck_injections = [];
      ck_traffic = None;
      ck_monitor = None;
    }
  in
  (match Ckpt.check_provenance snap ~arch:G.Bfba ~config:cfg ~seed:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Re-generated design differs (protection flipped): refuse. *)
  (match
     Ckpt.check_provenance snap ~arch:G.Bfba
       ~config:{ cfg with A.protect = true }
       ~seed:1
   with
  | Ok () -> Alcotest.fail "mismatched design hash accepted"
  | Error e ->
      Alcotest.(check bool) "names the hash" true
        (has_infix "hash" e));
  (* Different architecture: refuse. *)
  (match Ckpt.check_provenance snap ~arch:G.Gbavi ~config:cfg ~seed:1 with
  | Ok () -> Alcotest.fail "mismatched architecture accepted"
  | Error _ -> ());
  (* Different traffic seed: refuse. *)
  (match Ckpt.check_provenance snap ~arch:G.Bfba ~config:cfg ~seed:2 with
  | Ok () -> Alcotest.fail "mismatched seed accepted"
  | Error e ->
      Alcotest.(check bool) "names the seed" true
        (has_infix "seed" e));
  (* Written by a different tool version: refuse. *)
  match
    Ckpt.check_provenance
      { snap with Ckpt.ck_tool = "bussyn 0.0.1" }
      ~arch:G.Bfba ~config:cfg ~seed:1
  with
  | Ok () -> Alcotest.fail "mismatched tool version accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Soak runner                                                         *)
(* ------------------------------------------------------------------ *)

let soak_cfg ?(cycles = 60) ?(cadence = 20) ~dir () =
  Soak.config ~cadence ~keep:2 ~arch:G.Gbaviii
    ~config:(A.small_config ~n_pes:2) ~seed:11 ~cycles ~dir ()

let test_soak_fresh_and_resume () =
  (* Reference: one uninterrupted supervised run. *)
  let ref_dir = fresh_dir () in
  let reference =
    match Soak.run (soak_cfg ~dir:ref_dir ()) with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (option int)) "fresh run did not resume" None
    reference.Soak.so_resumed_at;
  Alcotest.(check bool) "wrote checkpoints" true
    (reference.Soak.so_checkpoints > 0);
  (* Interrupted: run to cycle ~25, then re-invoke with the full horizon
     against the same directory. *)
  let dir = fresh_dir () in
  let part1 =
    match Soak.run (soak_cfg ~cycles:25 ~dir ()) with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "part 1 left checkpoints" true
    (Ckpt.list_files ~dir <> []);
  let part2 =
    match Soak.run (soak_cfg ~dir ()) with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  (match part2.Soak.so_resumed_at with
  | Some c ->
      Alcotest.(check bool) "resumed at part 1's frontier" true
        (c >= part1.Soak.so_cycles)
  | None -> Alcotest.fail "part 2 did not resume");
  Alcotest.(check int) "same final cycle count" reference.Soak.so_cycles
    part2.Soak.so_cycles;
  Alcotest.(check int) "same transactions"
    reference.Soak.so_stats.T.transactions part2.Soak.so_stats.T.transactions;
  Alcotest.(check int) "same reads" reference.Soak.so_stats.T.reads
    part2.Soak.so_stats.T.reads;
  Alcotest.(check int) "same writes" reference.Soak.so_stats.T.writes
    part2.Soak.so_stats.T.writes;
  Alcotest.(check int) "no mismatches" 0 part2.Soak.so_stats.T.mismatches;
  Alcotest.(check int) "same violations"
    (List.length reference.Soak.so_violations)
    (List.length part2.Soak.so_violations)

let test_soak_corrupt_fallback () =
  let dir = fresh_dir () in
  (* Produce at least two checkpoints. *)
  (match Soak.run (soak_cfg ~dir ()) with
  | Ok o -> Alcotest.(check bool) "several checkpoints" true (o.Soak.so_checkpoints >= 2)
  | Error e -> Alcotest.fail e);
  let files = Ckpt.list_files ~dir in
  Alcotest.(check bool) "two on disk" true (List.length files >= 2);
  let newest_cycle, newest = List.hd files in
  (* Corrupt the newest; recovery must fall back to the previous one. *)
  let orig = read_bytes newest in
  let dam = Bytes.of_string orig in
  Bytes.set dam (String.length orig / 2)
    (Char.chr (Char.code (Bytes.get dam (String.length orig / 2)) lxor 0x40));
  write_bytes newest (Bytes.to_string dam);
  let resumed =
    match Soak.run (soak_cfg ~cycles:90 ~dir ()) with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "skipped the corrupt newest" true
    (List.exists (fun (p, _) -> p = newest) resumed.Soak.so_skipped);
  (match resumed.Soak.so_resumed_at with
  | Some c -> Alcotest.(check bool) "resumed from an older checkpoint" true (c < newest_cycle)
  | None -> Alcotest.fail "did not resume at all");
  (* And the recovered run still matches an uninterrupted reference. *)
  let ref_dir = fresh_dir () in
  let reference =
    match Soak.run (soak_cfg ~cycles:90 ~dir:ref_dir ()) with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "same transactions"
    reference.Soak.so_stats.T.transactions resumed.Soak.so_stats.T.transactions;
  Alcotest.(check int) "same cycles" reference.Soak.so_cycles
    resumed.Soak.so_cycles

let test_soak_provenance_refusal () =
  let dir = fresh_dir () in
  (match Soak.run (soak_cfg ~dir ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Same directory, different design (protection flipped on): refuse. *)
  let cfg =
    Soak.config ~cadence:20 ~arch:G.Gbaviii
      ~config:{ (A.small_config ~n_pes:2) with A.protect = true }
      ~seed:11 ~cycles:90 ~dir ()
  in
  match Soak.run cfg with
  | Ok _ -> Alcotest.fail "resumed across a design change"
  | Error e ->
      Alcotest.(check bool) "refusal names the hash" true
        (has_infix "hash" e)

(* The directory tests need only some valid payload: a minimal
   container whose one section holds the cycle. *)
let save_cycle ~dir cycle =
  Ckpt.write_file (Ckpt.path_for ~dir ~cycle) [ ("cycle", string_of_int cycle) ]

let load_cycle ~path =
  match Ckpt.read_file path with
  | Ok [ ("cycle", c) ] -> Ok (int_of_string c)
  | Ok _ -> Error (path ^ ": not a cycle payload")
  | Error e -> Error e

let test_latest_valid_ordering () =
  let dir = fresh_dir () in
  List.iter (save_cycle ~dir) [ 100; 300; 200 ];
  (match Ckpt.latest_valid ~dir ~load:load_cycle with
  | Some (payload, cycle, _), [] ->
      Alcotest.(check int) "newest first" 300 cycle;
      Alcotest.(check int) "payload agrees" 300 payload
  | Some _, skipped ->
      Alcotest.failf "unexpected skips: %d" (List.length skipped)
  | None, _ -> Alcotest.fail "nothing found");
  Ckpt.prune ~dir ~keep:1 ();
  Alcotest.(check (list (pair int string)))
    "prune keeps the newest"
    [ (300, Ckpt.path_for ~dir ~cycle:300) ]
    (Ckpt.list_files ~dir)

let test_prune_failure_logged () =
  let dir = fresh_dir () in
  List.iter (save_cycle ~dir) [ 200; 300 ];
  (* A *directory* named like the oldest checkpoint: Sys.remove raises,
     so prune must skip it with a logged reason instead of dying. *)
  let stuck = Ckpt.path_for ~dir ~cycle:100 in
  Sys.mkdir stuck 0o755;
  let logged = ref [] in
  Ckpt.prune ~log:(fun m -> logged := m :: !logged) ~dir ~keep:1 ();
  (match !logged with
  | [ msg ] ->
      Alcotest.(check bool) "skip names the path" true (has_infix stuck msg);
      Alcotest.(check bool) "skip is a prune report" true
        (has_infix "prune: skipping" msg)
  | l -> Alcotest.failf "expected one logged skip, got %d" (List.length l));
  (* The kept file is the newest real one; the undeletable entry is
     still listed but must not break recovery. *)
  (match Ckpt.latest_valid ~dir ~load:load_cycle with
  | Some (payload, cycle, _), _ ->
      Alcotest.(check int) "latest_valid still resumes from newest" 300 cycle;
      Alcotest.(check int) "payload agrees" 300 payload
  | None, _ -> Alcotest.fail "latest_valid found nothing after failed prune");
  Sys.rmdir stuck

(* ------------------------------------------------------------------ *)
(* Sweep checkpoints                                                   *)
(* ------------------------------------------------------------------ *)

module Sweep = Busgen_ckpt.Sweep
module Fz = Busgen_verify.Fuzz

let sweep_load ?log ?every ?wall ~dir ~ident ~total () =
  match Sweep.load ?log ?every ?wall ~dir ~ident ~total () with
  | Ok t -> t
  | Error msg -> Alcotest.failf "sweep load refused: %s" msg

let test_sweep_roundtrip () =
  let dir = fresh_dir () in
  let t = sweep_load ~dir ~ident:"sweep-a" ~total:10 () in
  Alcotest.(check int) "fresh is empty" 0 (Sweep.completed t);
  Sweep.note t 3 "payload-three";
  Sweep.note t 7 "payload-seven";
  Sweep.note t 3 "duplicate ignored";
  Sweep.save t;
  let t' = sweep_load ~dir ~ident:"sweep-a" ~total:10 () in
  Alcotest.(check int) "two jobs recorded" 2 (Sweep.completed t');
  Alcotest.(check (option string)) "payload survives"
    (Some "payload-three") (Sweep.lookup t' 3);
  Alcotest.(check (option string)) "first note wins"
    (Some "payload-three") (Sweep.lookup t' 3);
  Alcotest.(check (option string)) "missing job is None" None
    (Sweep.lookup t' 4)

let test_sweep_refuses_other_sweep () =
  let dir = fresh_dir () in
  let t = sweep_load ~dir ~ident:"sweep-a" ~total:10 () in
  Sweep.note t 0 "x";
  Sweep.save t;
  (match Sweep.load ~dir ~ident:"sweep-b" ~total:10 () with
  | Error msg ->
      Alcotest.(check bool) "refusal names both idents" true
        (has_infix "sweep-a" msg && has_infix "sweep-b" msg)
  | Ok _ -> Alcotest.fail "mismatched ident must refuse");
  match Sweep.load ~dir ~ident:"sweep-a" ~total:11 () with
  | Error msg ->
      Alcotest.(check bool) "refusal mentions totals" true
        (has_infix "10" msg && has_infix "11" msg)
  | Ok _ -> Alcotest.fail "mismatched total must refuse"

let test_sweep_corrupt_starts_fresh () =
  let dir = fresh_dir () in
  let t = sweep_load ~dir ~ident:"sweep-a" ~total:10 () in
  Sweep.note t 5 "x";
  Sweep.save t;
  let path = Filename.concat dir "sweep.bsck" in
  let s = read_bytes path in
  let b = Bytes.of_string s in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xFF));
  write_bytes path (Bytes.to_string b);
  let logged = ref [] in
  let t' =
    sweep_load
      ~log:(fun m -> logged := m :: !logged)
      ~dir ~ident:"sweep-a" ~total:10 ()
  in
  Alcotest.(check int) "corrupt file degrades to fresh" 0
    (Sweep.completed t');
  match !logged with
  | [ msg ] ->
      Alcotest.(check bool) "log names the file" true (has_infix path msg)
  | l -> Alcotest.failf "expected one logged skip, got %d" (List.length l)

let test_sweep_autosave_cadence () =
  let dir = fresh_dir () in
  (* wall is huge, so only the count cadence can trigger: the file must
     appear exactly at the [every]-th note with no explicit save. *)
  let t = sweep_load ~every:2 ~wall:1e9 ~dir ~ident:"sweep-a" ~total:10 () in
  Sweep.note t 0 "a";
  let on_disk () =
    Sweep.completed (sweep_load ~dir ~ident:"sweep-a" ~total:10 ())
  in
  Alcotest.(check int) "one note: nothing flushed yet" 0 (on_disk ());
  Sweep.note t 1 "b";
  Alcotest.(check int) "second note autosaves" 2 (on_disk ())

let test_sweep_fuzz_payload_roundtrip () =
  (* The codec must reproduce the report byte-for-byte: encode every
     job's results, decode them, rebuild the report and compare JSON.
     Budget 4 covers faulted siblings (even cases) and, on most seeds,
     at least one generation error. *)
  let per_job = Array.make 4 [] in
  let rep =
    Fz.run ~cycles:200 ~seed:2026 ~budget:4
      ~on_case:(fun i rs -> per_job.(i) <- rs)
      ()
  in
  let decoded =
    Array.to_list per_job
    |> List.map (fun rs ->
           match Sweep.decode_fuzz_results (Sweep.encode_fuzz_results rs) with
           | Ok rs' -> rs'
           | Error msg -> Alcotest.failf "decode failed: %s" msg)
    |> List.concat
  in
  let rebuilt = { rep with Fz.f_results = decoded } in
  Alcotest.(check string) "report JSON survives the codec"
    (Fz.report_to_json rep)
    (Fz.report_to_json rebuilt);
  match Sweep.decode_fuzz_results "garbage not a payload" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage payload must not decode"

let test_sweep_fuzz_payload_pinned () =
  (* A fixed result list covering every fault kind, a campaign and a
     property violation encodes to the bytes pinned when the payload
     format was last changed, so sweep checkpoints written before still
     resume, and decodes back to itself. *)
  let sc ?campaign ?faults seed =
    Fz.scenario ?campaign ?faults ~cycles:200 ~seed Bussyn.Preset.gbavi_4pe
  in
  let inj inj_signal inj_fault inj_start inj_cycles =
    { I.inj_signal; inj_fault; inj_start; inj_cycles }
  in
  let results =
    [
      {
        Fz.r_scenario =
          sc 7
            ~faults:
              [
                inj "BAN_0$CBI$cpu_req" I.Stuck_at_0 3 2;
                inj "BAN_1$cpu_rdata" I.Stuck_at_1 0 4;
                inj "w_sb2_rnw_a" (I.Flip 5) 17 1;
              ];
        r_outcome = Fz.Clean;
        r_arch = Some "GBAVI";
        r_properties = 12;
        r_detections = [];
      };
      {
        Fz.r_scenario = sc 8 ~campaign:(11, 4);
        r_outcome =
          Fz.Property_violation
            [
              { P.v_prop = "handshake"; v_cycle = 42; v_detail = "ack without req" };
              { P.v_prop = "onehot-grant"; v_cycle = 0; v_detail = "" };
            ];
        r_arch = Some "GBAVI";
        r_properties = 12;
        r_detections = [ "handshake"; "onehot-grant" ];
      };
      {
        Fz.r_scenario = sc 9;
        r_outcome = Fz.Generation_error "no such bus";
        r_arch = None;
        r_properties = 0;
        r_detections = [];
      };
    ]
  in
  let bytes = Sweep.encode_fuzz_results results in
  Alcotest.(check (pair int string))
    "pinned length and digest"
    (1059, "d4bdbc50e7bc3455c420de9cf5ab262b")
    (String.length bytes, Digest.to_hex (Digest.string bytes));
  match Sweep.decode_fuzz_results bytes with
  | Ok rs -> Alcotest.(check bool) "decodes back" true (rs = results)
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let () =
  Alcotest.run "busgen_ckpt"
    [
      ( "io",
        [
          Alcotest.test_case "primitive round-trip" `Quick test_io_roundtrip;
          Alcotest.test_case "corrupt primitives rejected" `Quick test_io_corrupt;
          Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
        ] );
      ( "container",
        [
          Alcotest.test_case "write/read round-trip" `Quick
            test_container_roundtrip;
          Alcotest.test_case "bit-flip, truncation, garbage" `Quick
            test_container_corruption;
          Alcotest.test_case "latest_valid picks newest; prune" `Quick
            test_latest_valid_ordering;
          Alcotest.test_case "sweep: note/save/load round-trip" `Quick
            test_sweep_roundtrip;
          Alcotest.test_case "sweep: refuses a different sweep's file" `Quick
            test_sweep_refuses_other_sweep;
          Alcotest.test_case "sweep: corrupt file starts fresh" `Quick
            test_sweep_corrupt_starts_fresh;
          Alcotest.test_case "sweep: autosave cadence" `Quick
            test_sweep_autosave_cadence;
          Alcotest.test_case "sweep: fuzz payload bytes pinned" `Quick
            test_sweep_fuzz_payload_pinned;
          Alcotest.test_case "sweep: fuzz payload codec round-trip" `Slow
            test_sweep_fuzz_payload_roundtrip;
          Alcotest.test_case "failed prune is logged, resume survives" `Quick
            test_prune_failure_logged;
        ] );
      ("resume-matrix", matrix_tests);
      ( "cross-engine",
        [
          Alcotest.test_case "cross-engine restore matrix" `Quick
            test_cross_engine_resume;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "refusal paths" `Quick test_provenance_refusal;
        ] );
      ( "soak",
        [
          Alcotest.test_case "kill/resume matches straight run" `Quick
            test_soak_fresh_and_resume;
          Alcotest.test_case "corrupt newest falls back to previous" `Quick
            test_soak_corrupt_fallback;
          Alcotest.test_case "refuses resume across a design change" `Quick
            test_soak_provenance_refusal;
        ] );
    ]
