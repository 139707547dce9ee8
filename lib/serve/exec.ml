(* See exec.mli: parse/validate in the parent, execute in a worker
   child, reply bytes a pure function of the request. *)

module G = Bussyn.Generate
module A = Bussyn.Archs
module E = Busgen_rtl.Engine
module Tb = Busgen_rtl.Testbench
module V_check = Busgen_verify.Check
module V_prop = Busgen_verify.Prop
module V_traffic = Busgen_verify.Traffic
module V_fuzz = Busgen_verify.Fuzz
module X = Busgen_explore.Explore
module Xp = Busgen_explore.Profile
module Io = Busgen_binio.Io
module Json = Busgen_json.Json

let job_kinds = [ "generate"; "simulate"; "verify"; "fuzz"; "inject"; "explore" ]
let debug_kinds = [ "sleep"; "spin"; "crash"; "fail" ]

(* ------------------------------------------------------------------ *)
(* Parameter parsing (raises Failure; validate catches)                *)
(* ------------------------------------------------------------------ *)

let bad fmt = Printf.ksprintf failwith fmt

let p_int params name ~default ~min ~max =
  match Json.member name params with
  | None -> default
  | Some j -> (
    match Json.get_int j with
    | Some v when v >= min && v <= max -> v
    | Some v -> bad "\"%s\" = %d out of range [%d, %d]" name v min max
    | None -> bad "\"%s\" must be an integer" name)

let p_bool params name ~default =
  match Json.member name params with
  | None -> default
  | Some j -> (
    match Json.get_bool j with
    | Some b -> b
    | None -> bad "\"%s\" must be a boolean" name)

let p_string_opt params name =
  match Json.member name params with
  | None -> None
  | Some j -> (
    match Json.get_string j with
    | Some s -> Some s
    | None -> bad "\"%s\" must be a string" name)

let p_arch params =
  match p_string_opt params "arch" with
  | None -> bad "missing \"arch\""
  | Some s -> (
    match G.arch_of_string s with Ok a -> a | Error e -> failwith e)

let p_engine params =
  match p_string_opt params "engine" with
  | None -> E.default_kind
  | Some s -> (
    match E.kind_of_string s with Ok k -> k | Error e -> failwith e)

(* Bounds: generous enough for every documented workload, tight enough
   that an admitted job is bounded work (the supervisor's deadline is
   the real backstop; these keep the parent-side warm cheap too). *)
let p_pes params = p_int params "pes" ~default:2 ~min:1 ~max:16
let p_protect params = p_bool params "protect" ~default:false

type workload = W_ofdm_ppa | W_ofdm_fpa | W_mpeg2 | W_database

let workload_name = function
  | W_ofdm_ppa -> "ofdm-ppa"
  | W_ofdm_fpa -> "ofdm-fpa"
  | W_mpeg2 -> "mpeg2"
  | W_database -> "database"

let p_workload params =
  match p_string_opt params "workload" with
  | None -> bad "missing \"workload\""
  | Some "ofdm-ppa" -> W_ofdm_ppa
  | Some "ofdm-fpa" -> W_ofdm_fpa
  | Some "mpeg2" -> W_mpeg2
  | Some "database" -> W_database
  | Some s ->
    bad "unknown workload %S (expected ofdm-ppa, ofdm-fpa, mpeg2 or database)"
      s

type job =
  | J_generate of { arch : G.arch; config : A.config; emit_verilog : bool }
  | J_simulate of { arch : G.arch; workload : workload; max_cycles : int }
  | J_verify of {
      arch : G.arch;
      config : A.config;
      cycles : int;
      kind : E.kind;
    }
  | J_fuzz of { seed : int; budget : int; cycles : int; first_case : int }
  | J_inject of {
      arch : G.arch;
      config : A.config;
      seed : int;
      n : int;
      cycles : int;
      kind : E.kind;
    }
  | J_explore of { profile : Xp.t; kind : E.kind }
  | J_sleep of int  (** milliseconds *)
  | J_spin
  | J_crash of int  (** signal to die by *)
  | J_fail of string  (** deterministic exception text *)

let small_config params =
  { (A.small_config ~n_pes:(p_pes params)) with A.protect = p_protect params }

let parse_job ~allow_debug (rq : Proto.request) =
  let params = rq.Proto.rq_params in
  match rq.Proto.rq_kind with
  | "generate" ->
    let pes = p_pes params in
    (* Within {!A}'s single-field limits, narrowed to bound the work
       one job may ask for. *)
    let mem_addr_width =
      p_int params "mem_addr_width" ~default:20 ~min:4
        ~max:(snd A.mem_addr_width_range)
    in
    let config =
      {
        (A.paper_config ~n_pes:pes) with
        A.bus_data_width = p_int params "data_width" ~default:64 ~min:8 ~max:256;
        mem_addr_width;
        global_mem_addr_width = mem_addr_width;
        fifo_depth =
          p_int params "fifo_depth" ~default:64
            ~min:(fst A.fifo_depth_range) ~max:4096;
        protect = p_protect params;
      }
    in
    J_generate
      {
        arch = p_arch params;
        config;
        emit_verilog = p_bool params "verilog" ~default:false;
      }
  | "simulate" ->
    let arch = p_arch params in
    let workload = p_workload params in
    let supported =
      match workload with
      | W_ofdm_ppa -> Busgen_apps.Ofdm.supported arch Busgen_apps.Ofdm.Ppa
      | W_ofdm_fpa -> Busgen_apps.Ofdm.supported arch Busgen_apps.Ofdm.Fpa
      | W_mpeg2 -> Busgen_apps.Mpeg2.supported arch
      | W_database -> Busgen_apps.Database.supported arch
    in
    if not supported then
      bad "workload %s is not supported on %s" (workload_name workload)
        (G.arch_name arch);
    J_simulate
      {
        arch;
        workload;
        max_cycles =
          p_int params "max_cycles" ~default:20_000_000 ~min:1
            ~max:200_000_000;
      }
  | "verify" ->
    J_verify
      {
        arch = p_arch params;
        config = small_config params;
        cycles = p_int params "cycles" ~default:1000 ~min:1 ~max:1_000_000;
        kind = p_engine params;
      }
  | "fuzz" ->
    J_fuzz
      {
        seed = p_int params "seed" ~default:1 ~min:0 ~max:max_int;
        budget = p_int params "budget" ~default:8 ~min:1 ~max:4096;
        cycles = p_int params "cycles" ~default:600 ~min:1 ~max:100_000;
        first_case = p_int params "first_case" ~default:0 ~min:0 ~max:max_int;
      }
  | "inject" ->
    J_inject
      {
        arch = p_arch params;
        config = small_config params;
        seed = p_int params "seed" ~default:1 ~min:0 ~max:max_int;
        n = p_int params "n" ~default:8 ~min:1 ~max:4096;
        cycles = p_int params "cycles" ~default:120 ~min:1 ~max:100_000;
        kind = p_engine params;
      }
  | "explore" -> (
    let text =
      match p_string_opt params "profile" with
      | None -> bad "missing \"profile\" (the profile file text)"
      | Some t -> t
    in
    match Xp.parse text with
    | Error msg -> bad "profile: %s" msg
    | Ok p ->
      (* Admission bounds: an accepted exploration is bounded work (the
         supervisor's deadline remains the backstop). *)
      let n = Xp.n_candidates p in
      if n > 256 then bad "profile grid has %d candidates (serve cap 256)" n;
      if p.Xp.transactions > 5000 then
        bad "transactions = %d over the serve cap 5000" p.Xp.transactions;
      if p.Xp.faults > 64 then
        bad "faults = %d over the serve cap 64" p.Xp.faults;
      J_explore { profile = p; kind = p_engine params })
  | ("sleep" | "spin" | "crash" | "fail") as kind when not allow_debug ->
    bad "debug kind %S requires the server to run with --debug-kinds" kind
  | "sleep" -> J_sleep (p_int params "ms" ~default:100 ~min:0 ~max:600_000)
  | "spin" -> J_spin
  | "crash" ->
    let s =
      match p_string_opt params "signal" with
      | None | Some "KILL" -> Sys.sigkill
      | Some "ABRT" -> Sys.sigabrt
      | Some "TERM" -> Sys.sigterm
      | Some "SEGV" -> Sys.sigsegv
      | Some s -> bad "unknown signal %S (expected KILL, ABRT, TERM, SEGV)" s
    in
    J_crash s
  | "fail" -> (
    match p_string_opt params "error" with
    | None -> J_fail "deterministic failure (debug kind)"
    | Some e -> J_fail e)
  | kind ->
    bad "unknown kind %S (expected %s)" kind (String.concat ", " job_kinds)

(* Building the design refuses fields that pass one by one but not
   together, before journaling.  Any other builder exception is a bug
   that the worker meets again and replies [crashed]. *)
let validate ~allow_debug rq =
  match parse_job ~allow_debug rq with
  | J_generate { arch; config; _ }
  | J_verify { arch; config; _ }
  | J_inject { arch; config; _ } -> (
    match Cache.circuit arch config with
    | _ -> Ok ()
    | exception Invalid_argument msg -> Error msg
    | exception _ -> Ok ())
  | (_ : job) -> Ok ()
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let warm rq =
  match parse_job ~allow_debug:true rq with
  | J_explore { profile; _ } -> (
    (* Warm the first candidate's circuit; the worker reuses the LRU
       for the whole grid. *)
    match X.candidates profile with
    | [||] -> ()
    | cands -> (
      let c = cands.(0) in
      try ignore (Cache.circuit c.X.ca_arch (X.config_of profile c))
      with _ -> ()))
  | _ -> ()
  | exception _ -> ()

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let generate_result ~emit_verilog (r : G.t) =
  let base =
    [
      ("kind", Json.String "generate");
      ("arch", Json.String (G.arch_name r.G.arch));
      ("design_hash", Json.String (G.design_hash r.G.arch r.G.config));
      ("gate_count", Json.Int r.G.gate_count);
      ("register_bits", Json.Int r.G.register_bits);
      ("memory_bits", Json.Int r.G.memory_bits);
      ("module_count", Json.Int r.G.module_count);
      ("depth_levels", Json.Int r.G.depth_levels);
    ]
  in
  Json.Obj
    (if emit_verilog then base @ [ ("verilog", Json.String (G.verilog r)) ]
     else base)

let simulate_result arch workload max_cycles =
  let module M = Busgen_sim.Machine in
  let common name cycles extra =
    Json.Obj
      ([
         ("kind", Json.String "simulate");
         ("arch", Json.String (G.arch_name arch));
         ("workload", Json.String name);
         ("cycles", Json.Int cycles);
       ]
      @ extra)
  in
  match workload with
  | W_ofdm_ppa | W_ofdm_fpa ->
    let style =
      match workload with
      | W_ofdm_ppa -> Busgen_apps.Ofdm.Ppa
      | _ -> Busgen_apps.Ofdm.Fpa
    in
    let r = Busgen_apps.Ofdm.run ~max_cycles arch style in
    common (workload_name workload) r.Busgen_apps.Ofdm.stats.M.cycles
      [
        ("packets", Json.Int r.Busgen_apps.Ofdm.packets);
        ("throughput_mbps", Json.Float r.Busgen_apps.Ofdm.throughput_mbps);
      ]
  | W_mpeg2 ->
    let r = Busgen_apps.Mpeg2.run ~max_cycles arch in
    common "mpeg2" r.Busgen_apps.Mpeg2.stats.M.cycles
      [
        ("gops", Json.Int r.Busgen_apps.Mpeg2.gops);
        ("throughput_mbps", Json.Float r.Busgen_apps.Mpeg2.throughput_mbps);
      ]
  | W_database ->
    let r = Busgen_apps.Database.run ~max_cycles arch in
    common "database" r.Busgen_apps.Database.stats.M.cycles
      [
        ("tasks", Json.Int r.Busgen_apps.Database.tasks);
        ( "execution_time_ns",
          Json.Float r.Busgen_apps.Database.execution_time_ns );
      ]

let verify_result arch config cycles kind =
  let r = V_check.verify ~engine:kind (Cache.circuit arch config) ~cycles in
  let stats = r.V_check.vr_stats in
  Json.Obj
    [
      ("kind", Json.String "verify");
      ("arch", Json.String (G.arch_name arch));
      ("cycles", Json.Int stats.V_traffic.cycles);
      ("transactions", Json.Int stats.V_traffic.transactions);
      ("properties", Json.Int r.V_check.vr_properties);
      ("mismatches", Json.Int stats.V_traffic.mismatches);
      ("violations", Json.Int (List.length r.V_check.vr_violations));
      ( "violation_names",
        Json.List
          (List.map
             (fun v -> Json.String v.V_prop.v_prop)
             r.V_check.vr_violations) );
      ("clean", Json.Bool (V_check.clean r));
    ]

let fuzz_result seed budget cycles first_case =
  let report = V_fuzz.run ~cycles ~first_case ~jobs:1 ~seed ~budget () in
  let count pred = List.length (List.filter pred report.V_fuzz.f_results) in
  Json.Obj
    [
      ("kind", Json.String "fuzz");
      ("seed", Json.Int seed);
      ("budget", Json.Int budget);
      ("first_case", Json.Int first_case);
      ( "faulted",
        Json.Int (count (fun r -> V_fuzz.faulted r.V_fuzz.r_scenario)) );
      ( "clean",
        Json.Int (count (fun r -> r.V_fuzz.r_outcome = V_fuzz.Clean)) );
      ( "generation_errors",
        Json.Int
          (count (fun r ->
               match r.V_fuzz.r_outcome with
               | V_fuzz.Generation_error _ -> true
               | _ -> false)) );
      ( "failures",
        Json.List
          (List.map
             (fun (r : V_fuzz.result) ->
               Json.Obj
                 [
                   ( "class",
                     Json.String (V_fuzz.outcome_class r.V_fuzz.r_outcome) );
                   ("seed", Json.Int r.V_fuzz.r_scenario.V_fuzz.sc_seed);
                 ])
             report.V_fuzz.f_failures) );
      ("casualties", Json.Int (List.length report.V_fuzz.f_casualties));
    ]

(* The CLI's inject campaign, classified serially on one engine. *)
let inject_result arch config seed n cycles kind =
  let r = Cache.circuit arch config in
  let c =
    V_check.campaign ~engine:kind r.G.generated.A.top ~seed ~n ~cycles
  in
  let verdicts = List.map (V_check.classify c) (V_check.injections c) in
  let count corrupted flagged =
    Json.Int
      (List.length
         (List.filter (( = ) { V_check.corrupted; flagged }) verdicts))
  in
  Json.Obj
    [
      ("kind", Json.String "inject");
      ("arch", Json.String (G.arch_name arch));
      ("seed", Json.Int seed);
      ("n", Json.Int (List.length verdicts));
      ("cycles", Json.Int cycles);
      ("protected", Json.Bool (V_check.protected c));
      ("corrupted_flagged", count true true);
      ("corrupted_unflagged", count true false);
      ("masked_flagged", count false true);
      ("masked", count false false);
    ]

(* Serial exploration against the memoizing circuit cache: jobs = 1
   with no deadline runs inline in this worker (no nested domains), and
   the reply is the canonical front — a pure function of the profile,
   so journal replay after a daemon restart is byte-identical. *)
let explore_result profile kind =
  let report = X.run ~engine:kind ~generate:Cache.circuit ~jobs:1 profile in
  match X.front_json report with
  | Json.Obj fields -> Json.Obj (("kind", Json.String "explore") :: fields)
  | j -> j

let run (rq : Proto.request) =
  let before = Cache.snapshot () in
  let reply =
    match
      match parse_job ~allow_debug:true rq with
      | J_generate { arch; config; emit_verilog } ->
        generate_result ~emit_verilog (Cache.circuit arch config)
      | J_simulate { arch; workload; max_cycles } ->
        simulate_result arch workload max_cycles
      | J_verify { arch; config; cycles; kind } ->
        verify_result arch config cycles kind
      | J_fuzz { seed; budget; cycles; first_case } ->
        fuzz_result seed budget cycles first_case
      | J_inject { arch; config; seed; n; cycles; kind } ->
        inject_result arch config seed n cycles kind
      | J_explore { profile; kind } -> explore_result profile kind
      | J_sleep ms ->
        Unix.sleepf (float_of_int ms /. 1000.);
        Json.Obj [ ("kind", Json.String "sleep"); ("slept_ms", Json.Int ms) ]
      | J_spin ->
        while true do
          ignore (Sys.opaque_identity 0)
        done;
        assert false
      | J_crash signal ->
        Unix.kill (Unix.getpid ()) signal;
        (* SIGKILL/SIGSEGV never return; give stragglers a beat. *)
        Unix.sleepf 1.0;
        Json.Null
      | J_fail msg -> failwith msg
    with
    | result -> Proto.ok_reply ~id:rq.Proto.rq_id result
    | exception Failure msg ->
      Proto.err_reply ~id:rq.Proto.rq_id ~code:Proto.code_crashed msg
    | exception Invalid_argument msg ->
      Proto.err_reply ~id:rq.Proto.rq_id ~code:Proto.code_crashed msg
    | exception Tb.Timeout msg ->
      Proto.err_reply ~id:rq.Proto.rq_id ~code:Proto.code_crashed
        ("bus timeout: " ^ msg)
    | exception Busgen_sim.Machine.Deadlock msg ->
      Proto.err_reply ~id:rq.Proto.rq_id ~code:Proto.code_crashed
        ("deadlock: " ^ msg)
  in
  (reply, Cache.sub (Cache.snapshot ()) before)

let encode_result (reply, snap) =
  let w = Io.writer () in
  Io.w_string w reply;
  Cache.encode w snap;
  Io.contents w

let decode_result s =
  let r = Io.reader s in
  let reply = Io.r_string r in
  let snap = Cache.decode r in
  (reply, snap)
