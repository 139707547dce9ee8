(* The benchmark's own checks (bench.exe --self-test):
   - the same seed gives identical inputs and request streams, and a
     different seed gives different ones;
   - the percentile helper refuses a tail with fewer than ten samples
     beyond it, and per-key means count each key once;
   - a deliberately corrupted output is caught by each oracle. *)

module G = Bussyn.Generate

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let paper_inputs seed = W_paper.round_ops ~seed ~round:0

let explore_rounds seed = List.init 24 (fun round -> Plan.explore_round ~seed ~round)

let serve_requests seed =
  let s = Plan.serve_stream ~seed in
  List.init 200 (fun i -> Plan.request_line ~id:(string_of_int i) (s i))

let determinism () =
  check "paper_repro: same seed, same inputs" (paper_inputs 7 = paper_inputs 7);
  check "paper_repro: other seed, other inputs" (paper_inputs 7 <> paper_inputs 8);
  check "explore_grid: same seed, same profiles" (explore_rounds 7 = explore_rounds 7);
  check "explore_grid: other seed, other profiles" (explore_rounds 7 <> explore_rounds 8);
  check "serve_mixed: same seed, same request stream" (serve_requests 7 = serve_requests 7);
  check "serve_mixed: other seed, other request stream" (serve_requests 7 <> serve_requests 8);
  let counts seed =
    List.sort compare
      (List.map (fun rq -> rq.Plan.rq_class)
         (List.init Plan.block_size (Plan.serve_stream ~seed)))
  in
  check "serve_mixed: every seed draws the same class mix per block" (counts 7 = counts 8)

let percentiles () =
  let samples n = List.init n float_of_int in
  check "p90 over 99 samples is refused" (Result.is_error (Stats.tail 0.9 (samples 99)));
  check "p90 over 100 samples is 89" (Stats.tail 0.9 (samples 100) = Ok 89.);
  check "p50 over 19 samples is refused" (Result.is_error (Stats.tail 0.5 (samples 19)));
  check "median of 1..5 is 3" (Stats.median [ 5.; 1.; 3.; 2.; 4. ] = 3.);
  check "key means weigh every key once"
    (List.sort compare (Stats.key_means [ ("a", 1.); ("b", 10.); ("a", 3.) ]) = [ 2.; 10. ])

let corrupt s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
  Bytes.to_string b

let oracles () =
  let off = Trace.create ~enabled:false in
  (* paper_repro: a design's Verilog and a table case. *)
  let o = Oracle.load "paper_repro" in
  let d = { Plan.d_arch = G.Gbaviii; d_pes = 8; d_width = 32; d_depth = 256 } in
  let r, v = W_paper.to_verilog off (W_paper.input_of d) in
  check "paper_repro oracle accepts the real Verilog"
    (Oracle.check o (W_paper.gen_key d) (W_paper.gen_value r v));
  check "paper_repro oracle rejects corrupted Verilog"
    (not (Oracle.check o (W_paper.gen_key d) (W_paper.gen_value r (corrupt v))));
  let case = Plan.cases.(Array.length Plan.cases - 1) in
  let cycles, _, _, _ = W_paper.run_case case in
  check "paper_repro oracle accepts the real cycles"
    (Oracle.check o (W_paper.case_key case) (string_of_int cycles));
  check "paper_repro oracle rejects a one-cycle error"
    (not (Oracle.check o (W_paper.case_key case) (string_of_int (cycles + 1))));
  (* explore_grid: a front. *)
  let o = Oracle.load "explore_grid" in
  let front = W_explore.front_bytes (Busgen_explore.Explore.run ~jobs:1 (W_explore.profile 0)) in
  check "explore_grid oracle accepts the real front"
    (Oracle.check o (W_explore.front_key 0) (Oracle.digest front));
  check "explore_grid oracle rejects a corrupted front"
    (not (Oracle.check o (W_explore.front_key 0) (Oracle.digest (corrupt front))));
  (* serve_mixed: a reply, executed the way a daemon worker runs it. *)
  let o = Oracle.load "serve_mixed" in
  let rq = List.hd (Plan.all_requests ()) in
  let line = Plan.request_line ~id:"x" rq in
  match Busgen_serve.Proto.parse_request (String.trim line) with
  | Error e -> check ("serve_mixed request parses: " ^ e) false
  | Ok req -> (
      let reply, _ = Busgen_serve.Exec.run req in
      match W_serve.split_id reply with
      | None -> check "serve_mixed reply carries its id" false
      | Some (_, blanked) ->
          check "serve_mixed oracle accepts the real reply"
            (Oracle.check o (Plan.request_key rq) (Oracle.digest blanked));
          check "serve_mixed oracle rejects a corrupted reply"
            (not (Oracle.check o (Plan.request_key rq) (Oracle.digest (corrupt blanked)))))

let run () =
  determinism ();
  percentiles ();
  oracles ();
  if !failures = 0 then (print_endline "self-test: all passed"; 0)
  else (Printf.printf "self-test: %d failed\n" !failures; 1)
