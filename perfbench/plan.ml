(* Seeded inputs for the three workloads.

   Everything a workload feeds the program is drawn here from the
   benchmark's [--seed], so the same seed gives the same inputs and
   request streams.  The seed picks orders and variants, never the
   amount of work: each workload runs a fixed multiset of operation
   classes per round or block, so runs on different seeds measure the
   same cost and their spread stays a property of the code. *)

module G = Bussyn.Generate

let rng seed salt = Random.State.make [| 0x5eed; seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let pick st a = a.(Random.State.int st (Array.length a))

(* Zipf draw: the k-th item (from 1) with weight 1/k. *)
let zipf st a =
  let w k = 1. /. float_of_int (k + 1) in
  let total = ref 0. in
  Array.iteri (fun k _ -> total := !total +. w k) a;
  let r = ref (Random.State.float st !total) in
  let k = ref 0 in
  while !k < Array.length a - 1 && !r >= w !k do
    r := !r -. w !k;
    incr k
  done;
  a.(!k)

let lower_arch a = String.lowercase_ascii (G.arch_name a)

(* ------------------------------------------------------------------ *)
(* paper_repro                                                          *)
(* ------------------------------------------------------------------ *)

let archs =
  [| G.Bfba; G.Gbavi; G.Gbavii; G.Gbaviii; G.Hybrid; G.Splitba; G.Ggba; G.Ccba |]

(* Table V's processor sweep. *)
let table5_pes = [ 1; 8; 16; 24 ]

let designs =
  Array.of_list
    (List.concat_map
       (fun a ->
         List.filter_map
           (fun n -> if a = G.Splitba && n = 1 then None else Some (a, n))
           table5_pes)
       (Array.to_list archs))

type design = { d_arch : G.arch; d_pes : int; d_width : int; d_depth : int }

let design_key d =
  Printf.sprintf "%s/%d/w%d/d%d" (lower_arch d.d_arch) d.d_pes d.d_width
    d.d_depth

let widths = [| 32; 64 |]
let depths = [| 256; 1024 |]

(* The paper's own setup (64-bit data, depth-1024 Bi-FIFOs). *)
let paper_variant (a, n) = { d_arch = a; d_pes = n; d_width = 64; d_depth = 1024 }

(* Designs small enough for the generate --lint flow: lint simulates
   every paper-sized memory, so past 8 PEs its RSS dominates the host. *)
let lint_max_pes = 8

type case =
  | Table2 of string * G.arch * Busgen_apps.Ofdm.style * float
  | Table3 of string * G.arch * float
  | Table4 of string * G.arch * float

let case_id = function
  | Table2 (id, _, _, _) | Table3 (id, _, _) | Table4 (id, _, _) -> id

let cases =
  let module P = Busgen_apps.Paper_data in
  Array.of_list
    (List.map
       (fun (id, a, style, paper) ->
         Table2
           ( id, a,
             (match style with
             | `Ppa -> Busgen_apps.Ofdm.Ppa
             | `Fpa -> Busgen_apps.Ofdm.Fpa),
             paper ))
       P.table2
    @ List.map (fun (id, a, paper) -> Table3 (id, a, paper)) P.table3
    @ List.map (fun (id, a, paper) -> Table4 (id, a, paper)) P.table4)

type paper_plan = {
  gen_passes : design array array;
      (** one pass per variant: every Table V design once, each with a
          seed-drawn data-width/FIFO-depth variant *)
  lint_flow : design array;
      (** the designs with at most [lint_max_pes] PEs at the paper's
          own widths *)
}

let variants =
  Array.concat (Array.to_list (Array.map (fun w -> Array.map (fun d -> (w, d)) depths) widths))

(* Each design meets every variant once per round, in a seed-drawn pass
   order: generation time grows with the data width, so independent
   draws would move p50 with the share of wide designs.  The lint flow
   keeps the paper's 64-bit data on purpose: 64-bit words are boxed in
   the RTL interpreter, so lint time and RSS depend on the width about
   fourfold, and a drawn width would make the flow metric measure the
   draw instead of the code.  The order of all of a round's work is
   drawn by the workload. *)
let paper_plan ~seed ~round =
  let st = rng seed (1000 + round) in
  let assignment = Array.map (fun _ -> shuffle st variants) designs in
  {
    gen_passes =
      Array.mapi
        (fun pass _ ->
          Array.mapi
            (fun i (a, n) ->
              let w, d = assignment.(i).(pass) in
              { d_arch = a; d_pes = n; d_width = w; d_depth = d })
            designs)
        variants;
    lint_flow =
      Array.map paper_variant
        (Array.of_list
           (List.filter (fun (_, n) -> n <= lint_max_pes) (Array.to_list designs)));
  }

(* Every (design, variant) the plan can draw, for pinning. *)
let all_variants () =
  List.concat_map
    (fun (a, n) ->
      List.map
        (fun (w, d) -> { d_arch = a; d_pes = n; d_width = w; d_depth = d })
        (Array.to_list variants))
    (Array.to_list designs)

(* ------------------------------------------------------------------ *)
(* explore_grid                                                         *)
(* ------------------------------------------------------------------ *)

(* (traffic seed, fault seed) pairs a round can draw; each one's front
   is pinned. *)
let explore_pool =
  [| (11, 3); (23, 5); (37, 7); (41, 11); (53, 13); (67, 17); (79, 19); (97, 23) |]

let explore_profile_text (traffic_seed, fault_seed) =
  Printf.sprintf
    "seed = %d\n\
     transactions = 100\n\
     pes = 4\n\
     archs = bfba, gbavi, gbavii, gbaviii, hybrid, splitba, ggba, ccba\n\
     widths = 16, 32\n\
     depths = 4, 16\n\
     arbs = priority, rr\n\
     protect = both\n\
     faults = 2\n\
     fault_seed = %d\n"
    traffic_seed fault_seed

(* Pool index of round [round]: the pool in a seed-drawn order, redrawn
   every time it is used up. *)
let explore_round ~seed ~round =
  let n = Array.length explore_pool in
  let perm = shuffle (rng seed (2000 + (round / n))) (Array.init n Fun.id) in
  perm.(round mod n)

(* ------------------------------------------------------------------ *)
(* serve_mixed                                                          *)
(* ------------------------------------------------------------------ *)

type request = {
  rq_class : string;
  rq_kind : string;
  rq_params : string;  (** canonical JSON object text *)
}

let request_key r = r.rq_kind ^ " " ^ r.rq_params

let request_line ~id r =
  Printf.sprintf "{\"id\":\"%s\",\"kind\":\"%s\",\"params\":%s}\n" id r.rq_kind
    r.rq_params

(* The request mix is chosen, not measured: the repository records no
   serve traffic.  So it is the plainest mix over what the workload
   must cover: an equal count per request kind (generate, simulate,
   verify, inject, explore), and within a kind an equal count per
   variant (generate with and without Verilog; simulate on ofdm-ppa,
   ofdm-fpa and the database).  MPEG2 simulations are left out: each
   takes about half a second, several times any other request, and even
   at one request in forty p90 swung twofold between seeds on whether
   it fell on a queueing burst.  Table III stays covered by paper_repro.

   Designs are drawn by Zipf popularity, in the order listed: a common
   model of request popularity, also chosen rather than measured.  The
   head designs repeat (cache hits), the tail ones rarely.  The
   small-config set for verify and inject is larger than the daemon's
   tape cache (8), so that cache also evicts and misses. *)
let paper_designs =
  [| ("hybrid", 4); ("bfba", 4); ("gbaviii", 8); ("splitba", 4); ("gbavi", 2);
     ("ccba", 4); ("ggba", 8); ("gbavii", 2) |]

let small_designs =
  [| ("bfba", 2, false); ("gbaviii", 2, false); ("hybrid", 2, false);
     ("ccba", 2, false); ("splitba", 2, false); ("gbavi", 2, false);
     ("ggba", 2, false); ("gbavii", 2, false); ("bfba", 4, true);
     ("hybrid", 4, true); ("gbaviii", 4, true); ("ccba", 4, true) |]

let db_archs = [| "gbaviii"; "hybrid"; "splitba"; "ggba"; "ccba" |]
let ppa_archs = [| "bfba"; "hybrid" |]
let fpa_archs = [| "gbaviii"; "hybrid"; "splitba"; "ggba" |]

let simulations =
  [ ("simulate_ofdm_ppa", "ofdm-ppa", ppa_archs);
    ("simulate_ofdm_fpa", "ofdm-fpa", fpa_archs);
    ("simulate_db", "database", db_archs) ]

let explore_profiles =
  [| "seed = 3\ntransactions = 20\narchs = bfba, ccba\ndepths = 4, 8\n";
     "seed = 5\ntransactions = 20\narchs = gbaviii, hybrid\ndepths = 4, 8\n";
     "seed = 7\ntransactions = 20\narchs = splitba, ggba\ndepths = 4, 8\n";
     "seed = 3\ntransactions = 20\narchs = gbavi, gbavii\nwidths = 16, 32\n";
     "seed = 9\ntransactions = 20\narchs = bfba, hybrid\narbs = priority, rr\n";
     "seed = 11\ntransactions = 20\narchs = ccba, gbaviii\nprotect = both\n" |]

let json_string s = Busgen_json.Json.to_string (Busgen_json.Json.String s)

let mk cls kind params = { rq_class = cls; rq_kind = kind; rq_params = params }

let generate_rq ~verilog (arch, pes) =
  mk
    (if verilog then "generate_verilog" else "generate")
    "generate"
    (Printf.sprintf "{\"arch\":\"%s\",\"pes\":%d%s}" arch pes
       (if verilog then ",\"verilog\":true" else ""))

let simulate_rq cls (workload, arch) =
  mk cls "simulate"
    (Printf.sprintf "{\"arch\":\"%s\",\"workload\":\"%s\"}" arch workload)

let verify_rq (arch, pes, protect) =
  mk "verify" "verify"
    (Printf.sprintf "{\"arch\":\"%s\",\"pes\":%d,\"protect\":%b,\"cycles\":500}"
       arch pes protect)

let inject_rq seed (arch, pes, protect) =
  mk "inject" "inject"
    (Printf.sprintf
       "{\"arch\":\"%s\",\"pes\":%d,\"protect\":%b,\"seed\":%d,\"n\":4,\"cycles\":100}"
       arch pes protect seed)

let explore_rq text =
  mk "explore" "explore" (Printf.sprintf "{\"profile\":%s}" (json_string text))

(* One block's classes: six requests of each kind. *)
let block_classes =
  [ ("generate", 3); ("generate_verilog", 3) ]
  @ List.map (fun (cls, _, _) -> (cls, 2)) simulations
  @ [ ("verify", 6); ("inject", 6); ("explore", 6) ]

let block_size = List.fold_left (fun acc (_, n) -> acc + n) 0 block_classes

let draw st = function
  | "generate" -> generate_rq ~verilog:false (zipf st paper_designs)
  | "generate_verilog" -> generate_rq ~verilog:true (zipf st paper_designs)
  | "verify" -> verify_rq (zipf st small_designs)
  | "inject" -> inject_rq (1 + Random.State.int st 2) (zipf st small_designs)
  | "explore" -> explore_rq (pick st explore_profiles)
  | c -> (
      match List.find_opt (fun (cls, _, _) -> cls = c) simulations with
      | Some (cls, workload, archs) -> simulate_rq cls (workload, pick st archs)
      | None -> invalid_arg ("Plan.draw: " ^ c))

let serve_block ~seed ~block =
  let st = rng seed (3000 + block) in
  let slots =
    Array.of_list
      (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) block_classes)
  in
  Array.map (draw st) (shuffle st slots)

(* Request [i] of the stream for [seed]. *)
let serve_stream ~seed =
  let cache = Hashtbl.create 16 in
  fun i ->
    let block = i / block_size in
    let b =
      match Hashtbl.find_opt cache block with
      | Some b -> b
      | None ->
          let b = serve_block ~seed ~block in
          Hashtbl.replace cache block b;
          b
    in
    b.(i mod block_size)

(* Every request the stream can draw, for pinning. *)
let all_requests () =
  let paper = Array.to_list paper_designs and small = Array.to_list small_designs in
  List.map (generate_rq ~verilog:false) paper
  @ List.map (generate_rq ~verilog:true) paper
  @ List.concat_map
      (fun (cls, workload, archs) ->
        List.map (fun a -> simulate_rq cls (workload, a)) (Array.to_list archs))
      simulations
  @ List.map verify_rq small
  @ List.concat_map (fun d -> [ inject_rq 1 d; inject_rq 2 d ]) small
  @ List.map explore_rq (Array.to_list explore_profiles)
