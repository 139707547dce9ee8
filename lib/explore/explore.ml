module G = Bussyn.Generate
module A = Bussyn.Archs
module E = Busgen_rtl.Engine
module Tb = Busgen_rtl.Testbench
module Traffic = Busgen_verify.Traffic
module Prop = Busgen_verify.Prop
module Sv = Busgen_par.Supervise
module Sweep = Busgen_ckpt.Sweep
module Json = Busgen_json.Json
module Arb = Busgen_modlib.Arbiter

type candidate = {
  ca_arch : G.arch;
  ca_width : int;
  ca_depth : int;
  ca_arb : Arb.policy;
  ca_protect : bool;
}

let candidates (p : Profile.t) =
  let out = ref [] in
  List.iter
    (fun arch ->
      List.iter
        (fun width ->
          List.iter
            (fun depth ->
              List.iter
                (fun arb ->
                  List.iter
                    (fun protect ->
                      out :=
                        { ca_arch = arch; ca_width = width; ca_depth = depth;
                          ca_arb = arb; ca_protect = protect }
                        :: !out)
                    p.Profile.protect)
                p.Profile.arbs)
            p.Profile.depths)
        p.Profile.widths)
    p.Profile.archs;
  Array.of_list (List.rev !out)

let label c =
  Printf.sprintf "%s/w%d/d%d/%s%s"
    (String.lowercase_ascii (G.arch_name c.ca_arch))
    c.ca_width c.ca_depth
    (Arb.policy_name c.ca_arb)
    (if c.ca_protect then "/prot" else "")

let config_of (p : Profile.t) c =
  {
    (A.small_config ~n_pes:p.Profile.n_pes) with
    A.bus_data_width = c.ca_width;
    fifo_depth = c.ca_depth;
    arb_policy = c.ca_arb;
    protect = c.ca_protect;
  }

type score = {
  sc_label : string;
  sc_arch : string;
  sc_width : int;
  sc_depth : int;
  sc_arb : string;
  sc_protect : bool;
  sc_gates : int;
  sc_cycles : int;
  sc_transactions : int;
  sc_mismatches : int;
  sc_rel_num : int;
  sc_rel_den : int;
  sc_detected : int;
}

(* ------------------------------------------------------------------ *)
(* Scoring                                                             *)
(* ------------------------------------------------------------------ *)

(* One transaction boundary of the fault-free run: where a faulted run
   resumes, and the state it must equal to rejoin the fault-free run. *)
type boundary = {
  bd_cycle : int;
  bd_mark : E.mark;
  bd_traffic : Traffic.state;
  bd_flagged : int;  (* tap violations of the fault-free run so far *)
}

(* The most boundaries a fault-free run keeps past the first.  Each
   holds a traffic state of up to ~15 KB on a 4-PE design, so one
   candidate keeps a few MB at most. *)
let max_boundaries = 256

let score ?(engine = E.default_kind) ?(generate = G.generate) (p : Profile.t)
    c =
  let config = config_of p c in
  let r = generate c.ca_arch config in
  let top = r.G.generated.A.top in
  let sim = E.create ~kind:engine top in
  let n = p.Profile.transactions in
  let faulted = p.Profile.faults > 0 in
  let taps =
    if not faulted then []
    else
      List.map
        (fun s -> Prop.never ~name:s (Prop.high s))
        (Busgen_verify.Check.protection_taps sim)
  in
  let tb = Tb.restart sim top in
  let traffic () =
    Traffic.create tb ~arch:c.ca_arch ~config ~seed:p.Profile.seed
  in
  (* One [Prop.never] monitor per protection tap; an unprotected design
     has none to watch. *)
  let watch () = if taps = [] then None else Some (Prop.attach sim taps) in
  let flagged = Option.fold ~none:0 ~some:Prop.violation_count in
  (* The fault-free run.  Under a campaign it also watches the taps and
     keeps transaction boundaries. *)
  let tr = traffic () in
  let golden_mon = watch () in
  let boundary () =
    {
      bd_cycle = Tb.cycles tb;
      bd_mark = E.mark sim;
      bd_traffic = Traffic.export_state tr;
      bd_flagged = flagged golden_mon;
    }
  in
  (* Boundary [j] is the one after [j * every] transactions: every
     boundary on a profile of up to [max_boundaries] transactions,
     every [every]-th on a longer one, so that memory stays bounded.
     Any subset of the boundaries gives the same verdicts. *)
  let every = 1 + ((n - 1) / max_boundaries) in
  let bounds =
    if faulted then Array.make ((n / every) + 1) (boundary ()) else [||]
  in
  (try
     for k = 1 to n do
       Traffic.step tr;
       if faulted && k mod every = 0 then bounds.(k / every) <- boundary ()
     done
   with Tb.Timeout _ -> failwith (label c ^ ": fault-free traffic timed out"));
  let golden = Traffic.stats tr ~cycles:(Tb.cycles tb) in
  let golden_flagged = flagged golden_mon in
  (* One injection's (survived, detected).  Before [inj_start] the
     faulted run is the fault-free one, so it resumes at the last
     boundary at or before it.  After its fault window, once its engine
     and traffic state equal the fault-free run's at the same boundary,
     the two stay identical to the end: the rest of the verdict is the
     fault-free run's. *)
  let verdict (inj : Busgen_rtl.Flat.injection) =
    let stop = inj.inj_start + inj.inj_cycles in
    (* Boundary [lo] is at or before [inj_start], boundary [hi] (if any)
       after it; boundary 0 is at cycle 0. *)
    let rec last_before lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if bounds.(mid).bd_cycle <= inj.inj_start then last_before mid hi
        else last_before lo mid
    in
    let j0 = last_before 0 (Array.length bounds) in
    Tb.resume tb bounds.(j0).bd_mark;
    E.inject sim [ inj ];
    let mon = watch () in
    let tr = traffic () in
    Traffic.import_state tr bounds.(j0).bd_traffic;
    let rec go k =
      if k = n then
        let st = Traffic.stats tr ~cycles:(Tb.cycles tb) in
        (st.Traffic.mismatches = 0, false)
      else begin
        Traffic.step tr;
        let k = k + 1 in
        let b = bounds.(k / every) in
        if
          k mod every = 0 && b.bd_cycle >= stop && E.matches sim b.bd_mark
          && Traffic.export_state tr = b.bd_traffic
        then (golden.Traffic.mismatches = 0, golden_flagged > b.bd_flagged)
        else go k
      end
    in
    let survived, flagged_later =
      try go (j0 * every) with Tb.Timeout _ -> (false, false)
    in
    ( survived,
      bounds.(j0).bd_flagged > 0 || flagged mon > 0 || flagged_later )
  in
  let rel_num, rel_den, detected =
    if not faulted then (1, 1, 0)
    else begin
      let campaign =
        E.random_campaign sim ~seed:p.Profile.fault_seed ~n:p.Profile.faults
          ~horizon:(max 1 golden.Traffic.cycles)
      in
      let survived = ref 0 and det = ref 0 in
      List.iter
        (fun inj ->
          let s, d = verdict inj in
          if s then incr survived;
          if d then incr det)
        campaign;
      E.clear_observers sim;
      E.clear_injections sim;
      (!survived, p.Profile.faults, !det)
    end
  in
  {
    sc_label = label c;
    sc_arch = String.lowercase_ascii (G.arch_name c.ca_arch);
    sc_width = c.ca_width;
    sc_depth = c.ca_depth;
    sc_arb = Arb.policy_name c.ca_arb;
    sc_protect = c.ca_protect;
    sc_gates = r.G.gate_count;
    sc_cycles = golden.Traffic.cycles;
    sc_transactions = golden.Traffic.transactions;
    sc_mismatches = golden.Traffic.mismatches;
    sc_rel_num = rel_num;
    sc_rel_den = rel_den;
    sc_detected = detected;
  }

(* ------------------------------------------------------------------ *)
(* Codec (procpool results and sweep-checkpoint payloads)              *)
(* ------------------------------------------------------------------ *)

let encode_score s =
  Sweep.encode_strings
    [
      s.sc_label; s.sc_arch;
      string_of_int s.sc_width;
      string_of_int s.sc_depth;
      s.sc_arb;
      (if s.sc_protect then "1" else "0");
      string_of_int s.sc_gates;
      string_of_int s.sc_cycles;
      string_of_int s.sc_transactions;
      string_of_int s.sc_mismatches;
      string_of_int s.sc_rel_num;
      string_of_int s.sc_rel_den;
      string_of_int s.sc_detected;
    ]

let decode_score str =
  match Sweep.decode_strings str with
  | Error msg -> Error msg
  | Ok [ label; arch; width; depth; arb; protect; gates; cycles; txns;
         mismatches; rel_num; rel_den; detected ] -> (
      let int name s =
        match int_of_string_opt s with
        | Some v -> v
        | None -> failwith (Printf.sprintf "bad %s field %S" name s)
      in
      match
        {
          sc_label = label;
          sc_arch = arch;
          sc_width = int "width" width;
          sc_depth = int "depth" depth;
          sc_arb = arb;
          sc_protect = protect = "1";
          sc_gates = int "gates" gates;
          sc_cycles = int "cycles" cycles;
          sc_transactions = int "transactions" txns;
          sc_mismatches = int "mismatches" mismatches;
          sc_rel_num = int "rel_num" rel_num;
          sc_rel_den = int "rel_den" rel_den;
          sc_detected = int "detected" detected;
        }
      with
      | s -> Ok s
      | exception Failure msg -> Error msg)
  | Ok fields ->
      Error (Printf.sprintf "expected 13 score fields, got %d"
               (List.length fields))

(* ------------------------------------------------------------------ *)
(* Supervised sweep                                                    *)
(* ------------------------------------------------------------------ *)

type report = {
  x_profile : Profile.t;
  x_scores : score option array;
  x_casualties : (int * string) list;
}

let worker_backend config =
  Sv.Processes
    {
      Busgen_par.Procpool.sp_config = config;
      sp_encode = encode_score;
      sp_decode =
        (fun s ->
          match decode_score s with
          | Ok v -> v
          | Error why -> failwith ("explore score decode: " ^ why));
    }

let run ?engine ?generate ?jobs ?policy ?backend ?on_progress ?on_case ?skip
    ?should_stop (p : Profile.t) =
  let cands = candidates p in
  let total = Array.length cands in
  let on_result =
    Option.map
      (fun f i -> function Sv.Ok s -> f i s | _ -> ())
      on_case
  in
  let backend =
    match (backend, jobs) with
    | None, Some j when j > 1 ->
        Some (worker_backend Busgen_par.Procpool.default_config)
    | b, _ -> b
  in
  let outcomes =
    Sv.run ?policy ?backend ?jobs ?on_progress ?on_result ?skip ?should_stop
      total
      (fun i -> score ?engine ?generate p cands.(i))
  in
  {
    x_profile = p;
    x_scores =
      Array.map (function Sv.Ok s -> Some s | _ -> None) outcomes;
    x_casualties = Sv.casualties outcomes;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let point_of_score s =
  {
    Pareto.pt_label = s.sc_label;
    pt_cycles = s.sc_cycles;
    pt_gates = s.sc_gates;
    pt_rel_num = s.sc_rel_num;
    pt_rel_den = max 1 s.sc_rel_den;
  }

let points r =
  Array.to_list r.x_scores
  |> List.filter_map (Option.map point_of_score)

let scores_by_label r =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (function
      | Some s -> Hashtbl.replace tbl s.sc_label s
      | None -> ())
    r.x_scores;
  tbl

let score_json s ~on_front =
  Json.Obj
    [
      ("label", Json.String s.sc_label);
      ("arch", Json.String s.sc_arch);
      ("width", Json.Int s.sc_width);
      ("depth", Json.Int s.sc_depth);
      ("arb", Json.String s.sc_arb);
      ("protect", Json.Bool s.sc_protect);
      ("gates", Json.Int s.sc_gates);
      ("cycles", Json.Int s.sc_cycles);
      ("transactions", Json.Int s.sc_transactions);
      ("reliability",
       Json.Obj
         [ ("num", Json.Int s.sc_rel_num); ("den", Json.Int s.sc_rel_den) ]);
      ("detected", Json.Int s.sc_detected);
      ("front", Json.Bool on_front);
    ]

let front_json r =
  let pts = points r in
  let front = Pareto.front pts in
  let ranked = Pareto.rank pts in
  let by_label = scores_by_label r in
  let on_front p = List.memq p front in
  let row p =
    score_json (Hashtbl.find by_label p.Pareto.pt_label) ~on_front:(on_front p)
  in
  Json.Obj
    [
      ("profile", Json.String (Profile.hash r.x_profile));
      ("candidates", Json.Int (Array.length r.x_scores));
      ("scored", Json.Int (List.length pts));
      ("front", Json.List (List.map row front));
      ("ranked", Json.List (List.map row ranked));
      ("casualties",
       Json.List
         (List.map
            (fun (i, why) ->
              Json.Obj [ ("index", Json.Int i); ("reason", Json.String why) ])
            r.x_casualties));
    ]

let report_text r =
  let b = Buffer.create 1024 in
  let pts = points r in
  let front = Pareto.front pts in
  let ranked = Pareto.rank pts in
  let by_label = scores_by_label r in
  Printf.bprintf b "profile %s: %d candidates, %d scored, %d on front\n"
    (Profile.hash r.x_profile)
    (Array.length r.x_scores)
    (List.length pts) (List.length front);
  Printf.bprintf b "%-4s %-28s %8s %8s %6s %s\n" "rank" "candidate" "cycles"
    "gates" "rel" "";
  List.iteri
    (fun i p ->
      let s = Hashtbl.find by_label p.Pareto.pt_label in
      Printf.bprintf b "%-4d %-28s %8d %8d %3d/%-3d %s\n" (i + 1) s.sc_label
        s.sc_cycles s.sc_gates s.sc_rel_num s.sc_rel_den
        (if List.memq p front then "*" else ""))
    ranked;
  if r.x_casualties <> [] then begin
    Printf.bprintf b "supervision: %d of %d candidates did not complete\n"
      (List.length r.x_casualties)
      (Array.length r.x_scores);
    List.iter
      (fun (i, why) -> Printf.bprintf b "  candidate %d: %s\n" i why)
      r.x_casualties
  end;
  Buffer.contents b
