open Busgen_rtl
open Bussyn
module Tb = Testbench
module Supervise = Busgen_par.Supervise

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

type scenario = {
  sc_options : Options.t;
  sc_seed : int;
  sc_cycles : int;
  sc_campaign : (int * int) option;
  sc_faults : Flat.injection list;
}

let scenario ?campaign ?(faults = []) ?(cycles = 1000) ~seed options =
  {
    sc_options = options;
    sc_seed = seed;
    sc_cycles = max 1 cycles;
    sc_campaign = campaign;
    sc_faults = faults;
  }

let faulted sc = sc.sc_campaign <> None || sc.sc_faults <> []

type outcome =
  | Clean
  | Generation_error of string
  | Lint_error of string
  | Engine_divergence of string
  | Property_violation of Prop.violation list
  | Traffic_error of string

let outcome_class = function
  | Clean -> "clean"
  | Generation_error _ -> "generation-error"
  | Lint_error _ -> "lint-error"
  | Engine_divergence _ -> "engine-divergence"
  | Property_violation _ -> "property-violation"
  | Traffic_error _ -> "traffic-error"

type result = {
  r_scenario : scenario;
  r_outcome : outcome;
  r_arch : string option;
  r_properties : int;
  r_detections : string list;
}

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let lcg x = ((x * 1664525) + 1013904223) land 0x3FFFFFFF

let rand_bits state width =
  Bits.init width (fun _ ->
      state := lcg !state;
      !state land 0x10000 <> 0)

exception Diverged of string

(* Lockstep of every engine against the ref oracle on the top-level
   ports, with the scenario's fault load installed in each. *)
let differential top ~seed ~cycles ~faults =
  let sims =
    List.map
      (fun kind -> Engine.create ~kind top)
      Engine.all_kinds
  in
  List.iter Engine.reset sims;
  if faults <> [] then List.iter (fun s -> Engine.inject s faults) sims;
  let reference = List.hd sims in
  let others = List.tl sims in
  let inputs = Circuit.inputs top in
  let outputs = Circuit.outputs top in
  let state = ref (lcg (seed lxor 0x2A2A2A)) in
  try
    for cycle = 1 to cycles do
      List.iter
        (fun (p : Circuit.port) ->
          let v = rand_bits state p.Circuit.port_width in
          List.iter (fun s -> Engine.set_input s p.Circuit.port_name v) sims)
        inputs;
      List.iter Engine.step sims;
      List.iter
        (fun (p : Circuit.port) ->
          let b = Engine.peek reference p.Circuit.port_name in
          List.iter
            (fun s ->
              let a = Engine.peek s p.Circuit.port_name in
              if not (Bits.equal a b) then
                raise
                  (Diverged
                     (Printf.sprintf "cycle %d: output %s: %s %s vs %s %s"
                        cycle p.Circuit.port_name
                        (Engine.kind_to_string (Engine.kind s))
                        (Bits.to_verilog_literal a)
                        (Engine.kind_to_string (Engine.kind reference))
                        (Bits.to_verilog_literal b))))
            others)
        outputs
    done;
    None
  with Diverged msg -> Some msg

let classify sc =
  match Generate.from_options sc.sc_options with
  | Error msg ->
      {
        r_scenario = sc;
        r_outcome = Generation_error msg;
        r_arch = None;
        r_properties = 0;
        r_detections = [];
      }
  | Ok r -> (
      let arch = Some (Generate.arch_name r.Generate.arch) in
      let top = r.Generate.generated.Archs.top in
      let fail outcome props detections =
        {
          r_scenario = sc;
          r_outcome = outcome;
          r_arch = arch;
          r_properties = props;
          r_detections = detections;
        }
      in
      let lint = Lint.check top in
      if not (Lint.is_clean lint) then
        fail (Lint_error (String.concat "; " lint.Lint.errors)) 0 []
      else
        (* Resolve the fault load once, from the flattened design, so
           the differential and the monitored run inject identically. *)
        let faults =
          match sc.sc_campaign with
          | None -> sc.sc_faults
          | Some (cseed, n) ->
              sc.sc_faults
              @ Flat.random_campaign
                  (Flat.signals (Flat.flatten top))
                  ~seed:cseed ~n
                  ~horizon:(max 1 (sc.sc_cycles / 2))
        in
        let diff_cycles = min sc.sc_cycles 48 in
        match differential top ~seed:sc.sc_seed ~cycles:diff_cycles ~faults with
        | Some msg -> fail (Engine_divergence msg) 0 []
        | None -> (
            let tb = Tb.create top in
            let mon = Pack.attach (Tb.engine tb) top in
            if faults <> [] then Engine.inject (Tb.engine tb) faults;
            let props = Prop.property_count mon in
            let traffic_err =
              try
                let stats =
                  Traffic.drive tb ~arch:r.Generate.arch
                    ~config:r.Generate.config ~seed:sc.sc_seed
                    ~min_cycles:sc.sc_cycles
                in
                if stats.Traffic.mismatches > 0 then
                  Some
                    (Printf.sprintf "%d shadow-model mismatch(es)"
                       stats.Traffic.mismatches)
                else None
              with
              | Tb.Timeout msg -> Some ("bus timeout: " ^ msg)
              | Tb.Mismatch msg -> Some ("read mismatch: " ^ msg)
            in
            let detections = Prop.violated_props mon in
            match (Prop.violations mon, traffic_err) with
            | (_ :: _ as vs), _ -> fail (Property_violation vs) props detections
            | [], Some msg -> fail (Traffic_error msg) props detections
            | [], None -> fail Clean props detections))

(* ------------------------------------------------------------------ *)
(* Fuzz loop                                                           *)
(* ------------------------------------------------------------------ *)

type casualty = {
  c_case : int;
  c_class : string;
  c_detail : string;
  c_attempts : int;
}

type report = {
  f_seed : int;
  f_first_case : int;
  f_budget : int;
  f_results : result list;
  f_failures : result list;
  f_casualties : casualty list;
}

let is_failure r =
  (not (faulted r.r_scenario))
  &&
  match r.r_outcome with
  | Clean | Generation_error _ -> false
  | Lint_error _ | Engine_divergence _ | Property_violation _
  | Traffic_error _ ->
      true

(* Per-case seeds come from a splitmix64 substream of (root seed, case
   index) — shared with busgen_par's partitioning scheme.  The old
   sequential-LCG stream had two defects: case k+1's option stream was
   a one-step offset of case k's campaign stream (the same LCG constants
   are consumed downstream by Options.sample and
   Flat.random_campaign, so "different" seeds walked overlapping
   sequences), and resuming at first_case required replaying the
   stream.  Indexed substreams are uncorrelated across cases and O(1)
   to reach, which is also what lets a worker pool classify cases in
   any order while producing identical reports. *)
let case_seeds ~seed case =
  let g = Busgen_par.Splitmix.derive ~root:seed ~index:case in
  let opt_seed = Busgen_par.Splitmix.next g in
  let traffic_seed = Busgen_par.Splitmix.next g in
  let campaign_seed = Busgen_par.Splitmix.next g in
  (opt_seed, traffic_seed, campaign_seed)

let run_case ~cycles ~seed case =
  let opt_seed, traffic_seed, campaign_seed = case_seeds ~seed case in
  let options = Options.sample ~seed:opt_seed in
  let base = scenario ~cycles ~seed:traffic_seed options in
  let r = classify base in
  (* Every other healthy case is re-run under a random fault
     campaign: the monitors' detections are part of the report. *)
  if r.r_outcome = Clean && case land 1 = 0 then
    [ r; classify { base with sc_campaign = Some (campaign_seed, 3) } ]
  else [ r ]

let run ?(cycles = 1000) ?(first_case = 0) ?(jobs = 1) ?policy ?backend
    ?on_progress ?on_case ?skip ?should_stop ~seed ~budget () =
  if first_case < 0 then invalid_arg "Fuzz.run: negative first_case";
  (* Hook indices are job indices (0 .. budget-1): that is what a sweep
     checkpoint keys on, and it composes with [first_case] shifts. *)
  let on_result =
    match on_case with
    | None -> None
    | Some h ->
        Some
          (fun i (o : result list Supervise.outcome) ->
            match o with Supervise.Ok rs -> h i rs | _ -> ())
  in
  let outcomes =
    Supervise.run ?policy ?backend ~jobs ?on_progress ?on_result ?skip
      ?should_stop budget (fun i -> run_case ~cycles ~seed (first_case + i))
  in
  let results =
    List.concat
      (Array.to_list
         (Array.map
            (function Supervise.Ok rs -> rs | _ -> [])
            outcomes))
  in
  let casualties = ref [] in
  Array.iteri
    (fun i o ->
      let mk c_class c_detail c_attempts =
        casualties :=
          { c_case = first_case + i; c_class; c_detail; c_attempts }
          :: !casualties
      in
      match (o : _ Supervise.outcome) with
      | Supervise.Ok _ -> ()
      | Supervise.Crashed { error; attempts } -> mk "crashed" error attempts
      | Supervise.Timed_out { deadline; attempts } ->
          (* The configured deadline, never a measured elapsed time —
             the printed report stays deterministic. *)
          mk "timed-out" (Printf.sprintf "deadline %gs" deadline) attempts
      | Supervise.Quarantined { error; attempts } ->
          mk "quarantined" error attempts)
    outcomes;
  {
    f_seed = seed;
    f_first_case = first_case;
    f_budget = budget;
    f_results = results;
    f_failures = List.filter is_failure results;
    f_casualties = List.rev !casualties;
  }

let casualty_lines rep =
  List.map
    (fun c ->
      Printf.sprintf "case %d: %s (%s; attempts %d)" c.c_case c.c_class
        c.c_detail c.c_attempts)
    rep.f_casualties

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Structural shrink moves on the option tree, most aggressive first. *)
let option_moves (o : Options.t) : Options.t list =
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let with_subsystems subsystems = { o with Options.subsystems } in
  let per_subsystem f =
    List.concat
      (List.mapi
         (fun si ss ->
           List.map
             (fun ss' ->
               with_subsystems
                 (List.mapi
                    (fun i ss0 -> if i = si then ss' else ss0)
                    o.Options.subsystems))
             (f ss))
         o.Options.subsystems)
  in
  (* Drop a whole subsystem. *)
  List.mapi
    (fun i _ -> with_subsystems (drop_nth o.Options.subsystems i))
    (if List.length o.Options.subsystems > 1 then o.Options.subsystems else [])
  (* Drop a BAN / a bus; shrink widths and depths. *)
  @ per_subsystem (fun ss ->
        let bans = ss.Options.bans and buses = ss.Options.buses in
        (if List.length bans > 1 then
           List.mapi (fun i _ -> { ss with Options.bans = drop_nth bans i }) bans
         else [])
        @ (if List.length buses > 1 then
             List.mapi
               (fun i _ -> { ss with Options.buses = drop_nth buses i })
               buses
           else [])
        @ List.concat
            (List.mapi
               (fun bi (b : Options.bus_prop) ->
                 let upd b' =
                   { ss with
                     Options.buses =
                       List.mapi (fun i b0 -> if i = bi then b' else b0) buses
                   }
                 in
                 (if b.Options.bus_addr_width > 16 then
                    [ upd { b with Options.bus_addr_width = 16 } ]
                  else [])
                 @ (if b.Options.bus_data_width > 8 then
                      [ upd { b with Options.bus_data_width = 8 } ]
                    else [])
                 @
                 match b.Options.bififo_depth with
                 | Some d when d > 2 ->
                     [ upd { b with Options.bififo_depth = Some 2 } ]
                 | _ -> [])
               buses))
  (* Turn the protection hardware off. *)
  @ (if o.Options.protection then [ { o with Options.protection = false } ]
     else [])

let scenario_moves sc : scenario list =
  (* Shorter horizons first: they make every later evaluation cheaper. *)
  let horizons =
    List.filter
      (fun c -> c < sc.sc_cycles)
      [ 100; sc.sc_cycles / 4; sc.sc_cycles / 2 ]
    |> List.sort_uniq compare
    |> List.filter (fun c -> c > 0)
  in
  List.map (fun c -> { sc with sc_cycles = c }) horizons
  @ (match sc.sc_campaign with
    | Some _ -> [ { sc with sc_campaign = None } ]
    | None -> [])
  @ (if List.length sc.sc_faults > 1 then
       List.mapi
         (fun i _ ->
           { sc with
             sc_faults = List.filteri (fun j _ -> j <> i) sc.sc_faults })
         sc.sc_faults
     else [])
  @ List.map
      (fun o -> { sc with sc_options = o })
      (option_moves sc.sc_options)

let shrink ?(max_evals = 60) sc (r : result) =
  let target = outcome_class r.r_outcome in
  let evals = ref 0 in
  let keeps_failing candidate =
    if !evals >= max_evals then false
    else begin
      incr evals;
      outcome_class (classify candidate).r_outcome = target
    end
  in
  let rec fixpoint current =
    let step =
      List.find_opt keeps_failing (scenario_moves current)
    in
    match step with
    | Some smaller when !evals < max_evals -> fixpoint smaller
    | Some smaller -> smaller
    | None -> current
  in
  fixpoint sc

(* ------------------------------------------------------------------ *)
(* Repro files                                                         *)
(* ------------------------------------------------------------------ *)

let header = "# busgen-verify repro v1"

let fault_to_string = function
  | Flat.Stuck_at_0 -> "stuck0"
  | Flat.Stuck_at_1 -> "stuck1"
  | Flat.Flip b -> Printf.sprintf "flip%d" b

let fault_of_string s =
  match s with
  | "stuck0" -> Ok Flat.Stuck_at_0
  | "stuck1" -> Ok Flat.Stuck_at_1
  | _ ->
      if String.length s > 4 && String.sub s 0 4 = "flip" then
        match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
        | Some b -> Ok (Flat.Flip b)
        | None -> Error (Printf.sprintf "bad fault %S" s)
      else Error (Printf.sprintf "bad fault %S" s)

let repro_to_string ~expect sc =
  let b = Buffer.create 256 in
  Buffer.add_string b (header ^ "\n");
  Buffer.add_string b (Printf.sprintf "seed %d\n" sc.sc_seed);
  Buffer.add_string b (Printf.sprintf "cycles %d\n" sc.sc_cycles);
  Buffer.add_string b (Printf.sprintf "expect %s\n" expect);
  (match sc.sc_campaign with
  | Some (s, n) -> Buffer.add_string b (Printf.sprintf "campaign %d %d\n" s n)
  | None -> ());
  List.iter
    (fun (i : Flat.injection) ->
      Buffer.add_string b
        (Printf.sprintf "inject %s %s %d %d\n" i.Flat.inj_signal
           (fault_to_string i.Flat.inj_fault)
           i.Flat.inj_start i.Flat.inj_cycles))
    sc.sc_faults;
  Buffer.add_string b "options\n";
  Buffer.add_string b (Options_text.print sc.sc_options);
  Buffer.contents b

let repro_of_string text =
  let lines = String.split_on_char '\n' text in
  let seed = ref None
  and cycles = ref None
  and expect = ref None
  and campaign = ref None
  and faults = ref [] in
  let rec scan = function
    | [] -> Error "missing 'options' section"
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then scan rest
        else
          match String.split_on_char ' ' line with
          | [ "options" ] ->
              Ok (String.concat "\n" rest)
          | [ "seed"; v ] ->
              seed := int_of_string_opt v;
              scan rest
          | [ "cycles"; v ] ->
              cycles := int_of_string_opt v;
              scan rest
          | [ "expect"; v ] ->
              expect := Some v;
              scan rest
          | [ "campaign"; s; n ] -> (
              match (int_of_string_opt s, int_of_string_opt n) with
              | Some s, Some n ->
                  campaign := Some (s, n);
                  scan rest
              | _ -> Error ("bad campaign line: " ^ line))
          | [ "inject"; signal; fault; start; len ] -> (
              match
                (fault_of_string fault, int_of_string_opt start,
                 int_of_string_opt len)
              with
              | Ok f, Some st, Some n ->
                  faults :=
                    { Flat.inj_signal = signal; inj_fault = f;
                      inj_start = st; inj_cycles = n }
                    :: !faults;
                  scan rest
              | Error e, _, _ -> Error e
              | _ -> Error ("bad inject line: " ^ line))
          | _ -> Error ("unrecognized repro line: " ^ line))
  in
  match scan lines with
  | Error _ as e -> e
  | Ok options_text -> (
      match Options_text.parse options_text with
      | Error msg -> Error ("options: " ^ msg)
      | Ok options -> (
          match (!seed, !cycles, !expect) with
          | Some seed, Some cycles, Some expect ->
              Ok
                ( {
                    sc_options = options;
                    sc_seed = seed;
                    sc_cycles = cycles;
                    sc_campaign = !campaign;
                    sc_faults = List.rev !faults;
                  },
                  expect )
          | None, _, _ -> Error "missing seed line"
          | _, None, _ -> Error "missing cycles line"
          | _, _, None -> Error "missing expect line"))

let save_repro ~dir ~name ~expect sc =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".repro") in
  let oc = open_out path in
  output_string oc (repro_to_string ~expect sc);
  close_out oc;
  path

let replay path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with
  | exception Sys_error msg -> Error msg
  | Error _ as e -> e
  | Ok text -> (
      match repro_of_string text with
      | Error _ as e -> e
      | Ok (sc, expect) -> (
          (* A parseable repro can still carry content no design can
             honor (e.g. an injection naming a signal the shrunken
             options no longer generate).  Fold those into Error too:
             replay must never escape with a raw exception. *)
          match classify sc with
          | r -> Ok (r, expect)
          | exception (Invalid_argument msg | Failure msg) ->
              Error ("invalid scenario: " ^ msg)))

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let outcome_detail = function
  | Clean -> ""
  | Generation_error m | Lint_error m | Engine_divergence m | Traffic_error m
    ->
      m
  | Property_violation vs -> (
      match vs with
      | [] -> ""
      | v :: _ -> Format.asprintf "%a" Prop.pp_violation v)

let report_to_json rep =
  let b = Buffer.create 1024 in
  let classes =
    [ "clean"; "generation-error"; "lint-error"; "engine-divergence";
      "property-violation"; "traffic-error" ]
  in
  let count cls ~faulted:f =
    List.length
      (List.filter
         (fun r ->
           outcome_class r.r_outcome = cls && faulted r.r_scenario = f)
         rep.f_results)
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" rep.f_seed);
  Buffer.add_string b
    (Printf.sprintf "  \"first_case\": %d,\n" rep.f_first_case);
  Buffer.add_string b (Printf.sprintf "  \"budget\": %d,\n" rep.f_budget);
  Buffer.add_string b
    (Printf.sprintf "  \"cases\": %d,\n" (List.length rep.f_results));
  Buffer.add_string b "  \"fault_free\": {";
  List.iteri
    (fun i cls ->
      Buffer.add_string b
        (Printf.sprintf "%s\"%s\": %d"
           (if i = 0 then " " else ", ")
           cls
           (count cls ~faulted:false)))
    classes;
  Buffer.add_string b " },\n";
  Buffer.add_string b "  \"faulted\": {";
  List.iteri
    (fun i cls ->
      Buffer.add_string b
        (Printf.sprintf "%s\"%s\": %d"
           (if i = 0 then " " else ", ")
           cls
           (count cls ~faulted:true)))
    classes;
  Buffer.add_string b " },\n";
  let detections =
    List.fold_left
      (fun acc r ->
        if faulted r.r_scenario then acc + List.length r.r_detections else acc)
      0 rep.f_results
  in
  Buffer.add_string b
    (Printf.sprintf "  \"fault_detections\": %d,\n" detections);
  Buffer.add_string b
    (Printf.sprintf "  \"failures\": [%s],\n"
       (String.concat ", "
          (List.map
             (fun r ->
               Printf.sprintf "{ \"class\": \"%s\", \"arch\": \"%s\", \"detail\": \"%s\" }"
                 (outcome_class r.r_outcome)
                 (json_escape (Option.value r.r_arch ~default:"?"))
                 (json_escape (outcome_detail r.r_outcome)))
             rep.f_failures)));
  Buffer.add_string b
    (Printf.sprintf "  \"casualties\": [%s]\n"
       (String.concat ", "
          (List.map
             (fun c ->
               Printf.sprintf
                 "{ \"case\": %d, \"class\": \"%s\", \"detail\": \"%s\", \"attempts\": %d }"
                 c.c_case (json_escape c.c_class) (json_escape c.c_detail)
                 c.c_attempts)
             rep.f_casualties)));
  Buffer.add_string b "}\n";
  Buffer.contents b
