open Busgen_rtl

(* Over signal names as built; over the monitor's value indices once
   attached, with each constant truncated to its signal's width as
   [Bits.of_int ~width] does. *)
type 's p =
  | High of 's
  | Low of 's
  | Eq_int of 's * int
  | Le_int of 's * int
  | Le_sig of 's * 's
  | Onehot_or_zero of 's
  | Subset_of of 's * 's
  | At_most_one_of of 's list
  | Conj of 's p * 's p
  | Disj of 's p * 's p
  | Neg of 's p
  | Iff of 's p * 's p

type pred = string p

let high s = High s
let low s = Low s
let eq_int s k = Eq_int (s, k)
let le_int s k = Le_int (s, k)
let le_sig a b = Le_sig (a, b)
let onehot_or_zero s = Onehot_or_zero s
let subset_of a b = Subset_of (a, b)
let at_most_one_of names = At_most_one_of names
let conj a b = Conj (a, b)
let disj a b = Disj (a, b)
let neg a = Neg a
let iff a b = Iff (a, b)

(* Formatted only when a violation is recorded. *)
let rec describe : pred -> string = function
  | High s -> s
  | Low s -> "!" ^ s
  | Eq_int (s, k) -> Printf.sprintf "%s == %d" s k
  | Le_int (s, k) -> Printf.sprintf "%s <= %d" s k
  | Le_sig (a, b) -> Printf.sprintf "%s <= %s" a b
  | Onehot_or_zero s -> "onehot0(" ^ s ^ ")"
  | Subset_of (a, b) -> Printf.sprintf "%s within %s" a b
  | At_most_one_of names -> "at-most-one(" ^ String.concat "," names ^ ")"
  | Conj (a, b) -> Printf.sprintf "(%s && %s)" (describe a) (describe b)
  | Disj (a, b) -> Printf.sprintf "(%s || %s)" (describe a) (describe b)
  | Neg a -> Printf.sprintf "!(%s)" (describe a)
  | Iff (a, b) -> Printf.sprintf "(%s <-> %s)" (describe a) (describe b)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

type shape =
  | Always of pred
  | Never of pred
  | Implies_within of { cycles : int; trigger : pred; goal : pred }

type t = { p_name : string; p_shape : shape }

let always ~name p = { p_name = name; p_shape = Always p }
let never ~name p = { p_name = name; p_shape = Never p }

let implies_within ~name ~cycles trigger goal =
  if cycles < 0 then invalid_arg "Prop.implies_within: negative bound";
  { p_name = name; p_shape = Implies_within { cycles; trigger; goal } }

(* ------------------------------------------------------------------ *)
(* Monitors                                                            *)
(* ------------------------------------------------------------------ *)

type violation = { v_prop : string; v_cycle : int; v_detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "cycle %d: %s: %s" v.v_cycle v.v_prop v.v_detail

type check =
  | C_holds of int p  (* [always p]; [never p] is [C_holds (Neg p)] *)
  | C_within of int * int p * int p  (* cycles, trigger, goal *)

type monitor = {
  props : t array;
  checks : check array;
  readers : (unit -> int) array;  (* one per distinct signal *)
  values : int array;             (* this cycle's reads, by signal *)
  pending : int array;
      (* per check: earliest undischarged [implies_within] trigger
         cycle, [-1] = none *)
  firsts : (string, violation) Hashtbl.t; (* prop name -> first violation *)
  mutable order : string list;            (* violated props, reversed *)
  mutable total : int;
}

let rec at_most_one v seen = function
  | [] -> true
  | i :: rest ->
      if v.(i) = 0 then at_most_one v seen rest
      else (not seen) && at_most_one v true rest

(* Every value is a width-masked, hence non-negative, int, so signed
   comparison is unsigned comparison. *)
let rec holds v = function
  | High i -> v.(i) <> 0
  | Low i -> v.(i) = 0
  | Eq_int (i, k) -> v.(i) = k
  | Le_int (i, k) -> v.(i) <= k
  | Le_sig (i, j) -> v.(i) <= v.(j)
  | Onehot_or_zero i -> v.(i) land (v.(i) - 1) = 0
  | Subset_of (i, j) -> v.(i) land lnot v.(j) = 0
  | At_most_one_of ixs -> at_most_one v false ixs
  | Conj (a, b) -> holds v a && holds v b
  | Disj (a, b) -> holds v a || holds v b
  | Neg a -> not (holds v a)
  | Iff (a, b) -> holds v a = holds v b

let detail (p : t) ~trigger_cycle =
  match p.p_shape with
  | Always pr -> Printf.sprintf "invariant %s does not hold" (describe pr)
  | Never pr -> Printf.sprintf "forbidden condition %s holds" (describe pr)
  | Implies_within { cycles; trigger; goal } ->
      Printf.sprintf "%s at cycle %d was not followed by %s within %d cycle(s)"
        (describe trigger) trigger_cycle (describe goal) cycles

let record m cycle k ~trigger_cycle =
  let p = m.props.(k) in
  m.total <- m.total + 1;
  if not (Hashtbl.mem m.firsts p.p_name) then begin
    Hashtbl.replace m.firsts p.p_name
      { v_prop = p.p_name; v_cycle = cycle;
        v_detail = detail p ~trigger_cycle };
    m.order <- p.p_name :: m.order
  end

(* One sampled cycle: read every signal once, then check every property
   in attach order.  A goal observation discharges every pending trigger
   (they all fired at or before it); a deadline miss reports once and
   re-arms. *)
let sample m cycle =
  let v = m.values in
  for i = 0 to Array.length m.readers - 1 do
    v.(i) <- m.readers.(i) ()
  done;
  for k = 0 to Array.length m.checks - 1 do
    match m.checks.(k) with
    | C_holds p -> if not (holds v p) then record m cycle k ~trigger_cycle:(-1)
    | C_within (cycles, trigger, goal) ->
        let was = m.pending.(k) in
        if was >= 0 && cycle > was + cycles then begin
          m.pending.(k) <- -1;
          record m cycle k ~trigger_cycle:was
        end;
        if m.pending.(k) < 0 && holds v trigger then m.pending.(k) <- cycle;
        if m.pending.(k) >= 0 && holds v goal then m.pending.(k) <- -1
  done

(* Resolve every property against the design, giving each distinct
   signal one index and one reader; raises before anything is
   registered. *)
let attach sim props =
  let slots = Hashtbl.create 64 and readers = ref [] in
  let resolve (p : t) =
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          invalid_arg
            (Printf.sprintf "Prop.attach: property %s: %s" p.p_name msg))
        fmt
    in
    (* [(index, width)] of a signal *)
    let slot name =
      match Hashtbl.find_opt slots name with
      | Some sw -> sw
      | None ->
          let w =
            try Bits.width (Engine.peek sim name)
            with Not_found -> fail "unknown signal %s" name
          in
          if w > 62 then
            fail "signal %s is %d bits wide (monitors read at most 62)" name w;
          let sw = (Hashtbl.length slots, w) in
          Hashtbl.replace slots name sw;
          readers := Engine.reader sim name :: !readers;
          sw
    in
    let ix name = fst (slot name) in
    let truncate w k = k land ((1 lsl w) - 1) in
    let rec go : pred -> int p = function
      | High s -> High (ix s)
      | Low s -> Low (ix s)
      | Eq_int (s, k) ->
          let i, w = slot s in
          Eq_int (i, truncate w k)
      | Le_int (s, k) ->
          let i, w = slot s in
          Le_int (i, truncate w k)
      | Le_sig (a, b) ->
          let i, wa = slot a in
          let j, wb = slot b in
          if wa <> wb then
            fail "le_sig %s (%d bits) <= %s (%d bits): widths differ" a wa b
              wb;
          Le_sig (i, j)
      | Onehot_or_zero s -> Onehot_or_zero (ix s)
      | Subset_of (a, b) ->
          let i = ix a in
          Subset_of (i, ix b)
      | At_most_one_of names -> At_most_one_of (List.map ix names)
      | Conj (a, b) ->
          let a = go a in
          Conj (a, go b)
      | Disj (a, b) ->
          let a = go a in
          Disj (a, go b)
      | Neg a -> Neg (go a)
      | Iff (a, b) ->
          let a = go a in
          Iff (a, go b)
    in
    match p.p_shape with
    | Always pr -> C_holds (go pr)
    | Never pr -> C_holds (Neg (go pr))
    | Implies_within { cycles; trigger; goal } ->
        let t = go trigger in
        C_within (cycles, t, go goal)
  in
  let checks = Array.of_list (List.map resolve props) in
  let readers = Array.of_list (List.rev !readers) in
  let m =
    {
      props = Array.of_list props;
      checks;
      readers;
      values = Array.make (Array.length readers) 0;
      pending = Array.make (Array.length checks) (-1);
      firsts = Hashtbl.create 16;
      order = [];
      total = 0;
    }
  in
  Engine.on_cycle sim (sample m);
  m

let violations m =
  List.rev_map (fun name -> Hashtbl.find m.firsts name) m.order

let violation_count m = m.total
let violated_props m = List.rev m.order
let property_count m = Array.length m.checks

let reset m =
  Hashtbl.reset m.firsts;
  m.order <- [];
  m.total <- 0;
  Array.fill m.pending 0 (Array.length m.pending) (-1)

(* ------------------------------------------------------------------ *)
(* Monitor state snapshot                                              *)
(* ------------------------------------------------------------------ *)

type monitor_state = {
  ms_pending : int array; (* per check, in attach order *)
  ms_firsts : violation list;
  ms_total : int;
}

let export_state m =
  {
    ms_pending = Array.copy m.pending;
    ms_firsts = violations m;
    ms_total = m.total;
  }

let import_state m st =
  if Array.length st.ms_pending <> Array.length m.checks then
    invalid_arg
      (Printf.sprintf
         "Prop.import_state: snapshot has %d checkers, monitor has %d"
         (Array.length st.ms_pending)
         (Array.length m.checks));
  Array.blit st.ms_pending 0 m.pending 0 (Array.length m.pending);
  Hashtbl.reset m.firsts;
  m.order <- [];
  List.iter
    (fun v ->
      Hashtbl.replace m.firsts v.v_prop v;
      m.order <- v.v_prop :: m.order)
    st.ms_firsts;
  m.total <- st.ms_total
