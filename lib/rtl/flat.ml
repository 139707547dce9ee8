(* The flat view of a circuit hierarchy, shared by the evaluation
   engines: the flattening itself, the fault-injection descriptors and
   the state snapshot.  {!Interp_tape} interns the flat signals in the
   declaration order [flatten] returns, which is what fixes the slot
   order and the snapshot layout that checkpoints store. *)

type flat_reg = {
  fr_name : string;
  fr_init : Bits.t;
  fr_next : Expr.t;
}

type flat_mem = {
  fm_name : string;
  fm_width : int;
  fm_depth : int;
  fm_init : Bits.t array;
  fm_writes : Circuit.mem_write list; (* exprs already renamed *)
  fm_reads : (string * Expr.t) list;
}

(* The instance that declared a flat signal, as the duplicate-signal
   error names it: the instance path (innermost first) and its module. *)
let instance_path (path, (c : Circuit.t)) =
  match path with
  | [] -> Printf.sprintf "<top> (%s)" (Circuit.name c)
  | _ ->
      Printf.sprintf "%s (%s)" (String.concat "." (List.rev path))
        (Circuit.name c)

(* Every signal of every instance becomes [prefix ^ signal]; instance
   boundaries become alias assignments. *)
let flatten (top : Circuit.t) =
  (* flat name -> the declaring instance, formatted only on a collision *)
  let origins = Hashtbl.create 256 in
  let decls = ref [] in (* (flat name, width), reversed declaration order *)
  let assigns = ref [] in
  let regs = ref [] in
  let mems = ref [] in
  let rec go prefix path (c : Circuit.t) =
    let origin = (path, c) in
    let add_width name w =
      (match Hashtbl.find_opt origins name with
      | Some first ->
          invalid_arg
            (Printf.sprintf
               "Flat: duplicate flat signal %s: first declared in instance \
                %s, collides with a declaration in instance %s"
               name (instance_path first) (instance_path origin))
      | None -> Hashtbl.add origins name origin);
      decls := (name, w) :: !decls
    in
    let ren n = prefix ^ n in
    let rename_expr = Expr.map_vars ren in
    List.iter
      (fun (p : Circuit.port) ->
        (* Top-level inputs keep their names; instance ports are wires. *)
        add_width (ren p.port_name) p.port_width)
      c.ports;
    List.iter
      (fun (w : Circuit.signal) -> add_width (ren w.sig_name) w.sig_width)
      c.wires;
    List.iter
      (fun (r : Circuit.reg) ->
        add_width (ren r.reg_name) r.reg_width;
        regs :=
          { fr_name = ren r.reg_name; fr_init = r.init;
            fr_next = rename_expr r.next }
          :: !regs)
      c.regs;
    List.iter
      (fun (m : Circuit.memory) ->
        List.iter (fun (rd, _) -> add_width (ren rd) m.data_width) m.reads;
        mems :=
          {
            fm_name = ren m.mem_name;
            fm_width = m.data_width;
            fm_depth = m.depth;
            fm_init = m.init;
            fm_writes =
              List.map
                (fun (w : Circuit.mem_write) ->
                  {
                    Circuit.we = rename_expr w.we;
                    waddr = rename_expr w.waddr;
                    wdata = rename_expr w.wdata;
                  })
                m.writes;
            fm_reads =
              List.map (fun (rd, a) -> (ren rd, rename_expr a)) m.reads;
          }
          :: !mems)
      c.memories;
    List.iter
      (fun (a : Circuit.assign) ->
        assigns := (ren a.target, rename_expr a.expr) :: !assigns)
      c.assigns;
    List.iter
      (fun (i : Circuit.instance) ->
        let sub_prefix = prefix ^ i.inst_name ^ "$" in
        go sub_prefix (i.inst_name :: path) i.sub;
        List.iter
          (fun (p, e) -> assigns := (sub_prefix ^ p, rename_expr e) :: !assigns)
          i.in_connections;
        List.iter
          (fun (p, w) -> assigns := (ren w, Expr.Var (sub_prefix ^ p)) :: !assigns)
          i.out_connections)
      c.instances
  in
  go "" [] top;
  let top_inputs = Hashtbl.create 16 in
  List.iter
    (fun (p : Circuit.port) -> Hashtbl.add top_inputs p.port_name p.port_width)
    (Circuit.inputs top);
  ( List.rev !decls, top_inputs, List.rev !assigns, List.rev !regs,
    List.rev !mems )

(* The combinational graph over flat names: one node per assignment
   target and per memory read port (memory words are state, so a read
   port depends only on its address). *)
let levelize assigns mems =
  let graph =
    List.map (fun (tgt, e) -> (tgt, Expr.vars e)) assigns
    @ List.concat_map
        (fun m -> List.map (fun (rd, a) -> (rd, Expr.vars a)) m.fm_reads)
        mems
  in
  try Depth.levelize graph
  with Depth.Combinational_cycle cycle ->
    invalid_arg ("Flat: combinational loop: " ^ String.concat " -> " cycle)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

type fault = Stuck_at_0 | Stuck_at_1 | Flip of int

type injection = {
  inj_signal : string;
  inj_fault : fault;
  inj_start : int;
  inj_cycles : int;
}

let apply_fault f v =
  let w = Bits.width v in
  match f with
  | Stuck_at_0 -> Bits.zero w
  | Stuck_at_1 -> Bits.ones w
  | Flip i ->
      if i < 0 || i >= w then v
      else Bits.logxor v (Bits.shift_left (Bits.of_int ~width:w 1) i)

(* A small LCG (the recurrence the transaction-level simulator uses)
   over the signals sorted by name, so a given (design, seed, n,
   horizon) always yields the same faults whichever engine or caller
   asks. *)
let random_campaign signals ~seed ~n ~horizon =
  if n < 0 then invalid_arg "Flat.random_campaign: negative n";
  if horizon < 1 then invalid_arg "Flat.random_campaign: horizon must be >= 1";
  let sigs = Array.of_list (List.sort compare signals) in
  if Array.length sigs = 0 then []
  else begin
    let lcg = ref (seed land 0x3FFFFFFF) in
    let next m =
      lcg := ((!lcg * 1664525) + 1013904223) land 0x3FFFFFFF;
      !lcg mod max 1 m
    in
    List.init n (fun _ ->
        let name, w = sigs.(next (Array.length sigs)) in
        let fault =
          match next 3 with
          | 0 -> Stuck_at_0
          | 1 -> Stuck_at_1
          | _ -> Flip (next w)
        in
        let start = next horizon in
        let cycles = 1 + next 4 in
        { inj_signal = name; inj_fault = fault; inj_start = start;
          inj_cycles = cycles })
  end

(* ------------------------------------------------------------------ *)
(* State snapshot                                                      *)
(* ------------------------------------------------------------------ *)

type state = {
  st_cycle : int;
  st_values : (string * Bits.t) array;
  st_mems : (string * Bits.t array) array;
}
