(* The flat view of a circuit hierarchy, shared by the tape engine,
   lint and Depth: the flattening itself, the fault-injection
   descriptors and the state snapshot.  [flatten] interns every flat
   signal to a slot in declaration order, which is what fixes the slot
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

type design = {
  d_names : string array;
  d_widths : int array;
  d_slots : (string, int) Hashtbl.t;
  d_inputs : (string, int) Hashtbl.t;
  d_assigns : (string * Expr.t) list;
  d_regs : flat_reg list;
  d_mems : flat_mem list;
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
  let slots = Hashtbl.create 256 in
  let n = ref 0 in
  (* (flat name, width, declaring instance), reversed declaration order *)
  let decls = ref [] in
  let assigns = ref [] in
  let regs = ref [] in
  let mems = ref [] in
  let rec go prefix path (c : Circuit.t) =
    let origin = (path, c) in
    let add_width name w =
      (match Hashtbl.find_opt slots name with
      | Some s ->
          let _, _, first = List.nth !decls (!n - 1 - s) in
          invalid_arg
            (Printf.sprintf
               "Flat: duplicate flat signal %s: first declared in instance \
                %s, collides with a declaration in instance %s"
               name (instance_path first) (instance_path origin))
      | None -> Hashtbl.add slots name !n);
      incr n;
      decls := (name, w, origin) :: !decls
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
  let n = !n in
  let d_names = Array.make n "" and d_widths = Array.make n 0 in
  List.iteri
    (fun i (name, w, _) ->
      d_names.(n - 1 - i) <- name;
      d_widths.(n - 1 - i) <- w)
    !decls;
  let d_inputs = Hashtbl.create 16 in
  List.iter
    (fun (p : Circuit.port) ->
      Hashtbl.add d_inputs p.port_name (Hashtbl.find slots p.port_name))
    (Circuit.inputs top);
  {
    d_names;
    d_widths;
    d_slots = slots;
    d_inputs;
    d_assigns = List.rev !assigns;
    d_regs = List.rev !regs;
    d_mems = List.rev !mems;
  }

let signals d =
  Array.to_list (Array.mapi (fun s name -> (name, d.d_widths.(s))) d.d_names)

exception Combinational_cycle of string list

let levelize_graph nodes =
  let deps_of = Hashtbl.create (2 * List.length nodes) in
  List.iter (fun (n, deps) -> Hashtbl.replace deps_of n deps) nodes;
  let state = Hashtbl.create (2 * List.length nodes) in
  (* name -> `Busy during the DFS, `Done level afterwards *)
  let order = ref [] in
  let rec visit path name =
    match Hashtbl.find_opt deps_of name with
    | None -> 0 (* source: input, register output, constant, memory word *)
    | Some deps -> (
        match Hashtbl.find_opt state name with
        | Some (`Done l) -> l
        | Some `Busy ->
            (* Trim [path] to the part inside the cycle. *)
            let rec cycle acc = function
              | [] -> acc
              | n :: rest -> if n = name then n :: acc else cycle (n :: acc) rest
            in
            raise (Combinational_cycle (cycle [ name ] path))
        | None ->
            Hashtbl.replace state name `Busy;
            let l =
              1
              + List.fold_left
                  (fun acc d -> max acc (visit (name :: path) d))
                  (-1) deps
            in
            Hashtbl.replace state name (`Done l);
            order := (name, l) :: !order;
            l)
  in
  List.iter (fun (name, _) -> ignore (visit [] name)) nodes;
  (* [!order] holds DFS finish order reversed (dependents first). *)
  List.rev !order

(* The combinational graph over flat names: one node per assignment
   target and per memory read port (memory words are state, so a read
   port depends only on its address). *)
let levelize d =
  let graph =
    List.map (fun (tgt, e) -> (tgt, Expr.vars e)) d.d_assigns
    @ List.concat_map
        (fun m -> List.map (fun (rd, a) -> (rd, Expr.vars a)) m.fm_reads)
        d.d_mems
  in
  try levelize_graph graph
  with Combinational_cycle cycle ->
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
