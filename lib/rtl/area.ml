type breakdown = {
  register_bits : int;
  gates_comb : int;
  gates_regs : int;
  memory_bits : int;
}

let gates b = b.gates_comb + b.gates_regs

(* Per-primitive NAND2 costs (classic standard-cell equivalences). *)
let cost_ff = 6
let cost_and_or = 1
let cost_xor = 3
let cost_full_adder = 9
let cost_mux_bit = 3
let cost_eq_bit = 2   (* XNOR into an AND tree *)
let cost_lt_bit = 3

let rec expr_cost ~env (e : Expr.t) =
  let w x = Expr.width ~env x in
  match e with
  | Expr.Const _ | Expr.Var _ -> 0
  | Expr.Select (x, _, _) -> expr_cost ~env x
  | Expr.Concat xs -> List.fold_left (fun a x -> a + expr_cost ~env x) 0 xs
  | Expr.Unop (Expr.Not, x) -> w x / 2 + expr_cost ~env x
  | Expr.Unop ((Expr.Reduce_or | Expr.Reduce_and), x) ->
      (w x - 1) * cost_and_or + expr_cost ~env x
  | Expr.Unop (Expr.Reduce_xor, x) ->
      (w x - 1) * cost_xor + expr_cost ~env x
  | Expr.Binop ((Expr.And | Expr.Or), a, b) ->
      (w a * cost_and_or) + expr_cost ~env a + expr_cost ~env b
  | Expr.Binop (Expr.Xor, a, b) ->
      (w a * cost_xor) + expr_cost ~env a + expr_cost ~env b
  | Expr.Binop ((Expr.Add | Expr.Sub), a, b) ->
      (w a * cost_full_adder) + expr_cost ~env a + expr_cost ~env b
  | Expr.Binop ((Expr.Mul | Expr.Smul), a, b) ->
      (w a * w b * cost_full_adder / 2)
      + expr_cost ~env a + expr_cost ~env b
  | Expr.Binop ((Expr.Eq | Expr.Neq), a, b) ->
      (w a * cost_eq_bit) + expr_cost ~env a + expr_cost ~env b
  | Expr.Binop ((Expr.Ult | Expr.Ule), a, b) ->
      (w a * cost_lt_bit) + expr_cost ~env a + expr_cost ~env b
  | Expr.Mux (c, a, b) ->
      (w a * cost_mux_bit)
      + expr_cost ~env c + expr_cost ~env a + expr_cost ~env b
  | Expr.Shift_left (x, _) | Expr.Shift_right (x, _) ->
      (* Constant shifts are wiring. *)
      expr_cost ~env x

let rec of_circuit ?(include_memories = false) (c : Circuit.t) =
  let env n = Circuit.signal_width c n in
  let comb = ref 0 and reg_bits = ref 0 and mem_bits = ref 0 in
  List.iter
    (fun (a : Circuit.assign) -> comb := !comb + expr_cost ~env a.expr)
    c.assigns;
  List.iter
    (fun (r : Circuit.reg) ->
      reg_bits := !reg_bits + r.reg_width;
      comb := !comb + expr_cost ~env r.next)
    c.regs;
  List.iter
    (fun (m : Circuit.memory) ->
      mem_bits := !mem_bits + (m.data_width * m.depth);
      List.iter
        (fun (w : Circuit.mem_write) ->
          comb :=
            !comb + expr_cost ~env w.we + expr_cost ~env w.waddr
            + expr_cost ~env w.wdata)
        m.writes;
      (* Address decode for each port: roughly one gate per word-select. *)
      List.iter (fun (_, a) -> comb := !comb + expr_cost ~env a) m.reads)
    c.memories;
  let acc =
    List.fold_left
      (fun acc (i : Circuit.instance) ->
        let sub = of_circuit ~include_memories i.sub in
        List.iter (fun (_, e) -> comb := !comb + expr_cost ~env e)
          i.in_connections;
        {
          register_bits = acc.register_bits + sub.register_bits;
          gates_comb = acc.gates_comb + sub.gates_comb;
          gates_regs = acc.gates_regs + sub.gates_regs;
          memory_bits = acc.memory_bits + sub.memory_bits;
        })
      { register_bits = 0; gates_comb = 0; gates_regs = 0; memory_bits = 0 }
      c.instances
  in
  let own_mem_gates = if include_memories then !mem_bits * cost_ff else 0 in
  {
    register_bits = !reg_bits + acc.register_bits;
    gates_comb = !comb + acc.gates_comb;
    gates_regs = (!reg_bits * cost_ff) + own_mem_gates + acc.gates_regs;
    memory_bits = !mem_bits + acc.memory_bits;
  }

(* A module's own logic: its assigns/regs/memories plus the expression
   cost of the port connections it feeds into its direct instances.
   [of_circuit] charges those connection expressions to the parent, so
   any report that wants [sum of rows = of_circuit total] must count
   them here and not drop them. *)
let own_gates ?include_memories (c : Circuit.t) =
  let env n = Circuit.signal_width c n in
  let conn =
    List.fold_left
      (fun acc (i : Circuit.instance) ->
        List.fold_left
          (fun acc (_, e) -> acc + expr_cost ~env e)
          acc i.in_connections)
      0 c.instances
  in
  gates (of_circuit ?include_memories { c with Circuit.instances = [] })
  + conn

let glue_row = "<top-level glue>"

let by_instance ?include_memories (c : Circuit.t) =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (i : Circuit.instance) ->
      let sub = of_circuit ?include_memories i.sub in
      let mod_name = Circuit.name i.sub in
      let count, gate_sum =
        match Hashtbl.find_opt totals mod_name with
        | Some (n, g) -> (n, g)
        | None -> (0, 0)
      in
      Hashtbl.replace totals mod_name (count + 1, gate_sum + gates sub))
    c.instances;
  (* The top module's own logic (netlist glue), including the cost of
     the expressions driving instance ports: [of_circuit] counts those
     in the parent, so they belong to this row, not to any instance.
     Without them the rows do not sum to [gates (of_circuit c)]. *)
  let own = own_gates ?include_memories c in
  let rows =
    Hashtbl.fold (fun m (n, g) acc -> (m, n, g) :: acc) totals []
  in
  let rows = if own > 0 then (glue_row, 1, own) :: rows else rows in
  List.sort (fun (_, _, a) (_, _, b) -> compare b a) rows

let by_module ?include_memories (c : Circuit.t) =
  let totals = Hashtbl.create 16 in
  let add name g =
    let count, gate_sum =
      match Hashtbl.find_opt totals name with
      | Some (n, s) -> (n, s)
      | None -> (0, 0)
    in
    Hashtbl.replace totals name (count + 1, gate_sum + g)
  in
  let rec walk (c : Circuit.t) =
    List.iter
      (fun (i : Circuit.instance) ->
        add (Circuit.name i.sub) (own_gates ?include_memories i.sub);
        walk i.sub)
      c.instances
  in
  walk c;
  let own = own_gates ?include_memories c in
  let rows =
    Hashtbl.fold (fun m (n, g) acc -> (m, n, g) :: acc) totals []
  in
  let rows = if own > 0 then (glue_row, 1, own) :: rows else rows in
  List.sort
    (fun (m1, _, a) (m2, _, b) ->
      match compare b a with 0 -> compare m1 m2 | o -> o)
    rows
