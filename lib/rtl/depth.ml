type report = { levels : int; endpoint : string }

let clog2 n =
  let rec go w = if 1 lsl w >= n then w else go (w + 1) in
  if n <= 1 then 0 else go 1

(* Levels contributed by one operator over operands of width [w]. *)
let adder_levels w = 2 * max 1 (clog2 w)
let cmp_levels w = 1 + clog2 w

let rec expr_levels ~env depth_of_var (e : Expr.t) =
  let sub x = expr_levels ~env depth_of_var x in
  let w x = Expr.width ~env x in
  match e with
  | Expr.Const _ -> 0
  | Expr.Var v -> depth_of_var v
  | Expr.Select (x, _, _) | Expr.Shift_left (x, _) | Expr.Shift_right (x, _)
    ->
      sub x
  | Expr.Concat xs -> List.fold_left (fun a x -> max a (sub x)) 0 xs
  | Expr.Unop (Expr.Not, x) -> 1 + sub x
  | Expr.Unop ((Expr.Reduce_or | Expr.Reduce_and | Expr.Reduce_xor), x) ->
      max 1 (clog2 (w x)) + sub x
  | Expr.Binop ((Expr.And | Expr.Or | Expr.Xor), a, b) ->
      1 + max (sub a) (sub b)
  | Expr.Binop ((Expr.Add | Expr.Sub), a, b) ->
      adder_levels (w a) + max (sub a) (sub b)
  | Expr.Binop ((Expr.Mul | Expr.Smul), a, b) ->
      (* Booth/Wallace partial products then a final carry-lookahead. *)
      let wp = w a + w b in
      clog2 (w b) + adder_levels wp + max (sub a) (sub b)
  | Expr.Binop ((Expr.Eq | Expr.Neq), a, b) ->
      cmp_levels (w a) + max (sub a) (sub b)
  | Expr.Binop ((Expr.Ult | Expr.Ule), a, b) ->
      (adder_levels (w a) + 1) + max (sub a) (sub b)
  | Expr.Mux (c, a, b) -> 1 + max (sub c) (max (sub a) (sub b))

(* What drives a flat signal combinationally: nothing (an input, a
   register output or an undriven wire, all level-0 sources), an
   assignment, or a memory read port (its address and the memory's
   depth). *)
type driver = Source | Assign of Expr.t | Read of Expr.t * int

(* Per-slot search state: [unvisited], [busy] while the search is
   below the slot, and the slot's level once it is done. *)
let unvisited = -2
let busy = -1

let of_circuit (top : Circuit.t) =
  let d = Flat.flatten top in
  let slot v =
    match Hashtbl.find d.Flat.d_slots v with
    | s -> s
    | exception Not_found -> invalid_arg ("Depth: unknown signal " ^ v)
  in
  let env v = d.Flat.d_widths.(slot v) in
  let n = Array.length d.Flat.d_names in
  let drivers = Array.make n Source in
  List.iter (fun (t, e) -> drivers.(slot t) <- Assign e) d.Flat.d_assigns;
  List.iter
    (fun (m : Flat.flat_mem) ->
      List.iter
        (fun (rd, a) -> drivers.(slot rd) <- Read (a, m.fm_depth))
        m.fm_reads)
    d.Flat.d_mems;
  let levels = Array.make n unvisited in
  (* [path] is the search stack, innermost first. *)
  let rec level path s =
    let l = levels.(s) in
    if l >= 0 then l
    else if l = busy then begin
      (* Trim [path] to the part inside the cycle, closed once in
         dependency order, as {!Flat.levelize} names it. *)
      let rec cycle acc = function
        | [] -> acc
        | p :: rest -> if p = s then p :: acc else cycle (p :: acc) rest
      in
      invalid_arg
        ("Depth: combinational loop: "
        ^ String.concat " -> "
            (List.map (fun p -> d.Flat.d_names.(p)) (cycle [ s ] path)))
    end
    else begin
      levels.(s) <- busy;
      let var v = level (s :: path) (slot v) in
      let l =
        match drivers.(s) with
        | Source -> 0
        | Assign e -> expr_levels ~env var e
        | Read (a, depth) ->
            (* Address decode then word mux: log2(depth) levels. *)
            max 1 (clog2 depth) + expr_levels ~env var a
      in
      levels.(s) <- l;
      l
    end
  in
  let var v = level [] (slot v) in
  let best = ref { levels = 0; endpoint = Circuit.name top } in
  let consider levels endpoint =
    if levels > !best.levels then best := { levels; endpoint }
  in
  (* Endpoints, the first strictly deeper one winning: every
     combinational target (covers output ports) in slot order, then
     every register D input and every memory write port, each in
     reverse declaration order. *)
  Array.iteri
    (fun s drv ->
      match drv with
      | Source -> ()
      | Assign _ | Read _ -> consider (level [] s) d.Flat.d_names.(s))
    drivers;
  List.iter
    (fun (r : Flat.flat_reg) ->
      consider (expr_levels ~env var r.fr_next) (r.fr_name ^ " (reg D)"))
    (List.rev d.Flat.d_regs);
  List.iter
    (fun (m : Flat.flat_mem) ->
      List.iter
        (fun (w : Circuit.mem_write) ->
          List.iter
            (fun e ->
              consider (expr_levels ~env var e) (m.fm_name ^ " (mem write)"))
            [ w.we; w.waddr; w.wdata ])
        m.fm_writes)
    (List.rev d.Flat.d_mems);
  !best

let pp_report fmt r =
  Format.fprintf fmt "critical path: %d levels, ending at %s" r.levels
    r.endpoint
