type direction = Input | Output

type port = { port_name : string; port_width : int; direction : direction }

type signal = { sig_name : string; sig_width : int }

type assign = { target : string; expr : Expr.t }

type reg = { reg_name : string; reg_width : int; init : Bits.t; next : Expr.t }

type mem_write = { we : Expr.t; waddr : Expr.t; wdata : Expr.t }

type memory = {
  mem_name : string;
  data_width : int;
  depth : int;
  init : Bits.t array;
  writes : mem_write list;
  reads : (string * Expr.t) list;
}

type instance = {
  inst_name : string;
  sub : t;
  in_connections : (string * Expr.t) list;
  out_connections : (string * string) list;
}

and t = {
  circ_name : string;
  ports : port list;
  wires : signal list;
  assigns : assign list;
  regs : reg list;
  memories : memory list;
  instances : instance list;
}

let name t = t.circ_name
let find_port t n = List.find_opt (fun p -> p.port_name = n) t.ports
let inputs t = List.filter (fun p -> p.direction = Input) t.ports
let outputs t = List.filter (fun p -> p.direction = Output) t.ports

let signal_width t n =
  let from_port =
    List.find_map
      (fun p -> if p.port_name = n then Some p.port_width else None)
      t.ports
  and from_wire =
    List.find_map
      (fun w -> if w.sig_name = n then Some w.sig_width else None)
      t.wires
  and from_reg =
    List.find_map
      (fun r -> if r.reg_name = n then Some r.reg_width else None)
      t.regs
  and from_mem =
    List.find_map
      (fun m ->
        if List.exists (fun (rd, _) -> rd = n) m.reads then Some m.data_width
        else None)
      t.memories
  in
  match (from_port, from_wire, from_reg, from_mem) with
  | Some w, _, _, _ | _, Some w, _, _ | _, _, Some w, _ | _, _, _, Some w -> w
  | None, None, None, None -> raise Not_found

let rec has_state t =
  t.regs <> [] || t.memories <> []
  || List.exists (fun i -> has_state i.sub) t.instances

let sub_circuits top =
  (* Post-order walk deduplicating by module name; reject homonyms. *)
  let seen : (string, t) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit c =
    List.iter
      (fun i ->
        visit i.sub;
        match Hashtbl.find_opt seen i.sub.circ_name with
        | Some prev ->
            if prev != i.sub && prev <> i.sub then
              invalid_arg
                (Printf.sprintf
                   "Circuit.sub_circuits: two different modules named %s"
                   i.sub.circ_name)
        | None ->
            Hashtbl.add seen i.sub.circ_name i.sub;
            order := i.sub :: !order)
      c.instances
  in
  visit top;
  List.rev !order

module Builder = struct
  type kind = K_input | K_output | K_wire | K_reg | K_memread

  type b = {
    bname : string;
    mutable decls : (string * (int * kind)) list; (* reverse order *)
    names : (string, int * kind) Hashtbl.t;
    mutable b_assigns : assign list;              (* reverse order *)
    driven : (string, unit) Hashtbl.t;
    mutable b_regs : (string * int * Bits.t) list;
    nexts : (string, Expr.t) Hashtbl.t;
    mutable b_memories : memory list;
    mutable b_instances : instance list;
  }

  let create bname =
    {
      bname;
      decls = [];
      names = Hashtbl.create 32;
      b_assigns = [];
      driven = Hashtbl.create 32;
      b_regs = [];
      nexts = Hashtbl.create 8;
      b_memories = [];
      b_instances = [];
    }

  let declare b name width kind =
    if width < 1 then
      invalid_arg
        (Printf.sprintf "Circuit %s: signal %s has width %d" b.bname name
           width);
    if Hashtbl.mem b.names name then
      invalid_arg
        (Printf.sprintf "Circuit %s: signal %s declared twice" b.bname name);
    Hashtbl.add b.names name (width, kind);
    b.decls <- (name, (width, kind)) :: b.decls

  let input b name width =
    declare b name width K_input;
    Expr.var name

  let output b name width = declare b name width K_output

  let wire b name width =
    declare b name width K_wire;
    Expr.var name

  let assign b target expr =
    (match Hashtbl.find_opt b.names target with
    | Some (_, (K_output | K_wire)) -> ()
    | Some (_, (K_input | K_reg | K_memread)) ->
        invalid_arg
          (Printf.sprintf "Circuit %s: %s is not assignable" b.bname target)
    | None ->
        invalid_arg
          (Printf.sprintf "Circuit %s: assign to undeclared signal %s" b.bname
             target));
    if Hashtbl.mem b.driven target then
      invalid_arg
        (Printf.sprintf "Circuit %s: %s driven twice" b.bname target);
    Hashtbl.add b.driven target ();
    b.b_assigns <- { target; expr } :: b.b_assigns

  let reg b name width ?init () =
    let init = match init with Some i -> i | None -> Bits.zero width in
    if Bits.width init <> width then
      invalid_arg
        (Printf.sprintf "Circuit %s: reg %s init width mismatch" b.bname name);
    declare b name width K_reg;
    b.b_regs <- (name, width, init) :: b.b_regs;
    Expr.var name

  let set_next b name expr =
    (match Hashtbl.find_opt b.names name with
    | Some (_, K_reg) -> ()
    | Some _ | None ->
        invalid_arg
          (Printf.sprintf "Circuit %s: set_next on non-register %s" b.bname
             name));
    if Hashtbl.mem b.nexts name then
      invalid_arg
        (Printf.sprintf "Circuit %s: reg %s next set twice" b.bname name);
    Hashtbl.add b.nexts name expr

  let memory b ?(init = [||]) mem_name ~data_width ~depth ~writes ~reads =
    if depth < 1 then
      invalid_arg (Printf.sprintf "Circuit %s: memory depth < 1" b.bname);
    if Array.length init > depth then
      invalid_arg
        (Printf.sprintf "Circuit %s: memory %s init longer than depth %d"
           b.bname mem_name depth);
    Array.iteri
      (fun i w ->
        if Bits.width w <> data_width then
          invalid_arg
            (Printf.sprintf
               "Circuit %s: memory %s init word %d has width %d, want %d"
               b.bname mem_name i (Bits.width w) data_width))
      init;
    List.iter (fun (rd, _) -> declare b rd data_width K_memread) reads;
    b.b_memories <-
      { mem_name; data_width; depth; init; writes; reads } :: b.b_memories;
    List.map (fun (rd, _) -> Expr.var rd) reads

  let instantiate b ~name sub ~inputs:ins ~outputs:outs =
    List.iter
      (fun (port, w) ->
        match find_port sub port with
        | Some { port_width; direction = Output; _ } ->
            declare b w port_width K_wire;
            Hashtbl.add b.driven w ()
        | Some { direction = Input; _ } | None ->
            invalid_arg
              (Printf.sprintf
                 "Circuit %s: instance %s: %s is not an output port of %s"
                 b.bname name port sub.circ_name))
      outs;
    b.b_instances <-
      { inst_name = name; sub; in_connections = ins; out_connections = outs }
      :: b.b_instances;
    List.map (fun (_, w) -> Expr.var w) outs

  let finish b =
    let ports =
      List.rev b.decls
      |> List.filter_map (fun (n, (w, k)) ->
             match k with
             | K_input -> Some { port_name = n; port_width = w; direction = Input }
             | K_output ->
                 Some { port_name = n; port_width = w; direction = Output }
             | K_wire | K_reg | K_memread -> None)
    in
    let wires =
      List.rev b.decls
      |> List.filter_map (fun (n, (w, k)) ->
             match k with
             | K_wire -> Some { sig_name = n; sig_width = w }
             | K_input | K_output | K_reg | K_memread -> None)
    in
    let regs =
      List.rev_map
        (fun (reg_name, reg_width, init) ->
          match Hashtbl.find_opt b.nexts reg_name with
          | Some next -> { reg_name; reg_width; init; next }
          | None ->
              invalid_arg
                (Printf.sprintf "Circuit %s: reg %s has no next-state" b.bname
                   reg_name))
        b.b_regs
    in
    (* Every output and wire must be driven. *)
    List.iter
      (fun (n, (_, k)) ->
        match k with
        | (K_output | K_wire) when not (Hashtbl.mem b.driven n) ->
            invalid_arg
              (Printf.sprintf "Circuit %s: signal %s is undriven" b.bname n)
        | K_output | K_wire | K_input | K_reg | K_memread -> ())
      b.decls;
    let t =
      {
        circ_name = b.bname;
        ports;
        wires;
        assigns = List.rev b.b_assigns;
        regs;
        memories = List.rev b.b_memories;
        instances = List.rev b.b_instances;
      }
    in
    (* Width-check every expression in the circuit. *)
    let env n =
      try signal_width t n
      with Not_found ->
        invalid_arg
          (Printf.sprintf "Circuit %s: reference to undeclared signal %s"
             b.bname n)
    in
    let check_expr context expected e =
      let w =
        try Expr.width ~env e
        with Invalid_argument msg ->
          invalid_arg (Printf.sprintf "Circuit %s, %s: %s" b.bname context msg)
      in
      match expected with
      | Some we when we <> w ->
          invalid_arg
            (Printf.sprintf "Circuit %s, %s: expected width %d, got %d"
               b.bname context we w)
      | Some _ | None -> ()
    in
    List.iter
      (fun { target; expr } ->
        check_expr ("assign " ^ target) (Some (env target)) expr)
      t.assigns;
    List.iter
      (fun r -> check_expr ("reg " ^ r.reg_name) (Some r.reg_width) r.next)
      t.regs;
    List.iter
      (fun m ->
        List.iter
          (fun w ->
            check_expr (m.mem_name ^ " write-enable") (Some 1) w.we;
            check_expr (m.mem_name ^ " write-addr") None w.waddr;
            check_expr (m.mem_name ^ " write-data") (Some m.data_width) w.wdata)
          m.writes;
        List.iter
          (fun (rd, addr) -> check_expr (m.mem_name ^ " read " ^ rd) None addr)
          m.reads)
      t.memories;
    (* Instance connection checking. *)
    List.iter
      (fun i ->
        let sub_ins = inputs i.sub and sub_outs = outputs i.sub in
        let expect_all ports conns kind =
          List.iter
            (fun p ->
              if not (List.mem_assoc p.port_name conns) then
                invalid_arg
                  (Printf.sprintf
                     "Circuit %s: instance %s leaves %s port %s unconnected"
                     b.bname i.inst_name kind p.port_name))
            ports;
          List.iter
            (fun (pn, _) ->
              if not (List.exists (fun p -> p.port_name = pn) ports) then
                invalid_arg
                  (Printf.sprintf
                     "Circuit %s: instance %s connects unknown %s port %s"
                     b.bname i.inst_name kind pn))
            conns
        in
        expect_all sub_ins i.in_connections "input";
        expect_all sub_outs
          (List.map (fun (p, w) -> (p, Expr.var w)) i.out_connections)
          "output";
        List.iter
          (fun (pn, e) ->
            let pw =
              match find_port i.sub pn with
              | Some p -> p.port_width
              | None -> assert false
            in
            check_expr
              (Printf.sprintf "instance %s port %s" i.inst_name pn)
              (Some pw) e)
          i.in_connections)
      t.instances;
    t
end
