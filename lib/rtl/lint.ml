type report = { errors : string list; warnings : string list }

let is_clean r = r.errors = []

let reserved = [ "clk"; "rst" ]

let check_circuit (c : Circuit.t) =
  let errors = ref [] and warnings = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
  (* Reserved names. *)
  let all_names =
    List.map (fun (p : Circuit.port) -> p.port_name) c.ports
    @ List.map (fun (w : Circuit.signal) -> w.sig_name) c.wires
    @ List.map (fun (r : Circuit.reg) -> r.reg_name) c.regs
  in
  List.iter
    (fun n ->
      if List.mem n reserved then
        err "%s: signal name %s is reserved for the clock/reset"
          c.circ_name n)
    all_names;
  (* Duplicate instance names. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (i : Circuit.instance) ->
      if Hashtbl.mem seen i.inst_name then
        err "%s: duplicate instance name %s" c.circ_name i.inst_name
      else Hashtbl.add seen i.inst_name ())
    c.instances;
  (* Unread wires: a wire that appears in no expression, no instance input,
     and no memory address/data. *)
  let used = Hashtbl.create 64 in
  let use_expr e = List.iter (fun v -> Hashtbl.replace used v ()) (Expr.vars e) in
  List.iter (fun (a : Circuit.assign) -> use_expr a.expr) c.assigns;
  List.iter (fun (r : Circuit.reg) -> use_expr r.next) c.regs;
  List.iter
    (fun (m : Circuit.memory) ->
      List.iter
        (fun (w : Circuit.mem_write) ->
          use_expr w.we;
          use_expr w.waddr;
          use_expr w.wdata)
        m.writes;
      List.iter (fun (_, a) -> use_expr a) m.reads)
    c.memories;
  List.iter
    (fun (i : Circuit.instance) ->
      List.iter (fun (_, e) -> use_expr e) i.in_connections)
    c.instances;
  List.iter
    (fun (w : Circuit.signal) ->
      if not (Hashtbl.mem used w.sig_name) then
        warn "%s: wire %s drives nothing" c.circ_name w.sig_name)
    c.wires;
  (!errors, !warnings)

(* The rules the tape compiler enforces, checked on the flat design
   without compiling a tape, allocating memory words or settling:
   flattening (no duplicate flat signals), one levelization of the
   combinational graph (no loops), and one pass over the flat
   expressions (every variable declared, every assignment and register
   as wide as its target).  Raises with the first error found. *)
let check_flat top =
  let d = Flat.flatten top in
  ignore (Flat.levelize d);
  let env name =
    match Hashtbl.find_opt d.Flat.d_slots name with
    | Some s -> d.Flat.d_widths.(s)
    | None -> invalid_arg ("unknown flat signal " ^ name)
  in
  let width what e =
    try Expr.width ~env e
    with Invalid_argument msg ->
      invalid_arg (Printf.sprintf "Lint: %s: %s" what msg)
  in
  let expect what want e =
    let w = width what e in
    if w <> want then
      invalid_arg
        (Printf.sprintf
           "Lint: %s: expression width %d does not match target width %d"
           what w want)
  in
  List.iter
    (fun (tgt, e) -> expect tgt (width tgt (Expr.Var tgt)) e)
    d.Flat.d_assigns;
  List.iter
    (fun (r : Flat.flat_reg) ->
      let w = env r.fr_name in
      if Bits.width r.fr_init <> w then
        invalid_arg
          (Printf.sprintf
             "Lint: register %s: init width %d does not match declared \
              width %d"
             r.fr_name (Bits.width r.fr_init) w);
      expect ("next of " ^ r.fr_name) w r.fr_next)
    d.Flat.d_regs;
  List.iter
    (fun (m : Flat.flat_mem) ->
      let what = m.fm_name ^ " write" in
      List.iter
        (fun (w : Circuit.mem_write) ->
          List.iter (fun e -> ignore (width what e)) [ w.we; w.waddr; w.wdata ])
        m.fm_writes;
      List.iter (fun (rd, a) -> ignore (width rd a)) m.fm_reads)
    d.Flat.d_mems

let check top =
  let errors = ref [] and warnings = ref [] in
  let collect c =
    let e, w = check_circuit c in
    errors := e @ !errors;
    warnings := w @ !warnings
  in
  (try
     let subs = Circuit.sub_circuits top in
     List.iter collect subs
   with Invalid_argument msg -> errors := msg :: !errors);
  collect top;
  (try check_flat top with Invalid_argument msg -> errors := msg :: !errors);
  { errors = List.rev !errors; warnings = List.rev !warnings }

let pp_report fmt r =
  List.iter (fun e -> Format.fprintf fmt "error: %s@." e) r.errors;
  List.iter (fun w -> Format.fprintf fmt "warning: %s@." w) r.warnings
