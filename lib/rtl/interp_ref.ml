(* The original string-keyed evaluation engine, kept verbatim as the
   semantic reference for the tape-compiled {!Interp_tape}.  Every
   signal is looked up by flat name in hashtables and every expression
   tree is re-walked on each evaluation — slow, but simple enough to
   audit.  The differential tests in [test/test_rtl.ml] step both
   engines in lockstep and require identical state.  It shares only the
   {!Flat} types with the fast engine; the flattening and the fault
   transform below are its own.

   Flattening: every signal of every instance becomes a flat signal named
   [prefix ^ signal]; instance boundaries become alias assignments. *)

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

type base = {
  widths : (string, int) Hashtbl.t;
  top_inputs : (string, int) Hashtbl.t;
  regs : flat_reg array;
  mems : flat_mem array;
  values : (string, Bits.t) Hashtbl.t;
  arrays : (string, Bits.t array) Hashtbl.t;
}

let flatten (top : Circuit.t) =
  let widths = Hashtbl.create 256 in
  let assigns = ref [] in
  let regs = ref [] in
  let mems = ref [] in
  let add_width name w =
    if Hashtbl.mem widths name then
      invalid_arg
        (Printf.sprintf "Interp_ref: duplicate flat signal %s" name);
    Hashtbl.add widths name w
  in
  let rec go prefix (c : Circuit.t) =
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
        go sub_prefix i.sub;
        List.iter
          (fun (p, e) -> assigns := (sub_prefix ^ p, rename_expr e) :: !assigns)
          i.in_connections;
        List.iter
          (fun (p, w) -> assigns := (ren w, Expr.Var (sub_prefix ^ p)) :: !assigns)
          i.out_connections)
      c.instances
  in
  go "" top;
  let top_inputs = Hashtbl.create 16 in
  List.iter
    (fun (p : Circuit.port) -> Hashtbl.add top_inputs p.port_name p.port_width)
    (Circuit.inputs top);
  (widths, top_inputs, List.rev !assigns, List.rev !regs, List.rev !mems)

(* Topologically order combinational assignments; memory reads are
   additional combinational nodes (memory contents are state). *)
let schedule assigns (mems : flat_mem list) =
  let nodes = Hashtbl.create 256 in
  (* target -> dependency vars *)
  List.iter
    (fun (tgt, e) -> Hashtbl.replace nodes tgt (Expr.vars e, `Assign e))
    assigns;
  List.iter
    (fun m ->
      List.iter
        (fun (rd, a) -> Hashtbl.replace nodes rd (Expr.vars a, `Memread (m, a)))
        m.fm_reads)
    mems;
  let state = Hashtbl.create 256 in
  (* 0 = unvisited, 1 = in progress, 2 = done *)
  let order = ref [] in
  let rec visit path name =
    match Hashtbl.find_opt nodes name with
    | None -> () (* input, register or constant source: state, not comb *)
    | Some (deps, _) -> (
        match Hashtbl.find_opt state name with
        | Some 2 -> ()
        | Some 1 ->
            (* [path] runs from the node that reads [name] back to the
               root; its part up to [name], reversed, is the cycle in
               dependency order. *)
            let rec cycle acc = function
              | [] -> acc
              | n :: rest ->
                  if n = name then n :: acc else cycle (n :: acc) rest
            in
            invalid_arg
              ("Interp_ref: combinational loop: "
              ^ String.concat " -> " (cycle [ name ] path))
        | Some _ | None ->
            Hashtbl.replace state name 1;
            List.iter (visit (name :: path)) deps;
            Hashtbl.replace state name 2;
            order := name :: !order)
  in
  Hashtbl.iter (fun name _ -> visit [] name) nodes;
  (* [!order] holds the DFS finish order reversed (dependents first);
     [rev_map] restores dependency-first order. *)
  List.rev_map
    (fun name ->
      match Hashtbl.find nodes name with
      | _, `Assign e -> (name, `Assign e)
      | _, `Memread (m, a) -> (name, `Memread (m, a)))
    !order

type sched_node = [ `Assign of Expr.t | `Memread of flat_mem * Expr.t ]

(* Every assignment and register must be exactly as wide as its target:
   evaluation would otherwise store a value of the wrong width without
   complaint.  Generated circuits pass this by construction
   ([Circuit.Builder.finish]); a raw record need not. *)
let check_widths widths assigns regs =
  let env name =
    match Hashtbl.find_opt widths name with
    | Some w -> w
    | None -> invalid_arg ("unknown signal " ^ name)
  in
  let width what e =
    try Expr.width ~env e
    with Invalid_argument msg ->
      invalid_arg (Printf.sprintf "Interp_ref: %s: %s" what msg)
  in
  let expect what want e =
    let w = width what e in
    if w <> want then
      invalid_arg
        (Printf.sprintf
           "Interp_ref: %s: expression width %d does not match target width %d"
           what w want)
  in
  List.iter (fun (tgt, e) -> expect tgt (width tgt (Expr.Var tgt)) e) assigns;
  List.iter
    (fun r ->
      let w = Hashtbl.find widths r.fr_name in
      if Bits.width r.fr_init <> w then
        invalid_arg
          (Printf.sprintf
             "Interp_ref: register %s: init width %d does not match declared \
              width %d"
             r.fr_name (Bits.width r.fr_init) w);
      expect ("next of " ^ r.fr_name) w r.fr_next)
    regs

(* Fault injection over {!Flat.injection} descriptors, implemented
   independently against the string-keyed engine so differential tests
   can hold the faulty simulations of both engines bit-equivalent. *)
type rinj = {
  ri_name : string;
  ri_fault : Flat.fault;
  ri_start : int;
  ri_stop : int; (* exclusive *)
  ri_driven : bool;
}

type sim = {
  base : base;
  sched : (string * sched_node) array;
  mutable cycle : int;
  mutable injections : rinj list;
  active : (string, Flat.fault) Hashtbl.t;
  mutable observers : (int -> unit) list; (* attach order *)
}

let apply_fault (f : Flat.fault) v =
  let w = Bits.width v in
  match f with
  | Flat.Stuck_at_0 -> Bits.zero w
  | Flat.Stuck_at_1 -> Bits.ones w
  | Flat.Flip i ->
      if i < 0 || i >= w then v
      else Bits.logxor v (Bits.shift_left (Bits.of_int ~width:w 1) i)

let faulted sim name v =
  if Hashtbl.length sim.active = 0 then v
  else
    match Hashtbl.find_opt sim.active name with
    | None -> v
    | Some f -> apply_fault f v

let env sim name =
  match Hashtbl.find_opt sim.base.values name with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Interp_ref: unknown signal %s" name)

let settle_sim sim =
  Array.iter
    (fun (name, node) ->
      let v =
        match node with
        | `Assign e -> Expr.eval ~env:(env sim) e
        | `Memread (m, a) ->
            let arr = Hashtbl.find sim.base.arrays m.fm_name in
            let addr = Bits.to_int_trunc (Expr.eval ~env:(env sim) a) in
            if addr < m.fm_depth then arr.(addr) else Bits.zero m.fm_width
      in
      Hashtbl.replace sim.base.values name (faulted sim name v))
    sim.sched

let clock_edge sim =
  (* Sample every next-state value with pre-edge signals, then commit. *)
  let reg_next =
    Array.map
      (fun r -> (r.fr_name, faulted sim r.fr_name (Expr.eval ~env:(env sim) r.fr_next)))
      sim.base.regs
  in
  let mem_ops =
    Array.map
      (fun m ->
        let ops =
          List.filter_map
            (fun (w : Circuit.mem_write) ->
              if Bits.reduce_or (Expr.eval ~env:(env sim) w.we) then
                Some
                  ( Bits.to_int_trunc (Expr.eval ~env:(env sim) w.waddr),
                    Expr.eval ~env:(env sim) w.wdata )
              else None)
            m.fm_writes
        in
        (m, ops))
      sim.base.mems
  in
  Array.iter (fun (n, v) -> Hashtbl.replace sim.base.values n v) reg_next;
  Array.iter
    (fun (m, ops) ->
      let arr = Hashtbl.find sim.base.arrays m.fm_name in
      List.iter
        (fun (addr, data) -> if addr < m.fm_depth then arr.(addr) <- data)
        ops)
    mem_ops

type t = sim

let create top =
  let widths, top_inputs, assigns, regs, mems = flatten top in
  let order = schedule assigns mems in
  check_widths widths assigns regs;
  let values = Hashtbl.create 256 in
  Hashtbl.iter (fun n w -> Hashtbl.replace values n (Bits.zero w)) widths;
  let arrays = Hashtbl.create 8 in
  List.iter
    (fun m ->
      Hashtbl.replace arrays m.fm_name
        (Array.init m.fm_depth (fun i ->
             if i < Array.length m.fm_init then m.fm_init.(i)
             else Bits.zero m.fm_width)))
    mems;
  let base =
    {
      widths;
      top_inputs;
      regs = Array.of_list regs;
      mems = Array.of_list mems;
      values;
      arrays;
    }
  in
  let sim =
    {
      base;
      sched = Array.of_list order;
      cycle = 0;
      injections = [];
      active = Hashtbl.create 8;
      observers = [];
    }
  in
  settle_sim sim;
  sim

let reset sim =
  sim.cycle <- 0;
  Hashtbl.reset sim.active;
  Array.iter
    (fun r -> Hashtbl.replace sim.base.values r.fr_name r.fr_init)
    sim.base.regs;
  Array.iter
    (fun m ->
      let arr = Hashtbl.find sim.base.arrays m.fm_name in
      Array.iteri
        (fun i _ ->
          arr.(i) <-
            (if i < Array.length m.fm_init then m.fm_init.(i)
             else Bits.zero m.fm_width))
        arr)
    sim.base.mems;
  settle_sim sim

let set_input sim name v =
  match Hashtbl.find_opt sim.base.top_inputs name with
  | None ->
      invalid_arg (Printf.sprintf "Interp_ref: %s is not a top input" name)
  | Some w ->
      if Bits.width v <> w then
        invalid_arg
          (Printf.sprintf "Interp_ref: input %s expects width %d, got %d"
             name w (Bits.width v));
      Hashtbl.replace sim.base.values name v

let settle = settle_sim

let refresh_active sim =
  if sim.injections <> [] || Hashtbl.length sim.active > 0 then begin
    Hashtbl.reset sim.active;
    List.iter
      (fun ri ->
        if sim.cycle >= ri.ri_start && sim.cycle < ri.ri_stop then begin
          Hashtbl.replace sim.active ri.ri_name ri.ri_fault;
          if not ri.ri_driven then
            match ri.ri_fault with
            | Flat.Flip _ when sim.cycle > ri.ri_start -> ()
            | f ->
                Hashtbl.replace sim.base.values ri.ri_name
                  (apply_fault f (env sim ri.ri_name))
        end)
      sim.injections
  end

let step sim =
  (* Next-state functions sample the pre-edge combinational values; after
     the edge the combinational logic is re-settled so outputs reflect the
     new state. *)
  refresh_active sim;
  settle_sim sim;
  (* Sampling point: observers see the settled pre-edge values the
     registers are about to latch. *)
  List.iter (fun f -> f sim.cycle) sim.observers;
  clock_edge sim;
  settle_sim sim;
  sim.cycle <- sim.cycle + 1

let run sim n =
  for _ = 1 to n do
    step sim
  done

let peek sim name =
  match Hashtbl.find_opt sim.base.values name with
  | Some v -> v
  | None -> raise Not_found

let peek_int sim name = Bits.to_int_trunc (peek sim name)

let peek_mem sim name addr =
  match Hashtbl.find_opt sim.base.arrays name with
  | None -> raise Not_found
  | Some arr ->
      if addr < 0 || addr >= Array.length arr then
        invalid_arg "Interp_ref.peek_mem: address out of range";
      arr.(addr)

let poke_mem sim name addr v =
  match Hashtbl.find_opt sim.base.arrays name with
  | None -> raise Not_found
  | Some arr ->
      if addr < 0 || addr >= Array.length arr then
        invalid_arg "Interp_ref.poke_mem: address out of range";
      arr.(addr) <- v

let signals sim = Hashtbl.fold (fun n w acc -> (n, w) :: acc) sim.base.widths []

let on_cycle sim f = sim.observers <- sim.observers @ [ f ]

let clear_observers sim = sim.observers <- []

let reader sim name =
  if not (Hashtbl.mem sim.base.values name) then raise Not_found;
  (* [Hashtbl.replace] rebinds in place, so the lookup must happen per
     call; this engine hashes strings everywhere anyway. *)
  fun () -> peek_int sim name

let current_cycle sim = sim.cycle

let inject sim injs =
  let compile_inj (inj : Flat.injection) =
    if not (Hashtbl.mem sim.base.widths inj.Flat.inj_signal) then
      invalid_arg
        (Printf.sprintf "Interp_ref.inject: unknown signal %s"
           inj.Flat.inj_signal);
    if inj.Flat.inj_start < 0 || inj.Flat.inj_cycles < 1 then
      invalid_arg
        (Printf.sprintf "Interp_ref.inject: %s: bad schedule"
           inj.Flat.inj_signal);
    let driven =
      Array.exists (fun (n, _) -> n = inj.Flat.inj_signal) sim.sched
      || Array.exists
           (fun r -> r.fr_name = inj.Flat.inj_signal)
           sim.base.regs
    in
    {
      ri_name = inj.Flat.inj_signal;
      ri_fault = inj.Flat.inj_fault;
      ri_start = inj.Flat.inj_start;
      ri_stop = inj.Flat.inj_start + inj.Flat.inj_cycles;
      ri_driven = driven;
    }
  in
  sim.injections <- sim.injections @ List.map compile_inj injs

let clear_injections sim =
  sim.injections <- [];
  Hashtbl.reset sim.active

(* State snapshots share {!Flat.state} so a checkpoint written by one
   engine can restore the other (the flattening is identical). *)

let by_name (a, _) (b, _) = compare a b

let export_state sim : Flat.state =
  {
    Flat.st_cycle = sim.cycle;
    st_values =
      (let l =
         Hashtbl.fold (fun n v acc -> (n, v) :: acc) sim.base.values []
       in
       let a = Array.of_list l in
       Array.sort by_name a;
       a);
    st_mems =
      (let l =
         Hashtbl.fold
           (fun n arr acc -> (n, Array.copy arr) :: acc)
           sim.base.arrays []
       in
       let a = Array.of_list l in
       Array.sort by_name a;
       a);
  }

let import_state sim (st : Flat.state) =
  if st.Flat.st_cycle < 0 then
    invalid_arg "Interp_ref.import_state: negative cycle";
  if Array.length st.Flat.st_values <> Hashtbl.length sim.base.values then
    invalid_arg
      (Printf.sprintf
         "Interp_ref.import_state: snapshot has %d signals, design has %d"
         (Array.length st.Flat.st_values)
         (Hashtbl.length sim.base.values));
  Array.iter
    (fun (name, v) ->
      match Hashtbl.find_opt sim.base.widths name with
      | None ->
          invalid_arg
            (Printf.sprintf "Interp_ref.import_state: unknown signal %s" name)
      | Some w ->
          if Bits.width v <> w then
            invalid_arg
              (Printf.sprintf
                 "Interp_ref.import_state: %s: snapshot width %d, design \
                  width %d"
                 name (Bits.width v) w);
          Hashtbl.replace sim.base.values name v)
    st.Flat.st_values;
  Array.iter
    (fun (name, words) ->
      match Hashtbl.find_opt sim.base.arrays name with
      | None ->
          invalid_arg
            (Printf.sprintf "Interp_ref.import_state: unknown memory %s" name)
      | Some arr ->
          if Array.length words <> Array.length arr then
            invalid_arg
              (Printf.sprintf
                 "Interp_ref.import_state: memory %s: snapshot depth %d, \
                  design depth %d"
                 name (Array.length words) (Array.length arr));
          Array.blit words 0 arr 0 (Array.length arr))
    st.Flat.st_mems;
  Hashtbl.reset sim.active;
  sim.cycle <- st.Flat.st_cycle

(* In-process marks: a snapshot and its owner.  This engine is the
   oracle, so its mark compares every signal, not only the state. *)

type mark = { mk_owner : sim; mk_state : Flat.state }

let own what sim m =
  if m.mk_owner != sim then
    invalid_arg
      (Printf.sprintf "Interp_ref.%s: the mark was taken on another engine"
         what)

let mark sim = { mk_owner = sim; mk_state = export_state sim }

let rewind sim m =
  own "rewind" sim m;
  import_state sim m.mk_state;
  settle_sim sim

let matches sim m =
  own "matches" sim m;
  let st = export_state sim and mk = m.mk_state in
  let same_named eq (n, v) (n', v') = n = n' && eq v v' in
  st.Flat.st_cycle = mk.Flat.st_cycle
  && Array.for_all2 (same_named Bits.equal) st.Flat.st_values mk.Flat.st_values
  && Array.for_all2
       (same_named (Array.for_all2 Bits.equal))
       st.Flat.st_mems mk.Flat.st_mems
