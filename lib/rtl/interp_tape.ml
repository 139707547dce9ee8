(* Tape-compiled evaluation engine with activity-based scheduling.

   [create] flattens the levelized schedule into one flat linear tape
   of pre-decoded ops: an int opcode plus up to four int operands per
   op, stored in parallel [int array]s.  The interpreter loop is a
   single [match] over an int — no closure dispatch, no
   expression-tree traversal, and for signals of width <= 62 bits (the
   dominant case in generated bus fabrics) no [Bits.t] boxing either:
   small values live unboxed in an [int array] and the ALU cases
   operate on them directly with the same mask discipline as {!Bits}.
   Wide signals and corner-case ops fall back to [call] ops that
   invoke a closure over the exact {!Bits} operations, so the engine
   inherits the reference semantics (including error behavior)
   wherever the inline transcription would not be exactly faithful.

   On top of the tape sits activity-based evaluation: a slot -> fanout
   map (in CSR form) is built at compile time.  When a register
   commit, [set_input], memory write or fault transform changes a
   value, only the dependent schedule nodes are marked dirty (bucketed
   by level) and re-evaluated, level by level; combinational cones
   whose inputs did not change are skipped entirely.  With faults
   active the engine falls back to full re-evaluation in schedule
   order, the semantics {!Interp_ref} specifies.

   The tape reads {!Flat.flatten}'s design: its slots are the first
   cells and its name -> slot and input tables are the tape's own, so
   the flat-name universe, slot numbering and {!Flat.state} snapshot
   layout are fixed there; snapshots interchange freely with
   {!Interp_ref}.  The schedule comes from {!Flat.levelize}, the graph
   {!Lint} checks. *)

let small_limit = 62

(* Mask covering [w] low bits, valid for 1 <= w <= 62 (same wraparound
   trick as [Bits.smask]). *)
let smask w = (1 lsl w) - 1

(* ------------------------------------------------------------------ *)
(* Opcodes                                                             *)
(* ------------------------------------------------------------------ *)

(* Small (unboxed int) ops read/write [ivals]; [mov_w] reads/writes
   [bvals]; [call] dispatches to a closure.  Operand meaning per op is
   documented at the emit site and in the [exec] match arms. *)
let op_mov = 0
let op_and = 1
let op_or = 2
let op_xor = 3
let op_not = 4
let op_add = 5
let op_sub = 6
let op_mul = 7
let op_smul = 8
let op_eq = 9
let op_neq = 10
let op_ult = 11
let op_ule = 12
let op_red_or = 13
let op_red_and = 14
let op_red_xor = 15
let op_mux = 16
let op_select = 17
let op_cat = 18
let op_shl = 19
let op_shr = 20
let op_memread = 21
let op_call = 22
let op_mov_w = 23

(* ------------------------------------------------------------------ *)
(* Compile-time builder                                                *)
(* ------------------------------------------------------------------ *)

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a' = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a' 0 v.n;
      v.a <- a'
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let length v = v.n
  let to_array v = Array.sub v.a 0 v.n
end

(* A call spec is instantiated into a [unit -> unit] thunk once the
   value arrays exist. *)
type call_spec = int array -> Bits.t array -> unit -> unit

type builder = {
  b_widths : Ivec.t; (* cell -> width *)
  c_code : Ivec.t;
  c_dst : Ivec.t;
  c_a : Ivec.t;
  c_b : Ivec.t;
  c_c : Ivec.t;
  c_m : Ivec.t;
  mutable b_calls : call_spec list; (* newest first *)
  mutable b_ncalls : int;
  mutable b_consts : (int * Bits.t) list; (* cell -> prefilled value *)
}

let builder () =
  {
    b_widths = Ivec.create ();
    c_code = Ivec.create ();
    c_dst = Ivec.create ();
    c_a = Ivec.create ();
    c_b = Ivec.create ();
    c_c = Ivec.create ();
    c_m = Ivec.create ();
    b_calls = [];
    b_ncalls = 0;
    b_consts = [];
  }

let new_cell b w =
  let c = Ivec.length b.b_widths in
  Ivec.push b.b_widths w;
  c

let cell_w b c = Ivec.get b.b_widths c
let cell_small b c = cell_w b c <= small_limit

let emit b code dst a b_ c m =
  Ivec.push b.c_code code;
  Ivec.push b.c_dst dst;
  Ivec.push b.c_a a;
  Ivec.push b.c_b b_;
  Ivec.push b.c_c c;
  Ivec.push b.c_m m

(* Accessors used by [call] closures: the cell's representation is
   fixed at compile time, the array binding at instantiation time. *)
let getter b c : int array -> Bits.t array -> unit -> Bits.t =
  let w = cell_w b c in
  if w <= small_limit then fun iv _bv () -> Bits.of_int ~width:w iv.(c)
  else fun _iv bv () -> bv.(c)

let setter b c : int array -> Bits.t array -> Bits.t -> unit =
  let w = cell_w b c in
  if w <= small_limit then fun iv _bv v -> iv.(c) <- Bits.to_int_trunc v
  else fun _iv bv v -> bv.(c) <- v

let emit_call b dst spec =
  let idx = b.b_ncalls in
  b.b_calls <- spec :: b.b_calls;
  b.b_ncalls <- idx + 1;
  emit b op_call dst idx 0 0 0

let const_cell b v =
  let c = new_cell b (Bits.width v) in
  b.b_consts <- (c, v) :: b.b_consts;
  c

let width_err what rw wd =
  invalid_arg
    (Printf.sprintf
       "Interp_tape: %s: expression width %d does not match target width %d"
       what rw wd)

(* Emit a move [dst <- src] (same width both sides). *)
let emit_move b dst src =
  if cell_small b dst then emit b op_mov dst src 0 0 0
  else emit b op_mov_w dst src 0 0 0

(* Compile [e], leaving its value in the returned cell.  [var] resolves
   signal leaves to their cells.  With [dsto = Some d] the result is
   forced into [d], whose declared width must match the expression's —
   generated circuits are width-correct, and a mismatch here is a
   create-time error rather than a silent truncation.  Operators whose
   inline int transcription would not be exactly {!Bits}-faithful
   (wide operands, out-of-range selects, negative shifts, mismatched
   widths) are emitted as [call] ops over the real {!Bits} functions,
   preserving both values and error behavior. *)
let rec comp_to b ~var ~what dsto (e : Expr.t) : int =
  let target rw =
    match dsto with
    | None -> new_cell b rw
    | Some d ->
        if cell_w b d <> rw then width_err what rw (cell_w b d);
        d
  in
  let comp e = comp_to b ~var ~what None e in
  let call1 dst f a =
    let ga = getter b a and set = setter b dst in
    emit_call b dst (fun iv bv ->
        let ga = ga iv bv in
        fun () -> set iv bv (f (ga ())))
  in
  let call2 dst f a c =
    let ga = getter b a and gc = getter b c and set = setter b dst in
    emit_call b dst (fun iv bv ->
        let ga = ga iv bv and gc = gc iv bv in
        fun () -> set iv bv (f (ga ()) (gc ())))
  in
  match e with
  | Expr.Var v -> (
      let s = var v in
      match dsto with
      | None -> s
      | Some d ->
          let wd = cell_w b d and ws = cell_w b s in
          if wd <> ws then width_err what ws wd;
          emit_move b d s;
          d)
  | Expr.Const v -> (
      match dsto with
      | None -> const_cell b v
      | Some d ->
          if cell_w b d <> Bits.width v then
            width_err what (Bits.width v) (cell_w b d);
          emit_move b d (const_cell b v);
          d)
  | Expr.Select (e0, hi, lo) ->
      let a = comp e0 in
      let wa = cell_w b a in
      if lo < 0 || hi < lo || hi >= wa then begin
        (* [Bits.select] raises at evaluation; keep its exact behavior
           (the error surfaces during [create]'s initial settle, as it
           does in the other engines). *)
        let d = target (max 1 (hi - lo + 1)) in
        call1 d (fun v -> Bits.select v hi lo) a;
        d
      end
      else begin
        let rw = hi - lo + 1 in
        let d = target rw in
        if cell_small b a then emit b op_select d a lo 0 (smask rw)
        else call1 d (fun v -> Bits.select v hi lo) a;
        d
      end
  | Expr.Concat [] -> invalid_arg "Interp_tape: empty concat"
  | Expr.Concat [ e0 ] -> comp_to b ~var ~what dsto e0
  | Expr.Concat (e0 :: rest) ->
      (* MSB-first fold, like the other engines: acc = concat acc next. *)
      let first = comp e0 in
      let cells = List.map comp rest in
      let rec chain acc = function
        | [] -> acc
        | c :: tl ->
            let wa = cell_w b acc and wc = cell_w b c in
            let rw = wa + wc in
            let d = match tl with [] -> target rw | _ -> new_cell b rw in
            if rw <= small_limit && cell_small b acc && cell_small b c then
              emit b op_cat d acc c wc 0
            else call2 d Bits.concat acc c;
            chain d tl
      in
      chain first cells
  | Expr.Unop (op, e0) -> (
      let a = comp e0 in
      let wa = cell_w b a in
      let small = wa <= small_limit in
      match op with
      | Expr.Not ->
          let d = target wa in
          if small then emit b op_not d a 0 0 (smask wa)
          else call1 d Bits.lognot a;
          d
      | Expr.Reduce_or ->
          let d = target 1 in
          if small then emit b op_red_or d a 0 0 0
          else call1 d (fun v -> Bits.of_bool (Bits.reduce_or v)) a;
          d
      | Expr.Reduce_and ->
          let d = target 1 in
          if small then emit b op_red_and d a 0 0 (smask wa)
          else call1 d (fun v -> Bits.of_bool (Bits.reduce_and v)) a;
          d
      | Expr.Reduce_xor ->
          let d = target 1 in
          if small then emit b op_red_xor d a 0 0 0
          else call1 d (fun v -> Bits.of_bool (Bits.reduce_xor v)) a;
          d)
  | Expr.Binop (op, ea, eb) -> (
      let a = comp ea and c = comp eb in
      let wa = cell_w b a and wb = cell_w b c in
      let both_small = wa <= small_limit && wb <= small_limit in
      let same_small = both_small && wa = wb in
      let logical code f =
        let d = target wa in
        if same_small then emit b code d a c 0 0 else call2 d f a c;
        d
      in
      let arith code f =
        let d = target wa in
        if same_small then emit b code d a c 0 (smask wa) else call2 d f a c;
        d
      in
      (* [Bits.equal] is width-sensitive (mismatched widths compare
         unequal without raising); ult/ule are plain numeric compares
         for small values regardless of width. *)
      let cmp code inline f =
        let d = target 1 in
        if inline then emit b code d a c 0 0
        else call2 d (fun x y -> Bits.of_bool (f x y)) a c;
        d
      in
      match op with
      | Expr.And -> logical op_and Bits.logand
      | Expr.Or -> logical op_or Bits.logor
      | Expr.Xor -> logical op_xor Bits.logxor
      | Expr.Add -> arith op_add Bits.add
      | Expr.Sub -> arith op_sub Bits.sub
      | Expr.Mul ->
          let rw = wa + wb in
          let d = target rw in
          if rw <= small_limit then emit b op_mul d a c 0 0
          else call2 d Bits.mul a c;
          d
      | Expr.Smul ->
          let rw = wa + wb in
          let d = target rw in
          if rw <= small_limit then
            emit b op_smul d a c ((wa lsl 8) lor wb) (smask rw)
          else call2 d Bits.smul a c;
          d
      | Expr.Eq -> cmp op_eq same_small Bits.equal
      | Expr.Neq -> cmp op_neq same_small (fun x y -> not (Bits.equal x y))
      | Expr.Ult -> cmp op_ult both_small Bits.ult
      | Expr.Ule -> cmp op_ule both_small Bits.ule)
  | Expr.Mux (ec, ea, eb) ->
      let c = comp ec and a = comp ea and e_ = comp eb in
      let wa = cell_w b a and wb = cell_w b e_ in
      if wa <> wb then width_err what wb wa;
      let d = target wa in
      if cell_small b c && cell_small b a && cell_small b e_ then
        emit b op_mux d c a e_ 0
      else begin
        let gc = getter b c
        and ga = getter b a
        and gb = getter b e_
        and set = setter b d in
        emit_call b d (fun iv bv ->
            let gc = gc iv bv and ga = ga iv bv and gb = gb iv bv in
            fun () ->
              set iv bv (if Bits.reduce_or (gc ()) then ga () else gb ()))
      end;
      d
  | Expr.Shift_left (e0, k) ->
      let a = comp e0 in
      let wa = cell_w b a in
      let d = target wa in
      if k < 0 || wa > small_limit then call1 d (fun v -> Bits.shift_left v k) a
      else if k >= wa then emit_move b d (const_cell b (Bits.zero wa))
      else emit b op_shl d a k 0 (smask wa);
      d
  | Expr.Shift_right (e0, k) ->
      let a = comp e0 in
      let wa = cell_w b a in
      let d = target wa in
      if k < 0 || wa > small_limit then
        call1 d (fun v -> Bits.shift_right v k) a
      else if k >= wa then emit_move b d (const_cell b (Bits.zero wa))
      else emit b op_shr d a k 0 0;
      d

(* ------------------------------------------------------------------ *)
(* Runtime state                                                       *)
(* ------------------------------------------------------------------ *)

type twrite = { tw_we : int; tw_addr : int; tw_data : int } (* cells *)

type tmem = {
  tm_name : string;
  tm_width : int;
  tm_depth : int;
  tm_init : Bits.t array;
  tm_arr : Bits.t array;
  tm_writes : twrite array;
  tm_index : int;
}

type treg = { tr_slot : int; tr_init : Bits.t; tr_next : int (* cell *) }

type cinj = {
  ci_slot : int;
  ci_fault : Flat.fault;
  ci_start : int;
  ci_stop : int; (* exclusive *)
  ci_driven : bool;
}

type t = {
  slots : (string, int) Hashtbl.t;
  names : string array; (* slot -> flat name *)
  top_inputs : (string, int) Hashtbl.t;
  n_sig : int;
  (* Cells: [0, n_sig) are the flat signals in declaration order;
     higher indices are constants, register-next values, memory-port
     samples and expression temporaries. *)
  widths : int array;
  wide : bool array;
  ivals : int array; (* small cells, masked to width *)
  bvals : Bits.t array; (* wide cells *)
  (* The tape. *)
  code : int array;
  o_dst : int array;
  o_a : int array;
  o_b : int array;
  o_c : int array;
  o_m : int array;
  calls : (unit -> unit) array;
  comb_hi : int; (* ops [0, comb_hi) = levelized combinational schedule *)
  edge_lo : int;
  edge_hi : int; (* ops [edge_lo, edge_hi) = pre-edge sampling *)
  (* Schedule nodes (one per combinational target, in level order). *)
  node_slot : int array;
  node_lo : int array;
  node_hi : int array;
  node_level : int array;
  (* slot -> dependent nodes, CSR. *)
  fan_off : int array;
  fan_nodes : int array;
  (* memory index -> read-port nodes, CSR. *)
  mem_fan_off : int array;
  mem_fan_nodes : int array;
  regs : treg array;
  mems : tmem array;
  mem_arrs : Bits.t array array;
  arrays : (string, Bits.t array) Hashtbl.t;
  mem_index : (string, int) Hashtbl.t;
  driven : bool array;
  (* The state a mark holds besides the memories: every register slot
     and every undriven slot (top inputs, floating wires), split by
     representation.  The combinational cells are functions of these. *)
  state_small : int array;
  state_wide : int array;
  (* Per memory: a change counter, bumped by every path that writes a
     word, and the last copy handed to a mark (in chunks, see [mark])
     with the counter it was taken at.  Marks share that copy until the
     counter moves. *)
  mem_gen : int array;
  mem_copy : Bits.t array array array;
  mem_copy_gen : int array;
  (* Dirty-node machinery: one bucket per level. *)
  buckets : int array array;
  bucket_len : int array;
  node_dirty : bool array;
  mutable have_dirty : bool;
  mutable all_dirty : bool;
  mutable cycle : int;
  mutable injections : cinj array;
  mutable inj_pending : cinj list; (* newest first *)
  active : (int, Flat.fault) Hashtbl.t;
  mutable n_active : int;
  mutable observers : (int -> unit) array;
  mutable obs_pending : (int -> unit) list; (* newest first *)
}

let get_cell t c =
  if t.wide.(c) then t.bvals.(c)
  else Bits.of_int ~width:t.widths.(c) t.ivals.(c)

let set_cell t c v =
  if t.wide.(c) then t.bvals.(c) <- v else t.ivals.(c) <- Bits.to_int_trunc v

let cell_truthy t c =
  if t.wide.(c) then Bits.reduce_or t.bvals.(c) else t.ivals.(c) <> 0

let cell_trunc t c =
  if t.wide.(c) then Bits.to_int_trunc t.bvals.(c) else t.ivals.(c)

(* ------------------------------------------------------------------ *)
(* The interpreter loop                                                *)
(* ------------------------------------------------------------------ *)

let exec t lo hi =
  let code = t.code
  and od = t.o_dst
  and oa = t.o_a
  and ob = t.o_b
  and oc = t.o_c
  and om = t.o_m in
  let iv = t.ivals and bv = t.bvals in
  for i = lo to hi - 1 do
    let dst = Array.unsafe_get od i in
    let a = Array.unsafe_get oa i in
    match Array.unsafe_get code i with
    | 0 (* mov *) -> Array.unsafe_set iv dst (Array.unsafe_get iv a)
    | 1 (* and *) ->
        Array.unsafe_set iv dst
          (Array.unsafe_get iv a
          land Array.unsafe_get iv (Array.unsafe_get ob i))
    | 2 (* or *) ->
        Array.unsafe_set iv dst
          (Array.unsafe_get iv a
          lor Array.unsafe_get iv (Array.unsafe_get ob i))
    | 3 (* xor *) ->
        Array.unsafe_set iv dst
          (Array.unsafe_get iv a
          lxor Array.unsafe_get iv (Array.unsafe_get ob i))
    | 4 (* not *) ->
        Array.unsafe_set iv dst
          (lnot (Array.unsafe_get iv a) land Array.unsafe_get om i)
    | 5 (* add *) ->
        Array.unsafe_set iv dst
          ((Array.unsafe_get iv a + Array.unsafe_get iv (Array.unsafe_get ob i))
          land Array.unsafe_get om i)
    | 6 (* sub *) ->
        Array.unsafe_set iv dst
          ((Array.unsafe_get iv a - Array.unsafe_get iv (Array.unsafe_get ob i))
          land Array.unsafe_get om i)
    | 7 (* mul: result width = wa + wb <= 62, so the product fits *) ->
        Array.unsafe_set iv dst
          (Array.unsafe_get iv a * Array.unsafe_get iv (Array.unsafe_get ob i))
    | 8 (* smul: c = (wa lsl 8) lor wb; sign-extend, multiply, mask *) ->
        let spec = Array.unsafe_get oc i in
        let wa = spec lsr 8 and wb = spec land 0xFF in
        let va = Array.unsafe_get iv a in
        let vb = Array.unsafe_get iv (Array.unsafe_get ob i) in
        let sa = if (va lsr (wa - 1)) land 1 = 1 then va - (1 lsl wa) else va in
        let sb = if (vb lsr (wb - 1)) land 1 = 1 then vb - (1 lsl wb) else vb in
        Array.unsafe_set iv dst (sa * sb land Array.unsafe_get om i)
    | 9 (* eq *) ->
        Array.unsafe_set iv dst
          (if
             Array.unsafe_get iv a = Array.unsafe_get iv (Array.unsafe_get ob i)
           then 1
           else 0)
    | 10 (* neq *) ->
        Array.unsafe_set iv dst
          (if
             Array.unsafe_get iv a = Array.unsafe_get iv (Array.unsafe_get ob i)
           then 0
           else 1)
    | 11 (* ult *) ->
        Array.unsafe_set iv dst
          (if
             Array.unsafe_get iv a < Array.unsafe_get iv (Array.unsafe_get ob i)
           then 1
           else 0)
    | 12 (* ule *) ->
        Array.unsafe_set iv dst
          (if
             Array.unsafe_get iv a
             <= Array.unsafe_get iv (Array.unsafe_get ob i)
           then 1
           else 0)
    | 13 (* red_or *) ->
        Array.unsafe_set iv dst (if Array.unsafe_get iv a <> 0 then 1 else 0)
    | 14 (* red_and: m = mask of the operand width *) ->
        Array.unsafe_set iv dst
          (if Array.unsafe_get iv a = Array.unsafe_get om i then 1 else 0)
    | 15 (* red_xor *) ->
        let v = Array.unsafe_get iv a in
        let x = v lxor (v lsr 32) in
        let x = x lxor (x lsr 16) in
        let x = x lxor (x lsr 8) in
        let x = x lxor (x lsr 4) in
        let x = x lxor (x lsr 2) in
        let x = x lxor (x lsr 1) in
        Array.unsafe_set iv dst (x land 1)
    | 16 (* mux: a = cond, b = then, c = else *) ->
        Array.unsafe_set iv dst
          (if Array.unsafe_get iv a <> 0 then
             Array.unsafe_get iv (Array.unsafe_get ob i)
           else Array.unsafe_get iv (Array.unsafe_get oc i))
    | 17 (* select: b = lo, m = mask of the result width *) ->
        Array.unsafe_set iv dst
          ((Array.unsafe_get iv a lsr Array.unsafe_get ob i)
          land Array.unsafe_get om i)
    | 18 (* cat: a = high, b = low, c = width of low *) ->
        Array.unsafe_set iv dst
          ((Array.unsafe_get iv a lsl Array.unsafe_get oc i)
          lor Array.unsafe_get iv (Array.unsafe_get ob i))
    | 19 (* shl: b = count, m = mask *) ->
        Array.unsafe_set iv dst
          ((Array.unsafe_get iv a lsl Array.unsafe_get ob i)
          land Array.unsafe_get om i)
    | 20 (* shr: b = count *) ->
        Array.unsafe_set iv dst
          (Array.unsafe_get iv a lsr Array.unsafe_get ob i)
    | 21 (* memread: a = addr cell, b = memory index, c = depth *) ->
        let addr = Array.unsafe_get iv a in
        Array.unsafe_set iv dst
          (if addr < Array.unsafe_get oc i then
             Bits.to_int_trunc
               (Array.unsafe_get
                  (Array.unsafe_get t.mem_arrs (Array.unsafe_get ob i))
                  addr)
           else 0)
    | 22 (* call *) -> (Array.unsafe_get t.calls a) ()
    | _ (* mov_w *) -> Array.unsafe_set bv dst (Array.unsafe_get bv a)
  done

(* ------------------------------------------------------------------ *)
(* Dirty-set machinery                                                 *)
(* ------------------------------------------------------------------ *)

let mark_node t nd =
  if not t.node_dirty.(nd) then begin
    t.node_dirty.(nd) <- true;
    let lev = t.node_level.(nd) in
    let bk = t.buckets.(lev) in
    bk.(t.bucket_len.(lev)) <- nd;
    t.bucket_len.(lev) <- t.bucket_len.(lev) + 1
  end

let dirty_fanout t s =
  let lo = t.fan_off.(s) and hi = t.fan_off.(s + 1) in
  if lo < hi then begin
    t.have_dirty <- true;
    for k = lo to hi - 1 do
      mark_node t t.fan_nodes.(k)
    done
  end

let dirty_mem_fanout t mi =
  let lo = t.mem_fan_off.(mi) and hi = t.mem_fan_off.(mi + 1) in
  if lo < hi then begin
    t.have_dirty <- true;
    for k = lo to hi - 1 do
      mark_node t t.mem_fan_nodes.(k)
    done
  end

let eval_node t nd =
  let s = t.node_slot.(nd) in
  if t.wide.(s) then begin
    let old = t.bvals.(s) in
    exec t t.node_lo.(nd) t.node_hi.(nd);
    if not (Bits.equal old t.bvals.(s)) then dirty_fanout t s
  end
  else begin
    let old = t.ivals.(s) in
    exec t t.node_lo.(nd) t.node_hi.(nd);
    if t.ivals.(s) <> old then dirty_fanout t s
  end

let clear_dirty t =
  if t.have_dirty then begin
    for lev = 0 to Array.length t.bucket_len - 1 do
      let len = t.bucket_len.(lev) in
      if len > 0 then begin
        let bk = t.buckets.(lev) in
        for i = 0 to len - 1 do
          t.node_dirty.(bk.(i)) <- false
        done;
        t.bucket_len.(lev) <- 0
      end
    done;
    t.have_dirty <- false
  end

(* A producer always has a strictly lower level than its consumers, so
   an ascending level sweep is exhaustive: marks generated while
   processing level L land in buckets above L only. *)
let settle_dirty t =
  for lev = 0 to Array.length t.bucket_len - 1 do
    let len = t.bucket_len.(lev) in
    if len > 0 then begin
      let bk = t.buckets.(lev) in
      for i = 0 to len - 1 do
        let nd = bk.(i) in
        t.node_dirty.(nd) <- false;
        eval_node t nd
      done;
      t.bucket_len.(lev) <- 0
    end
  done;
  t.have_dirty <- false

(* Full re-evaluation with fault transforms: every node in schedule
   order, transform after. *)
let settle_full_faulty t =
  for nd = 0 to Array.length t.node_slot - 1 do
    exec t t.node_lo.(nd) t.node_hi.(nd);
    let s = t.node_slot.(nd) in
    match Hashtbl.find_opt t.active s with
    | None -> ()
    | Some f -> set_cell t s (Flat.apply_fault f (get_cell t s))
  done

let settle t =
  if t.n_active > 0 then begin
    clear_dirty t;
    settle_full_faulty t;
    (* Faulted values overwrote parts of the network: recompute
       everything once the faults lift. *)
    t.all_dirty <- true
  end
  else if t.all_dirty then begin
    clear_dirty t;
    exec t 0 t.comb_hi;
    t.all_dirty <- false
  end
  else if t.have_dirty then settle_dirty t

(* ------------------------------------------------------------------ *)
(* Clock edge                                                          *)
(* ------------------------------------------------------------------ *)

let bump_mem t mi = t.mem_gen.(mi) <- t.mem_gen.(mi) + 1

let clock_edge t =
  (* Sample every register next and memory port with pre-edge values
     (their target cells are private, so the tape segment cannot
     disturb the pre-edge signal values), then commit. *)
  exec t t.edge_lo t.edge_hi;
  let regs = t.regs in
  if t.n_active > 0 then
    for i = 0 to Array.length regs - 1 do
      let r = Array.unsafe_get regs i in
      match Hashtbl.find_opt t.active r.tr_slot with
      | None -> ()
      | Some f ->
          set_cell t r.tr_next (Flat.apply_fault f (get_cell t r.tr_next))
    done;
  for i = 0 to Array.length regs - 1 do
    let r = Array.unsafe_get regs i in
    let s = r.tr_slot and nc = r.tr_next in
    if t.wide.(s) then begin
      let v = t.bvals.(nc) in
      if not (Bits.equal t.bvals.(s) v) then begin
        t.bvals.(s) <- v;
        dirty_fanout t s
      end
    end
    else begin
      let v = t.ivals.(nc) in
      if t.ivals.(s) <> v then begin
        t.ivals.(s) <- v;
        dirty_fanout t s
      end
    end
  done;
  Array.iter
    (fun m ->
      let touched = ref false in
      Array.iter
        (fun w ->
          if cell_truthy t w.tw_we then begin
            let addr = cell_trunc t w.tw_addr in
            if addr < m.tm_depth then begin
              let data = get_cell t w.tw_data in
              if not (Bits.equal m.tm_arr.(addr) data) then begin
                m.tm_arr.(addr) <- data;
                touched := true
              end
            end
          end)
        m.tm_writes;
      if !touched then begin
        dirty_mem_fanout t m.tm_index;
        bump_mem t m.tm_index
      end)
    t.mems

(* ------------------------------------------------------------------ *)
(* Observers / injections: O(1) registration, lazy materialization     *)
(* ------------------------------------------------------------------ *)

let materialize_observers t =
  (match t.obs_pending with
  | [] -> ()
  | pending ->
      t.observers <-
        Array.append t.observers (Array.of_list (List.rev pending));
      t.obs_pending <- []);
  t.observers

let materialize_injections t =
  match t.inj_pending with
  | [] -> ()
  | pending ->
      t.injections <-
        Array.append t.injections (Array.of_list (List.rev pending));
      t.inj_pending <- []

let refresh_active t =
  materialize_injections t;
  if Array.length t.injections > 0 || t.n_active > 0 then begin
    let was_active = t.n_active > 0 in
    Hashtbl.reset t.active;
    t.n_active <- 0;
    Array.iter
      (fun ci ->
        if t.cycle >= ci.ci_start && t.cycle < ci.ci_stop then begin
          Hashtbl.replace t.active ci.ci_slot ci.ci_fault;
          t.n_active <- t.n_active + 1;
          if not ci.ci_driven then begin
            match ci.ci_fault with
            | Flat.Flip _ when t.cycle > ci.ci_start -> ()
            | f ->
                let s = ci.ci_slot in
                set_cell t s (Flat.apply_fault f (get_cell t s));
                dirty_fanout t s
          end
        end)
      t.injections;
    if t.n_active > 0 || was_active then t.all_dirty <- true
  end

let step t =
  refresh_active t;
  settle t;
  (* Sampling point: observers see the settled pre-edge values, faults
     included — same as {!Interp_ref}. *)
  (let obs = materialize_observers t in
   if Array.length obs > 0 then
     for i = 0 to Array.length obs - 1 do
       (Array.unsafe_get obs i) t.cycle
     done);
  clock_edge t;
  settle t;
  t.cycle <- t.cycle + 1

let run t n =
  for _ = 1 to n do
    step t
  done

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create top =
  let d = Flat.flatten top in
  let n_sig = Array.length d.Flat.d_names in
  let b = builder () in
  (* Cells [0, n_sig): one per flat signal, in slot order. *)
  Array.iter (fun w -> ignore (new_cell b w)) d.Flat.d_widths;
  let slot name =
    match Hashtbl.find_opt d.Flat.d_slots name with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "Interp_tape: unknown signal %s" name)
  in
  (* Memory storage (allocated before compilation so memread [call]
     fallbacks can capture the arrays directly). *)
  let arrays = Hashtbl.create 8 in
  let mem_index = Hashtbl.create 8 in
  let fmems_arr = Array.of_list d.Flat.d_mems in
  let n_mems = Array.length fmems_arr in
  let mem_arrs =
    Array.map
      (fun (m : Flat.flat_mem) ->
        let arr =
          Array.init m.fm_depth (fun i ->
              if i < Array.length m.fm_init then m.fm_init.(i)
              else Bits.zero m.fm_width)
        in
        Hashtbl.replace arrays m.fm_name arr;
        arr)
      fmems_arr
  in
  Array.iteri
    (fun i (m : Flat.flat_mem) -> Hashtbl.replace mem_index m.fm_name i)
    fmems_arr;
  (* Levelize combinational assignments plus memory read ports as one
     dependency graph over flat names. *)
  let node_bodies = Hashtbl.create (2 * List.length d.Flat.d_assigns) in
  List.iter
    (fun (tgt, e) -> Hashtbl.replace node_bodies tgt (`Assign e))
    d.Flat.d_assigns;
  Array.iteri
    (fun mi (m : Flat.flat_mem) ->
      List.iter
        (fun (rd, a) -> Hashtbl.replace node_bodies rd (`Memread (mi, a)))
        m.fm_reads)
    fmems_arr;
  let nodes = Array.of_list (Flat.levelize d) in
  let n_nodes = Array.length nodes in
  let node_slot = Array.make (max 1 n_nodes) 0 in
  let node_lo = Array.make (max 1 n_nodes) 0 in
  let node_hi = Array.make (max 1 n_nodes) 0 in
  let node_level = Array.make (max 1 n_nodes) 0 in
  let node_vars = Array.make (max 1 n_nodes) [] in
  let node_mem = Array.make (max 1 n_nodes) (-1) in
  Array.iteri
    (fun i (name, level) ->
      node_lo.(i) <- Ivec.length b.c_code;
      (match Hashtbl.find node_bodies name with
      | `Assign e ->
          ignore (comp_to b ~var:slot ~what:name (Some (slot name)) e);
          node_vars.(i) <- Expr.vars e
      | `Memread (mi, a) ->
          let m = fmems_arr.(mi) in
          let addr = comp_to b ~var:slot ~what:name None a in
          let d = slot name in
          if cell_w b d <> m.fm_width then width_err name m.fm_width (cell_w b d);
          if cell_small b addr && m.fm_width <= small_limit then
            emit b op_memread d addr mi m.fm_depth 0
          else begin
            let ga = getter b addr and set = setter b d in
            let arr = mem_arrs.(mi) in
            let depth = m.fm_depth in
            let z = Bits.zero m.fm_width in
            emit_call b d (fun iv bv ->
                let ga = ga iv bv in
                fun () ->
                  let a = Bits.to_int_trunc (ga ()) in
                  set iv bv (if a < depth then arr.(a) else z))
          end;
          node_vars.(i) <- Expr.vars a;
          node_mem.(i) <- mi);
      node_hi.(i) <- Ivec.length b.c_code;
      node_slot.(i) <- slot name;
      node_level.(i) <- level)
    nodes;
  let comb_hi = Ivec.length b.c_code in
  (* Clock-edge sampling segment: register nexts, then memory ports. *)
  let edge_lo = comb_hi in
  let regs =
    Array.of_list
      (List.map
         (fun (r : Flat.flat_reg) ->
           let s = slot r.fr_name in
           let w = cell_w b s in
           if Bits.width r.fr_init <> w then
             invalid_arg
               (Printf.sprintf
                  "Interp_tape: register %s: init width %d does not match \
                   declared width %d"
                  r.fr_name (Bits.width r.fr_init) w);
           let nc = new_cell b w in
           ignore
             (comp_to b ~var:slot
                ~what:("next of " ^ r.fr_name)
                (Some nc) r.fr_next);
           { tr_slot = s; tr_init = r.fr_init; tr_next = nc })
         d.Flat.d_regs)
  in
  let mems =
    Array.mapi
      (fun mi (m : Flat.flat_mem) ->
        let writes =
          Array.of_list
            (List.map
               (fun (w : Circuit.mem_write) ->
                 (* Sample into private cells: a bare [Var] compiles to
                    the slot cell itself, and the commit loop runs after
                    registers commit — reading a register's slot there
                    would observe the post-edge value.  Every write
                    port samples pre-commit values; the copy
                    preserves that. *)
                 let cw e =
                   let c =
                     comp_to b ~var:slot ~what:(m.fm_name ^ " write") None e
                   in
                   if c < n_sig then begin
                     let d = new_cell b (cell_w b c) in
                     emit_move b d c;
                     d
                   end
                   else c
                 in
                 { tw_we = cw w.we; tw_addr = cw w.waddr; tw_data = cw w.wdata })
               m.fm_writes)
        in
        {
          tm_name = m.fm_name;
          tm_width = m.fm_width;
          tm_depth = m.fm_depth;
          tm_init = m.fm_init;
          tm_arr = mem_arrs.(mi);
          tm_writes = writes;
          tm_index = mi;
        })
      fmems_arr
  in
  let edge_hi = Ivec.length b.c_code in
  (* Freeze the builder into the runtime arrays. *)
  let n_cells = Ivec.length b.b_widths in
  let widths = Ivec.to_array b.b_widths in
  let wide = Array.map (fun w -> w > small_limit) widths in
  let ivals = Array.make (max 1 n_cells) 0 in
  let bvals = Array.make (max 1 n_cells) (Bits.of_bool false) in
  Array.iteri (fun c w -> if w > small_limit then bvals.(c) <- Bits.zero w) widths;
  List.iter
    (fun (c, v) ->
      if wide.(c) then bvals.(c) <- v else ivals.(c) <- Bits.to_int_trunc v)
    b.b_consts;
  (* slot -> fanout CSR (deduplicated per node by [Expr.vars]). *)
  let fan_cnt = Array.make (n_sig + 1) 0 in
  for i = 0 to n_nodes - 1 do
    List.iter (fun v -> fan_cnt.(slot v) <- fan_cnt.(slot v) + 1) node_vars.(i)
  done;
  let fan_off = Array.make (n_sig + 1) 0 in
  for s = 0 to n_sig - 1 do
    fan_off.(s + 1) <- fan_off.(s) + fan_cnt.(s)
  done;
  let fan_nodes = Array.make (max 1 fan_off.(n_sig)) 0 in
  let cursor = Array.copy fan_off in
  for i = 0 to n_nodes - 1 do
    List.iter
      (fun v ->
        let s = slot v in
        fan_nodes.(cursor.(s)) <- i;
        cursor.(s) <- cursor.(s) + 1)
      node_vars.(i)
  done;
  (* memory -> read-port-node CSR. *)
  let mem_cnt = Array.make (n_mems + 1) 0 in
  for i = 0 to n_nodes - 1 do
    if node_mem.(i) >= 0 then
      mem_cnt.(node_mem.(i)) <- mem_cnt.(node_mem.(i)) + 1
  done;
  let mem_fan_off = Array.make (n_mems + 1) 0 in
  for m = 0 to n_mems - 1 do
    mem_fan_off.(m + 1) <- mem_fan_off.(m) + mem_cnt.(m)
  done;
  let mem_fan_nodes = Array.make (max 1 mem_fan_off.(n_mems)) 0 in
  let mcursor = Array.copy mem_fan_off in
  for i = 0 to n_nodes - 1 do
    let mi = node_mem.(i) in
    if mi >= 0 then begin
      mem_fan_nodes.(mcursor.(mi)) <- i;
      mcursor.(mi) <- mcursor.(mi) + 1
    end
  done;
  (* Per-level dirty buckets, sized to the node population per level. *)
  let max_level = Array.fold_left max (-1) (Array.sub node_level 0 n_nodes) in
  let n_levels = max_level + 1 in
  let level_cnt = Array.make (max 1 n_levels) 0 in
  for i = 0 to n_nodes - 1 do
    level_cnt.(node_level.(i)) <- level_cnt.(node_level.(i)) + 1
  done;
  let buckets = Array.map (fun n -> Array.make (max 1 n) 0) level_cnt in
  let driven = Array.make (max 1 n_sig) false in
  Array.iteri (fun i s -> if i < n_nodes then driven.(s) <- true) node_slot;
  Array.iter (fun r -> driven.(r.tr_slot) <- true) regs;
  let is_reg = Array.make (max 1 n_sig) false in
  Array.iter (fun r -> is_reg.(r.tr_slot) <- true) regs;
  let state_slots small =
    List.init n_sig Fun.id
    |> List.filter (fun s ->
           (is_reg.(s) || not driven.(s))
           && (widths.(s) <= small_limit) = small)
    |> Array.of_list
  in
  let calls_specs = Array.of_list (List.rev b.b_calls) in
  let t =
    {
      slots = d.Flat.d_slots;
      names = d.Flat.d_names;
      top_inputs = d.Flat.d_inputs;
      n_sig;
      widths;
      wide;
      ivals;
      bvals;
      code = Ivec.to_array b.c_code;
      o_dst = Ivec.to_array b.c_dst;
      o_a = Ivec.to_array b.c_a;
      o_b = Ivec.to_array b.c_b;
      o_c = Ivec.to_array b.c_c;
      o_m = Ivec.to_array b.c_m;
      calls = Array.map (fun spec -> spec ivals bvals) calls_specs;
      comb_hi;
      edge_lo;
      edge_hi;
      node_slot;
      node_lo;
      node_hi;
      node_level;
      fan_off;
      fan_nodes;
      mem_fan_off;
      mem_fan_nodes;
      regs;
      mems;
      mem_arrs;
      arrays;
      mem_index;
      driven;
      state_small = state_slots true;
      state_wide = state_slots false;
      mem_gen = Array.make n_mems 0;
      mem_copy = Array.make n_mems [||];
      mem_copy_gen = Array.make n_mems (-1);
      buckets;
      bucket_len = Array.make (max 1 n_levels) 0;
      node_dirty = Array.make (max 1 n_nodes) false;
      have_dirty = false;
      all_dirty = true;
      cycle = 0;
      injections = [||];
      inj_pending = [];
      active = Hashtbl.create 8;
      n_active = 0;
      observers = [||];
      obs_pending = [];
    }
  in
  settle t;
  t

(* ------------------------------------------------------------------ *)
(* API surface (parity with the other engines)                         *)
(* ------------------------------------------------------------------ *)

let reset t =
  t.cycle <- 0;
  Hashtbl.reset t.active;
  t.n_active <- 0;
  Array.iter (fun r -> set_cell t r.tr_slot r.tr_init) t.regs;
  Array.iter
    (fun m ->
      for i = 0 to m.tm_depth - 1 do
        m.tm_arr.(i) <-
          (if i < Array.length m.tm_init then m.tm_init.(i)
           else Bits.zero m.tm_width)
      done;
      bump_mem t m.tm_index)
    t.mems;
  t.all_dirty <- true;
  settle t

let set_input t name v =
  match Hashtbl.find_opt t.top_inputs name with
  | None ->
      invalid_arg (Printf.sprintf "Interp_tape: %s is not a top input" name)
  | Some s ->
      let w = t.widths.(s) in
      if Bits.width v <> w then
        invalid_arg
          (Printf.sprintf "Interp_tape: input %s expects width %d, got %d" name
             w (Bits.width v));
      if t.wide.(s) then begin
        if not (Bits.equal t.bvals.(s) v) then begin
          t.bvals.(s) <- v;
          dirty_fanout t s
        end
      end
      else begin
        let x = Bits.to_int_trunc v in
        if t.ivals.(s) <> x then begin
          t.ivals.(s) <- x;
          dirty_fanout t s
        end
      end

let peek t name =
  match Hashtbl.find_opt t.slots name with
  | Some s -> get_cell t s
  | None -> raise Not_found

let peek_int t name =
  match Hashtbl.find_opt t.slots name with
  | Some s -> cell_trunc t s
  | None -> raise Not_found

let peek_mem t name addr =
  match Hashtbl.find_opt t.arrays name with
  | None -> raise Not_found
  | Some arr ->
      if addr < 0 || addr >= Array.length arr then
        invalid_arg "Interp_tape.peek_mem: address out of range";
      arr.(addr)

let poke_mem t name addr v =
  match Hashtbl.find_opt t.arrays name with
  | None -> raise Not_found
  | Some arr ->
      if addr < 0 || addr >= Array.length arr then
        invalid_arg "Interp_tape.poke_mem: address out of range";
      arr.(addr) <- v;
      let mi = Hashtbl.find t.mem_index name in
      dirty_mem_fanout t mi;
      bump_mem t mi

let signal_names t =
  Array.to_list (Array.sub t.names 0 t.n_sig) |> List.sort compare

let reader t name =
  match Hashtbl.find_opt t.slots name with
  | None -> raise Not_found
  | Some s ->
      if t.wide.(s) then fun () -> Bits.to_int_trunc t.bvals.(s)
      else
        let ivals = t.ivals in
        fun () -> ivals.(s)

let on_cycle t f = t.obs_pending <- f :: t.obs_pending

let clear_observers t =
  t.observers <- [||];
  t.obs_pending <- []

let current_cycle t = t.cycle

let inject t injs =
  let compile_inj (inj : Flat.injection) =
    let s =
      match Hashtbl.find_opt t.slots inj.inj_signal with
      | Some s -> s
      | None ->
          invalid_arg
            (Printf.sprintf "Interp_tape.inject: unknown signal %s"
               inj.inj_signal)
    in
    if inj.inj_start < 0 then
      invalid_arg
        (Printf.sprintf "Interp_tape.inject: %s: negative start cycle"
           inj.inj_signal);
    if inj.inj_cycles < 1 then
      invalid_arg
        (Printf.sprintf "Interp_tape.inject: %s: duration must be >= 1 cycle"
           inj.inj_signal);
    (match inj.inj_fault with
    | Flat.Flip i ->
        let w = t.widths.(s) in
        if i < 0 || i >= w then
          invalid_arg
            (Printf.sprintf
               "Interp_tape.inject: %s: flip bit %d out of range 0..%d"
               inj.inj_signal i (w - 1))
    | Flat.Stuck_at_0 | Flat.Stuck_at_1 -> ());
    {
      ci_slot = s;
      ci_fault = inj.inj_fault;
      ci_start = inj.inj_start;
      ci_stop = inj.inj_start + inj.inj_cycles;
      ci_driven = t.driven.(s);
    }
  in
  List.iter
    (fun inj -> t.inj_pending <- compile_inj inj :: t.inj_pending)
    injs

let clear_injections t =
  t.injections <- [||];
  t.inj_pending <- [];
  Hashtbl.reset t.active;
  t.n_active <- 0;
  (* Deactivated faults may have left transformed values behind on
     driven slots; recompute at the next settle, like the full-sweep
     engines do implicitly. *)
  t.all_dirty <- true

let export_state t : Flat.state =
  {
    Flat.st_cycle = t.cycle;
    st_values = Array.init t.n_sig (fun i -> (t.names.(i), get_cell t i));
    st_mems = Array.map (fun m -> (m.tm_name, Array.copy m.tm_arr)) t.mems;
  }

let import_state t (st : Flat.state) =
  if st.Flat.st_cycle < 0 then
    invalid_arg "Interp_tape.import_state: negative cycle";
  if Array.length st.st_values <> t.n_sig then
    invalid_arg
      (Printf.sprintf
         "Interp_tape.import_state: snapshot has %d signals, design has %d"
         (Array.length st.st_values) t.n_sig);
  Array.iter
    (fun (name, v) ->
      match Hashtbl.find_opt t.slots name with
      | None ->
          invalid_arg
            (Printf.sprintf "Interp_tape.import_state: unknown signal %s" name)
      | Some s ->
          let w = t.widths.(s) in
          if Bits.width v <> w then
            invalid_arg
              (Printf.sprintf
                 "Interp_tape.import_state: %s: snapshot width %d, design \
                  width %d"
                 name (Bits.width v) w);
          set_cell t s v)
    st.st_values;
  Array.iter
    (fun (name, words) ->
      match Hashtbl.find_opt t.arrays name with
      | None ->
          invalid_arg
            (Printf.sprintf "Interp_tape.import_state: unknown memory %s" name)
      | Some arr ->
          if Array.length words <> Array.length arr then
            invalid_arg
              (Printf.sprintf
                 "Interp_tape.import_state: memory %s: snapshot depth %d, \
                  design depth %d"
                 name (Array.length words) (Array.length arr));
          Array.blit words 0 arr 0 (Array.length arr);
          bump_mem t (Hashtbl.find t.mem_index name))
    st.st_mems;
  Hashtbl.reset t.active;
  t.n_active <- 0;
  t.cycle <- st.st_cycle;
  (* The snapshot is settled, but the dirty bookkeeping no longer
     matches the cells: recompute once at the next settle. *)
  t.all_dirty <- true

(* ------------------------------------------------------------------ *)
(* In-process marks                                                    *)
(* ------------------------------------------------------------------ *)

type mark = {
  mk_owner : t;
  mk_cycle : int;
  mk_small : int array; (* values of [state_small], in order *)
  mk_wide : Bits.t array; (* values of [state_wide], in order *)
  mk_mems : Bits.t array array array; (* per memory, its chunks *)
}

(* A mark holds a memory as chunks of [chunk_words] words.  A new copy
   shares every chunk whose words did not change with the previous
   copy, so a mark after a one-word write costs one chunk, not the
   whole memory.  Chunks are never written. *)
let chunk_words = 16

let own what t m =
  if m.mk_owner != t then
    invalid_arg
      (Printf.sprintf "Interp_tape.%s: the mark was taken on another engine"
         what)

(* The engine's memory [mi] holds exactly [chunks]: they are the last
   copy taken or restored, and no word was written since. *)
let holds t mi chunks =
  t.mem_copy.(mi) == chunks && t.mem_copy_gen.(mi) = t.mem_gen.(mi)

let copy_mem t mi =
  let arr = t.mem_arrs.(mi) and prev = t.mem_copy.(mi) in
  Array.init
    ((Array.length arr + chunk_words - 1) / chunk_words)
    (fun c ->
      let lo = c * chunk_words in
      let len = min chunk_words (Array.length arr - lo) in
      let rec same chunk i =
        i = len || (chunk.(i) == arr.(lo + i) && same chunk (i + 1))
      in
      if c < Array.length prev && same prev.(c) 0 then prev.(c)
      else Array.sub arr lo len)

let mark t =
  {
    mk_owner = t;
    mk_cycle = t.cycle;
    mk_small = Array.map (fun s -> t.ivals.(s)) t.state_small;
    mk_wide = Array.map (fun s -> t.bvals.(s)) t.state_wide;
    mk_mems =
      Array.mapi
        (fun mi _ ->
          if t.mem_copy_gen.(mi) <> t.mem_gen.(mi) then begin
            t.mem_copy.(mi) <- copy_mem t mi;
            t.mem_copy_gen.(mi) <- t.mem_gen.(mi)
          end;
          t.mem_copy.(mi))
        t.mems;
  }

let rewind t m =
  own "rewind" t m;
  Array.iteri (fun i s -> t.ivals.(s) <- m.mk_small.(i)) t.state_small;
  Array.iteri (fun i s -> t.bvals.(s) <- m.mk_wide.(i)) t.state_wide;
  Array.iteri
    (fun mi chunks ->
      if not (holds t mi chunks) then begin
        Array.iteri
          (fun c chunk ->
            Array.blit chunk 0 t.mem_arrs.(mi) (c * chunk_words)
              (Array.length chunk))
          chunks;
        bump_mem t mi;
        t.mem_copy.(mi) <- chunks;
        t.mem_copy_gen.(mi) <- t.mem_gen.(mi)
      end)
    m.mk_mems;
  Hashtbl.reset t.active;
  t.n_active <- 0;
  t.cycle <- m.mk_cycle;
  t.all_dirty <- true;
  settle t

let matches t m =
  own "matches" t m;
  let small = t.state_small and wide = t.state_wide in
  let rec same_small i =
    i = Array.length small
    || (t.ivals.(small.(i)) = m.mk_small.(i) && same_small (i + 1))
  in
  let rec same_wide i =
    i = Array.length wide
    || (Bits.equal t.bvals.(wide.(i)) m.mk_wide.(i) && same_wide (i + 1))
  in
  let same_words arr chunks =
    let rec go a =
      a = Array.length arr
      || Bits.equal arr.(a) chunks.(a / chunk_words).(a mod chunk_words)
         && go (a + 1)
    in
    go 0
  in
  let rec same_mems mi =
    mi = Array.length t.mems
    || (let chunks = m.mk_mems.(mi) in
        (holds t mi chunks || same_words t.mem_arrs.(mi) chunks)
        && same_mems (mi + 1))
  in
  t.cycle = m.mk_cycle && same_small 0 && same_wide 0 && same_mems 0
