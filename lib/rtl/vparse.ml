(* A recursive-descent parser specialised to the emitter's output shape:
   every operator application is parenthesised, declarations precede
   statements, and the single always block has the fixed
   reset/next-state structure. *)

type vmodule = {
  vname : string;
  vinputs : (string * int) list;
  voutputs : (string * int) list;
  vwires : (string * int) list;
  vregs : (string * int) list;
  vmems : (string * int * int) list;
  vassigns : (string * Expr.t) list;
  vresets : (string * Bits.t) list;
  vmem_inits : (string * int * Bits.t) list;
  vnexts : (string * Expr.t) list;
  vmem_writes : (Expr.t * string * Expr.t * Expr.t) list;
  vinstances : (string * string * (string * Expr.t) list) list;
}

let read_marker ~mem ~addr =
  Expr.Concat [ Expr.Var ("$memread$" ^ mem); addr ]

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | T_ident of string
  | T_number of int
  | T_literal of string (* full Verilog literal, e.g. 8'h2a *)
  | T_punct of string   (* ( ) [ ] { } , ; : ? . @ *)
  | T_op of string      (* ~ & | ^ + - * == != < <= << >> = *)
  | T_eof

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let lex src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let push t = tokens := (t, !line) :: !tokens in
  let i = ref 0 in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '$'
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then
      (* line comment (e.g. the provenance header) — skip to newline,
         which the outer loop then counts *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if c >= '0' && c <= '9' then begin
      (* A number; if followed by a tick it is a sized literal. *)
      let j = ref !i in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do
        incr j
      done;
      if !j < n && src.[!j] = '\'' then begin
        let k = ref (!j + 1) in
        if !k < n then incr k; (* base char *)
        while
          !k < n
          && (is_ident_char src.[!k] || (src.[!k] >= '0' && src.[!k] <= '9'))
        do
          incr k
        done;
        push (T_literal (String.sub src !i (!k - !i)));
        i := !k
      end
      else begin
        push (T_number (int_of_string (String.sub src !i (!j - !i))));
        i := !j
      end
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      push (T_ident (String.sub src !i (!j - !i)));
      i := !j
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "==" | "!=" | "<=" | "<<" | ">>" ->
          push (T_op two);
          i := !i + 2
      | _ -> (
          match c with
          | '(' | ')' | '[' | ']' | '{' | '}' | ',' | ';' | ':' | '?' | '.'
          | '@' ->
              push (T_punct (String.make 1 c));
              incr i
          | '~' | '&' | '|' | '^' | '+' | '-' | '*' | '<' | '=' ->
              push (T_op (String.make 1 c));
              incr i
          | _ -> fail "line %d: unexpected character %C" !line c)
    end
  done;
  push T_eof;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Token stream                                                        *)
(* ------------------------------------------------------------------ *)

type stream = { mutable toks : (token * int) list }

let current s =
  match s.toks with (t, _) :: _ -> t | [] -> T_eof

let current_line s = match s.toks with (_, l) :: _ -> l | [] -> 0

let advance s =
  match s.toks with _ :: rest -> s.toks <- rest | [] -> ()

let describe = function
  | T_ident x -> Printf.sprintf "identifier %s" x
  | T_number x -> Printf.sprintf "number %d" x
  | T_literal x -> Printf.sprintf "literal %s" x
  | T_punct x | T_op x -> Printf.sprintf "%S" x
  | T_eof -> "end of input"

let expect_punct s p =
  match current s with
  | T_punct q when q = p -> advance s
  | t -> fail "line %d: expected %S, found %s" (current_line s) p (describe t)

let expect_op s p =
  match current s with
  | T_op q when q = p -> advance s
  | t -> fail "line %d: expected %S, found %s" (current_line s) p (describe t)

let expect_kw s kw =
  match current s with
  | T_ident i when i = kw -> advance s
  | t -> fail "line %d: expected %S, found %s" (current_line s) kw (describe t)

let ident s =
  match current s with
  | T_ident i ->
      advance s;
      i
  | t -> fail "line %d: expected an identifier, found %s" (current_line s) (describe t)

let number s =
  match current s with
  | T_number v ->
      advance s;
      v
  | t -> fail "line %d: expected a number, found %s" (current_line s) (describe t)

(* ------------------------------------------------------------------ *)
(* Expressions (emitter-shaped)                                        *)
(* ------------------------------------------------------------------ *)

let binop_of = function
  | "&" -> Expr.And
  | "|" -> Expr.Or
  | "^" -> Expr.Xor
  | "+" -> Expr.Add
  | "-" -> Expr.Sub
  | "*" -> Expr.Mul
  | "==" -> Expr.Eq
  | "!=" -> Expr.Neq
  | "<" -> Expr.Ult
  | "<=" -> Expr.Ule
  | op -> fail "unknown operator %S" op

let rec parse_expr ~mems s =
  match current s with
  | T_literal l ->
      advance s;
      Expr.Const (Bits.of_string l)
  | T_ident name ->
      advance s;
      if current s = T_punct "[" then begin
        advance s;
        if List.mem name mems then begin
          (* Memory read: mem[addr_expr]. *)
          let addr = parse_expr ~mems s in
          expect_punct s "]";
          read_marker ~mem:name ~addr
        end
        else begin
          let hi = number s in
          let lo =
            if current s = T_punct ":" then begin
              advance s;
              number s
            end
            else hi
          in
          expect_punct s "]";
          Expr.Select (Expr.Var name, hi, lo)
        end
      end
      else Expr.Var name
  | T_punct "{" -> parse_concat ~mems s
  | T_punct "(" -> parse_paren ~mems s
  | t ->
      fail "line %d: expected an expression, found %s" (current_line s)
        (describe t)

and parse_concat ~mems s =
  expect_punct s "{";
  let rec go acc =
    let e = parse_expr ~mems s in
    match current s with
    | T_punct "," ->
        advance s;
        go (e :: acc)
    | T_punct "}" ->
        advance s;
        List.rev (e :: acc)
    | t ->
        fail "line %d: expected ',' or '}', found %s" (current_line s)
          (describe t)
  in
  Expr.Concat (go [])

and parse_paren ~mems s =
  expect_punct s "(";
  let finish e =
    expect_punct s ")";
    e
  in
  match current s with
  | T_op "~" ->
      advance s;
      finish (Expr.Unop (Expr.Not, parse_expr ~mems s))
  | T_op "|" ->
      advance s;
      finish (Expr.Unop (Expr.Reduce_or, parse_expr ~mems s))
  | T_op "&" ->
      advance s;
      finish (Expr.Unop (Expr.Reduce_and, parse_expr ~mems s))
  | T_op "^" ->
      advance s;
      finish (Expr.Unop (Expr.Reduce_xor, parse_expr ~mems s))
  | T_ident "$signed" ->
      (* ($signed(a) * $signed(b)) *)
      advance s;
      expect_punct s "(";
      let a = parse_expr ~mems s in
      expect_punct s ")";
      expect_op s "*";
      expect_kw s "$signed";
      expect_punct s "(";
      let b = parse_expr ~mems s in
      expect_punct s ")";
      finish (Expr.Binop (Expr.Smul, a, b))
  | _ -> (
      let a = parse_expr ~mems s in
      match current s with
      | T_punct "?" ->
          advance s;
          let t = parse_expr ~mems s in
          expect_punct s ":";
          let f = parse_expr ~mems s in
          finish (Expr.Mux (a, t, f))
      | T_op "<<" ->
          advance s;
          let k = number s in
          finish (Expr.Shift_left (a, k))
      | T_op ">>" ->
          advance s;
          let k = number s in
          finish (Expr.Shift_right (a, k))
      | T_punct "[" ->
          (* ({...}[h:l]) — select of a general expression. *)
          advance s;
          let hi = number s in
          expect_punct s ":";
          let lo = number s in
          expect_punct s "]";
          (* The emitter wraps the sliced expression in a singleton
             concat ("({e}[h:l])"); unwrap it so round-trips are exact. *)
          let a = match a with Expr.Concat [ e ] -> e | _ -> a in
          finish (Expr.Select (a, hi, lo))
      | T_op op ->
          advance s;
          let b = parse_expr ~mems s in
          finish (Expr.Binop (binop_of op, a, b))
      | T_punct ")" -> finish a
      | t ->
          fail "line %d: unexpected %s inside parentheses" (current_line s)
            (describe t))

(* ------------------------------------------------------------------ *)
(* Module structure                                                    *)
(* ------------------------------------------------------------------ *)

let parse_range s =
  (* Optional [w-1:0] after input/output/wire/reg; returns the width. *)
  if current s = T_punct "[" then begin
    advance s;
    let hi = number s in
    expect_punct s ":";
    let lo = number s in
    expect_punct s "]";
    if lo <> 0 then fail "line %d: only [w-1:0] ranges are emitted" (current_line s);
    hi + 1
  end
  else 1

let parse_always ~mems s acc_resets acc_mem_inits acc_nexts acc_writes =
  (* always @(posedge clk) begin if (rst) begin .. end else begin .. end end *)
  expect_punct s "@";
  expect_punct s "(";
  expect_kw s "posedge";
  expect_kw s "clk";
  expect_punct s ")";
  expect_kw s "begin";
  expect_kw s "if";
  expect_punct s "(";
  expect_kw s "rst";
  expect_punct s ")";
  expect_kw s "begin";
  let rec resets () =
    match current s with
    | T_ident "end" -> advance s
    | T_ident name -> (
        advance s;
        match current s with
        | T_punct "[" ->
            (* mem[idx] <= literal;  — memory initialization. *)
            advance s;
            let idx = number s in
            expect_punct s "]";
            expect_op s "<=";
            (match current s with
            | T_literal l ->
                advance s;
                acc_mem_inits := (name, idx, Bits.of_string l) :: !acc_mem_inits
            | t ->
                fail "line %d: memory init expects a literal, found %s"
                  (current_line s) (describe t));
            expect_punct s ";";
            resets ()
        | _ ->
            expect_op s "<=";
            (match current s with
            | T_literal l ->
                advance s;
                acc_resets := (name, Bits.of_string l) :: !acc_resets
            | t ->
                fail "line %d: reset arm expects a literal, found %s"
                  (current_line s) (describe t));
            expect_punct s ";";
            resets ())
    | t -> fail "line %d: unexpected %s in reset arm" (current_line s) (describe t)
  in
  resets ();
  expect_kw s "else";
  expect_kw s "begin";
  let rec nexts () =
    match current s with
    | T_ident "end" -> advance s
    | T_ident "if" ->
        (* if (guard) mem[addr] <= data; *)
        advance s;
        expect_punct s "(";
        let guard = parse_expr ~mems s in
        expect_punct s ")";
        let mem = ident s in
        expect_punct s "[";
        let addr = parse_expr ~mems s in
        expect_punct s "]";
        expect_op s "<=";
        let data = parse_expr ~mems s in
        expect_punct s ";";
        acc_writes := (guard, mem, addr, data) :: !acc_writes;
        nexts ()
    | T_ident name ->
        advance s;
        expect_op s "<=";
        let e = parse_expr ~mems s in
        expect_punct s ";";
        acc_nexts := (name, e) :: !acc_nexts;
        nexts ()
    | t -> fail "line %d: unexpected %s in always body" (current_line s) (describe t)
  in
  nexts ();
  expect_kw s "end"

let parse_module_stream s =
  expect_kw s "module";
  let vname = ident s in
  expect_punct s "(";
  let rec port_names acc =
    let p = ident s in
    match current s with
    | T_punct "," ->
        advance s;
        port_names (p :: acc)
    | T_punct ")" ->
        advance s;
        List.rev (p :: acc)
    | t ->
        fail "line %d: expected ',' or ')', found %s" (current_line s)
          (describe t)
  in
  let _names = port_names [] in
  expect_punct s ";";
  let vinputs = ref [] in
  let voutputs = ref [] in
  let vwires = ref [] in
  let vregs = ref [] in
  let vmems = ref [] in
  let vassigns = ref [] in
  let vresets = ref [] in
  let vmem_inits = ref [] in
  let vnexts = ref [] in
  let vmem_writes = ref [] in
  let vinstances = ref [] in
  let mem_names () = List.map (fun (n, _, _) -> n) !vmems in
  let rec body () =
    match current s with
    | T_ident "endmodule" -> advance s
    | T_ident "input" ->
        advance s;
        let w = parse_range s in
        let n = ident s in
        expect_punct s ";";
        vinputs := (n, w) :: !vinputs;
        body ()
    | T_ident "output" ->
        advance s;
        let w = parse_range s in
        let n = ident s in
        expect_punct s ";";
        voutputs := (n, w) :: !voutputs;
        body ()
    | T_ident "wire" ->
        advance s;
        let w = parse_range s in
        let n = ident s in
        expect_punct s ";";
        vwires := (n, w) :: !vwires;
        body ()
    | T_ident "reg" ->
        advance s;
        let w = parse_range s in
        let n = ident s in
        if current s = T_punct "[" then begin
          (* Memory: reg [..] name [0:depth-1]; *)
          advance s;
          let lo = number s in
          expect_punct s ":";
          let hi = number s in
          expect_punct s "]";
          expect_punct s ";";
          if lo <> 0 then fail "memory range must start at 0";
          vmems := (n, w, hi + 1) :: !vmems
        end
        else begin
          expect_punct s ";";
          vregs := (n, w) :: !vregs
        end;
        body ()
    | T_ident "assign" ->
        advance s;
        let lhs = ident s in
        expect_op s "=";
        let e = parse_expr ~mems:(mem_names ()) s in
        expect_punct s ";";
        vassigns := (lhs, e) :: !vassigns;
        body ()
    | T_ident "always" ->
        advance s;
        parse_always ~mems:(mem_names ()) s vresets vmem_inits vnexts
          vmem_writes;
        body ()
    | T_ident sub ->
        (* Instance: sub inst ( .port(expr), ... ); *)
        advance s;
        let inst = ident s in
        expect_punct s "(";
        let rec conns acc =
          expect_punct s ".";
          let port = ident s in
          expect_punct s "(";
          let e = parse_expr ~mems:(mem_names ()) s in
          expect_punct s ")";
          match current s with
          | T_punct "," ->
              advance s;
              conns ((port, e) :: acc)
          | T_punct ")" ->
              advance s;
              List.rev ((port, e) :: acc)
          | t ->
              fail "line %d: expected ',' or ')', found %s" (current_line s)
                (describe t)
        in
        let cs = conns [] in
        expect_punct s ";";
        vinstances := (sub, inst, cs) :: !vinstances;
        body ()
    | t ->
        fail "line %d: unexpected %s in module body" (current_line s)
          (describe t)
  in
  body ();
  {
    vname;
    vinputs = List.rev !vinputs;
    voutputs = List.rev !voutputs;
    vwires = List.rev !vwires;
    vregs = List.rev !vregs;
    vmems = List.rev !vmems;
    vassigns = List.rev !vassigns;
    vresets = List.rev !vresets;
    vmem_inits = List.rev !vmem_inits;
    vnexts = List.rev !vnexts;
    vmem_writes = List.rev !vmem_writes;
    vinstances = List.rev !vinstances;
  }

let parse_module src =
  match
    let s = { toks = lex src } in
    let m = parse_module_stream s in
    (match current s with
    | T_eof -> ()
    | t -> fail "trailing %s after endmodule" (describe t));
    m
  with
  | m -> Ok m
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Equivalence                                                         *)
(* ------------------------------------------------------------------ *)

let matches_circuit (vm : vmodule) (c : Circuit.t) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if vm.vname <> Circuit.name c then
    err "module name %s <> circuit %s" vm.vname (Circuit.name c);
  let sort l = List.sort compare l in
  let check_set what got want =
    if sort got <> sort want then
      err "%s differ: parsed %d entries, circuit has %d" what
        (List.length got) (List.length want)
  in
  let stateful = Circuit.has_state c in
  let want_inputs =
    (if stateful then [ ("clk", 1); ("rst", 1) ] else [])
    @ List.map
        (fun (p : Circuit.port) -> (p.Circuit.port_name, p.Circuit.port_width))
        (Circuit.inputs c)
  in
  check_set "inputs" vm.vinputs want_inputs;
  check_set "outputs" vm.voutputs
    (List.map
       (fun (p : Circuit.port) -> (p.Circuit.port_name, p.Circuit.port_width))
       (Circuit.outputs c));
  let want_wires =
    List.map
      (fun (w : Circuit.signal) -> (w.Circuit.sig_name, w.Circuit.sig_width))
      c.Circuit.wires
    @ List.concat_map
        (fun (m : Circuit.memory) ->
          List.map (fun (rd, _) -> (rd, m.Circuit.data_width)) m.Circuit.reads)
        c.Circuit.memories
  in
  check_set "wires" vm.vwires want_wires;
  check_set "regs" vm.vregs
    (List.map
       (fun (r : Circuit.reg) -> (r.Circuit.reg_name, r.Circuit.reg_width))
       c.Circuit.regs);
  check_set "memories" vm.vmems
    (List.map
       (fun (m : Circuit.memory) ->
         (m.Circuit.mem_name, m.Circuit.data_width, m.Circuit.depth))
       c.Circuit.memories);
  (* Assignments: circuit assigns plus memory reads. *)
  let want_assigns =
    List.map (fun (a : Circuit.assign) -> (a.Circuit.target, a.Circuit.expr))
      c.Circuit.assigns
    @ List.concat_map
        (fun (m : Circuit.memory) ->
          List.map
            (fun (rd, addr) -> (rd, read_marker ~mem:m.Circuit.mem_name ~addr))
            m.Circuit.reads)
        c.Circuit.memories
  in
  List.iter
    (fun (tgt, want) ->
      match List.assoc_opt tgt vm.vassigns with
      | Some got when got = want -> ()
      | Some _ -> err "assign %s: expression differs" tgt
      | None -> err "assign %s missing from the Verilog" tgt)
    want_assigns;
  if List.length vm.vassigns <> List.length want_assigns then
    err "assign count: parsed %d, circuit %d" (List.length vm.vassigns)
      (List.length want_assigns);
  (* Registers: reset values and next-state expressions. *)
  List.iter
    (fun (r : Circuit.reg) ->
      (match List.assoc_opt r.Circuit.reg_name vm.vresets with
      | Some v when Bits.equal v r.Circuit.init -> ()
      | Some _ -> err "reg %s: reset value differs" r.Circuit.reg_name
      | None -> err "reg %s: missing reset" r.Circuit.reg_name);
      match List.assoc_opt r.Circuit.reg_name vm.vnexts with
      | Some e when e = r.Circuit.next -> ()
      | Some _ -> err "reg %s: next-state differs" r.Circuit.reg_name
      | None -> err "reg %s: missing next-state" r.Circuit.reg_name)
    c.Circuit.regs;
  (* Memory writes. *)
  let want_writes =
    List.concat_map
      (fun (m : Circuit.memory) ->
        List.map
          (fun (w : Circuit.mem_write) ->
            (w.Circuit.we, m.Circuit.mem_name, w.Circuit.waddr, w.Circuit.wdata))
          m.Circuit.writes)
      c.Circuit.memories
  in
  if sort (List.map Hashtbl.hash vm.vmem_writes)
     <> sort (List.map Hashtbl.hash want_writes)
     || List.length vm.vmem_writes <> List.length want_writes
  then err "memory writes differ";
  (* Memory initialization. *)
  let want_inits =
    List.concat_map
      (fun (m : Circuit.memory) ->
        Array.to_list
          (Array.mapi (fun i w -> (m.Circuit.mem_name, i, w)) m.Circuit.init))
      c.Circuit.memories
  in
  List.iter
    (fun (mem, idx, want) ->
      match
        List.find_opt (fun (m, i, _) -> m = mem && i = idx) vm.vmem_inits
      with
      | Some (_, _, got) when Bits.equal got want -> ()
      | Some _ -> err "memory %s[%d]: init value differs" mem idx
      | None -> err "memory %s[%d]: init missing" mem idx)
    want_inits;
  if List.length vm.vmem_inits <> List.length want_inits then
    err "memory init count: parsed %d, circuit %d"
      (List.length vm.vmem_inits) (List.length want_inits);
  (* Instances. *)
  List.iter
    (fun (i : Circuit.instance) ->
      match
        List.find_opt (fun (_, inst, _) -> inst = i.Circuit.inst_name)
          vm.vinstances
      with
      | None -> err "instance %s missing" i.Circuit.inst_name
      | Some (sub, _, conns) ->
          if sub <> Circuit.name i.Circuit.sub then
            err "instance %s: module %s <> %s" i.Circuit.inst_name sub
              (Circuit.name i.Circuit.sub);
          let want_conns =
            (if Circuit.has_state i.Circuit.sub then
               [ ("clk", Expr.Var "clk"); ("rst", Expr.Var "rst") ]
             else [])
            @ i.Circuit.in_connections
            @ List.map (fun (p, w) -> (p, Expr.Var w)) i.Circuit.out_connections
          in
          if sort (List.map Hashtbl.hash conns)
             <> sort (List.map Hashtbl.hash want_conns)
          then err "instance %s: connections differ" i.Circuit.inst_name)
    c.Circuit.instances;
  if List.length vm.vinstances <> List.length c.Circuit.instances then
    err "instance count differs";
  match List.rev !errs with [] -> Ok () | es -> Error es
