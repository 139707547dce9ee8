(* Tests for the RTL substrate: Bits, Expr, Circuit builder, Verilog
   emission, Lint and the cycle-accurate interpreter. *)

open Busgen_rtl

let bits = Alcotest.testable Bits.pp Bits.equal

(* ------------------------------------------------------------------ *)
(* Bits                                                               *)
(* ------------------------------------------------------------------ *)

let test_bits_basics () =
  Alcotest.(check int) "width" 8 (Bits.width (Bits.zero 8));
  Alcotest.(check bool) "zero is zero" true (Bits.is_zero (Bits.zero 8));
  Alcotest.(check int) "of_int roundtrip" 42
    (Bits.to_int_exn (Bits.of_int ~width:8 42));
  Alcotest.(check int) "of_int truncates" 0xCD
    (Bits.to_int_exn (Bits.of_int ~width:8 0xABCD));
  Alcotest.(check int) "negative wraps" 0xF
    (Bits.to_int_exn (Bits.of_int ~width:4 (-1)));
  Alcotest.(check bits) "ones 4" (Bits.of_int ~width:4 15) (Bits.ones 4)

let test_bits_wide () =
  (* Values wider than an OCaml int. *)
  let v = Bits.shift_left (Bits.one 100) 90 in
  Alcotest.(check bool) "bit 90 set" true (Bits.bit v 90);
  Alcotest.(check bool) "bit 89 clear" false (Bits.bit v 89);
  Alcotest.(check bool) "not zero" false (Bits.is_zero v);
  Alcotest.check_raises "to_int_exn overflows"
    (Invalid_argument "Bits.to_int_exn: value exceeds 62 bits") (fun () ->
      ignore (Bits.to_int_exn v));
  let back = Bits.shift_right v 90 in
  Alcotest.(check int) "shift back" 1 (Bits.to_int_exn back)

let test_bits_wide_arithmetic () =
  (* Carries propagate across the 32-bit limb boundaries. *)
  let w = 100 in
  let ones64 = Bits.of_string "100'hFFFFFFFFFFFFFFFF" in
  let sum = Bits.add ones64 (Bits.one w) in
  Alcotest.(check bool) "carry into bit 64" true (Bits.bit sum 64);
  Alcotest.(check bool) "low bits cleared" true
    (Bits.is_zero (Bits.select sum 63 0));
  (* a - b + b = a at full width. *)
  let a = Bits.shift_left (Bits.of_int ~width:w 0x123456789) 30 in
  let b = Bits.shift_left (Bits.of_int ~width:w 0xFEDCBA) 50 in
  Alcotest.(check bool) "sub/add roundtrip" true
    (Bits.equal a (Bits.add (Bits.sub a b) b));
  (* Logic ops at width 100. *)
  let x = Bits.lognot (Bits.zero w) in
  Alcotest.(check bool) "all-ones reduce_and" true (Bits.reduce_and x);
  Alcotest.(check bool) "xor self is zero" true
    (Bits.is_zero (Bits.logxor x x))

let test_bits_strings () =
  Alcotest.(check bits) "binary" (Bits.of_int ~width:4 5)
    (Bits.of_string "4'b0101");
  Alcotest.(check bits) "hex" (Bits.of_int ~width:12 0xabc)
    (Bits.of_string "12'habc");
  Alcotest.(check bits) "decimal" (Bits.of_int ~width:8 200)
    (Bits.of_string "8'd200");
  Alcotest.(check bits) "underscores" (Bits.of_int ~width:8 0xff)
    (Bits.of_string "8'b1111_1111");
  Alcotest.(check string) "to_binary" "0101"
    (Bits.to_binary_string (Bits.of_int ~width:4 5));
  Alcotest.(check string) "to_hex" "0ff"
    (Bits.to_hex_string (Bits.of_int ~width:12 255));
  Alcotest.(check string) "verilog literal" "8'h2a"
    (Bits.to_verilog_literal (Bits.of_int ~width:8 42))

let test_bits_concat_select () =
  let hi = Bits.of_int ~width:4 0xA and lo = Bits.of_int ~width:4 0x5 in
  let c = Bits.concat hi lo in
  Alcotest.(check int) "concat value" 0xA5 (Bits.to_int_exn c);
  Alcotest.(check bits) "select hi" hi (Bits.select c 7 4);
  Alcotest.(check bits) "select lo" lo (Bits.select c 3 0);
  Alcotest.(check int) "repeat" 0x55
    (Bits.to_int_exn (Bits.repeat (Bits.of_int ~width:2 1) 4));
  Alcotest.check_raises "select out of range"
    (Invalid_argument "Bits.select: [8:0] out of range for width 8") (fun () ->
      ignore (Bits.select c 8 0))

let test_bits_arith () =
  let a = Bits.of_int ~width:8 200 and b = Bits.of_int ~width:8 100 in
  Alcotest.(check int) "add wraps" 44 (Bits.to_int_exn (Bits.add a b));
  Alcotest.(check int) "sub" 100 (Bits.to_int_exn (Bits.sub a b));
  Alcotest.(check int) "sub wraps" 156 (Bits.to_int_exn (Bits.sub b a));
  Alcotest.(check int) "mul width" 16 (Bits.width (Bits.mul a b));
  Alcotest.(check int) "mul value" 20000 (Bits.to_int_exn (Bits.mul a b))

let test_bits_logic () =
  let a = Bits.of_int ~width:8 0xF0 and b = Bits.of_int ~width:8 0x3C in
  Alcotest.(check int) "and" 0x30 (Bits.to_int_exn (Bits.logand a b));
  Alcotest.(check int) "or" 0xFC (Bits.to_int_exn (Bits.logor a b));
  Alcotest.(check int) "xor" 0xCC (Bits.to_int_exn (Bits.logxor a b));
  Alcotest.(check int) "not" 0x0F (Bits.to_int_exn (Bits.lognot a));
  Alcotest.(check bool) "reduce_or" true (Bits.reduce_or a);
  Alcotest.(check bool) "reduce_and ones" true (Bits.reduce_and (Bits.ones 9));
  Alcotest.(check bool) "reduce_xor odd" true
    (Bits.reduce_xor (Bits.of_int ~width:8 0x07))

let test_bits_compare () =
  let a = Bits.of_int ~width:8 5 and b = Bits.of_int ~width:8 9 in
  Alcotest.(check bool) "ult" true (Bits.ult a b);
  Alcotest.(check bool) "ule refl" true (Bits.ule a a);
  Alcotest.(check bool) "not ult" false (Bits.ult b a);
  (* compare zero-extends across widths *)
  Alcotest.(check int) "cross-width compare" 0
    (Bits.compare (Bits.of_int ~width:4 5) (Bits.of_int ~width:64 5))

(* qcheck properties over Bits *)

let gen_width = QCheck.Gen.int_range 1 80

let arb_bits =
  let gen =
    QCheck.Gen.(
      gen_width >>= fun w ->
      list_repeat w bool >>= fun bs ->
      let v =
        List.fold_left
          (fun (acc, i) b ->
            ( (if b then Bits.logor acc (Bits.shift_left (Bits.one w) i)
               else acc),
              i + 1 ))
          (Bits.zero w, 0) bs
        |> fst
      in
      return v)
  in
  QCheck.make ~print:Bits.to_verilog_literal gen

let prop_concat_select =
  QCheck.Test.make ~name:"concat/select roundtrip" ~count:300
    (QCheck.pair arb_bits arb_bits) (fun (hi, lo) ->
      let c = Bits.concat hi lo in
      Bits.equal hi (Bits.select c (Bits.width c - 1) (Bits.width lo))
      && Bits.equal lo (Bits.select c (Bits.width lo - 1) 0))

let prop_add_comm =
  QCheck.Test.make ~name:"add commutes" ~count:300
    (QCheck.pair arb_bits arb_bits) (fun (a, b) ->
      let b = Bits.resize b (Bits.width a) in
      Bits.equal (Bits.add a b) (Bits.add b a))

let prop_sub_inverse =
  QCheck.Test.make ~name:"a - b + b = a" ~count:300
    (QCheck.pair arb_bits arb_bits) (fun (a, b) ->
      let b = Bits.resize b (Bits.width a) in
      Bits.equal a (Bits.add (Bits.sub a b) b))

let prop_not_involutive =
  QCheck.Test.make ~name:"not (not a) = a" ~count:300 arb_bits (fun a ->
      Bits.equal a (Bits.lognot (Bits.lognot a)))

let prop_binary_string_roundtrip =
  QCheck.Test.make ~name:"binary string roundtrip" ~count:300 arb_bits
    (fun a ->
      let s = Printf.sprintf "%d'b%s" (Bits.width a) (Bits.to_binary_string a) in
      Bits.equal a (Bits.of_string s))

let prop_hex_string_roundtrip =
  QCheck.Test.make ~name:"hex string roundtrip" ~count:300 arb_bits (fun a ->
      let s = Printf.sprintf "%d'h%s" (Bits.width a) (Bits.to_hex_string a) in
      Bits.equal a (Bits.of_string s))

let prop_smul_matches_int =
  QCheck.Test.make ~name:"smul matches OCaml signed mult" ~count:300
    QCheck.(pair (int_range (-30000) 30000) (int_range (-30000) 30000))
    (fun (x, y) ->
      let a = Bits.of_signed_int ~width:17 x
      and b = Bits.of_signed_int ~width:17 y in
      Bits.to_signed_int_exn (Bits.smul a b) = x * y)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"mul matches OCaml int" ~count:300
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (x, y) ->
      let a = Bits.of_int ~width:17 x and b = Bits.of_int ~width:17 y in
      Bits.to_int_exn (Bits.mul a b) = x * y)

let prop_shift_consistent =
  QCheck.Test.make ~name:"shift left then right" ~count:300
    QCheck.(pair arb_bits (int_bound 10))
    (fun (a, k) ->
      let shifted = Bits.shift_right (Bits.shift_left a k) k in
      (* Bits shifted out of the top are lost; mask them from a. *)
      let w = Bits.width a in
      let kept =
        if k >= w then Bits.zero w
        else Bits.shift_right (Bits.shift_left a k) k
      in
      Bits.equal shifted kept)

(* ------------------------------------------------------------------ *)
(* Expr                                                               *)
(* ------------------------------------------------------------------ *)

let const8 = Expr.const_int ~width:8

let test_expr_width () =
  let env = function "a" -> 8 | "b" -> 8 | "c" -> 1 | _ -> raise Not_found in
  let open Expr in
  Alcotest.(check int) "add width" 8 (width ~env (var "a" +: var "b"));
  Alcotest.(check int) "eq width" 1 (width ~env (var "a" ==: var "b"));
  Alcotest.(check int) "mul width" 16
    (width ~env (Binop (Mul, var "a", var "b")));
  Alcotest.(check int) "concat width" 17
    (width ~env (concat [ var "a"; var "b"; var "c" ]));
  Alcotest.(check int) "mux width" 8
    (width ~env (mux (var "c") (var "a") (var "b")));
  Alcotest.check_raises "mismatch rejected"
    (Invalid_argument "Expr: operator + width mismatch 8 vs 1") (fun () ->
      ignore (width ~env (var "a" +: var "c")))

let test_expr_eval () =
  let env = function
    | "a" -> Bits.of_int ~width:8 12
    | "b" -> Bits.of_int ~width:8 30
    | _ -> raise Not_found
  in
  let open Expr in
  Alcotest.(check int) "add" 42
    (Bits.to_int_exn (eval ~env (var "a" +: var "b")));
  Alcotest.(check int) "mux taken" 12
    (Bits.to_int_exn
       (eval ~env (mux (var "a" <: var "b") (var "a") (var "b"))));
  Alcotest.(check int) "select" 3
    (Bits.to_int_exn (eval ~env (select (var "b") 4 3)));
  Alcotest.(check int) "const" 7 (Bits.to_int_exn (eval ~env (const8 7)))

let test_expr_vars () =
  let open Expr in
  let e = mux (var "c") (var "a" +: var "b") (var "a") in
  Alcotest.(check (list string)) "vars in order" [ "c"; "a"; "b" ] (vars e);
  let renamed = map_vars (fun v -> "x_" ^ v) e in
  Alcotest.(check (list string))
    "renamed" [ "x_c"; "x_a"; "x_b" ] (vars renamed)

(* ------------------------------------------------------------------ *)
(* Circuit + Engine: an 8-bit wrapping counter with enable            *)
(* ------------------------------------------------------------------ *)

let counter_circuit () =
  let open Circuit.Builder in
  let b = create "counter8" in
  let enable = input b "enable" 1 in
  output b "count" 8;
  let q = reg b "q" 8 () in
  set_next b "q" Expr.(mux enable (q +: const8 1) q);
  assign b "count" q;
  finish b

let test_counter_interp () =
  let sim = Engine.create (counter_circuit ()) in
  Engine.reset sim;
  Engine.set_input sim "enable" (Bits.one 1);
  Engine.run sim 5;
  Alcotest.(check int) "counted to 5" 5 (Engine.peek_int sim "count");
  Engine.set_input sim "enable" (Bits.zero 1);
  Engine.run sim 3;
  Alcotest.(check int) "held" 5 (Engine.peek_int sim "count");
  Engine.set_input sim "enable" (Bits.one 1);
  Engine.run sim 251;
  Alcotest.(check int) "wrapped" 0 (Engine.peek_int sim "count")

let test_counter_verilog () =
  let v = Verilog.of_circuit (counter_circuit ()) in
  let has sub =
    let n = String.length v and m = String.length sub in
    let rec go i = i + m <= n && (String.sub v i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (has "module counter8");
  Alcotest.(check bool) "clk port" true (has "input clk;");
  Alcotest.(check bool) "reset arm" true (has "if (rst)");
  Alcotest.(check bool) "reg decl" true (has "reg [7:0] q;");
  Alcotest.(check bool) "endmodule" true (has "endmodule")

(* Hierarchy: two counters and an adder of their outputs. *)
let test_hierarchy () =
  let open Circuit.Builder in
  let sub = counter_circuit () in
  let b = create "pair" in
  let en = input b "en" 1 in
  output b "total" 8;
  let c1 =
    match
      instantiate b ~name:"c1" sub ~inputs:[ ("enable", en) ]
        ~outputs:[ ("count", "c1_count") ]
    with
    | [ e ] -> e
    | _ -> assert false
  in
  let c2 =
    match
      instantiate b ~name:"c2" sub
        ~inputs:[ ("enable", Expr.const_int ~width:1 1) ]
        ~outputs:[ ("count", "c2_count") ]
    with
    | [ e ] -> e
    | _ -> assert false
  in
  assign b "total" Expr.(c1 +: c2);
  let top = finish b in
  let sim = Engine.create top in
  Engine.reset sim;
  Engine.set_input sim "en" (Bits.zero 1);
  Engine.run sim 4;
  (* c1 disabled (0), c2 free-running (4). *)
  Alcotest.(check int) "total" 4 (Engine.peek_int sim "total");
  Engine.set_input sim "en" (Bits.one 1);
  Engine.run sim 3;
  Alcotest.(check int) "total after enable" 10 (Engine.peek_int sim "total");
  (* Flat signal paths are visible. *)
  Alcotest.(check int) "flat path" 3 (Engine.peek_int sim "c1$q")

(* 2^[addr_width] bytes of RAM with one write port and one read
   port. *)
let ram_circuit ?(addr_width = 4) () =
  let open Circuit.Builder in
  let b = create "ram_test" in
  let we = input b "we" 1 in
  let waddr = input b "waddr" addr_width in
  let wdata = input b "wdata" 8 in
  let raddr = input b "raddr" addr_width in
  output b "rdata" 8;
  (match
     memory b "ram" ~data_width:8 ~depth:(1 lsl addr_width)
       ~writes:[ { Circuit.we; waddr; wdata } ]
       ~reads:[ ("ram_q", raddr) ]
   with
  | [ q ] -> assign b "rdata" q
  | _ -> assert false);
  finish b

let test_memory_interp () =
  let sim = Engine.create (ram_circuit ()) in
  Engine.reset sim;
  Engine.set_input sim "we" (Bits.one 1);
  Engine.set_input sim "waddr" (Bits.of_int ~width:4 3);
  Engine.set_input sim "wdata" (Bits.of_int ~width:8 0x5A);
  Engine.step sim;
  Engine.set_input sim "we" (Bits.zero 1);
  Engine.set_input sim "raddr" (Bits.of_int ~width:4 3);
  Engine.settle sim;
  Alcotest.(check int) "read back" 0x5A (Engine.peek_int sim "rdata");
  Engine.set_input sim "raddr" (Bits.of_int ~width:4 5);
  Engine.settle sim;
  Alcotest.(check int) "other word zero" 0 (Engine.peek_int sim "rdata");
  Engine.poke_mem sim "ram" 5 (Bits.of_int ~width:8 7);
  Engine.settle sim;
  Alcotest.(check int) "poked" 7 (Engine.peek_int sim "rdata")

let test_memory_backdoor () =
  (* peek_mem / poke_mem inspect and preload flattened memories,
     including through instance boundaries. *)
  let open Circuit.Builder in
  let inner =
    let b = create "mem_leaf" in
    let a = input b "a" 3 in
    output b "q" 8;
    (match
       memory b "store" ~data_width:8 ~depth:8 ~writes:[]
         ~reads:[ ("sq", a) ]
     with
    | [ q ] -> assign b "q" q
    | _ -> assert false);
    finish b
  in
  let top =
    let b = create "mem_top" in
    let a = input b "a" 3 in
    output b "o" 8;
    (match
       instantiate b ~name:"u" inner ~inputs:[ ("a", a) ]
         ~outputs:[ ("q", "uq") ]
     with
    | [ e ] -> assign b "o" e
    | _ -> assert false);
    finish b
  in
  let sim = Engine.create top in
  Engine.reset sim;
  Engine.poke_mem sim "u$store" 5 (Bits.of_int ~width:8 0xAB);
  Alcotest.(check int) "peek_mem sees the poke" 0xAB
    (Bits.to_int_trunc (Engine.peek_mem sim "u$store" 5));
  Engine.set_input sim "a" (Bits.of_int ~width:3 5);
  Engine.settle sim;
  Alcotest.(check int) "hardware reads the poke" 0xAB
    (Engine.peek_int sim "o");
  (match Engine.peek_mem sim "nonexistent" 0 with
  | exception Not_found -> ()
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown memory accepted");
  match Engine.peek_mem sim "u$store" 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range address accepted"

let test_builder_errors () =
  let open Circuit.Builder in
  Alcotest.check_raises "undriven output"
    (Invalid_argument "Circuit bad1: signal out is undriven") (fun () ->
      let b = create "bad1" in
      output b "out" 4;
      ignore (finish b));
  Alcotest.check_raises "double drive"
    (Invalid_argument "Circuit bad2: w driven twice") (fun () ->
      let b = create "bad2" in
      let _ = wire b "w" 4 in
      assign b "w" (Expr.const_int ~width:4 0);
      assign b "w" (Expr.const_int ~width:4 1));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Circuit bad3, assign w: expected width 4, got 8")
    (fun () ->
      let b = create "bad3" in
      let _ = wire b "w" 4 in
      assign b "w" (Expr.const_int ~width:8 0);
      ignore (finish b));
  Alcotest.check_raises "missing next"
    (Invalid_argument "Circuit bad4: reg r has no next-state") (fun () ->
      let b = create "bad4" in
      let _ = reg b "r" 4 () in
      ignore (finish b))

let test_comb_loop_detected () =
  let open Circuit.Builder in
  let b = create "looped" in
  let w1 = wire b "w1" 1 in
  let w2 = wire b "w2" 1 in
  assign b "w1" Expr.(~:w2);
  assign b "w2" Expr.(~:w1);
  output b "o" 1;
  assign b "o" w1;
  let c = finish b in
  (match Engine.create c with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the loop" true
        (String.length msg > 0
        && (let has sub =
              let n = String.length msg and m = String.length sub in
              let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
              go 0
            in
            has "combinational loop"))
  | _ -> Alcotest.fail "loop not detected");
  let report = Lint.check c in
  Alcotest.(check bool) "lint flags loop" false (Lint.is_clean report)

let test_lint_clean_counter () =
  let report = Lint.check (counter_circuit ()) in
  Alcotest.(check bool) "clean" true (Lint.is_clean report)

let test_lint_reserved_name () =
  let open Circuit.Builder in
  let b = create "resv" in
  let i = input b "clk" 1 in
  output b "o" 1;
  assign b "o" i;
  let report = Lint.check (finish b) in
  Alcotest.(check bool) "reserved name rejected" false (Lint.is_clean report)

let test_signed_helpers () =
  Alcotest.(check int) "negative roundtrip" (-5)
    (Bits.to_signed_int_exn (Bits.of_signed_int ~width:8 (-5)));
  Alcotest.(check int) "positive roundtrip" 100
    (Bits.to_signed_int_exn (Bits.of_signed_int ~width:8 100));
  Alcotest.(check int) "smul signs" (-600)
    (Bits.to_signed_int_exn
       (Bits.smul (Bits.of_signed_int ~width:8 (-20))
          (Bits.of_signed_int ~width:8 30)));
  (* Smul through the expression evaluator and Verilog printer. *)
  let e =
    Expr.Binop
      (Expr.Smul, Expr.Const (Bits.of_signed_int ~width:8 (-3)),
       Expr.Const (Bits.of_signed_int ~width:8 7))
  in
  Alcotest.(check int) "expr smul" (-21)
    (Bits.to_signed_int_exn (Expr.eval ~env:(fun _ -> raise Not_found) e));
  let printed = Format.asprintf "%a" Expr.pp e in
  Alcotest.(check bool) "verilog uses $signed" true
    (let has sub =
       let n = String.length printed and m = String.length sub in
       let rec go i = i + m <= n && (String.sub printed i m = sub || go (i + 1)) in
       go 0
     in
     has "$signed")

let test_vcd_trace () =
  let sim = Engine.create (counter_circuit ()) in
  Engine.reset sim;
  Engine.set_input sim "enable" (Bits.one 1);
  let vcd = Vcd.trace_to_string sim ~signals:[ "count"; "enable" ] ~cycles:4 in
  let has sub =
    let n = String.length vcd and m = String.length sub in
    let rec go i = i + m <= n && (String.sub vcd i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (has "$enddefinitions");
  Alcotest.(check bool) "var decl" true (has "$var wire 8");
  Alcotest.(check bool) "value change" true (has "b00000011");
  Alcotest.(check bool) "timestamps" true (has "#4");
  (* Unknown signals are rejected. *)
  Alcotest.(check bool) "unknown rejected" true
    (match Vcd.trace_to_string sim ~signals:[ "nope" ] ~cycles:1 with
    | exception Not_found -> true
    | _ -> false)

let test_vparse_counter_roundtrip () =
  let c = counter_circuit () in
  match Vparse.parse_module (Verilog.of_circuit c) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok vm -> (
      Alcotest.(check string) "name" "counter8" vm.Vparse.vname;
      Alcotest.(check int) "one reg" 1 (List.length vm.Vparse.vregs);
      match Vparse.matches_circuit vm c with
      | Ok () -> ()
      | Error es -> Alcotest.failf "mismatch: %s" (String.concat "; " es))

let test_vparse_errors () =
  let expect_error what src =
    match Vparse.parse_module src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected a parse error" what
  in
  expect_error "garbage" "not a module";
  expect_error "unterminated" "module m (a);\n  input a;\n";
  expect_error "bad expression" "module m (a);\n  input a;\n  assign a = ((;\nendmodule";
  expect_error "bad char" "module m (a);\n  input a; %\nendmodule";
  (* A mismatching circuit is detected, not silently accepted. *)
  let c = counter_circuit () in
  let other =
    let open Circuit.Builder in
    let b = create "counter8" in
    let enable = input b "enable" 1 in
    output b "count" 8;
    let q = reg b "q" 8 ~init:(Bits.of_int ~width:8 1) () in
    set_next b "q" Expr.(mux enable (q +: const8 2) q);
    assign b "count" q;
    finish b
  in
  match Vparse.parse_module (Verilog.of_circuit other) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok vm -> (
      match Vparse.matches_circuit vm c with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "different circuits reported equal")

let test_testbench_driver () =
  let tb = Testbench.create (counter_circuit ()) in
  Testbench.expect tb "count" 0;
  Testbench.drive tb "enable" 1;
  Testbench.step tb ~n:3 ();
  Testbench.expect tb "count" 3;
  Testbench.wait_for tb "count" 7;
  (match Testbench.expect tb "count" 9 with
  | exception Testbench.Mismatch _ -> ()
  | _ -> Alcotest.fail "mismatch not raised");
  match Testbench.wait_for tb ~timeout:5 "count" 255 with
  | exception Testbench.Timeout _ -> ()
  | _ -> Alcotest.fail "timeout not raised"

let test_area_counter () =
  let bd = Area.of_circuit (counter_circuit ()) in
  Alcotest.(check int) "register bits" 8 bd.Area.register_bits;
  Alcotest.(check bool) "has gates" true (Area.gates bd > 8);
  let bd_mem =
    let open Circuit.Builder in
    let b = create "with_mem" in
    let a = input b "a" 4 in
    output b "o" 8;
    (match
       memory b "m" ~data_width:8 ~depth:16 ~writes:[] ~reads:[ ("mq", a) ]
     with
    | [ q ] -> assign b "o" q
    | _ -> assert false);
    Area.of_circuit ~include_memories:true (finish b)
  in
  Alcotest.(check int) "memory bits" 128 bd_mem.Area.memory_bits;
  Alcotest.(check bool) "memory gates counted" true (Area.gates bd_mem > 128)

let test_depth_expr_levels () =
  (* The per-operator model directly. *)
  let env = function "a" -> 8 | "b" -> 8 | "c" -> 1 | _ -> raise Not_found in
  let d0 _ = 0 in
  let lv e = Depth.expr_levels ~env d0 e in
  let open Expr in
  let a = var "a" and b = var "b" and c = var "c" in
  Alcotest.(check int) "const free" 0 (lv (const_int ~width:8 5));
  Alcotest.(check int) "wiring free" 0 (lv (select a 3 0));
  Alcotest.(check int) "concat free" 0 (lv (concat [ a; b ]));
  Alcotest.(check int) "and = 1" 1 (lv (a &: b));
  Alcotest.(check int) "not = 1" 1 (lv ~:a);
  Alcotest.(check int) "reduce 8 = 3" 3 (lv (Unop (Reduce_or, a)));
  Alcotest.(check int) "eq = 1 + log2" 4 (lv (a ==: b));
  Alcotest.(check int) "add = 2 log2" 6 (lv (a +: b));
  Alcotest.(check int) "mux adds one" 7 (lv (mux c (a +: b) a));
  (* Leaf depths accumulate. *)
  let dv = function "a" -> 5 | _ -> 0 in
  Alcotest.(check int) "leaf depth propagates" 6
    (Depth.expr_levels ~env dv (a &: b))

let test_depth_basics () =
  (* Two chained ANDs: two levels in and out of the wire. *)
  let open Circuit.Builder in
  let chain =
    let b = create "andchain" in
    let a = input b "a" 1 and c = input b "c" 1 in
    output b "o" 1;
    let m = wire b "m" 1 in
    assign b "m" Expr.(a &: c);
    assign b "o" Expr.(m &: a);
    finish b
  in
  let r = Depth.of_circuit chain in
  Alcotest.(check int) "two and levels" 2 r.Depth.levels;
  Alcotest.(check string) "endpoint is o" "o" r.Depth.endpoint;
  (* A register in the middle cuts the path to one level each side. *)
  let cut =
    let b = create "andcut" in
    let a = input b "a" 1 and c = input b "c" 1 in
    output b "o" 1;
    let m = reg b "m" 1 () in
    set_next b "m" Expr.(a &: c);
    assign b "o" Expr.(m &: a);
    finish b
  in
  Alcotest.(check int) "register cuts path" 1
    (Depth.of_circuit cut).Depth.levels;
  (* Paths are followed through instance boundaries combinationally. *)
  let inverter =
    let b = create "inv1" in
    let a = input b "a" 1 in
    output b "y" 1;
    assign b "y" Expr.(~:a);
    finish b
  in
  let two =
    let b = create "twoinv" in
    let a = input b "a" 1 in
    output b "y" 1;
    let m =
      match
        instantiate b ~name:"u0" inverter ~inputs:[ ("a", a) ]
          ~outputs:[ ("y", "m0") ]
      with
      | [ e ] -> e
      | _ -> assert false
    in
    (match
       instantiate b ~name:"u1" inverter ~inputs:[ ("a", m) ]
         ~outputs:[ ("y", "m1") ]
     with
    | [ e ] -> assign b "y" e
    | _ -> assert false);
    finish b
  in
  Alcotest.(check int) "cross-instance path" 2
    (Depth.of_circuit two).Depth.levels;
  (* Carry-lookahead adder model: 8-bit add = 2 * log2 8 = 6 levels. *)
  let add8 =
    let b = create "add8" in
    let a = input b "a" 8 and c = input b "c" 8 in
    output b "s" 8;
    assign b "s" Expr.(a +: c);
    finish b
  in
  Alcotest.(check int) "adder levels" 6 (Depth.of_circuit add8).Depth.levels;
  (* Memory reads add an address-decode term. *)
  let memrd =
    let b = create "memrd" in
    let a = input b "a" 4 in
    output b "o" 8;
    (match
       memory b "m" ~data_width:8 ~depth:16 ~writes:[] ~reads:[ ("mq", a) ]
     with
    | [ q ] -> assign b "o" q
    | _ -> assert false);
    finish b
  in
  Alcotest.(check int) "memory decode levels" 4
    (Depth.of_circuit memrd).Depth.levels

let test_area_by_instance () =
  let open Circuit.Builder in
  let sub = counter_circuit () in
  let b = create "area_top" in
  let en = input b "en" 1 in
  output b "o" 8;
  let c1 =
    match
      instantiate b ~name:"u0" sub ~inputs:[ ("enable", en) ]
        ~outputs:[ ("count", "n0") ]
    with
    | [ e ] -> e
    | _ -> assert false
  in
  let c2 =
    match
      instantiate b ~name:"u1" sub ~inputs:[ ("enable", en) ]
        ~outputs:[ ("count", "n1") ]
    with
    | [ e ] -> e
    | _ -> assert false
  in
  assign b "o" Expr.(c1 +: c2);
  let top = finish b in
  let rows = Area.by_instance top in
  (match List.find_opt (fun (m, _, _) -> m = "counter8") rows with
  | Some (_, n, g) ->
      Alcotest.(check int) "two instances summed" 2 n;
      let single = Area.gates (Area.of_circuit sub) in
      Alcotest.(check int) "gates doubled" (2 * single) g
  | None -> Alcotest.fail "counter8 missing from the report");
  (match List.find_opt (fun (m, _, _) -> m = "<top-level glue>") rows with
  | Some (_, _, g) -> Alcotest.(check bool) "adder glue counted" true (g > 0)
  | None -> Alcotest.fail "glue row missing");
  (* Heaviest first. *)
  let weights = List.map (fun (_, _, g) -> g) rows in
  Alcotest.(check bool) "sorted descending" true
    (weights = List.sort (fun a b -> compare b a) weights)

(* Structural cross-check of the Area report against the generator's
   real netlists: for every architecture, with and without protection,
   the per-instance and per-module breakdowns must sum exactly to the
   flat [of_circuit] total, and protection must surface its WATCHDOG
   and PARITY modules as visible rows. *)
let test_area_breakdowns_sum () =
  let module G = Bussyn.Generate in
  let module A = Bussyn.Archs in
  let sum rows = List.fold_left (fun acc (_, _, g) -> acc + g) 0 rows in
  let has rows needle =
    List.exists
      (fun (m, _, _) ->
        let n = String.length m and k = String.length needle in
        let rec go i = i + k <= n && (String.sub m i k = needle || go (i + 1)) in
        go 0)
      rows
  in
  List.iter
    (fun arch ->
      let name = G.arch_name arch in
      let gates protect =
        let config = { (A.small_config ~n_pes:2) with A.protect } in
        let r = G.generate arch config in
        let top = r.G.generated.A.top in
        let total = Area.gates (Area.of_circuit top) in
        let inst = Area.by_instance top in
        let by_mod = Area.by_module top in
        Alcotest.(check int)
          (Printf.sprintf "%s by_instance sums (protect=%b)" name protect)
          total (sum inst);
        Alcotest.(check int)
          (Printf.sprintf "%s by_module sums (protect=%b)" name protect)
          total (sum by_mod);
        (* Instance counts in by_instance agree with the netlist. *)
        let counted =
          List.fold_left
            (fun acc (m, n, _) -> if m = Area.glue_row then acc else acc + n)
            0 inst
        in
        Alcotest.(check int)
          (Printf.sprintf "%s instance count (protect=%b)" name protect)
          (List.length top.Circuit.instances)
          counted;
        if protect then begin
          Alcotest.(check bool)
            (Printf.sprintf "%s watchdog counted" name)
            true (has by_mod "watchdog");
          Alcotest.(check bool)
            (Printf.sprintf "%s parity counted" name)
            true
            (has by_mod "parity_gen" || has by_mod "parity_chk")
        end;
        total
      in
      let plain = gates false and protected_ = gates true in
      Alcotest.(check bool)
        (Printf.sprintf "%s protection adds area" name)
        true
        (protected_ > plain))
    [ G.Bfba; G.Gbavi; G.Gbavii; G.Gbaviii; G.Hybrid; G.Splitba; G.Ggba;
      G.Ccba ]

let test_verilog_design_hierarchy () =
  let open Circuit.Builder in
  let sub = counter_circuit () in
  let b = create "top_two" in
  let en = input b "en" 1 in
  output b "o" 8;
  (match
     instantiate b ~name:"u0" sub ~inputs:[ ("enable", en) ]
       ~outputs:[ ("count", "n0") ]
   with
  | [ e ] -> assign b "o" e
  | _ -> assert false);
  let v = Verilog.of_design (finish b) in
  let has sub =
    let n = String.length v and m = String.length sub in
    let rec go i = i + m <= n && (String.sub v i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "contains sub module" true (has "module counter8");
  Alcotest.(check bool) "contains top module" true (has "module top_two");
  Alcotest.(check bool) "instance wired" true (has "counter8 u0");
  Alcotest.(check bool) "clock threaded" true (has ".clk(clk)")

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let test_opt_rules () =
  let open Expr in
  let v = var "v" in
  let z8 = const_int ~width:8 0 in
  let ones8 = Const (Bits.ones 8) in
  Alcotest.(check bool) "x & 0 = 0" true (Opt.expr (v &: z8) = z8);
  Alcotest.(check bool) "x & ~0 = x" true (Opt.expr (v &: ones8) = v);
  Alcotest.(check bool) "x | 0 = x" true (Opt.expr (v |: z8) = v);
  Alcotest.(check bool) "x + 0 = x" true (Opt.expr (v +: z8) = v);
  Alcotest.(check bool) "x ^ 0 = x" true (Opt.expr (v ^: z8) = v);
  Alcotest.(check bool) "~~x = x" true (Opt.expr ~:(~:v) = v);
  Alcotest.(check bool) "mux same arms" true
    (Opt.expr (mux (var "c") v v) = v);
  Alcotest.(check bool) "mux const cond" true
    (Opt.expr (mux (const_int ~width:1 1) v z8) = v);
  Alcotest.(check bool) "const fold" true
    (Opt.expr (const_int ~width:8 3 +: const_int ~width:8 4)
    = const_int ~width:8 7);
  Alcotest.(check bool) "shift 0" true (Opt.expr (Shift_left (v, 0)) = v);
  Alcotest.(check bool) "concat singleton" true (Opt.expr (Concat [ v ]) = v);
  Alcotest.(check bool) "concat consts merge" true
    (Opt.expr (concat [ const_int ~width:4 0xA; const_int ~width:4 0x5 ])
    = const_int ~width:8 0xA5)

(* Random well-typed expressions over a fixed environment. *)
let opt_env_widths = [ ("a", 8); ("b", 8); ("c", 1) ]

let gen_expr =
  let open QCheck.Gen in
  (* Generate expressions of a given width. *)
  let rec gen w depth =
    if depth = 0 then
      oneof
        [
          map (fun v -> Expr.const_int ~width:w (v land 0xFF)) (int_bound 255);
          (match List.filter (fun (_, vw) -> vw = w) opt_env_widths with
          | [] -> map (fun v -> Expr.const_int ~width:w v) (int_bound 1)
          | vars -> map (fun (n, _) -> Expr.Var n) (oneofl vars));
        ]
    else
      let sub = gen w (depth - 1) in
      oneof
        [
          sub;
          map2 (fun a b -> Expr.(a &: b)) sub sub;
          map2 (fun a b -> Expr.(a |: b)) sub sub;
          map2 (fun a b -> Expr.(a ^: b)) sub sub;
          map2 (fun a b -> Expr.(a +: b)) sub sub;
          map2 (fun a b -> Expr.(a -: b)) sub sub;
          map (fun a -> Expr.(~:a)) sub;
          (let* c = gen 1 (depth - 1) in
           map2 (fun a b -> Expr.mux c a b) sub sub);
          map (fun a -> Expr.Shift_left (a, 2)) sub;
          map (fun a -> Expr.Shift_right (a, 3)) sub;
        ]
  in
  gen 8 4

let prop_opt_preserves_semantics =
  QCheck.Test.make ~name:"optimizer preserves evaluation" ~count:300
    (QCheck.make gen_expr)
    (fun e ->
      let env n =
        match n with
        | "a" -> Bits.of_int ~width:8 0xA7
        | "b" -> Bits.of_int ~width:8 0x3C
        | "c" -> Bits.one 1
        | _ -> raise Not_found
      in
      let env2 n =
        match n with
        | "a" -> Bits.of_int ~width:8 0x01
        | "b" -> Bits.of_int ~width:8 0xFF
        | "c" -> Bits.zero 1
        | _ -> raise Not_found
      in
      let o = Opt.expr e in
      Bits.equal (Expr.eval ~env e) (Expr.eval ~env o)
      && Bits.equal (Expr.eval ~env:env2 e) (Expr.eval ~env:env2 o))

let test_opt_circuit_equivalence () =
  (* The optimized counter behaves identically cycle by cycle. *)
  let c = counter_circuit () in
  let o = Opt.circuit c in
  let s1 = Engine.create c and s2 = Engine.create o in
  Engine.reset s1;
  Engine.reset s2;
  for i = 0 to 40 do
    let en = i land 3 <> 0 in
    Engine.set_input s1 "enable" (Bits.of_bool en);
    Engine.set_input s2 "enable" (Bits.of_bool en);
    Engine.step s1;
    Engine.step s2;
    if Engine.peek_int s1 "count" <> Engine.peek_int s2 "count" then
      Alcotest.failf "diverged at step %d" i
  done;
  (* And it never increases the estimated area. *)
  let before, after = Opt.savings c in
  Alcotest.(check bool) "no growth" true (after <= before)

(* Cross-validation: the interpreter against a direct OCaml model of an
   accumulator, over random input sequences. *)
let prop_accumulator_model =
  QCheck.Test.make ~name:"interp matches reference model" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_bound 255))
    (fun inputs ->
      let open Circuit.Builder in
      let b = create "acc" in
      let d = input b "d" 8 in
      output b "sum" 8;
      let s = reg b "s" 8 () in
      set_next b "s" Expr.(s +: d);
      assign b "sum" s;
      let sim = Engine.create (finish b) in
      Engine.reset sim;
      let model = ref 0 in
      List.for_all
        (fun x ->
          Engine.set_input sim "d" (Bits.of_int ~width:8 x);
          Engine.step sim;
          model := (!model + x) land 0xFF;
          Engine.peek_int sim "sum" = !model)
        inputs)

(* ------------------------------------------------------------------ *)
(* Representation boundary: widths around the small-int limit          *)
(* ------------------------------------------------------------------ *)

let test_bits_repr_boundary () =
  (* Width 62 is the widest single-int value; 63+ use limbs.  Arithmetic
     must agree across the boundary. *)
  List.iter
    (fun w ->
      let m = Bits.ones w in
      Alcotest.(check bool)
        (Printf.sprintf "ones+1 wraps at width %d" w)
        true
        (Bits.is_zero (Bits.add m (Bits.one w)));
      Alcotest.(check bool)
        (Printf.sprintf "0-1 is ones at width %d" w)
        true
        (Bits.equal m (Bits.sub (Bits.zero w) (Bits.one w)));
      Alcotest.(check bool)
        (Printf.sprintf "lognot zero at width %d" w)
        true
        (Bits.equal m (Bits.lognot (Bits.zero w)));
      Alcotest.(check int)
        (Printf.sprintf "resize roundtrip at width %d" w)
        99
        (Bits.to_int_exn (Bits.resize (Bits.resize (Bits.of_int ~width:w 99) 120) 30)))
    [ 61; 62; 63; 64; 65 ];
  (* Cross-representation unsigned compare zero-extends. *)
  Alcotest.(check int) "small vs wide equal" 0
    (Bits.compare (Bits.of_int ~width:20 77) (Bits.of_int ~width:100 77));
  Alcotest.(check bool) "small < wide" true
    (Bits.ult (Bits.of_int ~width:20 77) (Bits.shift_left (Bits.one 100) 90));
  (* Selects that straddle limb boundaries of a wide value. *)
  let wide = Bits.shift_left (Bits.of_int ~width:128 0xABCD) 60 in
  Alcotest.(check int) "wide select" 0xABCD
    (Bits.to_int_exn (Bits.select wide 79 60));
  Alcotest.(check int) "wide select offset" 0x5E6
    (Bits.to_int_exn (Bits.select wide 72 61));
  (* Concat crossing the boundary in and out. *)
  let c = Bits.concat (Bits.ones 40) (Bits.zero 30) in
  Alcotest.(check int) "concat width" 70 (Bits.width c);
  Alcotest.(check bool) "low clear" false (Bits.bit c 29);
  Alcotest.(check bool) "high set" true (Bits.bit c 69);
  Alcotest.(check int) "concat select back" 0
    (Bits.to_int_exn (Bits.select c 29 0))

(* ------------------------------------------------------------------ *)
(* Levelize                                                            *)
(* ------------------------------------------------------------------ *)

let test_levelize () =
  (* Diamond: d depends on b and c, both depend on a; a is a source. *)
  let nodes =
    [ ("d", [ "b"; "c" ]); ("b", [ "a" ]); ("c", [ "a" ]); ("x", []) ]
  in
  let order = Flat.levelize_graph nodes in
  let level n = List.assoc n order in
  Alcotest.(check int) "b level" 1 (level "b");
  Alcotest.(check int) "c level" 1 (level "c");
  Alcotest.(check int) "d level" 2 (level "d");
  Alcotest.(check int) "constant level" 0 (level "x");
  (* Dependency-first order. *)
  let pos n =
    let rec go i = function
      | [] -> Alcotest.failf "%s missing from order" n
      | (m, _) :: _ when m = n -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "b before d" true (pos "b" < pos "d");
  Alcotest.(check bool) "c before d" true (pos "c" < pos "d");
  (* Cycles raise with the offending path. *)
  match Flat.levelize_graph [ ("p", [ "q" ]); ("q", [ "p" ]) ] with
  | exception Flat.Combinational_cycle cycle ->
      Alcotest.(check bool) "cycle names both nodes" true
        (List.mem "p" cycle && List.mem "q" cycle)
  | _ -> Alcotest.fail "cycle not detected"

(* A top-level wire named [u$q] collides with the flattened name of
   signal [q] inside instance [u]. *)
let colliding_circuit () =
  let open Circuit.Builder in
  let sub =
    let b = create "leaf" in
    let a = input b "a" 1 in
    output b "q" 1;
    assign b "q" a;
    finish b
  in
  let b = create "colliding" in
  let a = input b "a" 1 in
  let w = wire b "u$q" 1 in
  assign b "u$q" a;
  output b "o" 1;
  (match
     instantiate b ~name:"u" sub ~inputs:[ ("a", a) ]
       ~outputs:[ ("q", "uq") ]
   with
  | [ e ] -> assign b "o" Expr.(e &: w)
  | _ -> assert false);
  finish b

let test_duplicate_signal_instance_path () =
  (* The error must name both instance paths, not just the flat name. *)
  match Engine.create (colliding_circuit ()) with
  | exception Invalid_argument msg ->
      let has sub =
        let n = String.length msg and m = String.length sub in
        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the flat signal" true
        (has "duplicate flat signal u$q");
      Alcotest.(check bool) "names the first declaring instance" true
        (has "<top> (colliding)");
      Alcotest.(check bool) "names the colliding instance" true
        (has "u (leaf)")
  | _ -> Alcotest.fail "duplicate flat signal accepted"

let loop3_circuit () =
  let open Circuit.Builder in
  let b = create "looped3" in
  let w1 = wire b "w1" 1 in
  let w2 = wire b "w2" 1 in
  let w3 = wire b "w3" 1 in
  assign b "w1" Expr.(~:w3);
  assign b "w2" Expr.(~:w1);
  assign b "w3" Expr.(~:w2);
  output b "o" 1;
  assign b "o" w1;
  finish b

let test_comb_loop_has_path () =
  (* The loop diagnostic must list the signals on the cycle instead of
     hanging in a fixed-point loop. *)
  match Engine.create (loop3_circuit ()) with
  | exception Invalid_argument msg ->
      let has sub =
        let n = String.length msg and m = String.length sub in
        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "loop phrase" true (has "combinational loop");
      Alcotest.(check bool) "path arrows" true (has " -> ");
      Alcotest.(check bool) "path names w2" true (has "w2")
  | _ -> Alcotest.fail "loop not detected"

(* ------------------------------------------------------------------ *)
(* Lint against the engines: malformed circuits                        *)
(* ------------------------------------------------------------------ *)

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let rec split_arrows s =
  match index_of s " -> " with
  | None -> [ s ]
  | Some i ->
      String.sub s 0 i
      :: split_arrows (String.sub s (i + 4) (String.length s - i - 4))

let buffer_circuit () =
  let open Circuit.Builder in
  let b = create "buffer" in
  let a = input b "a" 1 in
  output b "o" 1;
  assign b "o" a;
  finish b

(* A 2-node loop that [readers] outputs read, so a depth-first search
   can enter the cycle from outside it. *)
let loop2_circuit ~readers =
  let open Circuit.Builder in
  let b = create "looped2" in
  let w1 = wire b "w1" 1 in
  let w2 = wire b "w2" 1 in
  assign b "w1" Expr.(~:w2);
  assign b "w2" Expr.(~:w1);
  for i = 0 to readers - 1 do
    let o = Printf.sprintf "o%d" i in
    output b o 1;
    assign b o w1
  done;
  finish b

(* [w = ~uo] where [uo] is [w] passed through a buffer instance [u]. *)
let instance_loop_circuit () =
  let open Circuit.Builder in
  let b = create "inst_loop" in
  let w = wire b "w" 1 in
  (match
     instantiate b ~name:"u" (buffer_circuit ()) ~inputs:[ ("a", w) ]
       ~outputs:[ ("o", "uo") ]
   with
  | [ uo ] -> assign b "w" Expr.(~:uo)
  | _ -> assert false);
  output b "o" 1;
  assign b "o" w;
  finish b

(* A memory read port whose address is its own data. *)
let memory_loop_circuit () =
  let open Circuit.Builder in
  let b = create "mem_loop" in
  let a = wire b "a" 2 in
  (match
     memory b "m" ~data_width:2 ~depth:4 ~writes:[] ~reads:[ ("rd", a) ]
   with
  | [ rd ] ->
      assign b "a" rd;
      output b "o" 2;
      assign b "o" rd
  | _ -> assert false);
  finish b

(* [msg] names a closed cycle of [c]'s combinational graph: the first
   node equals the last, no other node repeats, and in each [a -> b]
   step [b] is a variable of [a]'s driver. *)
let check_cycle c who msg =
  let d = Flat.flatten c in
  let drivers = Hashtbl.create 16 in
  List.iter
    (fun (t, e) -> Hashtbl.replace drivers t (Expr.vars e))
    d.Flat.d_assigns;
  List.iter
    (fun (m : Flat.flat_mem) ->
      List.iter
        (fun (rd, a) -> Hashtbl.replace drivers rd (Expr.vars a))
        m.fm_reads)
    d.Flat.d_mems;
  let marker = "combinational loop: " in
  match index_of msg marker with
  | None -> Alcotest.failf "%s names no loop: %s" who msg
  | Some i ->
      let from = i + String.length marker in
      let nodes =
        split_arrows (String.sub msg from (String.length msg - from))
      in
      let n = List.length nodes in
      if n < 2 || List.hd nodes <> List.nth nodes (n - 1) then
        Alcotest.failf "%s: cycle not closed: %s" who msg;
      let open_part = List.filteri (fun k _ -> k < n - 1) nodes in
      if List.length (List.sort_uniq compare open_part) <> n - 1 then
        Alcotest.failf "%s: a node repeats inside the cycle: %s" who msg;
      List.iteri
        (fun k a ->
          if k < n - 1 then begin
            let b = List.nth nodes (k + 1) in
            match Hashtbl.find_opt drivers a with
            | Some vars when List.mem b vars -> ()
            | _ -> Alcotest.failf "%s: %s does not read %s: %s" who a b msg
          end)
        nodes

let test_lint_flags_engine_rejects () =
  let control = buffer_circuit () in
  ignore (Engine.create ~kind:Engine.Tape control);
  Alcotest.(check bool) "lint accepts the control" true
    (Lint.is_clean (Lint.check control));
  let raw assigns = { control with Circuit.assigns } in
  let raw_reg ~init ~next =
    { control with
      Circuit.regs = [ { Circuit.reg_name = "r"; reg_width = 1; init; next } ] }
  in
  let loops =
    [
      ("2-node loop", loop2_circuit ~readers:20);
      ("3-node loop", loop3_circuit ());
      ("loop through an instance", instance_loop_circuit ());
      ("loop through a memory read port", memory_loop_circuit ());
    ]
  in
  let others =
    [
      ("duplicate flat signal", colliding_circuit ());
      ( "raw record reading an undeclared signal",
        raw [ { Circuit.target = "o"; expr = Expr.var "nope" } ] );
      ( "raw record driving a 1-bit output with a 2-bit constant",
        raw [ { Circuit.target = "o"; expr = Expr.const_int ~width:2 1 } ] );
      ( "raw record with a 2-bit next for a 1-bit register",
        raw_reg ~init:(Bits.zero 1) ~next:(Expr.const_int ~width:2 1) );
      ( "raw record with a 2-bit init for a 1-bit register",
        raw_reg ~init:(Bits.zero 2) ~next:(Expr.const_int ~width:1 1) );
    ]
  in
  let lint_errors name c =
    match (Lint.check c).Lint.errors with
    | [] ->
        Alcotest.failf "%s: the tape engine rejects it, lint calls it clean"
          name
    | errors -> errors
  in
  List.iter
    (fun (name, c) ->
      (match Engine.create ~kind:Engine.Ref c with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: the ref engine accepted it" name);
      match Engine.create ~kind:Engine.Tape c with
      | exception Invalid_argument _ -> ignore (lint_errors name c)
      | _ -> Alcotest.failf "%s: the tape engine accepted it" name)
    others;
  (* Depth reads the same flat design, so it rejects the circuits that
     break flattening or name lookup (it checks no widths). *)
  List.iter
    (fun name ->
      match Depth.of_circuit (List.assoc name others) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: Depth accepted it" name)
    [ "duplicate flat signal"; "raw record reading an undeclared signal" ];
  List.iter
    (fun (name, c) ->
      (match Engine.create ~kind:Engine.Tape c with
      | exception Invalid_argument msg -> check_cycle c (name ^ ", tape") msg
      | _ -> Alcotest.failf "%s: the tape engine accepted it" name);
      (match Depth.of_circuit c with
      | exception Invalid_argument msg -> check_cycle c (name ^ ", depth") msg
      | _ -> Alcotest.failf "%s: Depth accepted it" name);
      (match Engine.create ~kind:Engine.Ref c with
      | exception Invalid_argument msg -> check_cycle c (name ^ ", ref") msg
      | _ -> Alcotest.failf "%s: the ref engine accepted it" name);
      match
        List.filter
          (fun e -> index_of e "combinational loop" <> None)
          (lint_errors name c)
      with
      | [ msg ] -> check_cycle c (name ^ ", lint") msg
      | _ -> Alcotest.failf "%s: lint reports no single loop" name)
    loops

(* ------------------------------------------------------------------ *)
(* Differential: the tape-compiled engine vs the reference engine on   *)
(* the generated bus architectures                                     *)
(* ------------------------------------------------------------------ *)

let differential_cycles = 40

(* Every flattened memory as [(flat name, depth)], sorted, read off a
   state snapshot. *)
let memory_set (st : Flat.state) =
  Array.to_list st.Flat.st_mems
  |> List.map (fun (name, words) -> (name, Array.length words))
  |> List.sort compare

(* Lockstep: drive identical random inputs into both engines and
   compare every flat signal (and finally every memory word) after
   each cycle.  [prepare] installs fault campaigns. *)
let differential ?(prepare = fun _ _ -> ()) name top =
  let slow = Interp_ref.create top in
  let tape = Interp_tape.create top in
  Interp_ref.reset slow;
  Interp_tape.reset tape;
  prepare slow tape;
  let inputs = Circuit.inputs top in
  let sigs = List.sort compare (Interp_ref.signals slow) in
  Alcotest.(check (list (pair string int)))
    (name ^ ": tape same signal set") sigs
    (List.sort compare (Interp_tape.signals tape));
  let sigs = List.map fst sigs in
  Alcotest.(check (list (pair string int)))
    (name ^ ": tape same memory set")
    (memory_set (Interp_ref.export_state slow))
    (memory_set (Interp_tape.export_state tape));
  let st = Random.State.make [| 0x5EED; String.length name |] in
  for cycle = 1 to differential_cycles do
    List.iter
      (fun (p : Circuit.port) ->
        let v = Bits.init p.Circuit.port_width (fun _ -> Random.State.bool st) in
        Interp_ref.set_input slow p.Circuit.port_name v;
        Interp_tape.set_input tape p.Circuit.port_name v)
      inputs;
    Interp_ref.step slow;
    Interp_tape.step tape;
    List.iter
      (fun s ->
        let b = Interp_ref.peek slow s in
        let c = Interp_tape.peek tape s in
        if not (Bits.equal c b) then
          Alcotest.failf "%s: cycle %d: signal %s diverged (tape %s vs ref %s)"
            name cycle s
            (Bits.to_verilog_literal c)
            (Bits.to_verilog_literal b))
      sigs
  done;
  List.iter
    (fun (m, depth) ->
      for a = 0 to depth - 1 do
        let r = Interp_ref.peek_mem slow m a in
        if not (Bits.equal (Interp_tape.peek_mem tape m a) r) then
          Alcotest.failf "%s: memory %s[%d] diverged (tape vs ref)" name m a
      done)
    (memory_set (Interp_ref.export_state slow))

let test_differential_counter () =
  differential "counter8" (counter_circuit ())

let generated_top ?(protect = false) ?(n_pes = 4) arch =
  let config = Bussyn.Archs.small_config ~n_pes in
  let config = { config with Bussyn.Archs.protect } in
  let r = Bussyn.Generate.generate arch config in
  r.Bussyn.Generate.generated.Bussyn.Archs.top

let test_differential_ggba () = differential "ggba" (generated_top Bussyn.Generate.Ggba)
let test_differential_gbavi () = differential "gbavi" (generated_top Bussyn.Generate.Gbavi)
let test_differential_hybrid () = differential "hybrid" (generated_top Bussyn.Generate.Hybrid)
let test_differential_splitba () = differential "splitba" (generated_top Bussyn.Generate.Splitba)

(* Full matrix: every architecture x protect x faults.  The faulted
   cells replay a deterministic campaign drawn from the design itself. *)
let all_archs =
  Bussyn.Generate.
    [ Bfba; Gbavi; Gbavii; Gbaviii; Hybrid; Splitba; Ggba; Ccba ]

let campaign_prepare seed top slow tape =
  let signals = Flat.signals (Flat.flatten top) in
  let campaign =
    Flat.random_campaign signals ~seed ~n:12 ~horizon:differential_cycles
  in
  Interp_ref.inject slow campaign;
  Interp_tape.inject tape campaign

let matrix_case arch protect faulted =
  let name =
    Printf.sprintf "%s%s%s"
      (Bussyn.Generate.arch_name arch)
      (if protect then "+protect" else "")
      (if faulted then "+faults" else "")
  in
  let run () =
    let top = generated_top ~protect arch in
    if faulted then
      differential ~prepare:(campaign_prepare 1301 top) name top
    else differential name top
  in
  Alcotest.test_case name `Slow run

let matrix_cases =
  List.concat_map
    (fun arch ->
      List.concat_map
        (fun protect ->
          List.map (fun faulted -> matrix_case arch protect faulted)
            [ false; true ])
        [ false; true ])
    all_archs

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* Drive the counter for [n] cycles and record "count" after each. *)
let counter_samples ?(n = 10) sim =
  Engine.set_input sim "enable" (Bits.one 1);
  Array.init n (fun _ ->
      Engine.step sim;
      Engine.peek_int sim "count")

let test_inject_flip_and_clear () =
  let sim = Engine.create (counter_circuit ()) in
  Engine.reset sim;
  let golden = counter_samples sim in
  (* A whole-run flip of count's LSB perturbs exactly that bit. *)
  Engine.reset sim;
  Engine.inject sim
    [ { Flat.inj_signal = "count"; inj_fault = Flat.Flip 0;
        inj_start = 0; inj_cycles = 10 } ];
  let flipped = counter_samples sim in
  Array.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "cycle %d: LSB inverted" i)
        (golden.(i) lxor 1) v)
    flipped;
  (* clear_injections + reset restores bit-identical behaviour. *)
  Engine.clear_injections sim;
  Engine.reset sim;
  Alcotest.(check (array int)) "clean after clear" golden
    (counter_samples sim);
  (* A clear in the middle of a fault window: the next settle drops the
     transform from the combinational signal it sat on, on both
     engines. *)
  let top = generated_top ~n_pes:2 Bussyn.Generate.Gbaviii in
  let req = "BAN_0$CBI$bus_req" in
  List.iter
    (fun kind ->
      let name = Engine.kind_to_string kind in
      let clean = Engine.create ~kind top in
      Engine.reset clean;
      Engine.run clean 3;
      let sim = Engine.create ~kind top in
      Engine.reset sim;
      Engine.inject sim
        [ { Flat.inj_signal = req; inj_fault = Flat.Stuck_at_1;
            inj_start = 0; inj_cycles = 10 } ];
      Engine.run sim 3;
      Alcotest.(check int) (name ^ ": stuck in the window") 1
        (Engine.peek_int sim req);
      Engine.clear_injections sim;
      Engine.settle sim;
      Alcotest.(check int) (name ^ ": fault-free after a clear")
        (Engine.peek_int clean req) (Engine.peek_int sim req))
    Engine.all_kinds

let test_inject_stuck_window () =
  let sim = Engine.create (counter_circuit ()) in
  Engine.reset sim;
  Engine.inject sim
    [ { Flat.inj_signal = "count"; inj_fault = Flat.Stuck_at_1;
        inj_start = 3; inj_cycles = 2 } ];
  let samples = counter_samples sim in
  (* The counter itself never reaches 255 in 10 cycles, so all-ones
     readings are exactly the injection window. *)
  let stuck = Array.fold_left (fun n v -> if v = 255 then n + 1 else n) 0 samples in
  Alcotest.(check int) "two stuck cycles" 2 stuck;
  Alcotest.(check int) "last cycle is healthy again" 10 samples.(9)

let test_inject_validation () =
  List.iter
    (fun kind ->
      let sim = Engine.create ~kind (counter_circuit ()) in
      let bad name inj =
        match Engine.inject sim [ inj ] with
        | exception Invalid_argument _ -> ()
        | () ->
            Alcotest.failf "%s: %s accepted" (Engine.kind_to_string kind) name
      in
      bad "unknown signal"
        { Flat.inj_signal = "nonsense"; inj_fault = Flat.Stuck_at_0;
          inj_start = 0; inj_cycles = 1 };
      bad "negative start"
        { Flat.inj_signal = "count"; inj_fault = Flat.Stuck_at_0;
          inj_start = -1; inj_cycles = 1 };
      bad "zero duration"
        { Flat.inj_signal = "count"; inj_fault = Flat.Stuck_at_0;
          inj_start = 0; inj_cycles = 0 };
      (* The oracle takes a flip outside the width as a no-op transform;
         only the tape rejects it. *)
      if kind = Engine.Tape then
        bad "flip bit out of range"
          { Flat.inj_signal = "count"; inj_fault = Flat.Flip 8;
            inj_start = 0; inj_cycles = 1 })
    Engine.all_kinds;
  (* A rejected list installs nothing, not even its valid prefix. *)
  let top = generated_top ~n_pes:2 Bussyn.Generate.Gbaviii in
  let req = "BAN_0$CBI$bus_req" in
  List.iter
    (fun kind ->
      let name = Engine.kind_to_string kind in
      let clean = Engine.create ~kind top in
      Engine.reset clean;
      Engine.run clean 5;
      Alcotest.(check bool) (name ^ ": a stuck-at-1 would show") true
        (Engine.peek_int clean req <> 1);
      let sim = Engine.create ~kind top in
      (match
         Engine.inject sim
           [ { Flat.inj_signal = req; inj_fault = Flat.Stuck_at_1;
               inj_start = 0; inj_cycles = 10 };
             { Flat.inj_signal = "nonsense"; inj_fault = Flat.Stuck_at_0;
               inj_start = 0; inj_cycles = 1 } ]
       with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: unknown signal accepted" name);
      Engine.reset sim;
      Engine.run sim 5;
      Alcotest.(check int) (name ^ ": nothing installed")
        (Engine.peek_int clean req) (Engine.peek_int sim req))
    Engine.all_kinds

let test_random_campaign_deterministic () =
  let sim = Engine.create (generated_top Bussyn.Generate.Gbaviii) in
  let a = Engine.random_campaign sim ~seed:11 ~n:16 ~horizon:40 in
  let b = Engine.random_campaign sim ~seed:11 ~n:16 ~horizon:40 in
  Alcotest.(check int) "sixteen injections" 16 (List.length a);
  Alcotest.(check bool) "same seed, same campaign" true (a = b);
  let c = Engine.random_campaign sim ~seed:12 ~n:16 ~horizon:40 in
  Alcotest.(check bool) "different seed, different campaign" true (a <> c);
  (* Every drawn injection is installable as-is. *)
  Engine.inject sim a;
  List.iter
    (fun (i : Flat.injection) ->
      Alcotest.(check bool) "start within horizon" true
        (i.Flat.inj_start >= 0 && i.Flat.inj_start < 40);
      Alcotest.(check bool) "duration 1-4" true
        (i.Flat.inj_cycles >= 1 && i.Flat.inj_cycles <= 4))
    a

(* The campaign stream is part of every fault report's bytes (inject,
   fuzz campaigns, soak, explore), so pin it: for this design and seed
   the drawn campaign is the literal below, whether it comes from the
   flattened circuit or from either engine. *)
let test_random_campaign_pinned () =
  let top = generated_top Bussyn.Generate.Gbaviii in
  let show =
    List.map (fun (i : Flat.injection) ->
        Printf.sprintf "%s %s %d %d" i.Flat.inj_signal
          (match i.Flat.inj_fault with
          | Flat.Stuck_at_0 -> "stuck0"
          | Flat.Stuck_at_1 -> "stuck1"
          | Flat.Flip b -> Printf.sprintf "flip%d" b)
          i.Flat.inj_start i.Flat.inj_cycles)
  in
  let pinned =
    [
      "GMEM$MEM$we flip0 39 3";
      "BAN_0$w_lb_sel flip0 38 2";
      "SB_0$rdata_out stuck1 26 2";
      "BAN_1$cpu_ack stuck0 30 2";
      "w_sb2_rnw_a stuck1 34 2";
      "BAN_2$CBI$cpu_rnw flip0 13 1";
      "BAN_1$cpu_rdata flip1 36 4";
      "BAN_2$MBI$csb stuck1 0 4";
    ]
  in
  let signals = Flat.signals (Flat.flatten top) in
  Alcotest.(check (list string))
    "flattened circuit draws the pinned stream" pinned
    (show (Flat.random_campaign signals ~seed:11 ~n:8 ~horizon:40));
  List.iter
    (fun kind ->
      let sim = Engine.create ~kind top in
      Alcotest.(check (list string))
        (Engine.kind_to_string kind ^ " draws the pinned stream")
        pinned
        (show (Engine.random_campaign sim ~seed:11 ~n:8 ~horizon:40)))
    Engine.all_kinds

let test_current_cycle () =
  let sim = Engine.create (counter_circuit ()) in
  Engine.reset sim;
  Alcotest.(check int) "fresh" 0 (Engine.current_cycle sim);
  Engine.set_input sim "enable" (Bits.zero 1);
  Engine.run sim 7;
  Alcotest.(check int) "counts steps" 7 (Engine.current_cycle sim);
  Engine.reset sim;
  Alcotest.(check int) "reset restarts" 0 (Engine.current_cycle sim)

(* Both engines under the same campaign must stay in lockstep: the
   faulty differential extends the bit-exactness guarantee to runs
   with injections active. *)
let test_differential_faulty () =
  let top = generated_top Bussyn.Generate.Gbaviii in
  differential ~prepare:(campaign_prepare 77 top) "gbaviii+faults" top

(* ------------------------------------------------------------------ *)
(* In-process marks                                                    *)
(* ------------------------------------------------------------------ *)

let state_equal (a : Flat.state) (b : Flat.state) =
  a.Flat.st_cycle = b.Flat.st_cycle
  && Array.for_all2
       (fun (n, v) (m, w) -> n = m && Bits.equal v w)
       a.Flat.st_values b.Flat.st_values
  && Array.for_all2
       (fun (n, v) (m, w) -> n = m && Array.for_all2 Bits.equal v w)
       a.Flat.st_mems b.Flat.st_mems

(* CPU transactions [lo, hi) of a fixed script over every PE: local
   memory writes, and reads back; returns the read data. *)
let cpu_script tb lo hi =
  List.init (hi - lo) (fun j ->
      let i = lo + j in
      let pe = i mod 4
      and addr = Bussyn.Addrmap.local_mem_base + (i * 7 mod 48) in
      if i mod 3 = 2 then Testbench.Cpu.read tb ~pe ~addr
      else begin
        Testbench.Cpu.write tb ~pe ~addr (i * 37 land 0xFF);
        -1
      end)

(* Every top output, as the observer sees it on each cycle. *)
let record_outputs sim top =
  let trace = ref [] in
  let outputs =
    List.map
      (fun (p : Circuit.port) -> p.Circuit.port_name)
      (Circuit.outputs top)
  in
  Engine.on_cycle sim (fun c ->
      trace := (c, List.map (Engine.peek sim) outputs) :: !trace);
  trace

let same_trace a b =
  List.length a = List.length b
  && List.for_all2
       (fun (c, vs) (c', vs') -> c = c' && List.for_all2 Bits.equal vs vs')
       a b

let test_mark_rewind_replays kind () =
  let top = generated_top Bussyn.Generate.Hybrid in
  let tb = Testbench.create ~engine:kind top in
  let sim = Testbench.engine tb in
  ignore (cpu_script tb 0 12);
  let m = Engine.mark sim and at_mark = Engine.export_state sim in
  let cycle = Testbench.cycles tb in
  let trace = record_outputs sim top in
  let reads = cpu_script tb 12 40 in
  let straight = !trace and final = Engine.export_state sim in
  Alcotest.(check bool) "the run moved the memories" false
    (Array.for_all2
       (fun (_, a) (_, b) -> Array.for_all2 Bits.equal a b)
       at_mark.Flat.st_mems final.Flat.st_mems);
  Testbench.resume tb m;
  Alcotest.(check bool) "rewind restores export_state" true
    (state_equal at_mark (Engine.export_state sim));
  Alcotest.(check int) "resume restores the cycle count" cycle
    (Testbench.cycles tb);
  let trace = record_outputs sim top in
  Alcotest.(check (list int)) "same read data" reads (cpu_script tb 12 40);
  Alcotest.(check bool) "same outputs on every cycle" true
    (same_trace straight !trace);
  Alcotest.(check bool) "same final export_state" true
    (state_equal final (Engine.export_state sim))

(* A design with a register and a memory: the counter's register, and
   a RAM that stores the count at address 3 on every cycle. *)
let counter_ram_circuit () =
  let open Circuit.Builder in
  let b = create "counter_ram" in
  output b "count" 8;
  output b "rdata" 8;
  let q = reg b "q" 8 () in
  set_next b "q" Expr.(q +: const8 1);
  assign b "count" q;
  (match
     memory b "ram" ~data_width:8 ~depth:16
       ~writes:
         [
           {
             Circuit.we = Expr.const_int ~width:1 1;
             waddr = Expr.const_int ~width:4 3;
             wdata = Expr.var "count";
           };
         ]
       ~reads:[ ("ram_q", Expr.const_int ~width:4 3) ]
   with
  | [ rd ] -> assign b "rdata" rd
  | _ -> assert false);
  finish b

(* [matches] against the fault-free run's mark at cycle 12 must say
   what export_state equality says, whether the fault washed out or
   latched. *)
let test_mark_matches_export kind () =
  let top = counter_ram_circuit () in
  let sim = Engine.create ~kind top in
  Engine.reset sim;
  let start = Engine.mark sim in
  Engine.run sim 12;
  let golden = Engine.mark sim and golden_st = Engine.export_state sim in
  let case what signal fault ~masked =
    Engine.clear_injections sim;
    Engine.rewind sim start;
    Engine.inject sim
      [ { Flat.inj_signal = signal; inj_fault = fault; inj_start = 4;
          inj_cycles = 2 } ];
    Engine.run sim 12;
    let same = state_equal golden_st (Engine.export_state sim) in
    Alcotest.(check bool) (what ^ ": export_state equality") masked same;
    Alcotest.(check bool) (what ^ ": matches agrees") same
      (Engine.matches sim golden)
  in
  case "masked transient on a wire" "count" (Flat.Flip 0) ~masked:true;
  case "masked transient on a read port" "rdata" Flat.Stuck_at_1
    ~masked:true;
  case "latched into the register" "q" Flat.Stuck_at_0 ~masked:false;
  Engine.clear_injections sim;
  Engine.rewind sim start;
  Alcotest.(check bool) "rewound engine matches its start" true
    (Engine.matches sim start);
  Alcotest.(check bool) "and not the later mark" false
    (Engine.matches sim golden)

(* A rewind into the middle of a fault window: the fault is active
   again from the next step, before its first settle, so the RAM's
   write port samples the faulted count on the first cycle too. *)
let test_mark_rewind_in_window kind () =
  let sim = Engine.create ~kind (counter_ram_circuit ()) in
  Engine.reset sim;
  Engine.inject sim
    [ { Flat.inj_signal = "count"; inj_fault = Flat.Stuck_at_1;
        inj_start = 2; inj_cycles = 6 } ];
  Engine.run sim 4;
  let m = Engine.mark sim in
  let states () =
    List.init 5 (fun _ ->
        Engine.step sim;
        Engine.export_state sim)
  in
  let straight = states () in
  Engine.rewind sim m;
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "same state %d steps after the mark" (i + 1))
        true (state_equal a b))
    (List.combine straight (states ()))

(* A fault that latches into a memory word only: the RAM circuit has no
   register, so its state is its inputs and its words. *)
let test_mark_matches_memory kind () =
  let top = ram_circuit () in
  let sim = Engine.create ~kind top in
  Engine.reset sim;
  let drive we waddr wdata =
    Engine.set_input sim "we" (Bits.of_int ~width:1 we);
    Engine.set_input sim "waddr" (Bits.of_int ~width:4 waddr);
    Engine.set_input sim "wdata" (Bits.of_int ~width:8 wdata);
    Engine.step sim
  in
  let script () =
    drive 1 3 0x5A;
    drive 1 4 0x11;
    drive 0 0 0;
    drive 0 0 0
  in
  let start = Engine.mark sim in
  script ();
  let golden = Engine.mark sim and golden_st = Engine.export_state sim in
  List.iter
    (fun (what, signal, inj_start, masked) ->
      Engine.clear_injections sim;
      Engine.rewind sim start;
      Engine.inject sim
        [ { Flat.inj_signal = signal; inj_fault = Flat.Flip 7; inj_start;
            inj_cycles = 1 } ];
      script ();
      let same = state_equal golden_st (Engine.export_state sim) in
      Alcotest.(check bool) (what ^ ": export_state equality") masked same;
      Alcotest.(check bool) (what ^ ": matches agrees") same
        (Engine.matches sim golden))
    [
      ("masked: read port", "ram_q", 1, true);
      ("masked: data while not writing", "wdata", 2, true);
      ("latched into a memory word", "wdata", 1, false);
    ]

(* Marks share a memory's words until they are written; no later
   write, on any path, may reach back into a mark.  The RAM spans
   several of a mark's chunks: words 3 and 5 share one, word 40 has
   another. *)
let test_mark_memory_isolation kind () =
  let top = ram_circuit ~addr_width:6 () in
  let sim = Engine.create ~kind top in
  Engine.reset sim;
  let word a = Bits.to_int_trunc (Engine.peek_mem sim "ram" a) in
  let write a v =
    Engine.set_input sim "we" (Bits.one 1);
    Engine.set_input sim "waddr" (Bits.of_int ~width:6 a);
    Engine.set_input sim "wdata" (Bits.of_int ~width:8 v);
    Engine.step sim;
    Engine.set_input sim "we" (Bits.zero 1)
  in
  write 3 0x11;
  write 40 0x99;
  let m1 = Engine.mark sim in
  let m1_again = Engine.mark sim in
  write 3 0x22;
  Alcotest.(check bool) "a clock-edge write leaves the mark" false
    (Engine.matches sim m1);
  let m2 = Engine.mark sim in
  Engine.poke_mem sim "ram" 40 (Bits.of_int ~width:8 0x33);
  Alcotest.(check bool) "a poke leaves the mark" false (Engine.matches sim m2);
  Engine.rewind sim m1;
  Alcotest.(check (pair int int)) "rewind restores the words" (0x11, 0x99)
    (word 3, word 40);
  Alcotest.(check bool) "matches after rewind" true (Engine.matches sim m1);
  Alcotest.(check bool) "a mark with no write between shares the state" true
    (Engine.matches sim m1_again);
  Alcotest.(check bool) "the later mark differs" false (Engine.matches sim m2);
  write 3 0x44;
  Engine.rewind sim m2;
  Alcotest.(check (pair int int)) "the later mark kept its words" (0x22, 0x99)
    (word 3, word 40);
  Engine.rewind sim m1;
  Alcotest.(check int) "writes after a rewind leave the mark" 0x11 (word 3);
  Engine.reset sim;
  Alcotest.(check bool) "reset leaves the mark" false (Engine.matches sim m1);
  Engine.rewind sim m1;
  Alcotest.(check bool) "rewind after reset" true (Engine.matches sim m1);
  let st = Engine.export_state sim in
  write 5 0x55;
  let m3 = Engine.mark sim in
  Engine.import_state sim st;
  Alcotest.(check bool) "import_state leaves the mark" false
    (Engine.matches sim m3);
  Alcotest.(check int) "import_state restored the word" 0 (word 5);
  Engine.rewind sim m3;
  Alcotest.(check (list int)) "rewind after import_state" [ 0x11; 0x55; 0x99 ]
    [ word 3; word 5; word 40 ]

let test_mark_foreign kind () =
  let top = ram_circuit () in
  let a = Engine.create ~kind top and b = Engine.create ~kind top in
  let other_kind =
    Engine.create ~kind:(if kind = Engine.Tape then Engine.Ref else Engine.Tape)
      top
  in
  let other_circuit = Engine.create ~kind (counter_circuit ()) in
  let m = Engine.mark a in
  List.iter
    (fun (what, sim) ->
      (match Engine.rewind sim m with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "rewind accepted a mark from %s" what);
      match Engine.matches sim m with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "matches accepted a mark from %s" what)
    [
      ("another engine of the circuit", b);
      ("the other engine kind", other_kind);
      ("another circuit", other_circuit);
    ];
  Alcotest.(check bool) "its own engine accepts it" true (Engine.matches a m)

let mark_cases =
  List.concat_map
    (fun kind ->
      let k = Engine.kind_to_string kind in
      [
        Alcotest.test_case ("rewind replays the run, " ^ k) `Quick
          (test_mark_rewind_replays kind);
        Alcotest.test_case ("matches = export_state equality, " ^ k) `Quick
          (test_mark_matches_export kind);
        Alcotest.test_case ("rewind into a fault window, " ^ k) `Quick
          (test_mark_rewind_in_window kind);
        Alcotest.test_case ("matches on a memory fault, " ^ k) `Quick
          (test_mark_matches_memory kind);
        Alcotest.test_case ("later writes leave a mark, " ^ k) `Quick
          (test_mark_memory_isolation kind);
        Alcotest.test_case ("foreign marks rejected, " ^ k) `Quick
          (test_mark_foreign kind);
      ])
    Engine.all_kinds

(* ------------------------------------------------------------------ *)
(* Idle-stretch batching: observers must fire at identical cycles with *)
(* identical values whether or not [run] batches                       *)
(* ------------------------------------------------------------------ *)

(* Drive a generated design through a burst of traffic followed by a
   long idle stretch (constant inputs), recording (cycle, out-signal)
   pairs from an observer.  The batched engine must produce exactly the
   per-step engine's trace, and land in the same final state. *)
let test_idle_batching_observers () =
  let top = generated_top Bussyn.Generate.Gbavi in
  let inputs = Circuit.inputs top in
  let outs =
    List.map (fun (p : Circuit.port) -> p.Circuit.port_name)
      (Circuit.outputs top)
  in
  let drive sim_set sim_step sim_run =
    (* Burst: 10 cycles of pseudo-random inputs; idle: 200 cycles with
       everything held at zero (stepped via [run], so the tape engine
       batches); another burst; another idle stretch. *)
    let st = Random.State.make [| 0xBA7C4 |] in
    let burst n =
      for _ = 1 to n do
        List.iter
          (fun (p : Circuit.port) ->
            sim_set p.Circuit.port_name
              (Bits.init p.Circuit.port_width (fun _ -> Random.State.bool st)))
          inputs;
        sim_step ()
      done
    in
    let idle n =
      List.iter
        (fun (p : Circuit.port) ->
          sim_set p.Circuit.port_name (Bits.zero p.Circuit.port_width))
        inputs;
      sim_run n
    in
    burst 10; idle 200; burst 10; idle 200
  in
  (* Per-step reference engine: the unbatched truth. *)
  let sim_ref = Interp_ref.create top in
  Interp_ref.reset sim_ref;
  let ref_trace = ref [] in
  Interp_ref.on_cycle sim_ref (fun c ->
      List.iter
        (fun o -> ref_trace := (c, o, Interp_ref.peek sim_ref o) :: !ref_trace)
        outs);
  drive (Interp_ref.set_input sim_ref) (fun () -> Interp_ref.step sim_ref)
    (fun n -> Interp_ref.run sim_ref n);
  (* Batched tape engine. *)
  let tape = Interp_tape.create top in
  Interp_tape.reset tape;
  let tape_trace = ref [] in
  Interp_tape.on_cycle tape (fun c ->
      List.iter
        (fun o -> tape_trace := (c, o, Interp_tape.peek tape o) :: !tape_trace)
        outs);
  drive (Interp_tape.set_input tape) (fun () -> Interp_tape.step tape)
    (fun n -> Interp_tape.run tape n);
  Alcotest.(check int)
    "same cycle count" (Interp_ref.current_cycle sim_ref)
    (Interp_tape.current_cycle tape);
  let ref_trace = List.rev !ref_trace and tape_trace = List.rev !tape_trace in
  Alcotest.(check int)
    "same number of observer firings" (List.length ref_trace)
    (List.length tape_trace);
  List.iter2
    (fun (c1, o1, v1) (c2, o2, v2) ->
      if c1 <> c2 || o1 <> o2 || not (Bits.equal v1 v2) then
        Alcotest.failf
          "observer trace diverged: ref (%d, %s, %s) vs tape (%d, %s, %s)" c1
          o1
          (Bits.to_verilog_literal v1)
          c2 o2
          (Bits.to_verilog_literal v2))
    ref_trace tape_trace;
  (* Final states bit-identical. *)
  List.iter
    (fun s ->
      if not (Bits.equal (Interp_ref.peek sim_ref s) (Interp_tape.peek tape s))
      then
        Alcotest.failf "final state diverged on %s" s)
    (List.map fst (Interp_ref.signals sim_ref));
  List.iter
    (fun (m, depth) ->
      for a = 0 to depth - 1 do
        if
          not
            (Bits.equal
               (Interp_ref.peek_mem sim_ref m a)
               (Interp_tape.peek_mem tape m a))
        then Alcotest.failf "final memory %s[%d] diverged" m a
      done)
    (memory_set (Interp_ref.export_state sim_ref))

(* An observer that perturbs the simulation mid-batch (re-driving an
   input at a scheduled cycle) must break the batch at exactly that
   cycle: the tape engine's subsequent behaviour must match a per-step
   reference engine doing the same thing. *)
let test_idle_batching_observer_perturbs () =
  let top = counter_circuit () in
  let run_engine set step_n peek on_cycle current_cycle =
    let trace = ref [] in
    on_cycle (fun c ->
        if c = 57 then set "enable" (Bits.one 1);
        if c = 58 then set "enable" (Bits.zero 1);
        trace := (c, peek "count") :: !trace);
    set "enable" (Bits.zero 1);
    step_n 100;
    ignore (current_cycle ());
    List.rev !trace
  in
  let sim_ref = Interp_ref.create top in
  Interp_ref.reset sim_ref;
  let ref_trace =
    run_engine (Interp_ref.set_input sim_ref)
      (fun n ->
        for _ = 1 to n do
          Interp_ref.step sim_ref
        done)
      (Interp_ref.peek_int sim_ref) (Interp_ref.on_cycle sim_ref)
      (fun () -> Interp_ref.current_cycle sim_ref)
  in
  let tape = Interp_tape.create top in
  Interp_tape.reset tape;
  let tape_trace =
    run_engine (Interp_tape.set_input tape)
      (fun n -> Interp_tape.run tape n)
      (Interp_tape.peek_int tape) (Interp_tape.on_cycle tape)
      (fun () -> Interp_tape.current_cycle tape)
  in
  Alcotest.(check (list (pair int int)))
    "perturbing observer: identical traces" ref_trace tape_trace;
  Alcotest.(check int)
    "perturbing observer: same final count"
    (Interp_ref.peek_int sim_ref "count")
    (Interp_tape.peek_int tape "count")

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_concat_select;
      prop_add_comm;
      prop_sub_inverse;
      prop_not_involutive;
      prop_binary_string_roundtrip;
      prop_hex_string_roundtrip;
      prop_mul_matches_int;
      prop_smul_matches_int;
      prop_shift_consistent;
      prop_accumulator_model;
      prop_opt_preserves_semantics;
    ]

let () =
  Alcotest.run "rtl"
    [
      ( "bits",
        [
          Alcotest.test_case "basics" `Quick test_bits_basics;
          Alcotest.test_case "wide" `Quick test_bits_wide;
          Alcotest.test_case "wide arithmetic" `Quick
            test_bits_wide_arithmetic;
          Alcotest.test_case "strings" `Quick test_bits_strings;
          Alcotest.test_case "concat/select" `Quick test_bits_concat_select;
          Alcotest.test_case "arith" `Quick test_bits_arith;
          Alcotest.test_case "logic" `Quick test_bits_logic;
          Alcotest.test_case "compare" `Quick test_bits_compare;
          Alcotest.test_case "representation boundary" `Quick
            test_bits_repr_boundary;
        ] );
      ( "expr",
        [
          Alcotest.test_case "width" `Quick test_expr_width;
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "vars" `Quick test_expr_vars;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "counter interp" `Quick test_counter_interp;
          Alcotest.test_case "counter verilog" `Quick test_counter_verilog;
          Alcotest.test_case "hierarchy" `Quick test_hierarchy;
          Alcotest.test_case "memory" `Quick test_memory_interp;
          Alcotest.test_case "memory backdoor" `Quick test_memory_backdoor;
          Alcotest.test_case "builder errors" `Quick test_builder_errors;
          Alcotest.test_case "comb loop" `Quick test_comb_loop_detected;
          Alcotest.test_case "lint clean" `Quick test_lint_clean_counter;
          Alcotest.test_case "lint reserved" `Quick test_lint_reserved_name;
          Alcotest.test_case "area" `Quick test_area_counter;
          Alcotest.test_case "area by instance" `Quick test_area_by_instance;
          Alcotest.test_case "area breakdowns sum to total" `Quick
            test_area_breakdowns_sum;
          Alcotest.test_case "depth" `Quick test_depth_basics;
          Alcotest.test_case "depth operators" `Quick test_depth_expr_levels;
          Alcotest.test_case "signed" `Quick test_signed_helpers;
          Alcotest.test_case "vcd" `Quick test_vcd_trace;
          Alcotest.test_case "vparse roundtrip" `Quick
            test_vparse_counter_roundtrip;
          Alcotest.test_case "vparse errors" `Quick test_vparse_errors;
          Alcotest.test_case "testbench" `Quick test_testbench_driver;
          Alcotest.test_case "opt rules" `Quick test_opt_rules;
          Alcotest.test_case "opt circuit" `Quick test_opt_circuit_equivalence;
          Alcotest.test_case "verilog hierarchy" `Quick
            test_verilog_design_hierarchy;
          Alcotest.test_case "levelize" `Quick test_levelize;
          Alcotest.test_case "duplicate signal path" `Quick
            test_duplicate_signal_instance_path;
          Alcotest.test_case "comb loop path" `Quick test_comb_loop_has_path;
          Alcotest.test_case "lint flags what the engines reject" `Quick
            test_lint_flags_engine_rejects;
        ] );
      ( "differential",
        [
          Alcotest.test_case "counter" `Quick test_differential_counter;
          Alcotest.test_case "ggba" `Quick test_differential_ggba;
          Alcotest.test_case "gbavi" `Quick test_differential_gbavi;
          Alcotest.test_case "hybrid" `Quick test_differential_hybrid;
          Alcotest.test_case "splitba" `Quick test_differential_splitba;
          Alcotest.test_case "gbaviii faulty" `Quick test_differential_faulty;
          Alcotest.test_case "idle batching observers" `Quick
            test_idle_batching_observers;
          Alcotest.test_case "idle batching perturbing observer" `Quick
            test_idle_batching_observer_perturbs;
        ]
        @ matrix_cases );
      ( "fault injection",
        [
          Alcotest.test_case "flip and clear" `Quick test_inject_flip_and_clear;
          Alcotest.test_case "stuck window" `Quick test_inject_stuck_window;
          Alcotest.test_case "validation" `Quick test_inject_validation;
          Alcotest.test_case "campaign deterministic" `Quick
            test_random_campaign_deterministic;
          Alcotest.test_case "campaign stream pinned" `Quick
            test_random_campaign_pinned;
          Alcotest.test_case "current cycle" `Quick test_current_cycle;
        ] );
      ("marks", mark_cases);
      ("properties", qcheck_cases);
    ]
