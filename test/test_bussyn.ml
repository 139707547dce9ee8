(* Tests for the BusSyn core: options, the netlister, the seven
   architecture generators (lint cleanliness plus real transactions
   through the generated RTL), presets and the generation front-end. *)

open Bussyn
open Busgen_rtl

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

let test_options_valid_presets () =
  List.iter
    (fun (name, opts) ->
      match Options.validate opts with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "%s: %s" name (String.concat "; " es))
    Preset.all

let test_options_errors () =
  let expect_error what opts =
    match Options.validate opts with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: expected a validation error" what
  in
  expect_error "no subsystems" { Options.subsystems = []; protection = false };
  expect_error "no bans"
    {
      Options.subsystems =
        [ { Options.buses = [ { Options.bus = Options.Gbavi;
                                bus_addr_width = 32; bus_data_width = 64;
                                bififo_depth = None } ];
            bans = [] } ];
      protection = false;
    };
  expect_error "bfba without depth"
    {
      Options.subsystems =
        [ { Options.buses = [ { Options.bus = Options.Bfba;
                                bus_addr_width = 32; bus_data_width = 64;
                                bififo_depth = None } ];
            bans = [ Options.default_mpc755_ban Options.paper_sram_8mb ] } ];
      protection = false;
    };
  expect_error "depth on gbavi"
    {
      Options.subsystems =
        [ { Options.buses = [ { Options.bus = Options.Gbavi;
                                bus_addr_width = 32; bus_data_width = 64;
                                bififo_depth = Some 16 } ];
            bans = [ Options.default_mpc755_ban Options.paper_sram_8mb ] } ];
      protection = false;
    };
  expect_error "cpu and non-cpu"
    {
      Options.subsystems =
        [ { Options.buses = [ { Options.bus = Options.Gbavi;
                                bus_addr_width = 32; bus_data_width = 64;
                                bififo_depth = None } ];
            bans =
              [ { Options.cpu = Some Options.Cpu_mpc755;
                  non_cpu = Some Options.Dct;
                  memories = [] } ] } ];
      protection = false;
    }

let test_options_pp () =
  let s = Format.asprintf "%a" Options.pp Preset.bfba_4pe in
  List.iter
    (fun needle ->
      if
        not
          (let n = String.length s and m = String.length needle in
           let rec go i = i + m <= n && (String.sub s i m = needle || go (i + 1)) in
           go 0)
      then Alcotest.failf "missing %S in rendered options" needle)
    [ "1 subsystem"; "4 BAN"; "BFBA"; "Bi-FIFO depth 1024"; "MPC755"; "SRAM" ]

(* ------------------------------------------------------------------ *)
(* Options text format                                                 *)
(* ------------------------------------------------------------------ *)

let test_options_text_example10 () =
  let src =
    "# Example 10\n\
     subsystem\n\
     \  bus bfba addr 32 data 64 depth 1024\n\
     \  bus gbaviii\n\
     \  ban cpu mpc755 mem sram 20 64\n\
     \  ban cpu mpc755 mem sram 20 64\n\
     \  ban cpu mpc755 mem sram 20 64\n\
     \  ban cpu mpc755 mem sram 20 64\n"
  in
  match Options_text.parse src with
  | Error msg -> Alcotest.fail msg
  | Ok opts -> (
      (match Options.validate opts with
      | Ok () -> ()
      | Error es -> Alcotest.fail (String.concat "; " es));
      match Generate.arch_of_options opts with
      | Ok Generate.Hybrid -> ()
      | Ok a -> Alcotest.failf "dispatched to %s" (Generate.arch_name a)
      | Error e -> Alcotest.fail e)

let test_options_text_roundtrip_presets () =
  List.iter
    (fun (name, opts) ->
      match Options_text.parse (Options_text.print opts) with
      | Ok opts' when opts' = opts -> ()
      | Ok _ -> Alcotest.failf "%s: roundtrip changed the options" name
      | Error msg -> Alcotest.failf "%s: %s" name msg)
    Preset.all

let test_options_text_fft_ban () =
  (* "ban fft" attaches Example 8's FFT BAN; valid with a BFBA bus,
     rejected (as an option error, not a crash) on any other bus. *)
  let src arch =
    Printf.sprintf
      "subsystem\n\
      \  bus %s addr 32 data 32 depth 64\n\
      \  ban cpu mpc755 mem sram 16 32\n\
      \  ban cpu mpc755 mem sram 16 32\n\
      \  ban fft\n"
      arch
  in
  (match Options_text.parse (src "bfba") with
  | Error msg -> Alcotest.fail msg
  | Ok opts -> (
      match Generate.from_options opts with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check bool)
            "fft accelerator selected" true
            (r.Generate.config.Archs.accelerator = Archs.Acc_fft);
          Alcotest.(check bool)
            "lint clean" true
            (Busgen_rtl.Lint.is_clean
               (Busgen_rtl.Lint.check r.Generate.generated.Archs.top))));
  (match Options_text.parse (src "gbavi") with
  | Error msg -> Alcotest.fail msg
  | Ok opts -> (
      match Generate.from_options opts with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "fft on gbavi should be rejected"));
  (* Round-trip of the text form. *)
  match Options_text.parse (src "bfba") with
  | Error msg -> Alcotest.fail msg
  | Ok opts -> (
      match Options_text.parse (Options_text.print opts) with
      | Ok opts' when opts' = opts -> ()
      | Ok _ -> Alcotest.fail "fft ban roundtrip changed the options"
      | Error msg -> Alcotest.fail msg)

let test_options_text_errors () =
  let expect what src =
    match Options_text.parse src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected an error" what
  in
  expect "empty" "";
  expect "bus before subsystem" "bus bfba\n";
  expect "bad bus type" "subsystem\nbus plb\n";
  expect "bad cpu" "subsystem\nban cpu z80\n";
  expect "bad number" "subsystem\nbus bfba addr many\n";
  expect "dangling token" "subsystem\nnonsense\n";
  expect "bad mem arity" "subsystem\nban cpu mpc755 mem sram 20\n";
  expect "bad protection value" "protection maybe\nsubsystem\nbus bfba\n"

(* The protection flag survives the text form and reaches the
   generated hardware. *)
let test_options_text_protection () =
  let src =
    "protection on\n\
     subsystem\n\
    \  bus gbaviii addr 32 data 32\n\
    \  ban cpu mpc755 mem sram 16 32\n\
    \  ban cpu mpc755 mem sram 16 32\n"
  in
  match Options_text.parse src with
  | Error msg -> Alcotest.fail msg
  | Ok opts -> (
      Alcotest.(check bool) "parsed on" true opts.Options.protection;
      (match Options_text.parse (Options_text.print opts) with
      | Ok opts' when opts' = opts -> ()
      | Ok _ -> Alcotest.fail "protection roundtrip changed the options"
      | Error msg -> Alcotest.fail msg);
      match Generate.from_options opts with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check bool) "config protected" true
            r.Generate.config.Archs.protect;
          Alcotest.(check bool) "watchdog generated" true
            (List.exists
               (fun c ->
                 let cn = Circuit.name c in
                 String.length cn >= 8 && String.sub cn 0 8 = "watchdog")
               (Circuit.sub_circuits r.Generate.generated.Archs.top)))

(* ------------------------------------------------------------------ *)
(* Address map                                                         *)
(* ------------------------------------------------------------------ *)

let test_addrmap_disjoint () =
  (* Every BAN-level window of the paper configuration (20-bit local
     memory) occupies its own address range. *)
  let maw = 20 in
  let windows =
    [ ("local", Addrmap.local_mem_base, 1 lsl maw);
      ("own_hs", Addrmap.own_hs_base, 2);
      ("own_fifo", Addrmap.own_fifo_base, 4);
      ("peer", Addrmap.peer_base, Addrmap.peer_window_words);
      ("global", Addrmap.global_base, Addrmap.global_window_words);
      ("prevmem", Addrmap.prevmem_base, 1 lsl maw);
      ("fft", Addrmap.fft_base, Addrmap.fft_window_words) ]
  in
  List.iteri
    (fun i (n1, b1, s1) ->
      List.iteri
        (fun j (n2, b2, s2) ->
          if i < j && b1 < b2 + s2 && b2 < b1 + s1 then
            Alcotest.failf "windows %s and %s overlap" n1 n2)
        windows)
    windows;
  (* Each window base is size-aligned so the busmux's power-of-two
     decode holds (sizes are rounded up to a power of two). *)
  List.iter
    (fun (n, b, s) ->
      let rec pow2 w = if w >= s then w else pow2 (2 * w) in
      let p = pow2 1 in
      if b mod p <> 0 then Alcotest.failf "window %s base not aligned" n)
    windows;
  (* SplitBA and CCBA banks never collide for the paper's sizes. *)
  List.iter
    (fun i ->
      Alcotest.(check bool) "splitba banks ascend" true
        (Addrmap.splitba_subsystem_base i
        < Addrmap.splitba_subsystem_base (i + 1));
      Alcotest.(check bool) "ccba banks ascend" true
        (Addrmap.ccba_local_base i < Addrmap.ccba_local_base (i + 1)))
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Netlister                                                           *)
(* ------------------------------------------------------------------ *)

module Spec = Busgen_wirelib.Spec

let counter_circuit =
  let open Circuit.Builder in
  let b = create "tiny_counter" in
  let enable = input b "enable" 1 in
  output b "count" 4;
  let q = reg b "q" 4 () in
  set_next b "q" Expr.(mux enable (q +: const_int ~width:4 1) q);
  assign b "count" q;
  finish b

let ep m p msb lsb =
  { Spec.m_ref = Spec.Exact m; pname = p; wmsb = msb; wlsb = lsb }

let wire name width (m1, p1) (m2, p2) =
  { Spec.w_name = name; w_width = width;
    end1 = ep m1 p1 (width - 1) 0; end2 = ep m2 p2 (width - 1) 0 }

let test_netlist_basic () =
  (* Two counters; the first's output drives nothing, the second's is
     exported.  The boundary supplies both enables from one input. *)
  let elements =
    [ { Netlist.el_name = "C1"; el_circuit = counter_circuit };
      { Netlist.el_name = "C2"; el_circuit = counter_circuit } ]
  in
  let entry =
    { Spec.lib_name = "t";
      wires =
        [
          wire "w_en1" 1 ("TOP", "en") ("C1", "enable");
          wire "w_en2" 1 ("TOP", "en") ("C2", "enable");
          wire "w_out" 4 ("C2", "count") ("TOP", "value");
        ] }
  in
  let c, info = Netlist.build ~name:"nl" ~boundary:"TOP" ~elements ~entry () in
  Alcotest.(check (list string)) "inputs" [ "en" ] info.Netlist.exported_inputs;
  Alcotest.(check (list string)) "outputs" [ "value" ]
    info.Netlist.exported_outputs;
  Alcotest.(check (list string)) "dangling" [ "C1.count" ] info.Netlist.dangling;
  let sim = Engine.create c in
  Engine.reset sim;
  Engine.set_input sim "en" (Bits.of_bool true);
  Engine.run sim 5;
  Alcotest.(check int) "counts" 5 (Engine.peek_int sim "value")

let test_netlist_rom_composition () =
  (* A Module Library ROM wired through the netlister: the image is
     addressable from the boundary and survives reset. *)
  let rom =
    Busgen_modlib.Catalog.create
      (Busgen_modlib.Catalog.Spec_rom
         { Busgen_modlib.Rom.data_width = 16;
           contents = [ 0xCAFE; 0xBEEF; 0x1234 ] })
  in
  let elements = [ { Netlist.el_name = "BOOT"; el_circuit = rom } ] in
  let entry =
    { Spec.lib_name = "rom_t";
      wires =
        [
          wire "w_csb" 1 ("TOP", "csb") ("BOOT", "csb");
          wire "w_reb" 1 ("TOP", "reb") ("BOOT", "reb");
          wire "w_addr" 2 ("TOP", "addr") ("BOOT", "addr");
          wire "w_q" 16 ("BOOT", "rdata") ("TOP", "q");
        ] }
  in
  let c, _ = Netlist.build ~name:"rom_nl" ~boundary:"TOP" ~elements ~entry () in
  Alcotest.(check bool) "lint clean" true
    (Busgen_rtl.Lint.is_clean (Busgen_rtl.Lint.check c));
  let sim = Engine.create c in
  Engine.reset sim;
  Engine.set_input sim "csb" (Bits.of_bool false);
  Engine.set_input sim "reb" (Bits.of_bool false);
  List.iteri
    (fun i want ->
      Engine.set_input sim "addr" (Bits.of_int ~width:2 i);
      Engine.settle sim;
      Alcotest.(check int) (Printf.sprintf "word %d" i) want
        (Engine.peek_int sim "q"))
    [ 0xCAFE; 0xBEEF; 0x1234; 0 ];
  (* The image is restored by reset, not just load time. *)
  Engine.run sim 3;
  Engine.reset sim;
  Engine.set_input sim "addr" (Bits.of_int ~width:2 1);
  Engine.settle sim;
  Alcotest.(check int) "after reset" 0xBEEF (Engine.peek_int sim "q")

let test_netlist_errors () =
  let elements =
    [ { Netlist.el_name = "C1"; el_circuit = counter_circuit } ]
  in
  let build wires =
    Netlist.build ~name:"nl" ~boundary:"TOP" ~elements
      ~entry:{ Spec.lib_name = "t"; wires } ()
  in
  let expect_failure what wires =
    match build wires with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected failure" what
  in
  expect_failure "unconnected input"
    [ wire "w_out" 4 ("C1", "count") ("TOP", "value") ];
  expect_failure "unknown port"
    [ wire "w_x" 1 ("TOP", "en") ("C1", "nonsense");
      wire "w_en" 1 ("TOP", "en2") ("C1", "enable") ];
  expect_failure "unknown module"
    [ wire "w_x" 1 ("TOP", "en") ("C9", "enable");
      wire "w_en" 1 ("TOP", "en2") ("C1", "enable") ];
  expect_failure "two drivers"
    [ wire "w_en" 1 ("TOP", "en") ("C1", "enable");
      wire "w_bad" 4 ("C1", "count") ("C1", "count") ];
  expect_failure "width mismatch"
    [ wire "w_en" 4 ("TOP", "en") ("C1", "enable") ]

let test_netlist_ties () =
  let elements =
    [ { Netlist.el_name = "C1"; el_circuit = counter_circuit } ]
  in
  let entry =
    { Spec.lib_name = "t";
      wires = [ wire "w_out" 4 ("C1", "count") ("TOP", "value") ] }
  in
  let c, info =
    Netlist.build ~name:"nl" ~boundary:"TOP" ~elements ~entry
      ~ties:[ ("C1", "enable", Bits.of_bool true) ]
      ()
  in
  Alcotest.(check (list string)) "tied" [ "C1.enable" ] info.Netlist.tied;
  let sim = Engine.create c in
  Engine.reset sim;
  Engine.run sim 3;
  Alcotest.(check int) "free-running" 3 (Engine.peek_int sim "value")

let test_netlist_multi_fanout () =
  (* One output drives several wires: the first is the primary, the rest
     alias it; every sink still sees the value. *)
  let elements =
    [ { Netlist.el_name = "SRC"; el_circuit = counter_circuit };
      { Netlist.el_name = "A"; el_circuit = counter_circuit };
      { Netlist.el_name = "B"; el_circuit = counter_circuit } ]
  in
  let entry =
    { Spec.lib_name = "t";
      wires =
        [
          wire "w_en" 1 ("TOP", "en") ("SRC", "enable");
          (* SRC.count bit 0 fans out to both enables via two wires. *)
          { Spec.w_name = "w_f1"; w_width = 4;
            end1 = ep "SRC" "count" 3 0; end2 = ep "A" "enable" 0 0 };
          { Spec.w_name = "w_f2"; w_width = 4;
            end1 = ep "SRC" "count" 3 0; end2 = ep "B" "enable" 0 0 };
          wire "w_oa" 4 ("A", "count") ("TOP", "a");
          wire "w_ob" 4 ("B", "count") ("TOP", "b");
        ] }
  in
  let c, _ = Netlist.build ~name:"fanout" ~boundary:"TOP" ~elements ~entry () in
  let sim = Engine.create c in
  Engine.reset sim;
  Engine.set_input sim "en" (Bits.of_bool true);
  Engine.run sim 8;
  (* SRC counts 1..8; its bit 0 enables A and B on odd values: both see
     the same enable stream, so they stay equal. *)
  Alcotest.(check int) "same fanout value" (Engine.peek_int sim "a")
    (Engine.peek_int sim "b");
  Alcotest.(check bool) "they advanced" true (Engine.peek_int sim "a" > 0)

let test_netlist_boundary_width_conflict () =
  let elements =
    [ { Netlist.el_name = "C1"; el_circuit = counter_circuit } ]
  in
  let entry =
    { Spec.lib_name = "t";
      wires =
        [
          wire "w_en" 1 ("TOP", "en") ("C1", "enable");
          (* The same boundary name reused at a different width. *)
          { Spec.w_name = "w_bad"; w_width = 4;
            end1 = ep "TOP" "en" 3 0; end2 = ep "C1" "count" 3 0 };
        ] }
  in
  match Netlist.build ~name:"conflict" ~boundary:"TOP" ~elements ~entry () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "boundary width conflict not caught"

(* ------------------------------------------------------------------ *)
(* Generated architectures: lint and transactions                      *)
(* ------------------------------------------------------------------ *)

let archs_small =
  lazy
    (let c = Archs.small_config ~n_pes:2 in
     [
       ("bfba", Archs.bfba c);
       ("gbavi", Archs.gbavi c);
       ("gbavii", Archs.gbavii c);
       ("gbaviii", Archs.gbaviii c);
       ("hybrid", Archs.hybrid c);
       ("splitba", Archs.splitba c);
       ("ggba", Archs.ggba c);
       ("ccba", Archs.ccba c);
     ])

let test_archs_lint_clean () =
  List.iter
    (fun (name, g) ->
      let report = Lint.check g.Archs.top in
      if not (Lint.is_clean report) then
        Alcotest.failf "%s: %a" name Lint.pp_report report)
    (Lazy.force archs_small)

let test_archs_verilog_roundtrip () =
  (* Every module of every generated system survives the emit-parse-match
     round trip, so the shipped Verilog is structurally faithful. *)
  List.iter
    (fun (name, g) ->
      let top = g.Archs.top in
      List.iter
        (fun c ->
          match Vparse.parse_module (Verilog.of_circuit c) with
          | Error msg ->
              Alcotest.failf "%s/%s: parse failed: %s" name (Circuit.name c)
                msg
          | Ok vm -> (
              match Vparse.matches_circuit vm c with
              | Ok () -> ()
              | Error es ->
                  Alcotest.failf "%s/%s: %s" name (Circuit.name c)
                    (String.concat "; " es)))
        (Circuit.sub_circuits top @ [ top ]))
    (Lazy.force archs_small)

let test_archs_protected_verilog_roundtrip () =
  (* Same round trip with protection on, so the watchdog and parity
     modules (and the glue that wires them) go through emit-parse-match
     too. *)
  let cfg = { (Archs.small_config ~n_pes:2) with Archs.protect = true } in
  List.iter
    (fun (name, build) ->
      let top = (build cfg).Archs.top in
      List.iter
        (fun c ->
          match Vparse.parse_module (Verilog.of_circuit c) with
          | Error msg ->
              Alcotest.failf "%s/%s: parse failed: %s" name (Circuit.name c)
                msg
          | Ok vm -> (
              match Vparse.matches_circuit vm c with
              | Ok () -> ()
              | Error es ->
                  Alcotest.failf "%s/%s: %s" name (Circuit.name c)
                    (String.concat "; " es)))
        (Circuit.sub_circuits top @ [ top ]))
    [
      ("bfba", Archs.bfba); ("gbavi", Archs.gbavi); ("gbavii", Archs.gbavii);
      ("gbaviii", Archs.gbaviii); ("hybrid", Archs.hybrid);
      ("splitba", Archs.splitba); ("ggba", Archs.ggba); ("ccba", Archs.ccba);
    ]

let test_archs_wire_entries_valid () =
  List.iter
    (fun (name, g) ->
      match Busgen_wirelib.Spec.validate g.Archs.entries with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" name msg)
    (Lazy.force archs_small)

(* The protection option instantiates the watchdog and parity hardware
   in every architecture — including GGBA/CCBA, which are reachable
   only through Archs directly — and keeps the system lint-clean. *)
let test_archs_protected () =
  let plain = Archs.small_config ~n_pes:2 in
  let prot = { plain with Archs.protect = true } in
  List.iter
    (fun (name, build) ->
      let g = build prot in
      let report = Lint.check g.Archs.top in
      if not (Lint.is_clean report) then
        Alcotest.failf "%s protected: %a" name Lint.pp_report report;
      let prefixed prefix c =
        let cn = Circuit.name c in
        String.length cn >= String.length prefix
        && String.sub cn 0 (String.length prefix) = prefix
      in
      let subs = Circuit.sub_circuits g.Archs.top in
      let present prefix = List.exists (prefixed prefix) subs in
      Alcotest.(check bool) (name ^ ": watchdog present") true
        (present "watchdog");
      Alcotest.(check bool) (name ^ ": parity generator present") true
        (present "parity_gen");
      Alcotest.(check bool) (name ^ ": parity checker present") true
        (present "parity_chk");
      let subs0 = Circuit.sub_circuits (build plain).Archs.top in
      Alcotest.(check bool) (name ^ ": unprotected has no watchdog") false
        (List.exists (prefixed "watchdog") subs0);
      Alcotest.(check bool) (name ^ ": protection adds hardware") true
        (List.length subs > List.length subs0))
    [
      ("bfba", Archs.bfba); ("gbavi", Archs.gbavi); ("gbavii", Archs.gbavii);
      ("gbaviii", Archs.gbaviii); ("hybrid", Archs.hybrid);
      ("splitba", Archs.splitba); ("ggba", Archs.ggba); ("ccba", Archs.ccba);
    ]

(* A tiny PE-socket driver for the generated RTL. *)
let init_pe_inputs sim n dw =
  for k = 0 to n - 1 do
    let p s = Printf.sprintf "cpu%d_%s" k s in
    Engine.set_input sim (p "req") (Bits.zero 1);
    Engine.set_input sim (p "rnw") (Bits.zero 1);
    Engine.set_input sim (p "addr") (Bits.zero 32);
    Engine.set_input sim (p "wdata") (Bits.zero dw)
  done

let cpu_txn sim k ~dw ~rnw ~addr ~wdata =
  let p s = Printf.sprintf "cpu%d_%s" k s in
  Engine.set_input sim (p "req") (Bits.of_bool true);
  Engine.set_input sim (p "rnw") (Bits.of_bool rnw);
  Engine.set_input sim (p "addr") (Bits.of_int ~width:32 addr);
  Engine.set_input sim (p "wdata") (Bits.of_int ~width:dw wdata);
  Engine.step sim;
  Engine.set_input sim (p "req") (Bits.of_bool false);
  let rec wait n =
    if n > 500 then Alcotest.failf "transaction timeout (cpu%d, 0x%x)" k addr
    else if Engine.peek_int sim (p "ack") = 1 then
      Engine.peek_int sim (p "rdata")
    else begin
      Engine.step sim;
      wait (n + 1)
    end
  in
  let v = wait 0 in
  Engine.step sim;
  v

let dw = 16

let make_sim name =
  let g = List.assoc name (Lazy.force archs_small) in
  let sim = Engine.create g.Archs.top in
  Engine.reset sim;
  init_pe_inputs sim 2 dw;
  sim

let test_bfba_end_to_end () =
  let sim = make_sim "bfba" in
  (* Local memory write/read through CBI + busmux + MBI + SRAM. *)
  ignore (cpu_txn sim 0 ~dw ~rnw:false ~addr:5 ~wdata:0xAB);
  Alcotest.(check int) "local readback" 0xAB
    (cpu_txn sim 0 ~dw ~rnw:true ~addr:5 ~wdata:0);
  (* Paper Example 4 over the generated RTL: PE0 sets PE1's Bi-FIFO
     threshold, pushes a word; PE1 takes the interrupt and pops it. *)
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false
       ~addr:(Addrmap.peer_base + Addrmap.peer_fifo_offset + 1)
       ~wdata:1);
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false
       ~addr:(Addrmap.peer_base + Addrmap.peer_fifo_offset)
       ~wdata:0x77);
  Engine.step sim;
  Alcotest.(check int) "receiver irq" 1 (Engine.peek_int sim "cpu1_irq");
  Alcotest.(check int) "receiver pops the word" 0x77
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:Addrmap.own_fifo_base ~wdata:0);
  (* Handshake: PE0 sets DONE_OP in PE1's HS_REGS; PE1 reads and clears. *)
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false
       ~addr:(Addrmap.peer_base + Addrmap.peer_hs_offset)
       ~wdata:1);
  Alcotest.(check int) "DONE_OP visible to receiver" 1
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:Addrmap.own_hs_base ~wdata:0);
  ignore (cpu_txn sim 1 ~dw ~rnw:false ~addr:Addrmap.own_hs_base ~wdata:0);
  Alcotest.(check int) "DONE_OP cleared" 0
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:Addrmap.own_hs_base ~wdata:0)

let test_gbavi_end_to_end () =
  let sim = make_sim "gbavi" in
  (* Paper Example 3: sender writes its local SRAM, receiver reads it
     through the upstream-memory window across the bus bridge. *)
  ignore (cpu_txn sim 0 ~dw ~rnw:false ~addr:3 ~wdata:0x42);
  Alcotest.(check int) "receiver reads sender's SRAM" 0x42
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:(Addrmap.prevmem_base + 3) ~wdata:0);
  (* Handshake through the forward window. *)
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false ~addr:Addrmap.peer_base ~wdata:1);
  Alcotest.(check int) "DONE_OP set forward" 1
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:Addrmap.own_hs_base ~wdata:0)

let test_gbavii_end_to_end () =
  (* GBAVII = GBAVI's neighbour access plus a global memory. *)
  let sim = make_sim "gbavii" in
  ignore (cpu_txn sim 0 ~dw ~rnw:false ~addr:3 ~wdata:0x21);
  Alcotest.(check int) "neighbour read (GBAVI side)" 0x21
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:(Addrmap.prevmem_base + 3) ~wdata:0);
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false ~addr:(Addrmap.global_base + 2) ~wdata:0x77);
  Alcotest.(check int) "global read (GBAVIII side)" 0x77
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:(Addrmap.global_base + 2) ~wdata:0)

let test_dct_accelerator_option () =
  (* A non-CPU DCT BAN in the options (user option 4.2) attaches the
     hardware DCT to the global bus; PE0 uses it through arbitration. *)
  let opts =
    {
      Options.subsystems =
        [
          {
            Options.buses =
              [ { Options.bus = Options.Gbaviii; bus_addr_width = 32;
                  bus_data_width = 64; bififo_depth = None } ];
            bans =
              [
                Options.default_mpc755_ban Options.paper_sram_8mb;
                Options.default_mpc755_ban Options.paper_sram_8mb;
                { Options.cpu = None; non_cpu = Some Options.Dct;
                  memories = [] };
              ];
          };
        ];
      protection = false;
    }
  in
  (match Generate.config_of_options opts with
  | Ok c ->
      Alcotest.(check bool) "accelerator detected" true
        (c.Archs.accelerator = Archs.Acc_dct)
  | Error e -> Alcotest.fail e);
  (* Drive the DCT through a small generated system. *)
  let c =
    { (Archs.small_config ~n_pes:2) with Archs.accelerator = Archs.Acc_dct }
  in
  let g = Archs.gbaviii c in
  Alcotest.(check bool) "lint clean" true
    (Lint.is_clean (Lint.check g.Archs.top));
  let sim = Engine.create g.Archs.top in
  Engine.reset sim;
  init_pe_inputs sim 2 dw;
  let samples = [| 8.; 16.; 24.; 32.; 40.; 48.; 56.; 64. |] in
  Array.iteri
    (fun i x ->
      ignore
        (cpu_txn sim 0 ~dw ~rnw:false ~addr:(Addrmap.dct_base + i)
           ~wdata:(int_of_float x)))
    samples;
  ignore (cpu_txn sim 0 ~dw ~rnw:false ~addr:(Addrmap.dct_base + 8) ~wdata:1);
  let rec wait n =
    if n > 60 then Alcotest.fail "DCT busy too long"
    else if
      cpu_txn sim 1 ~dw ~rnw:true ~addr:(Addrmap.dct_base + 8) ~wdata:0
      land 2
      = 2
    then ()
    else wait (n + 1)
  in
  wait 0;
  let expected = Busgen_modlib.Dct_ip.reference samples in
  Array.iteri
    (fun u e ->
      let got =
        cpu_txn sim 1 ~dw ~rnw:true ~addr:(Addrmap.dct_base + 16 + u) ~wdata:0
      in
      (* Results are positive here; signed decode not needed for this
         input, but tolerate the 16-bit two's complement encoding. *)
      let got = if got land 0x8000 <> 0 then got - 0x10000 else got in
      if Float.abs (float_of_int got -. e) > 1.0 then
        Alcotest.failf "dct u=%d: %d vs %.2f" u got e)
    expected

let test_ring_of_one () =
  (* A 1-PE BFBA closes the ring on itself (paper Table V's 1-processor
     row): generation and the self-linked wiring must hold up. *)
  let g = Archs.bfba (Archs.small_config ~n_pes:1) in
  Alcotest.(check bool) "lint clean" true
    (Lint.is_clean (Lint.check g.Archs.top));
  let sim = Engine.create g.Archs.top in
  Engine.reset sim;
  init_pe_inputs sim 1 dw;
  (* The PE's peer window now reaches its own FIFO: self-push, self-pop. *)
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false
       ~addr:(Addrmap.peer_base + Addrmap.peer_fifo_offset)
       ~wdata:0x2F);
  Alcotest.(check int) "self loopback" 0x2F
    (cpu_txn sim 0 ~dw ~rnw:true ~addr:Addrmap.own_fifo_base ~wdata:0)

let test_memory_kinds_end_to_end () =
  (* User option 5.1: the local memory template is swappable.  DRAM adds
     MBI latency; DPRAM serves through its port A.  Both still complete
     the local write/read path, and DRAM is measurably slower. *)
  let time_kind mem_kind =
    let c = { (Archs.small_config ~n_pes:2) with Archs.mem_kind } in
    let g = Archs.gbaviii c in
    Alcotest.(check bool) "lint clean" true
      (Lint.is_clean (Lint.check g.Archs.top));
    let sim = Engine.create g.Archs.top in
    Engine.reset sim;
    init_pe_inputs sim 2 dw;
    ignore (cpu_txn sim 0 ~dw ~rnw:false ~addr:9 ~wdata:0x3D);
    let t0 = ref 0 in
    ignore t0;
    Alcotest.(check int) "readback" 0x3D
      (cpu_txn sim 0 ~dw ~rnw:true ~addr:9 ~wdata:0);
    (* Measure one read's latency in steps. *)
    let p s = Printf.sprintf "cpu0_%s" s in
    Engine.set_input sim (p "req") (Bits.of_bool true);
    Engine.set_input sim (p "rnw") (Bits.of_bool true);
    Engine.set_input sim (p "addr") (Bits.of_int ~width:32 9);
    Engine.step sim;
    Engine.set_input sim (p "req") (Bits.of_bool false);
    let n = ref 0 in
    while Engine.peek_int sim (p "ack") <> 1 && !n < 200 do
      Engine.step sim;
      incr n
    done;
    !n
  in
  let sram = time_kind Archs.Mk_sram in
  let dram = time_kind Archs.Mk_dram in
  let dpram = time_kind Archs.Mk_dpram in
  Alcotest.(check bool) "dram slower than sram" true (dram > sram);
  Alcotest.(check bool) "dpram behaves like sram" true (dpram = sram)

let test_gbaviii_end_to_end () =
  let sim = make_sim "gbaviii" in
  (* Global memory shared between PEs, FCFS-arbitrated. *)
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false ~addr:(Addrmap.global_base + 9) ~wdata:0x1234);
  Alcotest.(check int) "global readback by the other PE" 0x1234
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:(Addrmap.global_base + 9) ~wdata:0);
  (* Local memories are private: PE1's local address 9 is untouched. *)
  Alcotest.(check int) "local memory is separate" 0
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:9 ~wdata:0)

let test_depth_of_architectures () =
  (* Depth is the timing half of Table V's area story: its levels are
     pinned on the 31 Table V designs at the paper's own config, and its
     endpoint too at 4 PEs.  The arbitrated single-bus CCBA deepens with
     every master; the bridged GBAVI/GBAVII chains are the deepest at
     4 PEs. *)
  let depth arch n_pes =
    Depth.of_circuit
      (Generate.generate arch (Archs.paper_config ~n_pes)).Generate.generated
        .Archs.top
  in
  let table5 =
    Generate.
      [
        (Bfba, [ (1, 26); (8, 26); (16, 26); (24, 26) ]);
        (Gbavi, [ (1, 38); (8, 38); (16, 38); (24, 38) ]);
        (Gbavii, [ (1, 39); (8, 39); (16, 40); (24, 50) ]);
        (Gbaviii, [ (1, 25); (8, 32); (16, 40); (24, 50) ]);
        (Hybrid, [ (1, 27); (8, 32); (16, 40); (24, 50) ]);
        (Splitba, [ (8, 30); (16, 34); (24, 38) ]);
        (Ggba, [ (1, 24); (8, 31); (16, 39); (24, 50) ]);
        (Ccba, [ (1, 26); (8, 40); (16, 56); (24, 72) ]);
      ]
  in
  List.iter
    (fun (arch, rows) ->
      List.iter
        (fun (n, want) ->
          Alcotest.(check int)
            (Printf.sprintf "%s %d PEs levels" (Generate.arch_name arch) n)
            want (depth arch n).Depth.levels)
        rows)
    table5;
  let ban3 = "BAN_3$CBI$rdata_l (reg D)" in
  List.iter
    (fun (arch, levels, endpoint) ->
      let r = depth arch 4 in
      Alcotest.(check (pair int string))
        (Generate.arch_name arch ^ " 4 PEs")
        (levels, endpoint)
        (r.Depth.levels, r.Depth.endpoint))
    Generate.
      [
        (Bfba, 26, ban3);
        (Gbavi, 38, ban3);
        (Gbavii, 39, ban3);
        (Gbaviii, 28, ban3);
        (Hybrid, 28, ban3);
        (Splitba, 28, "BB_10$ret_rdata_r (reg D)");
        (Ggba, 27, ban3);
        (Ccba, 32, ban3);
      ]

let prop_optimizer_preserves_system =
  (* Strongest equivalence check we can run without a formal tool: the
     expression optimizer applied to a whole generated Bus System must
     leave every CPU-visible behaviour unchanged under random traffic. *)
  QCheck.Test.make ~name:"optimizer preserves generated-system behaviour"
    ~count:8
    QCheck.(
      pair (int_range 0 2)
        (list_of_size (QCheck.Gen.int_range 4 16)
           (pair (int_range 0 63) (int_range 0 0xFFFF))))
    (fun (archi, accesses) ->
      let build =
        match archi with
        | 0 -> Archs.gbaviii
        | 1 -> Archs.ggba
        | _ -> Archs.ccba
      in
      let g = build (Archs.small_config ~n_pes:2) in
      (* CCBA has no 0x400000 global window; use a shared SRAM that
         both PEs can reach on each architecture. *)
      let shared_base =
        if archi = 2 then Addrmap.ccba_local_base 0 else Addrmap.global_base
      in
      let plain = Testbench.create g.Archs.top in
      let opt = Testbench.create (Busgen_rtl.Opt.circuit g.Archs.top) in
      List.for_all
        (fun (off, data) ->
          let pe = off land 1 in
          let addr = shared_base + (off lsr 1) in
          Testbench.Cpu.write plain ~pe ~addr data;
          Testbench.Cpu.write opt ~pe ~addr data;
          let other = 1 - pe in
          Testbench.Cpu.read plain ~pe:other ~addr
          = Testbench.Cpu.read opt ~pe:other ~addr)
        accesses)

let wizard_with answers =
  let remaining = ref answers in
  let read () =
    match !remaining with
    | [] -> None
    | a :: rest ->
        remaining := rest;
        Some a
  in
  let prompts = ref [] in
  let emit line = prompts := line :: !prompts in
  let result = Wizard.run ~read ~emit in
  (result, List.rev !prompts)

let test_wizard_defaults () =
  (* Empty answers take every default: one GBAVIII subsystem, 4 MPC755
     BANs — the paper's standard configuration. *)
  match wizard_with (List.init 30 (fun _ -> "")) with
  | Error e, _ -> Alcotest.fail e
  | Ok opts, _ -> (
      (match Options.validate opts with
      | Ok () -> ()
      | Error es -> Alcotest.fail (String.concat "; " es));
      match Generate.arch_of_options opts with
      | Ok Generate.Gbaviii -> ()
      | Ok a -> Alcotest.failf "dispatched to %s" (Generate.arch_name a)
      | Error e -> Alcotest.fail e)

let test_wizard_retries_and_fft () =
  (* Bad answers are re-asked with a reason; an FFT BAN on a BFBA bus
     walks through cleanly. *)
  let answers =
    [ "1"; "1"; "plb" (* unknown bus: re-asked *); "bfba"; "32";
      "banana" (* not a number: re-asked *); "32"; "512"; "3";
      "mpc755"; "sram"; "16"; "32";
      "mpc755"; "sram"; "16"; "32";
      "fft";
      "maybe" (* not y/n: re-asked *); "n" ]
  in
  match wizard_with answers with
  | Error e, _ -> Alcotest.fail e
  | Ok opts, prompts ->
      Alcotest.(check bool) "re-ask explains the problem" true
        (List.exists
           (fun l ->
             String.length l > 3 && String.sub l 0 3 = "  !")
           prompts);
      let all_bans =
        List.concat_map (fun ss -> ss.Options.bans) opts.Options.subsystems
      in
      Alcotest.(check bool) "fft ban present" true
        (List.exists (fun b -> b.Options.non_cpu = Some Options.Fft) all_bans);
      (match Generate.from_options opts with
      | Ok r ->
          Alcotest.(check bool) "acc fft" true
            (r.Generate.config.Archs.accelerator = Archs.Acc_fft)
      | Error e -> Alcotest.fail e)

let test_wizard_eof () =
  match wizard_with [ "1"; "1" ] with
  | Error _, _ -> ()
  | Ok _, _ -> Alcotest.fail "truncated input accepted"

let test_topology_dot () =
  (* The DOT emitter regenerates the paper's block diagrams: BFBA's
     Fig. 4 ring and SplitBA's Fig. 7 two-hub split must be visible in
     the graph structure. *)
  let contains text sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  let bfba = Topology.dot (Archs.bfba (Archs.small_config ~n_pes:4)) in
  Alcotest.(check bool) "digraph header" true
    (contains bfba "digraph \"bfba_subsys\"");
  List.iter
    (fun e -> Alcotest.(check bool) e true (contains bfba e))
    [ "\"BAN_0\" -> \"BAN_1\""; "\"BAN_1\" -> \"BAN_2\"";
      "\"BAN_2\" -> \"BAN_3\""; "\"BAN_3\" -> \"BAN_0\"" ];
  Alcotest.(check bool) "ring does not skip" false
    (contains bfba "\"BAN_0\" -> \"BAN_2\"");
  let split = Topology.dot (Archs.splitba (Archs.small_config ~n_pes:4)) in
  List.iter
    (fun e -> Alcotest.(check bool) e true (contains split e))
    [ "\"HUB_0\""; "\"HUB_1\""; "\"BB_01\""; "\"BB_10\"" ];
  (* A BAN-level entry renders too, with memories as cylinders. *)
  let g = Archs.bfba (Archs.small_config ~n_pes:2) in
  let ban_entry = List.hd g.Archs.entries in
  let ban_dot = Topology.dot_of_entry ban_entry in
  Alcotest.(check bool) "memory drawn as cylinder" true
    (contains ban_dot "[shape=cylinder]")

let test_topology_from_paper_text () =
  (* Fig. 17 rendered straight from the paper's own Example 8 ASCII:
     the ring A->B->C->D->A plus the FFT spur hanging off B. *)
  let src =
    "%wire subsys_bfba\n\
     w_data 64 BAN[A,B,C,D] data_dn 63 0 BAN[A,B,C,D] data_up 63 0\n\
     w_fft_ad 12 BAN[B] addr_b 11 0 BAN[FFT] addr_fft 11 0\n\
     w_fft_ack 1 BAN[FFT] ack_fft 0 0 BAN[B] ack_b 0 0\n\
     %endwire\n"
  in
  match Busgen_wirelib.Text.parse src with
  | Error e -> Alcotest.fail e
  | Ok [ entry ] ->
      let dot = Topology.dot_of_entry entry in
      let contains sub =
        let n = String.length dot and m = String.length sub in
        let rec go i =
          i + m <= n && (String.sub dot i m = sub || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun e -> Alcotest.(check bool) e true (contains e))
        [ "\"A\" -> \"B\""; "\"B\" -> \"C\""; "\"C\" -> \"D\"";
          "\"D\" -> \"A\""; "\"B\" -> \"FFT\""; "\"FFT\" -> \"B\"" ]
  | Ok _ -> Alcotest.fail "expected one entry"

let test_tbgen_emission () =
  (* The emitted Verilog testbench replays interpreter-verified
     transactions; check the structure and the baked-in expectations. *)
  let g = Archs.gbaviii (Archs.small_config ~n_pes:2) in
  let script =
    Busgen_rtl.Tbgen.smoke_script ~n_pes:2
    @ [
        Busgen_rtl.Tbgen.Write
          { pe = 0; addr = Addrmap.global_base; data = 0x77 };
        Busgen_rtl.Tbgen.Read { pe = 1; addr = Addrmap.global_base };
        Busgen_rtl.Tbgen.Idle 5;
      ]
  in
  let text = Busgen_rtl.Tbgen.emit g.Archs.top ~script in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  let count sub =
    let m = String.length sub in
    let rec go i acc =
      if i + m > String.length text then acc
      else if String.sub text i m = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check bool) "module header" true (contains "module tb_sys_gbaviii;");
  Alcotest.(check bool) "instantiates dut" true (contains "sys_gbaviii dut (");
  Alcotest.(check bool) "pass banner" true (contains "TB PASS: 7 transactions");
  (* One xfer call per non-idle transaction, plus the task bodies. *)
  Alcotest.(check int) "xfer calls" 6
    (count "_xfer(1'b") ;
  Alcotest.(check bool) "idle emitted" true (contains "repeat (5) @(negedge clk);");
  (* The cross-PE global read's expected value was computed on the
     interpreter: PE 1 must see PE 0's 0x77. *)
  Alcotest.(check bool) "cross-PE expectation baked in" true
    (contains "cpu1_xfer(1'b1, 'h400000, 0, 1'b1, 'h77);");
  (* Write it out and make sure the path is as documented. *)
  let dir = Filename.temp_file "tbgen" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Busgen_rtl.Tbgen.write_testbench ~dir g.Archs.top ~script in
  Alcotest.(check bool) "file written" true (Sys.file_exists path);
  Alcotest.(check string) "file name" "tb_sys_gbaviii.v" (Filename.basename path);
  Sys.remove path;
  Sys.rmdir dir

let test_tbgen_rejects_missing_socket () =
  let g = Archs.gbaviii (Archs.small_config ~n_pes:2) in
  match
    Busgen_rtl.Tbgen.emit g.Archs.top
      ~script:[ Busgen_rtl.Tbgen.Read { pe = 7; addr = 0 } ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "PE 7 does not exist; emit should reject"

let test_fft_ban_end_to_end () =
  (* Paper Example 8 / Fig. 17: BFBA with the hardware FFT BAN hung off
     BAN B's dedicated wires.  PE 1 loads a cosine, starts the engine
     through the control word, polls [ack_fft] and reads the spectrum
     back over the bus; the tone must land in bins 1 and 15. *)
  let c =
    { (Archs.small_config ~n_pes:2) with Archs.bus_data_width = 32 }
  in
  let g = Archs.bfba_with_fft c in
  Alcotest.(check bool)
    "lint clean" true
    (Lint.is_clean (Lint.check g.Archs.top));
  let tb = Testbench.create g.Archs.top in
  let x =
    Array.init Busgen_modlib.Fft_ip.points (fun i ->
        { Complex.re =
            0.5 *. cos (2.0 *. Float.pi *. float_of_int i /. 16.0);
          im = 0.0 })
  in
  Array.iteri
    (fun i s ->
      Testbench.Cpu.write tb ~pe:1 ~addr:(Addrmap.fft_base + i)
        (Busgen_modlib.Fft_ip.pack s))
    x;
  Testbench.Cpu.write tb ~pe:1 ~addr:(Addrmap.fft_base + 16) 1;
  let rec wait n =
    if n > 200 then Alcotest.fail "FFT never raised ack_fft"
    else if
      Testbench.Cpu.read tb ~pe:1 ~addr:(Addrmap.fft_base + 16) land 1 = 1
    then ()
    else wait (n + 1)
  in
  wait 0;
  let expected = Busgen_modlib.Fft_ip.reference x in
  Array.iteri
    (fun u e ->
      let got =
        Busgen_modlib.Fft_ip.unpack
          (Testbench.Cpu.read tb ~pe:1 ~addr:(Addrmap.fft_base + u))
      in
      let err = Complex.norm (Complex.sub got e) in
      if err > 0.002 then
        Alcotest.failf "bin %d: |hw - ref| = %.5f" u err)
    expected;
  (* The cosine's energy: X[1] = X[15] = 0.25. *)
  let x1 =
    Busgen_modlib.Fft_ip.unpack
      (Testbench.Cpu.read tb ~pe:1 ~addr:(Addrmap.fft_base + 1))
  in
  Alcotest.(check bool)
    "tone in bin 1" true
    (Float.abs (x1.Complex.re -. 0.25) < 0.002
    && Float.abs x1.Complex.im < 0.002);
  (* PE 0's local traffic still works with the FFT BAN attached. *)
  Testbench.Cpu.write tb ~pe:0 ~addr:0x40 0xBEEF;
  Testbench.Cpu.check_read tb ~pe:0 ~addr:0x40 0xBEEF

let test_fft_wire_library_fidelity () =
  (* The generated Wire Library entry for the FFT BAN carries the
     paper's Example 8 wire names, widths and endpoints, and survives
     the ASCII round trip. *)
  let c =
    { (Archs.small_config ~n_pes:2) with Archs.bus_data_width = 32 }
  in
  let g = Archs.bfba_with_fft c in
  let wires =
    List.concat_map (fun (e : Spec.entry) -> e.Spec.wires) g.Archs.entries
  in
  let find n =
    match List.find_opt (fun w -> w.Spec.w_name = n) wires with
    | Some w -> w
    | None -> Alcotest.failf "wire %s missing from the library" n
  in
  let ad = find "w_fft_ad" in
  Alcotest.(check int) "address is 12 bits" 12 (Spec.endpoint_width ad.Spec.end1);
  (match (ad.Spec.end2.Spec.m_ref, ad.Spec.end2.Spec.pname) with
  | Spec.Exact m, p ->
      Alcotest.(check string) "sink module" "BAN_FFT" m;
      Alcotest.(check string) "sink port" "addr_fft" p
  | _ -> Alcotest.fail "expected exact sink ref");
  List.iter
    (fun n -> ignore (find n))
    [ "w_fft_data"; "w_fft_reb"; "w_fft_web"; "w_fft_srt"; "w_fft_ack";
      "w_fft_q" ];
  (* ack flows FROM the FFT BAN back to BAN B. *)
  let ack = find "w_fft_ack" in
  (match ack.Spec.end1.Spec.m_ref with
  | Spec.Exact m -> Alcotest.(check string) "ack driven by FFT" "BAN_FFT" m
  | _ -> Alcotest.fail "expected exact driver ref");
  match Busgen_wirelib.Text.parse (Busgen_wirelib.Text.print g.Archs.entries) with
  | Ok entries' when entries' = g.Archs.entries -> ()
  | Ok _ -> Alcotest.fail "wire-library text round trip changed the entries"
  | Error msg -> Alcotest.fail msg

let test_wire_library_regenerates_system () =
  (* Full circle: the ASCII Wire Library a generation run emits is, by
     itself, enough to rebuild the identical system — print the
     entries, re-parse them, re-run the netlister with the same Module
     Library elements, and compare the emitted Verilog byte for byte. *)
  let c = Archs.small_config ~n_pes:2 in
  let g = Archs.gbaviii c in
  let text = Busgen_wirelib.Text.print g.Archs.entries in
  match Busgen_wirelib.Text.parse text with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      Alcotest.(check int) "entry count survives"
        (List.length g.Archs.entries)
        (List.length entries);
      let reference = Busgen_rtl.Verilog.of_design g.Archs.top in
      (* Rebuild the TOP level from its parsed entry, reusing the
         already-generated sub-circuits as the element library. *)
      let sys_entry = List.nth entries (List.length entries - 1) in
      let by_name =
        List.map
          (fun (i : Busgen_rtl.Circuit.instance) ->
            (i.Busgen_rtl.Circuit.inst_name, i.Busgen_rtl.Circuit.sub))
          g.Archs.top.Busgen_rtl.Circuit.instances
      in
      let elements =
        List.map
          (fun (nm, sub) -> { Netlist.el_name = nm; el_circuit = sub })
          by_name
      in
      let top', _ =
        Netlist.build ~name:"sys_gbaviii" ~boundary:"SYS" ~elements
          ~entry:sys_entry ()
      in
      Alcotest.(check bool) "identical Verilog" true
        (Busgen_rtl.Verilog.of_design top' = reference)

let test_fft_ban_rejects_bad_config () =
  Alcotest.check_raises "one PE"
    (Invalid_argument "Archs.bfba_with_fft: Example 8 needs at least BANs A and B")
    (fun () -> ignore (Archs.bfba_with_fft (Archs.small_config ~n_pes:1)));
  Alcotest.check_raises "narrow bus"
    (Invalid_argument "Archs.bfba_with_fft: complex samples need a 32-bit bus")
    (fun () -> ignore (Archs.bfba_with_fft (Archs.small_config ~n_pes:2)))

let test_hybrid_end_to_end () =
  let sim = make_sim "hybrid" in
  (* Both communication fabrics work in one system (paper Fig. 6). *)
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false ~addr:(Addrmap.global_base + 4) ~wdata:0x88);
  Alcotest.(check int) "global path" 0x88
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:(Addrmap.global_base + 4) ~wdata:0);
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false
       ~addr:(Addrmap.peer_base + Addrmap.peer_fifo_offset)
       ~wdata:0x3C);
  Alcotest.(check int) "fifo path" 0x3C
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:Addrmap.own_fifo_base ~wdata:0)

let test_splitba_end_to_end () =
  let sim = make_sim "splitba" in
  (* Within-subsystem access. *)
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false
       ~addr:(Addrmap.splitba_subsystem_base 0 + 7)
       ~wdata:0x99);
  Alcotest.(check int) "own subsystem memory" 0x99
    (cpu_txn sim 0 ~dw ~rnw:true
       ~addr:(Addrmap.splitba_subsystem_base 0 + 7)
       ~wdata:0);
  (* Cross-subsystem access through the bus bridge. *)
  Alcotest.(check int) "cross-bridge read" 0x99
    (cpu_txn sim 1 ~dw ~rnw:true
       ~addr:(Addrmap.splitba_subsystem_base 0 + 7)
       ~wdata:0);
  ignore
    (cpu_txn sim 1 ~dw ~rnw:false
       ~addr:(Addrmap.splitba_subsystem_base 1 + 2)
       ~wdata:0x31);
  Alcotest.(check int) "reverse bridge read" 0x31
    (cpu_txn sim 0 ~dw ~rnw:true
       ~addr:(Addrmap.splitba_subsystem_base 1 + 2)
       ~wdata:0)

let test_splitba_three_subsystems () =
  (* Beyond the paper's two: three subsystems over a full bridge mesh.
     Every PE reaches every subsystem's memory in one hop. *)
  let c = { (Archs.small_config ~n_pes:3) with Archs.bus_data_width = dw } in
  let g = Archs.splitba_n ~n_ss:3 c in
  Alcotest.(check bool) "lint clean" true
    (Busgen_rtl.Lint.is_clean (Busgen_rtl.Lint.check g.Archs.top));
  let sim = Engine.create g.Archs.top in
  Engine.reset sim;
  init_pe_inputs sim 3 dw;
  (* PE 0 (ss 0) writes into every subsystem's shared memory. *)
  List.iter
    (fun ss ->
      ignore
        (cpu_txn sim 0 ~dw ~rnw:false
           ~addr:(Addrmap.splitba_subsystem_base ss + ss + 1)
           ~wdata:(0x40 + ss)))
    [ 0; 1; 2 ];
  (* Each subsystem's own PE reads its value back locally, and PE 2
     reads the others across two different bridges. *)
  List.iter
    (fun ss ->
      Alcotest.(check int)
        (Printf.sprintf "ss%d readback by its own PE" ss)
        (0x40 + ss)
        (cpu_txn sim ss ~dw ~rnw:true
           ~addr:(Addrmap.splitba_subsystem_base ss + ss + 1)
           ~wdata:0))
    [ 0; 1; 2 ];
  Alcotest.(check int) "pe2 reads ss0 over the mesh" 0x40
    (cpu_txn sim 2 ~dw ~rnw:true
       ~addr:(Addrmap.splitba_subsystem_base 0 + 1)
       ~wdata:0);
  Alcotest.(check int) "pe2 reads ss1 over the mesh" 0x41
    (cpu_txn sim 2 ~dw ~rnw:true
       ~addr:(Addrmap.splitba_subsystem_base 1 + 2)
       ~wdata:0);
  (* Config checks. *)
  (match Archs.splitba_n ~n_ss:3 (Archs.small_config ~n_pes:4) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "4 PEs over 3 subsystems should be rejected");
  match Archs.splitba_n ~n_ss:1 (Archs.small_config ~n_pes:2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "one subsystem should be rejected"

let test_splitba_options_pipeline () =
  (* Three `subsystem` blocks of splitba buses drive the full options →
     generate pipeline into the mesh extension. *)
  let ss =
    "subsystem\n\
    \  bus splitba addr 32 data 32\n\
    \  ban cpu mpc755 mem sram 16 32\n"
  in
  match Options_text.parse (ss ^ ss ^ ss) with
  | Error e -> Alcotest.fail e
  | Ok opts -> (
      match Generate.from_options opts with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check bool) "splitba arch" true
            (r.Generate.arch = Generate.Splitba);
          Alcotest.(check int) "three subsystems" 3
            r.Generate.config.Archs.n_subsystems;
          Alcotest.(check int) "three PEs" 3 r.Generate.config.Archs.n_pes;
          Alcotest.(check bool) "lint clean" true
            (Busgen_rtl.Lint.is_clean
               (Busgen_rtl.Lint.check r.Generate.generated.Archs.top));
          (* Six bridges: full mesh over three hubs. *)
          let bridges =
            List.length
              (List.filter
                 (fun (sub : Busgen_rtl.Circuit.t) ->
                   let n = Busgen_rtl.Circuit.name sub in
                   String.length n >= 2 && String.sub n 0 2 = "bb")
                 (Busgen_rtl.Circuit.sub_circuits
                    r.Generate.generated.Archs.top))
          in
          Alcotest.(check bool) "bridge module present" true (bridges >= 1))

let test_ggba_ccba_end_to_end () =
  let sim = make_sim "ggba" in
  ignore (cpu_txn sim 0 ~dw ~rnw:false ~addr:11 ~wdata:0x55);
  Alcotest.(check int) "ggba shared memory" 0x55
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:11 ~wdata:0);
  let sim = make_sim "ccba" in
  ignore
    (cpu_txn sim 0 ~dw ~rnw:false ~addr:(Addrmap.ccba_local_base 0 + 2)
       ~wdata:0x66);
  Alcotest.(check int) "ccba cross-processor read" 0x66
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:(Addrmap.ccba_local_base 0 + 2) ~wdata:0)

let test_arbitration_under_contention () =
  (* Both PEs hammer the GBAVIII global memory at the same address; the
     FCFS arbiter must serialise them and both transactions complete. *)
  let sim = make_sim "gbaviii" in
  let p k s = Printf.sprintf "cpu%d_%s" k s in
  for k = 0 to 1 do
    Engine.set_input sim (p k "req") (Bits.of_bool true);
    Engine.set_input sim (p k "rnw") (Bits.of_bool false);
    Engine.set_input sim (p k "addr")
      (Bits.of_int ~width:32 (Addrmap.global_base + k));
    Engine.set_input sim (p k "wdata") (Bits.of_int ~width:dw (0x10 + k))
  done;
  Engine.step sim;
  for k = 0 to 1 do
    Engine.set_input sim (p k "req") (Bits.of_bool false)
  done;
  let acked = Array.make 2 false in
  for _ = 1 to 200 do
    Engine.step sim;
    for k = 0 to 1 do
      if Engine.peek_int sim (p k "ack") = 1 then acked.(k) <- true
    done
  done;
  Alcotest.(check bool) "both complete" true (acked.(0) && acked.(1));
  Alcotest.(check int) "word 0" 0x10
    (cpu_txn sim 0 ~dw ~rnw:true ~addr:(Addrmap.global_base + 0) ~wdata:0);
  Alcotest.(check int) "word 1" 0x11
    (cpu_txn sim 1 ~dw ~rnw:true ~addr:(Addrmap.global_base + 1) ~wdata:0)

(* ------------------------------------------------------------------ *)
(* Generation front-end                                                *)
(* ------------------------------------------------------------------ *)

let test_arch_dispatch () =
  let check_arch name opts expected =
    match Generate.arch_of_options opts with
    | Ok a ->
        Alcotest.(check string) name (Generate.arch_name expected)
          (Generate.arch_name a)
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  check_arch "bfba" Preset.bfba_4pe Generate.Bfba;
  check_arch "gbavi" Preset.gbavi_4pe Generate.Gbavi;
  (match Preset.scaled ~arch:Generate.Gbavii ~n_pes:4 with
  | Some o -> check_arch "gbavii" o Generate.Gbavii
  | None -> Alcotest.fail "no gbavii preset");
  check_arch "gbaviii" Preset.gbaviii_4pe Generate.Gbaviii;
  check_arch "hybrid" Preset.hybrid_4pe Generate.Hybrid;
  check_arch "splitba" Preset.splitba_4pe Generate.Splitba

let test_arch_of_string () =
  (* Every published choice parses (case-insensitively) back to a name
     that round-trips through arch_name. *)
  List.iter
    (fun s ->
      match Generate.arch_of_string (String.uppercase_ascii s) with
      | Ok a ->
          Alcotest.(check string) s s
            (String.lowercase_ascii (Generate.arch_name a))
      | Error m -> Alcotest.failf "%s: %s" s m)
    Generate.arch_choices;
  Alcotest.(check bool) "gbavii is a choice" true
    (List.mem "gbavii" Generate.arch_choices);
  match Generate.arch_of_string "banana" with
  | Ok _ -> Alcotest.fail "parsed a nonsense architecture"
  | Error msg ->
      (* The error must teach the valid vocabulary. *)
      List.iter
        (fun s ->
          let contains hay needle =
            let n = String.length hay and m = String.length needle in
            let rec go i =
              i + m <= n && (String.sub hay i m = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) ("error lists " ^ s) true (contains msg s))
        Generate.arch_choices

let test_mpeg2_ban_rejected_clearly () =
  let opts =
    {
      Options.subsystems =
        [
          {
            Options.buses =
              [ { Options.bus = Options.Gbaviii; bus_addr_width = 32;
                  bus_data_width = 64; bififo_depth = None } ];
            bans =
              [
                Options.default_mpc755_ban Options.paper_sram_8mb;
                { Options.cpu = None; non_cpu = Some Options.Mpeg2_decoder;
                  memories = [] };
              ];
          };
        ];
      protection = false;
    }
  in
  match Generate.from_options opts with
  | Error msg ->
      Alcotest.(check bool) "message names the limitation" true
        (let has sub =
           let n = String.length msg and m = String.length sub in
           let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
           go 0
         in
         has "MPEG2")
  | Ok _ -> Alcotest.fail "hardware MPEG2 BAN should be rejected"

let test_generate_from_options () =
  match Generate.from_options Preset.gbaviii_4pe with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check int) "4 PEs" 4 r.Generate.config.Archs.n_pes;
      Alcotest.(check bool) "fast generation" true
        (r.Generate.generation_time_ms < 5000.);
      Alcotest.(check bool) "has gates" true (r.Generate.gate_count > 1000);
      let expected = (4 + 1) * (1 lsl 20) * 64 in
      (* Local + global SRAMs dominate; arbiter queue memories add a few
         extra bits. *)
      Alcotest.(check bool) "32 MB of memory" true
        (r.Generate.memory_bits >= expected
        && r.Generate.memory_bits < expected + expected / 100)

let test_wire_library_roundtrip () =
  match Generate.from_options Preset.bfba_4pe with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      let text = Generate.wire_library_text r in
      match Busgen_wirelib.Text.parse text with
      | Ok entries ->
          Alcotest.(check bool) "entries survive roundtrip" true
            (List.length entries
            = List.length r.Generate.generated.Archs.entries)
      | Error msg -> Alcotest.failf "emitted wire library unparsable: %s" msg)

let test_scaling_grid () =
  (* Table V structure: generation succeeds across the processor grid,
     time stays sub-second, gates grow with the processor count. *)
  List.iter
    (fun arch ->
      let gates =
        List.filter_map
          (fun n ->
            match Preset.scaled ~arch ~n_pes:n with
            | None -> None
            | Some opts -> (
                match Generate.from_options opts with
                | Ok r -> Some r.Generate.gate_count
                | Error e ->
                    Alcotest.failf "%s %d PEs: %s" (Generate.arch_name arch) n
                      e))
          [ 1; 8; 16 ]
      in
      match gates with
      | [ g1; g8; g16 ] ->
          if not (g1 < g8 && g8 < g16) then
            Alcotest.failf "%s: gates not increasing (%d, %d, %d)"
              (Generate.arch_name arch) g1 g8 g16
      | [ g8; g16 ] ->
          (* SplitBA: no 1-processor configuration (paper: N/A). *)
          if not (g8 < g16) then
            Alcotest.failf "%s: gates not increasing" (Generate.arch_name arch)
      | _ -> Alcotest.fail "unexpected grid")
    [ Generate.Bfba; Generate.Gbavi; Generate.Gbavii; Generate.Gbaviii;
      Generate.Hybrid; Generate.Splitba ]

let test_lint_table5 () =
  (* Every Table V design at the paper's own sizes lints clean, and the
     lint is structural: checking the 8-PE GBAVIII design, whose BANs
     each hold a 2^20-word memory, allocates no memory words. *)
  List.iter
    (fun arch ->
      List.iter
        (fun n_pes ->
          if not (arch = Generate.Splitba && n_pes = 1) then begin
            let g =
              (Generate.generate arch (Archs.paper_config ~n_pes))
                .Generate.generated
            in
            let report = Lint.check g.Archs.top in
            if not (Lint.is_clean report) then
              Alcotest.failf "%s %d PEs: %a" (Generate.arch_name arch) n_pes
                Lint.pp_report report
          end)
        [ 1; 8; 16; 24 ])
    [ Generate.Bfba; Generate.Gbavi; Generate.Gbavii; Generate.Gbaviii;
      Generate.Hybrid; Generate.Splitba; Generate.Ggba; Generate.Ccba ];
  let top =
    (Generate.generate Generate.Gbaviii (Archs.paper_config ~n_pes:8))
      .Generate.generated.Archs.top
  in
  let before = Gc.allocated_bytes () in
  ignore (Lint.check top);
  let mb = (Gc.allocated_bytes () -. before) /. 1048576. in
  if mb >= 32. then
    Alcotest.failf "linting the 8-PE GBAVIII design allocated %.1f MB" mb

let test_write_output () =
  let dir = Filename.temp_file "bussyn" "" in
  Sys.remove dir;
  match Generate.from_options Preset.gbaviii_4pe with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let files = Generate.write_output ~dir r in
      Alcotest.(check bool) "several files" true (List.length files > 5);
      List.iter
        (fun f ->
          if not (Sys.file_exists f) then Alcotest.failf "missing %s" f)
        files;
      (* Top module is the second-to-last .v file in the list. *)
      Alcotest.(check bool) "wires.txt written" true
        (List.exists (fun f -> Filename.basename f = "wires.txt") files);
      List.iter Sys.remove files;
      Sys.rmdir dir

(* Property: any sane configuration generates a lint-clean system whose
   Verilog round-trips, across all architectures. *)
let arch_gen =
  QCheck.Gen.oneofl
    [ Generate.Bfba; Generate.Gbavi; Generate.Gbavii; Generate.Gbaviii;
      Generate.Hybrid; Generate.Splitba; Generate.Ggba; Generate.Ccba ]

let config_gen =
  QCheck.Gen.(
    let* n_pes = int_range 1 5 in
    let* maw = int_range 2 8 in
    let* gmaw = int_range 2 8 in
    let* dw = oneofl [ 16; 32; 64 ] in
    let* depth = oneofl [ 4; 16; 64 ] in
    let* acc = oneofl [ Archs.Acc_none; Archs.Acc_dct ] in
    let* mem_kind = oneofl [ Archs.Mk_sram; Archs.Mk_dram; Archs.Mk_dpram ] in
    return
      {
        (Archs.small_config ~n_pes) with
        Archs.mem_addr_width = maw;
        global_mem_addr_width = gmaw;
        bus_data_width = dw;
        fifo_depth = depth;
        accelerator = acc;
        mem_kind;
      })

let prop_sampled_options_text_roundtrip =
  (* Any valid tree the fuzz sampler can produce — including the
     protection flag and multi-subsystem SplitBA shapes — survives
     Options_text.print followed by parse, structurally intact. *)
  QCheck.Test.make ~name:"sampled options survive print/parse" ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let o = Options.sample ~seed in
      match Options.validate o with
      | Error _ -> QCheck.assume_fail () (* deliberately-broken samples *)
      | Ok () -> (
          match Options_text.parse (Options_text.print o) with
          | Ok o' -> o' = o
          | Error _ -> false))

let prop_random_configs_generate_clean =
  QCheck.Test.make ~name:"random configurations generate clean systems"
    ~count:12
    (QCheck.make QCheck.Gen.(pair arch_gen config_gen))
    (fun (arch, config) ->
      (* SplitBA needs an even PE count of at least 2. *)
      let config =
        match arch with
        | Generate.Splitba ->
            let n = max 2 (config.Archs.n_pes / 2 * 2) in
            { config with Archs.n_pes = n }
        | _ -> config
      in
      let g = (Generate.generate arch config).Generate.generated in
      let clean = Lint.is_clean (Lint.check g.Archs.top) in
      let roundtrip =
        List.for_all
          (fun c ->
            match Vparse.parse_module (Verilog.of_circuit c) with
            | Error _ -> false
            | Ok vm -> Vparse.matches_circuit vm c = Ok ())
          (Circuit.sub_circuits g.Archs.top @ [ g.Archs.top ])
      in
      clean && roundtrip)

let () =
  Alcotest.run "bussyn"
    [
      ( "options",
        [
          Alcotest.test_case "presets valid" `Quick test_options_valid_presets;
          Alcotest.test_case "errors" `Quick test_options_errors;
          Alcotest.test_case "pretty-print" `Quick test_options_pp;
        ] );
      ( "options text",
        [
          Alcotest.test_case "example 10" `Quick test_options_text_example10;
          Alcotest.test_case "preset roundtrip" `Quick
            test_options_text_roundtrip_presets;
          Alcotest.test_case "errors" `Quick test_options_text_errors;
          Alcotest.test_case "fft ban" `Quick test_options_text_fft_ban;
          Alcotest.test_case "protection" `Quick test_options_text_protection;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "basic" `Quick test_netlist_basic;
          Alcotest.test_case "address map disjoint" `Quick
            test_addrmap_disjoint;
          Alcotest.test_case "rom composition" `Quick
            test_netlist_rom_composition;
          Alcotest.test_case "errors" `Quick test_netlist_errors;
          Alcotest.test_case "ties" `Quick test_netlist_ties;
          Alcotest.test_case "multi-fanout" `Quick test_netlist_multi_fanout;
          Alcotest.test_case "boundary width conflict" `Quick
            test_netlist_boundary_width_conflict;
        ] );
      ( "architectures",
        [
          Alcotest.test_case "lint clean" `Quick test_archs_lint_clean;
          Alcotest.test_case "wire entries valid" `Quick
            test_archs_wire_entries_valid;
          Alcotest.test_case "protected generation" `Quick
            test_archs_protected;
          Alcotest.test_case "verilog roundtrip" `Quick
            test_archs_verilog_roundtrip;
          Alcotest.test_case "protected verilog roundtrip" `Quick
            test_archs_protected_verilog_roundtrip;
          Alcotest.test_case "bfba end-to-end" `Quick test_bfba_end_to_end;
          Alcotest.test_case "gbavi end-to-end" `Quick test_gbavi_end_to_end;
          Alcotest.test_case "gbavii end-to-end" `Quick
            test_gbavii_end_to_end;
          Alcotest.test_case "gbaviii end-to-end" `Quick
            test_gbaviii_end_to_end;
          Alcotest.test_case "dct accelerator" `Quick
            test_dct_accelerator_option;
          Alcotest.test_case "memory kinds" `Quick
            test_memory_kinds_end_to_end;
          Alcotest.test_case "ring of one" `Quick test_ring_of_one;
          Alcotest.test_case "combinational depth plausible" `Quick
            test_depth_of_architectures;
          Alcotest.test_case "wizard defaults" `Quick test_wizard_defaults;
          Alcotest.test_case "wizard retries and fft" `Quick
            test_wizard_retries_and_fft;
          Alcotest.test_case "wizard eof" `Quick test_wizard_eof;
          Alcotest.test_case "topology dot" `Quick test_topology_dot;
          Alcotest.test_case "topology from paper text" `Quick
            test_topology_from_paper_text;
          Alcotest.test_case "verilog testbench emission" `Quick
            test_tbgen_emission;
          Alcotest.test_case "testbench missing socket" `Quick
            test_tbgen_rejects_missing_socket;
          Alcotest.test_case "fft ban end-to-end" `Quick
            test_fft_ban_end_to_end;
          Alcotest.test_case "fft ban config checks" `Quick
            test_fft_ban_rejects_bad_config;
          Alcotest.test_case "wire library regenerates system" `Quick
            test_wire_library_regenerates_system;
          Alcotest.test_case "fft wire library fidelity" `Quick
            test_fft_wire_library_fidelity;
          Alcotest.test_case "hybrid end-to-end" `Quick test_hybrid_end_to_end;
          Alcotest.test_case "splitba options pipeline" `Quick
            test_splitba_options_pipeline;
          Alcotest.test_case "splitba three subsystems" `Quick
            test_splitba_three_subsystems;
          Alcotest.test_case "splitba end-to-end" `Quick
            test_splitba_end_to_end;
          Alcotest.test_case "baselines end-to-end" `Quick
            test_ggba_ccba_end_to_end;
          Alcotest.test_case "contention" `Quick
            test_arbitration_under_contention;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_configs_generate_clean;
            prop_optimizer_preserves_system;
            prop_sampled_options_text_roundtrip ] );
      ( "generate",
        [
          Alcotest.test_case "dispatch" `Quick test_arch_dispatch;
          Alcotest.test_case "arch names" `Quick test_arch_of_string;
          Alcotest.test_case "from options" `Quick test_generate_from_options;
          Alcotest.test_case "mpeg2 ban rejected" `Quick
            test_mpeg2_ban_rejected_clearly;
          Alcotest.test_case "wire library roundtrip" `Quick
            test_wire_library_roundtrip;
          Alcotest.test_case "scaling grid" `Slow test_scaling_grid;
          Alcotest.test_case "lint over table v" `Slow test_lint_table5;
          Alcotest.test_case "write output" `Quick test_write_output;
        ] );
    ]
