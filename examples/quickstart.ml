(* Quickstart: generate a Bus System from user options (paper Example 9),
   inspect the report, emit Verilog, and drive a real transaction through
   the generated RTL with the cycle-accurate interpreter.

   Run with:  dune exec examples/quickstart.exe *)

open Busgen_rtl
module G = Bussyn.Generate

let () =
  (* 1. Describe the system exactly as in paper Example 9: one Bus
     Subsystem, four MPC755 BANs, a BFBA bus with depth-1024 Bi-FIFOs,
     one 8 MB SRAM per BAN. *)
  let options = Bussyn.Preset.bfba_4pe in
  Format.printf "User options (paper Fig. 18):@.%a@." Bussyn.Options.pp options;

  (* 2. Generate. *)
  let result =
    match G.from_options options with
    | Ok r -> r
    | Error e -> failwith e
  in
  Format.printf "%a@.@." G.pp_report result;

  (* 3. Write the Verilog tree, the Wire Library and the report. *)
  let files = G.write_output ~dir:"quickstart_out" result in
  Printf.printf "wrote %d files under quickstart_out/\n\n" (List.length files);

  (* 4. Drive the generated hardware: PE0 stores a word in its local
     SRAM through CBI -> bus mux -> MBI -> SRAM, and reads it back.
     (A small configuration keeps interpretation fast.) *)
  let small = Bussyn.Archs.small_config ~n_pes:2 in
  let g = Bussyn.Archs.bfba small in
  let sim = Engine.create g.Bussyn.Archs.top in
  Engine.reset sim;
  let dw = small.Bussyn.Archs.bus_data_width in
  for k = 0 to 1 do
    let p s = Printf.sprintf "cpu%d_%s" k s in
    Engine.set_input sim (p "req") (Bits.zero 1);
    Engine.set_input sim (p "rnw") (Bits.zero 1);
    Engine.set_input sim (p "addr") (Bits.zero 32);
    Engine.set_input sim (p "wdata") (Bits.zero dw)
  done;
  let txn k ~rnw ~addr ~wdata =
    let p s = Printf.sprintf "cpu%d_%s" k s in
    Engine.set_input sim (p "req") (Bits.of_bool true);
    Engine.set_input sim (p "rnw") (Bits.of_bool rnw);
    Engine.set_input sim (p "addr") (Bits.of_int ~width:32 addr);
    Engine.set_input sim (p "wdata") (Bits.of_int ~width:dw wdata);
    Engine.step sim;
    Engine.set_input sim (p "req") (Bits.of_bool false);
    let rec wait n =
      if n > 500 then failwith "bus transaction timed out"
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
  in
  ignore (txn 0 ~rnw:false ~addr:0x20 ~wdata:0xBEEF);
  let v = txn 0 ~rnw:true ~addr:0x20 ~wdata:0 in
  Printf.printf "RTL check: PE0 wrote 0xBEEF to local SRAM, read back 0x%X\n" v;

  (* PE0 pushes a word into PE1's Bi-FIFO; PE1 takes the interrupt. *)
  ignore
    (txn 0 ~rnw:false
       ~addr:(Bussyn.Addrmap.peer_base + Bussyn.Addrmap.peer_fifo_offset + 1)
       ~wdata:1);
  ignore
    (txn 0 ~rnw:false
       ~addr:(Bussyn.Addrmap.peer_base + Bussyn.Addrmap.peer_fifo_offset)
       ~wdata:0x42);
  Engine.step sim;
  Printf.printf "RTL check: PE1 interrupt line = %d after the push\n"
    (Engine.peek_int sim "cpu1_irq");
  let w = txn 1 ~rnw:true ~addr:Bussyn.Addrmap.own_fifo_base ~wdata:0 in
  Printf.printf "RTL check: PE1 popped 0x%X from its Bi-FIFO\n" w;
  print_endline "\nquickstart complete."
