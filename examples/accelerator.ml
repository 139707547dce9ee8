(* A non-CPU BAN: the hardware DCT accelerator on the global bus (paper
   user option 4.2, "Non-CPU Type: DCT").

   Generates a GBAVIII system whose global-memory BAN also hosts the
   fixed-point DCT IP, drives the accelerator from PE 0 through real
   arbitrated bus transactions, compares against the double-precision
   reference, and dumps a VCD waveform of the accelerator handshake for
   GTKWave.

   Run with:  dune exec examples/accelerator.exe *)

open Busgen_rtl
module Archs = Bussyn.Archs

let () =
  let config =
    { (Archs.small_config ~n_pes:2) with Archs.accelerator = Archs.Acc_dct }
  in
  let g = Archs.gbaviii config in
  Printf.printf
    "Generated GBAVIII with a DCT accelerator BAN: %d modules, lint %s\n\n"
    (1 + List.length (Circuit.sub_circuits g.Archs.top))
    (if Lint.is_clean (Lint.check g.Archs.top) then "clean" else "DIRTY");

  let tb = Testbench.create g.Archs.top in
  let samples = [| 120.; -40.; 200.; 16.; -96.; 55.; 255.; -128. |] in
  (* Load the input buffer over the bus. *)
  Array.iteri
    (fun i x ->
      Testbench.Cpu.write tb ~pe:0
        ~addr:(Bussyn.Addrmap.dct_base + i)
        (int_of_float x land 0xFFFF))
    samples;
  (* Start the transform and poll the status register from the OTHER
     PE — both PEs arbitrate for the same global bus. *)
  Testbench.Cpu.write tb ~pe:0 ~addr:(Bussyn.Addrmap.dct_base + 8) 1;
  let rec wait n =
    if n > 100 then failwith "accelerator never finished"
    else if
      Testbench.Cpu.read tb ~pe:1 ~addr:(Bussyn.Addrmap.dct_base + 8) land 2
      = 2
    then ()
    else wait (n + 1)
  in
  wait 0;
  let expected = Busgen_modlib.Dct_ip.reference samples in
  Printf.printf "%3s %10s %10s %8s\n" "u" "hardware" "reference" "error";
  Array.iteri
    (fun u e ->
      let got =
        Testbench.Cpu.read_signed tb ~pe:1
          ~addr:(Bussyn.Addrmap.dct_base + 16 + u)
      in
      Printf.printf "%3d %10d %10.2f %8.2f\n" u got e (float_of_int got -. e))
    expected;

  (* Waveform of the accelerator's handshake, straight from the RTL. *)
  let sim2 = Engine.create g.Archs.top in
  Engine.reset sim2;
  let tb2 = Testbench.of_engine sim2 in
  List.iter
    (fun pe ->
      List.iter
        (fun s -> Testbench.drive tb2 (Printf.sprintf "cpu%d_%s" pe s) 0)
        [ "req"; "rnw"; "addr"; "wdata" ])
    [ 0; 1 ];
  let buf = Buffer.create 4096 in
  let vcd =
    Vcd.create sim2
      ~signals:[ "cpu0_req"; "cpu0_ack"; "cpu0_addr"; "cpu0_rdata" ]
      buf
  in
  Vcd.sample vcd;
  Testbench.Cpu.write tb2 ~pe:0 ~addr:Bussyn.Addrmap.dct_base 42;
  Vcd.step_and_sample vcd ~cycles:20;
  Vcd.finish vcd;
  let oc = open_out "accelerator.vcd" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf
    "\nwrote accelerator.vcd (%d bytes) - open it with GTKWave\n"
    (Buffer.length buf)
