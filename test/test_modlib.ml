(* Tests for the Module Library: every generated template is exercised
   through the RTL interpreter. *)

open Busgen_rtl
open Busgen_modlib

let b1 v = Bits.of_bool v
let bi ~w v = Bits.of_int ~width:w v

let set sim name v = Engine.set_input sim name v

(* ------------------------------------------------------------------ *)
(* FIFO                                                               *)
(* ------------------------------------------------------------------ *)

let fifo_params = { Fifo.data_width = 8; depth = 4 }

let make_fifo () =
  let sim = Engine.create (Fifo.create fifo_params) in
  Engine.reset sim;
  set sim "push" (b1 false);
  set sim "pop" (b1 false);
  set sim "wdata" (bi ~w:8 0);
  sim

let push sim v =
  set sim "push" (b1 true);
  set sim "wdata" (bi ~w:8 v);
  Engine.step sim;
  set sim "push" (b1 false)

let pop sim =
  let v = Engine.peek_int sim "rdata" in
  set sim "pop" (b1 true);
  Engine.step sim;
  set sim "pop" (b1 false);
  v

let test_fifo_order () =
  let sim = make_fifo () in
  Alcotest.(check int) "empty at reset" 1 (Engine.peek_int sim "empty");
  push sim 11;
  push sim 22;
  push sim 33;
  Alcotest.(check int) "count" 3 (Engine.peek_int sim "count");
  Alcotest.(check int) "fifo order 1" 11 (pop sim);
  Alcotest.(check int) "fifo order 2" 22 (pop sim);
  push sim 44;
  Alcotest.(check int) "fifo order 3" 33 (pop sim);
  Alcotest.(check int) "fifo order 4" 44 (pop sim);
  Alcotest.(check int) "empty again" 1 (Engine.peek_int sim "empty")

let test_fifo_full () =
  let sim = make_fifo () in
  List.iter (push sim) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "full" 1 (Engine.peek_int sim "full");
  (* Push when full is ignored. *)
  push sim 99;
  Alcotest.(check int) "count capped" 4 (Engine.peek_int sim "count");
  Alcotest.(check int) "head intact" 1 (pop sim);
  Alcotest.(check int) "then 2" 2 (pop sim);
  Alcotest.(check int) "then 3" 3 (pop sim);
  Alcotest.(check int) "then 4 (99 dropped)" 4 (pop sim)

let test_fifo_pop_empty () =
  let sim = make_fifo () in
  ignore (pop sim);
  Alcotest.(check int) "still empty" 1 (Engine.peek_int sim "empty");
  Alcotest.(check int) "count 0" 0 (Engine.peek_int sim "count")

let test_fifo_simultaneous () =
  let sim = make_fifo () in
  push sim 5;
  (* Simultaneous push+pop keeps count stable and preserves order. *)
  set sim "push" (b1 true);
  set sim "pop" (b1 true);
  set sim "wdata" (bi ~w:8 6);
  Engine.step sim;
  set sim "push" (b1 false);
  set sim "pop" (b1 false);
  Alcotest.(check int) "count stays 1" 1 (Engine.peek_int sim "count");
  Alcotest.(check int) "new head" 6 (pop sim)

(* Property: FIFO behaviour matches a reference queue over random ops. *)
let prop_fifo_model =
  QCheck.Test.make ~name:"fifo matches Queue model" ~count:60
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 60)
        (pair bool (int_bound 255)))
    (fun ops ->
      let sim = make_fifo () in
      let q = Queue.create () in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            let was_full = Queue.length q >= 4 in
            push sim v;
            if not was_full then Queue.add v q;
            Engine.peek_int sim "count" = Queue.length q
          end
          else begin
            let expected = if Queue.is_empty q then None else Some (Queue.peek q) in
            let got = pop sim in
            (match expected with
            | Some e ->
                ignore (Queue.pop q);
                got = e
            | None -> true)
            && Engine.peek_int sim "count" = Queue.length q
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* HS_REGS                                                            *)
(* ------------------------------------------------------------------ *)

let make_hs init_op =
  let sim = Engine.create (Hs_regs.create { Hs_regs.init_op }) in
  Engine.reset sim;
  List.iter (fun n -> set sim n (b1 false)) [ "op_set"; "op_clr"; "rv_set"; "rv_clr" ];
  Engine.settle sim;
  sim

let pulse sim name =
  set sim name (b1 true);
  Engine.step sim;
  set sim name (b1 false)

let test_hs_regs_protocol () =
  (* Paper Example 3 sequencing: sender sets DONE_OP, receiver clears it,
     receiver sets DONE_RV, sender clears it. *)
  let sim = make_hs false in
  Alcotest.(check int) "op starts 0" 0 (Engine.peek_int sim "op_q");
  pulse sim "op_set";
  Alcotest.(check int) "op set" 1 (Engine.peek_int sim "op_q");
  pulse sim "op_clr";
  Alcotest.(check int) "op cleared" 0 (Engine.peek_int sim "op_q");
  pulse sim "rv_set";
  Alcotest.(check int) "rv set" 1 (Engine.peek_int sim "rv_q");
  pulse sim "rv_clr";
  Alcotest.(check int) "rv cleared" 0 (Engine.peek_int sim "rv_q")

let test_hs_regs_bfba_init () =
  (* Paper Example 4: BFBA initialises DONE_OP=1, DONE_RV=0. *)
  let sim = make_hs true in
  Alcotest.(check int) "op init 1" 1 (Engine.peek_int sim "op_q");
  Alcotest.(check int) "rv init 0" 0 (Engine.peek_int sim "rv_q")

let test_hs_regs_set_clr_conflict () =
  let sim = make_hs false in
  pulse sim "op_set";
  set sim "op_set" (b1 true);
  set sim "op_clr" (b1 true);
  Engine.step sim;
  Alcotest.(check int) "simultaneous set+clr holds" 1
    (Engine.peek_int sim "op_q")

(* ------------------------------------------------------------------ *)
(* Arbiters                                                           *)
(* ------------------------------------------------------------------ *)

let make_arbiter policy n =
  let sim = Engine.create (Arbiter.create { Arbiter.policy; masters = n }) in
  Engine.reset sim;
  set sim "req" (bi ~w:n 0);
  Engine.settle sim;
  sim

let test_arbiter_priority () =
  let sim = make_arbiter Arbiter.Priority 4 in
  set sim "req" (bi ~w:4 0b1010);
  Engine.settle sim;
  Alcotest.(check int) "lowest index wins" 0b0010
    (Engine.peek_int sim "grant");
  Alcotest.(check int) "grant id" 1 (Engine.peek_int sim "grant_id");
  Alcotest.(check int) "busy" 1 (Engine.peek_int sim "busy");
  set sim "req" (bi ~w:4 0);
  Engine.settle sim;
  Alcotest.(check int) "idle" 0 (Engine.peek_int sim "busy")

let test_arbiter_hold () =
  (* A granted master keeps the bus even when a higher-priority request
     arrives (bus locking). *)
  let sim = make_arbiter Arbiter.Priority 4 in
  set sim "req" (bi ~w:4 0b1000);
  Engine.step sim;
  Alcotest.(check int) "3 granted" 0b1000 (Engine.peek_int sim "grant");
  set sim "req" (bi ~w:4 0b1001);
  Engine.settle sim;
  Alcotest.(check int) "3 still granted" 0b1000 (Engine.peek_int sim "grant");
  set sim "req" (bi ~w:4 0b0001);
  Engine.step sim;
  Engine.settle sim;
  Alcotest.(check int) "0 after release" 0b0001 (Engine.peek_int sim "grant")

let test_arbiter_round_robin () =
  let sim = make_arbiter Arbiter.Round_robin 4 in
  (* All request; winners should rotate as each releases. *)
  let winner () = Engine.peek_int sim "grant_id" in
  set sim "req" (bi ~w:4 0b1111);
  Engine.step sim;
  let w1 = winner () in
  (* Release the winner; keep the others. *)
  set sim "req" (bi ~w:4 (0b1111 land lnot (1 lsl w1)));
  Engine.step sim;
  Engine.settle sim;
  let w2 = winner () in
  Alcotest.(check bool) "different winner" true (w1 <> w2);
  Alcotest.(check int) "rotates to next" ((w1 + 1) mod 4) w2

let test_arbiter_fcfs_order () =
  let sim = make_arbiter Arbiter.Fcfs 4 in
  (* Master 2 requests first, then master 0; FCFS must serve 2 first even
     though 0 has numeric priority. *)
  set sim "req" (bi ~w:4 0b0100);
  Engine.step sim;
  set sim "req" (bi ~w:4 0b0101);
  Engine.step sim;
  Engine.settle sim;
  Alcotest.(check int) "first-come wins" 2 (Engine.peek_int sim "grant_id");
  Alcotest.(check int) "grant onehot" 0b0100 (Engine.peek_int sim "grant");
  (* Master 2 releases; 0 is next in queue order. *)
  set sim "req" (bi ~w:4 0b0001);
  Engine.step sim;
  Engine.step sim;
  Engine.settle sim;
  Alcotest.(check int) "then the second comer" 0b0001
    (Engine.peek_int sim "grant")

let prop_arbiter_onehot =
  (* Safety: grant is always one-hot or zero, for every policy, over random
     request sequences. *)
  let onehot_or_zero g = g land (g - 1) = 0 in
  QCheck.Test.make ~name:"arbiter grants are one-hot" ~count:40
    QCheck.(
      pair (oneofl [ Arbiter.Priority; Arbiter.Round_robin; Arbiter.Fcfs ])
        (list_of_size (QCheck.Gen.int_range 1 30) (int_bound 15)))
    (fun (policy, reqs) ->
      let sim = make_arbiter policy 4 in
      List.for_all
        (fun r ->
          set sim "req" (bi ~w:4 r);
          Engine.step sim;
          Engine.settle sim;
          let g = Engine.peek_int sim "grant" in
          onehot_or_zero g && g land r = g)
        reqs)

let prop_arbiter_work_conserving =
  (* Liveness (priority policy): a persistent request is granted within a
     cycle. *)
  QCheck.Test.make ~name:"priority arbiter is work-conserving" ~count:40
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_range 1 15))
    (fun reqs ->
      let sim = make_arbiter Arbiter.Priority 4 in
      List.for_all
        (fun r ->
          set sim "req" (bi ~w:4 r);
          Engine.settle sim;
          Engine.peek_int sim "busy" = 1)
        reqs)

(* ------------------------------------------------------------------ *)
(* SRAM + MBI                                                         *)
(* ------------------------------------------------------------------ *)

let test_sram_rw () =
  let p = { Sram.kind = Sram.Sram; addr_width = 4; data_width = 8 } in
  let sim = Engine.create (Sram.create p) in
  Engine.reset sim;
  (* Idle: all control high (active-low). *)
  set sim "csb" (b1 true);
  set sim "web" (b1 true);
  set sim "reb" (b1 true);
  set sim "addr" (bi ~w:4 7);
  set sim "wdata" (bi ~w:8 0xAB);
  Engine.step sim;
  (* Write. *)
  set sim "csb" (b1 false);
  set sim "web" (b1 false);
  Engine.step sim;
  set sim "web" (b1 true);
  (* Read. *)
  set sim "reb" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "read back" 0xAB (Engine.peek_int sim "rdata");
  (* Deselected: bus reads zero. *)
  set sim "csb" (b1 true);
  Engine.settle sim;
  Alcotest.(check int) "deselected" 0 (Engine.peek_int sim "rdata")

(* An MBI wired to an SRAM, driven through the bus-slave interface. *)
let mbi_sram_system () =
  let sram_p = { Sram.kind = Sram.Sram; addr_width = 4; data_width = 8 } in
  let mbi_p = Mbi.for_sram sram_p ~bus_addr_width:16 ~bus_data_width:16 in
  let open Circuit.Builder in
  let b = create "mbi_sram_test" in
  let sel = input b "sel" 1 in
  let rnw = input b "rnw" 1 in
  let addr = input b "addr" 16 in
  let wdata = input b "wdata" 16 in
  output b "rdata" 16;
  output b "ack" 1;
  let sram_q = wire b "sram_q" 8 in
  let mbi_outs =
    instantiate b ~name:"u_mbi" (Mbi.create mbi_p)
      ~inputs:
        [ ("sel", sel); ("rnw", rnw); ("addr", addr); ("wdata", wdata);
          ("m_rdata", sram_q) ]
      ~outputs:
        [ ("rdata", "o_rdata"); ("ack", "o_ack"); ("csb", "w_csb");
          ("web", "w_web"); ("reb", "w_reb"); ("m_addr", "w_addr");
          ("m_wdata", "w_wdata") ]
  in
  (match mbi_outs with
  | [ rdata; ack; csb; web; reb; m_addr; m_wdata ] ->
      assign b "rdata" rdata;
      assign b "ack" ack;
      let sram_outs =
        instantiate b ~name:"u_sram" (Sram.create sram_p)
          ~inputs:
            [ ("csb", csb); ("web", web); ("reb", reb); ("addr", m_addr);
              ("wdata", m_wdata) ]
          ~outputs:[ ("rdata", "u_sram_rdata") ]
      in
      (match sram_outs with
      | [ q ] -> assign b "sram_q" q
      | _ -> assert false)
  | _ -> assert false);
  finish b

let test_mbi_sram_transaction () =
  let sim = Engine.create (mbi_sram_system ()) in
  Engine.reset sim;
  (* Write 0x5A to address 3. *)
  set sim "sel" (b1 true);
  set sim "rnw" (b1 false);
  set sim "addr" (bi ~w:16 3);
  set sim "wdata" (bi ~w:16 0x5A);
  Engine.step sim;
  Alcotest.(check int) "ack after latency" 1 (Engine.peek_int sim "ack");
  set sim "sel" (b1 false);
  Engine.step sim;
  (* Read it back. *)
  set sim "sel" (b1 true);
  set sim "rnw" (b1 true);
  Engine.settle sim;
  Alcotest.(check int) "read data (zero-extended)" 0x5A
    (Engine.peek_int sim "rdata");
  Engine.step sim;
  Alcotest.(check int) "read ack" 1 (Engine.peek_int sim "ack")

(* ------------------------------------------------------------------ *)
(* CBI: full transaction against a one-slave bus model                *)
(* ------------------------------------------------------------------ *)

let test_cbi_transaction () =
  let p = { Cbi.pe = Cbi.Mpc755; addr_width = 8; data_width = 8 } in
  let sim = Engine.create (Cbi.create p) in
  Engine.reset sim;
  set sim "cpu_req" (b1 false);
  set sim "cpu_rnw" (b1 true);
  set sim "cpu_addr" (bi ~w:8 0x42);
  set sim "cpu_wdata" (bi ~w:8 0);
  set sim "bus_gnt" (b1 false);
  set sim "bus_rdata" (bi ~w:8 0);
  set sim "bus_ack" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "idle: no bus req" 0 (Engine.peek_int sim "bus_req");
  (* CPU raises a read request. *)
  set sim "cpu_req" (b1 true);
  Engine.step sim;
  set sim "cpu_req" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "bus requested" 1 (Engine.peek_int sim "bus_req");
  Alcotest.(check int) "no sel before grant" 0 (Engine.peek_int sim "bus_sel");
  (* Two cycles of arbitration delay. *)
  Engine.step sim;
  Engine.step sim;
  Alcotest.(check int) "still requesting" 1 (Engine.peek_int sim "bus_req");
  (* Grant arrives. *)
  set sim "bus_gnt" (b1 true);
  Engine.step sim;
  Engine.settle sim;
  Alcotest.(check int) "transfer phase" 1 (Engine.peek_int sim "bus_sel");
  Alcotest.(check int) "address driven" 0x42 (Engine.peek_int sim "bus_addr");
  Alcotest.(check int) "rnw driven" 1 (Engine.peek_int sim "bus_rnw");
  (* Slave acks with data. *)
  set sim "bus_rdata" (bi ~w:8 0x99);
  set sim "bus_ack" (b1 true);
  Engine.step sim;
  set sim "bus_ack" (b1 false);
  set sim "bus_gnt" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "cpu ack pulsed" 1 (Engine.peek_int sim "cpu_ack");
  Alcotest.(check int) "read data delivered" 0x99
    (Engine.peek_int sim "cpu_rdata");
  Engine.step sim;
  Alcotest.(check int) "back to idle" 0 (Engine.peek_int sim "bus_req")

(* ------------------------------------------------------------------ *)
(* Bus bridge                                                         *)
(* ------------------------------------------------------------------ *)

let test_bb_gating () =
  (* The bridge is a registered crossing: requests appear on the far side
     one cycle later, and only while enabled. *)
  let p = { Bb.bb_type = Bb.Splitba; addr_width = 8; data_width = 8 } in
  let sim = Engine.create (Bb.create p) in
  Engine.reset sim;
  set sim "enable" (b1 false);
  set sim "a_sel" (b1 true);
  set sim "a_rnw" (b1 false);
  set sim "a_addr" (bi ~w:8 0x10);
  set sim "a_wdata" (bi ~w:8 0x77);
  set sim "b_rdata" (bi ~w:8 0);
  set sim "b_ack" (b1 false);
  Engine.step sim;
  Engine.step sim;
  Alcotest.(check int) "disabled: no b_sel" 0 (Engine.peek_int sim "b_sel");
  set sim "enable" (b1 true);
  Engine.step sim;
  Alcotest.(check int) "enabled: sel crosses" 1 (Engine.peek_int sim "b_sel");
  Alcotest.(check int) "enabled: addr crosses" 0x10
    (Engine.peek_int sim "b_addr");
  Alcotest.(check int) "write data crosses" 0x77
    (Engine.peek_int sim "b_wdata");
  (* Far-side slave answers. *)
  set sim "b_rdata" (bi ~w:8 0x33);
  set sim "b_ack" (b1 true);
  Engine.step sim;
  Alcotest.(check int) "data returns" 0x33 (Engine.peek_int sim "a_rdata");
  Alcotest.(check int) "ack returns" 1 (Engine.peek_int sim "a_ack");
  (* The forwarded select drops after the ack, so the slave is not
     re-selected while the master holds its request. *)
  Alcotest.(check int) "sel dropped after ack" 0 (Engine.peek_int sim "b_sel");
  (* Master drops; bridge returns to idle. *)
  set sim "a_sel" (b1 false);
  set sim "b_ack" (b1 false);
  Engine.step sim;
  Engine.step sim;
  Alcotest.(check int) "idle again" 0 (Engine.peek_int sim "b_sel")

(* ------------------------------------------------------------------ *)
(* Bi-FIFO block                                                      *)
(* ------------------------------------------------------------------ *)

let make_bififo () =
  let p = { Bififo.data_width = 8; depth = 8 } in
  let sim = Engine.create (Bififo.create p) in
  Engine.reset sim;
  List.iter
    (fun n -> set sim n (b1 false))
    [ "a_push"; "b_push"; "a_pop"; "b_pop"; "a_thr_we"; "b_thr_we" ];
  set sim "a_wdata" (bi ~w:8 0);
  set sim "b_wdata" (bi ~w:8 0);
  set sim "a_thr" (bi ~w:4 0);
  set sim "b_thr" (bi ~w:4 0);
  Engine.settle sim;
  sim

let test_bififo_threshold_irq () =
  (* Paper Example 4: the sender sets the threshold; pushing that many
     words raises the receiver's interrupt. *)
  let sim = make_bififo () in
  set sim "a_thr" (bi ~w:4 3);
  set sim "a_thr_we" (b1 true);
  Engine.step sim;
  set sim "a_thr_we" (b1 false);
  Alcotest.(check int) "no irq yet" 0 (Engine.peek_int sim "irq_b");
  for i = 1 to 3 do
    set sim "a_push" (b1 true);
    set sim "a_wdata" (bi ~w:8 (i * 10));
    Engine.step sim
  done;
  set sim "a_push" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "irq at threshold" 1 (Engine.peek_int sim "irq_b");
  (* Receiver pops all words: irq drops. *)
  Alcotest.(check int) "head" 10 (Engine.peek_int sim "b_rdata");
  for _ = 1 to 3 do
    set sim "b_pop" (b1 true);
    Engine.step sim
  done;
  set sim "b_pop" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "irq cleared" 0 (Engine.peek_int sim "irq_b");
  Alcotest.(check int) "drained" 1 (Engine.peek_int sim "b_empty")

let test_bififo_bidirectional () =
  let sim = make_bififo () in
  (* Traffic in both directions does not interfere. *)
  set sim "a_push" (b1 true);
  set sim "a_wdata" (bi ~w:8 0xAA);
  set sim "b_push" (b1 true);
  set sim "b_wdata" (bi ~w:8 0xBB);
  Engine.step sim;
  set sim "a_push" (b1 false);
  set sim "b_push" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "b sees a's word" 0xAA (Engine.peek_int sim "b_rdata");
  Alcotest.(check int) "a sees b's word" 0xBB (Engine.peek_int sim "a_rdata")

(* ------------------------------------------------------------------ *)
(* GBI / ABI / SB pass-through                                        *)
(* ------------------------------------------------------------------ *)

let test_gbi_pipeline () =
  let p = { Gbi.bus_type = Gbi.Gbi_gbaviii; addr_width = 8; data_width = 8 } in
  let sim = Engine.create (Gbi.create p) in
  Engine.reset sim;
  set sim "en" (b1 true);
  set sim "i_sel" (b1 true);
  set sim "i_rnw" (b1 true);
  set sim "i_addr" (bi ~w:8 0x21);
  set sim "i_wdata" (bi ~w:8 0);
  set sim "o_rdata" (bi ~w:8 0);
  set sim "o_ack" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "request not yet out" 0 (Engine.peek_int sim "o_sel");
  Engine.step sim;
  Alcotest.(check int) "request out after a cycle" 1
    (Engine.peek_int sim "o_sel");
  Alcotest.(check int) "address piped" 0x21 (Engine.peek_int sim "o_addr");
  set sim "o_rdata" (bi ~w:8 0x66);
  set sim "o_ack" (b1 true);
  Engine.settle sim;
  Alcotest.(check int) "ack passes inward" 1 (Engine.peek_int sim "i_ack");
  Alcotest.(check int) "data passes inward" 0x66
    (Engine.peek_int sim "i_rdata");
  set sim "en" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "disabled blocks ack" 0 (Engine.peek_int sim "i_ack")

let test_abi_registers () =
  let sim = Engine.create (Abi.create { Abi.masters = 4 }) in
  Engine.reset sim;
  set sim "bus_req" (bi ~w:4 0b0110);
  set sim "arb_grant" (bi ~w:4 0b0010);
  Engine.settle sim;
  Alcotest.(check int) "registered: zero before edge" 0
    (Engine.peek_int sim "arb_req");
  Engine.step sim;
  Alcotest.(check int) "req after edge" 0b0110 (Engine.peek_int sim "arb_req");
  Alcotest.(check int) "gnt after edge" 0b0010 (Engine.peek_int sim "bus_gnt")

let test_sb_passthrough () =
  let p = { Sb.bus_type = Sb.Sb_gbaviii; addr_width = 8; data_width = 16 } in
  let sim = Engine.create (Sb.create p) in
  Engine.reset sim;
  set sim "addr_in" (bi ~w:8 0x7F);
  set sim "wdata_in" (bi ~w:16 0xBEEF);
  set sim "rdata_in" (bi ~w:16 0xCAFE);
  set sim "sel_in" (b1 true);
  set sim "rnw_in" (b1 false);
  set sim "ack_in" (b1 true);
  Engine.settle sim;
  Alcotest.(check int) "addr through" 0x7F (Engine.peek_int sim "addr_out");
  Alcotest.(check int) "wdata through" 0xBEEF (Engine.peek_int sim "wdata_out");
  Alcotest.(check int) "rdata through" 0xCAFE (Engine.peek_int sim "rdata_out");
  Alcotest.(check int) "ack through" 1 (Engine.peek_int sim "ack_out")

(* ------------------------------------------------------------------ *)
(* Busmux / Busjoin / slave adapters                                  *)
(* ------------------------------------------------------------------ *)

let test_busmux_decode () =
  let p =
    {
      Busmux.addr_width = 8;
      data_width = 8;
      regions = [ { Busmux.base = 0; size = 16 }; { Busmux.base = 64; size = 16 } ];
    }
  in
  let sim = Engine.create (Busmux.create p) in
  Engine.reset sim;
  set sim "m_sel" (b1 true);
  set sim "m_rnw" (b1 true);
  set sim "m_addr" (bi ~w:8 5);
  set sim "m_wdata" (bi ~w:8 0);
  set sim "s0_rdata" (bi ~w:8 0x11);
  set sim "s0_ack" (b1 true);
  set sim "s1_rdata" (bi ~w:8 0x22);
  set sim "s1_ack" (b1 true);
  Engine.settle sim;
  Alcotest.(check int) "region 0 hit" 1 (Engine.peek_int sim "s0_sel");
  Alcotest.(check int) "region 1 miss" 0 (Engine.peek_int sim "s1_sel");
  Alcotest.(check int) "rdata from region 0" 0x11
    (Engine.peek_int sim "m_rdata");
  set sim "m_addr" (bi ~w:8 70);
  Engine.settle sim;
  Alcotest.(check int) "region 1 hit" 1 (Engine.peek_int sim "s1_sel");
  Alcotest.(check int) "rdata from region 1" 0x22
    (Engine.peek_int sim "m_rdata");
  set sim "m_addr" (bi ~w:8 200);
  Engine.settle sim;
  Alcotest.(check int) "hole: no ack" 0 (Engine.peek_int sim "m_ack");
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Busmux: regions overlap") (fun () ->
      ignore
        (Busmux.create
           {
             Busmux.addr_width = 8;
             data_width = 8;
             regions =
               [ { Busmux.base = 0; size = 32 }; { Busmux.base = 16; size = 16 } ];
           }));
  Alcotest.check_raises "misaligned base rejected"
    (Invalid_argument "Busmux: region base must be size-aligned") (fun () ->
      ignore
        (Busmux.create
           {
             Busmux.addr_width = 8;
             data_width = 8;
             regions = [ { Busmux.base = 8; size = 16 } ];
           }))

let test_busjoin_grant_routing () =
  let p = { Busjoin.masters = 2; addr_width = 8; data_width = 8 } in
  let sim = Engine.create (Busjoin.create p) in
  Engine.reset sim;
  set sim "m0_req" (b1 true);
  set sim "m1_req" (b1 true);
  set sim "m0_sel" (b1 true);
  set sim "m0_rnw" (b1 true);
  set sim "m0_addr" (bi ~w:8 0x10);
  set sim "m0_wdata" (bi ~w:8 0);
  set sim "m1_sel" (b1 true);
  set sim "m1_rnw" (b1 false);
  set sim "m1_addr" (bi ~w:8 0x20);
  set sim "m1_wdata" (bi ~w:8 0x99);
  set sim "s_rdata" (bi ~w:8 0x55);
  set sim "s_ack" (b1 true);
  set sim "gnt" (bi ~w:2 0b01);
  Engine.settle sim;
  Alcotest.(check int) "req reflects sels" 0b11 (Engine.peek_int sim "req");
  Alcotest.(check int) "winner's address forwarded" 0x10
    (Engine.peek_int sim "s_addr");
  Alcotest.(check int) "winner acked" 1 (Engine.peek_int sim "m0_ack");
  Alcotest.(check int) "loser not acked" 0 (Engine.peek_int sim "m1_ack");
  set sim "gnt" (bi ~w:2 0b10);
  Engine.settle sim;
  Alcotest.(check int) "other master's address" 0x20
    (Engine.peek_int sim "s_addr");
  Alcotest.(check int) "write data forwarded" 0x99
    (Engine.peek_int sim "s_wdata")

let test_hs_slave_both_sides () =
  (* hs_slave + hs_regs wired together: side A writes DONE_OP=1; side B
     reads it and clears it — the Example 3 sequence over the bus. *)
  let open Circuit.Builder in
  let bld = create "hs_system" in
  let a_sel = input bld "a_sel" 1 in
  let a_rnw = input bld "a_rnw" 1 in
  let a_addr = input bld "a_addr" 1 in
  let a_wdata = input bld "a_wdata" 8 in
  let b_sel = input bld "b_sel" 1 in
  let b_rnw = input bld "b_rnw" 1 in
  let b_addr = input bld "b_addr" 1 in
  let b_wdata = input bld "b_wdata" 8 in
  output bld "a_rdata" 8;
  output bld "b_rdata" 8;
  let opq = wire bld "opq" 1 in
  let rvq = wire bld "rvq" 1 in
  let slave_outs =
    instantiate bld ~name:"u_slave"
      (Hs_slave.create { Hs_slave.data_width = 8 })
      ~inputs:
        [ ("op_q", opq); ("rv_q", rvq); ("a_sel", a_sel); ("a_rnw", a_rnw);
          ("a_addr", a_addr); ("a_wdata", a_wdata); ("b_sel", b_sel);
          ("b_rnw", b_rnw); ("b_addr", b_addr); ("b_wdata", b_wdata) ]
      ~outputs:
        [ ("op_set", "w_os"); ("op_clr", "w_oc"); ("rv_set", "w_rs");
          ("rv_clr", "w_rc"); ("a_rdata", "w_ard"); ("a_ack", "w_aack");
          ("b_rdata", "w_brd"); ("b_ack", "w_back") ]
  in
  (match slave_outs with
  | [ os; oc; rs; rc; ard; _aack; brd; _back ] ->
      assign bld "a_rdata" ard;
      assign bld "b_rdata" brd;
      let regs_outs =
        instantiate bld ~name:"u_regs"
          (Hs_regs.create { Hs_regs.init_op = false })
          ~inputs:
            [ ("op_set", os); ("op_clr", oc); ("rv_set", rs); ("rv_clr", rc) ]
          ~outputs:[ ("op_q", "w_opq"); ("rv_q", "w_rvq") ]
      in
      (match regs_outs with
      | [ o; r ] ->
          assign bld "opq" o;
          assign bld "rvq" r
      | _ -> assert false)
  | _ -> assert false);
  let sim = Engine.create (finish bld) in
  Engine.reset sim;
  List.iter (fun n -> set sim n (b1 false)) [ "a_sel"; "b_sel" ];
  set sim "a_rnw" (b1 false);
  set sim "a_addr" (bi ~w:1 0);
  set sim "a_wdata" (bi ~w:8 1);
  set sim "b_rnw" (b1 true);
  set sim "b_addr" (bi ~w:1 0);
  set sim "b_wdata" (bi ~w:8 0);
  (* A writes DONE_OP := 1. *)
  set sim "a_sel" (b1 true);
  Engine.step sim;
  set sim "a_sel" (b1 false);
  (* B reads DONE_OP = 1. *)
  set sim "b_sel" (b1 true);
  Engine.settle sim;
  Alcotest.(check int) "B sees DONE_OP" 1 (Engine.peek_int sim "b_rdata");
  (* B clears it by writing 0. *)
  set sim "b_rnw" (b1 false);
  set sim "b_wdata" (bi ~w:8 0);
  Engine.step sim;
  set sim "b_rnw" (b1 true);
  Engine.settle sim;
  Alcotest.(check int) "cleared" 0 (Engine.peek_int sim "b_rdata")

let test_fifo_slave_roundtrip () =
  (* fifo_slave + a plain FIFO: sender sets threshold, pushes words over
     the bus; receiver observes irq and pops them back. *)
  let fifo_p = { Fifo.data_width = 8; depth = 8 } in
  let cw = Fifo.count_width fifo_p in
  let open Circuit.Builder in
  let bld = create "fifo_system" in
  let s_sel = input bld "s_sel" 1 in
  let s_rnw = input bld "s_rnw" 1 in
  let s_addr = input bld "s_addr" 2 in
  let s_wdata = input bld "s_wdata" 8 in
  let r_sel = input bld "r_sel" 1 in
  let r_rnw = input bld "r_rnw" 1 in
  let r_addr = input bld "r_addr" 2 in
  let r_wdata = input bld "r_wdata" 8 in
  output bld "r_rdata" 8;
  output bld "irq_out" 1;
  let head = wire bld "head" 8 in
  let empty = wire bld "empty" 1 in
  let full = wire bld "full" 1 in
  let count = wire bld "count" cw in
  let irq = wire bld "irq" 1 in
  let slave_outs =
    instantiate bld ~name:"u_adapter"
      (Fifo_slave.create { Fifo_slave.data_width = 8; count_width = cw })
      ~inputs:
        [ ("head", head); ("empty", empty); ("full", full); ("count", count);
          ("irq", irq); ("s_sel", s_sel); ("s_rnw", s_rnw);
          ("s_addr", s_addr); ("s_wdata", s_wdata); ("r_sel", r_sel);
          ("r_rnw", r_rnw); ("r_addr", r_addr); ("r_wdata", r_wdata) ]
      ~outputs:
        [ ("push", "w_push"); ("push_data", "w_pdata"); ("thr_we", "w_twe");
          ("thr", "w_thr"); ("pop", "w_pop"); ("s_rdata", "w_srd");
          ("s_ack", "w_sack"); ("r_rdata", "w_rrd"); ("r_ack", "w_rack") ]
  in
  (match slave_outs with
  | [ push; pdata; twe; thr; pop; _srd; _sack; rrd; _rack ] ->
      assign bld "r_rdata" rrd;
      let fifo_outs =
        instantiate bld ~name:"u_fifo" (Fifo.create fifo_p)
          ~inputs:[ ("push", push); ("wdata", pdata); ("pop", pop) ]
          ~outputs:
            [ ("rdata", "f_rdata"); ("full", "f_full"); ("empty", "f_empty");
              ("count", "f_count") ]
      in
      (match fifo_outs with
      | [ frd; ffull; fempty; fcount ] ->
          assign bld "head" frd;
          assign bld "empty" fempty;
          assign bld "full" ffull;
          assign bld "count" fcount;
          (* Threshold compare lives in Bififo; reproduce it here. *)
          let thr_r = reg bld "thr_r" cw () in
          set_next bld "thr_r" Expr.(mux twe (select thr (cw - 1) 0) thr_r);
          assign bld "irq"
            Expr.(
              ~:(thr_r ==: const_int ~width:cw 0) &: (thr_r <=: fcount));
          assign bld "irq_out" irq
      | _ -> assert false)
  | _ -> assert false);
  let sim = Engine.create (finish bld) in
  Engine.reset sim;
  List.iter (fun n -> set sim n (b1 false)) [ "s_sel"; "r_sel" ];
  set sim "r_wdata" (bi ~w:8 0);
  (* Sender sets threshold = 2 (bus write to offset 1). *)
  set sim "s_sel" (b1 true);
  set sim "s_rnw" (b1 false);
  set sim "s_addr" (bi ~w:2 1);
  set sim "s_wdata" (bi ~w:8 2);
  Engine.step sim;
  (* Sender pushes two words (bus writes to offset 0). *)
  set sim "s_addr" (bi ~w:2 0);
  set sim "s_wdata" (bi ~w:8 0xA1);
  Engine.step sim;
  set sim "s_wdata" (bi ~w:8 0xB2);
  Engine.step sim;
  set sim "s_sel" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "irq raised at threshold" 1
    (Engine.peek_int sim "irq_out");
  (* Receiver reads status then pops both words. *)
  set sim "r_sel" (b1 true);
  set sim "r_rnw" (b1 true);
  set sim "r_addr" (bi ~w:2 2);
  Engine.settle sim;
  Alcotest.(check int) "status: irq bit" 1
    (Engine.peek_int sim "r_rdata" land 1);
  set sim "r_addr" (bi ~w:2 0);
  Engine.settle sim;
  Alcotest.(check int) "pop 1" 0xA1 (Engine.peek_int sim "r_rdata");
  Engine.step sim;
  Engine.settle sim;
  Alcotest.(check int) "pop 2" 0xB2 (Engine.peek_int sim "r_rdata");
  Engine.step sim;
  set sim "r_sel" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "irq gone after drain" 0
    (Engine.peek_int sim "irq_out")

(* ------------------------------------------------------------------ *)
(* DCT accelerator / DPRAM                                            *)
(* ------------------------------------------------------------------ *)

let dct_run samples =
  let sim = Engine.create (Dct_ip.create { Dct_ip.data_width = 16 }) in
  Engine.reset sim;
  set sim "sel" (b1 false);
  set sim "rnw" (b1 false);
  set sim "addr" (bi ~w:5 0);
  set sim "wdata" (bi ~w:16 0);
  let write addr v =
    set sim "sel" (b1 true);
    set sim "rnw" (b1 false);
    set sim "addr" (bi ~w:5 addr);
    set sim "wdata" (bi ~w:16 (v land 0xFFFF));
    Engine.step sim;
    set sim "sel" (b1 false)
  in
  let read addr =
    set sim "sel" (b1 true);
    set sim "rnw" (b1 true);
    set sim "addr" (bi ~w:5 addr);
    Engine.settle sim;
    let v = Engine.peek sim "rdata" in
    Engine.step sim;
    set sim "sel" (b1 false);
    v
  in
  Array.iteri (fun i x -> write i (int_of_float x)) samples;
  write 8 1;
  let rec wait n =
    if n > 200 then Alcotest.fail "DCT never finished"
    else if Bits.to_int_exn (read 8) land 2 = 2 then ()
    else wait (n + 1)
  in
  wait 0;
  Array.init 8 (fun u -> Bits.to_signed_int_exn (read (16 + u)))

let test_dct_matches_reference () =
  let cases =
    [
      [| 100.; -50.; 230.; 7.; -128.; 31.; 255.; -200. |];
      [| 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0. |];
      [| 255.; 255.; 255.; 255.; 255.; 255.; 255.; 255. |];
      [| 1.; -1.; 1.; -1.; 1.; -1.; 1.; -1. |];
    ]
  in
  List.iter
    (fun samples ->
      let hw = dct_run samples in
      let expected = Dct_ip.reference samples in
      Array.iteri
        (fun u e ->
          if Float.abs (float_of_int hw.(u) -. e) > 1.0 then
            Alcotest.failf "DCT u=%d: hw %d vs ref %.2f" u hw.(u) e)
        expected)
    cases

let prop_dct_random =
  QCheck.Test.make ~name:"hardware DCT tracks the float DCT" ~count:30
    QCheck.(array_of_size (QCheck.Gen.return 8) (int_range (-255) 255))
    (fun ints ->
      let samples = Array.map float_of_int ints in
      let hw = dct_run samples in
      let expected = Dct_ip.reference samples in
      Array.for_all
        (fun u -> Float.abs (float_of_int hw.(u) -. expected.(u)) <= 1.0)
        (Array.init 8 (fun u -> u)))

let fft_run samples =
  let tb = Testbench.create (Fft_ip.create { Fft_ip.data_width = 32 }) in
  Testbench.drive tb "web_fft" 1;
  Testbench.drive tb "reb_fft" 1;
  Array.iteri
    (fun i s ->
      Testbench.drive tb "addr_fft" i;
      Testbench.drive tb "data_fft" (Fft_ip.pack s);
      Testbench.drive tb "web_fft" 0;
      Testbench.step tb ();
      Testbench.drive tb "web_fft" 1)
    samples;
  Testbench.pulse tb "srt_fft";
  Testbench.wait_for tb ~timeout:400 "ack_fft" 1;
  Array.init Fft_ip.points (fun u ->
      Testbench.drive tb "addr_fft" u;
      Testbench.drive tb "reb_fft" 0;
      Testbench.settle tb;
      let v = Fft_ip.unpack (Testbench.peek tb "q_fft") in
      Testbench.drive tb "reb_fft" 1;
      v)

let test_fft_matches_reference () =
  let tone f amp =
    Array.init Fft_ip.points (fun i ->
        { Complex.re = amp *. cos (2.0 *. Float.pi *. f *. float_of_int i /. 16.0);
          im = amp *. sin (2.0 *. Float.pi *. f *. float_of_int i /. 16.0) })
  in
  List.iter
    (fun x ->
      let hw = fft_run x in
      let expected = Fft_ip.reference x in
      Array.iteri
        (fun u e ->
          let err = Complex.norm (Complex.sub hw.(u) e) in
          if err > 0.002 then
            Alcotest.failf "u=%d: error %.5f (hw %.4f%+.4fi, ref %.4f%+.4fi)"
              u err hw.(u).Complex.re hw.(u).Complex.im e.Complex.re
              e.Complex.im)
        expected)
    [ tone 1.0 0.5; tone 3.0 0.7; tone 0.0 0.9;
      Array.init 16 (fun i -> { Complex.re = 0.05 *. float_of_int i; im = -0.3 }) ]

let prop_fft_random =
  QCheck.Test.make ~name:"hardware FFT tracks the float DFT" ~count:15
    QCheck.(array_of_size (QCheck.Gen.return 16)
              (pair (float_bound_inclusive 0.9) (float_bound_inclusive 0.9)))
    (fun pairs ->
      let x =
        Array.map (fun (re, im) -> { Complex.re = re -. 0.45; im = im -. 0.45 })
          pairs
      in
      let hw = fft_run x in
      let expected = Fft_ip.reference x in
      Array.for_all
        (fun u -> Complex.norm (Complex.sub hw.(u) expected.(u)) < 0.003)
        (Array.init 16 (fun u -> u)))

let test_rom_contents () =
  let p = { Rom.data_width = 16; contents = [ 7; 0x1234; 0xFFFF; 3 ] } in
  Alcotest.(check int) "depth rounds to pow2" 4 (Rom.depth p);
  Alcotest.(check int) "addr width" 2 (Rom.addr_width p);
  let tb = Testbench.create (Rom.create p) in
  Testbench.drive tb "csb" 0;
  Testbench.drive tb "reb" 0;
  List.iteri
    (fun i want ->
      Testbench.drive tb "addr" i;
      Testbench.expect tb "rdata" want)
    [ 7; 0x1234; 0xFFFF; 3 ];
  (* Output-disabled reads return zero, and contents survive a clock. *)
  Testbench.drive tb "reb" 1;
  Testbench.expect tb "rdata" 0;
  Testbench.step tb ~n:3 ();
  Testbench.drive tb "reb" 0;
  Testbench.drive tb "addr" 1;
  Testbench.expect tb "rdata" 0x1234;
  (* Contents shorter than the padded depth read as zero. *)
  let p5 = { Rom.data_width = 8; contents = [ 1; 2; 3; 4; 5 ] } in
  Alcotest.(check int) "pads to 8" 8 (Rom.depth p5);
  let tb5 = Testbench.create (Rom.create p5) in
  Testbench.drive_many tb5 [ ("csb", 0); ("reb", 0); ("addr", 7) ];
  Testbench.expect tb5 "rdata" 0

let test_rom_distinct_images_distinct_names () =
  let a = { Rom.data_width = 8; contents = [ 1; 2 ] } in
  let b = { Rom.data_width = 8; contents = [ 2; 1 ] } in
  Alcotest.(check bool) "names differ" true
    (Rom.module_name a <> Rom.module_name b);
  (match Rom.create { Rom.data_width = 8; contents = [] } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty contents accepted");
  (* Init words wider than the memory are rejected at the IR level. *)
  let open Busgen_rtl.Circuit.Builder in
  let bld = create "bad_init" in
  let a0 = input bld "a" 1 in
  output bld "q" 4;
  match
    memory bld "m"
      ~init:[| Busgen_rtl.Bits.of_int ~width:8 1 |]
      ~data_width:4 ~depth:2 ~writes:[]
      ~reads:[ ("mq", a0) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong-width init accepted"

let test_dpram_ports () =
  let p = { Dpram.addr_width = 4; data_width = 8 } in
  let sim = Engine.create (Dpram.create p) in
  Engine.reset sim;
  List.iter
    (fun x ->
      set sim (x ^ "_csb") (b1 true);
      set sim (x ^ "_web") (b1 true);
      set sim (x ^ "_reb") (b1 true);
      set sim (x ^ "_addr") (bi ~w:4 0);
      set sim (x ^ "_wdata") (bi ~w:8 0))
    [ "a"; "b" ];
  (* Port A writes word 3; port B writes word 7 in the same cycle. *)
  set sim "a_csb" (b1 false);
  set sim "a_web" (b1 false);
  set sim "a_addr" (bi ~w:4 3);
  set sim "a_wdata" (bi ~w:8 0x11);
  set sim "b_csb" (b1 false);
  set sim "b_web" (b1 false);
  set sim "b_addr" (bi ~w:4 7);
  set sim "b_wdata" (bi ~w:8 0x22);
  Engine.step sim;
  (* Cross-read: B reads A's word and vice versa. *)
  set sim "a_web" (b1 true);
  set sim "b_web" (b1 true);
  set sim "a_reb" (b1 false);
  set sim "b_reb" (b1 false);
  set sim "a_addr" (bi ~w:4 7);
  set sim "b_addr" (bi ~w:4 3);
  Engine.settle sim;
  Alcotest.(check int) "a reads b's word" 0x22 (Engine.peek_int sim "a_rdata");
  Alcotest.(check int) "b reads a's word" 0x11 (Engine.peek_int sim "b_rdata")

let test_dpram_conflict () =
  let p = { Dpram.addr_width = 4; data_width = 8 } in
  let sim = Engine.create (Dpram.create p) in
  Engine.reset sim;
  List.iter
    (fun x ->
      set sim (x ^ "_csb") (b1 false);
      set sim (x ^ "_web") (b1 false);
      set sim (x ^ "_reb") (b1 true);
      set sim (x ^ "_addr") (bi ~w:4 5);
      set sim (x ^ "_wdata") (bi ~w:8 0))
    [ "a"; "b" ];
  set sim "a_wdata" (bi ~w:8 0xAA);
  set sim "b_wdata" (bi ~w:8 0xBB);
  Engine.step sim;
  set sim "a_web" (b1 true);
  set sim "b_web" (b1 true);
  set sim "a_reb" (b1 false);
  Engine.settle sim;
  Alcotest.(check int) "port A wins the conflict" 0xAA
    (Engine.peek_int sim "a_rdata")

(* ------------------------------------------------------------------ *)
(* Catalog                                                            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Protection: watchdog and parity                                     *)
(* ------------------------------------------------------------------ *)

let make_watchdog timeout =
  let sim = Engine.create (Watchdog.create { Watchdog.timeout }) in
  Engine.reset sim;
  set sim "req" (b1 false);
  set sim "ack" (b1 false);
  sim

let test_watchdog_times_out () =
  let sim = make_watchdog 3 in
  set sim "req" (b1 true);
  (* Below the limit: quiet. *)
  Engine.step sim;
  Engine.step sim;
  Alcotest.(check int) "not fired yet" 0 (Engine.peek_int sim "timeout");
  Alcotest.(check int) "no release yet" 0
    (Engine.peek_int sim "force_release");
  (* The limit: a one-cycle strobe plus a held release... *)
  Engine.step sim;
  Alcotest.(check int) "strobe fires" 1 (Engine.peek_int sim "timeout");
  Alcotest.(check int) "release asserted" 1
    (Engine.peek_int sim "force_release");
  Engine.step sim;
  Alcotest.(check int) "strobe is one cycle" 0
    (Engine.peek_int sim "timeout");
  Alcotest.(check int) "release holds" 1
    (Engine.peek_int sim "force_release");
  (* ...until the wedged transaction is finally answered. *)
  set sim "ack" (b1 true);
  Engine.step sim;
  Alcotest.(check int) "release clears on ack" 0
    (Engine.peek_int sim "force_release")

let test_watchdog_ack_restarts_count () =
  let sim = make_watchdog 3 in
  set sim "req" (b1 true);
  Engine.step sim;
  Engine.step sim;
  (* An answer just before the limit restarts the count. *)
  set sim "ack" (b1 true);
  Engine.step sim;
  set sim "ack" (b1 false);
  Engine.step sim;
  Engine.step sim;
  Alcotest.(check int) "no premature timeout" 0
    (Engine.peek_int sim "timeout");
  Engine.step sim;
  Alcotest.(check int) "fires a full period after the ack" 1
    (Engine.peek_int sim "timeout")

let test_watchdog_validates () =
  match Watchdog.create { Watchdog.timeout = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "timeout 0 accepted"

let test_parity_gen_chk () =
  let gen =
    Engine.create
      (Parity.create { Parity.data_width = 8; role = Parity.Generator })
  in
  let chk =
    Engine.create
      (Parity.create { Parity.data_width = 8; role = Parity.Checker })
  in
  Engine.reset gen;
  Engine.reset chk;
  List.iter
    (fun v ->
      set gen "data" (bi ~w:8 v);
      Engine.step gen;
      let p = Engine.peek_int gen "parity" in
      (* Matching parity: clean. *)
      set chk "data" (bi ~w:8 v);
      set chk "parity" (bi ~w:1 p);
      Engine.step chk;
      Alcotest.(check int)
        (Printf.sprintf "0x%02x clean" v)
        0 (Engine.peek_int chk "error");
      (* A corrupted data bit: flagged. *)
      set chk "data" (bi ~w:8 (v lxor 0x10));
      Engine.step chk;
      Alcotest.(check int)
        (Printf.sprintf "0x%02x corrupt data" v)
        1 (Engine.peek_int chk "error");
      (* A corrupted parity line: also flagged. *)
      set chk "data" (bi ~w:8 v);
      set chk "parity" (bi ~w:1 (p lxor 1));
      Engine.step chk;
      Alcotest.(check int)
        (Printf.sprintf "0x%02x corrupt parity" v)
        1 (Engine.peek_int chk "error"))
    [ 0x00; 0x01; 0xFF; 0xA5; 0x3C ]

let test_parity_validates () =
  match Parity.create { Parity.data_width = 0; role = Parity.Generator } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "data_width 0 accepted"

let all_specs =
  [
    Catalog.Spec_watchdog { Watchdog.timeout = 16 };
    Catalog.Spec_parity { Parity.data_width = 16; role = Parity.Generator };
    Catalog.Spec_parity { Parity.data_width = 16; role = Parity.Checker };
    Catalog.Spec_sram { Sram.kind = Sram.Sram; addr_width = 4; data_width = 8 };
    Catalog.Spec_sram { Sram.kind = Sram.Dram; addr_width = 4; data_width = 8 };
    Catalog.Spec_mbi
      (Mbi.for_sram
         { Sram.kind = Sram.Sram; addr_width = 4; data_width = 8 }
         ~bus_addr_width:16 ~bus_data_width:16);
    Catalog.Spec_cbi { Cbi.pe = Cbi.Mpc755; addr_width = 16; data_width = 16 };
    Catalog.Spec_cbi { Cbi.pe = Cbi.Arm9tdmi; addr_width = 16; data_width = 16 };
    Catalog.Spec_bb { Bb.bb_type = Bb.Gbavi; addr_width = 16; data_width = 16 };
    Catalog.Spec_arbiter { Arbiter.policy = Arbiter.Fcfs; masters = 4 };
    Catalog.Spec_arbiter { Arbiter.policy = Arbiter.Round_robin; masters = 4 };
    Catalog.Spec_arbiter { Arbiter.policy = Arbiter.Priority; masters = 4 };
    Catalog.Spec_abi { Abi.masters = 4 };
    Catalog.Spec_gbi
      { Gbi.bus_type = Gbi.Gbi_gbavi; addr_width = 16; data_width = 16 };
    Catalog.Spec_sb
      { Sb.bus_type = Sb.Sb_bfba; addr_width = 16; data_width = 16 };
    Catalog.Spec_hs_regs { Hs_regs.init_op = false };
    Catalog.Spec_fifo { Fifo.data_width = 8; depth = 4 };
    Catalog.Spec_bififo { Bififo.data_width = 8; depth = 8 };
    Catalog.Spec_busmux
      {
        Busmux.addr_width = 8;
        data_width = 8;
        regions = [ { Busmux.base = 0; size = 16 }; { Busmux.base = 64; size = 16 } ];
      };
    Catalog.Spec_busjoin { Busjoin.masters = 4; addr_width = 8; data_width = 8 };
    Catalog.Spec_hs_slave { Hs_slave.data_width = 8 };
    Catalog.Spec_fifo_slave { Fifo_slave.data_width = 8; count_width = 4 };
    Catalog.Spec_dpram { Dpram.addr_width = 4; data_width = 8 };
    Catalog.Spec_dct { Dct_ip.data_width = 16 };
    Catalog.Spec_fft { Fft_ip.data_width = 32 };
    Catalog.Spec_fft_adapter { Fft_adapter.data_width = 32 };
    Catalog.Spec_rom { Rom.data_width = 16; contents = [ 7; 0x1234; 0xFFFF ] };
  ]

let test_catalog_all_lint_clean () =
  List.iter
    (fun spec ->
      let c = Catalog.create spec in
      let report = Lint.check c in
      if not (Lint.is_clean report) then
        Alcotest.failf "%s not lint-clean: %a" (Catalog.module_name spec)
          Lint.pp_report report)
    all_specs

let test_catalog_memoizes () =
  let s = Catalog.Spec_fifo { Fifo.data_width = 8; depth = 4 } in
  Alcotest.(check bool) "same instance" true (Catalog.create s == Catalog.create s)

let test_catalog_cache_bounded () =
  (* The memo is a bounded LRU with live counters: repeated creation
     hits, and shrinking the cap evicts down to it (then restore the
     default so later tests keep their memoization assumptions). *)
  let module Lru = Busgen_cache.Lru in
  let s = Catalog.Spec_fifo { Fifo.data_width = 8; depth = 4 } in
  let before = Catalog.cache_stats () in
  ignore (Catalog.create s);
  ignore (Catalog.create s);
  let after = Catalog.cache_stats () in
  Alcotest.(check bool) "create hits the cache" true
    (after.Lru.st_hits > before.Lru.st_hits);
  Fun.protect
    ~finally:(fun () -> Catalog.set_cache_cap Catalog.default_cap)
    (fun () ->
      Catalog.set_cache_cap 2;
      let shrunk = Catalog.cache_stats () in
      Alcotest.(check bool)
        (Printf.sprintf "cap shrink evicts (size %d)" shrunk.Lru.st_size)
        true
        (shrunk.Lru.st_size <= 2 && shrunk.Lru.st_cap = 2))

let test_catalog_names () =
  Alcotest.(check string) "library name" "MBI_SRAM"
    (Catalog.library_name
       (Catalog.Spec_mbi
          (Mbi.for_sram
             { Sram.kind = Sram.Sram; addr_width = 4; data_width = 8 }
             ~bus_addr_width:16 ~bus_data_width:16)));
  Alcotest.(check string) "cbi name" "CBI_MPC755"
    (Catalog.library_name
       (Catalog.Spec_cbi { Cbi.pe = Cbi.Mpc755; addr_width = 16; data_width = 16 }));
  Alcotest.(check bool) "catalog lists it" true
    (List.mem "CBI_MPC755" Catalog.available);
  Alcotest.(check bool) "PEs are not modules" true
    (List.mem "MPC755" Catalog.pe_catalog
    && not (List.mem "MPC755" Catalog.available))

let test_catalog_verilog_roundtrip () =
  (* The emitted Verilog parses back and structurally matches the source
     circuit, for every catalog module. *)
  List.iter
    (fun spec ->
      let c = Catalog.create spec in
      match Vparse.parse_module (Verilog.of_circuit c) with
      | Error msg ->
          Alcotest.failf "%s: parse failed: %s" (Catalog.module_name spec) msg
      | Ok vm -> (
          match Vparse.matches_circuit vm c with
          | Ok () -> ()
          | Error es ->
              Alcotest.failf "%s: %s" (Catalog.module_name spec)
                (String.concat "; " es)))
    all_specs

let test_catalog_verilog_emits () =
  (* Every catalog module produces parseable-looking Verilog with a module
     header and an endmodule. *)
  List.iter
    (fun spec ->
      let v = Verilog.of_design (Catalog.create spec) in
      let has sub =
        let n = String.length v and m = String.length sub in
        let rec go i = i + m <= n && (String.sub v i m = sub || go (i + 1)) in
        go 0
      in
      if not (has ("module " ^ Catalog.module_name spec)) then
        Alcotest.failf "%s: missing module header" (Catalog.module_name spec);
      if not (has "endmodule") then
        Alcotest.failf "%s: missing endmodule" (Catalog.module_name spec))
    all_specs

let prop_rom_roundtrip =
  (* Random ROM images: the hardware reads back every word, and the
     emitted Verilog (with its reset-time initialization) re-parses
     into a structurally identical circuit. *)
  QCheck.Test.make ~name:"rom image readback and verilog roundtrip" ~count:30
    QCheck.(list_of_size (QCheck.Gen.int_range 1 12) (int_bound 0xFFFF))
    (fun contents ->
      let p = { Rom.data_width = 16; contents } in
      let c = Rom.create p in
      let tb = Testbench.create c in
      Testbench.drive_many tb [ ("csb", 0); ("reb", 0) ];
      List.iteri
        (fun i want ->
          Testbench.drive tb "addr" i;
          Testbench.settle tb;
          if Testbench.peek tb "rdata" <> want then
            QCheck.Test.fail_reportf "word %d: got %d want %d" i
              (Testbench.peek tb "rdata") want)
        contents;
      match Vparse.parse_module (Verilog.of_circuit c) with
      | Error msg -> QCheck.Test.fail_reportf "parse: %s" msg
      | Ok vm -> (
          match Vparse.matches_circuit vm c with
          | Ok () -> true
          | Error es -> QCheck.Test.fail_reportf "%s" (String.concat "; " es)))

let prop_area_monotone_in_width =
  (* Widening a datapath never shrinks the estimated area. *)
  QCheck.Test.make ~name:"area monotone in data width" ~count:20
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (w1, w2) ->
      let lo = 8 * min w1 w2 and hi = 8 * max w1 w2 in
      let gates dw =
        Area.gates
          (Area.of_circuit
             (Catalog.create
                (Catalog.Spec_bififo
                   { Bififo.data_width = dw; depth = 16 })))
      in
      gates lo <= gates hi)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_fifo_model; prop_arbiter_onehot; prop_arbiter_work_conserving;
      prop_dct_random; prop_fft_random; prop_rom_roundtrip;
      prop_area_monotone_in_width ]

let () =
  Alcotest.run "modlib"
    [
      ( "fifo",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "full" `Quick test_fifo_full;
          Alcotest.test_case "pop empty" `Quick test_fifo_pop_empty;
          Alcotest.test_case "simultaneous" `Quick test_fifo_simultaneous;
        ] );
      ( "hs_regs",
        [
          Alcotest.test_case "protocol" `Quick test_hs_regs_protocol;
          Alcotest.test_case "bfba init" `Quick test_hs_regs_bfba_init;
          Alcotest.test_case "set+clr" `Quick test_hs_regs_set_clr_conflict;
        ] );
      ( "arbiter",
        [
          Alcotest.test_case "priority" `Quick test_arbiter_priority;
          Alcotest.test_case "hold" `Quick test_arbiter_hold;
          Alcotest.test_case "round robin" `Quick test_arbiter_round_robin;
          Alcotest.test_case "fcfs order" `Quick test_arbiter_fcfs_order;
        ] );
      ( "memory",
        [
          Alcotest.test_case "sram rw" `Quick test_sram_rw;
          Alcotest.test_case "mbi+sram" `Quick test_mbi_sram_transaction;
        ] );
      ("cbi", [ Alcotest.test_case "transaction" `Quick test_cbi_transaction ]);
      ("bb", [ Alcotest.test_case "gating" `Quick test_bb_gating ]);
      ( "accelerators",
        [
          Alcotest.test_case "dct reference" `Quick test_dct_matches_reference;
          Alcotest.test_case "fft reference" `Quick test_fft_matches_reference;
          Alcotest.test_case "rom contents" `Quick test_rom_contents;
          Alcotest.test_case "rom naming and errors" `Quick
            test_rom_distinct_images_distinct_names;
          Alcotest.test_case "dpram ports" `Quick test_dpram_ports;
          Alcotest.test_case "dpram conflict" `Quick test_dpram_conflict;
        ] );
      ( "bififo",
        [
          Alcotest.test_case "threshold irq" `Quick test_bififo_threshold_irq;
          Alcotest.test_case "bidirectional" `Quick test_bififo_bidirectional;
        ] );
      ( "interfaces",
        [
          Alcotest.test_case "gbi" `Quick test_gbi_pipeline;
          Alcotest.test_case "abi" `Quick test_abi_registers;
          Alcotest.test_case "sb" `Quick test_sb_passthrough;
          Alcotest.test_case "busmux" `Quick test_busmux_decode;
          Alcotest.test_case "busjoin" `Quick test_busjoin_grant_routing;
          Alcotest.test_case "hs_slave" `Quick test_hs_slave_both_sides;
          Alcotest.test_case "fifo_slave" `Quick test_fifo_slave_roundtrip;
        ] );
      ( "protection",
        [
          Alcotest.test_case "watchdog times out" `Quick
            test_watchdog_times_out;
          Alcotest.test_case "watchdog ack restarts" `Quick
            test_watchdog_ack_restarts_count;
          Alcotest.test_case "watchdog validation" `Quick
            test_watchdog_validates;
          Alcotest.test_case "parity gen/chk" `Quick test_parity_gen_chk;
          Alcotest.test_case "parity validation" `Quick test_parity_validates;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "lint clean" `Quick test_catalog_all_lint_clean;
          Alcotest.test_case "memoizes" `Quick test_catalog_memoizes;
          Alcotest.test_case "cache bounded" `Quick test_catalog_cache_bounded;
          Alcotest.test_case "names" `Quick test_catalog_names;
          Alcotest.test_case "verilog" `Quick test_catalog_verilog_emits;
          Alcotest.test_case "verilog roundtrip" `Quick
            test_catalog_verilog_roundtrip;
        ] );
      ("properties", qcheck_cases);
    ]
