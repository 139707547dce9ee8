open Busgen_rtl
module M = Busgen_modlib
module Spec = Busgen_wirelib.Spec

type accelerator = Acc_none | Acc_dct | Acc_fft

type mem_kind = Mk_sram | Mk_dram | Mk_dpram

type config = {
  n_pes : int;
  bus_addr_width : int;
  bus_data_width : int;
  mem_addr_width : int;
  global_mem_addr_width : int;
  fifo_depth : int;
  arb_policy : M.Arbiter.policy;
  cpu : M.Cbi.pe;
  accelerator : accelerator;
  mem_kind : mem_kind;
  n_subsystems : int;
  protect : bool;
}

let paper_config ~n_pes =
  {
    n_pes;
    bus_addr_width = 32;
    bus_data_width = 64;
    mem_addr_width = 20;
    global_mem_addr_width = 20;
    fifo_depth = 1024;
    arb_policy = M.Arbiter.Fcfs;
    cpu = M.Cbi.Mpc755;
    accelerator = Acc_none;
    mem_kind = Mk_sram;
    n_subsystems = 2;
    protect = false;
  }

let data_width_range = (1, max_int)
let mem_addr_width_range = (1, 20)
let fifo_depth_range = (2, max_int)

let small_config ~n_pes =
  {
    n_pes;
    bus_addr_width = 32;
    bus_data_width = 16;
    mem_addr_width = 8;
    global_mem_addr_width = 8;
    fifo_depth = 8;
    arb_policy = M.Arbiter.Fcfs;
    cpu = M.Cbi.Mpc755;
    accelerator = Acc_none;
    mem_kind = Mk_sram;
    n_subsystems = 2;
    protect = false;
  }

type generated = {
  top : Circuit.t;
  entries : Spec.entry list;
  infos : (string * Netlist.info) list;
}

(* ------------------------------------------------------------------ *)
(* Wire-spec helpers                                                   *)
(* ------------------------------------------------------------------ *)

let ep m p msb lsb = { Spec.m_ref = Spec.Exact m; pname = p; wmsb = msb; wlsb = lsb }

(* Full-span wire between two ports. *)
let wf name width (m1, p1) (m2, p2) =
  {
    Spec.w_name = name;
    w_width = width;
    end1 = ep m1 p1 (width - 1) 0;
    end2 = ep m2 p2 (width - 1) 0;
  }

(* Wire whose second endpoint reads only the low [bits] bits. *)
let wlo name width ~bits (m1, p1) (m2, p2) =
  {
    Spec.w_name = name;
    w_width = width;
    end1 = ep m1 p1 (width - 1) 0;
    end2 = ep m2 p2 (bits - 1) 0;
  }

(* Group (chain/ring) wire over [members]. *)
let wg name width ~members p1 p2 =
  let g = Spec.Group ("BAN", members) in
  {
    Spec.w_name = name;
    w_width = width;
    end1 = { Spec.m_ref = g; pname = p1; wmsb = width - 1; wlsb = 0 };
    end2 = { Spec.m_ref = g; pname = p2; wmsb = width - 1; wlsb = 0 };
  }

(* A master->slave bus bundle: sel/rnw/addr/wdata forward, rdata/ack
   back.  [f1]/[f2] map the generic signal names to the two modules' port
   names.  [addr_bits] narrows the address seen by the slave. *)
let bus_link ~tag ~aw ~dw ?(addr_bits = 0) (m1, f1) (m2, f2) =
  let ab = if addr_bits = 0 then aw else addr_bits in
  [
    wf (tag ^ "_sel") 1 (m1, f1 "sel") (m2, f2 "sel");
    wf (tag ^ "_rnw") 1 (m1, f1 "rnw") (m2, f2 "rnw");
    (if ab = aw then wf (tag ^ "_addr") aw (m1, f1 "addr") (m2, f2 "addr")
     else wlo (tag ^ "_addr") aw ~bits:ab (m1, f1 "addr") (m2, f2 "addr"));
    wf (tag ^ "_wdata") dw (m1, f1 "wdata") (m2, f2 "wdata");
    wf (tag ^ "_rdata") dw (m2, f2 "rdata") (m1, f1 "rdata");
    wf (tag ^ "_ack") 1 (m2, f2 "ack") (m1, f1 "ack");
  ]

(* Common port-name maps. *)
let f_plain s = s
let f_pre pre s = pre ^ "_" ^ s
let f_cbi s = "bus_" ^ s
let f_mux_master s = "m_" ^ s

let f_mux_slave k s =
  match s with
  | "sel" | "rdata" | "ack" -> Printf.sprintf "s%d_%s" k s
  | _ -> "s_" ^ s

let f_join_master k s = Printf.sprintf "m%d_%s" k s

(* ------------------------------------------------------------------ *)
(* Shared sub-structures                                               *)
(* ------------------------------------------------------------------ *)

let zero1 = Bits.zero 1

(* Local memory chain: MBI + SRAM. *)
let mem_wires ~tag ~maw ~mdw (mbi, mem) =
  [
    wf (tag ^ "_csb") 1 (mbi, "csb") (mem, "csb");
    wf (tag ^ "_web") 1 (mbi, "web") (mem, "web");
    wf (tag ^ "_reb") 1 (mbi, "reb") (mem, "reb");
    wf (tag ^ "_maddr") maw (mbi, "m_addr") (mem, "addr");
    wf (tag ^ "_mwdata") mdw (mbi, "m_wdata") (mem, "wdata");
    wf (tag ^ "_mrdata") mdw (mem, "rdata") (mbi, "m_rdata");
  ]

(* HS_REGS + its slave adapter. *)
let hs_wires =
  [
    wf "w_hs_op_set" 1 ("HSS", "op_set") ("HS", "op_set");
    wf "w_hs_op_clr" 1 ("HSS", "op_clr") ("HS", "op_clr");
    wf "w_hs_rv_set" 1 ("HSS", "rv_set") ("HS", "rv_set");
    wf "w_hs_rv_clr" 1 ("HSS", "rv_clr") ("HS", "rv_clr");
    wf "w_hs_op_q" 1 ("HS", "op_q") ("HSS", "op_q");
    wf "w_hs_rv_q" 1 ("HS", "rv_q") ("HSS", "rv_q");
  ]

(* CPU socket: boundary <-> CBI, plus the CBI's self-grant. *)
let cpu_socket ~aw ~dw ~boundary =
  [
    wf "w_cpu_req" 1 (boundary, "cpu_req") ("CBI", "cpu_req");
    wf "w_cpu_rnw" 1 (boundary, "cpu_rnw") ("CBI", "cpu_rnw");
    wf "w_cpu_addr" aw (boundary, "cpu_addr") ("CBI", "cpu_addr");
    wf "w_cpu_wdata" dw (boundary, "cpu_wdata") ("CBI", "cpu_wdata");
    wf "w_cpu_rdata" dw ("CBI", "cpu_rdata") (boundary, "cpu_rdata");
    wf "w_cpu_ack" 1 ("CBI", "cpu_ack") (boundary, "cpu_ack");
  ]

let cbi_self_grant = [ wf "w_self_gnt" 1 ("CBI", "bus_req") ("CBI", "bus_gnt") ]

(* ------------------------------------------------------------------ *)
(* Module instances per configuration                                  *)
(* ------------------------------------------------------------------ *)

let sram_params c ~maw =
  {
    M.Sram.kind =
      (match c.mem_kind with
      | Mk_sram | Mk_dpram -> M.Sram.Sram
      | Mk_dram -> M.Sram.Dram);
    addr_width = maw;
    data_width = c.bus_data_width;
  }

let mbi_params c ~maw =
  M.Mbi.for_sram (sram_params c ~maw) ~bus_addr_width:c.bus_addr_width
    ~bus_data_width:c.bus_data_width

(* Local memory element and its MBI wiring, honouring the memory kind:
   SRAM/DRAM use the single-port template; DPRAM uses port A of the
   dual-port template with port B tied off. *)
let local_mem_element c ~maw =
  match c.mem_kind with
  | Mk_sram | Mk_dram ->
      ( { Netlist.el_name = "MEM";
          el_circuit = M.Catalog.create (M.Catalog.Spec_sram (sram_params c ~maw)) },
        [] )
  | Mk_dpram ->
      ( { Netlist.el_name = "MEM";
          el_circuit =
            M.Catalog.create
              (M.Catalog.Spec_dpram
                 { M.Dpram.addr_width = maw; data_width = c.bus_data_width }) },
        [
          ("MEM", "b_csb", Bits.of_bool true);
          ("MEM", "b_web", Bits.of_bool true);
          ("MEM", "b_reb", Bits.of_bool true);
          ("MEM", "b_addr", Bits.zero maw);
          ("MEM", "b_wdata", Bits.zero c.bus_data_width);
        ] )

let local_mem_wires c ~tag ~maw =
  let dw = c.bus_data_width in
  let port p = match c.mem_kind with Mk_dpram -> "a_" ^ p | Mk_sram | Mk_dram -> p in
  [
    wf (tag ^ "_csb") 1 ("MBI", "csb") ("MEM", port "csb");
    wf (tag ^ "_web") 1 ("MBI", "web") ("MEM", port "web");
    wf (tag ^ "_reb") 1 ("MBI", "reb") ("MEM", port "reb");
    wf (tag ^ "_maddr") maw ("MBI", "m_addr") ("MEM", port "addr");
    wf (tag ^ "_mwdata") dw ("MBI", "m_wdata") ("MEM", port "wdata");
    wf (tag ^ "_mrdata") dw ("MEM", port "rdata") ("MBI", "m_rdata");
  ]

let cbi_params c =
  { M.Cbi.pe = c.cpu; addr_width = c.bus_addr_width;
    data_width = c.bus_data_width }

let bififo_params c =
  { M.Bififo.data_width = c.bus_data_width; depth = c.fifo_depth }

let el name spec = { Netlist.el_name = name; el_circuit = M.Catalog.create spec }

(* Bus error-protection block (generated when [config.protect]): a
   watchdog across the bus's select/acknowledge pair plus an even-parity
   generator/checker over the write-data lines.  The timeout, release
   and parity-error strobes are exported on the enclosing boundary
   module; system assembly leaves them observable (RTL fault campaigns
   peek them as <instance>$bus_timeout etc.). *)
let watchdog_timeout = 64

let protect_elements c =
  let dw = c.bus_data_width in
  [
    el "WDOG"
      (M.Catalog.Spec_watchdog { M.Watchdog.timeout = watchdog_timeout });
    el "PARGEN"
      (M.Catalog.Spec_parity
         { M.Parity.data_width = dw; role = M.Parity.Generator });
    el "PARCHK"
      (M.Catalog.Spec_parity
         { M.Parity.data_width = dw; role = M.Parity.Checker });
  ]

let protect_wires c ~boundary ~sel ~ack ~data =
  let dw = c.bus_data_width in
  let sm, sp = sel and am, ap = ack and dm, dp = data in
  [
    wf "w_wd_req" 1 (sm, sp) ("WDOG", "req");
    wf "w_wd_ack" 1 (am, ap) ("WDOG", "ack");
    wf "w_wd_to" 1 ("WDOG", "timeout") (boundary, "bus_timeout");
    wf "w_wd_rel" 1 ("WDOG", "force_release") (boundary, "bus_release");
    wf "w_par_data" dw (dm, dp) ("PARGEN", "data");
    wf "w_par_chk" dw (dm, dp) ("PARCHK", "data");
    wf "w_par_bit" 1 ("PARGEN", "parity") ("PARCHK", "parity");
    wf "w_par_err" 1 ("PARCHK", "error") (boundary, "parity_error");
  ]

(* ------------------------------------------------------------------ *)
(* BFBA / Hybrid BAN                                                  *)
(* ------------------------------------------------------------------ *)

(* The BFBA BAN (paper Fig. 4); with [with_global] it is the Hybrid BAN
   (Fig. 6), which adds a GBI window onto the global bus. *)
let ban_bfba ?(with_fft = false) c ~with_global =
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let maw = c.mem_addr_width in
  let cw = M.Bififo.count_width (bififo_params c) in
  let regions =
    [
      { M.Busmux.base = Addrmap.local_mem_base; size = 1 lsl maw };
      { M.Busmux.base = Addrmap.own_hs_base; size = 2 };
      { M.Busmux.base = Addrmap.own_fifo_base; size = 4 };
      { M.Busmux.base = Addrmap.peer_base; size = Addrmap.peer_window_words };
    ]
    @ (if with_global then
         [ { M.Busmux.base = Addrmap.global_base;
             size = Addrmap.global_window_words } ]
       else [])
    @
    if with_fft then
      [ { M.Busmux.base = Addrmap.fft_base; size = Addrmap.fft_window_words } ]
    else []
  in
  let elements =
    [
      el "CBI" (M.Catalog.Spec_cbi (cbi_params c));
      el "LMUX"
        (M.Catalog.Spec_busmux
           { M.Busmux.addr_width = aw; data_width = dw; regions });
      el "MBI" (M.Catalog.Spec_mbi (mbi_params c ~maw));
      fst (local_mem_element c ~maw);
      el "HS" (M.Catalog.Spec_hs_regs { M.Hs_regs.init_op = true });
      el "HSS" (M.Catalog.Spec_hs_slave { M.Hs_slave.data_width = dw });
      el "BIF" (M.Catalog.Spec_bififo (bififo_params c));
      el "FSL"
        (M.Catalog.Spec_fifo_slave
           { M.Fifo_slave.data_width = dw; count_width = cw });
      el "PMUX"
        (M.Catalog.Spec_busmux
           {
             M.Busmux.addr_width = aw;
             data_width = dw;
             regions =
               [
                 { M.Busmux.base = Addrmap.peer_base + Addrmap.peer_hs_offset;
                   size = 2 };
                 { M.Busmux.base = Addrmap.peer_base + Addrmap.peer_fifo_offset;
                   size = 4 };
               ];
           });
    ]
    @ (if with_global then
         [
           el "GBI"
             (M.Catalog.Spec_gbi
                { M.Gbi.bus_type = M.Gbi.Gbi_gbaviii; addr_width = aw;
                  data_width = dw });
         ]
       else [])
    @ (if with_fft then
         [ el "FADP" (M.Catalog.Spec_fft_adapter { M.Fft_adapter.data_width = dw }) ]
       else [])
    @ (if c.protect then protect_elements c else [])
  in
  let fft_region = if with_global then 5 else 4 in
  let wires =
    cpu_socket ~aw ~dw ~boundary:"BAN"
    @ cbi_self_grant
    @ bus_link ~tag:"w_lb" ~aw ~dw ("CBI", f_cbi) ("LMUX", f_mux_master)
    @ bus_link ~tag:"w_r0" ~aw ~dw ("LMUX", f_mux_slave 0) ("MBI", f_plain)
    @ local_mem_wires c ~tag:"w_lm" ~maw
    @ bus_link ~tag:"w_r1" ~aw ~dw ~addr_bits:1
        ("LMUX", f_mux_slave 1) ("HSS", f_pre "b")
    @ bus_link ~tag:"w_r2" ~aw ~dw ~addr_bits:2
        ("LMUX", f_mux_slave 2) ("FSL", f_pre "r")
    @ bus_link ~tag:"w_r3" ~aw ~dw ("LMUX", f_mux_slave 3) ("BAN", f_pre "dn")
    @ hs_wires
    @ [
        (* Inbound peer window: boundary "up" bundle -> PMUX master. *)
      ]
    @ bus_link ~tag:"w_up" ~aw ~dw ("BAN", f_pre "up") ("PMUX", f_mux_master)
    @ bus_link ~tag:"w_p0" ~aw ~dw ~addr_bits:1
        ("PMUX", f_mux_slave 0) ("HSS", f_pre "a")
    @ bus_link ~tag:"w_p1" ~aw ~dw ~addr_bits:2
        ("PMUX", f_mux_slave 1) ("FSL", f_pre "s")
    @ [
        (* Fifo adapter <-> Bi-FIFO block (a->b direction only). *)
        wf "w_f_push" 1 ("FSL", "push") ("BIF", "a_push");
        wf "w_f_pdata" dw ("FSL", "push_data") ("BIF", "a_wdata");
        wf "w_f_twe" 1 ("FSL", "thr_we") ("BIF", "a_thr_we");
        wf "w_f_thr" cw ("FSL", "thr") ("BIF", "a_thr");
        wf "w_f_pop" 1 ("FSL", "pop") ("BIF", "b_pop");
        wf "w_f_head" dw ("BIF", "b_rdata") ("FSL", "head");
        wf "w_f_empty" 1 ("BIF", "b_empty") ("FSL", "empty");
        wf "w_f_full" 1 ("BIF", "a_full") ("FSL", "full");
        wf "w_f_count" cw ("BIF", "b_count") ("FSL", "count");
        wf "w_f_irq" 1 ("BIF", "irq_b") ("FSL", "irq");
        (* Receiver interrupt exported to the PE socket. *)
        wf "w_f_irq_cpu" 1 ("BIF", "irq_b") ("BAN", "cpu_irq");
      ]
    @ (if with_global then
         bus_link ~tag:"w_r4" ~aw ~dw ("LMUX", f_mux_slave 4) ("GBI", f_pre "i")
         @ bus_link ~tag:"w_g" ~aw ~dw ("GBI", f_pre "o") ("BAN", f_pre "g")
       else [])
    @
    if with_fft then
      bus_link ~tag:"w_rf" ~aw ~dw ~addr_bits:12
        ("LMUX", f_mux_slave fft_region)
        ("FADP", f_plain)
      @ [
          (* Fig. 17(b): the _b-suffixed pins exported at the BAN edge. *)
          wf "w_b_addr" 12 ("FADP", "addr_b") ("BAN", "addr_b");
          wf "w_b_data" dw ("FADP", "data_b") ("BAN", "data_b");
          wf "w_b_web" 1 ("FADP", "web_b") ("BAN", "web_b");
          wf "w_b_reb" 1 ("FADP", "reb_b") ("BAN", "reb_b");
          wf "w_b_srt" 1 ("FADP", "srt_b") ("BAN", "srt_b");
          wf "w_b_q" dw ("BAN", "q_b") ("FADP", "q_b");
          wf "w_b_ack" 1 ("BAN", "ack_b") ("FADP", "ack_b");
        ]
    else []
  in
  let wires =
    wires
    @
    if c.protect then
      protect_wires c ~boundary:"BAN" ~sel:("CBI", "bus_sel")
        ~ack:("LMUX", "m_ack") ~data:("CBI", "bus_wdata")
    else []
  in
  let ties =
    [
      ("BIF", "b_push", zero1);
      ("BIF", "b_wdata", Bits.zero dw);
      ("BIF", "a_pop", zero1);
      ("BIF", "b_thr_we", zero1);
      ("BIF", "b_thr", Bits.zero cw);
    ]
    @ snd (local_mem_element c ~maw)
    @ if with_global then [ ("GBI", "en", Bits.of_bool true) ] else []
  in
  let name =
    match (with_global, with_fft) with
    | true, _ -> "ban_hybrid"
    | false, true -> "ban_bfba_fft"
    | false, false -> "ban_bfba"
  in
  let entry = { Spec.lib_name = name; wires } in
  let circuit, info = Netlist.build ~name ~boundary:"BAN" ~elements ~entry ~ties () in
  (circuit, entry, info)

(* ------------------------------------------------------------------ *)
(* GBAVI BAN (paper Fig. 3)                                            *)
(* ------------------------------------------------------------------ *)

let ban_gbavi_like c ~with_global =
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let maw = c.mem_addr_width in
  let regions =
    [
      { M.Busmux.base = Addrmap.local_mem_base; size = 1 lsl maw };
      { M.Busmux.base = Addrmap.own_hs_base; size = 2 };
      { M.Busmux.base = Addrmap.peer_base; size = 2 };
      { M.Busmux.base = Addrmap.prevmem_base; size = 1 lsl maw };
    ]
    @
    if with_global then
      [ { M.Busmux.base = Addrmap.global_base;
          size = Addrmap.global_window_words } ]
    else []
  in
  let elements =
    [
      el "CBI" (M.Catalog.Spec_cbi (cbi_params c));
      el "LMUX"
        (M.Catalog.Spec_busmux
           { M.Busmux.addr_width = aw; data_width = dw; regions });
      el "JOIN"
        (M.Catalog.Spec_busjoin
           { M.Busjoin.masters = 2; addr_width = aw; data_width = dw });
      el "ARB"
        (M.Catalog.Spec_arbiter
           { M.Arbiter.policy = M.Arbiter.Priority; masters = 2 });
      el "BB"
        (M.Catalog.Spec_bb
           { M.Bb.bb_type = M.Bb.Gbavi; addr_width = aw; data_width = dw });
      el "MBI" (M.Catalog.Spec_mbi (mbi_params c ~maw));
      fst (local_mem_element c ~maw);
      el "HS" (M.Catalog.Spec_hs_regs { M.Hs_regs.init_op = false });
      el "HSS" (M.Catalog.Spec_hs_slave { M.Hs_slave.data_width = dw });
    ]
    @
    (if with_global then
       [
         el "GBI"
           (M.Catalog.Spec_gbi
              { M.Gbi.bus_type = M.Gbi.Gbi_gbaviii; addr_width = aw;
                data_width = dw });
       ]
     else [])
    @ (if c.protect then protect_elements c else [])
  in
  let wires =
    cpu_socket ~aw ~dw ~boundary:"BAN"
    @ cbi_self_grant
    @ bus_link ~tag:"w_lb" ~aw ~dw ("CBI", f_cbi) ("LMUX", f_mux_master)
    (* Region 0: local memory, behind the 2-master join. *)
    @ bus_link ~tag:"w_r0" ~aw ~dw ("LMUX", f_mux_slave 0) ("JOIN", f_join_master 0)
    @ [ wf "w_m0_req" 1 ("LMUX", "s0_sel") ("JOIN", "m0_req") ]
    (* Region 1: own handshake registers, receiver side. *)
    @ bus_link ~tag:"w_r1" ~aw ~dw ~addr_bits:1
        ("LMUX", f_mux_slave 1) ("HSS", f_pre "b")
    (* Region 2: forward window to the downstream neighbour's HS. *)
    @ bus_link ~tag:"w_r2" ~aw ~dw ("LMUX", f_mux_slave 2) ("BAN", f_pre "dnhs")
    (* Region 3: backward window into the upstream neighbour's memory. *)
    @ bus_link ~tag:"w_r3" ~aw ~dw ("LMUX", f_mux_slave 3) ("BAN", f_pre "upmem")
    (* Inbound: the upstream neighbour writing our HS side A. *)
    @ bus_link ~tag:"w_ph" ~aw ~dw ~addr_bits:1
        ("BAN", f_pre "prevhs") ("HSS", f_pre "a")
    (* Inbound: the downstream neighbour reading our memory, through the
       bus bridge onto the shared segment. *)
    @ bus_link ~tag:"w_nm" ~aw ~dw ("BAN", f_pre "nextmem") ("BB", f_pre "a")
    @ bus_link ~tag:"w_bb" ~aw ~dw ("BB", f_pre "b") ("JOIN", f_join_master 1)
    @ [ wf "w_m1_req" 1 ("BB", "b_sel") ("JOIN", "m1_req") ]
    (* Join arbitration. *)
    @ [
        wf "w_jreq" 2 ("JOIN", "req") ("ARB", "req");
        wf "w_jgnt" 2 ("ARB", "grant") ("JOIN", "gnt");
      ]
    (* Join slave side -> memory. *)
    @ bus_link ~tag:"w_js" ~aw ~dw ("JOIN", f_pre "s") ("MBI", f_plain)
    @ local_mem_wires c ~tag:"w_lm" ~maw
    @ hs_wires
    @
    (if with_global then
       bus_link ~tag:"w_r4" ~aw ~dw ("LMUX", f_mux_slave 4) ("GBI", f_pre "i")
       @ bus_link ~tag:"w_g" ~aw ~dw ("GBI", f_pre "o") ("BAN", f_pre "g")
     else [])
  in
  (* The bus_link helper expects a slave naming of sel/rnw/addr/wdata on
     the JOIN slave side; JOIN's slave ports are s_sel (outputs), so the
     link above is reversed: fix by building it manually. *)
  let wires =
    List.filter
      (fun w ->
        not (String.length w.Spec.w_name >= 4 && String.sub w.Spec.w_name 0 4 = "w_js"))
      wires
    @ [
        wf "w_js_sel" 1 ("JOIN", "s_sel") ("MBI", "sel");
        wf "w_js_rnw" 1 ("JOIN", "s_rnw") ("MBI", "rnw");
        wf "w_js_addr" aw ("JOIN", "s_addr") ("MBI", "addr");
        wf "w_js_wdata" dw ("JOIN", "s_wdata") ("MBI", "wdata");
        wf "w_js_rdata" dw ("MBI", "rdata") ("JOIN", "s_rdata");
        wf "w_js_ack" 1 ("MBI", "ack") ("JOIN", "s_ack");
      ]
    @
    if c.protect then
      protect_wires c ~boundary:"BAN" ~sel:("CBI", "bus_sel")
        ~ack:("LMUX", "m_ack") ~data:("CBI", "bus_wdata")
    else []
  in
  let ties =
    [ ("BB", "enable", Bits.of_bool true) ]
    @ snd (local_mem_element c ~maw)
    @ if with_global then [ ("GBI", "en", Bits.of_bool true) ] else []
  in
  let name = if with_global then "ban_gbavii" else "ban_gbavi" in
  let entry = { Spec.lib_name = name; wires } in
  let circuit, info =
    Netlist.build ~name ~boundary:"BAN" ~elements ~entry ~ties ()
  in
  (circuit, entry, info)

(* ------------------------------------------------------------------ *)
(* GBAVIII BAN (paper Fig. 5)                                          *)
(* ------------------------------------------------------------------ *)

let ban_gbaviii c =
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let maw = c.mem_addr_width in
  let regions =
    [
      { M.Busmux.base = Addrmap.local_mem_base; size = 1 lsl maw };
      { M.Busmux.base = Addrmap.global_base;
        size = Addrmap.global_window_words };
    ]
  in
  let elements =
    [
      el "CBI" (M.Catalog.Spec_cbi (cbi_params c));
      el "LMUX"
        (M.Catalog.Spec_busmux
           { M.Busmux.addr_width = aw; data_width = dw; regions });
      el "MBI" (M.Catalog.Spec_mbi (mbi_params c ~maw));
      fst (local_mem_element c ~maw);
      el "GBI"
        (M.Catalog.Spec_gbi
           { M.Gbi.bus_type = M.Gbi.Gbi_gbaviii; addr_width = aw;
             data_width = dw });
    ]
    @ (if c.protect then protect_elements c else [])
  in
  let wires =
    cpu_socket ~aw ~dw ~boundary:"BAN"
    @ cbi_self_grant
    @ bus_link ~tag:"w_lb" ~aw ~dw ("CBI", f_cbi) ("LMUX", f_mux_master)
    @ bus_link ~tag:"w_r0" ~aw ~dw ("LMUX", f_mux_slave 0) ("MBI", f_plain)
    @ local_mem_wires c ~tag:"w_lm" ~maw
    @ bus_link ~tag:"w_r1" ~aw ~dw ("LMUX", f_mux_slave 1) ("GBI", f_pre "i")
    @ bus_link ~tag:"w_g" ~aw ~dw ("GBI", f_pre "o") ("BAN", f_pre "g")
    @ (if c.protect then
         protect_wires c ~boundary:"BAN" ~sel:("CBI", "bus_sel")
           ~ack:("LMUX", "m_ack") ~data:("CBI", "bus_wdata")
       else [])
  in
  let ties =
    [ ("GBI", "en", Bits.of_bool true) ] @ snd (local_mem_element c ~maw)
  in
  let entry = { Spec.lib_name = "ban_gbaviii"; wires } in
  let circuit, info =
    Netlist.build ~name:"ban_gbaviii" ~boundary:"BAN" ~elements ~entry ~ties ()
  in
  (circuit, entry, info)

(* CPU-only BAN (GGBA and SplitBA processor BANs): the CBI's bus side is
   the BAN's master bundle, including req/gnt for the global arbiter. *)
let ban_cbionly c =
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let elements = [ el "CBI" (M.Catalog.Spec_cbi (cbi_params c)) ] in
  let wires =
    cpu_socket ~aw ~dw ~boundary:"BAN"
    @ bus_link ~tag:"w_g" ~aw ~dw ("CBI", f_cbi) ("BAN", f_pre "g")
    @ [
        wf "w_g_req" 1 ("CBI", "bus_req") ("BAN", "g_req");
        wf "w_g_gnt" 1 ("BAN", "g_gnt") ("CBI", "bus_gnt");
      ]
  in
  let entry = { Spec.lib_name = "ban_cbionly"; wires } in
  let circuit, info =
    Netlist.build ~name:"ban_cbionly" ~boundary:"BAN" ~elements ~entry ()
  in
  (circuit, entry, info)

(* ------------------------------------------------------------------ *)
(* Global-memory BAN (BAN G of Figs. 5/6, and the GGBA hub)            *)
(* ------------------------------------------------------------------ *)

let ban_global c ~masters =
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let gmaw = c.global_mem_addr_width in
  let with_dct = c.accelerator = Acc_dct in
  let elements =
    [
      el "JOIN"
        (M.Catalog.Spec_busjoin
           { M.Busjoin.masters; addr_width = aw; data_width = dw });
      el "ABI" (M.Catalog.Spec_abi { M.Abi.masters });
      el "ARB"
        (M.Catalog.Spec_arbiter { M.Arbiter.policy = c.arb_policy; masters });
      el "MBI" (M.Catalog.Spec_mbi (mbi_params c ~maw:gmaw));
      el "MEM" (M.Catalog.Spec_sram (sram_params c ~maw:gmaw));
    ]
    @
    (if with_dct then
       [
         el "DEMUX"
           (M.Catalog.Spec_busmux
              {
                M.Busmux.addr_width = aw;
                data_width = dw;
                regions =
                  [
                    { M.Busmux.base = Addrmap.global_base; size = 1 lsl gmaw };
                    { M.Busmux.base = Addrmap.dct_base; size = 32 };
                  ];
              });
         el "DCT" (M.Catalog.Spec_dct { M.Dct_ip.data_width = dw });
       ]
     else [])
    @ (if c.protect then protect_elements c else [])
  in
  let master_wires =
    List.concat
      (List.init masters (fun k ->
           bus_link ~tag:(Printf.sprintf "w_m%d" k) ~aw ~dw
             ("BANG", f_pre (Printf.sprintf "m%d" k))
             ("JOIN", f_join_master k)
           @ [
               wf (Printf.sprintf "w_m%d_req" k) 1
                 ("BANG", Printf.sprintf "m%d_req" k)
                 ("JOIN", Printf.sprintf "m%d_req" k);
               wf (Printf.sprintf "w_m%d_gnt" k) 1
                 ("JOIN", Printf.sprintf "m%d_gnt" k)
                 ("BANG", Printf.sprintf "m%d_gnt" k);
             ]))
  in
  let arb_wires =
    [
      wf "w_jreq" masters ("JOIN", "req") ("ABI", "bus_req");
      wf "w_areq" masters ("ABI", "arb_req") ("ARB", "req");
      wf "w_agnt" masters ("ARB", "grant") ("ABI", "arb_grant");
      wf "w_jgnt" masters ("ABI", "bus_gnt") ("JOIN", "gnt");
    ]
  in
  let slave_wires =
    if with_dct then
      (* Join -> address decode -> {global memory, DCT accelerator}. *)
      [
        wf "w_js_sel" 1 ("JOIN", "s_sel") ("DEMUX", "m_sel");
        wf "w_js_rnw" 1 ("JOIN", "s_rnw") ("DEMUX", "m_rnw");
        wf "w_js_addr" aw ("JOIN", "s_addr") ("DEMUX", "m_addr");
        wf "w_js_wdata" dw ("JOIN", "s_wdata") ("DEMUX", "m_wdata");
        wf "w_js_rdata" dw ("DEMUX", "m_rdata") ("JOIN", "s_rdata");
        wf "w_js_ack" 1 ("DEMUX", "m_ack") ("JOIN", "s_ack");
      ]
      @ bus_link ~tag:"w_gm" ~aw ~dw ("DEMUX", f_mux_slave 0) ("MBI", f_plain)
      @ bus_link ~tag:"w_dct" ~aw ~dw ~addr_bits:5
          ("DEMUX", f_mux_slave 1) ("DCT", f_plain)
    else
      [
        wf "w_js_sel" 1 ("JOIN", "s_sel") ("MBI", "sel");
        wf "w_js_rnw" 1 ("JOIN", "s_rnw") ("MBI", "rnw");
        wf "w_js_addr" aw ("JOIN", "s_addr") ("MBI", "addr");
        wf "w_js_wdata" dw ("JOIN", "s_wdata") ("MBI", "wdata");
        wf "w_js_rdata" dw ("MBI", "rdata") ("JOIN", "s_rdata");
        wf "w_js_ack" 1 ("MBI", "ack") ("JOIN", "s_ack");
      ]
  in
  let wires =
    master_wires @ arb_wires @ slave_wires
    @ mem_wires ~tag:"w_mem" ~maw:gmaw ~mdw:dw ("MBI", "MEM")
    @ (if c.protect then
         protect_wires c ~boundary:"BANG" ~sel:("JOIN", "s_sel")
           ~ack:(if with_dct then ("DEMUX", "m_ack") else ("MBI", "ack"))
           ~data:("JOIN", "s_wdata")
       else [])
  in
  let entry = { Spec.lib_name = "ban_global"; wires } in
  let circuit, info =
    Netlist.build
      ~name:
        (Printf.sprintf "ban_global_m%d%s" masters
           (if with_dct then "_dct" else ""))
      ~boundary:"BANG" ~elements ~entry ()
  in
  (circuit, entry, info)

(* A BAN's global-bus connection routed through an explicit Segment of
   Bus instance, so generated netlists carry the SB modules of the
   paper's figures (Fig. 2: each BAN reaches the bus through an SB). *)
let sb_global_link c ~k ~ban ~hub =
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let sbn = Printf.sprintf "SB_%d" k in
  let element =
    el sbn
      (M.Catalog.Spec_sb
         { M.Sb.bus_type = M.Sb.Sb_gbaviii; addr_width = aw; data_width = dw })
  in
  let t n = Printf.sprintf "w_sb%d_%s" k n in
  let mk p = Printf.sprintf "m%d_%s" k p in
  let wires =
    [
      wf (t "sel_a") 1 (ban, "g_sel") (sbn, "sel_in");
      wf (t "sel_b") 1 (sbn, "sel_out") (hub, mk "sel");
      wf (t "rnw_a") 1 (ban, "g_rnw") (sbn, "rnw_in");
      wf (t "rnw_b") 1 (sbn, "rnw_out") (hub, mk "rnw");
      wf (t "addr_a") aw (ban, "g_addr") (sbn, "addr_in");
      wf (t "addr_b") aw (sbn, "addr_out") (hub, mk "addr");
      wf (t "wdata_a") dw (ban, "g_wdata") (sbn, "wdata_in");
      wf (t "wdata_b") dw (sbn, "wdata_out") (hub, mk "wdata");
      wf (t "rdata_a") dw (hub, mk "rdata") (sbn, "rdata_in");
      wf (t "rdata_b") dw (sbn, "rdata_out") (ban, "g_rdata");
      wf (t "ack_a") 1 (hub, mk "ack") (sbn, "ack_in");
      wf (t "ack_b") 1 (sbn, "ack_out") (ban, "g_ack");
      (* The request line to the arbiter follows the select. *)
      wf (t "req") 1 (sbn, "sel_out") (hub, mk "req");
    ]
  in
  (element, wires)

(* ------------------------------------------------------------------ *)
(* Subsystem / system assembly                                         *)
(* ------------------------------------------------------------------ *)

let ban_names n = List.init n (fun k -> Printf.sprintf "BAN_%d" k)

(* Export every PE socket of [bans] at the system boundary. *)
let cpu_exports ~aw ~dw ?(irq = false) names =
  List.concat
    (List.mapi
       (fun k bn ->
         let p s = Printf.sprintf "cpu%d_%s" k s in
         [
           wf (p "req" ^ "_w") 1 ("SYS", p "req") (bn, "cpu_req");
           wf (p "rnw" ^ "_w") 1 ("SYS", p "rnw") (bn, "cpu_rnw");
           wf (p "addr" ^ "_w") aw ("SYS", p "addr") (bn, "cpu_addr");
           wf (p "wdata" ^ "_w") dw ("SYS", p "wdata") (bn, "cpu_wdata");
           wf (p "rdata" ^ "_w") dw (bn, "cpu_rdata") ("SYS", p "rdata");
           wf (p "ack" ^ "_w") 1 (bn, "cpu_ack") ("SYS", p "ack");
         ]
         @
         if irq then [ wf (p "irq" ^ "_w") 1 (bn, "cpu_irq") ("SYS", p "irq") ]
         else [])
       names)

(* Ring links: BAN_k.dn* -> BAN_{k+1}.up* for every signal of a master
   bundle (requests forward, responses backward). *)
let ring_links ~aw ~dw ~members ~fwd ~bwd =
  [
    wg ("w_" ^ fwd ^ "_sel") 1 ~members (fwd ^ "_sel") (bwd ^ "_sel");
    wg ("w_" ^ fwd ^ "_rnw") 1 ~members (fwd ^ "_rnw") (bwd ^ "_rnw");
    wg ("w_" ^ fwd ^ "_addr") aw ~members (fwd ^ "_addr") (bwd ^ "_addr");
    wg ("w_" ^ fwd ^ "_wdata") dw ~members (fwd ^ "_wdata") (bwd ^ "_wdata");
    wg ("w_" ^ fwd ^ "_rdata") dw ~members (fwd ^ "_rdata") (bwd ^ "_rdata");
    wg ("w_" ^ fwd ^ "_ack") 1 ~members (fwd ^ "_ack") (bwd ^ "_ack");
  ]

let bfba_like c ~with_global ~arch_name =
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let ban, ban_entry, ban_info = ban_bfba c ~with_global in
  let names = ban_names c.n_pes in
  let elements =
    List.map (fun n -> { Netlist.el_name = n; el_circuit = ban }) names
  in
  let elements, global_wires, extra_entries, extra_infos =
    if with_global then begin
      let bang, bang_entry, bang_info = ban_global c ~masters:c.n_pes in
      let sbs, gw =
        List.split
          (List.mapi
             (fun k bn -> sb_global_link c ~k ~ban:bn ~hub:"GMEM")
             names)
      in
      ( elements @ sbs @ [ { Netlist.el_name = "GMEM"; el_circuit = bang } ],
        List.concat gw,
        [ bang_entry ],
        [ ("ban_global", bang_info) ] )
    end
    else (elements, [], [], [])
  in
  let wires =
    cpu_exports ~aw ~dw ~irq:true names
    @ ring_links ~aw ~dw ~members:names ~fwd:"dn" ~bwd:"up"
    @ global_wires
  in
  let entry = { Spec.lib_name = arch_name ^ "_subsys"; wires } in
  let top, info =
    Netlist.build ~name:("sys_" ^ arch_name) ~boundary:"SYS" ~elements ~entry ()
  in
  {
    top;
    entries = [ ban_entry ] @ extra_entries @ [ entry ];
    infos =
      [ ((if with_global then "ban_hybrid" else "ban_bfba"), ban_info) ]
      @ extra_infos
      @ [ (arch_name ^ "_subsys", info) ];
  }

(* Only BFBA carries the FFT BAN's dedicated wires (Example 8). *)
let reject_fft name c =
  if c.accelerator = Acc_fft then
    invalid_arg
      (Printf.sprintf
         "Archs.%s: the FFT BAN attaches over BFBA's dedicated wires \
          (paper Example 8); use the bfba architecture" name)

let bfba_plain c = bfba_like c ~with_global:false ~arch_name:"bfba"

let hybrid c =
  reject_fft "hybrid" c;
  bfba_like c ~with_global:true ~arch_name:"hybrid"

(* Paper Example 8 / Fig. 17: a BFBA chain where BAN B additionally
   drives a hardware FFT BAN over dedicated w_fft wires. *)
let bfba_with_fft c =
  if c.n_pes < 2 then
    invalid_arg "Archs.bfba_with_fft: Example 8 needs at least BANs A and B";
  if c.bus_data_width < 32 then
    invalid_arg "Archs.bfba_with_fft: complex samples need a 32-bit bus";
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let plain, ban_entry, ban_info = ban_bfba c ~with_global:false in
  let fft_ban, fft_ban_entry, fft_ban_info =
    ban_bfba ~with_fft:true c ~with_global:false
  in
  let names = ban_names c.n_pes in
  let elements =
    List.mapi
      (fun k n ->
        { Netlist.el_name = n;
          el_circuit = (if k = 1 then fft_ban else plain) })
      names
    @ [
        { Netlist.el_name = "BAN_FFT";
          el_circuit = M.Catalog.create (M.Catalog.Spec_fft { M.Fft_ip.data_width = dw }) };
      ]
  in
  let ban_b = List.nth names 1 in
  let wires =
    cpu_exports ~aw ~dw ~irq:true names
    @ ring_links ~aw ~dw ~members:names ~fwd:"dn" ~bwd:"up"
    @ [
        (* The exact wire names of paper Example 8. *)
        wf "w_fft_ad" 12 (ban_b, "addr_b") ("BAN_FFT", "addr_fft");
        wf "w_fft_data" dw (ban_b, "data_b") ("BAN_FFT", "data_fft");
        wf "w_fft_reb" 1 (ban_b, "reb_b") ("BAN_FFT", "reb_fft");
        wf "w_fft_web" 1 (ban_b, "web_b") ("BAN_FFT", "web_fft");
        wf "w_fft_srt" 1 (ban_b, "srt_b") ("BAN_FFT", "srt_fft");
        wf "w_fft_ack" 1 ("BAN_FFT", "ack_fft") (ban_b, "ack_b");
        wf "w_fft_q" dw ("BAN_FFT", "q_fft") (ban_b, "q_b");
      ]
  in
  let entry = { Spec.lib_name = "bfba_fft_subsys"; wires } in
  let top, info =
    Netlist.build ~name:"sys_bfba_fft" ~boundary:"SYS" ~elements ~entry ()
  in
  {
    top;
    entries = [ ban_entry; fft_ban_entry; entry ];
    infos =
      [ ("ban_bfba", ban_info); ("ban_bfba_fft", fft_ban_info);
        ("bfba_fft_subsys", info) ];
  }

let gbavi_like c ~with_global ~arch_name =
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let ban, ban_entry, ban_info = ban_gbavi_like c ~with_global in
  let names = ban_names c.n_pes in
  let elements =
    List.map (fun n -> { Netlist.el_name = n; el_circuit = ban }) names
  in
  let elements, global_wires, extra_entries, extra_infos =
    if with_global then begin
      let bang, bang_entry, bang_info = ban_global c ~masters:c.n_pes in
      let sbs, gw =
        List.split
          (List.mapi
             (fun k bn -> sb_global_link c ~k ~ban:bn ~hub:"GMEM")
             names)
      in
      ( elements @ sbs @ [ { Netlist.el_name = "GMEM"; el_circuit = bang } ],
        List.concat gw,
        [ bang_entry ],
        [ ("ban_global", bang_info) ] )
    end
    else (elements, [], [], [])
  in
  let wires =
    cpu_exports ~aw ~dw names
    @ ring_links ~aw ~dw ~members:names ~fwd:"dnhs" ~bwd:"prevhs"
    @ ring_links ~aw ~dw ~members:names ~fwd:"nextmem" ~bwd:"upmem"
    @ global_wires
  in
  (* nextmem is an inbound (slave) bundle: the ring helper pairs
     member k's first port with member k+1's second port, so listing
     (nextmem, upmem) wires BAN_k.nextmem <- BAN_{k+1}.upmem: BAN k+1
     reads BAN k's memory, the paper's "receiver reads the sender's
     SRAM". *)
  let entry = { Spec.lib_name = arch_name ^ "_subsys"; wires } in
  let top, info =
    Netlist.build ~name:("sys_" ^ arch_name) ~boundary:"SYS" ~elements ~entry ()
  in
  {
    top;
    entries = [ ban_entry ] @ extra_entries @ [ entry ];
    infos =
      [ ((if with_global then "ban_gbavii" else "ban_gbavi"), ban_info) ]
      @ extra_infos
      @ [ (arch_name ^ "_subsys", info) ];
  }

let bfba c =
  if c.accelerator = Acc_fft then bfba_with_fft c else bfba_plain c

let gbavi c =
  reject_fft "gbavi" c;
  gbavi_like c ~with_global:false ~arch_name:"gbavi"

let gbavii c =
  reject_fft "gbavii" c;
  gbavi_like c ~with_global:true ~arch_name:"gbavii"

let gbaviii c =
  reject_fft "gbaviii" c;
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let ban, ban_entry, ban_info = ban_gbaviii c in
  let bang, bang_entry, bang_info = ban_global c ~masters:c.n_pes in
  let names = ban_names c.n_pes in
  let elements =
    List.map (fun n -> { Netlist.el_name = n; el_circuit = ban }) names
    @ [ { Netlist.el_name = "GMEM"; el_circuit = bang } ]
  in
  let sbs, global_wires =
    List.split
      (List.mapi (fun k bn -> sb_global_link c ~k ~ban:bn ~hub:"GMEM") names)
  in
  let elements = elements @ sbs in
  let wires = cpu_exports ~aw ~dw names @ List.concat global_wires in
  let entry = { Spec.lib_name = "gbaviii_subsys"; wires } in
  let top, info =
    Netlist.build ~name:"sys_gbaviii" ~boundary:"SYS" ~elements ~entry ()
  in
  {
    top;
    entries = [ ban_entry; bang_entry; entry ];
    infos =
      [ ("ban_gbaviii", ban_info); ("ban_global", bang_info);
        ("gbaviii_subsys", info) ];
  }

let ggba c =
  reject_fft "ggba" c;
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let ban, ban_entry, ban_info = ban_cbionly c in
  let bang, bang_entry, bang_info = ban_global c ~masters:c.n_pes in
  let names = ban_names c.n_pes in
  let elements =
    List.map (fun n -> { Netlist.el_name = n; el_circuit = ban }) names
    @ [ { Netlist.el_name = "GMEM"; el_circuit = bang } ]
  in
  let wires =
    cpu_exports ~aw ~dw names
    @ List.concat
        (List.mapi
           (fun k bn ->
             bus_link ~tag:(Printf.sprintf "w_gl%d" k) ~aw ~dw (bn, f_pre "g")
               ("GMEM", f_pre (Printf.sprintf "m%d" k))
             @ [
                 wf (Printf.sprintf "w_gl%d_req" k) 1 (bn, "g_req")
                   ("GMEM", Printf.sprintf "m%d_req" k);
                 wf (Printf.sprintf "w_gl%d_gnt" k) 1
                   ("GMEM", Printf.sprintf "m%d_gnt" k)
                   (bn, "g_gnt");
               ])
           names)
  in
  let entry = { Spec.lib_name = "ggba_subsys"; wires } in
  let top, info =
    Netlist.build ~name:"sys_ggba" ~boundary:"SYS" ~elements ~entry ()
  in
  {
    top;
    entries = [ ban_entry; bang_entry; entry ];
    infos =
      [ ("ban_cbionly", ban_info); ("ban_global", bang_info);
        ("ggba_subsys", info) ];
  }

(* SplitBA subsystem hub: join + arbiter + decode onto {own memory,
   bridge window to the other subsystem}. *)
let splitba_hub c ~masters ~ss_index ~n_ss =
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let gmaw = c.global_mem_addr_width in
  let own_base = Addrmap.splitba_subsystem_base ss_index in
  (* One decode window per peer subsystem, each forwarded over its own
     bridge (a full mesh keeps every region a single power-of-two
     window; for the paper's two subsystems this is exactly the one
     outbound bridge of Fig. 7). *)
  let others =
    List.filter (fun j -> j <> ss_index) (List.init n_ss (fun j -> j))
  in
  let elements =
    [
      el "JOIN"
        (M.Catalog.Spec_busjoin
           { M.Busjoin.masters; addr_width = aw; data_width = dw });
      el "ABI" (M.Catalog.Spec_abi { M.Abi.masters });
      el "ARB"
        (M.Catalog.Spec_arbiter { M.Arbiter.policy = c.arb_policy; masters });
      el "DEMUX"
        (M.Catalog.Spec_busmux
           {
             M.Busmux.addr_width = aw;
             data_width = dw;
             regions =
               { M.Busmux.base = own_base; size = 1 lsl gmaw }
               :: List.map
                    (fun j ->
                      {
                        M.Busmux.base = Addrmap.splitba_subsystem_base j;
                        size = 1 lsl gmaw;
                      })
                    others;
           });
      el "MBI" (M.Catalog.Spec_mbi (mbi_params c ~maw:gmaw));
      el "MEM" (M.Catalog.Spec_sram (sram_params c ~maw:gmaw));
    ]
    @ (if c.protect then protect_elements c else [])
  in
  (* Region order in DEMUX follows region base order as given. *)
  let own_region = 0 in
  let master_wires =
    List.concat
      (List.init masters (fun k ->
           bus_link ~tag:(Printf.sprintf "w_m%d" k) ~aw ~dw
             ("HUB", f_pre (Printf.sprintf "m%d" k))
             ("JOIN", f_join_master k)
           @ [
               wf (Printf.sprintf "w_m%d_req" k) 1
                 ("HUB", Printf.sprintf "m%d_req" k)
                 ("JOIN", Printf.sprintf "m%d_req" k);
               wf (Printf.sprintf "w_m%d_gnt" k) 1
                 ("JOIN", Printf.sprintf "m%d_gnt" k)
                 ("HUB", Printf.sprintf "m%d_gnt" k);
             ]))
  in
  let wires =
    master_wires
    @ [
        wf "w_jreq" masters ("JOIN", "req") ("ABI", "bus_req");
        wf "w_areq" masters ("ABI", "arb_req") ("ARB", "req");
        wf "w_agnt" masters ("ARB", "grant") ("ABI", "arb_grant");
        wf "w_jgnt" masters ("ABI", "bus_gnt") ("JOIN", "gnt");
        (* Join slave side -> address decode. *)
        wf "w_js_sel" 1 ("JOIN", "s_sel") ("DEMUX", "m_sel");
        wf "w_js_rnw" 1 ("JOIN", "s_rnw") ("DEMUX", "m_rnw");
        wf "w_js_addr" aw ("JOIN", "s_addr") ("DEMUX", "m_addr");
        wf "w_js_wdata" dw ("JOIN", "s_wdata") ("DEMUX", "m_wdata");
        wf "w_js_rdata" dw ("DEMUX", "m_rdata") ("JOIN", "s_rdata");
        wf "w_js_ack" 1 ("DEMUX", "m_ack") ("JOIN", "s_ack");
      ]
    @ bus_link ~tag:"w_own" ~aw ~dw
        ("DEMUX", f_mux_slave own_region)
        ("MBI", f_plain)
    @ mem_wires ~tag:"w_sm" ~maw:gmaw ~mdw:dw ("MBI", "MEM")
    (* One exported bridge window per peer subsystem. *)
    @ List.concat
        (List.mapi
           (fun rank j ->
             bus_link
               ~tag:(Printf.sprintf "w_outb%d" j)
               ~aw ~dw
               ("DEMUX", f_mux_slave (1 + rank))
               ("HUB", f_pre (Printf.sprintf "outb%d" j)))
           others)
    @ (if c.protect then
         protect_wires c ~boundary:"HUB" ~sel:("JOIN", "s_sel")
           ~ack:("DEMUX", "m_ack") ~data:("JOIN", "s_wdata")
       else [])
  in
  let entry = { Spec.lib_name = Printf.sprintf "splitba_hub%d" ss_index; wires } in
  let circuit, info =
    Netlist.build
      ~name:(Printf.sprintf "splitba_hub%d_m%d_s%d" ss_index masters n_ss)
      ~boundary:"HUB" ~elements ~entry ()
  in
  (circuit, entry, info)

let splitba_n ?n_ss c =
  let n_ss = match n_ss with Some n -> n | None -> c.n_subsystems in
  reject_fft "splitba" c;
  if n_ss < 2 then invalid_arg "Archs.splitba: need at least 2 subsystems";
  if c.n_pes < n_ss || c.n_pes mod n_ss <> 0 then
    invalid_arg
      (Printf.sprintf
         "Archs.splitba: n_pes must be a positive multiple of the %d \
          subsystems"
         n_ss);
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let per_ss = c.n_pes / n_ss in
  let ban, ban_entry, ban_info = ban_cbionly c in
  (* Each hub serves its CPUs plus one inbound bridge per peer
     subsystem (a full bridge mesh; for the paper's two subsystems this
     is exactly the single BB pair of Fig. 7). *)
  let masters = per_ss + (n_ss - 1) in
  let hubs =
    List.init n_ss (fun i -> splitba_hub c ~masters ~ss_index:i ~n_ss)
  in
  let names = ban_names c.n_pes in
  let bb =
    M.Catalog.create
      (M.Catalog.Spec_bb
         { M.Bb.bb_type = M.Bb.Splitba; addr_width = aw; data_width = dw })
  in
  let hub_name i = Printf.sprintf "HUB_%d" i in
  let bb_name i j = Printf.sprintf "BB_%d%d" i j in
  let pairs =
    List.concat
      (List.init n_ss (fun i ->
           List.filter_map
             (fun j -> if j <> i then Some (i, j) else None)
             (List.init n_ss (fun j -> j))))
  in
  let elements =
    List.map (fun n -> { Netlist.el_name = n; el_circuit = ban }) names
    @ List.mapi
        (fun i (hub, _, _) ->
          { Netlist.el_name = hub_name i; el_circuit = hub })
        hubs
    @ List.map
        (fun (i, j) ->
          { Netlist.el_name = bb_name i j; el_circuit = bb })
        pairs
  in
  (* CPU k lives in subsystem k / per_ss, as master k mod per_ss. *)
  let cpu_to_hub =
    List.concat
      (List.mapi
         (fun k bn ->
           let hub = hub_name (k / per_ss) in
           let m = k mod per_ss in
           bus_link ~tag:(Printf.sprintf "w_gl%d" k) ~aw ~dw (bn, f_pre "g")
             (hub, f_pre (Printf.sprintf "m%d" m))
           @ [
               wf (Printf.sprintf "w_gl%d_req" k) 1 (bn, "g_req")
                 (hub, Printf.sprintf "m%d_req" m);
               wf (Printf.sprintf "w_gl%d_gnt" k) 1
                 (hub, Printf.sprintf "m%d_gnt" m)
                 (bn, "g_gnt");
             ])
         names)
  in
  (* Bridges: HUB_i.outb<j> -> BB_ij -> HUB_j's inbound master for i.
     Hub j's masters are its CPUs (0..per_ss-1) followed by one
     inbound bridge per peer, in increasing peer order. *)
  let inbound_master ~at ~from =
    let rank =
      List.length (List.filter (fun j -> j <> at && j < from)
                     (List.init n_ss (fun j -> j)))
    in
    per_ss + rank
  in
  let bridge (i, j) =
    let bb = bb_name i j in
    let m = inbound_master ~at:j ~from:i in
    bus_link ~tag:("w_" ^ bb ^ "_a") ~aw ~dw
      (hub_name i, f_pre (Printf.sprintf "outb%d" j))
      (bb, f_pre "a")
    @ bus_link ~tag:("w_" ^ bb ^ "_b") ~aw ~dw (bb, f_pre "b")
        (hub_name j, f_pre (Printf.sprintf "m%d" m))
    @ [
        wf ("w_" ^ bb ^ "_req") 1 (bb, "b_sel")
          (hub_name j, Printf.sprintf "m%d_req" m);
      ]
  in
  let wires =
    cpu_exports ~aw ~dw names
    @ cpu_to_hub
    @ List.concat_map bridge pairs
  in
  let ties =
    List.map (fun (i, j) -> (bb_name i j, "enable", Bits.of_bool true)) pairs
  in
  let entry = { Spec.lib_name = "splitba_sys"; wires } in
  let top, info =
    Netlist.build ~name:"sys_splitba" ~boundary:"SYS" ~elements ~entry ~ties ()
  in
  {
    top;
    entries =
      (ban_entry :: List.map (fun (_, e, _) -> e) hubs) @ [ entry ];
    infos =
      (("ban_cbionly", ban_info)
      :: List.mapi
           (fun i (_, _, inf) -> (Printf.sprintf "splitba_hub%d" i, inf))
           hubs)
      @ [ ("splitba_sys", info) ];
  }

let splitba c = splitba_n c

(* CCBA: hand-designed CoreConnect-like baseline (Fig. 8): shared bus,
   per-processor SRAMs plus a global SRAM as slaves, priority arbiter,
   and a two-stage ABI pipeline for the slower (5-cycle) arbitration. *)
let ccba c =
  reject_fft "ccba" c;
  let aw = c.bus_addr_width and dw = c.bus_data_width in
  let maw = c.mem_addr_width in
  let gmaw = c.global_mem_addr_width in
  let n = c.n_pes in
  let ban, ban_entry, ban_info = ban_cbionly c in
  let names = ban_names n in
  let regions =
    List.init n (fun k ->
        { M.Busmux.base = Addrmap.ccba_local_base k; size = 1 lsl maw })
    (* The global SRAM sits one bank past the last processor's SRAM. *)
    @ [ { M.Busmux.base = Addrmap.ccba_local_base n; size = 1 lsl gmaw } ]
  in
  let elements =
    List.map (fun bn -> { Netlist.el_name = bn; el_circuit = ban }) names
    @ [
        el "JOIN"
          (M.Catalog.Spec_busjoin
             { M.Busjoin.masters = n; addr_width = aw; data_width = dw });
        el "ABI1" (M.Catalog.Spec_abi { M.Abi.masters = n });
        el "ABI2" (M.Catalog.Spec_abi { M.Abi.masters = n });
        el "ARB"
          (M.Catalog.Spec_arbiter
             { M.Arbiter.policy = M.Arbiter.Priority; masters = n });
        el "DEMUX"
          (M.Catalog.Spec_busmux
             { M.Busmux.addr_width = aw; data_width = dw; regions });
      ]
    @ List.concat
        (List.init n (fun k ->
             [
               el (Printf.sprintf "MBI_%d" k) (M.Catalog.Spec_mbi (mbi_params c ~maw));
               el (Printf.sprintf "MEM_%d" k) (M.Catalog.Spec_sram (sram_params c ~maw));
             ]))
    @ [
        el "MBI_G" (M.Catalog.Spec_mbi (mbi_params c ~maw:gmaw));
        el "MEM_G" (M.Catalog.Spec_sram (sram_params c ~maw:gmaw));
      ]
    @ (if c.protect then protect_elements c else [])
  in
  let wires =
    cpu_exports ~aw ~dw names
    @ List.concat
        (List.mapi
           (fun k bn ->
             bus_link ~tag:(Printf.sprintf "w_gl%d" k) ~aw ~dw (bn, f_pre "g")
               ("JOIN", f_join_master k)
             @ [
                 wf (Printf.sprintf "w_gl%d_req" k) 1 (bn, "g_req")
                   ("JOIN", Printf.sprintf "m%d_req" k);
                 wf (Printf.sprintf "w_gl%d_gnt" k) 1
                   ("JOIN", Printf.sprintf "m%d_gnt" k)
                   (bn, "g_gnt");
               ])
           names)
    @ [
        (* Two ABI pipeline stages between join and arbiter. *)
        wf "w_jreq" n ("JOIN", "req") ("ABI1", "bus_req");
        wf "w_q1" n ("ABI1", "arb_req") ("ABI2", "bus_req");
        wf "w_q2" n ("ABI2", "arb_req") ("ARB", "req");
        wf "w_g2" n ("ARB", "grant") ("ABI2", "arb_grant");
        wf "w_g1" n ("ABI2", "bus_gnt") ("ABI1", "arb_grant");
        wf "w_jgnt" n ("ABI1", "bus_gnt") ("JOIN", "gnt");
        wf "w_js_sel" 1 ("JOIN", "s_sel") ("DEMUX", "m_sel");
        wf "w_js_rnw" 1 ("JOIN", "s_rnw") ("DEMUX", "m_rnw");
        wf "w_js_addr" aw ("JOIN", "s_addr") ("DEMUX", "m_addr");
        wf "w_js_wdata" dw ("JOIN", "s_wdata") ("DEMUX", "m_wdata");
        wf "w_js_rdata" dw ("DEMUX", "m_rdata") ("JOIN", "s_rdata");
        wf "w_js_ack" 1 ("DEMUX", "m_ack") ("JOIN", "s_ack");
      ]
    @ List.concat
        (List.init n (fun k ->
             bus_link ~tag:(Printf.sprintf "w_sl%d" k) ~aw ~dw
               ("DEMUX", f_mux_slave k)
               (Printf.sprintf "MBI_%d" k, f_plain)
             @ mem_wires ~tag:(Printf.sprintf "w_lm%d" k) ~maw ~mdw:dw
                 (Printf.sprintf "MBI_%d" k, Printf.sprintf "MEM_%d" k)))
    @ bus_link ~tag:"w_slg" ~aw ~dw ("DEMUX", f_mux_slave n) ("MBI_G", f_plain)
    @ mem_wires ~tag:"w_gm" ~maw:gmaw ~mdw:dw ("MBI_G", "MEM_G")
    @ (if c.protect then
         protect_wires c ~boundary:"SYS" ~sel:("JOIN", "s_sel")
           ~ack:("DEMUX", "m_ack") ~data:("JOIN", "s_wdata")
       else [])
  in
  let entry = { Spec.lib_name = "ccba_sys"; wires } in
  let top, info =
    Netlist.build ~name:"sys_ccba" ~boundary:"SYS" ~elements ~entry ()
  in
  {
    top;
    entries = [ ban_entry; entry ];
    infos = [ ("ban_cbionly", ban_info); ("ccba_sys", info) ];
  }
