(** Architecture generators: the five BusSyn bus systems of paper
    Section IV.B (Figs. 3-7) plus the two hand-designed baselines
    (Figs. 8-9).

    Each generator assembles Module Library circuits into BANs, BANs into
    Bus Subsystems and Bus Subsystems into a Bus System, entirely through
    {!Netlist.build} over programmatically constructed Wire Library
    entries — the same match-and-instantiate path as the paper's BANGen /
    SubSysGen pseudo code.

    The generated top-level circuit exposes, per PE index [k]:
    - [cpu<k>_req], [cpu<k>_rnw], [cpu<k>_addr], [cpu<k>_wdata] (inputs)
      and [cpu<k>_rdata], [cpu<k>_ack] (outputs) — the PE socket where the
      IP processor core (or a testbench) attaches;
    - [cpu<k>_irq] (output) on architectures with Bi-FIFO interrupts
      (BFBA, Hybrid). *)

type accelerator = Acc_none | Acc_dct | Acc_fft
(** Non-CPU BAN function (user option 4.2).  [Acc_dct] hangs the DCT
    engine off the global bus (any architecture with a global path);
    [Acc_fft] attaches Example 8's FFT BAN over dedicated wires and is
    only valid for {!bfba} — every other builder rejects it. *)

type mem_kind = Mk_sram | Mk_dram | Mk_dpram
(** Local-memory template (user option 5.1).  [Mk_dram] pairs the
    behavioural array with a 3-cycle MBI; [Mk_dpram] instantiates the
    true dual-port RAM with its second port tied off (reserved for
    future direct sharing). *)

type config = {
  n_pes : int;
  bus_addr_width : int;
  bus_data_width : int;
  mem_addr_width : int;         (** per-BAN local memory, log2 words *)
  global_mem_addr_width : int;  (** shared/global memory, log2 words *)
  fifo_depth : int;             (** Bi-FIFO depth (user option 3.3) *)
  arb_policy : Busgen_modlib.Arbiter.policy;  (** global arbiter *)
  cpu : Busgen_modlib.Cbi.pe;
  accelerator : accelerator;
  mem_kind : mem_kind;
      (** a non-CPU hardware function on the global bus (user option
          4.2); honoured by the architectures with a global memory BAN *)
  n_subsystems : int;
      (** SplitBA: number of bus subsystems (2 in the paper; the
          generator accepts any [>= 2] via the full bridge mesh);
          ignored by the other architectures *)
  protect : bool;
      (** instantiate bus error-protection hardware: a [WATCHDOG] across
          each bus's select/acknowledge pair and a [PARITY_GEN] /
          [PARITY_CHK] pair over the write-data lines, with the timeout,
          release and parity-error strobes exported on the enclosing
          boundary module *)
}

val paper_config : n_pes:int -> config
(** The paper's evaluation setup: 32-bit addresses, 64-bit data, 8 MB
    SRAM per BAN ([mem_addr_width = 20]), Bi-FIFO depth 1024, FCFS global
    arbiter, MPC755 cores. *)

val data_width_range : int * int
val mem_addr_width_range : int * int
val fifo_depth_range : int * int
(** Inclusive [(lo, hi)] limits ([hi = max_int]: none) on one {!config}
    field alone, as the Module Library enforces them: data width >= 1,
    memory address widths in [\[1, 20\]], FIFO depth >= 2.  Limits that
    tie fields together stay with their module. *)

val small_config : n_pes:int -> config
(** A scaled-down variant (256-word memories, depth-8 FIFOs, 16-bit
    data) for fast RTL interpretation in tests. *)

type generated = {
  top : Busgen_rtl.Circuit.t;
  entries : Busgen_wirelib.Spec.entry list;
      (** every Wire Library entry used, in generation order *)
  infos : (string * Netlist.info) list;
      (** netlister report per generated level (BAN, subsystem, system) *)
}

val bfba : config -> generated
(** The Bi-FIFO ring.  With [accelerator = Acc_fft] this is
    {!bfba_with_fft}. *)

val bfba_with_fft : config -> generated
(** Paper Example 8 / Fig. 17: the BFBA system with a hardware FFT BAN
    wired to BAN B over the dedicated [w_fft_*] wires.  Needs at least
    2 PEs and a bus of 32 bits or wider.
    @raise Invalid_argument otherwise. *)

val gbavi : config -> generated

val gbavii : config -> generated
(** GBAVI plus a global memory BAN — the version II the paper mentions
    but omits for space (Section IV.B): segmented neighbour access as in
    GBAVI, with an arbitrated global memory as in GBAVIII. *)

val gbaviii : config -> generated
val hybrid : config -> generated
val splitba : config -> generated
(** The paper's two-subsystem split (Fig. 7): {!splitba_n} at 2. *)

val splitba_n : ?n_ss:int -> config -> generated
(** SplitBA generalized to [n_ss] bus subsystems (default 2), connected
    by a full mesh of unidirectional bus bridges — each hub decodes one
    power-of-two window per peer, so any PE reaches any subsystem's
    shared memory in one bridge hop.  [n_pes] must be a positive
    multiple of [n_ss].
    @raise Invalid_argument otherwise. *)

val ggba : config -> generated
(** Hand-designed baseline (Fig. 9): one global bus, one shared memory. *)

val ccba : config -> generated
(** Hand-designed CoreConnect-like baseline (Fig. 8): shared PLB-style
    bus with per-processor SRAMs, a global SRAM, and two extra
    arbitration pipeline stages (5-cycle read vs. 3, Section VI.C). *)
