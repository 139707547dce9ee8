(** OFDM wireless transmitter (paper Section VI.A.2).

    The signal chain is implemented for real — QPSK symbol mapping, bit
    reversal, radix-2 inverse FFT, normalization and cyclic guard
    insertion over 2048-sample packets with 512-sample guards (paper
    Fig. 24) — and instrumented: operation counts from actually running
    the kernels, scaled by per-operation cycle weights calibrated to the
    paper's MPC755 stage balance, give the compute cost of each function
    group E/F/G/H of paper Table I.

    {!programs} maps the groups onto PEs in the paper's two software
    styles (Fig. 26): pipelined-parallel (PPA — one group per BAN,
    packets streaming through) and functional-parallel (FPA — every BAN
    runs the whole chain on its own packets, raw data distributed from
    PE 0 through the architecture's shared memory). *)

module Kernel : sig
  val data_samples : int
  (** 2048 complex samples per packet. *)

  val guard_samples : int
  (** 512-sample cyclic prefix. *)

  val bits_per_packet : int
  (** QPSK: 2 bits per subcarrier. *)

  val symbol_map : int array -> Complex.t array
  (** QPSK map of [2 * data_samples] bits to [data_samples] symbols.
      @raise Invalid_argument on wrong length. *)

  val bit_reverse_permute : Complex.t array -> Complex.t array
  (** @raise Invalid_argument unless the length is a power of two. *)

  val ifft : Complex.t array -> Complex.t array
  (** Radix-2 decimation-in-time inverse FFT (unscaled); expects
      bit-reversed input order, returns natural order. *)

  val fft : Complex.t array -> Complex.t array
  (** Forward transform (for round-trip testing). *)

  val normalize : Complex.t array -> Complex.t array
  (** Scale by [1/n]. *)

  val add_guard : Complex.t array -> Complex.t array
  (** Prepend the cyclic extension (paper Fig. 24): the last
      [guard_samples] samples copied in front. *)

  val transmit : int array -> Complex.t array
  (** The whole chain on one packet of [bits_per_packet] bits; output
      length [data_samples + guard_samples]. *)

  val remove_guard : Complex.t array -> Complex.t array
  (** Strip the cyclic prefix added by {!add_guard}. *)

  val symbol_demap : Complex.t array -> int array
  (** Hard-decision QPSK slicing, the inverse of {!symbol_map}. *)

  val receive : Complex.t array -> int array
  (** The receiver chain (beyond the paper, which builds the
      transmitter): {!remove_guard}, forward FFT, {!symbol_demap}.  On
      a clean channel, [receive (transmit bits) = bits] — the loopback
      property test that pins the whole pipeline down. *)

  val stage_cycles : unit -> int * int * int * int
  (** Modeled compute cycles of function groups (E, F, G, H) per packet,
      from instrumented kernel runs. *)
end

val function_groups : (string * string * string list) list
(** Paper Table I: (group, BAN, functions).  Functions marked with an
    asterisk run only once at startup and are excluded from throughput,
    as in the paper. *)

type style = Ppa | Fpa

val style_name : style -> string

val supported : Bussyn.Generate.arch -> style -> bool
(** PPA needs the four pipeline groups (4 PEs); FPA needs a shared
    memory for the raw-data distribution — except on BFBA/GBAVI, where
    distribution degrades to neighbour relays, as the paper's Table II
    cases 2/3 imply. *)

val programs :
  ?protocol:Comm.protocol ->
  arch:Bussyn.Generate.arch ->
  style:style ->
  n_pes:int ->
  packets:int ->
  unit ->
  Busgen_sim.Program.t array
(** Build the per-PE programs.  [protocol] selects the handshake
    protocol for PPA stage transfers (default the paper's 2-register
    protocol; see {!Comm.protocol}).
    @raise Invalid_argument if unsupported ([supported] false) or
    [n_pes <> 4] for PPA. *)

type result = {
  stats : Busgen_sim.Machine.stats;
  packets : int;
  throughput_mbps : float;
}

val run :
  ?packets:int ->
  ?config:Busgen_sim.Machine.config ->
  ?faults:Busgen_sim.Machine.fault_config ->
  ?max_cycles:int ->
  ?protocol:Comm.protocol ->
  ?trace:bool ->
  Bussyn.Generate.arch ->
  style ->
  result
(** Simulate (default 8 packets, paper Fig. 24) and report throughput at
    the 100 MHz bus clock.  [faults] enables the bus fault model
    (overrides [config.faults] when both are given). *)
