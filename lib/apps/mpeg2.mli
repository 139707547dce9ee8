(** MPEG2 decoder workload (paper Section VI.A.3).

    A compact but genuine codec over the paper's tiny 16x16 pictures:
    the test stream is synthesized by a real encoder (8x8 DCT,
    quantization, zig-zag run-length coding into a bitstream) and decoded
    by the real inverse pipeline (bit reader, run-length decode,
    dequantization, IDCT, motion-compensated addition for P frames).
    Each GOP holds an I frame and a P frame (paper Fig. 27a).

    Decoding is instrumented; operation counts scaled by per-operation
    weights — plus a per-frame syntax/driver overhead constant calibrated
    to the MSSG reference decoder's behaviour the paper measured — give
    each GOP's compute cost for the simulator.

    The mapping is the paper's functional-parallel operation (Fig. 27b):
    BAN A reads the raw stream and distributes GOPs; every BAN decodes
    its share; decoded frames are handed to BAN D for output.  On
    BFBA/GBAVI the stream and the decoded frames hop BAN-to-BAN (paper:
    "the data ... has to be passed from BAN A to each BAN sequentially"),
    which is what makes those architectures slow in Table III. *)

module Codec : sig
  type frame = int array
  (** 256 pixels (16x16), values 0..255, row-major. *)

  val frame_width : int

  val synthetic_video : frames:int -> frame list
  (** Deterministic test content (gradient plus a moving block). *)

  val encode : frame list -> Bits_stream.t
  (** Encode as GOPs of I+P; frame count must be even.
      @raise Invalid_argument otherwise. *)

  val decode : Bits_stream.t -> frame list
  (** Inverse of {!encode} up to quantization error. *)

  val psnr : frame -> frame -> float
  (** Reconstruction quality in dB (for tests). *)

  val gop_cycles : unit -> int
  (** Modeled decode cost of one GOP on an MPC755, from an instrumented
      decode of the synthetic stream. *)

  val gop_stream_words : int
  (** Encoded GOP size in 64-bit bus words (rounded up). *)

  val frame_words : int
  (** Decoded frame size in bus words. *)

  val bits_per_gop : int
  (** Decoded video bits per GOP (2 frames x 256 px x 8 bpp). *)
end

type result = {
  stats : Busgen_sim.Machine.stats;
  gops : int;
  throughput_mbps : float;
}

val supported : Bussyn.Generate.arch -> bool
(** All but SplitBA/GGBA (the paper evaluates BFBA, GBAVI, GBAVIII,
    Hybrid and CCBA in Table III); we additionally allow GGBA and
    SplitBA for ablations. *)

val programs :
  arch:Bussyn.Generate.arch ->
  n_pes:int ->
  gops:int ->
  Busgen_sim.Program.t array

val run :
  ?gops:int ->
  ?config:Busgen_sim.Machine.config ->
  ?faults:Busgen_sim.Machine.fault_config ->
  ?max_cycles:int ->
  ?trace:bool ->
  Bussyn.Generate.arch ->
  result
(** Default 8 GOPs.  [faults] enables the bus fault model (overrides
    [config.faults] when both are given). *)
