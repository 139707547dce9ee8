(** PE programs for the architectural simulator.

    A program is a pull-based generator of operations: the machine asks
    for the next operation when the previous one completes, so
    application models can keep arbitrary control state (loops, data
    dependence) in OCaml closures.

    Addresses are symbolic {!location}s; the machine maps each (PE,
    location, direction) to a bus path with the architecture's timing
    and contention. *)

type location =
  | Loc_local
      (** the PE's own local memory (private on BFBA/GBAVIII/Hybrid;
          its own bus segment on GBAVI; the shared bus on GGBA/CCBA) *)
  | Loc_peer_mem of int
      (** BAN [k]'s local memory, read across segments (GBAVI), or BAN
          [k]'s SRAM on the shared bus (CCBA) *)
  | Loc_global
      (** the global / shared memory (GBAVIII, Hybrid, SplitBA, GGBA,
          CCBA) *)

type flag =
  | Hs_flag of int * string
      (** a handshake register in BAN [k]'s HS_REGS block, e.g.
          [Hs_flag (1, "done_op")] (BFBA/GBAVI/Hybrid) *)
  | Var_flag of string
      (** a control variable in shared memory (GBAVIII-style,
          Section IV.C.3; also SplitBA/GGBA/CCBA) *)

type op =
  | Compute of int  (** busy for n cycles (plus modelled cache misses) *)
  | Read of location * int   (** burst read of n words *)
  | Write of location * int  (** burst write of n words *)
  | Set_flag of flag * bool
  | Wait_flag of flag * bool
      (** poll until the flag has the value; every poll is a bus access
          on the flag's path *)
  | Lock_acquire of string
      (** spin on an atomic test-and-set variable in shared memory *)
  | Try_lock of string * (bool -> unit)
      (** one atomic test-and-set attempt; the callback receives whether
          the lock was acquired (used by the RTOS to block the task
          instead of spinning) *)
  | Lock_release of string
  | Fifo_set_threshold of int * int
      (** [(dest, words)]: set the threshold register of PE [dest]'s
          inbound Bi-FIFO (paper Example 4 step 0) *)
  | Fifo_push of int * int
      (** [(dest, words)]: push words into PE [dest]'s inbound Bi-FIFO;
          blocks while full *)
  | Fifo_pop of int
      (** [words]: pop that many words from the PE's own inbound FIFO;
          blocks until available *)
  | Wait_fifo_irq
      (** sleep until the own inbound FIFO reaches its threshold *)
  | Mark of string
      (** record the current cycle under this label in the run's
          statistics (zero-cost; used for steady-state measurements) *)
  | Call of (unit -> unit)
      (** run a host callback (zero-cost; the simulator is
          single-threaded, so callbacks may share state across PEs --
          used by the RTOS kernel's mailboxes) *)
  | Halt

type t = unit -> op option
(** [None] once the program is finished (equivalent to [Halt]).  A value
    of this type is a stateful generator: build one per PE (sharing one
    across PEs splits its operations between them, which {!Machine.run}
    rejects). *)

val of_list : op list -> t

val concat : t list -> t
(** Run the given programs in sequence. *)

val repeat : int -> (int -> op list) -> t
(** [repeat n body] runs [body 0 @ body 1 @ ... @ body (n-1)]
    lazily. *)

val generator : (unit -> op option) -> t
