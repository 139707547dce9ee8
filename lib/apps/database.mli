(** Database example (paper Section VI.A.1, Fig. 21-22, Table IV).

    Forty-one tasks on the ATALANTA-style RTOS ({!Busgen_rtos.Kernel}):
    one server and ten clients on BAN A, ten clients on each other BAN.
    The server produces each client's object data in shared memory under
    that object's lock; each client locks its object, reads one hundred
    32-bit words (fifty bus words) from shared memory, releases the lock,
    processes, and writes its hundred words back — "each task accesses
    one-hundred data to or from the shared memory".  Accesses are
    word-granular (database record traffic, not DMA bursts), which is
    what makes the example bus-bound: "each one of Bus Systems has
    intensive bus traffic on its bus due to shared memory requests from
    each BAN".

    On SplitBA, each client's object and result live in its own
    subsystem's memory (the server writes across the bridge for the far
    half), so each arbiter sees only half of the requests — the paper's
    stated reason for SplitBA's 41% shorter execution time. *)

type result = {
  stats : Busgen_sim.Machine.stats;
  execution_time_ns : float;
  tasks : int;
}

val supported : Bussyn.Generate.arch -> bool
(** Architectures with a shared memory (the RTOS requires one, paper
    Section VI.C): GBAVIII, Hybrid, SplitBA, GGBA, CCBA. *)

val programs :
  arch:Bussyn.Generate.arch ->
  n_pes:int ->
  clients:int ->
  Busgen_sim.Program.t array
(** One RTOS kernel program per PE; [clients] are spread evenly with
    the server on PE 0. *)

val run :
  ?clients:int ->
  ?config:Busgen_sim.Machine.config ->
  ?faults:Busgen_sim.Machine.fault_config ->
  ?max_cycles:int ->
  ?trace:bool ->
  Bussyn.Generate.arch ->
  result
(** Default 40 clients (41 tasks).  [faults] enables the bus fault
    model (overrides [config.faults] when both are given). *)
