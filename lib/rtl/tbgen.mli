(** Self-checking Verilog testbench emission.

    The paper's flow (Fig. 28) hands the generated bus to a commercial
    simulator; this module completes that path: given a generated Bus
    System and a transaction script, it runs the script on the built-in
    {!Engine} to compute the expected read data, then emits a plain
    Verilog-2001 testbench that replays the same transactions against
    the emitted RTL, compares every read, and prints [TB PASS] /
    [TB FAIL].  A downstream user can therefore check our RTL under
    Icarus/VCS/Verilator without OCaml in the loop.

    Transactions use the [cpu<k>_*] socket protocol of every generated
    architecture (request/acknowledge, one transfer per handshake). *)

type txn =
  | Write of { pe : int; addr : int; data : int }
  | Read of { pe : int; addr : int }
      (** expected data is computed by simulating the script *)
  | Idle of int  (** let the system run for n cycles *)

val emit : Circuit.t -> script:txn list -> string
(** The testbench module text ([tb_<name>]); include it after the
    design files.  The design is simulated once to bake in expectations.
    @raise Invalid_argument if the circuit lacks the [cpu<k>_*] sockets
    a transaction needs, or on a bus timeout while computing
    expectations. *)

val write_testbench : dir:string -> Circuit.t -> script:txn list -> string
(** Emit to [dir/tb_<name>.v]; returns the path. *)

val smoke_script : n_pes:int -> txn list
(** A write/read-back pass over every PE's local memory — a reasonable
    default script for any generated architecture. *)
