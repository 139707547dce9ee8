module P = Busgen_sim.Program
module Machine = Busgen_sim.Machine
module Kernel = Busgen_rtos.Kernel
module G = Bussyn.Generate

let supported = function
  | G.Gbavii | G.Gbaviii | G.Hybrid | G.Splitba | G.Ggba | G.Ccba -> true
  | G.Bfba | G.Gbavi -> false

(* Workload parameters (calibrated against Table IV's absolute scale:
   word-granular record traffic plus RTOS context switches). *)
let words_per_task = 100 (* one hundred 32-bit word accesses per direction *)
let produce_compute = 300 (* server-side object preparation *)
let process_compute = 3300 (* client-side transaction processing *)
let per_word_compute = 8 (* record lookup between accesses *)
let ctx_switch = 30

let home_of ~arch ~n_pes pe =
  match arch with
  | G.Splitba -> if pe < n_pes / 2 then 0 else 1
  | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ggba | G.Ccba | G.Bfba | G.Gbavi -> 0

(* The PE that runs client k: ten clients per BAN, server on PE 0. *)
let pe_of_client ~n_pes ~clients k = k * n_pes / clients

(* Word-granular traffic: each record access is its own bus transaction
   with a little pointer-chasing computation in between. *)
let word_ops mk n =
  List.concat
    (List.init n (fun _ -> [ P.Compute per_word_compute; mk 1 ]))

(* Two shared objects (Fig. 21 shows several tasks' objects); on
   SplitBA one lives in each subsystem's memory, so each arbiter serves
   only its half of the object traffic. *)
let object_home ~arch obj =
  match arch with
  | G.Splitba -> obj
  | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ggba | G.Ccba | G.Bfba | G.Gbavi -> 0

let object_lock ~arch obj = Printf.sprintf "obj_%d#%d" obj (object_home ~arch obj)

let client_object ~arch ~n_pes ~clients k =
  match arch with
  | G.Splitba -> home_of ~arch ~n_pes (pe_of_client ~n_pes ~clients k)
  | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ggba | G.Ccba | G.Bfba | G.Gbavi ->
      k mod 2

let server_task ~arch ~n_pes =
  (* The server publishes each object's data once, under its lock. *)
  let publish obj =
    let data_loc =
      match arch with
      | G.Splitba -> if obj = 0 then P.Loc_global else P.Loc_peer_mem (n_pes - 1)
      | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ggba | G.Ccba | G.Bfba | G.Gbavi ->
          P.Loc_global
    in
    [ P.Compute produce_compute; P.Lock_acquire (object_lock ~arch obj) ]
    @ word_ops (fun w -> P.Write (data_loc, w)) words_per_task
    @ [ P.Lock_release (object_lock ~arch obj) ]
  in
  Kernel.task ~priority:0 "server" (publish 0 @ publish 1)

let client_task ~arch ~n_pes ~clients k =
  let obj = client_object ~arch ~n_pes ~clients k in
  let body =
    [ P.Lock_acquire (object_lock ~arch obj) ]
    @ word_ops (fun w -> P.Read (P.Loc_global, w)) words_per_task
    @ [ P.Lock_release (object_lock ~arch obj); P.Compute process_compute ]
    @ word_ops (fun w -> P.Write (P.Loc_local, w)) words_per_task
  in
  Kernel.task ~priority:5 (Printf.sprintf "client_%d" k) body

let programs ~arch ~n_pes ~clients =
  if not (supported arch) then
    invalid_arg
      (Printf.sprintf "Database: %s has no shared memory for the RTOS"
         (G.arch_name arch));
  Array.init n_pes (fun pe ->
      let tasks =
        (if pe = 0 then [ server_task ~arch ~n_pes ] else [])
        @ List.filter_map
            (fun k ->
              if pe_of_client ~n_pes ~clients k = pe then
                Some (client_task ~arch ~n_pes ~clients k)
              else None)
            (List.init clients (fun k -> k))
      in
      Kernel.program ~ctx_switch tasks)

type result = {
  stats : Machine.stats;
  execution_time_ns : float;
  tasks : int;
}

let var_home name =
  match String.index_opt name '#' with
  | None -> 0
  | Some i ->
      int_of_string (String.sub name (i + 1) (String.length name - i - 1))

let run ?(clients = 40) ?config ?faults ?max_cycles ?(trace = false) arch =
  let n_pes = 4 in
  let config =
    match config with
    | Some c -> c
    | None ->
        let base = Machine.default_config arch ~n_pes in
        (* Database code and the RTOS have poor cache locality (pointer
           chasing over records); program memory lives in the shared
           memory on every one of these architectures' program images
           except the custom ones' local stores. *)
        let timing =
          { base.Machine.timing with
            Busgen_sim.Timing.miss_rate_num = 1; miss_rate_den = 8 }
        in
        { base with Machine.var_home; timing; trace }
  in
  let config =
    match faults with None -> config | Some _ -> { config with Machine.faults }
  in
  let programs = programs ~arch ~n_pes ~clients in
  let stats = Machine.run ?max_cycles config programs in
  {
    stats;
    execution_time_ns =
      float_of_int stats.Machine.cycles *. Machine.ns_per_cycle;
    tasks = clients + 1;
  }
