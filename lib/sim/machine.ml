type arch = Bussyn.Generate.arch

type policy = Fcfs | Fixed_priority | Round_robin

(* Per-bus fault model: every granted bus transaction draws from a
   per-bus LCG (seeded from [f_seed] and the bus index, so runs are
   reproducible) and fails with probability [f_error_num / f_den]
   (error response) or [f_timeout_num / f_den] (slave timeout: the bus
   is held for [f_watchdog_cycles] more cycles until the watchdog
   forces release).  Masters retry a failed transaction up to
   [f_max_retries] times with exponential backoff starting at
   [f_backoff_cycles]; a transaction that exhausts its retries is
   unrecoverable and its PE is quarantined by the arbiter. *)
type fault_config = {
  f_seed : int;
  f_error_num : int;
  f_timeout_num : int;
  f_den : int;
  f_max_retries : int;
  f_backoff_cycles : int;
  f_watchdog_cycles : int;
}

let fault_config ?(max_retries = 8) ?(backoff_cycles = 8)
    ?(watchdog_cycles = 64) ~seed ~rate () =
  if rate < 0.0 || rate > 1.0 then
    Stdlib.invalid_arg "Machine.fault_config: rate must be within [0, 1]";
  let den = 1_000_000 in
  {
    f_seed = seed;
    f_error_num = int_of_float (rate *. float_of_int den);
    f_timeout_num = int_of_float (rate /. 4.0 *. float_of_int den);
    f_den = den;
    f_max_retries = max_retries;
    f_backoff_cycles = backoff_cycles;
    f_watchdog_cycles = watchdog_cycles;
  }

let fault_config_of_string s =
  match String.index_opt s ':' with
  | None ->
      Error
        (Printf.sprintf "bad fault spec %S: expected SEED:RATE (e.g. 42:0.001)"
           s)
  | Some i -> (
      let seed = int_of_string_opt (String.sub s 0 i) in
      let rate =
        float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      in
      match (seed, rate) with
      | Some seed, Some rate when rate >= 0.0 && rate <= 1.0 ->
          Ok (fault_config ~seed ~rate ())
      | Some _, Some _ ->
          Error
            (Printf.sprintf "bad fault spec %S: RATE must be within [0, 1]" s)
      | _ ->
          Error
            (Printf.sprintf
               "bad fault spec %S: expected an integer SEED and a float RATE \
                (e.g. 42:0.001)"
               s))

type config = {
  arch : arch;
  n_pes : int;
  timing : Timing.t;
  fifo_depth : int;
  policy : policy;
  n_subsystems : int;
  l1 : Cache.config option;
  var_home : string -> int;
  initial_flags : (Program.flag * bool) list;
  trace : bool;
  faults : fault_config option;
}

let default_config arch ~n_pes =
  let timing =
    match arch with
    | Bussyn.Generate.Ccba -> Timing.ccba
    | Bussyn.Generate.Bfba | Bussyn.Generate.Gbavi | Bussyn.Generate.Gbavii
    | Bussyn.Generate.Gbaviii | Bussyn.Generate.Hybrid
    | Bussyn.Generate.Splitba | Bussyn.Generate.Ggba ->
        Timing.generated
  in
  let initial_flags =
    match arch with
    | Bussyn.Generate.Bfba | Bussyn.Generate.Hybrid ->
        (* Paper Example 4: DONE_OP starts at 1 in BFBA-style blocks. *)
        List.init n_pes (fun k -> (Program.Hs_flag (k, "done_op"), true))
    | Bussyn.Generate.Gbavi | Bussyn.Generate.Gbavii
    | Bussyn.Generate.Gbaviii | Bussyn.Generate.Splitba
    | Bussyn.Generate.Ggba | Bussyn.Generate.Ccba ->
        []
  in
  {
    arch;
    n_pes;
    timing;
    fifo_depth = 1024;
    policy = Fcfs;
    n_subsystems = 2;
    l1 = None;
    var_home = (fun _ -> 0);
    initial_flags;
    trace = false;
    faults = None;
  }

(* Reliability outcome of a faulty run.  [r_unrecovered = 0] means every
   transaction eventually completed correctly (possibly after retries);
   otherwise the PEs in [r_quarantined] were halted by the arbiter after
   exhausting their retries and the run is degraded. *)
type reliability = {
  r_errors : int;
  r_timeouts : int;
  r_retries : int;
  r_recovered : int;
  r_unrecovered : int;
  r_quarantined : int list;
}

type stats = {
  cycles : int;
  pe_busy : int array;
  pe_wait : int array;
  bus_busy : (string * int) list;
  transactions : int;
  words_transferred : int;
  polls : int;
  marks : (string * int) list;
  trace : txn_record list;
  reliability : reliability option;
}

and txn_record = {
  tr_pe : int;
  tr_kind : string;
  tr_label : string option;
  tr_resource : string option;
  tr_submit : int;
  tr_grant : int;
  tr_finish : int;
  tr_words : int;
}

exception Invalid_program of string
exception Deadlock of string

let ns_per_cycle = 10.0

let throughput_mbps ~bits ~cycles =
  (* bits / (cycles * 10ns) in Mbit/s = bits * 100 / cycles.  A run
     that never advanced the clock (0 transactions, or everything
     quarantined before the first grant) reports 0, not inf/NaN:
     scoring code consumes this value and must stay total. *)
  if cycles <= 0 then 0.0
  else float_of_int bits *. 100.0 /. float_of_int cycles

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

type resource = Seg of int | Global | Ss of int

let resource_name = function
  | Seg k -> Printf.sprintf "seg%d" k
  | Global -> "global"
  | Ss k -> Printf.sprintf "ss%d" k

type path = { res : resource option; grant : int; fixed : int; per_word : int }

let invalid pe fmt =
  Printf.ksprintf (fun s -> raise (Invalid_program (Printf.sprintf "pe%d: %s" pe s))) fmt

let subsystem_of c pe =
  let n_ss = max 1 c.n_subsystems in
  min (n_ss - 1) (pe / max 1 (c.n_pes / n_ss))

let private_path t = { res = None; grant = 0; fixed = t.Timing.mem_cycles; per_word = t.Timing.word_cycles }

let seg_path t k =
  { res = Some (Seg k); grant = 1; fixed = t.Timing.mem_cycles;
    per_word = t.Timing.word_cycles }

let global_path t =
  { res = Some Global; grant = t.Timing.arb_cycles; fixed = t.Timing.mem_cycles;
    per_word = t.Timing.word_cycles }

let ss_path t k =
  { res = Some (Ss k); grant = t.Timing.arb_cycles; fixed = t.Timing.mem_cycles;
    per_word = t.Timing.word_cycles }

let mem_path c pe (loc : Program.location) =
  let t = c.timing in
  match (c.arch, loc) with
  | Bussyn.Generate.Bfba, Program.Loc_local -> private_path t
  | Bussyn.Generate.Bfba, (Program.Loc_peer_mem _ | Program.Loc_global) ->
      invalid pe "BFBA has no shared or peer-accessible memory"
  | Bussyn.Generate.Gbavi, Program.Loc_local -> seg_path t pe
  | Bussyn.Generate.Gbavi, Program.Loc_peer_mem k ->
      if k = pe then seg_path t pe
      else
        (* Crossing the registered bus bridge costs extra cycles on every
           beat (the bridge re-presents each transfer to the far
           segment), as in the generated RTL. *)
        {
          (seg_path t k) with
          fixed = t.Timing.mem_cycles + t.Timing.bridge_cycles;
          per_word = t.Timing.word_cycles + t.Timing.bridge_cycles;
        }
  | Bussyn.Generate.Gbavi, Program.Loc_global ->
      invalid pe "GBAVI has no global memory"
  | Bussyn.Generate.Gbavii, Program.Loc_local -> seg_path t pe
  | Bussyn.Generate.Gbavii, Program.Loc_peer_mem k ->
      if k = pe then seg_path t pe
      else
        {
          (seg_path t k) with
          fixed = t.Timing.mem_cycles + t.Timing.bridge_cycles;
          per_word = t.Timing.word_cycles + t.Timing.bridge_cycles;
        }
  | Bussyn.Generate.Gbavii, Program.Loc_global -> global_path t
  | (Bussyn.Generate.Gbaviii | Bussyn.Generate.Hybrid), Program.Loc_local ->
      private_path t
  | (Bussyn.Generate.Gbaviii | Bussyn.Generate.Hybrid), Program.Loc_global ->
      global_path t
  | (Bussyn.Generate.Gbaviii | Bussyn.Generate.Hybrid), Program.Loc_peer_mem _
    ->
      invalid pe "no direct peer-memory window in this architecture"
  | Bussyn.Generate.Splitba, (Program.Loc_local | Program.Loc_global) ->
      (* A SplitBA BAN's program and data live in its subsystem's shared
         memory (Fig. 7). *)
      ss_path t (subsystem_of c pe)
  | Bussyn.Generate.Splitba, Program.Loc_peer_mem k ->
      let target = subsystem_of c k in
      if target = subsystem_of c pe then ss_path t target
      else
        {
          (ss_path t target) with
          fixed =
            t.Timing.mem_cycles + t.Timing.bridge_cycles + t.Timing.arb_cycles;
          per_word = t.Timing.word_cycles + t.Timing.bridge_cycles;
        }
  | (Bussyn.Generate.Ggba | Bussyn.Generate.Ccba),
    (Program.Loc_local | Program.Loc_peer_mem _ | Program.Loc_global) ->
      global_path t

let flag_path c pe (f : Program.flag) =
  let t = c.timing in
  match (c.arch, f) with
  | (Bussyn.Generate.Bfba | Bussyn.Generate.Hybrid), Program.Hs_flag _ ->
      (* Dedicated handshake register ports: latency, no contention. *)
      { res = None; grant = 0; fixed = t.Timing.mem_cycles + 1;
        per_word = t.Timing.word_cycles }
  | (Bussyn.Generate.Gbavi | Bussyn.Generate.Gbavii), Program.Hs_flag (k, _)
    ->
      seg_path t k
  | ( ( Bussyn.Generate.Gbavii | Bussyn.Generate.Gbaviii
      | Bussyn.Generate.Hybrid | Bussyn.Generate.Ggba | Bussyn.Generate.Ccba ),
      Program.Var_flag _ ) ->
      global_path t
  | Bussyn.Generate.Splitba, Program.Var_flag name ->
      ss_path t (c.var_home name)
  | ( ( Bussyn.Generate.Gbaviii | Bussyn.Generate.Ggba | Bussyn.Generate.Ccba
      | Bussyn.Generate.Splitba ),
      Program.Hs_flag _ ) ->
      invalid pe "no handshake register blocks in this architecture"
  | (Bussyn.Generate.Bfba | Bussyn.Generate.Gbavi), Program.Var_flag _ ->
      invalid pe "no shared-memory variables in this architecture"

let lock_path c pe name =
  match c.arch with
  | Bussyn.Generate.Gbavii | Bussyn.Generate.Gbaviii | Bussyn.Generate.Hybrid
  | Bussyn.Generate.Ggba | Bussyn.Generate.Ccba ->
      global_path c.timing
  | Bussyn.Generate.Splitba -> ss_path c.timing (c.var_home name)
  | Bussyn.Generate.Bfba | Bussyn.Generate.Gbavi ->
      invalid pe "locks need a shared memory"

(* Program (instruction) memory path for cache-miss traffic. *)
let miss_path c pe =
  let t = c.timing in
  match c.arch with
  | Bussyn.Generate.Ggba | Bussyn.Generate.Ccba -> global_path t
  | Bussyn.Generate.Splitba -> ss_path t (subsystem_of c pe)
  | Bussyn.Generate.Gbavi | Bussyn.Generate.Gbavii -> seg_path t pe
  | Bussyn.Generate.Bfba | Bussyn.Generate.Gbaviii | Bussyn.Generate.Hybrid ->
      (* Private local program memory: latency but no contention. *)
      private_path t

(* BFBA-style architectures have Bi-FIFO links; others do not. *)
let has_fifos = function
  | Bussyn.Generate.Bfba | Bussyn.Generate.Hybrid -> true
  | Bussyn.Generate.Gbavi | Bussyn.Generate.Gbavii | Bussyn.Generate.Gbaviii
  | Bussyn.Generate.Splitba | Bussyn.Generate.Ggba | Bussyn.Generate.Ccba ->
      false

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

type compute_state = { mutable cleft : int; mutable miss_acc : int }

type phase =
  | Fetch
  | Computing of compute_state
  | Queued
  | Local_transfer of { mutable left : int; effect : unit -> phase }
  | Sleeping of { mutable left : int; retry : Program.op }
  | Backoff of { mutable left : int; txn : txn }
    (* waiting out exponential backoff before resubmitting [txn] *)
  | Fifo_blocked of Program.op
  | Irq_wait
  | Halted

and txn = {
  t_pe : int;
  t_cycles : int;
  t_words : int;
  t_is_poll : bool;
  t_kind : string;
  t_label : string option;
  t_submit : int;
  t_attempts : int; (* failed bus attempts so far *)
  t_path : path;    (* kept so a failed transaction can be resubmitted *)
  t_effect : unit -> phase;
}

(* Outcome drawn for the bus's current transaction at grant time. *)
type fault_outcome = F_ok | F_error | F_timeout

type bus = {
  b_res : resource;
  mutable cur : txn option;
  mutable cur_left : int;
  mutable cur_grant : int;
  mutable waiting : txn list; (* arrival order *)
  mutable busy : int;
  mutable rr_last : int;
  mutable b_lcg : int;             (* per-bus fault-draw stream *)
  mutable b_fault : fault_outcome; (* fate of [cur] *)
}

(* Per-PE instruction-stream model for the optional real L1: mostly
   sequential with a jump every [l1_run] accesses (deterministic LCG,
   so runs are reproducible). *)
type l1_state = {
  cache : Cache.t;
  mutable pos : int;
  mutable lcg : int;
  mutable run_left : int;
}

let l1_footprint_words = 1 lsl 13
let l1_run = 256

(* Running reliability counters (only driven when [config.faults] is
   set; allocated unconditionally to keep the engine branch-free). *)
type rel = {
  mutable rl_errors : int;
  mutable rl_timeouts : int;
  mutable rl_retries : int;
  mutable rl_recovered : int;
  mutable rl_unrecovered : int;
  mutable rl_quarantined : int list; (* reverse order *)
}

type m = {
  c : config;
  programs : Program.t array;
  phase : phase array;
  buses : bus list;
  flags : (Program.flag, bool) Hashtbl.t;
  locks : (string, int) Hashtbl.t; (* name -> owner pe *)
  l1s : l1_state array;       (* empty unless [config.l1] is set *)
  fifo_count : int array;     (* inbound FIFO fill per PE *)
  fifo_thr : int array;
  mutable halted : int;
  mutable transactions : int;
  mutable words : int;
  mutable polls : int;
  pe_busy : int array;
  pe_wait : int array;
  ops_done : int array; (* ops fetched per PE, for stuck diagnostics *)
  rel : rel;
  mutable activity : bool;
  mutable m_marks : (string * int) list; (* reverse order *)
  mutable m_trace : txn_record list;     (* reverse order *)
  mutable now : int;
}

let find_bus m res = List.find (fun b -> b.b_res = res) m.buses

let record m ?resource (txn : txn) ~grant =
  if m.c.trace then
    m.m_trace <-
      {
        tr_pe = txn.t_pe;
        tr_kind = txn.t_kind;
        tr_label = txn.t_label;
        tr_resource = resource;
        tr_submit = txn.t_submit;
        tr_grant = grant;
        tr_finish = m.now;
        tr_words = txn.t_words;
      }
      :: m.m_trace

let submit m (path : path) txn =
  m.transactions <- m.transactions + 1;
  m.words <- m.words + txn.t_words;
  if txn.t_is_poll then m.polls <- m.polls + 1;
  let txn = { txn with t_submit = m.now } in
  match path.res with
  | None ->
      let effect () =
        record m txn ~grant:txn.t_submit;
        txn.t_effect ()
      in
      m.phase.(txn.t_pe) <-
        Local_transfer { left = txn.t_cycles; effect }
  | Some res ->
      let b = find_bus m res in
      b.waiting <- b.waiting @ [ txn ];
      m.phase.(txn.t_pe) <- Queued

let txn_of_path ~pe ~words ?(is_poll = false) ?(kind = "mem") ?label
    (path : path) effect =
  {
    t_pe = pe;
    t_cycles = path.grant + path.fixed + (words * path.per_word);
    t_words = words;
    t_is_poll = is_poll;
    t_kind = kind;
    t_label = label;
    t_submit = 0;
    t_attempts = 0;
    t_path = path;
    t_effect = effect;
  }

let flag_value m f =
  match Hashtbl.find_opt m.flags f with Some v -> v | None -> false

let rec exec_op m pe (op : Program.op) =
  let t = m.c.timing in
  match op with
  | Program.Halt ->
      m.phase.(pe) <- Halted;
      m.halted <- m.halted + 1
  | Program.Mark label ->
      m.m_marks <- (label, m.now) :: m.m_marks;
      fetch m pe
  | Program.Call f ->
      f ();
      fetch m pe
  | Program.Compute 0 -> m.phase.(pe) <- Fetch
  | Program.Compute n -> m.phase.(pe) <- Computing { cleft = n; miss_acc = 0 }
  | Program.Read (loc, words) | Program.Write (loc, words) ->
      if words < 1 then invalid pe "zero-length transfer";
      let path = mem_path m.c pe loc in
      let kind =
        match op with Program.Read _ -> "read" | _ -> "write"
      in
      submit m path (txn_of_path ~pe ~words ~kind path (fun () -> Fetch))
  | Program.Set_flag (f, v) ->
      let path = flag_path m.c pe f in
      submit m path
        (txn_of_path ~pe ~words:1 ~kind:"flag" path (fun () ->
             Hashtbl.replace m.flags f v;
             Fetch))
  | Program.Wait_flag (f, v) ->
      let path = flag_path m.c pe f in
      submit m path
        (txn_of_path ~pe ~words:1 ~is_poll:true ~kind:"flag" path (fun () ->
             if flag_value m f = v then Fetch
             else Sleeping { left = t.Timing.poll_interval; retry = op }))
  | Program.Lock_acquire name ->
      let path = lock_path m.c pe name in
      submit m path
        (txn_of_path ~pe ~words:1 ~is_poll:true ~kind:"lock" ~label:name path
           (fun () ->
             if Hashtbl.mem m.locks name then
               Sleeping { left = t.Timing.poll_interval; retry = op }
             else begin
               Hashtbl.replace m.locks name pe;
               Fetch
             end))
  | Program.Try_lock (name, cb) ->
      let path = lock_path m.c pe name in
      submit m path
        (txn_of_path ~pe ~words:1 ~is_poll:true ~kind:"lock" ~label:name path
           (fun () ->
             if Hashtbl.mem m.locks name then begin
               cb false;
               Fetch
             end
             else begin
               Hashtbl.replace m.locks name pe;
               cb true;
               Fetch
             end))
  | Program.Lock_release name ->
      let path = lock_path m.c pe name in
      submit m path
        (txn_of_path ~pe ~words:1 ~kind:"lock" ~label:name path (fun () ->
             (match Hashtbl.find_opt m.locks name with
             | Some owner when owner = pe -> Hashtbl.remove m.locks name
             | Some _ | None ->
                 invalid pe "released a lock it does not hold (%s)" name);
             Fetch))
  | Program.Fifo_set_threshold (dest, words) ->
      if not (has_fifos m.c.arch) then
        invalid pe "this architecture has no Bi-FIFOs";
      if dest < 0 || dest >= m.c.n_pes then invalid pe "bad FIFO target";
      m.phase.(pe) <-
        Local_transfer { left = t.Timing.mem_cycles + 1; effect = (fun () -> Fetch) };
      m.fifo_thr.(dest) <- words
  | Program.Fifo_push (dest, words) ->
      if not (has_fifos m.c.arch) then
        invalid pe "this architecture has no Bi-FIFOs";
      if dest < 0 || dest >= m.c.n_pes then invalid pe "bad FIFO target";
      if m.fifo_count.(dest) + words <= m.c.fifo_depth then begin
        m.words <- m.words + words;
        m.transactions <- m.transactions + 1;
        let submit_at = m.now in
        let effect () =
          if m.c.trace then
            m.m_trace <-
              { tr_pe = pe; tr_kind = "fifo"; tr_label = None; tr_resource = None;
                tr_submit = submit_at; tr_grant = submit_at;
                tr_finish = m.now; tr_words = words }
              :: m.m_trace;
          Fetch
        in
        m.phase.(pe) <-
          Local_transfer
            { left = 1 + (words * t.Timing.fifo_word_cycles); effect };
        m.fifo_count.(dest) <- m.fifo_count.(dest) + words
      end
      else m.phase.(pe) <- Fifo_blocked op
  | Program.Fifo_pop words ->
      if not (has_fifos m.c.arch) then
        invalid pe "this architecture has no Bi-FIFOs";
      if m.fifo_count.(pe) >= words then begin
        m.words <- m.words + words;
        m.transactions <- m.transactions + 1;
        let submit_at = m.now in
        let effect () =
          if m.c.trace then
            m.m_trace <-
              { tr_pe = pe; tr_kind = "fifo"; tr_label = None; tr_resource = None;
                tr_submit = submit_at; tr_grant = submit_at;
                tr_finish = m.now; tr_words = words }
              :: m.m_trace;
          Fetch
        in
        m.phase.(pe) <-
          Local_transfer
            { left = 1 + (words * t.Timing.fifo_word_cycles); effect };
        m.fifo_count.(pe) <- m.fifo_count.(pe) - words
      end
      else m.phase.(pe) <- Fifo_blocked op
  | Program.Wait_fifo_irq ->
      if not (has_fifos m.c.arch) then
        invalid pe "this architecture has no Bi-FIFOs";
      if m.fifo_thr.(pe) > 0 && m.fifo_count.(pe) >= m.fifo_thr.(pe) then
        m.phase.(pe) <- Fetch
      else m.phase.(pe) <- Irq_wait

and fetch m pe =
  match m.programs.(pe) () with
  | Some op ->
      m.activity <- true;
      m.ops_done.(pe) <- m.ops_done.(pe) + 1;
      exec_op m pe op
  | None ->
      m.activity <- true;
      m.phase.(pe) <- Halted;
      m.halted <- m.halted + 1

let grant_next m b =
  match b.waiting with
  | [] -> ()
  | waiting ->
      let pick =
        match m.c.policy with
        | Fcfs -> List.hd waiting
        | Fixed_priority ->
            List.fold_left
              (fun best t -> if t.t_pe < best.t_pe then t else best)
              (List.hd waiting) waiting
        | Round_robin ->
            let n = m.c.n_pes in
            let dist t = (t.t_pe - b.rr_last - 1 + (2 * n)) mod n in
            List.fold_left
              (fun best t -> if dist t < dist best then t else best)
              (List.hd waiting) waiting
      in
      b.waiting <- List.filter (fun t -> t != pick) b.waiting;
      b.rr_last <- pick.t_pe;
      b.cur <- Some pick;
      b.cur_left <- pick.t_cycles;
      b.cur_grant <- m.now;
      (match m.c.faults with
      | None -> ()
      | Some fc ->
          (* Both draws always advance the LCG so the per-bus stream
             stays aligned whatever the outcomes. *)
          let draw num =
            b.b_lcg <- ((b.b_lcg * 1664525) + 1013904223) land 0x3FFFFFFF;
            (* High bits: an LCG's low bits have short periods. *)
            num > 0 && b.b_lcg lsr 4 mod fc.f_den < num
          in
          let timeout = draw fc.f_timeout_num in
          let error = draw fc.f_error_num in
          if timeout then begin
            (* The slave never answers: the bus is held until the
               watchdog fires and forces release. *)
            b.b_fault <- F_timeout;
            b.cur_left <- b.cur_left + fc.f_watchdog_cycles
          end
          else if error then b.b_fault <- F_error
          else b.b_fault <- F_ok);
      m.activity <- true

(* The arbiter quarantines a PE whose transaction exhausted its
   retries: its locks are released so peers are not wedged forever, and
   the PE is halted in place.  The run continues degraded. *)
let quarantine m pe =
  let owned =
    Hashtbl.fold
      (fun name owner acc -> if owner = pe then name :: acc else acc)
      m.locks []
  in
  List.iter (Hashtbl.remove m.locks) owned;
  m.phase.(pe) <- Halted;
  m.halted <- m.halted + 1;
  m.rel.rl_quarantined <- pe :: m.rel.rl_quarantined

let phase_desc = function
  | Fetch -> "fetching"
  | Computing cs -> Printf.sprintf "computing (%d cycles left)" cs.cleft
  | Queued -> "queued on a bus"
  | Local_transfer lt ->
      Printf.sprintf "in a local transfer (%d cycles left)" lt.left
  | Sleeping s ->
      Printf.sprintf "sleeping before a poll retry (%d cycles left)" s.left
  | Backoff bo ->
      Printf.sprintf "backing off before bus retry %d" bo.txn.t_attempts
  | Fifo_blocked _ -> "blocked on a Bi-FIFO"
  | Irq_wait -> "waiting for a FIFO interrupt"
  | Halted -> "halted"

(* "pe1 at op #12, queued on a bus; pe3 at op #9, ..." for every PE
   that has not halted — the payload of Deadlock diagnostics. *)
let stuck_report m =
  let items = ref [] in
  Array.iteri
    (fun pe ph ->
      match ph with
      | Halted -> ()
      | ph ->
          items :=
            Printf.sprintf "pe%d at op #%d, %s" pe m.ops_done.(pe)
              (phase_desc ph)
            :: !items)
    m.phase;
  String.concat "; " (List.rev !items)

let resources_of c =
  match c.arch with
  | Bussyn.Generate.Bfba -> []
  | Bussyn.Generate.Gbavi -> List.init c.n_pes (fun k -> Seg k)
  | Bussyn.Generate.Gbavii -> Global :: List.init c.n_pes (fun k -> Seg k)
  | Bussyn.Generate.Gbaviii | Bussyn.Generate.Hybrid | Bussyn.Generate.Ggba
  | Bussyn.Generate.Ccba ->
      [ Global ]
  | Bussyn.Generate.Splitba ->
      List.init (max 1 c.n_subsystems) (fun k -> Ss k)

(* With faults on, a quarantined PE can leave peers legitimately
   wedged (e.g. polling a flag it will never set); such runs stop and
   report instead of raising. *)
let degraded m = m.c.faults <> None && m.rel.rl_unrecovered > 0

(* One simulator cycle.  Returns [true] when the run should stop
   degraded (no progress, but quarantined PEs explain it). *)
let one_cycle m =
  let c = m.c in
  let t = c.timing in
  begin
    m.now <- m.now + 1;
    m.activity <- false;
    (* 1. Fetch phase: pull the next op for every ready PE. *)
    Array.iteri
      (fun pe ph -> match ph with Fetch -> fetch m pe | _ -> ())
      m.phase;
    (* 2. Buses: advance the active transaction; grant the next. *)
    List.iter
      (fun b ->
        (match b.cur with
        | Some txn ->
            m.activity <- true;
            b.busy <- b.busy + 1;
            b.cur_left <- b.cur_left - 1;
            if b.cur_left = 0 then begin
              let outcome = b.b_fault in
              b.cur <- None;
              b.b_fault <- F_ok;
              record m ~resource:(resource_name b.b_res) txn
                ~grant:b.cur_grant;
              match (outcome, m.c.faults) with
              | F_ok, _ | _, None ->
                  (* Effects run only on success: a failed transaction
                     never silently corrupts state. *)
                  if txn.t_attempts > 0 then
                    m.rel.rl_recovered <- m.rel.rl_recovered + 1;
                  m.phase.(txn.t_pe) <- txn.t_effect ()
              | (F_error | F_timeout), Some fc ->
                  (match outcome with
                  | F_error -> m.rel.rl_errors <- m.rel.rl_errors + 1
                  | F_timeout | F_ok ->
                      m.rel.rl_timeouts <- m.rel.rl_timeouts + 1);
                  if txn.t_attempts < fc.f_max_retries then begin
                    m.rel.rl_retries <- m.rel.rl_retries + 1;
                    let left =
                      fc.f_backoff_cycles lsl min txn.t_attempts 16
                    in
                    m.phase.(txn.t_pe) <-
                      Backoff
                        { left = max 1 left;
                          txn = { txn with t_attempts = txn.t_attempts + 1 }
                        }
                  end
                  else begin
                    m.rel.rl_unrecovered <- m.rel.rl_unrecovered + 1;
                    quarantine m txn.t_pe
                  end
            end
        | None -> ());
        if b.cur = None then grant_next m b)
      m.buses;
    (* 3. Per-PE progress. *)
    Array.iteri
      (fun pe ph ->
        match ph with
        | Computing cphase ->
            m.activity <- true;
            m.pe_busy.(pe) <- m.pe_busy.(pe) + 1;
            cphase.cleft <- cphase.cleft - 1;
            let miss =
              if m.l1s = [||] then begin
                (* Rational miss model. *)
                cphase.miss_acc <- cphase.miss_acc + t.Timing.miss_rate_num;
                if cphase.miss_acc >= t.Timing.miss_rate_den then begin
                  cphase.miss_acc <-
                    cphase.miss_acc - t.Timing.miss_rate_den;
                  true
                end
                else false
              end
              else begin
                (* Real L1 over a sequential-with-jumps stream. *)
                let st = m.l1s.(pe) in
                st.run_left <- st.run_left - 1;
                if st.run_left <= 0 then begin
                  st.run_left <- l1_run;
                  st.lcg <-
                    ((st.lcg * 1664525) + 1013904223) land 0x3FFFFFFF;
                  st.pos <- st.lcg mod l1_footprint_words
                end
                else st.pos <- (st.pos + 1) mod l1_footprint_words;
                Cache.access st.cache st.pos = `Miss
              end
            in
            let resume_left = cphase.cleft in
            if miss then begin
              let path = miss_path m.c pe in
              let miss_acc = cphase.miss_acc in
              let effect () =
                if resume_left = 0 then Fetch
                else Computing { cleft = resume_left; miss_acc }
              in
              submit m path
                (txn_of_path ~pe ~words:t.Timing.line_words ~kind:"miss" path
                   effect)
            end;
            (match m.phase.(pe) with
            | Computing c2 when c2 == cphase && cphase.cleft = 0 ->
                m.phase.(pe) <- Fetch
            | Computing _ | Fetch | Queued | Local_transfer _ | Sleeping _
            | Backoff _ | Fifo_blocked _ | Irq_wait | Halted ->
                ())
        | Backoff bo ->
            m.activity <- true;
            m.pe_wait.(pe) <- m.pe_wait.(pe) + 1;
            bo.left <- bo.left - 1;
            if bo.left <= 0 then
              (* Resubmission is a fresh transaction from the bus's
                 point of view (it re-arbitrates and re-transfers), so
                 it goes through [submit] and is counted as traffic. *)
              submit m bo.txn.t_path bo.txn
        | Local_transfer lt ->
            m.activity <- true;
            lt.left <- lt.left - 1;
            if lt.left <= 0 then m.phase.(pe) <- lt.effect ()
        | Sleeping s ->
            m.activity <- true;
            m.pe_wait.(pe) <- m.pe_wait.(pe) + 1;
            s.left <- s.left - 1;
            if s.left <= 0 then exec_op m pe s.retry
        | Fifo_blocked op ->
            m.pe_wait.(pe) <- m.pe_wait.(pe) + 1;
            exec_op m pe op
        | Irq_wait ->
            m.pe_wait.(pe) <- m.pe_wait.(pe) + 1;
            if m.fifo_thr.(pe) > 0 && m.fifo_count.(pe) >= m.fifo_thr.(pe)
            then begin
              m.activity <- true;
              m.phase.(pe) <- Fetch
            end
        | Queued -> m.pe_wait.(pe) <- m.pe_wait.(pe) + 1
        | Fetch | Halted -> ())
      m.phase;
    if (not m.activity) && m.halted < c.n_pes then begin
      if degraded m then true
      else
        raise
          (Deadlock
             (Printf.sprintf "no progress at cycle %d (%d/%d PEs halted): %s"
                m.now m.halted c.n_pes (stuck_report m)))
    end
    else false
  end

let stats_of m =
  {
    cycles = m.now;
    pe_busy = m.pe_busy;
    pe_wait = m.pe_wait;
    bus_busy =
      List.map (fun b -> (resource_name b.b_res, b.busy)) m.buses;
    transactions = m.transactions;
    words_transferred = m.words;
    polls = m.polls;
    marks = List.rev m.m_marks;
    trace = List.rev m.m_trace;
    reliability =
      (match m.c.faults with
      | None -> None
      | Some _ ->
          Some
            {
              r_errors = m.rel.rl_errors;
              r_timeouts = m.rel.rl_timeouts;
              r_retries = m.rel.rl_retries;
              r_recovered = m.rel.rl_recovered;
              r_unrecovered = m.rel.rl_unrecovered;
              r_quarantined = List.rev m.rel.rl_quarantined;
            });
  }

(* Build the machine and run it until every PE halts, a degraded run
   stops, or the [max_cycles] guard trips. *)
let run ?(max_cycles = 200_000_000) c programs =
  if Array.length programs <> c.n_pes then
    Stdlib.invalid_arg "Machine.run: program count <> n_pes";
  (* Programs are stateful generators: sharing one across PEs would
     silently split its operations between them. *)
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun j q ->
          if i < j && p == q then
            Stdlib.invalid_arg
              (Printf.sprintf
                 "Machine.run: PEs %d and %d share one program generator" i j))
        programs)
    programs;
  let m =
    {
      c;
      programs;
      phase = Array.make c.n_pes Fetch;
      buses =
        List.mapi
          (fun i r ->
            { b_res = r; cur = None; cur_left = 0; cur_grant = 0;
              waiting = []; busy = 0; rr_last = c.n_pes - 1;
              b_lcg =
                (match c.faults with
                | Some fc -> (fc.f_seed + ((i + 1) * 0x27d4eb2f)) land 0x3FFFFFFF
                | None -> 0);
              b_fault = F_ok })
          (resources_of c);
      l1s =
        (match c.l1 with
        | None -> [||]
        | Some cfg ->
            Array.init c.n_pes (fun pe ->
                { cache = Cache.create cfg; pos = 0;
                  lcg = 12345 + (pe * 7919); run_left = l1_run }));
      flags = Hashtbl.create 32;
      locks = Hashtbl.create 32;
      fifo_count = Array.make c.n_pes 0;
      fifo_thr = Array.make c.n_pes 0;
      halted = 0;
      transactions = 0;
      words = 0;
      polls = 0;
      pe_busy = Array.make c.n_pes 0;
      pe_wait = Array.make c.n_pes 0;
      ops_done = Array.make c.n_pes 0;
      rel =
        { rl_errors = 0; rl_timeouts = 0; rl_retries = 0; rl_recovered = 0;
          rl_unrecovered = 0; rl_quarantined = [] };
      activity = false;
      m_marks = [];
      m_trace = [];
      now = 0;
    }
  in
  List.iter (fun (f, v) -> Hashtbl.replace m.flags f v) c.initial_flags;
  let n = c.n_pes in
  let stop = ref false in
  while (not !stop) && m.halted < n && m.now < max_cycles do
    if one_cycle m then stop := true
  done;
  if m.halted < n && not (degraded m) then
    raise
      (Deadlock
         (Printf.sprintf "max_cycles (%d) exceeded, %d of %d PEs not halted: %s"
            max_cycles (n - m.halted) n (stuck_report m)));
  stats_of m
