(* See server.mli for the architecture.  Single domain, single thread:
   the admission pump and the batch supervisor interleave through the
   supervisor's should_stop poll, never through shared-memory
   concurrency — which also keeps the process fork-safe for the
   procpool workers. *)

module Sv = Busgen_par.Supervise
module Procpool = Busgen_par.Procpool
module Intr = Busgen_par.Intr
module G = Bussyn.Generate
module Json = Busgen_json.Json

type transport = Stdio | Socket of string

type config = {
  cf_transport : transport;
  cf_journal : string option;
  cf_queue_depth : int;
  cf_client_inflight : int;
  cf_policy : Sv.policy;
  cf_jobs : int;
  cf_limits : Procpool.config;
  cf_max_frame : int;
  cf_debug_kinds : bool;
  cf_circuit_cap : int;
  cf_journal_max_bytes : int;
  cf_log : string -> unit;
}

let config ?(journal = Some "serve-journal") ?(queue_depth = 256)
    ?(client_inflight = 64)
    ?(policy = Sv.policy ~deadline:30. ~retries:1 ())
    ?(jobs = Sv.default_jobs ()) ?(limits = Procpool.config ())
    ?(max_frame = 1024 * 1024)
    ?(debug_kinds = false) ?(circuit_cap = 64)
    ?(journal_max_bytes = 256 * 1024 * 1024)
    ?(log = fun m -> Printf.eprintf "%s\n%!" m) transport =
  if queue_depth < 1 then invalid_arg "serve: queue depth must be positive";
  if jobs < 1 then invalid_arg "serve: worker count must be positive";
  if client_inflight < 1 then
    invalid_arg "serve: client in-flight cap must be positive";
  if max_frame < 1024 then invalid_arg "serve: frame cap must be >= 1024";
  if journal_max_bytes < 4096 then
    invalid_arg "serve: journal size cap must be >= 4096";
  {
    cf_transport = transport;
    cf_journal = journal;
    cf_queue_depth = queue_depth;
    cf_client_inflight = client_inflight;
    cf_policy = policy;
    cf_jobs = jobs;
    cf_limits = limits;
    cf_max_frame = max_frame;
    cf_debug_kinds = debug_kinds;
    cf_circuit_cap = circuit_cap;
    cf_journal_max_bytes = journal_max_bytes;
    cf_log = log;
  }

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type client = {
  cl_id : int;
  cl_rfd : Unix.file_descr;
  cl_wfd : Unix.file_descr;
  cl_rbuf : Buffer.t;
  cl_out : Buffer.t;
  mutable cl_skip : bool;  (* discarding an oversized line *)
  mutable cl_eof : bool;
  mutable cl_dead : bool;  (* write side gone; stop replying *)
}

type pending_job = {
  pj_id : string;
  pj_line : string;
  pj_rq : Proto.request;
  pj_client : int;  (* -1: recovered from the journal, no live client *)
  pj_admitted : float;
}

type counters = {
  mutable ct_accepted : int;
  mutable ct_completed : int;
  mutable ct_failed : int;  (* crashed / timed-out / quarantined jobs *)
  mutable ct_shed_expired : int;
  mutable ct_rej_overloaded : int;
  mutable ct_rej_bad : int;
  mutable ct_rej_duplicate : int;
  mutable ct_rej_shutdown : int;
  mutable ct_rej_oversized : int;
  mutable ct_recovered : int;
  mutable ct_journal_corrupt : int;
}

type state = {
  cfg : config;
  journal : Journal.t option;
  clients : (int, client) Hashtbl.t;
  mutable next_client : int;
  listener : Unix.file_descr option;
  mutable stdio_client : int;  (* client id, or -1 *)
  pending : pending_job Queue.t;
  seen : (string, unit) Hashtbl.t;
  unfinished : (string, unit) Hashtbl.t;
  inflight : (int, int ref) Hashtbl.t;  (* per-client unfinished count *)
  ct : counters;
  mutable child_cache : Cache.snap;  (* worker-side counter deltas *)
  mutable running : int;  (* jobs inside the current batch *)
  mutable draining : bool;
  start : float;
}

let now () = Unix.gettimeofday ()

let set_nonblock fd = try Unix.set_nonblock fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Client IO                                                           *)
(* ------------------------------------------------------------------ *)

(* A stuffed peer must not stall the daemon: writes are non-blocking
   through a bounded buffer, and a client that stops reading past the
   bound is dropped (its results live on in the journal). *)
let out_cap = 8 * 1024 * 1024

let try_flush st c =
  if (not c.cl_dead) && Buffer.length c.cl_out > 0 then begin
    let data = Buffer.to_bytes c.cl_out in
    let n = Bytes.length data in
    let written = ref 0 in
    (try
       while !written < n do
         let k = Unix.write c.cl_wfd data !written (n - !written) in
         if k = 0 then raise Exit;
         written := !written + k
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | Unix.Unix_error _ | Exit ->
      c.cl_dead <- true;
      st.cfg.cf_log
        (Printf.sprintf "[serve] client %d: write failed, dropping" c.cl_id));
    if !written > 0 then begin
      let rest = Bytes.sub_string data !written (n - !written) in
      Buffer.clear c.cl_out;
      Buffer.add_string c.cl_out rest
    end
  end

let queue_reply st c line =
  if not c.cl_dead then begin
    if Buffer.length c.cl_out > out_cap then begin
      c.cl_dead <- true;
      st.cfg.cf_log
        (Printf.sprintf
           "[serve] client %d: output buffer over %d bytes, dropping" c.cl_id
           out_cap)
    end
    else begin
      Buffer.add_string c.cl_out line;
      Buffer.add_char c.cl_out '\n';
      try_flush st c
    end
  end

let reply_to_client st cid line =
  match Hashtbl.find_opt st.clients cid with
  | Some c -> queue_reply st c line
  | None -> ()

let inflight_of st cid =
  match Hashtbl.find_opt st.inflight cid with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace st.inflight cid r;
    r

(* EOF only closes the request direction: the client stays registered
   until its in-flight jobs have resolved and their replies flushed
   (or its write side died), so a batch finishing after the peer shuts
   down its send half still delivers results. *)
let client_gone st c =
  c.cl_eof <- true;
  if c.cl_id = st.stdio_client && not st.draining then begin
    (* EOF on stdin is the stdio drain signal. *)
    st.cfg.cf_log "[serve] stdin closed; draining";
    st.draining <- true
  end

let forget st c =
  Hashtbl.remove st.clients c.cl_id;
  (match Hashtbl.find_opt st.inflight c.cl_id with
  | Some r when !r <= 0 -> Hashtbl.remove st.inflight c.cl_id
  | _ -> ());
  if c.cl_id <> st.stdio_client then (
    try Unix.close c.cl_rfd with Unix.Unix_error _ -> ())

(* Collect-then-remove: callers iterate st.clients, and Hashtbl
   mutation during iteration is unspecified. *)
let reap_clients st =
  let dead =
    Hashtbl.fold
      (fun _ c acc ->
        let inflight =
          match Hashtbl.find_opt st.inflight c.cl_id with
          | Some r -> !r
          | None -> 0
        in
        if
          c.cl_dead
          || (c.cl_eof && inflight <= 0 && Buffer.length c.cl_out = 0)
        then c :: acc
        else acc)
      st.clients []
  in
  List.iter (fun c -> forget st c) dead

(* ------------------------------------------------------------------ *)
(* Stats / health                                                      *)
(* ------------------------------------------------------------------ *)

let stats_of (s : Busgen_cache.Lru.stats) =
  Json.Obj
    [
      ("size", Json.Int s.Busgen_cache.Lru.st_size);
      ("cap", Json.Int s.Busgen_cache.Lru.st_cap);
      ("hits", Json.Int s.Busgen_cache.Lru.st_hits);
      ("misses", Json.Int s.Busgen_cache.Lru.st_misses);
      ("evictions", Json.Int s.Busgen_cache.Lru.st_evictions);
    ]

let stats_result st =
  let parent = Cache.snapshot () in
  let agg = Cache.add parent st.child_cache in
  let ct = st.ct in
  Json.Obj
    [
      ("version", Json.String G.tool_version);
      ("uptime_s", Json.Int (int_of_float (now () -. st.start)));
      ("backend", Json.String "proc");
      ("workers", Json.Int st.cfg.cf_jobs);
      ("draining", Json.Bool st.draining);
      ( "queue",
        Json.Obj
          [
            ("pending", Json.Int (Queue.length st.pending));
            ("running", Json.Int st.running);
            ("unfinished", Json.Int (Hashtbl.length st.unfinished));
            ("depth_cap", Json.Int st.cfg.cf_queue_depth);
            ("client_inflight_cap", Json.Int st.cfg.cf_client_inflight);
          ] );
      ( "counters",
        Json.Obj
          [
            ("accepted", Json.Int ct.ct_accepted);
            ("completed", Json.Int ct.ct_completed);
            ("failed", Json.Int ct.ct_failed);
            ("shed_expired", Json.Int ct.ct_shed_expired);
            ("rejected_overloaded", Json.Int ct.ct_rej_overloaded);
            ("rejected_bad_request", Json.Int ct.ct_rej_bad);
            ("rejected_duplicate", Json.Int ct.ct_rej_duplicate);
            ("rejected_shutting_down", Json.Int ct.ct_rej_shutdown);
            ("rejected_oversized", Json.Int ct.ct_rej_oversized);
            ("recovered", Json.Int ct.ct_recovered);
          ] );
      ( "cache",
        Json.Obj
          [
            ("circuits", stats_of agg.Cache.sn_circuits);
            ("catalog", stats_of agg.Cache.sn_catalog);
          ] );
      ( "journal",
        match st.journal with
        | None -> Json.Null
        | Some j ->
          Json.Obj
            [
              ("path", Json.String (Journal.path j));
              ("bytes", Json.Int (Journal.size_bytes j));
              ("appends", Json.Int (Journal.records_written j));
              ("corrupt_skipped", Json.Int st.ct.ct_journal_corrupt);
            ] );
    ]

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let journal_accept st j =
  match st.journal with
  | Some jn -> Journal.accept jn ~id:j.pj_id ~line:j.pj_line
  | None -> ()

let journal_done st ~id ~reply =
  match st.journal with
  | Some jn -> Journal.done_ jn ~id ~reply
  | None -> ()

let journal_quarantine st ~id ~reason =
  match st.journal with
  | Some jn -> Journal.quarantine jn ~id ~reason
  | None -> ()

let process_line st c line =
  if String.trim line <> "" then begin
    match Proto.parse_request line with
    | Error e ->
      st.ct.ct_rej_bad <- st.ct.ct_rej_bad + 1;
      queue_reply st c (Proto.err_reply ~code:Proto.code_bad_request e)
    | Ok rq -> (
      let id = rq.Proto.rq_id in
      match rq.Proto.rq_kind with
      | "health" | "stats" ->
        queue_reply st c (Proto.ok_reply ~id (stats_result st))
      | "drain" ->
        if not st.draining then st.cfg.cf_log "[serve] drain requested";
        st.draining <- true;
        queue_reply st c
          (Proto.ok_reply ~id (Json.Obj [ ("draining", Json.Bool true) ]))
      | _ when st.draining ->
        st.ct.ct_rej_shutdown <- st.ct.ct_rej_shutdown + 1;
        queue_reply st c
          (Proto.err_reply ~id ~code:Proto.code_shutting_down
             "server is draining; no new jobs")
      | _ when Hashtbl.mem st.seen id ->
        st.ct.ct_rej_duplicate <- st.ct.ct_rej_duplicate + 1;
        queue_reply st c
          (Proto.err_reply ~id ~code:Proto.code_duplicate_id
             (Printf.sprintf "request id %S was already accepted" id))
      | _ when Hashtbl.length st.unfinished >= st.cfg.cf_queue_depth ->
        st.ct.ct_rej_overloaded <- st.ct.ct_rej_overloaded + 1;
        queue_reply st c
          (Proto.err_reply ~id ~code:Proto.code_overloaded
             (Printf.sprintf "queue depth %d reached" st.cfg.cf_queue_depth))
      | _ when !(inflight_of st c.cl_id) >= st.cfg.cf_client_inflight ->
        st.ct.ct_rej_overloaded <- st.ct.ct_rej_overloaded + 1;
        queue_reply st c
          (Proto.err_reply ~id ~code:Proto.code_overloaded
             (Printf.sprintf "client in-flight cap %d reached"
                st.cfg.cf_client_inflight))
      | _ -> (
        match Exec.validate ~allow_debug:st.cfg.cf_debug_kinds rq with
        | Error e ->
          st.ct.ct_rej_bad <- st.ct.ct_rej_bad + 1;
          queue_reply st c (Proto.err_reply ~id ~code:Proto.code_bad_request e)
        | Ok () ->
          let j =
            {
              pj_id = id;
              pj_line = line;
              pj_rq = rq;
              pj_client = c.cl_id;
              pj_admitted = now ();
            }
          in
          journal_accept st j;
          Hashtbl.replace st.seen id ();
          Hashtbl.replace st.unfinished id ();
          incr (inflight_of st c.cl_id);
          st.ct.ct_accepted <- st.ct.ct_accepted + 1;
          (* Warm the circuit cache in the parent so the batch's forked
             workers inherit the entry copy-on-write ([validate] already
             built the design of a generate/verify/inject job). *)
          Exec.warm rq;
          Queue.push j st.pending))
  end

(* Split complete lines out of the client's read buffer; handle the
   oversized-line protocol (reply once, discard until newline). *)
let drain_rbuf st c =
  let data = Buffer.contents c.cl_rbuf in
  Buffer.clear c.cl_rbuf;
  let len = String.length data in
  let start = ref 0 in
  (try
     while !start < len do
       match String.index_from data !start '\n' with
       | exception Not_found ->
         (* No newline: partial line (or partial garbage being
            skipped).  Keep what is ours to keep. *)
         if c.cl_skip then start := len
         else begin
           let rest = len - !start in
           if rest > st.cfg.cf_max_frame then begin
             st.ct.ct_rej_oversized <- st.ct.ct_rej_oversized + 1;
             queue_reply st c
               (Proto.err_reply ~code:Proto.code_oversized
                  (Printf.sprintf "request line exceeds %d bytes"
                     st.cfg.cf_max_frame));
             c.cl_skip <- true
           end
           else Buffer.add_substring c.cl_rbuf data !start rest;
           start := len
         end;
         raise Exit
       | nl ->
         (if c.cl_skip then c.cl_skip <- false
          else
            let line = String.sub data !start (nl - !start) in
            if String.length line > st.cfg.cf_max_frame then begin
              st.ct.ct_rej_oversized <- st.ct.ct_rej_oversized + 1;
              queue_reply st c
                (Proto.err_reply ~code:Proto.code_oversized
                   (Printf.sprintf "request line exceeds %d bytes"
                      st.cfg.cf_max_frame))
            end
            else process_line st c line);
         start := nl + 1
     done
   with Exit -> ())

let read_client st c =
  let buf = Bytes.create 65536 in
  match Unix.read c.cl_rfd buf 0 (Bytes.length buf) with
  | 0 -> client_gone st c
  | n ->
    Buffer.add_subbytes c.cl_rbuf buf 0 n;
    drain_rbuf st c
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error _ -> client_gone st c

let add_client st ~rfd ~wfd =
  let id = st.next_client in
  st.next_client <- id + 1;
  set_nonblock rfd;
  set_nonblock wfd;
  let c =
    {
      cl_id = id;
      cl_rfd = rfd;
      cl_wfd = wfd;
      cl_rbuf = Buffer.create 256;
      cl_out = Buffer.create 256;
      cl_skip = false;
      cl_eof = false;
      cl_dead = false;
    }
  in
  Hashtbl.replace st.clients id c;
  c

let accept_new st =
  match st.listener with
  | None -> ()
  | Some lfd ->
    let rec go () =
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        ignore (add_client st ~rfd:fd ~wfd:fd);
        go ()
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()

(* One admission-pump step: wait up to [timeout] for transport
   activity, then accept / read / flush.  Never raises — this runs
   inside the supervisor's should_stop poll. *)
let pump st ~timeout =
  try
    let reads =
      (match st.listener with Some fd -> [ fd ] | None -> [])
      @ Hashtbl.fold
          (fun _ c acc -> if c.cl_eof then acc else c.cl_rfd :: acc)
          st.clients []
    in
    let writes =
      Hashtbl.fold
        (fun _ c acc ->
          if (not c.cl_dead) && Buffer.length c.cl_out > 0 then
            c.cl_wfd :: acc
          else acc)
        st.clients []
    in
    if reads = [] && writes = [] then begin
      if timeout > 0. then ignore (Unix.select [] [] [] timeout)
    end
    else begin
      match Unix.select reads writes [] timeout with
      | rs, ws, _ ->
        if List.exists (fun fd -> st.listener = Some fd) rs then
          accept_new st;
        Hashtbl.iter
          (fun _ c ->
            if (not c.cl_eof) && List.memq c.cl_rfd rs then
              read_client st c)
          st.clients;
        Hashtbl.iter
          (fun _ c -> if List.memq c.cl_wfd ws then try_flush st c)
          st.clients
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end;
    reap_clients st
  with _ -> ()

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

let resolve st j reply ~terminal =
  Hashtbl.remove st.unfinished j.pj_id;
  (match Hashtbl.find_opt st.inflight j.pj_client with
  | Some r ->
    decr r;
    if !r <= 0 && not (Hashtbl.mem st.clients j.pj_client) then
      Hashtbl.remove st.inflight j.pj_client
  | None -> ());
  (match terminal with
  | `Done -> journal_done st ~id:j.pj_id ~reply
  | `Quarantine reason -> journal_quarantine st ~id:j.pj_id ~reason
  | `Nothing -> ());
  if j.pj_client >= 0 then reply_to_client st j.pj_client reply;
  reap_clients st

(* Shed queue entries whose client-supplied queue deadline has passed
   before they ever started: dead work the daemon refuses to run. *)
let shed_expired st =
  let keep = Queue.create () in
  let t = now () in
  Queue.iter
    (fun j ->
      match j.pj_rq.Proto.rq_deadline_ms with
      | Some ms
        when t -. j.pj_admitted > float_of_int ms /. 1000. ->
        st.ct.ct_shed_expired <- st.ct.ct_shed_expired + 1;
        let reply =
          Proto.err_reply ~id:j.pj_id ~code:Proto.code_expired
            (Printf.sprintf "queue deadline %dms passed before execution" ms)
        in
        resolve st j reply ~terminal:(`Quarantine "queue deadline expired")
      | _ -> Queue.push j keep)
    st.pending;
  Queue.clear st.pending;
  Queue.transfer keep st.pending

let hard_stop () = Intr.hard_requested ()

let run_batch st =
  let batch = Array.of_seq (Queue.to_seq st.pending) in
  Queue.clear st.pending;
  let n = Array.length batch in
  st.running <- n;
  let backend =
    Sv.Processes
      {
        Procpool.sp_config = st.cfg.cf_limits;
        sp_encode = Exec.encode_result;
        sp_decode = Exec.decode_result;
      }
  in
  let on_result i outcome =
    (try
       let j = batch.(i) in
       st.running <- st.running - 1;
       match outcome with
       | Sv.Ok (reply, delta) ->
         st.child_cache <- Cache.add st.child_cache delta;
         st.ct.ct_completed <- st.ct.ct_completed + 1;
         resolve st j reply ~terminal:`Done
       | o ->
         let code =
           match o with
           | Sv.Crashed _ -> Proto.code_crashed
           | Sv.Timed_out _ -> Proto.code_timed_out
           | Sv.Quarantined _ -> Proto.code_quarantined
           | Sv.Ok _ -> assert false
         in
         let why = Sv.describe o in
         st.ct.ct_failed <- st.ct.ct_failed + 1;
         st.cfg.cf_log
           (Printf.sprintf "[serve] job %s quarantined: %s" j.pj_id why);
         resolve st j
           (Proto.err_reply ~id:j.pj_id ~code why)
           ~terminal:(`Quarantine why)
     with e ->
       st.cfg.cf_log
         (Printf.sprintf "[serve] on_result error: %s" (Printexc.to_string e)));
    ()
  in
  let should_stop () =
    pump st ~timeout:0.;
    hard_stop ()
  in
  let outcomes =
    Sv.run ~policy:st.cfg.cf_policy ~backend ~jobs:st.cfg.cf_jobs ~on_result
      ~should_stop n
      (fun i -> Exec.run batch.(i).pj_rq)
  in
  ignore (outcomes : (string * Cache.snap) Sv.outcome array);
  st.running <- 0;
  match st.journal with
  | Some jn when Journal.size_bytes jn > st.cfg.cf_journal_max_bytes ->
    Journal.compact jn ~keep_done:1024
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Startup: transport, journal recovery                                *)
(* ------------------------------------------------------------------ *)

let bind_socket path =
  if Sys.file_exists path then begin
    (* A live server owns it; a stale socket from a SIGKILLed one is
       normal and safe to replace. *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith (Printf.sprintf "socket %s already has a live server" path);
    try Unix.unlink path with Unix.Unix_error _ -> ()
  end;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  set_nonblock fd;
  fd

let create_state cfg =
  let journal, recovery =
    match cfg.cf_journal with
    | None -> (None, None)
    | Some dir ->
      let j, rc = Journal.open_ ~log:cfg.cf_log ~dir () in
      (Some j, Some rc)
  in
  let listener =
    match cfg.cf_transport with
    | Stdio -> None
    | Socket path -> Some (bind_socket path)
  in
  let st =
    {
      cfg;
      journal;
      clients = Hashtbl.create 16;
      next_client = 0;
      listener;
      stdio_client = -1;
      pending = Queue.create ();
      seen = Hashtbl.create 256;
      unfinished = Hashtbl.create 64;
      inflight = Hashtbl.create 16;
      ct =
        {
          ct_accepted = 0;
          ct_completed = 0;
          ct_failed = 0;
          ct_shed_expired = 0;
          ct_rej_overloaded = 0;
          ct_rej_bad = 0;
          ct_rej_duplicate = 0;
          ct_rej_shutdown = 0;
          ct_rej_oversized = 0;
          ct_recovered = 0;
          ct_journal_corrupt = 0;
        };
      child_cache = Cache.zero;
      running = 0;
      draining = false;
      start = now ();
    }
  in
  (match recovery with
  | None -> ()
  | Some rc ->
    st.ct.ct_journal_corrupt <- rc.Journal.rc_corrupt;
    Hashtbl.iter (fun id () -> Hashtbl.replace st.seen id ()) rc.Journal.rc_seen;
    List.iter
      (fun (id, line) ->
        match Proto.parse_request line with
        | Error e ->
          (* A journaled request we can no longer parse: quarantine it
             and keep serving the rest. *)
          let reason = "unparseable journaled request: " ^ e in
          cfg.cf_log (Printf.sprintf "[serve] job %s quarantined: %s" id reason);
          journal_quarantine st ~id ~reason
        | Ok rq -> (
          match Exec.validate ~allow_debug:cfg.cf_debug_kinds rq with
          | Error e ->
            let reason = "journaled request no longer valid: " ^ e in
            cfg.cf_log
              (Printf.sprintf "[serve] job %s quarantined: %s" id reason);
            journal_quarantine st ~id ~reason
          | Ok () ->
            Hashtbl.replace st.unfinished id ();
            st.ct.ct_recovered <- st.ct.ct_recovered + 1;
            Exec.warm rq;
            Queue.push
              {
                pj_id = id;
                pj_line = line;
                pj_rq = rq;
                pj_client = -1;
                pj_admitted = now ();
              }
              st.pending))
      rc.Journal.rc_pending;
    if st.ct.ct_recovered > 0 then
      cfg.cf_log
        (Printf.sprintf "[serve] recovered %d unfinished job(s) from %s"
           st.ct.ct_recovered
           (match journal with Some j -> Journal.path j | None -> "journal")));
  (match cfg.cf_transport with
  | Stdio ->
    let c = add_client st ~rfd:Unix.stdin ~wfd:Unix.stdout in
    st.stdio_client <- c.cl_id
  | Socket _ -> ());
  st

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let shutdown st ~code =
  (match st.journal with
  | Some jn ->
    Journal.sync jn;
    Journal.close jn
  | None -> ());
  (* Push out any buffered replies before closing — blocking, so a
     momentarily full pipe cannot drop results at exit. *)
  Hashtbl.iter
    (fun _ c ->
      if not c.cl_dead then begin
        (try Unix.clear_nonblock c.cl_wfd with Unix.Unix_error _ -> ());
        try_flush st c
      end)
    st.clients;
  (match st.listener with
  | Some fd -> (
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match st.cfg.cf_transport with
    | Socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Stdio -> ())
  | None -> ());
  Hashtbl.iter
    (fun _ c ->
      if c.cl_id <> st.stdio_client then (
        try Unix.close c.cl_rfd with Unix.Unix_error _ -> ()))
    st.clients;
  code

let run cfg =
  Intr.install ();
  Cache.set_circuit_cap cfg.cf_circuit_cap;
  let st = create_state cfg in
  (match cfg.cf_transport with
  | Socket path -> cfg.cf_log (Printf.sprintf "[serve] listening on %s" path)
  | Stdio -> ());
  let rec loop () =
    if Intr.requested () && not st.draining then begin
      cfg.cf_log "[serve] signal received; draining (again to abort)";
      st.draining <- true
    end;
    if hard_stop () then begin
      cfg.cf_log "[serve] second signal: aborting with jobs journaled";
      shutdown st ~code:130
    end
    else begin
      shed_expired st;
      if Queue.is_empty st.pending then
        if st.draining then begin
          cfg.cf_log
            (Printf.sprintf
               "[serve] drained: %d completed, %d failed, %d shed"
               st.ct.ct_completed st.ct.ct_failed st.ct.ct_shed_expired);
          shutdown st ~code:0
        end
        else begin
          pump st ~timeout:0.05;
          loop ()
        end
      else begin
        match run_batch st with
        | () -> loop ()
        | exception Sv.Interrupted ->
          cfg.cf_log "[serve] batch aborted; unfinished jobs stay journaled";
          shutdown st ~code:130
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Client-side helpers                                                 *)
(* ------------------------------------------------------------------ *)

let with_connection ~socket f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
  | () ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> f fd)

let read_line_fd ?(timeout = 120.) fd buf =
  (* Reads into [buf] until it holds a newline; returns the first line. *)
  let rec find_line () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some nl ->
      let all = Buffer.contents buf in
      let line = String.sub all 0 nl in
      Buffer.clear buf;
      Buffer.add_substring buf all (nl + 1) (String.length all - nl - 1);
      Some line
    | None -> (
      match Unix.select [ fd ] [] [] timeout with
      | [], _, _ -> None
      | _ -> (
        let b = Bytes.create 65536 in
        match Unix.read fd b 0 (Bytes.length b) with
        | 0 -> None
        | n ->
          Buffer.add_subbytes buf b 0 n;
          find_line ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> find_line ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> find_line ())
  in
  find_line ()

let send_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let ping ~socket =
  with_connection ~socket (fun fd ->
      send_all fd "{\"id\":\"ping\",\"kind\":\"health\"}\n";
      let buf = Buffer.create 256 in
      match read_line_fd ~timeout:10. fd buf with
      | Some line -> Ok line
      | None -> Error "no reply from server (timeout or closed)")

let send_file ?(timeout = 120.) ~socket ~path () =
  let read_lines ic =
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  let lines =
    if path = "-" then Ok (read_lines stdin)
    else
      match open_in path with
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Ok (read_lines ic))
      | exception Sys_error e -> Error e
  in
  match lines with
  | Error e -> Error e
  | Ok lines ->
    let lines = List.filter (fun l -> String.trim l <> "") lines in
    with_connection ~socket (fun fd ->
        List.iter (fun l -> send_all fd (l ^ "\n")) lines;
        let buf = Buffer.create 4096 in
        let rec collect n =
          if n >= List.length lines then Ok n
          else
            match read_line_fd ~timeout fd buf with
            | Some reply ->
              print_endline reply;
              collect (n + 1)
            | None ->
              if n = 0 then Error "no replies from server (timeout or closed)"
              else Ok n
        in
        collect 0)

(* ------------------------------------------------------------------ *)
(* Journal inspection                                                  *)
(* ------------------------------------------------------------------ *)

let dump_journal ~dir =
  match Journal.read_all ~dir with
  | Error e -> Error e
  | Ok (records, corrupt, torn) ->
    List.iter
      (fun r ->
        let obj =
          match r with
          | Journal.Accept (id, line) ->
            Json.Obj
              [
                ("record", Json.String "accept");
                ("id", Json.String id);
                ("request", Json.String line);
              ]
          | Journal.Done (id, reply) ->
            Json.Obj
              ([ ("record", Json.String "done"); ("id", Json.String id) ]
              @
              if reply = "" then [ ("compacted", Json.Bool true) ]
              else [ ("reply", Json.String reply) ])
          | Journal.Quarantine (id, reason) ->
            Json.Obj
              [
                ("record", Json.String "quarantine");
                ("id", Json.String id);
                ("reason", Json.String reason);
              ]
        in
        print_endline (Json.to_string obj))
      records;
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("record", Json.String "summary");
              ("records", Json.Int (List.length records));
              ("corrupt_skipped", Json.Int corrupt);
              ("torn_bytes", Json.Int torn);
            ]));
    Ok ()

let dump_replies ~dir =
  match Journal.read_all ~dir with
  | Error e -> Error e
  | Ok (records, _corrupt, _torn) ->
    let tbl = Hashtbl.create 64 in
    List.iter
      (function
        | Journal.Done (id, reply) when reply <> "" ->
          Hashtbl.replace tbl id reply
        | _ -> ())
      records;
    let sorted =
      List.sort compare (Hashtbl.fold (fun id r acc -> (id, r) :: acc) tbl [])
    in
    List.iter (fun (_, reply) -> print_endline reply) sorted;
    Ok ()
