(* Supervision of parallel sweeps: per-job wall-clock deadlines,
   bounded retry with exponential backoff, quarantine of jobs that
   exhaust their retries, and graceful completion — the sweep always
   drains, and every job ends in exactly one outcome.

   One policy, two ways to run the jobs:

   - with a [Processes] backend, workers are forked children (Procpool)
     and the calling process runs a single-threaded event loop over
     their result pipes.  An overdue job's worker is SIGKILLed and
     reaped — true cancellation, nothing leaks — and a worker dying to
     a signal (SIGSEGV, the OOM killer) surfaces as that one job's
     failure while the sweep drains normally.  Retry backoff is a
     ready-time queue in the scheduler, not a sleep, so deadlines and
     interrupts stay responsive during waits;

   - without one, the jobs run one at a time in the calling process
     (no deadline can be enforced there, so none may be set).

   Both commit outcomes through one ledger and decide retries with one
   rule ([after_failure]), so hooks, skip, retry and quarantine behave
   the same either way.  Determinism: for a run in which no deadline
   fires and no worker dies, the outcome array is a pure function of
   the job function — byte-identical for every [jobs], including 1,
   with or without the backend. *)

type policy = {
  sv_deadline : float option;
  sv_retries : int;
  sv_backoff : float;
  sv_poll : float;
}

let default_policy =
  { sv_deadline = None; sv_retries = 0; sv_backoff = 0.05; sv_poll = 0.02 }

let policy ?deadline ?(retries = 0) ?(backoff = 0.05) ?(poll = 0.02) () =
  if retries < 0 then invalid_arg "Supervise.policy: negative retries";
  (match deadline with
  | Some d when d <= 0. -> invalid_arg "Supervise.policy: non-positive deadline"
  | _ -> ());
  if backoff < 0. then invalid_arg "Supervise.policy: negative backoff";
  if poll <= 0. then invalid_arg "Supervise.policy: non-positive poll";
  {
    sv_deadline = deadline;
    sv_retries = retries;
    sv_backoff = backoff;
    sv_poll = poll;
  }

type 'a outcome =
  | Ok of 'a
  | Crashed of { error : string; attempts : int }
  | Timed_out of { deadline : float; attempts : int }
  | Quarantined of { error : string; attempts : int }

type 'a backend = Processes of 'a Procpool.spec

let default_jobs () = Domain.recommended_domain_count ()

let outcome_class = function
  | Ok _ -> "ok"
  | Crashed _ -> "crashed"
  | Timed_out _ -> "timed-out"
  | Quarantined _ -> "quarantined"

(* Deterministic by construction: the deadline comes from the policy,
   never from a measured elapsed time, so failure summaries built from
   these strings satisfy the j1 ≡ jN byte-identity contract whenever
   the underlying outcomes match. *)
let describe = function
  | Ok _ -> "ok"
  | Crashed { error; attempts = _ } -> "crashed: " ^ error
  | Timed_out { deadline; attempts } ->
      Printf.sprintf "timed out (deadline %gs, attempt %d)" deadline attempts
  | Quarantined { error; attempts } ->
      Printf.sprintf "quarantined after %d attempt(s): %s" attempts error

let casualties outcomes =
  let acc = ref [] in
  Array.iteri
    (fun i o -> match o with Ok _ -> () | o -> acc := (i, describe o) :: !acc)
    outcomes;
  List.rev !acc

exception Interrupted

let sleepf s =
  if s > 0. then
    try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Chunked sleep that keeps checking an abort predicate, so a retry
   backoff cannot delay an interrupt by more than one chunk.  Returns
   [true] when cut short.  A raising [abort] counts as an abort
   request — the caller re-examines its own state rather than trusting
   the predicate. *)
let interruptible_sleep ~abort total =
  let chunk_len = 0.05 in
  let rec go remaining =
    if remaining <= 0. then false
    else if (try abort () with _ -> true) then true
    else begin
      sleepf (if remaining < chunk_len then remaining else chunk_len);
      go (remaining -. chunk_len)
    end
  in
  go total

(* ------------------------------------------------------------------ *)
(* The ledger and the retry rule, shared by both schedulers            *)
(* ------------------------------------------------------------------ *)

(* One outcome per slot, first commit wins (the losing race is a
   worker whose result arrives for a job already ruled [Timed_out]).
   [on_result] then [on_progress] fire once per index as it commits;
   the first exception a hook raises is kept, later hook calls are
   suppressed, and [close] re-raises it once the sweep has drained. *)
type 'a ledger = {
  slots : 'a outcome option array;
  mutable committed : int;
  mutable hook_error : exn option;
  on_result : (int -> 'a outcome -> unit) option;
  on_progress : (done_:int -> total:int -> unit) option;
}

let commit l i o =
  match l.slots.(i) with
  | Some _ -> ()
  | None -> (
      l.slots.(i) <- Some o;
      l.committed <- l.committed + 1;
      if Option.is_none l.hook_error then
        try
          Option.iter (fun h -> h i o) l.on_result;
          Option.iter
            (fun h -> h ~done_:l.committed ~total:(Array.length l.slots))
            l.on_progress
        with e -> l.hook_error <- Some e)

let pending l i = Option.is_none l.slots.(i)
let drained l = l.committed >= Array.length l.slots

(* [skip i = Some v] pre-commits slot [i] before any job runs. *)
let open_ledger ?on_result ?on_progress ?skip n =
  let l =
    { slots = Array.make n None; committed = 0; hook_error = None;
      on_result; on_progress }
  in
  Option.iter
    (fun sk ->
      for i = 0 to n - 1 do
        match sk i with Some v -> commit l i (Ok v) | None -> ()
      done)
    skip;
  l

let close l =
  Option.iter raise l.hook_error;
  Array.map
    (function Some o -> o | None -> assert false (* all committed *))
    l.slots

(* What failed attempt [k] of a job leads to: another attempt after an
   exponential backoff while retries remain, otherwise its final
   outcome. *)
let after_failure p k error =
  if k <= p.sv_retries then
    `Retry_after (p.sv_backoff *. (2. ** float_of_int (k - 1)))
  else if p.sv_retries = 0 then `Final (Crashed { error; attempts = k })
  else `Final (Quarantined { error; attempts = k })

(* ------------------------------------------------------------------ *)
(* In-process: one job at a time in the calling process                *)
(* ------------------------------------------------------------------ *)

let run_inline p l ~stop n f =
  for i = 0 to n - 1 do
    if pending l i then begin
      let rec attempt k =
        if stop () then raise Interrupted;
        match f i with
        | v -> commit l i (Ok v)
        | exception e -> (
            match after_failure p k (Printexc.to_string e) with
            | `Final o -> commit l i o
            | `Retry_after delay ->
                if interruptible_sleep ~abort:stop delay then raise Interrupted;
                attempt (k + 1))
      in
      attempt 1
    end
  done

(* ------------------------------------------------------------------ *)
(* Forked workers                                                      *)
(* ------------------------------------------------------------------ *)

type proc_slot = {
  mutable ps_worker : Procpool.worker;
  (* (index, attempt, started); [None] = idle *)
  mutable ps_job : (int * int * float) option;
}

let run_procs (type a) ~(spec : a Procpool.spec) p (l : a ledger) ~workers
    ~stop n (f : int -> a) =
  let limits = spec.sp_config.pc_limits in
  let run_child i = spec.sp_encode (f i) in
  (* Fresh jobs come from a counter; crashed attempts wait in a
     ready-time queue sorted by (ready, index) instead of a blocking
     backoff sleep, so the scheduler stays responsive to deadlines and
     interrupts throughout.  Every uncommitted index is always in
     exactly one place: not yet taken, queued for retry, or running in
     a slot — which is the termination argument. *)
  let next = ref 0 in
  let retryq : (float * int * int) list ref = ref [] in
  let push_retry ready i k =
    let before (t1, i1, _) (t2, i2, _) = t1 < t2 || (t1 = t2 && i1 < i2) in
    let rec ins = function
      | [] -> [ (ready, i, k) ]
      | x :: _ as q when before (ready, i, k) x -> (ready, i, k) :: q
      | x :: q -> x :: ins q
    in
    retryq := ins !retryq
  in
  let rec take_fresh () =
    if !next >= n then None
    else begin
      let i = !next in
      incr next;
      if pending l i then Some i else take_fresh ()
    end
  in
  let take_job now =
    match !retryq with
    | (t, i, k) :: rest when t <= now ->
        retryq := rest;
        Some (i, k)
    | _ -> Option.map (fun i -> (i, 1)) (take_fresh ())
  in
  let slots : proc_slot list ref = ref [] in
  let spawn_slot () =
    let w =
      Procpool.spawn ~limits ~run:run_child
        (List.map (fun s -> s.ps_worker) !slots)
    in
    slots := !slots @ [ { ps_worker = w; ps_job = None } ]
  in
  (* Replace [s]'s dead (already-reaped) worker in place.  The stale
     worker must not appear in the sibling list handed to the fresh
     child: its fds are closed and the numbers may already be reused by
     the new pipes. *)
  let replace s =
    let others =
      List.filter_map
        (fun x -> if x == s then None else Some x.ps_worker)
        !slots
    in
    s.ps_worker <- Procpool.spawn ~limits ~run:run_child others;
    s.ps_job <- None
  in
  let kill_all () =
    List.iter (fun s -> ignore (Procpool.kill s.ps_worker)) !slots;
    slots := []
  in
  let fail_attempt i k error now =
    if pending l i then
      match after_failure p k error with
      | `Final o -> commit l i o
      | `Retry_after delay -> push_retry (now +. delay) i (k + 1)
  in
  let handle_readable s now =
    let job = s.ps_job in
    let k = match job with Some (_, k, _) -> k | None -> 1 in
    match Procpool.read_reply s.ps_worker with
    | reply ->
        s.ps_job <- None;
        (match reply with
        | Procpool.Ok_reply (i, payload) -> (
            match spec.sp_decode payload with
            | v -> commit l i (Ok v)
            | exception e ->
                fail_attempt i k
                  ("result decode failed: " ^ Printexc.to_string e)
                  now)
        | Procpool.Err_reply (i, error) -> fail_attempt i k error now);
        (* Recycle a worker that has served its quota, bounding the
           child's memory growth over long sweeps. *)
        (match spec.sp_config.pc_recycle_after with
        | Some r when Procpool.jobs_done s.ps_worker >= r ->
            ignore (Procpool.shutdown s.ps_worker);
            replace s
        | _ -> ())
    | exception ((Procpool.Closed | Procpool.Protocol _) as e) ->
        (* The worker died (or its stream is unusable): SIGKILL is a
           no-op on a corpse and [kill] reaps either way, reporting how
           the child actually ended. *)
        let death = Procpool.kill s.ps_worker in
        s.ps_job <- None;
        let why =
          match (death, e) with
          | Procpool.Signaled sg, _ -> "worker killed by " ^ sg
          | Procpool.Exited c, Procpool.Protocol msg ->
              Printf.sprintf "worker protocol error: %s (exit code %d)" msg c
          | Procpool.Exited c, _ ->
              Printf.sprintf "worker exited unexpectedly (code %d)" c
        in
        (match job with
        | Some (i, k, _) -> fail_attempt i k why now
        | None -> ());
        if not (drained l) then replace s
  in
  let enforce_deadlines now =
    match p.sv_deadline with
    | None -> ()
    | Some d ->
        List.iter
          (fun s ->
            match s.ps_job with
            | Some (i, k, t0) when now -. t0 > d ->
                (* A result already sitting in the pipe beats the axe:
                   the job did finish within the worker, we were merely
                   slow to read it. *)
                let readable =
                  match
                    Unix.select [ Procpool.result_fd s.ps_worker ] [] [] 0.
                  with
                  | r, _, _ -> r <> []
                  | exception Unix.Unix_error _ -> false
                in
                if readable then handle_readable s now
                else begin
                  (* True cancellation: SIGKILL the worker running the
                     overdue job and reap it — no zombie, no abandoned
                     computation. *)
                  ignore (Procpool.kill s.ps_worker);
                  s.ps_job <- None;
                  commit l i (Timed_out { deadline = d; attempts = k });
                  if not (drained l) then replace s
                end
            | _ -> ())
          !slots
  in
  try
    for _ = 1 to workers do
      spawn_slot ()
    done;
    while not (drained l) do
      if stop () then raise Interrupted;
      let now = Unix.gettimeofday () in
      enforce_deadlines now;
      if not (drained l) then begin
        List.iter
          (fun s ->
            if s.ps_job = None then
              match take_job now with
              | None -> ()
              | Some (i, k) -> (
                  match Procpool.send_job s.ps_worker i with
                  | () -> s.ps_job <- Some (i, k, now)
                  | exception (Procpool.Closed | Procpool.Protocol _) ->
                      (* Died while idle: park the job for an immediate
                         re-hand-out and refork. *)
                      ignore (Procpool.kill s.ps_worker);
                      push_retry now i k;
                      replace s))
          !slots;
        let busy = List.filter (fun s -> s.ps_job <> None) !slots in
        let timeout =
          let next_deadline =
            match p.sv_deadline with
            | None -> infinity
            | Some d ->
                List.fold_left
                  (fun acc s ->
                    match s.ps_job with
                    | Some (_, _, t0) -> Float.min acc (t0 +. d -. now)
                    | None -> acc)
                  infinity busy
          in
          let next_retry =
            match !retryq with (t, _, _) :: _ -> t -. now | [] -> infinity
          in
          Float.max 0.001
            (Float.min p.sv_poll (Float.min next_deadline next_retry))
        in
        let fds = List.map (fun s -> Procpool.result_fd s.ps_worker) busy in
        match Unix.select fds [] [] timeout with
        | readable, _, _ ->
            if readable <> [] then begin
              let now = Unix.gettimeofday () in
              List.iter
                (fun s ->
                  if
                    s.ps_job <> None
                    && List.memq (Procpool.result_fd s.ps_worker) readable
                  then handle_readable s now)
                !slots
            end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end
    done;
    (* Drained: stop the crew.  Idle workers get the polite shutdown
       frame; a worker still marked busy here lost a commit race and is
       killed.  Either way every child is reaped before [run] returns —
       zero zombies. *)
    List.iter
      (fun s ->
        ignore
          (if s.ps_job = None then Procpool.shutdown s.ps_worker
           else Procpool.kill s.ps_worker))
      !slots
  with e ->
    (* Interrupt (or a scheduler bug): SIGKILL and reap the whole crew
       before propagating — no children leak, even on the error path. *)
    kill_all ();
    raise e

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(policy = default_policy) ?backend ?jobs ?on_progress ?on_result
    ?skip ?should_stop n f =
  if n < 0 then invalid_arg "Supervise.run: negative job count";
  let jobs =
    match (jobs, backend) with
    | Some j, _ -> j
    | None, Some _ -> default_jobs ()
    | None, None -> 1
  in
  if jobs < 1 then invalid_arg "Supervise.run: jobs must be at least 1";
  if Option.is_none backend && jobs > 1 then
    invalid_arg "Supervise.run: jobs > 1 needs a process backend";
  if Option.is_none backend && policy.sv_deadline <> None then
    invalid_arg "Supervise.run: a deadline needs a process backend";
  let l = open_ledger ?on_result ?on_progress ?skip n in
  let stop () = match should_stop with None -> false | Some f -> f () in
  if not (drained l) then begin
    match backend with
    | None -> run_inline policy l ~stop n f
    | Some (Processes spec) ->
        (* Even with one worker the job runs in a forked child: -j 1
           keeps crash containment and resource limits, and stays
           byte-identical to -j N by the determinism contract. *)
        run_procs ~spec policy l ~workers:(min jobs n) ~stop n f
  end;
  close l

let progress_line ?(min_interval = 0.25) ~label () =
  let tty = try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false in
  if not tty then fun ~done_:_ ~total:_ -> ()
  else begin
    let last = ref neg_infinity in
    fun ~done_ ~total ->
      let now = Unix.gettimeofday () in
      if done_ >= total || now -. !last >= min_interval then begin
        last := now;
        Printf.eprintf "\r%s: %d/%d jobs done%s%!" label done_ total
          (if done_ >= total then "\n" else "")
      end
  end
