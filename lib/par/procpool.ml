module Io = Busgen_binio.Io

external set_rlimit_raw : int -> int -> bool = "busgen_par_setrlimit"

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type limits = {
  li_cpu_seconds : int option;
  li_mem_bytes : int option;
}

type config = {
  pc_limits : limits;
  pc_recycle_after : int option;
}

let config ?cpu_seconds ?mem_bytes ?recycle_after () =
  let pos what = function
    | Some v when v <= 0 ->
        invalid_arg (Printf.sprintf "Procpool.config: %s must be positive" what)
    | v -> v
  in
  {
    pc_limits =
      {
        li_cpu_seconds = pos "cpu_seconds" cpu_seconds;
        li_mem_bytes = pos "mem_bytes" mem_bytes;
      };
    pc_recycle_after = pos "recycle_after" recycle_after;
  }

let default_config = config ~recycle_after:256 ()

type 'a spec = {
  sp_config : config;
  sp_encode : 'a -> string;
  sp_decode : string -> 'a;
}

(* ------------------------------------------------------------------ *)
(* Signal names                                                        *)
(* ------------------------------------------------------------------ *)

let signal_name n =
  (* OCaml signal numbers are its own negative encoding, not the OS
     numbers; compare against [Sys.sig*] rather than raw integers. *)
  if n = Sys.sigabrt then "SIGABRT"
  else if n = Sys.sigalrm then "SIGALRM"
  else if n = Sys.sigbus then "SIGBUS"
  else if n = Sys.sigfpe then "SIGFPE"
  else if n = Sys.sighup then "SIGHUP"
  else if n = Sys.sigill then "SIGILL"
  else if n = Sys.sigint then "SIGINT"
  else if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigpipe then "SIGPIPE"
  else if n = Sys.sigquit then "SIGQUIT"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigusr1 then "SIGUSR1"
  else if n = Sys.sigusr2 then "SIGUSR2"
  else if n = Sys.sigxcpu then "SIGXCPU"
  else if n = Sys.sigxfsz then "SIGXFSZ"
  else Printf.sprintf "signal %d" n

(* ------------------------------------------------------------------ *)
(* Framed pipe protocol                                                *)
(* ------------------------------------------------------------------ *)

exception Closed
exception Protocol of string

(* Frames are [Io.frame]s (length, payload, CRC-32) whose payloads are
   [Busgen_binio.Io] encodings.  A child that dies mid-frame closes its
   pipe end, so the parent sees EOF ([Closed]) after at most the bytes
   already buffered; a frame whose CRC or length does not check out
   means the worker is unusable ([Protocol]). *)

let max_frame = 1 lsl 26
(* 64 MB.  No legitimate sweep result approaches this; a larger length
   prefix is a corrupted stream, not a big result. *)

let rec write_all fd s pos len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (pos + n) (len - n)
  end

(* How long the parent will wait for the remainder of a frame whose
   first byte has arrived.  Our own children write frames in one
   [write_all]; only a child stopped (SIGSTOP) mid-write can stall the
   stream, and without this bound that would wedge the supervisor with
   deadlines unenforceable.  Children read with no patience: an idle
   worker legitimately blocks forever waiting for its next job. *)
let frame_patience = 60.0

let read_exact ?patience fd n =
  let b = Bytes.create n in
  let rec chunk pos =
    if pos < n then begin
      (match patience with
      | None -> ()
      | Some p -> (
          match Unix.select [ fd ] [] [] p with
          | [], _, _ -> raise (Protocol "peer stalled mid-frame")
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
      let k =
        try Unix.read fd b pos (n - pos)
        with Unix.Unix_error (Unix.EINTR, _, _) -> -1
      in
      if k = 0 then raise Closed;
      chunk (if k < 0 then pos else pos + k)
    end
  in
  chunk 0;
  Bytes.unsafe_to_string b

let write_frame fd payload =
  let s = Io.frame payload in
  try write_all fd s 0 (String.length s)
  with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> raise Closed

let read_frame ?patience fd =
  let len = Io.r_int (Io.reader (read_exact ?patience fd 8)) in
  if len < 0 || len > max_frame then
    raise (Protocol (Printf.sprintf "bad frame length %d" len));
  let payload = read_exact ?patience fd len in
  let crc = Io.r_int (Io.reader (read_exact ?patience fd 8)) in
  if crc <> Io.crc32 payload then raise (Protocol "frame CRC mismatch");
  payload

(* Parent -> child payloads: tag 0 = job (index), tag 1 = shutdown.
   Child -> parent payloads: tag 0 = ok (index, result bytes),
   tag 1 = error (index, exception text). *)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

type worker = {
  w_pid : int;
  w_job_w : Unix.file_descr;
  w_res_r : Unix.file_descr;
  mutable w_jobs_done : int;
  mutable w_reaped : bool;
}

type death = Exited of int | Signaled of string

(* Fork/reap accounting, exposed so tests can prove the no-zombie
   property: after any pool run, forked_total = reaped_total and
   waitpid(-1) raises ECHILD. *)
let forked_count = Atomic.make 0
let reaped_count = Atomic.make 0
let forked_total () = Atomic.get forked_count
let reaped_total () = Atomic.get reaped_count

let pid w = w.w_pid
let result_fd w = w.w_res_r
let jobs_done w = w.w_jobs_done

let apply_limits l =
  (match l.li_cpu_seconds with
  | None -> ()
  | Some s -> ignore (set_rlimit_raw 0 s));
  match l.li_mem_bytes with
  | None -> ()
  | Some b -> ignore (set_rlimit_raw 1 b)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let child_loop ~job_r ~res_w ~run =
  let reply payload = write_frame res_w payload in
  let rec loop () =
    let r = Io.reader (read_frame job_r) in
    match Io.r_int r with
    | 0 ->
        let i = Io.r_int r in
        let w = Io.writer () in
        (match run i with
        | payload ->
            Io.w_int w 0;
            Io.w_int w i;
            Io.w_string w payload
        | exception e ->
            Io.w_int w 1;
            Io.w_int w i;
            Io.w_string w (Printexc.to_string e));
        reply (Io.contents w);
        loop ()
    | _ -> () (* shutdown *)
  in
  (try loop () with Closed | Protocol _ | Io.Corrupt _ -> () | _ -> ());
  (* [_exit], not [exit]: the child must not run the parent's [at_exit]
     hooks or flush a copy of the parent's buffered channels. *)
  Unix._exit 0

let spawn ~limits ~run others =
  let job_r, job_w = Unix.pipe ~cloexec:false () in
  let res_r, res_w = Unix.pipe ~cloexec:false () in
  (* Flush so the child cannot re-emit text buffered before the fork. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      close_quiet job_w;
      close_quiet res_r;
      (* Close the pipe ends of every sibling worker: a child holding a
         sibling's write end would keep that sibling's stream open past
         its death and break the parent's EOF-based crash detection. *)
      List.iter
        (fun o ->
          close_quiet o.w_job_w;
          close_quiet o.w_res_r)
        others;
      Intr.restore_defaults ();
      apply_limits limits;
      child_loop ~job_r ~res_w ~run
  | pid ->
      close_quiet job_r;
      close_quiet res_w;
      Atomic.incr forked_count;
      { w_pid = pid; w_job_w = job_w; w_res_r = res_r; w_jobs_done = 0; w_reaped = false }

let send_job w i =
  let wr = Io.writer () in
  Io.w_int wr 0;
  Io.w_int wr i;
  write_frame w.w_job_w (Io.contents wr)

type reply = Ok_reply of int * string | Err_reply of int * string

let read_reply w =
  let r = Io.reader (read_frame ~patience:frame_patience w.w_res_r) in
  match
    let tag = Io.r_int r in
    let i = Io.r_int r in
    let s = Io.r_string r in
    (tag, i, s)
  with
  | 0, i, s ->
      w.w_jobs_done <- w.w_jobs_done + 1;
      Ok_reply (i, s)
  | 1, i, s ->
      w.w_jobs_done <- w.w_jobs_done + 1;
      Err_reply (i, s)
  | tag, _, _ -> raise (Protocol (Printf.sprintf "bad reply tag %d" tag))
  | exception Io.Corrupt msg -> raise (Protocol ("bad reply: " ^ msg))

let rec waitpid_retry pid =
  try Unix.waitpid [] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let reap w =
  close_quiet w.w_job_w;
  close_quiet w.w_res_r;
  if w.w_reaped then Exited 0
  else begin
    let _, status = waitpid_retry w.w_pid in
    w.w_reaped <- true;
    Atomic.incr reaped_count;
    match status with
    | Unix.WEXITED c -> Exited c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled (signal_name s)
  end

let kill w =
  (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap w

let shutdown w =
  (* Polite stop for an *idle* worker: it is blocked reading the job
     pipe, so the tiny shutdown frame cannot block the parent and the
     child exits as soon as it reads it.  Never call this on a worker
     that is running a job — that is what [kill] is for. *)
  (try
     let wr = Io.writer () in
     Io.w_int wr 1;
     write_frame w.w_job_w (Io.contents wr)
   with Closed | Protocol _ | Unix.Unix_error _ -> ());
  reap w
