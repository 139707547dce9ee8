(* serve_mixed: one client against a fresh `bussyn_cli serve --stdio
   --jobs 2` daemon with its journal on.

   A closed loop keeps [outstanding] requests in flight: four callers
   that each wait for their reply before sending the next.  The request
   stream comes from Plan.serve_stream; every reply line is checked
   against the pinned digest of its request (the [id] blanked out,
   since replies are otherwise pure functions of the request).  Set-up
   is daemon spawn through the first [health] reply, taken several
   times.  Peak memory is the largest sampled Pss sum of the daemon and
   its live workers (see Host.pss_mb_tree).  The loop runs in segments
   of about [segment_s]; between them, with nothing in flight, the
   client runs the calibration kernel (Calib).

   Layer coverage here is client-side only: the daemon runs in other
   processes, so under the [serve] root nearly all time is the client
   sending and waiting.  The per-kind p50s and the [health] (pump only)
   and [sleep ms:0] (journal + fork + frame) probes stand in for a
   breakdown of the daemon's own time. *)

module Json = Busgen_json.Json

let outstanding = 4
let mem_every = 0.02
let segment_s = 2.5

let cli = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "bussyn_cli.exe"))

type daemon = {
  pid : int;
  w_in : Unix.file_descr;
  r_out : Unix.file_descr;
  pending : Buffer.t;
  chunk : Bytes.t;
  lines : string Queue.t;
}

let spawn ~debug =
  let journal = Host.fresh_dir "serve-journal" in
  let r_in, w_in = Unix.pipe ~cloexec:true () in
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile
      (Filename.concat journal "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv =
    [ cli; "serve"; "--stdio"; "--jobs"; "2"; "--journal"; journal ]
    @ if debug then [ "--debug-kinds" ] else []
  in
  let pid = Unix.create_process cli (Array.of_list argv) r_in w_out log in
  Unix.close r_in;
  Unix.close w_out;
  Unix.close log;
  ( { pid; w_in; r_out; pending = Buffer.create 4096; chunk = Bytes.create 65536;
      lines = Queue.create () },
    journal )

let send d line =
  let b = Bytes.unsafe_of_string line in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write d.w_in b !off (n - !off)
  done

let rec read_line d =
  match Queue.take_opt d.lines with
  | Some l -> l
  | None ->
      let n = Unix.read d.r_out d.chunk 0 (Bytes.length d.chunk) in
      if n = 0 then failwith "serve daemon closed its stdout";
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get d.chunk i = '\n' then begin
          Buffer.add_subbytes d.pending d.chunk !start (i - !start);
          Queue.add (Buffer.contents d.pending) d.lines;
          Buffer.clear d.pending;
          start := i + 1
        end
      done;
      Buffer.add_subbytes d.pending d.chunk !start (n - !start);
      read_line d

(* Whether a reply line is ready or arrives within [timeout] seconds. *)
let readable d timeout =
  (not (Queue.is_empty d.lines))
  ||
  match Unix.select [ d.r_out ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* EOF on stdin drains the daemon; then reap it. *)
let shutdown d =
  Unix.close d.w_in;
  (try
     while Unix.read d.r_out d.chunk 0 (Bytes.length d.chunk) > 0 do
       ()
     done
   with Unix.Unix_error _ -> ());
  Unix.close d.r_out;
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "serve daemon did not exit cleanly"

let live : daemon option ref = ref None

(* A daemon left running by an exception is killed and reaped on exit. *)
let () =
  at_exit (fun () ->
      match !live with
      | Some d ->
          live := None;
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
      | None -> ())

let round_trip d ~id ~kind ~params =
  let t0 = Host.now () in
  send d (Printf.sprintf "{\"id\":\"%s\",\"kind\":\"%s\",\"params\":%s}\n" id kind params);
  let line = read_line d in
  (line, (Host.now () -. t0) *. 1000.)

(* Spawn through the first health reply. *)
let start ~debug =
  let t0 = Host.now () in
  let d, journal = spawn ~debug in
  live := Some d;
  let line, _ = round_trip d ~id:"setup" ~kind:"health" ~params:"{}" in
  if not (String.starts_with ~prefix:"{\"id\":\"setup\",\"ok\":true" line) then
    failwith ("serve health reply: " ^ line);
  (d, journal, Host.now () -. t0)

let stop d journal =
  shutdown d;
  live := None;
  Host.rm_rf journal

(* Median over [Stats.setup_probes] spawns, at the reference host speed
   (Calib). *)
let setup_s () =
  let cal = Calib.create () in
  let times =
    List.init Stats.setup_probes (fun _ ->
        Calib.burst cal Calib.burst_n;
        let d, journal, dt = start ~debug:false in
        stop d journal;
        dt)
  in
  Stats.median times *. Calib.factor cal

(* The reply's id, and the line with that id blanked for the oracle. *)
let split_id line =
  let prefix = "{\"id\":\"" in
  let p = String.length prefix in
  if not (String.starts_with ~prefix line) then None
  else
    match String.index_from_opt line p '"' with
    | None -> None
    | Some q ->
        Some
          ( String.sub line p (q - p),
            prefix ^ String.sub line q (String.length line - q) )

let field path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let int_at path j = Option.value (Option.bind (field path j) Json.get_int) ~default:0

let simulated_cycles line =
  match Json.parse line with
  | Ok j -> int_at [ "result"; "cycles" ] j
  | Error _ -> 0

type loop_result = {
  lr_sent : int;
  lr_failed : int;
  lr_wall : float;
  lr_lat : (Plan.request * float) list;
  lr_sim_cycles : int;
  lr_mem_mb : float;
}

(* The closed loop: [outstanding] requests in flight until [seconds]
   have passed, then drain.  Memory is sampled every [mem_every], also
   while the loop waits for a reply: workers live for one batch, so a
   sparse sample misses most of their peaks. *)
let closed_loop ~tr ~oracle ~stream ~first ~seconds d =
  let inflight = Hashtbl.create 16 in
  let next = ref first and failed = ref 0 and lat = ref [] and cycles = ref 0 in
  let mem = ref (Host.pss_mb_tree d.pid) and last_mem = ref (Host.now ()) in
  let sample_mem () =
    let t = Host.now () in
    if t -. !last_mem >= mem_every then begin
      Trace.span tr "other" (fun () -> mem := Float.max !mem (Host.pss_mb_tree d.pid));
      last_mem := t
    end
  in
  let send_next () =
    let rq = stream !next in
    let id = Printf.sprintf "r%d" !next in
    incr next;
    Hashtbl.replace inflight id (rq, Host.now ());
    Trace.span tr "serve.send" (fun () -> send d (Plan.request_line ~id rq))
  in
  let t0 = Host.now () in
  for _ = 1 to outstanding do
    send_next ()
  done;
  while Hashtbl.length inflight > 0 do
    let line =
      Trace.span tr "serve.wait" (fun () ->
          while not (readable d mem_every) do
            sample_mem ()
          done;
          read_line d)
    in
    let t = Host.now () in
    Trace.span tr "other" (fun () ->
        match split_id line with
        | Some (id, blanked) when Hashtbl.mem inflight id ->
            let rq, sent = Hashtbl.find inflight id in
            Hashtbl.remove inflight id;
            lat := (rq, (t -. sent) *. 1000.) :: !lat;
            if not (Oracle.check oracle (Plan.request_key rq) (Oracle.digest blanked))
            then incr failed;
            if rq.Plan.rq_kind = "simulate" then cycles := !cycles + simulated_cycles line;
            sample_mem ()
        | _ ->
            incr failed;
            Printf.eprintf "serve_mixed: unexpected reply %s\n%!"
              (String.sub line 0 (min 200 (String.length line))));
    if t -. t0 < seconds then send_next ()
  done;
  let wall = Host.now () -. t0 in
  {
    lr_sent = !next - first;
    lr_failed = !failed;
    lr_wall = wall;
    lr_lat = !lat;
    lr_sim_cycles = !cycles;
    lr_mem_mb = Float.max !mem (Host.pss_mb_tree d.pid);
  }

let stats d =
  let line, _ = round_trip d ~id:"stats" ~kind:"stats" ~params:"{}" in
  match Json.parse line with
  | Ok j -> j
  | Error e -> failwith ("stats reply: " ^ e)

let serial_p50 d ~kind ~params n =
  Stats.median
    (List.init n (fun i ->
         let id = Printf.sprintf "%s%d" kind i in
         let line, ms = round_trip d ~id ~kind ~params in
         if not (String.starts_with ~prefix:(Printf.sprintf "{\"id\":\"%s\",\"ok\":true" id) line)
         then failwith ("serve probe: " ^ line);
         ms))

let hit_ratio j cache =
  let hits = int_at [ "result"; "cache"; cache; "hits" ] j in
  let misses = int_at [ "result"; "cache"; cache; "misses" ] j in
  Report.ratio hits (hits + misses)

let kind_p50 lat kind =
  match List.filter_map (fun (rq, ms) -> if rq.Plan.rq_kind = kind then Some ms else None) lat with
  | [] -> 0.
  | xs -> Stats.median xs

let run ~seed ~seconds ~tr oracle =
  let setup = setup_s () in
  let traced = Trace.enabled tr in
  let d, journal, _ = start ~debug:traced in
  let stream = Plan.serve_stream ~seed in
  let problems = ref [] in
  (* Traced runs alternate untraced and traced phases after an untraced
     warm-up (workers and caches start cold): the per-layer latencies
     come from the traced phases, the tracing cost from comparing them
     with the untraced ones. *)
  let plan = if traced then [ `Warm; `On; `Off; `On; `Off ] else [ `Off ] in
  let phase_s = seconds /. float_of_int (List.length plan) in
  let off = Trace.create ~enabled:false in
  let sent = ref 0 in
  let cal = Calib.create () in
  (* Each phase runs in segments of about [segment_s]; before each one,
     with nothing in flight, the client runs the calibration kernel. *)
  let phases =
    List.concat_map
      (fun ph ->
        let n = max 1 (int_of_float (Float.round (phase_s /. segment_s))) in
        List.init n (fun _ ->
            Calib.burst cal Calib.burst_n;
            let loop tr =
              closed_loop ~tr ~oracle ~stream ~first:!sent
                ~seconds:(phase_s /. float_of_int n) d
            in
            let r = if ph = `On then Trace.span tr "serve" (fun () -> loop tr) else loop off in
            sent := !sent + r.lr_sent;
            (ph, r)))
      plan
  in
  let merge ph =
    List.fold_left
      (fun acc (p, r) ->
        if p <> ph then acc
        else
          { lr_sent = acc.lr_sent + r.lr_sent; lr_failed = acc.lr_failed + r.lr_failed;
            lr_wall = acc.lr_wall +. r.lr_wall; lr_lat = r.lr_lat @ acc.lr_lat;
            lr_sim_cycles = acc.lr_sim_cycles + r.lr_sim_cycles;
            lr_mem_mb = Float.max acc.lr_mem_mb r.lr_mem_mb })
      { lr_sent = 0; lr_failed = 0; lr_wall = 0.; lr_lat = []; lr_sim_cycles = 0;
        lr_mem_mb = 0. }
      phases
  in
  let lr = merge (if traced then `On else `Off) in
  let layers_probes =
    if traced then
      Some
        ( serial_p50 d ~kind:"health" ~params:"{}" 40,
          serial_p50 d ~kind:"sleep" ~params:"{\"ms\":0}" 40 )
    else None
  in
  let st = stats d in
  let mem = Float.max lr.lr_mem_mb (Host.pss_mb_tree d.pid) in
  stop d journal;
  let counter k = int_at [ "result"; "counters"; k ] st in
  let daemon_failed = counter "failed" in
  let rejected =
    List.fold_left
      (fun acc k -> acc + counter k)
      0
      [ "shed_expired"; "rejected_overloaded"; "rejected_bad_request";
        "rejected_duplicate"; "rejected_shutting_down"; "rejected_oversized" ]
  in
  if daemon_failed + rejected > 0 then
    problems :=
      Printf.sprintf "daemon counted %d failed and %d rejected jobs" daemon_failed rejected
      :: !problems;
  List.iter
    (fun (k, want, got) ->
      problems := Printf.sprintf "oracle %s: want %s got %s" k want got :: !problems)
    (Oracle.mismatches oracle);
  let failed = List.fold_left (fun acc (_, r) -> acc + r.lr_failed) 0 phases in
  let mem = List.fold_left (fun acc (_, r) -> Float.max acc r.lr_mem_mb) mem phases in
  (* Times at the reference host speed (Calib). *)
  let f = Calib.factor cal in
  let ms = List.map snd lr.lr_lat in
  let rps = float_of_int lr.lr_sent /. (lr.lr_wall *. f) in
  let p50 = Stats.median ms *. f in
  let p90 = Report.tail problems "serve_ms_p90" 0.9 ms *. f in
  let cps = float_of_int lr.lr_sim_cycles /. (lr.lr_wall *. f) in
  let layers =
    match layers_probes with
    | Some (health, noop) ->
        let wall, rows = Trace.coverage tr ~root:"serve" in
        let accepted = counter "accepted" in
        let u = merge `Off in
        let rps_off = float_of_int u.lr_sent /. (u.lr_wall *. f) in
        Report.
          [
            m "serve.health_ms_p50" "ms" health;
            m "serve.noop_ms_p50" "ms" noop;
            m "serve.generate_ms_p50" "ms" (kind_p50 lr.lr_lat "generate");
            m "serve.simulate_ms_p50" "ms" (kind_p50 lr.lr_lat "simulate");
            m "serve.verify_ms_p50" "ms" (kind_p50 lr.lr_lat "verify");
            m "serve.inject_ms_p50" "ms" (kind_p50 lr.lr_lat "inject");
            m "serve.explore_ms_p50" "ms" (kind_p50 lr.lr_lat "explore");
            m "serve.circuit_hit_ratio" "ratio" (hit_ratio st "circuits");
            m "serve.tape_hit_ratio" "ratio" (hit_ratio st "tapes");
            m "serve.catalog_hit_ratio" "ratio" (hit_ratio st "catalog");
            m "serve.journal_bytes_per_req" "B"
              (if accepted = 0 then 0.
               else float_of_int (int_at [ "result"; "journal"; "bytes" ] st)
                    /. float_of_int accepted);
            m "serve.failed" "count" (float_of_int daemon_failed);
            m "serve.rejected" "count" (float_of_int rejected);
            m "trace.unattributed_pct" "%" (List.assoc "unattributed" rows /. wall *. 100.);
            m "bench.trace_overhead_pct" "%" ((rps_off -. rps) /. rps *. 100.);
          ]
        @ List.map (fun (l, s) -> Report.m ("coverage." ^ l ^ "_s") "s" s) rows
    | _ -> []
  in
  ( setup,
    {
      Report.attempted = !sent;
      failed;
      problems = List.rev !problems;
      e2e =
        Report.
          [
            m "peak_rss_mb" "MB" mem;
            m "ops_per_s" "1/s" rps;
            m "op_ms_p50" "ms" p50;
            m "op_ms_p90" "ms" p90;
            m "sim_cycles_per_s" "1/s" cps;
          ];
      named =
        Report.
          [
            m "serve_req_per_s" "1/s" rps;
            m "serve_ms_p50" "ms" p50;
            m "serve_ms_p90" "ms" p90;
            m "serve_samples" "count" (float_of_int (List.length ms));
            m "simulated_cycles_per_s" "1/s" cps;
            m "peak_rss_mb" "MB" mem;
            m "calib_kernel_ms" "ms" (Calib.kernel_s cal *. 1000.);
          ];
      layers;
      counts = [];
    } )

(* Pin every request the stream can draw, one at a time through a
   daemon. *)
let pin () =
  let d, journal, _ = start ~debug:false in
  let rows =
    List.mapi
      (fun i rq ->
        let line, _ =
          round_trip d ~id:(Printf.sprintf "p%d" i) ~kind:rq.Plan.rq_kind
            ~params:rq.Plan.rq_params
        in
        match split_id line with
        | Some (_, blanked) when String.length blanked > 0 ->
            if not (String.starts_with ~prefix:"{\"id\":\"\",\"ok\":true" blanked) then
              failwith ("pin: request failed: " ^ line);
            (Plan.request_key rq, Oracle.digest blanked)
        | _ -> failwith ("pin: bad reply " ^ line))
      (Plan.all_requests ())
  in
  stop d journal;
  Oracle.save "serve_mixed" rows
