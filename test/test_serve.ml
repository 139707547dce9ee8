(* The daemon's robustness contract, tested at three levels:

   - unit: the bounded LRU, the canonical JSON codec, the protocol
     parser, and the write-ahead journal (roundtrip, torn tail,
     corrupt-record skip, compaction);
   - protocol: a spawned `serve --stdio` subprocess driven over pipes —
     malformed/oversized/duplicate/unknown requests must each earn one
     error reply and leave the connection serving;
   - chaos: SIGKILL the server mid-queue, restart it on the same
     journal, and require the recovered replies to be byte-identical
     to an uninterrupted run's, with zero lost or duplicated jobs. *)

module Lru = Busgen_cache.Lru
module Json = Busgen_json.Json
module Proto = Busgen_serve.Proto
module Journal = Busgen_serve.Journal

let exe =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "bin" "bussyn_cli.exe");
      Filename.concat "_build"
        (Filename.concat "default" (Filename.concat "bin" "bussyn_cli.exe"));
      Filename.concat "bin" "bussyn_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith "bussyn_cli.exe not found next to the test"

let tmp_root =
  let d = Filename.concat (Filename.get_temp_dir_name ()) "bussyn_serve_test" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat tmp_root (Printf.sprintf "%s-%d-%d" name (Unix.getpid ()) !n)
    in
    let rec rm p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
    in
    rm d;
    d

let contains ~needle hay =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_basic () =
  let c = Lru.create ~cap:2 () in
  let builds = ref 0 in
  let build v () = incr builds; v in
  Alcotest.(check int) "miss builds" 1 (Lru.find_or_add c "a" (build 1));
  Alcotest.(check int) "hit reuses" 1 (Lru.find_or_add c "a" (build 99));
  Alcotest.(check int) "built once" 1 !builds;
  ignore (Lru.find_or_add c "b" (build 2));
  ignore (Lru.find_or_add c "c" (build 3));
  let s = Lru.stats c in
  Alcotest.(check int) "bounded" 2 s.Lru.st_size;
  Alcotest.(check int) "one eviction" 1 s.Lru.st_evictions;
  Alcotest.(check bool) "lru key gone" false (Lru.mem c "a");
  Alcotest.(check bool) "recent kept" true (Lru.mem c "c")

let test_lru_recency () =
  let c = Lru.create ~cap:2 () in
  ignore (Lru.find_or_add c "a" (fun () -> 1));
  ignore (Lru.find_or_add c "b" (fun () -> 2));
  (* Touch "a" so "b" becomes the eviction victim. *)
  Alcotest.(check (option int)) "find_opt hit" (Some 1) (Lru.find_opt c "a");
  ignore (Lru.find_or_add c "c" (fun () -> 3));
  Alcotest.(check bool) "touched key survives" true (Lru.mem c "a");
  Alcotest.(check bool) "stale key evicted" false (Lru.mem c "b")

let test_lru_resize_and_clear () =
  let c = Lru.create ~cap:8 () in
  for i = 1 to 8 do
    ignore (Lru.find_or_add c (string_of_int i) (fun () -> i))
  done;
  Lru.resize c ~cap:3;
  Alcotest.(check int) "resize evicts to cap" 3 (Lru.size c);
  Alcotest.(check bool) "most recent survives" true (Lru.mem c "8");
  Lru.clear c;
  Alcotest.(check int) "clear empties" 0 (Lru.size c);
  Alcotest.check_raises "cap must be positive"
    (Invalid_argument "Lru.create: cap must be >= 1") (fun () ->
      ignore (Lru.create ~cap:0 ()))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("f", Json.Float 1.5);
        ("w", Json.Float 2.0);
        ("s", Json.String "a\"b\\c");
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
      ]
  in
  let s = Json.to_string doc in
  Alcotest.(check string)
    "canonical print"
    {|{"i":42,"f":1.5,"w":2.0,"s":"a\"b\\c","l":[null,true,false]}|} s;
  match Json.parse s with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok doc' ->
      Alcotest.(check string) "roundtrip" s (Json.to_string doc')

let test_json_hardening () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "1 2";
  bad "{\"a\":}";
  bad "\"lone \\ud800 surrogate\"";
  bad "\"raw \001 control\"";
  bad (String.make 64 '[');
  (match Json.parse "\"\\u0041\\u00e9\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape parse");
  Alcotest.(check string) "nan prints null" "null"
    (Json.to_string (Json.Float Float.nan))

(* Canonical float printing: every finite float must reparse to the
   exact same bits (shortest %.15g/%.16g/%.17g form), and non-finite
   values print as null. *)
let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"float print/parse roundtrip" ~count:2000
    QCheck.float (fun f ->
      let s = Json.to_string (Json.Float f) in
      if Float.is_nan f || Float.abs f = Float.infinity then s = "null"
      else
        match Json.parse s with
        | Ok (Json.Float f') ->
            Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
        | Ok _ | Error _ -> false)

let test_json_float_edges () =
  let rt f =
    match Json.parse (Json.to_string (Json.Float f)) with
    | Ok (Json.Float f') ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip %h" f)
          true
          (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))
    | _ -> Alcotest.failf "reparse of %h failed" f
  in
  List.iter rt
    [ 0.0; -0.0; 1.5; 0.1; 1.0 /. 3.0; 1e15; 1e15 -. 1.0; 1e22;
      4.9e-324 (* min subnormal *); 1.7976931348623157e308 (* max finite *);
      2.2250738585072014e-308; -123456789.25 ];
  (* Integral floats keep a decimal point so they reparse as Float,
     never collapsing into Int. *)
  Alcotest.(check string) "whole float keeps .0" "2.0"
    (Json.to_string (Json.Float 2.0));
  Alcotest.(check string) "negative zero keeps sign" "-0.0"
    (Json.to_string (Json.Float (-0.0)));
  Alcotest.(check string) "infinity prints null" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "-infinity prints null" "null"
    (Json.to_string (Json.Float Float.neg_infinity))

(* ------------------------------------------------------------------ *)
(* Protocol parser                                                     *)
(* ------------------------------------------------------------------ *)

let test_proto_parse () =
  (match Proto.parse_request {|{"id":"a1","kind":"generate"}|} with
  | Ok rq ->
      Alcotest.(check string) "id" "a1" rq.Proto.rq_id;
      Alcotest.(check string) "kind" "generate" rq.Proto.rq_kind;
      Alcotest.(check bool) "no deadline" true (rq.Proto.rq_deadline_ms = None)
  | Error e -> Alcotest.failf "minimal request rejected: %s" e);
  (match
     Proto.parse_request
       {|{"id":"a2","kind":"x","params":{"n":3},"deadline_ms":250,"future":1}|}
   with
  | Ok rq ->
      Alcotest.(check (option int)) "deadline" (Some 250) rq.Proto.rq_deadline_ms
  | Error e -> Alcotest.failf "full request rejected: %s" e);
  let bad line =
    match Proto.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error _ -> ()
  in
  bad {|{"kind":"generate"}|};
  bad {|{"id":"","kind":"g"}|};
  bad {|{"id":"has space","kind":"g"}|};
  bad (Printf.sprintf {|{"id":%S,"kind":"g"}|} (String.make 129 'x'));
  bad {|{"id":"a","kind":""}|};
  bad {|{"id":"a","kind":"g","deadline_ms":-1}|};
  bad {|{"id":"a","kind":"g","params":[1]}|};
  bad {|["not","an","object"]|}

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  let dir = fresh_dir "journal-rt" in
  let j, rc = Journal.open_ ~dir () in
  Alcotest.(check int) "fresh journal empty" 0 rc.Journal.rc_records;
  Journal.accept j ~id:"a" ~line:"req-a";
  Journal.accept j ~id:"b" ~line:"req-b";
  Journal.done_ j ~id:"a" ~reply:"reply-a";
  Journal.quarantine j ~id:"q" ~reason:"poison";
  Journal.sync j;
  Journal.close j;
  let j2, rc2 = Journal.open_ ~dir () in
  Journal.close j2;
  Alcotest.(check int) "records" 4 rc2.Journal.rc_records;
  Alcotest.(check (list (pair string string)))
    "pending = accepted minus resolved"
    [ ("b", "req-b") ]
    rc2.Journal.rc_pending;
  Alcotest.(check (list (pair string string)))
    "replies kept" [ ("a", "reply-a") ] rc2.Journal.rc_replies;
  Alcotest.(check int) "quarantined" 1 rc2.Journal.rc_quarantined;
  Alcotest.(check bool) "seen includes quarantined" true
    (Hashtbl.mem rc2.Journal.rc_seen "q")

let test_journal_torn_tail () =
  let dir = fresh_dir "journal-torn" in
  let j, _ = Journal.open_ ~dir () in
  Journal.accept j ~id:"a" ~line:"req-a";
  Journal.close j;
  (* Simulate a SIGKILL mid-append: a partial frame at the tail. *)
  let path = Filename.concat dir "journal.bsjl" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\012\000\000\000\000\000\000\000torn";
  close_out oc;
  let j2, rc = Journal.open_ ~dir () in
  Alcotest.(check bool) "torn bytes counted" true (rc.Journal.rc_torn_bytes > 0);
  Alcotest.(check int) "record before tear survives" 1 rc.Journal.rc_records;
  (* The tear was truncated: appends go to a clean tail. *)
  Journal.done_ j2 ~id:"a" ~reply:"reply-a";
  Journal.close j2;
  let j3, rc3 = Journal.open_ ~dir () in
  Journal.close j3;
  Alcotest.(check int) "append after recovery readable" 2
    rc3.Journal.rc_records;
  Alcotest.(check int) "nothing pending" 0 (List.length rc3.Journal.rc_pending)

let test_journal_corrupt_record () =
  let dir = fresh_dir "journal-corrupt" in
  let j, _ = Journal.open_ ~dir () in
  Journal.accept j ~id:"a" ~line:"req-a";
  Journal.accept j ~id:"b" ~line:"req-b";
  Journal.close j;
  (* Flip one payload byte inside the first record: its CRC fails, it
     is skipped, and the second record still reads. *)
  let path = Filename.concat dir "journal.bsjl" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 20 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  let j2, rc = Journal.open_ ~dir () in
  Journal.close j2;
  Alcotest.(check int) "corrupt record skipped" 1 rc.Journal.rc_corrupt;
  Alcotest.(check (list (pair string string)))
    "later record survives"
    [ ("b", "req-b") ]
    rc.Journal.rc_pending

let test_journal_compaction () =
  let dir = fresh_dir "journal-compact" in
  let j, _ = Journal.open_ ~dir () in
  for i = 1 to 20 do
    let id = Printf.sprintf "id%02d" i in
    Journal.accept j ~id ~line:("req-" ^ id);
    Journal.done_ j ~id ~reply:("reply-" ^ id)
  done;
  Journal.accept j ~id:"open" ~line:"req-open";
  let before = Journal.size_bytes j in
  Journal.compact j ~keep_done:3;
  Alcotest.(check bool) "compaction shrinks" true (Journal.size_bytes j < before);
  (* Still appendable after the rename. *)
  Journal.done_ j ~id:"open" ~reply:"reply-open";
  Journal.close j;
  let j2, rc = Journal.open_ ~dir () in
  Journal.close j2;
  Alcotest.(check int) "no pending after compact+done" 0
    (List.length rc.Journal.rc_pending);
  (* Old ids still block duplicates even though their replies shrank. *)
  Alcotest.(check bool) "compacted id still seen" true
    (Hashtbl.mem rc.Journal.rc_seen "id01");
  let full_replies = List.filter (fun (_, r) -> r <> "") rc.Journal.rc_replies in
  Alcotest.(check int) "kept 3 old + 1 new full replies" 4
    (List.length full_replies)

(* ------------------------------------------------------------------ *)
(* Protocol tests against a live `serve --stdio` subprocess            *)
(* ------------------------------------------------------------------ *)

type srv = {
  sv_pid : int;
  sv_in : Unix.file_descr;  (* we write requests here *)
  sv_out : Unix.file_descr;  (* we read replies here *)
  sv_buf : Buffer.t;
  mutable sv_stdin_open : bool;
}

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0)

let start ?(args = []) () =
  (* Every server gets its own journal unless the test supplies one:
     the default "serve-journal" in the cwd would persist accepted ids
     across tests and turn them all into duplicate-id rejections. *)
  let args =
    if List.mem "--journal" args || List.mem "--no-journal" args then args
    else args @ [ "--journal"; fresh_dir "auto-journal" ]
  in
  (* cloexec on every end: the child must not inherit our copies (a
     leaked w_in would keep its stdin from ever seeing EOF); its own
     stdin/stdout come from create_process's dup2, which clears the
     flag on the duped fds. *)
  let r_in, w_in = Unix.pipe ~cloexec:true () in
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((exe :: [ "serve"; "--stdio" ]) @ args) in
  let pid = Unix.create_process exe argv r_in w_out (Lazy.force devnull) in
  Unix.close r_in;
  Unix.close w_out;
  {
    sv_pid = pid;
    sv_in = w_in;
    sv_out = r_out;
    sv_buf = Buffer.create 256;
    sv_stdin_open = true;
  }

let send_many sv lines =
  (* One write: lines under the pipe-buffer size arrive in one read,
     so the server processes them in a single admission pass — the
     deterministic way to test queue-level behavior (overload order,
     duplicate bounce vs original, post-drain rejection). *)
  let data =
    Bytes.of_string (String.concat "" (List.map (fun l -> l ^ "\n") lines))
  in
  let n = Bytes.length data in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write sv.sv_in data !off (n - !off)
  done

let send sv line = send_many sv [ line ]

(* Read one reply line, [None] on timeout or server EOF. *)
let recv ?(timeout = 120.) sv =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match String.index_opt (Buffer.contents sv.sv_buf) '\n' with
    | Some nl ->
        let all = Buffer.contents sv.sv_buf in
        let line = String.sub all 0 nl in
        Buffer.clear sv.sv_buf;
        Buffer.add_substring sv.sv_buf all (nl + 1)
          (String.length all - nl - 1);
        Some line
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then None
        else begin
          match Unix.select [ sv.sv_out ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              let b = Bytes.create 65536 in
              match Unix.read sv.sv_out b 0 (Bytes.length b) with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes sv.sv_buf b 0 n;
                  go ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        end
  in
  go ()

let close_stdin sv =
  if sv.sv_stdin_open then begin
    sv.sv_stdin_open <- false;
    Unix.close sv.sv_in
  end

(* Close stdin (the stdio drain signal) and wait for a clean exit. *)
let finish sv =
  close_stdin sv;
  let rec drain () = match recv ~timeout:120. sv with Some _ -> drain () | None -> () in
  drain ();
  Unix.close sv.sv_out;
  let _, status = Unix.waitpid [] sv.sv_pid in
  match status with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s -> Alcotest.failf "server killed by signal %d" s
  | Unix.WSTOPPED s -> Alcotest.failf "server stopped by signal %d" s

let recv_exn ?timeout sv =
  match recv ?timeout sv with
  | Some line -> line
  | None -> Alcotest.fail "expected a reply line, got EOF/timeout"

let parse_reply line =
  match Json.parse line with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "unparseable reply %S: %s" line e

let reply_field line name =
  Option.bind (Json.member name (parse_reply line)) Json.get_string

let check_error ~what ~id ~code line =
  Alcotest.(check (option string))
    (what ^ ": id") id
    (reply_field line "id");
  Alcotest.(check (option string))
    (what ^ ": code") (Some code)
    (reply_field line "code")

let test_health_fields () =
  let sv = start () in
  send sv {|{"id":"h","kind":"health"}|};
  let line = recv_exn sv in
  let doc = parse_reply line in
  let result = Option.get (Json.member "result" doc) in
  Alcotest.(check bool) "version present" true
    (Option.is_some (Option.bind (Json.member "version" result) Json.get_string));
  Alcotest.(check (option string))
    "backend" (Some "proc")
    (Option.bind (Json.member "backend" result) Json.get_string);
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " present") true
        (Option.is_some (Json.member f result)))
    [ "uptime_s"; "queue"; "counters"; "cache"; "journal"; "draining" ];
  Alcotest.(check int) "clean exit" 0 (finish sv)

let test_malformed_then_serves () =
  let sv = start ~args:[ "--debug-kinds" ] () in
  send sv "this is not json";
  check_error ~what:"malformed" ~id:None ~code:"bad-request" (recv_exn sv);
  send sv {|{"id":5,"kind":"health"}|};
  check_error ~what:"non-string id" ~id:None ~code:"bad-request" (recv_exn sv);
  send sv {|{"id":"u1","kind":"no-such-kind"}|};
  check_error ~what:"unknown kind" ~id:(Some "u1") ~code:"bad-request"
    (recv_exn sv);
  send sv {|{"id":"g","kind":"generate","params":{"arch":"martian"}}|};
  check_error ~what:"bad params" ~id:(Some "g") ~code:"bad-request"
    (recv_exn sv);
  (* A memory wider than the SRAM template takes is refused at
     admission, naming the field, instead of crashing a worker. *)
  send sv
    {|{"id":"m","kind":"generate","params":{"arch":"gbaviii","pes":2,"mem_addr_width":24}}|};
  let line = recv_exn sv in
  check_error ~what:"memory address width" ~id:(Some "m") ~code:"bad-request"
    line;
  Alcotest.(check (option string))
    "memory address width: error names the field"
    (Some "\"mem_addr_width\" = 24 out of range [4, 20]")
    (reply_field line "error");
  (* Fields that pass one by one but not together are refused at
     admission with the builder's message, instead of crashing a
     worker. *)
  send sv {|{"id":"w","kind":"generate","params":{"arch":"bfba","data_width":8}}|};
  let line = recv_exn sv in
  check_error ~what:"builder refusal" ~id:(Some "w") ~code:"bad-request" line;
  Alcotest.(check (option string))
    "builder refusal: the builder's message"
    (Some "Fifo_slave: data too narrow for the status word")
    (reply_field line "error");
  (* An engine the daemon does not have (here the removed [slot]) is a
     bad request whose one-line error names the engines it does have. *)
  send sv
    {|{"id":"v","kind":"verify","params":{"arch":"bfba","engine":"slot"}}|};
  let line = recv_exn sv in
  check_error ~what:"removed engine" ~id:(Some "v") ~code:"bad-request" line;
  Alcotest.(check (option string))
    "removed engine: error names tape and ref"
    (Some "unknown engine \"slot\" (expected tape or ref)")
    (reply_field line "error");
  (* After all that abuse the connection still serves real work. *)
  send sv {|{"id":"ok","kind":"sleep","params":{"ms":5}}|};
  let line = recv_exn sv in
  Alcotest.(check (option string)) "still serves" (Some "ok")
    (reply_field line "id");
  Alcotest.(check int) "clean exit" 0 (finish sv)

let test_duplicate_id () =
  let sv = start ~args:[ "--debug-kinds"; "--jobs"; "1" ] () in
  send_many sv
    [
      {|{"id":"d1","kind":"sleep","params":{"ms":50}}|};
      {|{"id":"d1","kind":"sleep","params":{"ms":50}}|};
    ];
  check_error ~what:"duplicate" ~id:(Some "d1") ~code:"duplicate-id"
    (recv_exn sv);
  let line = recv_exn sv in
  Alcotest.(check (option string)) "original still ran" (Some "d1")
    (reply_field line "id");
  Alcotest.(check bool) "original ok" true
    (Json.member "ok" (parse_reply line) = Some (Json.Bool true));
  Alcotest.(check int) "clean exit" 0 (finish sv)

let test_oversized_then_serves () =
  let sv = start ~args:[ "--debug-kinds"; "--max-frame-kb"; "1" ] () in
  send sv
    (Printf.sprintf {|{"id":"big","kind":"sleep","params":{"pad":%S}}|}
       (String.make 2000 'x'));
  check_error ~what:"oversized" ~id:None ~code:"oversized" (recv_exn sv);
  send sv {|{"id":"ok","kind":"sleep","params":{"ms":5}}|};
  Alcotest.(check (option string)) "still serves" (Some "ok")
    (reply_field (recv_exn sv) "id");
  Alcotest.(check int) "clean exit" 0 (finish sv)

let test_overload_backpressure () =
  let sv = start ~args:[ "--debug-kinds"; "--queue-depth"; "2"; "--jobs"; "1" ] () in
  send_many sv
    [
      {|{"id":"q1","kind":"sleep","params":{"ms":150}}|};
      {|{"id":"q2","kind":"sleep","params":{"ms":150}}|};
      {|{"id":"q3","kind":"sleep","params":{"ms":150}}|};
    ];
  (* q3 bounced immediately; q1/q2 complete later. *)
  check_error ~what:"overload" ~id:(Some "q3") ~code:"overloaded" (recv_exn sv);
  let a = recv_exn sv and b = recv_exn sv in
  Alcotest.(check (list (option string)))
    "admitted jobs complete"
    [ Some "q1"; Some "q2" ]
    [ reply_field a "id"; reply_field b "id" ];
  Alcotest.(check int) "clean exit" 0 (finish sv)

let test_crash_quarantined_with_signal () =
  let sv = start ~args:[ "--debug-kinds"; "--job-retries"; "1" ] () in
  send sv {|{"id":"boom","kind":"crash","params":{"signal":"ABRT"}}|};
  let line = recv_exn sv in
  check_error ~what:"crash" ~id:(Some "boom") ~code:"quarantined" line;
  Alcotest.(check bool)
    (Printf.sprintf "names the signal (got %s)" line)
    true
    (contains ~needle:"SIGABRT" line);
  (* Crash containment: the daemon survives its worker's death. *)
  send sv {|{"id":"after","kind":"sleep","params":{"ms":5}}|};
  Alcotest.(check (option string)) "still serves" (Some "after")
    (reply_field (recv_exn sv) "id");
  Alcotest.(check int) "clean exit" 0 (finish sv)

let test_spin_timed_out () =
  let sv = start ~args:[ "--debug-kinds"; "--job-deadline"; "0.4" ] () in
  send sv {|{"id":"sp","kind":"spin"}|};
  let line = recv_exn sv in
  check_error ~what:"spin" ~id:(Some "sp") ~code:"timed-out" line;
  send sv {|{"id":"after","kind":"sleep","params":{"ms":5}}|};
  Alcotest.(check (option string)) "still serves" (Some "after")
    (reply_field (recv_exn sv) "id");
  Alcotest.(check int) "clean exit" 0 (finish sv)

let test_deadline_shed () =
  let sv = start ~args:[ "--debug-kinds"; "--jobs"; "1" ] () in
  (* Occupy the single worker, then queue a job whose queue deadline
     expires while it waits behind the sleeper. *)
  send sv {|{"id":"slow","kind":"sleep","params":{"ms":400}}|};
  Unix.sleepf 0.15;
  send sv {|{"id":"late","kind":"sleep","params":{"ms":5},"deadline_ms":100}|};
  let a = recv_exn sv in
  Alcotest.(check (option string)) "sleeper finishes" (Some "slow")
    (reply_field a "id");
  check_error ~what:"shed" ~id:(Some "late") ~code:"expired" (recv_exn sv);
  Alcotest.(check int) "clean exit" 0 (finish sv)

let test_drain_request () =
  let sv = start ~args:[ "--debug-kinds" ] () in
  send_many sv
    [
      {|{"id":"d","kind":"drain"}|};
      {|{"id":"rejected","kind":"sleep","params":{"ms":5}}|};
    ];
  let line = recv_exn sv in
  Alcotest.(check (option string)) "drain acked" (Some "d")
    (reply_field line "id");
  check_error ~what:"post-drain" ~id:(Some "rejected") ~code:"shutting-down"
    (recv_exn sv);
  Alcotest.(check int) "drains to exit 0" 0 (finish sv)

(* A simulate job that trips its max_cycles guard is a deterministic
   in-job failure: one crashed reply naming the deadlock, not a worker
   crash that the supervisor retries, quarantines and counts as failed. *)
let test_simulate_deadlock_reply () =
  let sv = start () in
  send sv
    {|{"id":"dl","kind":"simulate","params":{"arch":"gbaviii","workload":"ofdm-fpa","max_cycles":1000}}|};
  let line = recv_exn sv in
  check_error ~what:"deadlock" ~id:(Some "dl") ~code:"crashed" line;
  let err = Option.value ~default:"" (reply_field line "error") in
  Alcotest.(check bool)
    (Printf.sprintf "names the guard (got %S)" err)
    true
    (String.starts_with ~prefix:"deadlock: max_cycles (1000) exceeded" err);
  send sv {|{"id":"s","kind":"stats"}|};
  let stats = recv_exn sv in
  Alcotest.(check bool)
    (Printf.sprintf "no failed job (got %s)" stats)
    true
    (contains ~needle:{|"failed":0|} stats);
  Alcotest.(check int) "clean exit" 0 (finish sv)

let test_explore_request () =
  let sv = start () in
  let profile =
    "seed = 5\\ntransactions = 8\\npes = 2\\narchs = bfba, ggba\\nwidths = 16\\ndepths = 4\\narbs = priority\\n"
  in
  send_many sv
    [
      Printf.sprintf {|{"id":"x1","kind":"explore","params":{"profile":"%s"}}|}
        profile;
      (* Same profile again: deterministic, so the two result objects
         must be byte-identical modulo the request id. *)
      Printf.sprintf {|{"id":"x2","kind":"explore","params":{"profile":"%s"}}|}
        profile;
      {|{"id":"bad-prof","kind":"explore","params":{"profile":"archs = martian\n"}}|};
      {|{"id":"no-prof","kind":"explore","params":{}}|};
      {|{"id":"too-big","kind":"explore","params":{"profile":"transactions = 99999\n"}}|};
    ];
  (* Bad requests bounce at admission, before the explores finish, so
     replies arrive out of order: collect all five and match by id. *)
  let replies = Hashtbl.create 8 in
  for _ = 1 to 5 do
    let line = recv_exn sv in
    match reply_field line "id" with
    | Some id -> Hashtbl.replace replies id line
    | None -> Alcotest.failf "reply without id: %S" line
  done;
  let reply id =
    match Hashtbl.find_opt replies id with
    | Some line -> line
    | None -> Alcotest.failf "no reply for %S" id
  in
  let r1 = reply "x1" and r2 = reply "x2" in
  let result line =
    match Json.member "result" (parse_reply line) with
    | Some r -> Json.to_string r
    | None -> Alcotest.failf "no result in %S" line
  in
  let res1 = result r1 in
  Alcotest.(check string) "same profile, same bytes" res1 (result r2);
  let doc = parse_reply r1 in
  let result_doc = Option.get (Json.member "result" doc) in
  Alcotest.(check (option string))
    "kind tagged" (Some "explore")
    (Option.bind (Json.member "kind" result_doc) Json.get_string);
  (match Json.member "candidates" result_doc with
  | Some (Json.Int n) -> Alcotest.(check int) "2 archs x 1 width" 2 n
  | _ -> Alcotest.fail "candidates missing");
  (match Json.member "front" result_doc with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "empty or missing front");
  check_error ~what:"bad arch" ~id:(Some "bad-prof") ~code:"bad-request"
    (reply "bad-prof");
  check_error ~what:"missing profile" ~id:(Some "no-prof") ~code:"bad-request"
    (reply "no-prof");
  check_error ~what:"over caps" ~id:(Some "too-big") ~code:"bad-request"
    (reply "too-big");
  Alcotest.(check int) "clean exit" 0 (finish sv)

(* Run the CLI and return its stdout; it must exit 0. *)
let cli_stdout args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w
      (Lazy.force devnull)
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "bussyn_cli %s failed" (String.concat " " args)

let cli_quadrants args =
  let lines = String.split_on_char '\n' (cli_stdout ("inject" :: args)) in
  List.map
    (fun label ->
      let prefix = "  " ^ label in
      match List.find_opt (String.starts_with ~prefix) lines with
      | Some l ->
          int_of_string
            (String.trim
               (String.sub l (String.length prefix)
                  (String.length l - String.length prefix)))
      | None -> Alcotest.failf "no %S line in the CLI summary" label)
    [
      "corrupted + flagged:"; "corrupted, unflagged:"; "masked but flagged:";
      "fully masked:";
    ]

(* Serve's inject reply and the CLI's inject summary come from the same
   campaign code, so equal arguments give equal quadrant counts.  The
   two requests together land in all four quadrants. *)
let test_inject_matches_cli () =
  let sv = start ~args:[ "--no-journal" ] () in
  send_many sv
    [
      {|{"id":"ccba","kind":"inject","params":{"arch":"ccba","pes":2,"protect":true,"seed":1,"n":16,"cycles":120}}|};
      {|{"id":"gbavi","kind":"inject","params":{"arch":"gbavi","pes":2,"protect":true,"seed":1,"n":16,"cycles":120,"engine":"ref"}}|};
    ];
  let replies = Hashtbl.create 2 in
  for _ = 1 to 2 do
    let line = recv_exn sv in
    Hashtbl.replace replies (Option.get (reply_field line "id")) line
  done;
  Alcotest.(check int) "clean exit" 0 (finish sv);
  let serve_quadrants id =
    let result =
      Option.get (Json.member "result" (parse_reply (Hashtbl.find replies id)))
    in
    List.map
      (fun key ->
        Option.get (Option.bind (Json.member key result) Json.get_int))
      [ "corrupted_flagged"; "corrupted_unflagged"; "masked_flagged"; "masked" ]
  in
  let args =
    [ "-p"; "2"; "--protect"; "--seed"; "1"; "-n"; "16"; "--cycles"; "120" ]
  in
  let ccba = cli_quadrants ("-a" :: "ccba" :: args) in
  let gbavi = cli_quadrants ("-a" :: "gbavi" :: "--engine" :: "ref" :: args) in
  Alcotest.(check (list int)) "ccba on tape" ccba (serve_quadrants "ccba");
  Alcotest.(check (list int)) "gbavi on ref" gbavi (serve_quadrants "gbavi");
  Alcotest.(check (list bool))
    "all four quadrants covered" [ true; true; true; true ]
    (List.map2 (fun a b -> a + b > 0) ccba gbavi)

(* Module-library lookups made inside a worker reach the parent's
   [stats] reply: exploring a second architecture generates it in the
   worker, so the catalog must report more lookups. *)
let catalog_lookups archs =
  let sv = start ~args:[ "--no-journal"; "--jobs"; "1" ] () in
  send sv
    (Printf.sprintf
       {|{"id":"x","kind":"explore","params":{"profile":"seed = 3\ntransactions = 20\narchs = %s\n"}}|}
       archs);
  Alcotest.(check (option string)) "explore served" (Some "x")
    (reply_field (recv_exn sv) "id");
  send sv {|{"id":"s","kind":"stats"}|};
  let result = Option.get (Json.member "result" (parse_reply (recv_exn sv))) in
  Alcotest.(check int) "clean exit" 0 (finish sv);
  let cache =
    match Json.member "cache" result with
    | Some (Json.Obj fields) -> fields
    | _ -> Alcotest.fail "stats reply without a cache object"
  in
  Alcotest.(check (list string)) "cache holds circuits and catalog"
    [ "circuits"; "catalog" ] (List.map fst cache);
  let count key =
    Option.get
      (Option.bind (Json.member key (List.assoc "catalog" cache)) Json.get_int)
  in
  count "hits" + count "misses"

let test_stats_count_worker_catalog () =
  let one = catalog_lookups "bfba" and two = catalog_lookups "bfba, gbavi" in
  Alcotest.(check bool)
    (Printf.sprintf "two archs look up more modules (%d vs %d)" two one)
    true (two > one)

(* ------------------------------------------------------------------ *)
(* Journal-driven daemon behavior                                      *)
(* ------------------------------------------------------------------ *)

let replies_of_journal dir =
  match Journal.read_all ~dir with
  | Error e -> Alcotest.failf "journal read: %s" e
  | Ok (records, _, _) ->
      let tbl = Hashtbl.create 16 in
      List.iter
        (function
          | Journal.Done (id, reply) when reply <> "" ->
              Alcotest.(check bool)
                (Printf.sprintf "job %s resolved once" id)
                false (Hashtbl.mem tbl id);
              Hashtbl.replace tbl id reply
          | _ -> ())
        records;
      List.sort compare (Hashtbl.fold (fun id r acc -> (id, r) :: acc) tbl [])

let quarantines_of_journal dir =
  match Journal.read_all ~dir with
  | Error e -> Alcotest.failf "journal read: %s" e
  | Ok (records, _, _) ->
      List.filter_map
        (function Journal.Quarantine (id, r) -> Some (id, r) | _ -> None)
        records

let batch =
  [
    {|{"id":"a-sleep","kind":"sleep","params":{"ms":250}}|};
    {|{"id":"b-gen","kind":"generate","params":{"arch":"gbavii","pes":4}}|};
    {|{"id":"c-sleep","kind":"sleep","params":{"ms":250}}|};
    {|{"id":"d-ver","kind":"verify","params":{"arch":"bfba","pes":2,"cycles":1500}}|};
    {|{"id":"e-sleep","kind":"sleep","params":{"ms":250}}|};
    {|{"id":"f-gen","kind":"generate","params":{"arch":"gbavii","pes":4}}|};
  ]

let run_batch_to_journal ~dir ~kill_after =
  let sv =
    start ~args:[ "--debug-kinds"; "--jobs"; "1"; "--journal"; dir ] ()
  in
  List.iter (send sv) batch;
  match kill_after with
  | None ->
      let code = finish sv in
      Alcotest.(check int) "uninterrupted run exits 0" 0 code
  | Some seconds ->
      Unix.sleepf seconds;
      Unix.kill sv.sv_pid Sys.sigkill;
      ignore (Unix.waitpid [] sv.sv_pid);
      close_stdin sv;
      Unix.close sv.sv_out

let drain_recovered ~dir =
  let sv =
    start ~args:[ "--debug-kinds"; "--jobs"; "1"; "--journal"; dir ] ()
  in
  Alcotest.(check int) "recovery drain exits 0" 0 (finish sv)

(* The acceptance chaos test: SIGKILL mid-queue, restart, and the
   journal must end up holding byte-identical replies to an
   uninterrupted run — every job exactly once. *)
let test_chaos_kill_resume () =
  let ref_dir = fresh_dir "chaos-ref" in
  run_batch_to_journal ~dir:ref_dir ~kill_after:None;
  let reference = replies_of_journal ref_dir in
  Alcotest.(check int) "reference resolved all jobs" (List.length batch)
    (List.length reference);
  let dir = fresh_dir "chaos-kill" in
  run_batch_to_journal ~dir ~kill_after:(Some 0.4);
  let before = replies_of_journal dir in
  Alcotest.(check bool)
    (Printf.sprintf "kill landed mid-queue (%d/%d resolved)"
       (List.length before) (List.length batch))
    true
    (List.length before < List.length batch);
  drain_recovered ~dir;
  let after = replies_of_journal dir in
  Alcotest.(check (list (pair string string)))
    "recovered replies byte-identical, no loss, no duplicates" reference
    after

let test_duplicate_across_restart () =
  let dir = fresh_dir "dup-restart" in
  let sv = start ~args:[ "--debug-kinds"; "--journal"; dir ] () in
  send sv {|{"id":"once","kind":"sleep","params":{"ms":5}}|};
  ignore (recv_exn sv);
  Alcotest.(check int) "first run exits 0" 0 (finish sv);
  let sv2 = start ~args:[ "--debug-kinds"; "--journal"; dir ] () in
  send sv2 {|{"id":"once","kind":"sleep","params":{"ms":5}}|};
  check_error ~what:"resubmit after restart" ~id:(Some "once")
    ~code:"duplicate-id" (recv_exn sv2);
  Alcotest.(check int) "second run exits 0" 0 (finish sv2)

(* A journal holding a pending entry that no longer parses: the entry
   is quarantined by name and everything else is served. *)
let test_corrupt_pending_quarantined () =
  let dir = fresh_dir "poison-pending" in
  let j, _ = Journal.open_ ~dir () in
  Journal.accept j ~id:"good" ~line:{|{"id":"good","kind":"sleep","params":{"ms":5}}|};
  Journal.accept j ~id:"poison" ~line:"{{{ not a request";
  Journal.close j;
  drain_recovered ~dir;
  let replies = replies_of_journal dir in
  Alcotest.(check (list string)) "good job served" [ "good" ]
    (List.map fst replies);
  match quarantines_of_journal dir with
  | [ (id, reason) ] ->
      Alcotest.(check string) "poison quarantined" "poison" id;
      Alcotest.(check bool)
        (Printf.sprintf "reason explains (got %S)" reason)
        true
        (contains ~needle:"unparseable" reason)
  | q -> Alcotest.failf "expected exactly one quarantine, got %d" (List.length q)

(* Deterministic replies across cold/warm caches: the same verify job
   through a fresh server and through a server whose caches are warm
   must produce identical result bytes. *)
let test_warm_cold_identical () =
  let req = {|{"id":"V","kind":"verify","params":{"arch":"gbavii","pes":4,"cycles":1200}}|} in
  let cold =
    let sv = start () in
    send sv req;
    let line = recv_exn sv in
    ignore (finish sv);
    line
  in
  let warm =
    let sv = start ~args:[ "--jobs"; "1" ] () in
    send sv {|{"id":"W1","kind":"verify","params":{"arch":"gbavii","pes":4,"cycles":1200}}|};
    ignore (recv_exn sv);
    send sv req;
    let line = recv_exn sv in
    ignore (finish sv);
    line
  in
  Alcotest.(check string) "cold == warm result bytes"
    (Json.to_string (Option.get (Json.member "result" (parse_reply cold))))
    (Json.to_string (Option.get (Json.member "result" (parse_reply warm))))

let () =
  Alcotest.run "serve"
    [
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "recency" `Quick test_lru_recency;
          Alcotest.test_case "resize and clear" `Quick test_lru_resize_and_clear;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "hardening" `Quick test_json_hardening;
          Alcotest.test_case "float edges" `Quick test_json_float_edges;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
        ] );
      ("proto", [ Alcotest.test_case "parse" `Quick test_proto_parse ]);
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "corrupt record" `Quick test_journal_corrupt_record;
          Alcotest.test_case "compaction" `Quick test_journal_compaction;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "health fields" `Quick test_health_fields;
          Alcotest.test_case "malformed then serves" `Quick
            test_malformed_then_serves;
          Alcotest.test_case "duplicate id" `Quick test_duplicate_id;
          Alcotest.test_case "oversized then serves" `Quick
            test_oversized_then_serves;
          Alcotest.test_case "overload backpressure" `Quick
            test_overload_backpressure;
          Alcotest.test_case "crash quarantined with signal" `Quick
            test_crash_quarantined_with_signal;
          Alcotest.test_case "spin timed out" `Quick test_spin_timed_out;
          Alcotest.test_case "queue deadline shed" `Quick test_deadline_shed;
          Alcotest.test_case "drain request" `Quick test_drain_request;
          Alcotest.test_case "simulate deadlock is a reply" `Quick
            test_simulate_deadlock_reply;
          Alcotest.test_case "explore request" `Quick test_explore_request;
          Alcotest.test_case "inject matches the CLI" `Quick
            test_inject_matches_cli;
          Alcotest.test_case "stats count worker catalog lookups" `Quick
            test_stats_count_worker_catalog;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "SIGKILL mid-queue, byte-identical resume" `Slow
            test_chaos_kill_resume;
          Alcotest.test_case "duplicate across restart" `Quick
            test_duplicate_across_restart;
          Alcotest.test_case "corrupt pending quarantined" `Quick
            test_corrupt_pending_quarantined;
          Alcotest.test_case "warm == cold replies" `Slow
            test_warm_cold_identical;
        ] );
    ]
