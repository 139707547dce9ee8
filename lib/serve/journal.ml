(* See journal.mli for the format and recovery contract. *)

module Io = Busgen_binio.Io

type t = {
  jn_dir : string;
  jn_path : string;
  mutable jn_fd : Unix.file_descr;
  mutable jn_bytes : int;
  mutable jn_appends : int;
  jn_log : string -> unit;
}

type record =
  | Accept of string * string
  | Done of string * string
  | Quarantine of string * string

type recovery = {
  rc_pending : (string * string) list;
  rc_seen : (string, unit) Hashtbl.t;
  rc_replies : (string * string) list;
  rc_done : int;
  rc_quarantined : int;
  rc_corrupt : int;
  rc_torn_bytes : int;
  rc_records : int;
}

let header = "BSJL1\n"
let file_name = "journal.bsjl"

(* A record is an id plus a line/reason; anything bigger than this is
   not a record of ours, it is corruption — treat it as such rather
   than allocating pathological lengths. *)
let max_record_bytes = 64 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Record codec                                                        *)
(* ------------------------------------------------------------------ *)

let encode_record r =
  let w = Io.writer () in
  (match r with
  | Accept (id, line) ->
    Io.w_int w 1;
    Io.w_string w id;
    Io.w_string w line
  | Done (id, reply) ->
    Io.w_int w 2;
    Io.w_string w id;
    Io.w_string w reply
  | Quarantine (id, reason) ->
    Io.w_int w 3;
    Io.w_string w id;
    Io.w_string w reason);
  Io.contents w

let decode_record payload =
  let r = Io.reader payload in
  let tag = Io.r_int r in
  let id = Io.r_string r in
  let s = Io.r_string r in
  match tag with
  | 1 -> Accept (id, s)
  | 2 -> Done (id, s)
  | 3 -> Quarantine (id, s)
  | _ -> raise (Io.Corrupt "journal: unknown record tag")

(* ------------------------------------------------------------------ *)
(* Scan                                                                *)
(* ------------------------------------------------------------------ *)

(* Walk the frames of [data] after the header.  Returns the records in
   order, the count of CRC-skipped records, and how many trailing
   bytes form a torn partial frame (0 if the file ends on a frame
   boundary).  A frame with an absurd length is indistinguishable from
   corruption of the length field itself; from that point on we cannot
   re-synchronize, so the remainder counts as torn tail. *)
let scan data =
  let len = String.length data in
  let records = ref [] in
  let corrupt = ref 0 in
  let pos = ref (String.length header) in
  let torn = ref 0 in
  (try
     while !pos < len do
       if len - !pos < Io.frame_overhead then begin
         torn := len - !pos;
         raise Exit
       end;
       let n = Int64.to_int (String.get_int64_le data !pos) in
       if n < 0 || n > max_record_bytes || !pos + Io.frame_overhead + n > len
       then begin
         torn := len - !pos;
         raise Exit
       end;
       let payload = String.sub data (!pos + 8) n in
       let stored = Int64.to_int (String.get_int64_le data (!pos + 8 + n)) in
       (if stored <> Io.crc32 payload then incr corrupt
        else
          match decode_record payload with
          | r -> records := r :: !records
          | exception Io.Corrupt _ -> incr corrupt);
       pos := !pos + Io.frame_overhead + n
     done
   with Exit -> ());
  (List.rev !records, !corrupt, !torn)

let summarize records =
  let seen = Hashtbl.create 64 in
  let resolved = Hashtbl.create 64 in
  let done_n = ref 0 and quarantined = ref 0 in
  let replies = ref [] in
  List.iter
    (fun r ->
      match r with
      | Accept (id, _) -> Hashtbl.replace seen id ()
      | Done (id, reply) ->
        Hashtbl.replace seen id ();
        if not (Hashtbl.mem resolved id) then incr done_n;
        Hashtbl.replace resolved id ();
        if reply <> "" then replies := (id, reply) :: !replies
      | Quarantine (id, _) ->
        Hashtbl.replace seen id ();
        if not (Hashtbl.mem resolved id) then incr quarantined;
        Hashtbl.replace resolved id ())
    records;
  let pending =
    List.filter_map
      (function
        | Accept (id, line) when not (Hashtbl.mem resolved id) ->
          Some (id, line)
        | _ -> None)
      records
  in
  (pending, seen, List.rev !replies, !done_n, !quarantined)

(* ------------------------------------------------------------------ *)
(* Open / recovery                                                     *)
(* ------------------------------------------------------------------ *)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let full_write fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let open_ ?(log = fun _ -> ()) ~dir () =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir file_name in
  let fresh () =
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    full_write fd header;
    (fd, String.length header, ([], Hashtbl.create 16, [], 0, 0), 0, 0, 0)
  in
  let fd, bytes, (pending, seen, replies, done_n, quar), corrupt, torn, nrec
      =
    if not (Sys.file_exists path) then fresh ()
    else begin
      let data = read_whole path in
      let hlen = String.length header in
      if String.length data < hlen || String.sub data 0 hlen <> header then begin
        (* Not our file: set it aside rather than append garbage to
           garbage or destroy what might be someone's data. *)
        let bad = path ^ ".bad" in
        log
          (Printf.sprintf "[journal] foreign or truncated header, moving to %s"
             bad);
        (try Sys.rename path bad with Sys_error _ -> ());
        fresh ()
      end
      else begin
        let records, corrupt, torn = scan data in
        let keep = String.length data - torn in
        if torn > 0 then
          log
            (Printf.sprintf "[journal] truncating %d torn byte(s) off the tail"
               torn);
        if corrupt > 0 then
          log
            (Printf.sprintf "[journal] skipped %d corrupt record(s)" corrupt);
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        if torn > 0 then Unix.ftruncate fd keep;
        ignore (Unix.lseek fd keep Unix.SEEK_SET);
        (fd, keep, summarize records, corrupt, torn, List.length records)
      end
    end
  in
  let t =
    {
      jn_dir = dir;
      jn_path = path;
      jn_fd = fd;
      jn_bytes = bytes;
      jn_appends = 0;
      jn_log = log;
    }
  in
  ( t,
    {
      rc_pending = pending;
      rc_seen = seen;
      rc_replies = replies;
      rc_done = done_n;
      rc_quarantined = quar;
      rc_corrupt = corrupt;
      rc_torn_bytes = torn;
      rc_records = nrec;
    } )

(* ------------------------------------------------------------------ *)
(* Append                                                              *)
(* ------------------------------------------------------------------ *)

let append t r =
  let f = Io.frame (encode_record r) in
  full_write t.jn_fd f;
  t.jn_bytes <- t.jn_bytes + String.length f;
  t.jn_appends <- t.jn_appends + 1

let accept t ~id ~line = append t (Accept (id, line))
let done_ t ~id ~reply = append t (Done (id, reply))
let quarantine t ~id ~reason = append t (Quarantine (id, reason))
let sync t = try Unix.fsync t.jn_fd with Unix.Unix_error _ -> ()
let close t = try Unix.close t.jn_fd with Unix.Unix_error _ -> ()
let path t = t.jn_path
let size_bytes t = t.jn_bytes
let records_written t = t.jn_appends

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

let compact t ~keep_done =
  let data = read_whole t.jn_path in
  let records, _corrupt, _torn = scan data in
  let resolved = Hashtbl.create 64 in
  List.iter
    (function
      | Done (id, _) | Quarantine (id, _) -> Hashtbl.replace resolved id ()
      | Accept _ -> ())
    records;
  (* Which Done records keep their reply text: the last [keep_done]. *)
  let total_done =
    List.fold_left
      (fun n -> function Done _ -> n + 1 | _ -> n)
      0 records
  in
  let kept =
    let seen_done = ref 0 in
    List.filter_map
      (fun r ->
        match r with
        | Accept (id, _) when Hashtbl.mem resolved id ->
          None (* resolved Accepts are implied by their Done/Quarantine *)
        | Accept _ -> Some r
        | Done (id, reply) ->
          incr seen_done;
          if !seen_done > total_done - keep_done then Some (Done (id, reply))
          else Some (Done (id, ""))
        | Quarantine _ -> Some r)
      records
  in
  let tmp = t.jn_path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  full_write fd header;
  List.iter (fun r -> full_write fd (Io.frame (encode_record r))) kept;
  Unix.fsync fd;
  Unix.close fd;
  Sys.rename tmp t.jn_path;
  Unix.close t.jn_fd;
  let fd = Unix.openfile t.jn_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  t.jn_fd <- fd;
  t.jn_bytes <- (Unix.fstat fd).Unix.st_size;
  t.jn_log
    (Printf.sprintf "[journal] compacted to %d record(s), %d byte(s)"
       (List.length kept) t.jn_bytes)

(* ------------------------------------------------------------------ *)
(* Offline scan                                                        *)
(* ------------------------------------------------------------------ *)

let read_all ~dir =
  let p = Filename.concat dir file_name in
  if not (Sys.file_exists p) then Error (Printf.sprintf "no journal at %s" p)
  else
    let data = read_whole p in
    let hlen = String.length header in
    if String.length data < hlen || String.sub data 0 hlen <> header then
      Error (Printf.sprintf "%s: not a BSJL1 journal" p)
    else begin
      let records, corrupt, torn = scan data in
      Ok (records, corrupt, torn)
    end
