(* Crash-resumable sweep checkpoints: a completed-job bitmap plus the
   accumulated per-job results, in one Ckpt container at
   [<dir>/sweep.bsck], rewritten atomically at a cadence.  A SIGKILLed
   sweep resumes by loading the file and feeding completed jobs back
   through Supervise's [skip] hook; the final report is byte-identical
   to an uninterrupted run because payloads are replayed verbatim in
   job-index order. *)

module Io = Busgen_binio.Io
module Fuzz = Busgen_verify.Fuzz

let file_name = "sweep.bsck"
let meta_section = "sweep-meta"
let bitmap_section = "sweep-bitmap"
let done_section = "sweep-done"

type t = {
  sw_path : string;
  sw_tool : string;
  sw_ident : string;
  sw_total : int;
  sw_every : int;
  sw_wall : float;
  sw_log : string -> unit;
  sw_done : (int, string) Hashtbl.t;
  sw_mutex : Mutex.t;
  mutable sw_unsaved : int;
  mutable sw_last_save : float;
}

let ident t = t.sw_ident
let total t = t.sw_total

let bitmap_of_done ~total tbl =
  let b = Bytes.make ((total + 7) / 8) '\000' in
  Hashtbl.iter
    (fun i _ ->
      let byte = i lsr 3 and bit = i land 7 in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl bit))))
    tbl;
  Bytes.to_string b

(* The whole file is deterministic for a given completed set: the done
   list is sorted by job index, so two runs that checkpointed the same
   progress write byte-identical files. *)
let sections t =
  let sorted =
    List.sort
      (fun (a, _) (b, _) -> compare (a : int) b)
      (Hashtbl.fold (fun i p acc -> (i, p) :: acc) t.sw_done [])
  in
  let meta =
    let w = Io.writer () in
    Io.w_string w t.sw_tool;
    Io.w_string w t.sw_ident;
    Io.w_int w t.sw_total;
    Io.contents w
  in
  let bitmap =
    let w = Io.writer () in
    Io.w_string w (bitmap_of_done ~total:t.sw_total t.sw_done);
    Io.contents w
  in
  let done_ =
    let w = Io.writer () in
    Io.w_list w
      (fun w (i, p) ->
        Io.w_int w i;
        Io.w_string w p)
      sorted;
    Io.contents w
  in
  [ (meta_section, meta); (bitmap_section, bitmap); (done_section, done_) ]

let save_locked t =
  Ckpt.write_file ~log:t.sw_log t.sw_path (sections t);
  t.sw_unsaved <- 0;
  t.sw_last_save <- Unix.gettimeofday ()

let save t =
  Mutex.lock t.sw_mutex;
  (match save_locked t with
  | () -> Mutex.unlock t.sw_mutex
  | exception e ->
      Mutex.unlock t.sw_mutex;
      raise e)

let note t i payload =
  if i < 0 || i >= t.sw_total then
    invalid_arg "Sweep.note: job index out of range";
  Mutex.lock t.sw_mutex;
  (match
     if not (Hashtbl.mem t.sw_done i) then begin
       Hashtbl.replace t.sw_done i payload;
       t.sw_unsaved <- t.sw_unsaved + 1;
       if
         t.sw_unsaved >= t.sw_every
         || Unix.gettimeofday () -. t.sw_last_save >= t.sw_wall
       then save_locked t
     end
   with
  | () -> Mutex.unlock t.sw_mutex
  | exception e ->
      Mutex.unlock t.sw_mutex;
      raise e)

let lookup t i =
  Mutex.lock t.sw_mutex;
  let r = Hashtbl.find_opt t.sw_done i in
  Mutex.unlock t.sw_mutex;
  r

let completed t =
  Mutex.lock t.sw_mutex;
  let n = Hashtbl.length t.sw_done in
  Mutex.unlock t.sw_mutex;
  n

let fresh ~path ~tool ~ident ~total ~every ~wall ~log =
  {
    sw_path = path;
    sw_tool = tool;
    sw_ident = ident;
    sw_total = total;
    sw_every = every;
    sw_wall = wall;
    sw_log = log;
    sw_done = Hashtbl.create 64;
    sw_mutex = Mutex.create ();
    sw_unsaved = 0;
    sw_last_save = Unix.gettimeofday ();
  }

exception Stale of string

let decode_into t sects =
  let find name =
    match List.assoc_opt name sects with
    | Some s -> s
    | None -> raise (Io.Corrupt ("missing section " ^ name))
  in
  let r = Io.reader (find meta_section) in
  let tool = Io.r_string r in
  let ident = Io.r_string r in
  let total = Io.r_int r in
  (* Provenance mismatches are refusals, not corruption: the file is a
     valid checkpoint of some other sweep, and silently starting fresh
     would overwrite it. *)
  if tool <> t.sw_tool then
    raise
      (Stale (Printf.sprintf "written by tool %s, this is %s" tool t.sw_tool));
  if ident <> t.sw_ident then
    raise
      (Stale
         (Printf.sprintf "holds sweep %S, this run is %S" ident t.sw_ident));
  if total <> t.sw_total then
    raise
      (Stale (Printf.sprintf "covers %d jobs, this run has %d" total t.sw_total));
  let r = Io.reader (find done_section) in
  let entries =
    Io.r_list r (fun r ->
        let i = Io.r_int r in
        let p = Io.r_string r in
        (i, p))
  in
  List.iter
    (fun (i, p) ->
      if i < 0 || i >= t.sw_total then
        raise (Io.Corrupt (Printf.sprintf "job index %d out of range" i));
      Hashtbl.replace t.sw_done i p)
    entries;
  (* Cross-check the bitmap against the payload list; disagreement
     means a buggy writer, so treat the file as corrupt. *)
  let r = Io.reader (find bitmap_section) in
  let bitmap = Io.r_string r in
  if bitmap <> bitmap_of_done ~total:t.sw_total t.sw_done then
    raise (Io.Corrupt "bitmap disagrees with the completed-job list")

let load ?(log = fun _ -> ()) ?(every = 32) ?(wall = 5.0) ~dir ~ident ~total ()
    =
  if total < 0 then invalid_arg "Sweep.load: negative total";
  if every < 1 then invalid_arg "Sweep.load: every < 1";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir file_name in
  let tool = Bussyn.Generate.tool_version in
  let t = fresh ~path ~tool ~ident ~total ~every ~wall ~log in
  if not (Sys.file_exists path) then Ok t
  else
    match Ckpt.read_file path with
    | Error reason ->
        (* Torn write, bad block: start over rather than refuse — the
           atomic-rename protocol means this file never held the only
           copy of anything an uninterrupted rerun cannot recompute. *)
        log (Printf.sprintf "sweep: ignoring %s: %s" path reason);
        Hashtbl.reset t.sw_done;
        Ok t
    | Ok sects -> (
        match decode_into t sects with
        | () -> Ok t
        | exception Stale why ->
            Error (Printf.sprintf "%s: %s (move it aside or pick another --sweep-ckpt dir)" path why)
        | exception Io.Corrupt why ->
            log (Printf.sprintf "sweep: ignoring %s: corrupt: %s" path why);
            Hashtbl.reset t.sw_done;
            Ok t)

(* ------------------------------------------------------------------ *)
(* Fuzz result payloads                                                *)
(* ------------------------------------------------------------------ *)

(* Checkpointed fuzz jobs carry their full [Fuzz.result list] so a
   resumed run reproduces the report byte-for-byte without re-running
   the case.  Same Io discipline as the snapshot codecs in ckpt.ml,
   whose injection and violation codecs these reuse: no Marshal, every
   decode bounds-checked. *)

let w_scenario w (sc : Fuzz.scenario) =
  Io.w_string w (Bussyn.Options_text.print sc.Fuzz.sc_options);
  Io.w_int w sc.Fuzz.sc_seed;
  Io.w_int w sc.Fuzz.sc_cycles;
  Io.w_opt w Ckpt.w_pair sc.Fuzz.sc_campaign;
  Io.w_list w Ckpt.w_injection sc.Fuzz.sc_faults

let r_scenario r =
  let options_text = Io.r_string r in
  let sc_options =
    match Bussyn.Options_text.parse options_text with
    | Ok o -> o
    | Error msg -> raise (Io.Corrupt ("scenario options: " ^ msg))
  in
  let sc_seed = Io.r_int r in
  let sc_cycles = Io.r_int r in
  let sc_campaign = Io.r_opt r Ckpt.r_pair in
  let sc_faults = Io.r_list r Ckpt.r_injection in
  { Fuzz.sc_options; sc_seed; sc_cycles; sc_campaign; sc_faults }

let w_outcome w = function
  | Fuzz.Clean -> Io.w_int w 0
  | Fuzz.Generation_error s ->
      Io.w_int w 1;
      Io.w_string w s
  | Fuzz.Lint_error s ->
      Io.w_int w 2;
      Io.w_string w s
  | Fuzz.Engine_divergence s ->
      Io.w_int w 3;
      Io.w_string w s
  | Fuzz.Property_violation vs ->
      Io.w_int w 4;
      Io.w_list w Ckpt.w_violation vs
  | Fuzz.Traffic_error s ->
      Io.w_int w 5;
      Io.w_string w s

let r_outcome r =
  match Io.r_int r with
  | 0 -> Fuzz.Clean
  | 1 -> Fuzz.Generation_error (Io.r_string r)
  | 2 -> Fuzz.Lint_error (Io.r_string r)
  | 3 -> Fuzz.Engine_divergence (Io.r_string r)
  | 4 -> Fuzz.Property_violation (Io.r_list r Ckpt.r_violation)
  | 5 -> Fuzz.Traffic_error (Io.r_string r)
  | n ->
      raise (Io.Corrupt (Printf.sprintf "bad outcome tag %d at %d" n (Io.pos r)))

let w_result w (res : Fuzz.result) =
  w_scenario w res.Fuzz.r_scenario;
  w_outcome w res.Fuzz.r_outcome;
  Io.w_opt w Io.w_string res.Fuzz.r_arch;
  Io.w_int w res.Fuzz.r_properties;
  Io.w_list w Io.w_string res.Fuzz.r_detections

let r_result r =
  let r_scenario' = r_scenario r in
  let r_outcome' = r_outcome r in
  let r_arch = Io.r_opt r Io.r_string in
  let r_properties = Io.r_int r in
  let r_detections = Io.r_list r Io.r_string in
  {
    Fuzz.r_scenario = r_scenario';
    r_outcome = r_outcome';
    r_arch;
    r_properties;
    r_detections;
  }

let encode_fuzz_results rs =
  let w = Io.writer () in
  Io.w_list w w_result rs;
  Io.contents w

(* Generic string-list payloads: lets a sweep whose per-job result is
   already a flat record of strings (e.g. explore candidate rows)
   checkpoint without its own Io codec. *)
let encode_strings ss =
  let w = Io.writer () in
  Io.w_list w Io.w_string ss;
  Io.contents w

let decode_strings s =
  match
    let r = Io.reader s in
    let ss = Io.r_list r Io.r_string in
    if not (Io.at_end r) then
      raise (Io.Corrupt (Printf.sprintf "trailing bytes at %d" (Io.pos r)));
    ss
  with
  | ss -> Ok ss
  | exception Io.Corrupt msg -> Error msg

let decode_fuzz_results s =
  match
    let r = Io.reader s in
    let rs = Io.r_list r r_result in
    if not (Io.at_end r) then
      raise (Io.Corrupt (Printf.sprintf "trailing bytes at %d" (Io.pos r)));
    rs
  with
  | rs -> Ok rs
  | exception Io.Corrupt msg -> Error msg

let fuzz_backend config =
  Busgen_par.Supervise.Processes
    {
      Busgen_par.Procpool.sp_config = config;
      sp_encode = encode_fuzz_results;
      sp_decode =
        (fun s ->
          match decode_fuzz_results s with
          | Ok rs -> rs
          | Error why -> failwith ("fuzz result decode: " ^ why));
    }
