module Io = Busgen_binio.Io
module A = Bussyn.Archs
module G = Bussyn.Generate
module I = Busgen_rtl.Flat
module Bits = Busgen_rtl.Bits
module T = Busgen_verify.Traffic
module P = Busgen_verify.Prop
module Arb = Busgen_modlib.Arbiter
module Cbi = Busgen_modlib.Cbi

let magic = "BSCK"
let format_version = 1

(* ------------------------------------------------------------------ *)
(* Container: magic, version, named sections, CRC-32 trailer           *)
(* ------------------------------------------------------------------ *)

let encode_file sections =
  let b = Io.writer () in
  Io.w_raw b magic;
  Io.w_int b format_version;
  Io.w_list b
    (fun b (name, payload) ->
      Io.w_string b name;
      Io.w_string b payload)
    sections;
  let body = Io.contents b in
  let trailer = Io.writer () in
  Io.w_int trailer (Io.crc32 body);
  body ^ Io.contents trailer

let write_file ?(log = fun _ -> ()) path sections =
  (* Temp file in the same directory (rename must not cross devices),
     then an atomic rename: a crash mid-write leaves at worst a stray
     temp file, never a torn checkpoint under the real name. *)
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.tmp.%d" (Filename.basename path) (Unix.getpid ()))
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc (encode_file sections);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with
     | Sys_error msg ->
         (* The write already failed and [e] carries that story; a
            cleanup failure on top must not replace it, but it must not
            vanish either — a stray temp file in a supervised soak dir
            looks exactly like corruption-in-progress. *)
         log (Printf.sprintf "could not remove temp file %s: %s" tmp msg));
     raise e);
  Sys.rename tmp path

let read_file path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s =
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          really_input_string ic len)
    in
    s
  with
  | exception Sys_error msg -> Error msg
  | s -> (
      let fail reason = Error (Printf.sprintf "%s: %s" path reason) in
      let n = String.length s in
      if n < String.length magic + 16 then fail "not a checkpoint (too short)"
      else if String.sub s 0 (String.length magic) <> magic then
        fail "not a checkpoint (bad magic)"
      else begin
        let body = String.sub s 0 (n - 8) in
        (* Compare the trailer bytes, not a decoded integer: damage to
           the trailer itself must read as a CRC mismatch, not a decode
           error. *)
        let expect =
          let b = Io.writer () in
          Io.w_int b (Io.crc32 body);
          Io.contents b
        in
        if String.sub s (n - 8) 8 <> expect then
          fail "corrupt checkpoint (CRC mismatch)"
        else
          let r =
            Io.reader
              (String.sub body (String.length magic)
                 (String.length body - String.length magic))
          in
          match
            let version = Io.r_int r in
            if version <> format_version then
              Error
                (Printf.sprintf "%s: unsupported checkpoint version %d (tool reads %d)"
                   path version format_version)
            else begin
              let sections =
                Io.r_list r (fun r ->
                    let name = Io.r_string r in
                    (name, Io.r_string r))
              in
              if not (Io.at_end r) then
                Error (path ^ ": corrupt checkpoint (trailing bytes)")
              else Ok sections
            end
          with
          | result -> result
          | exception Io.Corrupt what ->
              fail ("corrupt checkpoint (" ^ what ^ ")")
      end)

let section sections name =
  match List.assoc_opt name sections with
  | Some payload -> Ok payload
  | None -> Error (Printf.sprintf "missing section %S" name)

(* ------------------------------------------------------------------ *)
(* Field codecs                                                        *)
(* ------------------------------------------------------------------ *)

let arch_tag = function
  | G.Bfba -> 0 | G.Gbavi -> 1 | G.Gbavii -> 2 | G.Gbaviii -> 3
  | G.Hybrid -> 4 | G.Splitba -> 5 | G.Ggba -> 6 | G.Ccba -> 7

let bad_tag r what n =
  raise
    (Io.Corrupt (Printf.sprintf "unknown %s tag %d at byte %d" what n (Io.pos r)))

let arch_of_tag r = function
  | 0 -> G.Bfba | 1 -> G.Gbavi | 2 -> G.Gbavii | 3 -> G.Gbaviii
  | 4 -> G.Hybrid | 5 -> G.Splitba | 6 -> G.Ggba | 7 -> G.Ccba
  | n -> bad_tag r "architecture" n

let w_config b (c : A.config) =
  Io.w_int b c.A.n_pes;
  Io.w_int b c.A.bus_addr_width;
  Io.w_int b c.A.bus_data_width;
  Io.w_int b c.A.mem_addr_width;
  Io.w_int b c.A.global_mem_addr_width;
  Io.w_int b c.A.fifo_depth;
  Io.w_int b
    (match c.A.arb_policy with
    | Arb.Priority -> 0 | Arb.Round_robin -> 1 | Arb.Fcfs -> 2);
  Io.w_int b
    (match c.A.cpu with
    | Cbi.Mpc750 -> 0 | Cbi.Mpc755 -> 1 | Cbi.Mpc7410 -> 2 | Cbi.Arm9tdmi -> 3);
  Io.w_int b
    (match c.A.accelerator with
    | A.Acc_none -> 0 | A.Acc_dct -> 1 | A.Acc_fft -> 2);
  Io.w_int b
    (match c.A.mem_kind with A.Mk_sram -> 0 | A.Mk_dram -> 1 | A.Mk_dpram -> 2);
  Io.w_int b c.A.n_subsystems;
  Io.w_bool b c.A.protect

let r_config r : A.config =
  let n_pes = Io.r_int r in
  let bus_addr_width = Io.r_int r in
  let bus_data_width = Io.r_int r in
  let mem_addr_width = Io.r_int r in
  let global_mem_addr_width = Io.r_int r in
  let fifo_depth = Io.r_int r in
  let arb_policy =
    match Io.r_int r with
    | 0 -> Arb.Priority | 1 -> Arb.Round_robin | 2 -> Arb.Fcfs
    | n -> bad_tag r "arbiter policy" n
  in
  let cpu =
    match Io.r_int r with
    | 0 -> Cbi.Mpc750 | 1 -> Cbi.Mpc755 | 2 -> Cbi.Mpc7410 | 3 -> Cbi.Arm9tdmi
    | n -> bad_tag r "cpu" n
  in
  let accelerator =
    match Io.r_int r with
    | 0 -> A.Acc_none | 1 -> A.Acc_dct | 2 -> A.Acc_fft
    | n -> bad_tag r "accelerator" n
  in
  let mem_kind =
    match Io.r_int r with
    | 0 -> A.Mk_sram | 1 -> A.Mk_dram | 2 -> A.Mk_dpram
    | n -> bad_tag r "memory kind" n
  in
  let n_subsystems = Io.r_int r in
  let protect = Io.r_bool r in
  {
    A.n_pes; bus_addr_width; bus_data_width; mem_addr_width;
    global_mem_addr_width; fifo_depth; arb_policy; cpu; accelerator;
    mem_kind; n_subsystems; protect;
  }

let w_injection b (inj : I.injection) =
  Io.w_string b inj.I.inj_signal;
  (match inj.I.inj_fault with
  | I.Stuck_at_0 -> Io.w_int b 0
  | I.Stuck_at_1 -> Io.w_int b 1
  | I.Flip bit ->
      Io.w_int b 2;
      Io.w_int b bit);
  Io.w_int b inj.I.inj_start;
  Io.w_int b inj.I.inj_cycles

let r_injection r : I.injection =
  let inj_signal = Io.r_string r in
  let inj_fault =
    match Io.r_int r with
    | 0 -> I.Stuck_at_0
    | 1 -> I.Stuck_at_1
    | 2 -> I.Flip (Io.r_int r)
    | n -> bad_tag r "fault" n
  in
  let inj_start = Io.r_int r in
  let inj_cycles = Io.r_int r in
  { I.inj_signal; inj_fault; inj_start; inj_cycles }

(* Width plus hex digits; round-trips exactly. *)
let w_bits b v =
  Io.w_int b (Bits.width v);
  Io.w_string b (Bits.to_hex_string v)

let r_bits r =
  let w = Io.r_int r in
  let hex = Io.r_string r in
  if w < 1 then Io.corrupt r "malformed bit width";
  match Bits.of_string (Printf.sprintf "%d'h%s" w hex) with
  | v -> v
  | exception Invalid_argument _ -> Io.corrupt r "malformed bit vector"

let w_interp_state b (st : I.state) =
  Io.w_int b st.I.st_cycle;
  Io.w_array b
    (fun b (name, v) ->
      Io.w_string b name;
      w_bits b v)
    st.I.st_values;
  Io.w_array b
    (fun b (name, words) ->
      Io.w_string b name;
      Io.w_array b w_bits words)
    st.I.st_mems

let r_interp_state r : I.state =
  let st_cycle = Io.r_int r in
  let st_values =
    Io.r_array r (fun r ->
        let name = Io.r_string r in
        (name, r_bits r))
  in
  let st_mems =
    Io.r_array r (fun r ->
        let name = Io.r_string r in
        (name, Io.r_array r r_bits))
  in
  { I.st_cycle; st_values; st_mems }

let w_pair b (x, y) =
  Io.w_int b x;
  Io.w_int b y

let r_pair r =
  let x = Io.r_int r in
  let y = Io.r_int r in
  (x, y)

let w_traffic_state b (st : T.state) =
  Io.w_int b st.T.ts_rng;
  Io.w_list b
    (fun b (pe, off, v) ->
      Io.w_int b pe;
      Io.w_int b off;
      Io.w_int b v)
    st.T.ts_local;
  Io.w_list b w_pair st.T.ts_shared;
  Io.w_list b w_pair st.T.ts_hs;
  Io.w_list b (fun b q -> Io.w_list b Io.w_int q) st.T.ts_queues;
  Io.w_int b st.T.ts_transactions;
  Io.w_int b st.T.ts_reads;
  Io.w_int b st.T.ts_writes;
  Io.w_int b st.T.ts_mismatches

let r_traffic_state r : T.state =
  let ts_rng = Io.r_int r in
  let ts_local =
    Io.r_list r (fun r ->
        let pe = Io.r_int r in
        let off = Io.r_int r in
        let v = Io.r_int r in
        (pe, off, v))
  in
  let ts_shared = Io.r_list r r_pair in
  let ts_hs = Io.r_list r r_pair in
  let ts_queues = Io.r_list r (fun r -> Io.r_list r Io.r_int) in
  let ts_transactions = Io.r_int r in
  let ts_reads = Io.r_int r in
  let ts_writes = Io.r_int r in
  let ts_mismatches = Io.r_int r in
  {
    T.ts_rng; ts_local; ts_shared; ts_hs; ts_queues; ts_transactions;
    ts_reads; ts_writes; ts_mismatches;
  }

let w_violation b (v : P.violation) =
  Io.w_string b v.P.v_prop;
  Io.w_int b v.P.v_cycle;
  Io.w_string b v.P.v_detail

let r_violation r : P.violation =
  let v_prop = Io.r_string r in
  let v_cycle = Io.r_int r in
  let v_detail = Io.r_string r in
  { P.v_prop; v_cycle; v_detail }

let w_monitor_state b (st : P.monitor_state) =
  Io.w_array b Io.w_int st.P.ms_pending;
  Io.w_list b w_violation st.P.ms_firsts;
  Io.w_int b st.P.ms_total

let r_monitor_state r : P.monitor_state =
  let ms_pending = Io.r_array r Io.r_int in
  let ms_firsts = Io.r_list r r_violation in
  let ms_total = Io.r_int r in
  { P.ms_pending; ms_firsts; ms_total }

(* ------------------------------------------------------------------ *)
(* RTL co-simulation snapshots                                         *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  ck_tool : string;
  ck_hash : string;
  ck_arch : G.arch;
  ck_config : A.config;
  ck_seed : int;
  ck_interp : I.state;
  ck_injections : I.injection list;
  ck_traffic : T.state option;
  ck_monitor : P.monitor_state option;
}

let payload f v =
  let b = Io.writer () in
  f b v;
  Io.contents b

let save ?log ~path snap =
  let meta b () =
    Io.w_string b snap.ck_tool;
    Io.w_string b snap.ck_hash;
    Io.w_int b (arch_tag snap.ck_arch);
    w_config b snap.ck_config;
    Io.w_int b snap.ck_seed
  in
  write_file ?log path
    [
      ("meta", payload meta ());
      ("interp", payload w_interp_state snap.ck_interp);
      ("faults", payload (fun b -> Io.w_list b w_injection) snap.ck_injections);
      ("traffic", payload (fun b -> Io.w_opt b w_traffic_state) snap.ck_traffic);
      ("monitor", payload (fun b -> Io.w_opt b w_monitor_state) snap.ck_monitor);
    ]

let decoding path f =
  match f () with
  | v -> Ok v
  | exception Io.Corrupt what ->
      Error (Printf.sprintf "%s: corrupt checkpoint (%s)" path what)

let ( let* ) = Result.bind

let load ~path =
  let* sections = read_file path in
  let get name =
    Result.map_error (fun e -> path ^ ": " ^ e) (section sections name)
  in
  let* meta = get "meta" in
  let* interp = get "interp" in
  let* faults = get "faults" in
  let* traffic = get "traffic" in
  let* monitor = get "monitor" in
  decoding path (fun () ->
      let r = Io.reader meta in
      let ck_tool = Io.r_string r in
      let ck_hash = Io.r_string r in
      let ck_arch = arch_of_tag r (Io.r_int r) in
      let ck_config = r_config r in
      let ck_seed = Io.r_int r in
      let ck_interp = r_interp_state (Io.reader interp) in
      let ck_injections = Io.r_list (Io.reader faults) r_injection in
      let ck_traffic = Io.r_opt (Io.reader traffic) r_traffic_state in
      let ck_monitor = Io.r_opt (Io.reader monitor) r_monitor_state in
      {
        ck_tool; ck_hash; ck_arch; ck_config; ck_seed; ck_interp;
        ck_injections; ck_traffic; ck_monitor;
      })

let check_provenance snap ~arch ~config ~seed =
  let want_hash = G.design_hash arch config in
  if snap.ck_tool <> G.tool_version then
    Error
      (Printf.sprintf
         "checkpoint written by %s; this is %s — refusing to resume"
         snap.ck_tool G.tool_version)
  else if snap.ck_hash <> want_hash then
    Error
      (Printf.sprintf
         "checkpoint design hash %s does not match regenerated design %s \
          (%s) — the design changed; refusing to resume"
         snap.ck_hash want_hash (G.arch_name arch))
  else if snap.ck_seed <> seed then
    Error
      (Printf.sprintf
         "checkpoint traffic seed %d does not match requested seed %d — \
          refusing to resume"
         snap.ck_seed seed)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Checkpoint directories                                              *)
(* ------------------------------------------------------------------ *)

let path_for ~dir ~cycle =
  Filename.concat dir (Printf.sprintf "ckpt-%012d.bsck" cycle)

let cycle_of_filename name =
  if
    String.length name > 11
    && String.sub name 0 5 = "ckpt-"
    && Filename.check_suffix name ".bsck"
  then
    int_of_string_opt (String.sub name 5 (String.length name - 10))
  else None

let list_files ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             match cycle_of_filename name with
             | Some cycle -> Some (cycle, Filename.concat dir name)
             | None -> None)
      |> List.sort (fun (a, _) (b, _) -> compare b a)

let latest_valid ~dir ~load =
  let rec go skipped = function
    | [] -> (None, List.rev skipped)
    | (cycle, path) :: rest -> (
        match load ~path with
        | Ok v -> (Some (v, cycle, path), List.rev skipped)
        | Error reason -> go ((path, reason) :: skipped) rest)
  in
  go [] (list_files ~dir)

let prune ?(log = fun _ -> ()) ~dir ~keep () =
  list_files ~dir
  |> List.iteri (fun i (_, path) ->
         if i >= keep then
           try Sys.remove path
           with Sys_error msg ->
             (* Swallowing this silently made a half-pruned directory
                (e.g. a permission flip mid-soak, or an alien entry
                matching the checkpoint name pattern) indistinguishable
                from corruption.  Pruning stays best-effort — recovery
                only needs [latest_valid] — but the skip is reported
                through the caller's reason channel. *)
             log (Printf.sprintf "prune: skipping %s: %s" path msg))
