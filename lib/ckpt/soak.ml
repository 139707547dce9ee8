module A = Bussyn.Archs
module G = Bussyn.Generate
module I = Busgen_rtl.Flat
module E = Busgen_rtl.Engine
module Bits = Busgen_rtl.Bits
module Tb = Busgen_rtl.Testbench
module T = Busgen_verify.Traffic
module P = Busgen_verify.Prop
module Pack = Busgen_verify.Pack

type config = {
  sk_arch : G.arch;
  sk_config : A.config;
  sk_seed : int;
  sk_cycles : int;
  sk_dir : string;
  sk_cadence : int;
  sk_wall : float option;
  sk_keep : int;
  sk_campaign : (int * int) option;
  sk_monitor : bool;
  sk_engine : E.kind;
  sk_log : string -> unit;
}

let config ?(cadence = 10_000) ?(wall = None) ?(keep = 3) ?campaign
    ?(monitor = true) ?(engine = E.default_kind) ?(log = fun _ -> ()) ~arch
    ~config:cfg ~seed ~cycles ~dir () =
  {
    sk_arch = arch;
    sk_config = cfg;
    sk_seed = seed;
    sk_cycles = cycles;
    sk_dir = dir;
    sk_cadence = cadence;
    sk_wall = wall;
    sk_keep = max 1 keep;
    sk_campaign = campaign;
    sk_monitor = monitor;
    sk_engine = engine;
    sk_log = log;
  }

type outcome = {
  so_stats : T.stats;
  so_cycles : int;
  so_violations : P.violation list;
  so_checkpoints : int;
  so_resumed_at : int option;
  so_skipped : (string * string) list;
  so_wedged : string option;
}

(* The watchdog diagnostic: probe a window of cycles and name the
   handshake/arbitration signals that are asserted but frozen — on a
   wedged bus that is the request with no acknowledge, or the grant
   nobody releases.  If nothing asserted is frozen (unusual), fall back
   to counting every frozen control signal. *)
let diagnose sim ~at reason =
  let window = 64 in
  let watch =
    Busgen_verify.Check.signals_containing sim
      [ "req"; "ack"; "grant"; "busy"; "sel" ]
  in
  let before = List.map (fun s -> (s, E.peek sim s)) watch in
  (try E.run sim window with _ -> ());
  let frozen =
    List.filter (fun (s, v) -> Bits.equal (E.peek sim s) v) before
  in
  let asserted =
    List.filter_map
      (fun (s, v) -> if Bits.is_zero v then None else Some s)
      frozen
  in
  let named = if asserted <> [] then asserted else List.map fst frozen in
  let shown =
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    take 8 named
  in
  Printf.sprintf
    "watchdog: run wedged at cycle %d (%s); %d control signal(s) frozen \
     across a %d-cycle probe%s%s"
    at reason (List.length named) window
    (if shown = [] then "" else ": " ^ String.concat ", " shown)
    (if List.length named > List.length shown then ", ..." else "")

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let ( let* ) = Result.bind

type live = {
  sim : E.t;
  tb : Tb.t;
  traffic : T.t;
  monitor : P.monitor option;
  injections : I.injection list;
}

let run cfg =
  ensure_dir cfg.sk_dir;
  let gen = G.generate cfg.sk_arch cfg.sk_config in
  let top = gen.G.generated.A.top in
  let found, skipped = Ckpt.latest_valid ~dir:cfg.sk_dir ~load:Ckpt.load in
  List.iter
    (fun (path, reason) ->
      (* Load errors usually already name the file; don't say it twice. *)
      let reason =
        let p = path ^ ": " in
        let lp = String.length p in
        if String.length reason >= lp && String.sub reason 0 lp = p then
          String.sub reason lp (String.length reason - lp)
        else reason
      in
      cfg.sk_log (Printf.sprintf "skipping %s: %s" path reason))
    skipped;
  let* live, resumed_at =
    match found with
    | None ->
        (* Fresh run: reset, arm monitors, install the campaign. *)
        let tb = Tb.create ~engine:cfg.sk_engine top in
        let sim = Tb.engine tb in
        let monitor = if cfg.sk_monitor then Some (Pack.attach sim top) else None in
        let injections =
          match cfg.sk_campaign with
          | None -> []
          | Some (seed, n) ->
              E.random_campaign sim ~seed ~n ~horizon:cfg.sk_cycles
        in
        if injections <> [] then E.inject sim injections;
        let traffic =
          T.create tb ~arch:cfg.sk_arch ~config:cfg.sk_config ~seed:cfg.sk_seed
        in
        Ok ({ sim; tb; traffic; monitor; injections }, None)
    | Some (snap, cycle, path) ->
        let* () =
          Ckpt.check_provenance snap ~arch:cfg.sk_arch ~config:cfg.sk_config
            ~seed:cfg.sk_seed
        in
        cfg.sk_log (Printf.sprintf "resuming from %s (cycle %d)" path cycle);
        let sim = E.create ~kind:cfg.sk_engine top in
        let monitor = if cfg.sk_monitor then Some (Pack.attach sim top) else None in
        if snap.Ckpt.ck_injections <> [] then E.inject sim snap.Ckpt.ck_injections;
        (match
           E.import_state sim snap.Ckpt.ck_interp
         with
        | () -> ()
        | exception Invalid_argument msg ->
            failwith ("checkpoint does not fit the regenerated design: " ^ msg));
        let tb = Tb.of_engine sim in
        let traffic =
          T.create tb ~arch:cfg.sk_arch ~config:cfg.sk_config ~seed:cfg.sk_seed
        in
        (match snap.Ckpt.ck_traffic with
        | Some ts -> T.import_state traffic ts
        | None -> ());
        (match (monitor, snap.Ckpt.ck_monitor) with
        | Some m, Some ms -> P.import_state m ms
        | _ -> ());
        Ok
          ( { sim; tb; traffic; monitor; injections = snap.Ckpt.ck_injections },
            Some cycle )
  in
  let written = ref 0 in
  let snapshot_now () =
    {
      Ckpt.ck_tool = G.tool_version;
      ck_hash = G.design_hash cfg.sk_arch cfg.sk_config;
      ck_arch = cfg.sk_arch;
      ck_config = cfg.sk_config;
      ck_seed = cfg.sk_seed;
      ck_interp = E.export_state live.sim;
      ck_injections = live.injections;
      ck_traffic = Some (T.export_state live.traffic);
      ck_monitor = Option.map P.export_state live.monitor;
    }
  in
  let last_ck_cycle = ref (-1) in
  let checkpoint () =
    let cycle = E.current_cycle live.sim in
    if cycle <> !last_ck_cycle then begin
      let path = Ckpt.path_for ~dir:cfg.sk_dir ~cycle in
      Ckpt.save ~log:cfg.sk_log ~path (snapshot_now ());
      incr written;
      last_ck_cycle := cycle;
      Ckpt.prune ~log:cfg.sk_log ~dir:cfg.sk_dir ~keep:cfg.sk_keep ();
      cfg.sk_log (Printf.sprintf "checkpoint %s" path)
    end
  in
  let next_ck =
    (* First cadence boundary strictly ahead of where we start, so a
       resumed run does not immediately rewrite the checkpoint it just
       loaded. *)
    let at = E.current_cycle live.sim in
    ref
      (if cfg.sk_cadence <= 0 then max_int
       else ((at / cfg.sk_cadence) + 1) * cfg.sk_cadence)
  in
  let last_wall = ref (Unix.gettimeofday ()) in
  let wedged =
    try
      while E.current_cycle live.sim < cfg.sk_cycles do
        T.step live.traffic;
        let now = E.current_cycle live.sim in
        let due_cycles = now >= !next_ck in
        let due_wall =
          match cfg.sk_wall with
          | Some s -> Unix.gettimeofday () -. !last_wall >= s
          | None -> false
        in
        if due_cycles || due_wall then begin
          checkpoint ();
          while !next_ck <= now do
            next_ck := !next_ck + cfg.sk_cadence
          done;
          last_wall := Unix.gettimeofday ()
        end
      done;
      None
    with Tb.Timeout reason -> Some reason
  in
  (* What the run recorded, read before the watchdog's probe steps the
     design further. *)
  let cycles = E.current_cycle live.sim in
  let stats = T.stats live.traffic ~cycles in
  let violations =
    match live.monitor with Some m -> P.violations m | None -> []
  in
  let wedged = Option.map (diagnose live.sim ~at:cycles) wedged in
  (* A final checkpoint at the end cycle, so a later invocation with a
     larger horizon continues instead of starting over.  A wedged run
     writes none: its state is stuck in the middle of a transaction. *)
  if wedged = None && cfg.sk_cadence > 0 then checkpoint ();
  Ok
    {
      so_stats = stats;
      so_cycles = cycles;
      so_violations = violations;
      so_checkpoints = !written;
      so_resumed_at = resumed_at;
      so_skipped = skipped;
      so_wedged = wedged;
    }
