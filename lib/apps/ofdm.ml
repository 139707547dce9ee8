module P = Busgen_sim.Program
module Machine = Busgen_sim.Machine
module G = Bussyn.Generate

(* ------------------------------------------------------------------ *)
(* Signal-processing kernels (real, instrumented)                      *)
(* ------------------------------------------------------------------ *)

module Kernel = struct
  let data_samples = 2048
  let guard_samples = 512
  let bits_per_packet = 2 * data_samples (* QPSK *)

  (* Instrumentation counters: number of primitive operations actually
     executed by each kernel. *)
  let ops_map = ref 0
  let ops_rev = ref 0
  let ops_bfly = ref 0
  let ops_norm = ref 0
  let ops_guard = ref 0

  let reset_counts () =
    ops_map := 0;
    ops_rev := 0;
    ops_bfly := 0;
    ops_norm := 0;
    ops_guard := 0

  let symbol_map bits =
    if Array.length bits <> bits_per_packet then
      invalid_arg "Ofdm.symbol_map: wrong bit count";
    Array.init data_samples (fun i ->
        incr ops_map;
        let re = if bits.(2 * i) = 0 then 1.0 else -1.0 in
        let im = if bits.((2 * i) + 1) = 0 then 1.0 else -1.0 in
        { Complex.re; im })

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  let bit_reverse_permute x =
    let n = Array.length x in
    if not (is_pow2 n) then
      invalid_arg "Ofdm.bit_reverse_permute: length not a power of two";
    let bits =
      let rec go k = if 1 lsl k = n then k else go (k + 1) in
      go 0
    in
    Array.init n (fun i ->
        incr ops_rev;
        let rec rev acc k i =
          if k = 0 then acc else rev ((acc lsl 1) lor (i land 1)) (k - 1) (i lsr 1)
        in
        x.(rev 0 bits i))

  (* Radix-2 DIT transform on bit-reversed input.  [sign] = +1. for the
     inverse transform, -1. for the forward one. *)
  let transform sign x =
    let n = Array.length x in
    if not (is_pow2 n) then invalid_arg "Ofdm.transform: length not a power of two";
    let a = Array.copy x in
    let m = ref 2 in
    while !m <= n do
      let half = !m / 2 in
      let step = sign *. 2.0 *. Float.pi /. float_of_int !m in
      for k = 0 to (n / !m) - 1 do
        for j = 0 to half - 1 do
          incr ops_bfly;
          let w = { Complex.re = cos (step *. float_of_int j);
                    im = sin (step *. float_of_int j) } in
          let i1 = (k * !m) + j in
          let i2 = i1 + half in
          let t = Complex.mul w a.(i2) in
          let u = a.(i1) in
          a.(i1) <- Complex.add u t;
          a.(i2) <- Complex.sub u t
        done
      done;
      m := !m * 2
    done;
    a

  let ifft x = transform 1.0 x

  let fft x =
    (* Natural-order input: permute first. *)
    transform (-1.0) (bit_reverse_permute x)

  let normalize x =
    let n = float_of_int (Array.length x) in
    Array.map
      (fun c ->
        incr ops_norm;
        { Complex.re = c.Complex.re /. n; im = c.Complex.im /. n })
      x

  let add_guard x =
    let n = Array.length x in
    if n < guard_samples then invalid_arg "Ofdm.add_guard: packet too short";
    Array.init (n + guard_samples) (fun i ->
        incr ops_guard;
        if i < guard_samples then x.(n - guard_samples + i)
        else x.(i - guard_samples))

  let transmit bits =
    let symbols = symbol_map bits in
    let rev = bit_reverse_permute symbols in
    let time = ifft rev in
    let scaled = normalize time in
    add_guard scaled

  let remove_guard x =
    let n = Array.length x in
    if n <= guard_samples then
      invalid_arg "Ofdm.remove_guard: packet too short";
    Array.sub x guard_samples (n - guard_samples)

  let symbol_demap symbols =
    if Array.length symbols <> data_samples then
      invalid_arg "Ofdm.symbol_demap: wrong symbol count";
    let bits = Array.make bits_per_packet 0 in
    Array.iteri
      (fun i c ->
        bits.(2 * i) <- (if c.Complex.re >= 0.0 then 0 else 1);
        bits.((2 * i) + 1) <- (if c.Complex.im >= 0.0 then 0 else 1))
      symbols;
    bits

  let receive samples =
    (* The inverse chain: strip the cyclic prefix, forward transform
       back to subcarriers (transmit already folded in the 1/N), and
       slice each QPSK symbol to bits. *)
    let time = remove_guard samples in
    let symbols = fft time in
    symbol_demap symbols

  (* Per-operation cycle weights.  Calibrated so the four function
     groups of paper Table I carry the MPC755 stage balance the paper
     reports: the IFFT (group F) is the heaviest pipeline stage and is
     roughly 40-45% of a packet's total work, which reproduces the
     paper's FPA-over-PPA advantage (Table II observation A). *)
  let c_datagen = 45 (* data generation + QPSK mapping, per sample *)
  let c_rev = 4
  let c_bfly = 13
  let c_norm = 16
  let c_guard = 16
  let c_output = 20 (* data output, per transmitted sample *)

  let stage_cycles () =
    reset_counts ();
    let bits = Array.init bits_per_packet (fun i -> (i * 7 / 3) land 1) in
    let out = transmit bits in
    let e = (!ops_map * c_datagen) + (!ops_rev * c_rev) in
    let f = !ops_bfly * c_bfly in
    let g = !ops_norm * c_norm in
    let h = (!ops_guard * c_guard / 4) + (Array.length out * c_output) in
    (e, f, g, h)
end

(* ------------------------------------------------------------------ *)
(* Program construction                                                *)
(* ------------------------------------------------------------------ *)

let function_groups =
  [
    ( "E", "BAN A",
      [ "Initialization (channel parameters, etc)*";
        "Train Pulse Generation*"; "Symbol Generation*";
        "Data Generation and Symbol Mapping"; "Bit Reverse for Inverse FFT" ] );
    ("F", "BAN B", [ "Inverse FFT" ]);
    ("G", "BAN C", [ "Normalizing Inverse FFT" ]);
    ( "H", "BAN D",
      [ "Normalization"; "Insertion of Guard Signal"; "Data Output" ] );
  ]

type style = Ppa | Fpa

let style_name = function Ppa -> "PPA" | Fpa -> "FPA"

let packet_words = Kernel.data_samples + Kernel.guard_samples
(* One 64-bit bus word per complex sample (two packed 32-bit floats). *)

let chunk = Comm.chunk

let transfer ?protocol arch ~src ~dst words =
  Comm.transfer ?protocol arch ~src ~dst ~tag:"s" words

let supported arch style =
  match (arch, style) with
  | G.Splitba, Ppa -> false (* paper Table II: SplitBA runs FPA only *)
  | ( ( G.Bfba | G.Gbavi | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ggba | G.Ccba
      | G.Splitba ),
      (Ppa | Fpa) ) ->
      true

(* Stage compute costs. *)
let stages = lazy (Kernel.stage_cycles ())

let stage_cost k =
  let e, f, g, h = Lazy.force stages in
  match k with 0 -> e | 1 -> f | 2 -> g | 3 -> h | _ -> assert false

let total_cost () =
  let e, f, g, h = Lazy.force stages in
  e + f + g + h

let ppa_programs ?protocol arch ~n_pes ~packets =
  if n_pes <> 4 then
    invalid_arg "Ofdm: PPA maps the four function groups onto four PEs";
  Array.init n_pes (fun k ->
      let recv_ops =
        if k = 0 then []
        else snd (transfer ?protocol arch ~src:(k - 1) ~dst:k packet_words)
      in
      let send_ops =
        if k = n_pes - 1 then []
        else fst (transfer ?protocol arch ~src:k ~dst:(k + 1) packet_words)
      in
      let mark = if k = n_pes - 1 then [ P.Mark "packet" ] else [] in
      let body _ = recv_ops @ [ P.Compute (stage_cost k) ] @ send_ops @ mark in
      let setup =
        (* Program the inbound Bi-FIFO threshold (paper Example 4). *)
        match arch with
        | (G.Bfba | G.Hybrid) when k > 0 ->
            [ P.Fifo_set_threshold (k, chunk) ]
        | G.Bfba | G.Hybrid | G.Gbavi | G.Gbavii | G.Gbaviii | G.Splitba
        | G.Ggba | G.Ccba ->
            []
      in
      P.concat
        [ P.of_list setup; P.repeat packets body; P.of_list [ P.Halt ] ])

(* -------------------- FPA: whole chain per BAN --------------------- *)

let io_cost = packet_words (* reading the raw packet from the source *)

(* Shared-memory FPA (GBAVIII, Hybrid, GGBA, CCBA, SplitBA): a
   distributor PE feeds raw packets to its workers through the shared
   memory; every PE runs the full chain on its own packets (paper
   Example 5 / Fig. 26b). *)
let fpa_shared_programs arch ~n_pes ~packets =
  let home pe =
    match arch with
    | G.Splitba -> if pe < n_pes / 2 then 0 else 1
    | G.Bfba | G.Gbavi | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ggba | G.Ccba ->
        0
  in
  let distributor_of pe =
    match arch with
    | G.Splitba -> if pe < n_pes / 2 then 0 else n_pes / 2
    | G.Bfba | G.Gbavi | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ggba | G.Ccba ->
        0
  in
  let rdy w = Printf.sprintf "rdy_%d#%d" w (home w) in
  let ack w = Printf.sprintf "ack_%d#%d" w (home w) in
  let packet_list pe =
    (* Round-robin packet assignment. *)
    List.filter (fun p -> p mod n_pes = pe) (List.init packets (fun p -> p))
  in
  let full_chain = [ P.Compute (total_cost ()) ] in
  Array.init n_pes (fun pe ->
      let is_distributor = distributor_of pe = pe in
      let my_packets = packet_list pe in
      let worker_loop =
        List.concat_map
          (fun _p ->
            if is_distributor then
              (* Own packet: read the source and process directly. *)
              [ P.Compute io_cost ] @ full_chain
              @ [ P.Write (P.Loc_global, packet_words) ]
            else
              [
                P.Wait_flag (P.Var_flag (rdy pe), true);
                P.Set_flag (P.Var_flag (rdy pe), false);
                P.Read (P.Loc_global, packet_words);
                P.Set_flag (P.Var_flag (ack pe), true);
              ]
              @ full_chain
              @ [ P.Write (P.Loc_global, packet_words) ])
          my_packets
      in
      let distribution =
        if not is_distributor then []
        else begin
          (* Feed every other worker this distributor serves.  Each
             worker has one raw buffer; the first fill needs no wait,
             refills wait for the worker's consumption ack, so
             distribution of round r+1 overlaps the workers' round-r
             computation. *)
          let first = Hashtbl.create 8 in
          List.concat_map
            (fun p ->
              let w = p mod n_pes in
              if w = pe || distributor_of w <> pe then []
              else
                let refill =
                  if Hashtbl.mem first w then
                    [
                      P.Wait_flag (P.Var_flag (ack w), true);
                      P.Set_flag (P.Var_flag (ack w), false);
                    ]
                  else begin
                    Hashtbl.add first w ();
                    []
                  end
                in
                refill
                @ [
                    P.Compute io_cost;
                    P.Write (P.Loc_global, packet_words);
                    P.Set_flag (P.Var_flag (rdy w), true);
                  ])
            (List.init packets (fun p -> p))
        end
      in
      P.concat
        [ P.of_list distribution; P.of_list worker_loop; P.of_list [ P.Halt ] ])

(* Relay FPA (BFBA / GBAVI): raw packets hop BAN to BAN (paper
   Section IV.C.2: non-adjacent PEs relay sequentially). *)
let fpa_relay_programs arch ~n_pes ~packets =
  let full_chain = [ P.Compute (total_cost ()) ] in
  Array.init n_pes (fun pe ->
      let ops = ref [] in
      let emit l = ops := !ops @ l in
      if (match arch with G.Bfba | G.Hybrid -> pe > 0 | _ -> false) then
        emit [ P.Fifo_set_threshold (pe, chunk) ];
      List.iter
        (fun p ->
          let w = p mod n_pes in
          if pe = 0 then begin
            if w = 0 then emit ([ P.Compute io_cost ] @ full_chain)
            else begin
              emit [ P.Compute io_cost ];
              emit (fst (transfer arch ~src:0 ~dst:1 packet_words))
            end
          end
          else if pe <= w then begin
            (* Receive the packet from upstream... *)
            emit (snd (transfer arch ~src:(pe - 1) ~dst:pe packet_words));
            if pe = w then emit full_chain
            else
              (* ...and relay it downstream. *)
              emit (fst (transfer arch ~src:pe ~dst:(pe + 1) packet_words))
          end)
        (List.init packets (fun p -> p));
      emit [ P.Halt ];
      P.of_list !ops)

let programs ?protocol ~arch ~style ~n_pes ~packets () =
  if not (supported arch style) then
    invalid_arg
      (Printf.sprintf "Ofdm: %s does not support %s" (G.arch_name arch)
         (style_name style));
  match style with
  | Ppa -> ppa_programs ?protocol arch ~n_pes ~packets
  | Fpa -> (
      match arch with
      | G.Bfba | G.Gbavi -> fpa_relay_programs arch ~n_pes ~packets
      | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ggba | G.Ccba | G.Splitba ->
          fpa_shared_programs arch ~n_pes ~packets)

type result = {
  stats : Machine.stats;
  packets : int;
  throughput_mbps : float;
}

let var_home name =
  match String.index_opt name '#' with
  | None -> 0
  | Some i ->
      int_of_string (String.sub name (i + 1) (String.length name - i - 1))

let run ?(packets = 8) ?config ?faults ?max_cycles ?protocol ?(trace = false)
    arch style =
  let n_pes = 4 in
  let config =
    match config with
    | Some c -> c
    | None ->
        { (Machine.default_config arch ~n_pes) with Machine.var_home;
          trace }
  in
  let config =
    match faults with None -> config | Some _ -> { config with Machine.faults }
  in
  let programs = programs ?protocol ~arch ~style ~n_pes ~packets () in
  let stats = Machine.run ?max_cycles config programs in
  let throughput_mbps =
    match style with
    | Fpa ->
        Machine.throughput_mbps
          ~bits:(packets * Kernel.bits_per_packet)
          ~cycles:stats.Machine.cycles
    | Ppa -> (
        (* Steady-state rate between successive packet completions at
           the last pipeline stage: the paper excludes one-time startup
           from its throughput (Section VI.A.2), which for a pipeline
           means excluding the fill. *)
        match
          List.filter_map
            (fun (l, t) -> if l = "packet" then Some t else None)
            stats.Machine.marks
        with
        | t0 :: (_ :: _ as rest) ->
            let tn = List.nth rest (List.length rest - 1) in
            Machine.throughput_mbps
              ~bits:(List.length rest * Kernel.bits_per_packet)
              ~cycles:(tn - t0)
        | [ _ ] | [] ->
            Machine.throughput_mbps
              ~bits:(packets * Kernel.bits_per_packet)
              ~cycles:stats.Machine.cycles)
  in
  { stats; packets; throughput_mbps }
