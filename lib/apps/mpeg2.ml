module P = Busgen_sim.Program
module Machine = Busgen_sim.Machine
module G = Bussyn.Generate

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

module Codec = struct
  type frame = int array

  let frame_width = 16
  let frame_pixels = frame_width * frame_width
  let blocks_per_frame = 4 (* four 8x8 luma blocks *)

  (* Instrumentation. *)
  let ops_idct = ref 0
  let bits_read = ref 0
  let ops_dq = ref 0
  let ops_mc = ref 0
  let frames_decoded = ref 0

  let reset_counts () =
    ops_idct := 0;
    bits_read := 0;
    ops_dq := 0;
    ops_mc := 0;
    frames_decoded := 0

  let synthetic_video ~frames =
    List.init frames (fun f ->
        Array.init frame_pixels (fun i ->
            let x = i mod frame_width and y = i / frame_width in
            let base = (x * 8) + (y * 4) in
            (* A moving bright block on the gradient. *)
            let bx = (f * 2) mod (frame_width - 4)
            and by = f mod (frame_width - 4) in
            let boost =
              if x >= bx && x < bx + 4 && y >= by && y < by + 4 then 96 else 0
            in
            min 255 (base + boost)))

  (* 8-point 1-D DCT-II / inverse, naive (the instrumented cost model
     counts its multiply-accumulates). *)
  let pi = 4.0 *. atan 1.0

  let cosine = Array.init 8 (fun u -> Array.init 8 (fun x ->
      cos ((2.0 *. float_of_int x +. 1.0) *. float_of_int u *. pi /. 16.0)))

  let dct1 line =
    Array.init 8 (fun u ->
        let cu = if u = 0 then 1.0 /. sqrt 2.0 else 1.0 in
        let s = ref 0.0 in
        for x = 0 to 7 do
          s := !s +. (line.(x) *. cosine.(u).(x))
        done;
        0.5 *. cu *. !s)

  let idct1 line =
    Array.init 8 (fun x ->
        let s = ref 0.0 in
        for u = 0 to 7 do
          incr ops_idct;
          let cu = if u = 0 then 1.0 /. sqrt 2.0 else 1.0 in
          s := !s +. (0.5 *. cu *. line.(u) *. cosine.(u).(x))
        done;
        !s)

  let transpose m =
    Array.init 8 (fun i -> Array.init 8 (fun j -> m.(j).(i)))

  let dct2 block = transpose (Array.map dct1 (transpose (Array.map dct1 block)))
  let idct2 block = transpose (Array.map idct1 (transpose (Array.map idct1 block)))

  (* Quantizer weight grows with frequency, MPEG-style. *)
  let quant_weight u v = 8 + (2 * (u + v))

  let zigzag =
    (* Standard 8x8 zig-zag order, generated. *)
    let order = Array.make 64 (0, 0) in
    let i = ref 0 in
    for s = 0 to 14 do
      let coords =
        List.filter
          (fun (u, v) -> u + v = s && u < 8 && v < 8)
          (List.concat_map
             (fun u -> List.map (fun v -> (u, v)) (List.init 8 (fun v -> v)))
             (List.init 8 (fun u -> u)))
      in
      let coords = if s mod 2 = 0 then List.rev coords else coords in
      List.iter
        (fun c ->
          order.(!i) <- c;
          incr i)
        coords
    done;
    order

  (* Extract 8x8 block [b] (0..3) of a 16x16 frame as floats. *)
  let block_of_frame frame b =
    let ox = (b mod 2) * 8 and oy = b / 2 * 8 in
    Array.init 8 (fun y ->
        Array.init 8 (fun x ->
            float_of_int frame.(((oy + y) * frame_width) + ox + x)))

  let blit_block frame b block =
    let ox = (b mod 2) * 8 and oy = b / 2 * 8 in
    for y = 0 to 7 do
      for x = 0 to 7 do
        frame.(((oy + y) * frame_width) + ox + x) <- block.(y).(x)
      done
    done

  let clamp v = if v < 0 then 0 else if v > 255 then 255 else v

  let encode_block bs block =
    let coefs = dct2 block in
    let q =
      Array.init 64 (fun k ->
          let u, v = zigzag.(k) in
          let w = float_of_int (quant_weight u v) in
          int_of_float (Float.round (coefs.(u).(v) /. w)))
    in
    (* (run, level) pairs: run:6 bits, sign:1, magnitude:9; EOB = run 63. *)
    let run = ref 0 in
    Array.iter
      (fun level ->
        if level = 0 then incr run
        else begin
          Bits_stream.put bs ~bits:6 !run;
          Bits_stream.put bs ~bits:1 (if level < 0 then 1 else 0);
          Bits_stream.put bs ~bits:9 (min 511 (abs level));
          run := 0
        end)
      q;
    Bits_stream.put bs ~bits:6 63

  let decode_block r =
    let q = Array.make 64 0 in
    let pos = ref 0 in
    let rec go () =
      let run = Bits_stream.get r ~bits:6 in
      bits_read := !bits_read + 6;
      if run <> 63 then begin
        let sign = Bits_stream.get r ~bits:1 in
        let mag = Bits_stream.get r ~bits:9 in
        bits_read := !bits_read + 10;
        pos := !pos + run;
        if !pos < 64 then q.(!pos) <- (if sign = 1 then -mag else mag);
        incr pos;
        go ()
      end
    in
    go ();
    let coefs = Array.make_matrix 8 8 0.0 in
    Array.iteri
      (fun k (u, v) ->
        incr ops_dq;
        coefs.(u).(v) <- float_of_int (q.(k) * quant_weight u v))
      zigzag;
    idct2 coefs

  let encode_frame bs ~intra ~reference frame =
    Bits_stream.put bs ~bits:1 (if intra then 1 else 0);
    for b = 0 to blocks_per_frame - 1 do
      let target = block_of_frame frame b in
      let source =
        if intra then Array.map (Array.map (fun p -> p -. 128.0)) target
        else
          let rb = block_of_frame (Option.get reference) b in
          Array.init 8 (fun y ->
              Array.init 8 (fun x -> target.(y).(x) -. rb.(y).(x)))
      in
      encode_block bs source
    done

  let decode_frame r ~reference =
    incr frames_decoded;
    let intra = Bits_stream.get r ~bits:1 = 1 in
    bits_read := !bits_read + 1;
    let frame = Array.make frame_pixels 0 in
    for b = 0 to blocks_per_frame - 1 do
      let block = decode_block r in
      let out =
        if intra then
          Array.map (Array.map (fun p -> clamp (int_of_float (Float.round (p +. 128.0))))) block
        else begin
          let rb = block_of_frame (Option.get reference) b in
          Array.init 8 (fun y ->
              Array.init 8 (fun x ->
                  incr ops_mc;
                  clamp (int_of_float (Float.round (block.(y).(x) +. rb.(y).(x))))))
        end
      in
      blit_block frame b out
    done;
    frame

  let encode frames =
    if List.length frames mod 2 <> 0 then
      invalid_arg "Mpeg2.encode: GOPs hold I+P frame pairs";
    let bs = Bits_stream.create () in
    Bits_stream.put bs ~bits:8 0xB3; (* sequence header magic *)
    Bits_stream.put bs ~bits:8 (List.length frames / 2);
    let rec gops = function
      | [] -> ()
      | i_frame :: p_frame :: rest ->
          Bits_stream.put bs ~bits:8 0xB8; (* GOP header *)
          encode_frame bs ~intra:true ~reference:None i_frame;
          (* The reference for P is the DECODED I frame, as a real
             encoder reconstructs. *)
          let tmp = Bits_stream.create () in
          encode_frame tmp ~intra:true ~reference:None i_frame;
          let r = Bits_stream.reader tmp in
          let recon = decode_frame r ~reference:None in
          encode_frame bs ~intra:false ~reference:(Some recon) p_frame;
          gops rest
      | [ _ ] -> assert false
    in
    gops frames;
    bs

  let decode bs =
    let r = Bits_stream.reader bs in
    let magic = Bits_stream.get r ~bits:8 in
    if magic <> 0xB3 then invalid_arg "Mpeg2.decode: bad sequence header";
    let n_gops = Bits_stream.get r ~bits:8 in
    bits_read := !bits_read + 16;
    List.concat
      (List.init n_gops (fun _ ->
           let gop_hdr = Bits_stream.get r ~bits:8 in
           bits_read := !bits_read + 8;
           if gop_hdr <> 0xB8 then invalid_arg "Mpeg2.decode: bad GOP header";
           let i_frame = decode_frame r ~reference:None in
           let p_frame = decode_frame r ~reference:(Some i_frame) in
           [ i_frame; p_frame ]))

  let psnr a b =
    let mse = ref 0.0 in
    Array.iteri
      (fun i pa ->
        let d = float_of_int (pa - b.(i)) in
        mse := !mse +. (d *. d))
      a;
    let mse = !mse /. float_of_int (Array.length a) in
    if mse = 0.0 then infinity else 10.0 *. log10 (255.0 *. 255.0 /. mse)

  (* Per-operation weights plus a per-frame syntax/driver overhead,
     calibrated to the MSSG reference decoder's per-frame cost the paper
     measured on the MPC755 (Table III implies roughly 0.7M bus cycles
     per 16x16 frame, dominated by fixed parsing/driver work at this
     tiny picture size). *)
  let c_idct = 24
  let c_vld_bit = 30
  let c_dq = 12
  let c_mc = 16
  let c_frame_syntax = 560_000

  let default_gops = 8

  let cost_cache = ref None

  let gop_cycles () =
    match !cost_cache with
    | Some c -> c
    | None ->
        reset_counts ();
        let video = synthetic_video ~frames:(2 * default_gops) in
        let bs = encode video in
        reset_counts ();
        let _ = decode bs in
        let total =
          (!ops_idct * c_idct) + (!bits_read * c_vld_bit) + (!ops_dq * c_dq)
          + (!ops_mc * c_mc)
          + (!frames_decoded * c_frame_syntax)
        in
        let per_gop = total * 2 / !frames_decoded in
        cost_cache := Some per_gop;
        per_gop

  let gop_stream_words =
    let video = synthetic_video ~frames:(2 * default_gops) in
    let bs = encode video in
    let bits = Bits_stream.length_bits bs in
    ((bits / default_gops) + 63) / 64

  let frame_words = frame_pixels * 8 / 64 (* 8bpp pixels on a 64-bit bus *)

  let bits_per_gop = 2 * frame_pixels * 8
end

(* ------------------------------------------------------------------ *)
(* FPA mapping (paper Fig. 27b)                                        *)
(* ------------------------------------------------------------------ *)

let supported = function
  | G.Bfba | G.Gbavi | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ccba | G.Ggba
  | G.Splitba ->
      true

(* Decode compute is split into pieces so relaying BANs can service
   their inbound FIFOs between pieces (the paper's interrupt handler). *)
let pieces = 4

let decode_pieces () =
  let c = Codec.gop_cycles () in
  List.init pieces (fun i ->
      (* Distribute the remainder over the first pieces. *)
      (c / pieces) + (if i < c mod pieces then 1 else 0))

let io_cost = Codec.gop_stream_words * 2

(* Shared-memory distribution (GBAVIII / Hybrid / CCBA / GGBA /
   SplitBA): PE0 feeds GOPs through the global memory; workers deliver
   decoded frames to the last PE for output. *)
let shared_programs arch ~n_pes ~gops =
  let last = n_pes - 1 in
  let home pe =
    match arch with
    | G.Splitba -> if pe < n_pes / 2 then 0 else 1
    | G.Bfba | G.Gbavi | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ggba | G.Ccba ->
        0
  in
  let rdy w = Printf.sprintf "mrdy_%d#%d" w (home w) in
  let ack w = Printf.sprintf "mack_%d#%d" w (home w) in
  let out g = Printf.sprintf "mout_%d#0" g in
  let deliver pe g =
    (* Hand both decoded frames of GOP g to the output BAN.  Hybrid
       sends from the adjacent BAN over the Bi-FIFO (its advantage in
       Table III); everything else goes through the global memory. *)
    if pe = last then [ P.Compute (2 * Codec.frame_words) ]
    else
      match arch with
      | G.Hybrid when pe = last - 1 ->
          fst (Comm.transfer arch ~src:pe ~dst:last ~tag:"fr"
                 (2 * Codec.frame_words))
      | _ ->
          [
            P.Write (P.Loc_global, 2 * Codec.frame_words);
            P.Set_flag (P.Var_flag (out g), true);
          ]
  in
  let collect pe g =
    (* The output BAN consumes GOP g's frames in display order. *)
    if pe <> last then []
    else if g mod n_pes = last then []
    else
      match arch with
      | G.Hybrid when g mod n_pes = last - 1 ->
          snd (Comm.transfer arch ~src:(last - 1) ~dst:last ~tag:"fr"
                 (2 * Codec.frame_words))
          @ [ P.Compute (2 * Codec.frame_words) ]
      | _ ->
          [
            P.Wait_flag (P.Var_flag (out g), true);
            P.Set_flag (P.Var_flag (out g), false);
            P.Read (P.Loc_global, 2 * Codec.frame_words);
            P.Compute (2 * Codec.frame_words);
          ]
  in
  Array.init n_pes (fun pe ->
      let ops = ref [] in
      let emit l = ops := !ops @ l in
      emit (Comm.fifo_setup arch ~pe);
      (* Distribution (PE0 only), double-buffered per worker. *)
      if pe = 0 then begin
        let first = Hashtbl.create 8 in
        List.iter
          (fun g ->
            let w = g mod n_pes in
            if w <> 0 then begin
              match arch with
              | G.Hybrid when w = 1 ->
                  (* The adjacent worker is fed over the Bi-FIFO, off the
                     global bus — part of the Hybrid's advantage. *)
                  emit [ P.Compute io_cost ];
                  emit (fst (Comm.transfer arch ~src:0 ~dst:1 ~tag:"raw"
                               Codec.gop_stream_words))
              | _ ->
                  if Hashtbl.mem first w then
                    emit
                      [
                        P.Wait_flag (P.Var_flag (ack w), true);
                        P.Set_flag (P.Var_flag (ack w), false);
                      ]
                  else Hashtbl.add first w ();
                  emit
                    [
                      P.Compute io_cost;
                      P.Write (P.Loc_global, Codec.gop_stream_words);
                      P.Set_flag (P.Var_flag (rdy w), true);
                    ]
            end)
          (List.init gops (fun g -> g))
      end;
      (* Decode own share; the output BAN first fetches its own raw
         data each round (so the distributor is never blocked on it),
         then collects the round's frames in display order. *)
      let rounds = (gops + n_pes - 1) / n_pes in
      let fetch_raw _g =
        if pe = 0 then [ P.Compute io_cost ]
        else
          match arch with
          | G.Hybrid when pe = 1 ->
              snd (Comm.transfer arch ~src:0 ~dst:1 ~tag:"raw"
                     Codec.gop_stream_words)
          | _ ->
              [
                P.Wait_flag (P.Var_flag (rdy pe), true);
                P.Set_flag (P.Var_flag (rdy pe), false);
                P.Read (P.Loc_global, Codec.gop_stream_words);
                P.Set_flag (P.Var_flag (ack pe), true);
              ]
      in
      let decode_own g =
        List.map (fun c -> P.Compute c) (decode_pieces ())
        @ [
            P.Write (P.Loc_local, Codec.frame_words);
            P.Read (P.Loc_local, Codec.frame_words);
          ]
        @ deliver pe g
        @ [ P.Mark "gop" ]
      in
      for r = 0 to rounds - 1 do
        let own = (r * n_pes) + pe in
        if own < gops then begin
          emit (fetch_raw own);
          (* Decode first; the output BAN then gathers the others'
             frames and emits the round in display order (its own GOP is
             last in the round anyway). *)
          emit (decode_own own);
          if pe = last then
            List.iter
              (fun w ->
                let g = (r * n_pes) + w in
                if g < gops then emit (collect pe g))
              (List.init (n_pes - 1) (fun w -> w))
        end
      done;
      emit [ P.Halt ];
      P.of_list !ops)

(* Relay distribution (BFBA / GBAVI): the stream and the decoded frames
   hop from BAN to BAN (the paper: "the data to be processed in each BAN
   has to be passed from BAN A to each BAN sequentially").  Relaying
   BANs service their inbound link between decode pieces — the Bi-FIFO
   interrupt handler / polling loop of the paper — so downstream BANs
   start each round one piece later per hop instead of a full decode. *)
let relay_programs arch ~n_pes ~gops =
  if n_pes <> 4 then
    invalid_arg "Mpeg2: the relay mapping is defined for four BANs";
  if gops mod n_pes <> 0 then
    invalid_arg "Mpeg2: relay mapping needs a whole number of rounds";
  let rounds = gops / n_pes in
  let raw_w = Codec.gop_stream_words in
  let fr_w = 2 * Codec.frame_words in
  let send ~src ~dst words = fst (Comm.transfer arch ~src ~dst ~tag:"r" words) in
  let recv ~src ~dst words = snd (Comm.transfer arch ~src ~dst ~tag:"r" words) in
  let store_ref =
    [ P.Write (P.Loc_local, Codec.frame_words);
      P.Read (P.Loc_local, Codec.frame_words) ]
  in
  Array.init n_pes (fun pe ->
      let ops = ref [] in
      let emit l = ops := !ops @ l in
      emit (Comm.fifo_setup arch ~pe);
      for _r = 0 to rounds - 1 do
        (match pe with
        | 0 ->
            (* BAN A: read and forward the three raw GOPs of the round,
               then decode its own, then send its decoded frames. *)
            for _j = 1 to 3 do
              emit [ P.Compute io_cost ];
              emit (send ~src:0 ~dst:1 raw_w)
            done;
            emit [ P.Compute io_cost ];
            List.iter (fun c -> emit [ P.Compute c ]) (decode_pieces ());
            emit store_ref;
            emit (send ~src:0 ~dst:1 fr_w)
        | 1 ->
            emit (recv ~src:0 ~dst:1 raw_w);
            List.iteri
              (fun i c ->
                emit [ P.Compute c ];
                (* Service the link between pieces: forward the later
                   BANs' raw data one hop. *)
                if i = 0 || i = 1 then begin
                  emit (recv ~src:0 ~dst:1 raw_w);
                  emit (send ~src:1 ~dst:2 raw_w)
                end)
              (decode_pieces ());
            emit store_ref;
            (* Relay BAN A's decoded frames, then send our own. *)
            emit (recv ~src:0 ~dst:1 fr_w);
            emit (send ~src:1 ~dst:2 fr_w);
            emit (send ~src:1 ~dst:2 fr_w)
        | 2 ->
            emit (recv ~src:1 ~dst:2 raw_w);
            List.iteri
              (fun i c ->
                emit [ P.Compute c ];
                if i = 0 then begin
                  emit (recv ~src:1 ~dst:2 raw_w);
                  emit (send ~src:2 ~dst:3 raw_w)
                end)
              (decode_pieces ());
            emit store_ref;
            emit (recv ~src:1 ~dst:2 fr_w);
            emit (send ~src:2 ~dst:3 fr_w);
            emit (recv ~src:1 ~dst:2 fr_w);
            emit (send ~src:2 ~dst:3 fr_w);
            emit (send ~src:2 ~dst:3 fr_w)
        | _ ->
            (* BAN D: decode its own GOP, collect everyone's frames and
               output the round in display order. *)
            emit (recv ~src:2 ~dst:3 raw_w);
            List.iter (fun c -> emit [ P.Compute c ]) (decode_pieces ());
            emit store_ref;
            emit (recv ~src:2 ~dst:3 fr_w);
            emit (recv ~src:2 ~dst:3 fr_w);
            emit (recv ~src:2 ~dst:3 fr_w);
            emit [ P.Compute (n_pes * fr_w); P.Mark "gop" ])
      done;
      emit [ P.Halt ];
      P.of_list !ops)

let programs ~arch ~n_pes ~gops =
  if not (supported arch) then
    invalid_arg
      (Printf.sprintf "Mpeg2: %s is not supported" (G.arch_name arch));
  match arch with
  | G.Bfba | G.Gbavi -> relay_programs arch ~n_pes ~gops
  | G.Gbavii | G.Gbaviii | G.Hybrid | G.Ccba | G.Ggba | G.Splitba ->
      shared_programs arch ~n_pes ~gops

type result = {
  stats : Machine.stats;
  gops : int;
  throughput_mbps : float;
}

let var_home name =
  match String.index_opt name '#' with
  | None -> 0
  | Some i ->
      int_of_string (String.sub name (i + 1) (String.length name - i - 1))

let run ?(gops = 8) ?config ?faults ?max_cycles ?(trace = false) arch =
  let n_pes = 4 in
  let config =
    match config with
    | Some c -> c
    | None ->
        let base = Machine.default_config arch ~n_pes in
        (* The MSSG decoder is a large program (8788 lines of C, paper
           Section VI.A.3): its instruction working set misses far more
           than the small OFDM kernel, which is what penalises the
           architectures that fetch code over the shared bus (CCBA's
           5-cycle arbitration, Table III). *)
        let timing =
          { base.Machine.timing with
            Busgen_sim.Timing.miss_rate_num = 1; miss_rate_den = 50 }
        in
        { base with Machine.var_home; timing; trace }
  in
  let config =
    match faults with None -> config | Some _ -> { config with Machine.faults }
  in
  let programs = programs ~arch ~n_pes ~gops in
  let stats = Machine.run ?max_cycles config programs in
  {
    stats;
    gops;
    throughput_mbps =
      Machine.throughput_mbps
        ~bits:(gops * Codec.bits_per_gop)
        ~cycles:stats.Machine.cycles;
  }
