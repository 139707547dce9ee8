(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = Buffer.t

let writer () = Buffer.create 4096
let contents = Buffer.contents

let w_int b v =
  (* 8 little-endian bytes of the two's-complement value: every OCaml
     int round-trips, including negative ones. *)
  let v64 = Int64.of_int v in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical v64 (8 * i)) 0xFFL)))
  done

let w_bool b v = w_int b (if v then 1 else 0)

let w_raw = Buffer.add_string

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_list b f l =
  w_int b (List.length l);
  List.iter (f b) l

let w_array b f a =
  w_int b (Array.length a);
  Array.iter (f b) a

let w_opt b f = function
  | None -> w_bool b false
  | Some v ->
      w_bool b true;
      f b v

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Corrupt of string

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }

let corrupt r what =
  raise (Corrupt (Printf.sprintf "%s at byte %d" what r.pos))

let r_int r =
  if r.pos + 8 > String.length r.src then corrupt r "truncated integer";
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor
        (Int64.shift_left !v 8)
        (Int64.of_int (Char.code r.src.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  (* Values outside the native [int] range cannot have been produced by
     [w_int]; reject them instead of silently wrapping. *)
  if Int64.of_int (Int64.to_int !v) <> !v then corrupt r "integer overflow";
  Int64.to_int !v

let r_bool r =
  match r_int r with
  | 0 -> false
  | 1 -> true
  | _ -> corrupt r "malformed boolean"

let r_string r =
  let n = r_int r in
  if n < 0 || r.pos + n > String.length r.src then corrupt r "truncated string";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_seq r f =
  let n = r_int r in
  if n < 0 || r.pos + n > String.length r.src then
    (* Every element is at least one byte; an n beyond the remaining
       input is corrupt, and checking here bounds allocation. *)
    corrupt r "malformed sequence length";
  (n, f)

(* [List.init] / [Array.init] do not specify their evaluation order,
   and decoding must be strictly sequential. *)
let r_list r f =
  let n, f = r_seq r f in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f r :: acc) in
  go n []

let r_array r f =
  let n, f = r_seq r f in
  if n = 0 then [||]
  else begin
    let a = Array.make n (f r) in
    for i = 1 to n - 1 do
      a.(i) <- f r
    done;
    a
  end

let r_opt r f = if r_bool r then Some (f r) else None

let at_end r = r.pos = String.length r.src
let pos r = r.pos

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3 / zlib polynomial, reflected, table-driven)      *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
    s;
  !crc lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let frame_overhead = 16

(* The same bytes as [w_int len; w_raw payload; w_int (crc32 payload)],
   built in one allocation. *)
let frame payload =
  let n = String.length payload in
  let b = Bytes.create (n + frame_overhead) in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.blit_string payload 0 b 8 n;
  Bytes.set_int64_le b (n + 8) (Int64.of_int (crc32 payload));
  Bytes.unsafe_to_string b
