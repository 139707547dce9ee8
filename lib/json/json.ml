(* Hand-rolled recursive-descent JSON.  See the .mli for the hardening
   contract (caller-capped input size, parser-capped depth, no
   exceptions escape parse) and the canonical-printing contract. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int; max_depth : int }

let fail st msg = raise (Bad (Printf.sprintf "%s at byte %d" msg st.pos))
let eof st = st.pos >= String.length st.src
let peek st = st.src.[st.pos]
let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    (not (eof st))
    && (match peek st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance st
  done

let expect st c =
  if eof st || peek st <> c then fail st (Printf.sprintf "expected '%c'" c);
  advance st

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let parse_u16 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d = hex_digit (peek st) in
    if d < 0 then fail st "bad \\u escape";
    v := (!v * 16) + d;
    advance st
  done;
  !v

(* Encode a Unicode scalar value as UTF-8 into [buf]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof st then fail st "unterminated string";
    match peek st with
    | '"' -> advance st
    | '\\' ->
      advance st;
      if eof st then fail st "unterminated escape";
      let c = peek st in
      advance st;
      (match c with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        let hi = parse_u16 st in
        if hi >= 0xD800 && hi <= 0xDBFF then begin
          (* surrogate pair *)
          if
            st.pos + 2 <= String.length st.src
            && peek st = '\\'
            && st.src.[st.pos + 1] = 'u'
          then begin
            advance st;
            advance st;
            let lo = parse_u16 st in
            if lo < 0xDC00 || lo > 0xDFFF then fail st "bad surrogate pair";
            add_utf8 buf
              (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else fail st "lone high surrogate"
        end
        else if hi >= 0xDC00 && hi <= 0xDFFF then fail st "lone low surrogate"
        else add_utf8 buf hi
      | _ -> fail st "bad escape");
      loop ()
    | c when Char.code c < 0x20 -> fail st "raw control char in string"
    | c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  if (not (eof st)) && peek st = '-' then advance st;
  let digits () =
    let n = ref 0 in
    while (not (eof st)) && match peek st with '0' .. '9' -> true | _ -> false
    do
      advance st;
      incr n
    done;
    if !n = 0 then fail st "bad number"
  in
  digits ();
  if (not (eof st)) && peek st = '.' then begin
    is_float := true;
    advance st;
    digits ()
  end;
  if (not (eof st)) && (peek st = 'e' || peek st = 'E') then begin
    is_float := true;
    advance st;
    if (not (eof st)) && (peek st = '+' || peek st = '-') then advance st;
    digits ()
  end;
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value st depth =
  if depth > st.max_depth then fail st "nesting too deep";
  skip_ws st;
  if eof st then fail st "unexpected end of input";
  match peek st with
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '"' -> String (parse_string st)
  | '[' ->
    advance st;
    skip_ws st;
    if (not (eof st)) && peek st = ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [] in
      let rec elems () =
        items := parse_value st (depth + 1) :: !items;
        skip_ws st;
        if eof st then fail st "unterminated array";
        match peek st with
        | ',' ->
          advance st;
          elems ()
        | ']' -> advance st
        | _ -> fail st "expected ',' or ']'"
      in
      elems ();
      List (List.rev !items)
    end
  | '{' ->
    advance st;
    skip_ws st;
    if (not (eof st)) && peek st = '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        fields := (k, v) :: !fields;
        skip_ws st;
        if eof st then fail st "unterminated object";
        match peek st with
        | ',' ->
          advance st;
          members ()
        | '}' -> advance st
        | _ -> fail st "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse ?(max_depth = 32) src =
  let st = { src; pos = 0; max_depth } in
  match
    let v = parse_value st 0 in
    skip_ws st;
    if not (eof st) then fail st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
  | exception _ -> Error "malformed JSON"

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      (* Canonical: NaN/inf have no JSON spelling, clamp to null. *)
      if Float.is_nan f || Float.abs f = Float.infinity then
        Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else begin
        (* Shortest representation that parses back to exactly [f]:
           %.12g loses up to 5 bits, which broke byte-identical journal
           replay of scores.  17 significant digits always suffice for
           an IEEE double; prefer fewer when they round-trip. *)
        let s15 = Printf.sprintf "%.15g" f in
        if float_of_string s15 = f then Buffer.add_string buf s15
        else
          let s16 = Printf.sprintf "%.16g" f in
          if float_of_string s16 = f then Buffer.add_string buf s16
          else Buffer.add_string buf (Printf.sprintf "%.17g" f)
      end
    | String s -> escape_into buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let get_string = function String s -> Some s | _ -> None
let get_int = function Int i -> Some i | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
