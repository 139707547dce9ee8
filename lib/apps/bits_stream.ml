type t = { mutable buf : Bytes.t; mutable len_bits : int }

let create () = { buf = Bytes.make 64 '\000'; len_bits = 0 }

let ensure t bits =
  let needed = (t.len_bits + bits + 7) / 8 in
  if needed > Bytes.length t.buf then begin
    let nb = Bytes.make (max needed (2 * Bytes.length t.buf)) '\000' in
    Bytes.blit t.buf 0 nb 0 (Bytes.length t.buf);
    t.buf <- nb
  end

let put t ~bits v =
  if bits < 1 || bits > 30 then invalid_arg "Bits_stream.put: width out of [1, 30]";
  if v < 0 || v >= 1 lsl bits then
    invalid_arg "Bits_stream.put: value out of range";
  ensure t bits;
  for i = bits - 1 downto 0 do
    if (v lsr i) land 1 = 1 then begin
      let pos = t.len_bits in
      let byte = pos / 8 and off = 7 - (pos mod 8) in
      Bytes.set t.buf byte
        (Char.chr (Char.code (Bytes.get t.buf byte) lor (1 lsl off)))
    end;
    t.len_bits <- t.len_bits + 1
  done

let length_bits t = t.len_bits

type reader = { src : t; mutable pos : int }

let reader src = { src; pos = 0 }

let get r ~bits =
  if bits < 1 || bits > 30 then invalid_arg "Bits_stream.get: width out of [1, 30]";
  if r.pos + bits > r.src.len_bits then
    invalid_arg "Bits_stream.get: read past end of stream";
  let v = ref 0 in
  for _ = 1 to bits do
    let byte = r.pos / 8 and off = 7 - (r.pos mod 8) in
    let bit = (Char.code (Bytes.get r.src.buf byte) lsr off) land 1 in
    v := (!v lsl 1) lor bit;
    r.pos <- r.pos + 1
  done;
  !v

let to_bytes t = Bytes.sub t.buf 0 ((t.len_bits + 7) / 8)

let of_bytes b =
  { buf = Bytes.copy b; len_bits = 8 * Bytes.length b }
