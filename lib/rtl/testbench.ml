type t = {
  sim : Engine.t;
  widths : (string, int) Hashtbl.t; (* input ports *)
  mutable cycle_count : int;
}

exception Timeout of string
exception Mismatch of string

let input_widths circuit =
  let widths = Hashtbl.create 16 in
  List.iter
    (fun (p : Circuit.port) ->
      Hashtbl.replace widths p.Circuit.port_name p.Circuit.port_width)
    (Circuit.inputs circuit);
  widths

let restart sim circuit =
  Engine.clear_observers sim;
  Engine.clear_injections sim;
  Engine.reset sim;
  let widths = input_widths circuit in
  Hashtbl.iter
    (fun name width -> Engine.set_input sim name (Bits.zero width))
    widths;
  Engine.settle sim;
  { sim; widths; cycle_count = 0 }

let create ?engine circuit =
  restart (Engine.create ?kind:engine circuit) circuit

let of_engine sim =
  { sim; widths = Hashtbl.create 0; cycle_count = 0 }

let engine t = t.sim

let input_width t name =
  match Hashtbl.find_opt t.widths name with
  | Some w -> w
  | None -> (
      (* Unknown (wrapped engine): infer from the current value. *)
      try Bits.width (Engine.peek t.sim name)
      with Not_found ->
        invalid_arg (Printf.sprintf "Testbench.drive: unknown input %s" name))

let drive t name v =
  Engine.set_input t.sim name (Bits.of_int ~width:(input_width t name) v)

let drive_many t l = List.iter (fun (n, v) -> drive t n v) l

let step t ?(n = 1) () =
  t.cycle_count <- t.cycle_count + n;
  Engine.run t.sim n

let cycles t = t.cycle_count

let settle t = Engine.settle t.sim

let peek t name = Engine.peek_int t.sim name

let expect t name want =
  Engine.settle t.sim;
  let got = peek t name in
  if got <> want then
    raise
      (Mismatch (Printf.sprintf "%s: got 0x%x, want 0x%x" name got want))

let wait_for t ?(timeout = 1000) name value =
  let rec go n =
    if n > timeout then
      raise
        (Timeout
           (Printf.sprintf "%s did not reach 0x%x within %d cycles" name value
              timeout))
    else begin
      Engine.settle t.sim;
      if peek t name = value then ()
      else begin
        t.cycle_count <- t.cycle_count + 1;
        Engine.step t.sim;
        go (n + 1)
      end
    end
  in
  go 0

let pulse t name =
  drive t name 1;
  step t ();
  drive t name 0

module Cpu = struct
  let p pe s = Printf.sprintf "cpu%d_%s" pe s

  let transaction t ~pe ~rnw ~addr ~wdata =
    drive t (p pe "req") 1;
    drive t (p pe "rnw") (if rnw then 1 else 0);
    drive t (p pe "addr") addr;
    drive t (p pe "wdata") wdata;
    step t ();
    drive t (p pe "req") 0;
    (try wait_for t ~timeout:1000 (p pe "ack") 1
     with Timeout _ ->
       raise
         (Timeout
            (Printf.sprintf "pe%d: no acknowledge for address 0x%x" pe addr)));
    let v = Engine.peek t.sim (p pe "rdata") in
    step t ();
    v

  let write t ~pe ~addr v = ignore (transaction t ~pe ~rnw:false ~addr ~wdata:v)

  let read t ~pe ~addr =
    Bits.to_int_trunc (transaction t ~pe ~rnw:true ~addr ~wdata:0)

  let read_signed t ~pe ~addr =
    Bits.to_signed_int_exn (transaction t ~pe ~rnw:true ~addr ~wdata:0)

  let check_read t ~pe ~addr want =
    let got = read t ~pe ~addr in
    if got <> want then
      raise
        (Mismatch
           (Printf.sprintf "pe%d read of 0x%x: got 0x%x, want 0x%x" pe addr
              got want))

  let irq t ~pe =
    match Engine.peek t.sim (p pe "irq") with
    | v -> Bits.reduce_or v
    | exception Not_found -> false
end
