(* One handle over the two evaluation engines: tape, checked against
   the Interp_ref oracle.

   Downstream subsystems (testbench, property monitors, fault
   campaigns, soak/checkpoint drivers, CLI) talk to this module instead
   of a concrete engine, so `--engine tape|ref` can swap the evaluator
   without touching them.  Dispatch is one variant match per
   operation — negligible against the per-cycle work behind it. *)

type kind = Ref | Tape

let kind_to_string = function Ref -> "ref" | Tape -> "tape"

let kind_of_string = function
  | "ref" -> Ok Ref
  | "tape" -> Ok Tape
  | s -> Error (Printf.sprintf "unknown engine %S (expected tape or ref)" s)

let all_kinds = [ Ref; Tape ]

type t =
  | R of Interp_ref.t
  | T of Interp_tape.t

let default_kind = Tape

let create ?(kind = default_kind) circuit =
  match kind with
  | Ref -> R (Interp_ref.create circuit)
  | Tape -> T (Interp_tape.create circuit)

let kind = function R _ -> Ref | T _ -> Tape

let reset = function
  | R s -> Interp_ref.reset s
  | T s -> Interp_tape.reset s

let set_input t name v =
  match t with
  | R s -> Interp_ref.set_input s name v
  | T s -> Interp_tape.set_input s name v

let settle = function
  | R s -> Interp_ref.settle s
  | T s -> Interp_tape.settle s

let step = function
  | R s -> Interp_ref.step s
  | T s -> Interp_tape.step s

let run t n =
  match t with
  | R s -> Interp_ref.run s n
  | T s -> Interp_tape.run s n

let peek t name =
  match t with
  | R s -> Interp_ref.peek s name
  | T s -> Interp_tape.peek s name

let peek_int t name =
  match t with
  | R s -> Interp_ref.peek_int s name
  | T s -> Interp_tape.peek_int s name

let peek_mem t name addr =
  match t with
  | R s -> Interp_ref.peek_mem s name addr
  | T s -> Interp_tape.peek_mem s name addr

let poke_mem t name addr v =
  match t with
  | R s -> Interp_ref.poke_mem s name addr v
  | T s -> Interp_tape.poke_mem s name addr v

let signals = function
  | R s -> Interp_ref.signals s
  | T s -> Interp_tape.signals s

let signal_names t = List.sort String.compare (List.map fst (signals t))

let on_cycle t f =
  match t with
  | R s -> Interp_ref.on_cycle s f
  | T s -> Interp_tape.on_cycle s f

let clear_observers = function
  | R s -> Interp_ref.clear_observers s
  | T s -> Interp_tape.clear_observers s

let reader t name =
  match t with
  | R s -> Interp_ref.reader s name
  | T s -> Interp_tape.reader s name

let inject t injs =
  match t with
  | R s -> Interp_ref.inject s injs
  | T s -> Interp_tape.inject s injs

let clear_injections = function
  | R s -> Interp_ref.clear_injections s
  | T s -> Interp_tape.clear_injections s

let current_cycle = function
  | R s -> Interp_ref.current_cycle s
  | T s -> Interp_tape.current_cycle s

let export_state = function
  | R s -> Interp_ref.export_state s
  | T s -> Interp_tape.export_state s

let import_state t st =
  match t with
  | R s -> Interp_ref.import_state s st
  | T s -> Interp_tape.import_state s st

type mark = Ref_mark of Interp_ref.mark | Tape_mark of Interp_tape.mark

let mark = function
  | R s -> Ref_mark (Interp_ref.mark s)
  | T s -> Tape_mark (Interp_tape.mark s)

let other_kind what =
  invalid_arg
    (Printf.sprintf "Engine.%s: the mark was taken on another engine" what)

let rewind t m =
  match (t, m) with
  | R s, Ref_mark m -> Interp_ref.rewind s m
  | T s, Tape_mark m -> Interp_tape.rewind s m
  | _ -> other_kind "rewind"

let matches t m =
  match (t, m) with
  | R s, Ref_mark m -> Interp_ref.matches s m
  | T s, Tape_mark m -> Interp_tape.matches s m
  | _ -> other_kind "matches"

(* Every engine holds the same (name, width) pairs, so the stream
   depends on the circuit and the arguments, never on the engine.
   [Flat.random_campaign] sorts them. *)
let random_campaign t ~seed ~n ~horizon =
  Flat.random_campaign (signals t) ~seed ~n ~horizon
