type location = Loc_local | Loc_peer_mem of int | Loc_global

type flag = Hs_flag of int * string | Var_flag of string

type op =
  | Compute of int
  | Read of location * int
  | Write of location * int
  | Set_flag of flag * bool
  | Wait_flag of flag * bool
  | Lock_acquire of string
  | Try_lock of string * (bool -> unit)
  | Lock_release of string
  | Fifo_set_threshold of int * int
  | Fifo_push of int * int
  | Fifo_pop of int
  | Wait_fifo_irq
  | Mark of string
  | Call of (unit -> unit)
  | Halt

type t = unit -> op option

let of_list ops =
  let rest = ref ops in
  fun () ->
    match !rest with
    | [] -> None
    | op :: tl ->
        rest := tl;
        Some op

let concat programs =
  let rest = ref programs in
  let rec next () =
    match !rest with
    | [] -> None
    | p :: tl -> (
        match p () with
        | Some op -> Some op
        | None ->
            rest := tl;
            next ())
  in
  next

let repeat n body =
  let i = ref 0 in
  let current = ref (of_list []) in
  let rec next () =
    match !current () with
    | Some op -> Some op
    | None ->
        if !i >= n then None
        else begin
          current := of_list (body !i);
          incr i;
          next ()
        end
  in
  next

let generator f = f
