type module_ref = Exact of string | Group of string * string list

type endpoint = { m_ref : module_ref; pname : string; wmsb : int; wlsb : int }

type wire = { w_name : string; w_width : int; end1 : endpoint; end2 : endpoint }

type entry = { lib_name : string; wires : wire list }

type t = entry list

let endpoint_width e = e.wmsb - e.wlsb + 1

let pp_module_ref fmt = function
  | Exact n -> Format.pp_print_string fmt n
  | Group (base, members) ->
      Format.fprintf fmt "%s[%s]" base (String.concat "," members)

let pp_endpoint fmt e =
  Format.fprintf fmt "%a %s %d %d" pp_module_ref e.m_ref e.pname e.wmsb e.wlsb

let pp_wire fmt w =
  Format.fprintf fmt "%s %d %a %a" w.w_name w.w_width pp_endpoint w.end1
    pp_endpoint w.end2

let pp_entry fmt e =
  Format.fprintf fmt "%%wire %s@." e.lib_name;
  List.iter (fun w -> Format.fprintf fmt "%a@." pp_wire w) e.wires;
  Format.fprintf fmt "%%endwire@."

let validate_endpoint w e =
  if e.wlsb < 0 || e.wmsb < e.wlsb then
    Error
      (Printf.sprintf "wire %s: bad range [%d:%d]" w.w_name e.wmsb e.wlsb)
  else if e.wmsb >= w.w_width then
    Error
      (Printf.sprintf "wire %s: range [%d:%d] exceeds width %d" w.w_name
         e.wmsb e.wlsb w.w_width)
  else if e.pname = "" then Error (Printf.sprintf "wire %s: empty port" w.w_name)
  else
    match e.m_ref with
    | Exact "" -> Error (Printf.sprintf "wire %s: empty module name" w.w_name)
    | Exact _ -> Ok ()
    | Group (_, []) ->
        Error (Printf.sprintf "wire %s: empty group" w.w_name)
    | Group (_, members) ->
        if List.length (List.sort_uniq compare members) <> List.length members
        then Error (Printf.sprintf "wire %s: duplicate group member" w.w_name)
        else Ok ()

let validate_wire w =
  if w.w_width < 1 then
    Error (Printf.sprintf "wire %s: width %d < 1" w.w_name w.w_width)
  else
    match validate_endpoint w w.end1 with
    | Error _ as e -> e
    | Ok () -> (
        match validate_endpoint w w.end2 with
        | Error _ as e -> e
        | Ok () -> Ok ())

let validate lib =
  let rec dup_name seen = function
    | [] -> None
    | e :: rest ->
        if List.mem e.lib_name seen then Some e.lib_name
        else dup_name (e.lib_name :: seen) rest
  in
  match dup_name [] lib with
  | Some n -> Error (Printf.sprintf "duplicate entry %s" n)
  | None ->
      let check_entry e =
        let rec dup seen = function
          | [] -> None
          | w :: rest ->
              if List.mem w.w_name seen then Some w.w_name
              else dup (w.w_name :: seen) rest
        in
        match dup [] e.wires with
        | Some n ->
            Error (Printf.sprintf "entry %s: duplicate wire %s" e.lib_name n)
        | None ->
            List.fold_left
              (fun acc w -> match acc with Error _ -> acc | Ok () -> validate_wire w)
              (Ok ()) e.wires
      in
      List.fold_left
        (fun acc e -> match acc with Error _ -> acc | Ok () -> check_entry e)
        (Ok ()) lib

let is_group w =
  match (w.end1.m_ref, w.end2.m_ref) with
  | Group (b1, m1), Group (b2, m2) -> b1 = b2 && m1 = m2
  | Group _, Exact _ | Exact _, Group _ | Exact _, Exact _ -> false

let expand_groups e =
  (* A one-member group names that member exactly (the paper writes
     [BAN[B]] for "BAN B's pin" in Example 8's FFT wires). *)
  let exact_singleton r =
    match r with Group (_, [ m ]) -> Exact m | Group _ | Exact _ -> r
  in
  let expand w =
    match validate_wire w with
    | Error msg -> invalid_arg ("Wirelib.expand_groups: " ^ msg)
    | Ok () ->
        if not (is_group w) then
          [
            {
              w with
              end1 = { w.end1 with m_ref = exact_singleton w.end1.m_ref };
              end2 = { w.end2 with m_ref = exact_singleton w.end2.m_ref };
            };
          ]
        else
          let members =
            match w.end1.m_ref with
            | Group (_, ms) -> ms
            | Exact _ -> assert false
          in
          let n = List.length members in
          let member k = List.nth members (k mod n) in
          List.init n (fun k ->
              {
                w_name = Printf.sprintf "%s_%d" w.w_name (k + 1);
                w_width = w.w_width;
                end1 = { w.end1 with m_ref = Exact (member k) };
                end2 = { w.end2 with m_ref = Exact (member (k + 1)) };
              })
  in
  { e with wires = List.concat_map expand e.wires }

let ref_matches instance = function
  | Exact n -> n = instance
  | Group (_, members) -> List.mem instance members

let wires_for e ~instance ~port =
  List.filter
    (fun w ->
      (ref_matches instance w.end1.m_ref && w.end1.pname = port)
      || (ref_matches instance w.end2.m_ref && w.end2.pname = port))
    e.wires
