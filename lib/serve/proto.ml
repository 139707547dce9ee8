module Json = Busgen_json.Json

type request = {
  rq_id : string;
  rq_kind : string;
  rq_params : Json.t;
  rq_deadline_ms : int option;
}

let code_bad_request = "bad-request"
let code_duplicate_id = "duplicate-id"
let code_overloaded = "overloaded"
let code_expired = "expired"
let code_shutting_down = "shutting-down"
let code_crashed = "crashed"
let code_timed_out = "timed-out"
let code_quarantined = "quarantined"
let code_oversized = "oversized"

let max_id_len = 128

let id_ok id =
  String.length id > 0
  && String.length id <= max_id_len
  && String.for_all (fun c -> Char.code c >= 0x21 && Char.code c < 0x7F) id

let parse_request line =
  match Json.parse line with
  | Error e -> Error ("malformed JSON: " ^ e)
  | Ok (Json.Obj _ as obj) -> (
    match Json.member "id" obj with
    | None -> Error "missing \"id\""
    | Some idj -> (
      match Json.get_string idj with
      | None -> Error "\"id\" must be a string"
      | Some id when not (id_ok id) ->
        Error
          (Printf.sprintf
             "\"id\" must be 1..%d printable non-space bytes" max_id_len)
      | Some id -> (
        match Json.member "kind" obj with
        | None -> Error "missing \"kind\""
        | Some kj -> (
          match Json.get_string kj with
          | None | Some "" -> Error "\"kind\" must be a non-empty string"
          | Some kind -> (
            let params =
              match Json.member "params" obj with
              | None -> Ok (Json.Obj [])
              | Some (Json.Obj _ as p) -> Ok p
              | Some _ -> Error "\"params\" must be an object"
            in
            match params with
            | Error e -> Error e
            | Ok params -> (
              match Json.member "deadline_ms" obj with
              | None ->
                Ok
                  {
                    rq_id = id;
                    rq_kind = kind;
                    rq_params = params;
                    rq_deadline_ms = None;
                  }
              | Some dj -> (
                match Json.get_int dj with
                | Some d when d > 0 ->
                  Ok
                    {
                      rq_id = id;
                      rq_kind = kind;
                      rq_params = params;
                      rq_deadline_ms = Some d;
                    }
                | _ -> Error "\"deadline_ms\" must be a positive integer")))))))
  | Ok _ -> Error "request must be a JSON object"

let ok_reply ~id result =
  Json.to_string
    (Json.Obj [ ("id", Json.String id); ("ok", Json.Bool true); ("result", result) ])

let err_reply ?id ~code msg =
  let fields =
    (match id with Some id -> [ ("id", Json.String id) ] | None -> [])
    @ [
        ("ok", Json.Bool false);
        ("code", Json.String code);
        ("error", Json.String msg);
      ]
  in
  Json.to_string (Json.Obj fields)
