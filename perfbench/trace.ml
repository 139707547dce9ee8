(* Spans recorded around the benchmark's calls into each layer.

   A span has a name, a start, an end and the span that caused it (its
   parent on the call stack).  Spans stay in memory until the run
   reports its per-layer metrics.  With tracing disabled
   [span] is a plain call, so the untraced runs that give the
   end-to-end metrics pay nothing for it.

   A layer's self time is the time its spans cover minus the time
   their child spans cover.  Benchmark glue (oracle checks, forced
   collections) runs inside spans named ["other"], so the root span's
   own self time is what no span explains. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (** -1 for a root *)
  sp_t0 : float;
  sp_t1 : float;
  sp_alloc : float;  (** bytes allocated inside, children included *)
}

type t = {
  enabled : bool;
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
}

let create ~enabled = { enabled; spans = []; stack = []; next = 0 }

let enabled t = t.enabled

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let a1 = Gc.allocated_bytes () in
        t.stack <- List.tl t.stack;
        t.spans <-
          { sp_id = id; sp_name = name; sp_parent = parent; sp_t0 = t0;
            sp_t1 = t1; sp_alloc = a1 -. a0 }
          :: t.spans)
  end

type agg = {
  calls : int;
  total_s : float;  (** inclusive *)
  self_s : float;
  alloc_b : float;  (** inclusive *)
}

let child_time spans =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt tbl s.sp_parent) ~default:0. in
        Hashtbl.replace tbl s.sp_parent (prev +. (s.sp_t1 -. s.sp_t0)))
    spans;
  tbl

(* Per-name aggregates over every recorded span. *)
let aggregate t =
  let children = child_time t.spans in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.sp_t1 -. s.sp_t0 in
      let self =
        dur -. Option.value (Hashtbl.find_opt children s.sp_id) ~default:0.
      in
      let a =
        Option.value (Hashtbl.find_opt tbl s.sp_name)
          ~default:{ calls = 0; total_s = 0.; self_s = 0.; alloc_b = 0. }
      in
      Hashtbl.replace tbl s.sp_name
        { calls = a.calls + 1; total_s = a.total_s +. dur;
          self_s = a.self_s +. self; alloc_b = a.alloc_b +. s.sp_alloc })
    t.spans;
  tbl

let find t name =
  Option.value
    (Hashtbl.find_opt (aggregate t) name)
    ~default:{ calls = 0; total_s = 0.; self_s = 0.; alloc_b = 0. }

(* Mean inclusive milliseconds and allocated megabytes per call. *)
let mean_ms t name =
  let a = find t name in
  if a.calls = 0 then 0. else a.total_s *. 1000. /. float_of_int a.calls

let mean_alloc_mb t name =
  let a = find t name in
  if a.calls = 0 then 0. else a.alloc_b /. 1048576. /. float_of_int a.calls

(* Layer coverage under the root spans named [root]: self time per
   layer (the part of the name before the first dot, or the whole
   name), plus the roots' own self time as ["unattributed"].  The
   entries add up to the roots' wall time by construction; the check
   is that "unattributed" stays small. *)
let coverage t ~root =
  let children = child_time t.spans in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.sp_id s) t.spans;
  let rec under_root s =
    if s.sp_name = root && s.sp_parent < 0 then true
    else if s.sp_parent < 0 then false
    else under_root (Hashtbl.find by_id s.sp_parent)
  in
  let layers = Hashtbl.create 16 in
  let wall = ref 0. and unattributed = ref 0. in
  List.iter
    (fun s ->
      if under_root s then begin
        let dur = s.sp_t1 -. s.sp_t0 in
        let self =
          dur -. Option.value (Hashtbl.find_opt children s.sp_id) ~default:0.
        in
        if s.sp_parent < 0 then begin
          wall := !wall +. dur;
          unattributed := !unattributed +. self
        end
        else
          let layer =
            match String.index_opt s.sp_name '.' with
            | Some i -> String.sub s.sp_name 0 i
            | None -> s.sp_name
          in
          let prev = Option.value (Hashtbl.find_opt layers layer) ~default:0. in
          Hashtbl.replace layers layer (prev +. self)
      end)
    t.spans;
  let rows =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers [])
  in
  (!wall, rows @ [ ("unattributed", !unattributed) ])
