(* What one workload run hands back to the result printer in bench.ml. *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m name unit_ value = { m_name = name; m_unit = unit_; m_value = value }

type t = {
  attempted : int;
  failed : int;
  problems : string list;
      (** failed checks that are not operations: traced-run consistency,
          layer coverage, percentile sample counts *)
  e2e : metric list;  (** the BENCHMARK.json end-to-end names *)
  named : metric list;  (** the same numbers under the workload's own names *)
  layers : metric list;  (** per-layer metrics; traced runs only *)
  counts : (string * int) list;
      (** simulated counts, identical between traced and untraced runs *)
}

(* A tail percentile with the sample-count rule; a shortfall becomes a
   problem and the value falls back to the largest sample. *)
let tail problems name q xs =
  match Stats.tail q xs with
  | Ok v -> v
  | Error e ->
      problems := (name ^ ": " ^ e) :: !problems;
      (match xs with [] -> 0. | _ -> Stats.percentile 1.0 xs)

(* Ratio of useful to attempted, 0 when nothing was attempted. *)
let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
