(* Order statistics for the benchmark's timings.

   Percentiles use the nearest-rank rule on the sorted samples.  A tail
   percentile is only reported when at least [min_beyond] samples lie
   beyond it: a p90 over 40 samples would rest on four values and move
   with every outlier. *)

let min_beyond = 10

(* Set-up is timed this many times per run and the median reported. *)
let setup_probes = 31

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let rank n q = max 1 (min n (int_of_float (ceil (q *. float_of_int n))))

let percentile q xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | _ ->
      let a = sorted xs in
      a.(rank (Array.length a) q - 1)

let median xs = percentile 0.5 xs

(* [tail q xs] is the q-quantile when at least [min_beyond] samples
   rank above it, else an error naming the shortfall. *)
let tail q xs =
  let n = List.length xs in
  let beyond = if n = 0 then 0 else n - rank n q in
  if beyond < min_beyond then
    Error
      (Printf.sprintf
         "p%g over %d samples has %d beyond it (need at least %d)"
         (q *. 100.) n beyond min_beyond)
  else Ok (percentile q xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* The mean of each key's samples, one value per key.  A run that is cut
   off mid-round has a seed-drawn subset of the round's operations twice;
   statistics over per-key means weigh every operation of the round
   alike whatever that subset is. *)
let key_means samples =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      let s, n = Option.value (Hashtbl.find_opt h k) ~default:(0., 0) in
      Hashtbl.replace h k (s +. v, n + 1))
    samples;
  Hashtbl.fold (fun _ (s, n) acc -> (s /. float_of_int n) :: acc) h []

let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)
