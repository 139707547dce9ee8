(* Host-speed calibration.

   The host this benchmark runs on drifts: a fixed loop takes anywhere
   from 1x to 1.7x its fastest time, in phases lasting minutes.  Each
   workload therefore runs a fixed calibration kernel between its
   operations, about every [every] seconds and never inside a timed
   operation, and scales its end-to-end times by [factor]: a time of
   T seconds becomes T * reference_s / k, where k is the run's median
   kernel time, so a reported time is the time on a host where the
   kernel takes [reference_s]; rates scale by the inverse.  On the
   2-core host the pinned figures come from, the kernel takes
   1.1-2.0 ms, and scaling by it cuts the spread between runs by half
   or more; its median is printed with each run (calib_kernel_ms).

   The kernel shares no code with the program under test and allocates
   nothing, so neither a change to the program nor the state of its
   heap can move the kernel's time: only the host can.  It has two
   parts.  The core part mixes integer arithmetic with
   read-modify-writes over a 256 KB table, which stays in a core's own
   cache.  The memory part reads 8 MB at random, out of the shared
   last-level cache, which other tenants of the host contend for as
   the program's own heap does.  An untimed pass first brings both
   tables back into cache: otherwise the time would depend on how much
   of them the program's own memory traffic had evicted. *)

module B = Bigarray.Array1

let core_words = 1 lsl 15
let mem_words = 1 lsl 20
let core_table = B.create Bigarray.int Bigarray.c_layout core_words
let mem_table = B.create Bigarray.int Bigarray.c_layout mem_words
let () = B.fill core_table 1; B.fill mem_table 1

let warm () =
  let s = ref 0 in
  for i = 0 to core_words - 1 do
    s := !s + B.unsafe_get core_table i
  done;
  for i = 0 to mem_words - 1 do
    s := !s + B.unsafe_get mem_table i
  done;
  ignore (Sys.opaque_identity !s)

let core_part () =
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to 100_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land (core_words - 1) in
    let v = B.unsafe_get core_table i + (!x lsr 20) in
    B.unsafe_set core_table i v;
    acc := !acc + (v land 0xff)
  done;
  ignore (Sys.opaque_identity !acc)

let mem_part () =
  let x = ref 0x1B873593 and acc = ref 0 in
  for _ = 1 to 50_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc + B.unsafe_get mem_table (!x land (mem_words - 1))
  done;
  ignore (Sys.opaque_identity !acc)

(* The kernel's time on the reference host. *)
let reference_s = 0.002

let every = 0.1

type t = { mutable samples : float list; mutable last : float }

let create () = { samples = []; last = neg_infinity }

(* One kernel run, recorded; returns the seconds spent, warm-up
   included. *)
let sample t =
  let t_in = Unix.gettimeofday () in
  warm ();
  let t0 = Unix.gettimeofday () in
  core_part ();
  mem_part ();
  let t1 = Unix.gettimeofday () in
  t.samples <- (t1 -. t0) :: t.samples;
  t.last <- t1;
  t1 -. t_in

(* A sample when [every] seconds have passed since the last one; the
   seconds spent, 0 when none was due. *)
let tick t = if Unix.gettimeofday () -. t.last >= every then sample t else 0.

(* Kernel runs per burst, where a workload calibrates in bursts. *)
let burst_n = 8

let burst t n = for _ = 1 to n do ignore (sample t) done

let kernel_s t = Stats.median t.samples

(* Multiply a host time by this to get the reference-host time. *)
let factor t = reference_s /. kernel_s t
