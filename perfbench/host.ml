(* Host facts and process helpers (Linux /proc). *)

let cores () = Domain.recommended_domain_count ()

(* A "Field: N kB" line of a /proc/<pid> file, 0 when the process is
   gone. *)
let proc_kb pid file field =
  let path = Printf.sprintf "/proc/%s/%s" pid file in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      let prefix = field ^ ":" in
      let n = String.length prefix in
      let v = ref 0 in
      (* A process can exit between open and read: ESRCH. *)
      (try
         while true do
           let l = input_line ic in
           if String.length l > n && String.sub l 0 n = prefix then
             v := Scanf.sscanf (String.sub l n (String.length l - n)) " %d" Fun.id
         done
       with End_of_file | Sys_error _ | Scanf.Scan_failure _ | Failure _ -> ());
      close_in ic;
      !v

let peak_rss_mb_self () = float_of_int (proc_kb "self" "status" "VmHWM") /. 1024.

(* Children of [pid]: the kernel lists each thread's children in
   /proc/<pid>/task/<tid>/children, which is far cheaper to read than
   the parent of every process on the host. *)
let children pid =
  let task = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir task with
  | exception Sys_error _ -> []
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match open_in (Filename.concat task (Filename.concat tid "children")) with
          | exception Sys_error _ -> acc
          | ic ->
              let line = try input_line ic with End_of_file | Sys_error _ -> "" in
              close_in ic;
              List.filter_map int_of_string_opt (String.split_on_char ' ' line) @ acc)
        [] tids

(* Memory in use by [pid] and its live children now, in MB: the sum of
   their proportional set sizes.  A forked worker shares its parent's
   heap copy-on-write; Pss charges each shared page to its sharers in
   equal parts, where summing RSS would count the parent's heap once
   per worker. *)
let pss_mb_tree pid =
  let kb p = proc_kb (string_of_int p) "smaps_rollup" "Pss" in
  float_of_int (List.fold_left (fun acc c -> acc + kb c) (kb pid) (children pid))
  /. 1024.

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

(* Scratch space inside the checkout (the benchmark writes nowhere
   else): daemon journals and sweep checkpoints. *)
let work_dir = ".perfbench-work"

let fresh_count = ref 0

let fresh_dir name =
  incr fresh_count;
  let d =
    Filename.concat work_dir
      (Printf.sprintf "%s-%d-%d" name (Unix.getpid ()) !fresh_count)
  in
  rm_rf d;
  mkdir_p d;
  d

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)
