(* Pinned output oracles.

   Each workload's expected outputs live in [perfbench/oracle/<workload>.tsv]
   as [key TAB value] lines, written once by [bench.exe --pin] and
   committed.  Keys name an input (a design and its variant, a paper
   table case, an exploration profile, a serve request); values are
   digests and counts of the program's output for it.  Every run checks
   what it produced against them, and a missing key is a mismatch. *)

type t = {
  path : string;
  table : (string, string) Hashtbl.t;
  mutable mismatches : (string * string * string) list;
      (** key, expected, got; newest first *)
}

let dir = Filename.concat "perfbench" "oracle"

let path_of workload = Filename.concat dir (workload ^ ".tsv")

let load workload =
  let path = path_of workload in
  let table = Hashtbl.create 256 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line '\t' with
       | Some i ->
           Hashtbl.replace table (String.sub line 0 i)
             (String.sub line (i + 1) (String.length line - i - 1))
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  { path; table; mismatches = [] }

(* [check t key got] is true when [got] is the pinned value. *)
let check t key got =
  match Hashtbl.find_opt t.table key with
  | Some want when String.equal want got -> true
  | found ->
      let want = Option.value found ~default:"<not pinned>" in
      t.mismatches <- (key, want, got) :: t.mismatches;
      false

let mismatches t = List.rev t.mismatches

let digest s = Digest.to_hex (Digest.string s)

(* Pinning: rows are sorted so the committed file diffs cleanly. *)
let save workload rows =
  let rows = List.sort_uniq compare rows in
  let oc = open_out (path_of workload) in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) rows;
  close_out oc;
  Printf.eprintf "pinned %d %s outputs in %s\n%!" (List.length rows) workload
    (path_of workload)
