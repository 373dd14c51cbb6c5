(* The Split Matrix as a tuning instrument (paper §3.3 and §5): the same
   document collection stored under four matrices, showing how clustering
   decisions shape the physical tree and the cost of access patterns.

   Run with:  dune exec examples/split_matrix_tuning.exe *)

open Natix_core
open Natix_workload
module Io_stats = Natix_store.Io_stats

let page_size = 4096

(* Strict, navigation-only evaluation: the access pattern the printed
   I/O figures measure. *)
let naive_query store ~doc path =
  match Natix_query.Engine.query_naive (Natix_query.Engine.create store) ~doc path with
  | Ok hits -> List.of_seq hits
  | Error e -> failwith (Error.to_string e)

let describe name store docs =
  let agg =
    List.fold_left
      (fun (records, scaffold, depth, bytes) doc ->
        let s = Stats.document store doc in
        ( records + s.Stats.records,
          scaffold + s.Stats.scaffold_nodes,
          max depth s.Stats.record_tree_depth,
          bytes + s.Stats.record_bytes ))
      (0, 0, 0, 0) docs
  in
  let records, scaffold, depth, bytes = agg in
  (* Cost of reading every LINE under the first scene (a navigation an
     application with SPEECH-level locality cares about). *)
  Tree_store.clear_buffers store;
  let io = Tree_store.io_stats store in
  let before = Io_stats.copy io in
  let lines =
    List.concat_map (fun d -> naive_query store ~doc:d "/ACT[1]/SCENE[1]//LINE") docs
  in
  List.iter (fun c -> ignore (Cursor.text_content c)) lines;
  let q = Io_stats.diff (Io_stats.copy io) before in
  Printf.printf "%-26s %8d %9d %6d %10d %10.0f %8d\n" name records scaffold depth bytes
    q.Io_stats.sim_ms q.Io_stats.reads

let load_with name default configure =
  let matrix = Split_matrix.create ~default () in
  let config = { (Config.default ()) with Config.page_size; matrix } in
  let store = Tree_store.in_memory ~config () in
  configure store matrix;
  let corpus = Shakespeare.generate (Shakespeare.scaled 0.05) in
  let docs = List.mapi (fun i p -> (Printf.sprintf "play-%d" i, p)) corpus in
  Loader.load_collection store docs ~order:Loader.Preorder;
  describe name store (List.map fst docs)

let () =
  Printf.printf "%-26s %8s %9s %6s %10s %10s %8s\n" "matrix" "records" "scaffold" "depth"
    "bytes" "scan-ms" "reads";
  (* 1. POET/Excelon/LORE emulation: every node its own record. *)
  load_with "all standalone (1:1)" Split_matrix.Standalone (fun _ _ -> ());
  (* 2. Native: the algorithm decides everything. *)
  load_with "all other (native 1:n)" Split_matrix.Other (fun _ _ -> ());
  (* 3. Keep speeches atomic: a SPEECH never separates from its lines --
     an application that always renders whole speeches. *)
  load_with "speeches clustered" Split_matrix.Other (fun store m ->
      List.iter
        (fun c ->
          Split_matrix.set m
            ~parent:(Tree_store.label store "SPEECH")
            ~child:(Tree_store.label store c) Split_matrix.Cluster)
        [ "SPEAKER"; "LINE" ]);
  (* 4. Collect every PERSONAE subtree in its own records, e.g. to give
     cast lists their own database area (paper §3.3). *)
  load_with "personae standalone" Split_matrix.Other (fun store m ->
      Split_matrix.set m
        ~parent:(Tree_store.label store "PLAY")
        ~child:(Tree_store.label store "PERSONAE")
        Split_matrix.Standalone);
  print_endline "\nNote how matrices trade records/scaffolding for access locality:";
  print_endline "the 1:1 matrix maximises records and scan cost; clustering SPEECH";
  print_endline "subtrees keeps whole speeches in one record, so scanning their lines";
  print_endline "costs the fewest page reads."
