(* Flat streams vs the native repository (paper §1 and §5): store the same
   collection as serialized byte streams in a BLOB manager and natively in
   NATIX, then compare whole-document reads (where flat wins) against
   structural access and scattered updates (where native wins).

   Run with:  dune exec examples/flat_vs_native.exe *)

open Natix_core
open Natix_workload
module Io_stats = Natix_store.Io_stats

let page_size = 8192

(* Strict, navigation-only evaluation: the access pattern the printed
   I/O figures measure. *)
let naive_query store ~doc path =
  match Natix_query.Engine.query_naive (Natix_query.Engine.create store) ~doc path with
  | Ok hits -> List.of_seq hits
  | Error e -> failwith (Error.to_string e)

let () =
  let corpus = Shakespeare.generate (Shakespeare.scaled 0.1) in
  let nodes, bytes = Shakespeare.corpus_measure corpus in
  Printf.printf "corpus: %d plays, %d nodes, %.2f MB\n\n" (List.length corpus) nodes
    (float_of_int bytes /. 1e6);

  (* ---- flat streams ------------------------------------------------ *)
  let disk = Natix_store.Disk.in_memory ~page_size () in
  let pool = Natix_store.Buffer_pool.create ~disk ~bytes:(2 * 1024 * 1024) () in
  let rm = Natix_store.Record_manager.create (Natix_store.Segment.create pool) in
  let bs = Natix_flat.Blob_store.create rm in
  let stats = Natix_store.Disk.stats disk in
  let measure f =
    Natix_store.Buffer_pool.clear pool;
    let before = Io_stats.copy stats in
    let r = f () in
    Natix_store.Buffer_pool.flush pool;
    (r, Io_stats.diff (Io_stats.copy stats) before)
  in
  let flat_docs, load_io =
    measure (fun () ->
        List.mapi
          (fun i p -> Natix_flat.Flat_document.store bs ~name:(Printf.sprintf "play-%d" i) p)
          corpus)
  in
  Printf.printf "flat   load (serialize+write):      %8.0f sim-ms\n" load_io.Io_stats.sim_ms;
  let _, whole_io =
    measure (fun () -> List.map (fun d -> Natix_flat.Flat_document.load bs d) flat_docs)
  in
  Printf.printf "flat   read whole collection:       %8.0f sim-ms (sequential strength)\n"
    whole_io.Io_stats.sim_ms;
  (* Structural access = parse everything even for one speech per play. *)
  let _, q3_io =
    measure (fun () ->
        List.map
          (fun d ->
            let xml = Natix_flat.Flat_document.load bs d in
            Natix_xml.Xml_tree.child_named xml "ACT")
          flat_docs)
  in
  Printf.printf "flat   opening speech per play:     %8.0f sim-ms (must parse everything)\n"
    q3_io.Io_stats.sim_ms;
  let _, splice_io =
    measure (fun () ->
        List.iter
          (fun d ->
            let offsets = Natix_flat.Flat_document.text_offsets bs d ~limit:25 in
            List.iter
              (fun at -> Natix_flat.Flat_document.splice_text bs d ~at " updated")
              (List.rev (List.sort Int.compare offsets)))
          flat_docs)
  in
  Printf.printf "flat   scattered text updates:      %8.0f sim-ms\n\n" splice_io.Io_stats.sim_ms;

  (* ---- native ------------------------------------------------------ *)
  let built =
    Harness.build ~page_size { Harness.matrix = Harness.Native; order = Loader.Preorder } corpus
  in
  let store = built.Harness.store and docs = built.Harness.docs in
  Printf.printf "native load (tree growth):          %8.0f sim-ms\n"
    built.Harness.build_io.Io_stats.sim_ms;
  let _, trav = Harness.measure built (fun () -> Queries.full_traversal store ~docs) in
  Printf.printf "native full traversal:              %8.0f sim-ms\n" trav.Io_stats.sim_ms;
  let _, q3 = Harness.measure built (fun () -> Queries.q3 store ~docs) in
  Printf.printf "native opening speech per play:     %8.0f sim-ms (navigates a single path)\n"
    q3.Io_stats.sim_ms;
  let _, upd =
    Harness.measure built (fun () ->
        List.iter
          (fun d ->
            List.iteri
              (fun i scene ->
                if i < 25 then
                  ignore
                    (Tree_store.insert_node store
                       (Tree_store.First_under (Cursor.node scene))
                       (Tree_store.Text " updated")))
              (naive_query store ~doc:d "//SCENE"))
          docs;
        Tree_store.sync store)
  in
  Printf.printf "native scattered text updates:      %8.0f sim-ms\n" upd.Io_stats.sim_ms;
  print_endline "\nFlat streams win when whole documents stream in and out; the native";
  print_endline "repository wins as soon as structure is accessed or updated in place."
