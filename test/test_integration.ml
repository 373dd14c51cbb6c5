(* Cross-module integration tests: whole-corpus roundtrips, mixed
   update/delete workloads under integrity checking, order equivalence,
   index consistency under churn, and persistence of everything through a
   file-backed store. *)

open Natix_core
module Xml_tree = Natix_xml.Xml_tree
module Xml_parser = Natix_xml.Xml_parser
open Natix_workload

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let xml = Alcotest.testable Xml_tree.pp Xml_tree.equal

let mem_store ?(page_size = 1024) ?(matrix = Split_matrix.native ()) () =
  let config =
    { (Config.default ()) with Config.page_size; matrix; buffer_bytes = 256 * 1024 }
  in
  Tree_store.in_memory ~config ~model:Natix_store.Io_model.free ()

let corpus_tests =
  [
    Alcotest.test_case "a whole play roundtrips in all four series" `Slow (fun () ->
        let play = List.hd (Shakespeare.generate (Shakespeare.scaled 0.03)) in
        List.iter
          (fun (matrix, order) ->
            let store = mem_store ~page_size:2048 ~matrix:(matrix ()) () in
            let _ = Loader.load store ~name:"p" ~order play in
            Tree_store.check_document store "p";
            Alcotest.check xml "roundtrip" play
              (Option.get (Exporter.document_to_xml store "p")))
          [
            (Split_matrix.native, Loader.Preorder);
            (Split_matrix.native, Loader.Bfs_binary);
            (Split_matrix.one_to_one, Loader.Preorder);
            (Split_matrix.one_to_one, Loader.Bfs_binary);
          ]);
    Alcotest.test_case "insertion order does not change the logical document" `Quick (fun () ->
        let play = List.hd (Shakespeare.generate (Shakespeare.scaled 0.01)) in
        let export order =
          let store = mem_store () in
          let _ = Loader.load store ~name:"p" ~order play in
          Option.get (Exporter.document_to_xml store "p")
        in
        Alcotest.check xml "preorder = bfs" (export Loader.Preorder) (export Loader.Bfs_binary));
    Alcotest.test_case "collection loading interleaves without corruption" `Quick (fun () ->
        let corpus = Shakespeare.generate { (Shakespeare.scaled 0.01) with Shakespeare.plays = 3 } in
        let store = mem_store () in
        let docs = List.mapi (fun i p -> (Printf.sprintf "p%d" i, p)) corpus in
        Loader.load_collection store docs ~order:Loader.Bfs_binary;
        List.iter2
          (fun (name, play) _ ->
            Tree_store.check_document store name;
            Alcotest.check xml name play (Option.get (Exporter.document_to_xml store name)))
          docs corpus);
  ]

(* A random mixed workload: inserts, deletions, text updates; after every
   phase the physical tree must check out and the export must equal an
   in-memory reference implementation of the same operations. *)
let churn_tests =
  [
    qtest ~count:25 "random churn preserves logical content and invariants"
      QCheck2.Gen.(
        pair (int_range 512 2048)
          (list_size (int_range 5 60)
             (pair (int_bound 3) (pair (int_bound 100) (string_size ~gen:printable (int_range 1 30))))))
      (fun (page_size, ops) ->
        let store = mem_store ~page_size () in
        let root = Tree_store.create_document store ~name:"d" ~root:"R" in
        let elem = Tree_store.label store "E" in
        (* Reference: a mutable list of (id, text) pairs mirroring the
           top-level children. *)
        let reference : (int * string) list ref = ref [] in
        let fresh = ref 0 in
        let nth_child k =
          let rec go i seq =
            match seq () with
            | Seq.Nil -> None
            | Seq.Cons (x, rest) -> if i = k then Some x else go (i + 1) rest
          in
          go 0 (Tree_store.logical_children store root)
        in
        List.iter
          (fun (kind, (pos, text)) ->
            let n = List.length !reference in
            match kind with
            | 0 | 1 ->
              (* insert element with a text child at position [pos mod (n+1)] *)
              let at = pos mod (n + 1) in
              let point =
                if at = 0 then Tree_store.First_under root
                else Tree_store.After (Option.get (nth_child (at - 1)))
              in
              let node = Tree_store.insert_node store point (Tree_store.Elem elem) in
              let _ =
                Tree_store.insert_node store (Tree_store.First_under node)
                  (Tree_store.Text text)
              in
              incr fresh;
              let rec insert_at i = function
                | rest when i = at -> (!fresh, text) :: rest
                | [] -> [ (!fresh, text) ]
                | e :: rest -> e :: insert_at (i + 1) rest
              in
              reference := insert_at 0 !reference
            | 2 when n > 0 ->
              let at = pos mod n in
              Tree_store.delete_node store (Option.get (nth_child at));
              reference := List.filteri (fun i _ -> i <> at) !reference
            | 3 when n > 0 ->
              let at = pos mod n in
              let child = Option.get (nth_child at) in
              let text_node =
                match Tree_store.logical_children store child () with
                | Seq.Cons (t, _) -> t
                | Seq.Nil -> Alcotest.fail "element lost its text"
              in
              Tree_store.update_text store text_node text;
              reference :=
                List.mapi (fun i (id, old) -> if i = at then (id, text) else (id, old)) !reference
            | _ -> ())
          ops;
        Tree_store.check_document store "d";
        let expected =
          Xml_tree.element "R"
            (List.map (fun (_, text) -> Xml_tree.element "E" [ Xml_tree.text text ]) !reference)
        in
        Xml_tree.equal expected (Option.get (Exporter.document_to_xml store "d")));
    qtest ~count:10 "element index stays exact under churn"
      QCheck2.Gen.(list_size (int_range 10 80) (pair (int_bound 2) (int_bound 1000)))
      (fun ops ->
        let store = mem_store ~page_size:512 () in
        let idx = Element_index.create store ~name:"elements" in
        let root = Tree_store.create_document store ~name:"d" ~root:"R" in
        let labels = Array.map (Tree_store.label store) [| "A"; "B"; "C" |] in
        let live = ref [] in
        List.iter
          (fun (kind, r) ->
            match kind with
            | 0 | 1 ->
              let label = labels.(r mod 3) in
              let node =
                Tree_store.insert_node store (Tree_store.First_under root)
                  (Tree_store.Elem label)
              in
              let _ =
                Tree_store.insert_node store (Tree_store.First_under node)
                  (Tree_store.Text (String.make (1 + (r mod 40)) 'x'))
              in
              live := node :: !live
            | _ -> (
              match !live with
              | [] -> ()
              | node :: rest ->
                Tree_store.delete_node store node;
                live := rest))
          ops;
        Element_index.check idx;
        true);
  ]

let persistence_tests =
  [
    Alcotest.test_case "everything survives close and reopen" `Quick (fun () ->
        let path = Filename.temp_file "natix" ".db" in
        Sys.remove path;
        let config = { (Config.default ()) with Config.page_size = 2048 } in
        let play = List.hd (Shakespeare.generate (Shakespeare.scaled 0.01)) in
        (* session 1: store a validated document with an index *)
        let disk = Natix_store.Disk.on_file ~page_size:2048 path in
        let dm = Document_manager.create (Tree_store.open_store ~config disk) in
        (match Document_manager.store_document dm ~name:"play" ~infer_dtd:true play with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "store: %s" (Error.to_string e));
        let speakers_before = Document_manager.count_elements dm "SPEAKER" in
        Tree_store.sync (Document_manager.store dm);
        Natix_store.Disk.close disk;
        (* session 2: everything is still there *)
        let disk2 = Natix_store.Disk.on_file ~page_size:2048 path in
        let dm2 = Document_manager.create (Tree_store.open_store ~config disk2) in
        Alcotest.check xml "document content" play
          (Option.get (Exporter.document_to_xml (Document_manager.store dm2) "play"));
        Alcotest.(check bool) "dtd survived" true (Document_manager.document_dtd dm2 "play" <> None);
        (match Document_manager.validate dm2 "play" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "validation: %s" (Error.to_string e));
        Alcotest.(check int) "index survived" speakers_before
          (Document_manager.count_elements dm2 "SPEAKER");
        Tree_store.check_document (Document_manager.store dm2) "play";
        Natix_store.Disk.close disk2;
        Sys.remove path);
  ]

(* The bytes a load leaves on disk, pinned: the length and MD5 of the
   store file after a fresh file store (WAL on, default configuration
   but 4 KB pages) is loaded and closed.  Any change to record placement,
   page layout or the node format moves them; the small pages make more
   placement decisions per byte, so a change shows on three plays (a
   free-space inventory one byte short moves both digests; at 8 KB it
   moved neither).  [txn] is the path of [natix bulkload]:
   one transaction per document in its own arena, at one job.  [stream]
   is the path of [natix load --stream]: the SAX loader, one autocommit
   per document in the shared arena. *)
let golden_plays () =
  List.mapi
    (fun i play -> (Printf.sprintf "play-%d" i, Natix_xml.Xml_print.to_string play))
    (Shakespeare.generate { (Shakespeare.scaled 0.08) with Shakespeare.seed = 27L })

let store_bytes load =
  let path = Filename.temp_file "natix_golden" ".natix" in
  let remove () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; Natix_store.Recovery.wal_path path ]
  in
  remove ();
  Fun.protect ~finally:remove (fun () ->
      let config = Some { (Config.default ()) with Config.page_size = 4096 } in
      let index = Document_manager.Maintain in
      let options = { Natix.Session.Options.config; index } in
      let sess = Natix.Session.open_store ~options path in
      load sess;
      Natix.Session.close sess;
      ((Unix.stat path).Unix.st_size, Digest.to_hex (Digest.file path)))

let load_txn sess =
  let outcome = Natix.Session.load_files_txn ~jobs:1 sess (golden_plays ()) in
  List.iter
    (function Ok () -> () | Error e -> Alcotest.failf "txn load: %s" (Error.to_string e))
    outcome.Natix_par.Par.results

let load_stream sess =
  List.iter
    (fun (name, text) ->
      match Document_manager.store_stream (Natix.Session.manager sess) ~name text with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "stream load: %s" (Error.to_string e))
    (golden_plays ())

let golden_tests =
  let pinned name load expected =
    Alcotest.test_case name `Quick (fun () ->
        let first = store_bytes load in
        Alcotest.(check (pair int string))
          "the same bytes on a second run" first (store_bytes load);
        Alcotest.(check (pair int string)) "store length and MD5" expected first)
  in
  [
    pinned "a transactional bulk load writes the pinned store bytes" load_txn
      (765952, "c825bc44060b2207102c7ec228e4209c");
    pinned "a streaming load writes the pinned store bytes" load_stream
      (675840, "b77f41456d29ef2be8d85657da7a01bb");
  ]

(* An instrumented load of a real corpus must leave a coherent trace:
   split events present, each with a fill factor a split could actually
   have happened at, and counters agreeing with the store's own view. *)
let observability_tests =
  [
    Alcotest.test_case "instrumented load traces its splits" `Quick (fun () ->
        let play = List.hd (Shakespeare.generate (Shakespeare.scaled 0.03)) in
        let obs = Natix_obs.Obs.create ~sink:(Natix_obs.Sink.ring ~capacity:65536 ()) () in
        let config =
          {
            (Config.default ()) with
            Config.page_size = 2048;
            buffer_bytes = 256 * 1024;
            obs = Some obs;
          }
        in
        let store = Tree_store.in_memory ~config ~model:Natix_store.Io_model.free () in
        let _ = Loader.load store ~name:"p" play in
        Tree_store.check_document store "p";
        let splits =
          List.filter_map
            (fun (e : Natix_obs.Event.t) ->
              match e.kind with
              | Natix_obs.Event.Split { fill; record_bytes; _ } -> Some (fill, record_bytes)
              | _ -> None)
            (Natix_obs.Obs.events obs)
        in
        Alcotest.(check bool) "at least one split traced" true (List.length splits > 0);
        Alcotest.(check int) "every split traced" (Tree_store.split_count store)
          (List.length splits);
        Alcotest.(check int) "counter agrees"
          (Tree_store.split_count store)
          (Natix_obs.Metrics.counter (Natix_obs.Obs.metrics obs) "ev.split");
        (* A page only overflows once it is nearly full, so the typical
           split must sample a fill within (twice) the split tolerance of
           full — catching inverted or unscaled samples.  Splits during
           the materialisation of an oversized subtree legitimately land
           on fresher pages, so not every event is in the band. *)
        let min_fill = 1.0 -. (2.0 *. config.Config.split_tolerance) in
        List.iter
          (fun (fill, record_bytes) ->
            if fill < 0.0 || fill > 1.0 then Alcotest.failf "split fill %.3f not a ratio" fill;
            if record_bytes <= 0 then Alcotest.fail "split with empty record")
          splits;
        Alcotest.(check bool)
          (Printf.sprintf "some split filled past %.2f" min_fill)
          true
          (List.exists (fun (fill, _) -> fill >= min_fill) splits));
  ]

let suites =
  [
    ("integration.corpus", corpus_tests);
    ("integration.churn", churn_tests);
    ("integration.persistence", persistence_tests);
    ("integration.observability", observability_tests);
    ("integration.golden", golden_tests);
  ]
