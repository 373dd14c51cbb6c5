(* Tests for the element index and the document manager. *)

open Natix_core
module Xml_tree = Natix_xml.Xml_tree
module Xml_parser = Natix_xml.Xml_parser
module Dtd = Natix_xml.Dtd

let mem_store ?(page_size = 512) () =
  let config = { (Config.default ()) with Config.page_size; buffer_bytes = 64 * 1024 } in
  Tree_store.in_memory ~config ~model:Natix_store.Io_model.free ()

let sample =
  "<PLAY><TITLE>Hamlet</TITLE><ACT><TITLE>Act I</TITLE><SCENE><TITLE>Scene 1</TITLE>"
  ^ "<SPEECH><SPEAKER>BERNARDO</SPEAKER><LINE>Who is there?</LINE></SPEECH>"
  ^ "<SPEECH><SPEAKER>FRANCISCO</SPEAKER><LINE>Nay, answer me.</LINE><LINE>Stand.</LINE></SPEECH>"
  ^ "</SCENE></ACT></PLAY>"

let element_index_tests =
  [
    Alcotest.test_case "counts match the document" `Quick (fun () ->
        let store = mem_store () in
        let idx = Element_index.create store ~name:"elements" in
        let _ = Loader.load store ~name:"d" (Xml_parser.parse sample) in
        Alcotest.(check int) "speeches" 2 (Element_index.count idx (Tree_store.label store "SPEECH"));
        Alcotest.(check int) "lines" 3 (Element_index.count idx (Tree_store.label store "LINE"));
        Alcotest.(check int) "titles" 3 (Element_index.count idx (Tree_store.label store "TITLE"));
        Element_index.check idx);
    Alcotest.test_case "a rid freed by relocation and reused is not re-indexed" `Quick
      (fun () ->
        (* Loading under small pages relocates overflowing records, so
           some rids are dropped mid-load and the freed slots get reused
           — by later tree records or by the index's own B+-tree pages.
           The index must honour the trailing Dropped event instead of
           fetching (and indexing) whatever occupies the rid now. *)
        let store = mem_store ~page_size:1024 () in
        let idx = Element_index.create store ~name:"elements" in
        let doc =
          Xml_tree.element "PLAY"
            (List.init 2 (fun act ->
                 Xml_tree.element "ACT"
                   (List.init 20 (fun sp ->
                        Xml_tree.element "SPEECH"
                          [
                            Xml_tree.element "SPEAKER"
                              [ Xml_tree.text (Printf.sprintf "S%d" sp) ];
                            Xml_tree.element "LINE"
                              [
                                Xml_tree.text
                                  (Printf.sprintf
                                     "act %d speech %d with some more words to fill the page"
                                     act sp);
                              ];
                          ]))))
        in
        let _ = Loader.load store ~name:"d" doc in
        Alcotest.(check int) "speakers" 40
          (Element_index.count idx (Tree_store.label store "SPEAKER"));
        Element_index.check idx);
    Alcotest.test_case "scan returns every node of a label" `Quick (fun () ->
        let store = mem_store () in
        let idx = Element_index.create store ~name:"elements" in
        let _ = Loader.load store ~name:"d" (Xml_parser.parse sample) in
        let speakers = Element_index.scan idx (Tree_store.label store "SPEAKER") in
        Alcotest.(check int) "two speakers" 2 (List.length speakers);
        let texts = List.map (Tree_store.text_of store) (List.concat_map (fun n -> List.of_seq (Tree_store.logical_children store n)) speakers) in
        Alcotest.(check bool) "names found" true
          (List.mem "BERNARDO" texts && List.mem "FRANCISCO" texts));
    Alcotest.test_case "index follows inserts and deletes" `Quick (fun () ->
        let store = mem_store () in
        let idx = Element_index.create store ~name:"elements" in
        let _ = Loader.load store ~name:"d" (Xml_parser.parse sample) in
        let speech = List.hd (Test_core.query store ~doc:"d" "//SPEECH[1]") in
        let _ =
          Tree_store.insert_node store
            (Tree_store.After (Cursor.node speech))
            (Tree_store.Elem (Tree_store.label store "SPEECH"))
        in
        Alcotest.(check int) "insert indexed" 3
          (Element_index.count idx (Tree_store.label store "SPEECH"));
        Tree_store.delete_node store (Cursor.node speech);
        Alcotest.(check int) "delete indexed" 2
          (Element_index.count idx (Tree_store.label store "SPEECH"));
        Element_index.check idx);
    Alcotest.test_case "index stays consistent across splits" `Quick (fun () ->
        let store = mem_store ~page_size:512 () in
        let idx = Element_index.create store ~name:"elements" in
        let doc =
          Xml_tree.element "R"
            (List.init 60 (fun i ->
                 Xml_tree.element "E" [ Xml_tree.text (Printf.sprintf "payload %d filler" i) ]))
        in
        let _ = Loader.load store ~name:"d" doc in
        Alcotest.(check bool) "splits happened" true (Tree_store.split_count store > 0);
        Alcotest.(check int) "all indexed" 60 (Element_index.count idx (Tree_store.label store "E"));
        Alcotest.(check int) "scan total" 60
          (List.length (Element_index.scan idx (Tree_store.label store "E")));
        Element_index.check idx);
    Alcotest.test_case "attributes are indexed under @labels" `Quick (fun () ->
        let store = mem_store () in
        let idx = Element_index.create store ~name:"elements" in
        let _ = Loader.load store ~name:"d" (Xml_parser.parse {|<a id="1"><b id="2"/><b/></a>|}) in
        Alcotest.(check int) "@id" 2 (Element_index.count idx (Tree_store.label store "@id")));
    Alcotest.test_case "rebuild recovers from missed updates" `Quick (fun () ->
        let store = mem_store () in
        (* Load while no index is attached. *)
        let _ = Loader.load store ~name:"d" (Xml_parser.parse sample) in
        let idx = Element_index.create store ~name:"elements" in
        Alcotest.(check int) "empty before rebuild" 0
          (Element_index.count idx (Tree_store.label store "LINE"));
        Element_index.rebuild idx;
        Alcotest.(check int) "rebuilt" 3 (Element_index.count idx (Tree_store.label store "LINE"));
        Element_index.check idx);
    Alcotest.test_case "index persists across reopen" `Quick (fun () ->
        let path = Filename.temp_file "natix" ".db" in
        Sys.remove path;
        let config = { (Config.default ()) with Config.page_size = 1024 } in
        let disk = Natix_store.Disk.on_file ~page_size:1024 path in
        let store = Tree_store.open_store ~config disk in
        let idx = Element_index.create store ~name:"elements" in
        Tree_store.autocommit store ~doc:"d" (fun () ->
            ignore (Loader.load store ~name:"d" (Xml_parser.parse sample)));
        Element_index.refresh idx;
        Tree_store.sync store;
        Natix_store.Disk.close disk;
        let disk2 = Natix_store.Disk.on_file ~page_size:1024 path in
        let store2 = Tree_store.open_store ~config disk2 in
        let idx2 = Option.get (Element_index.open_index store2 ~name:"elements") in
        Alcotest.(check int) "counts survive" 3
          (Element_index.count idx2 (Tree_store.label store2 "LINE"));
        Element_index.check idx2;
        Natix_store.Disk.close disk2;
        Sys.remove path);
    Alcotest.test_case "change epoch persists and detects missed loads" `Quick (fun () ->
        let path = Filename.temp_file "natix_epoch" ".db" in
        Sys.remove path;
        let wal = Natix_store.Recovery.wal_path path in
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists path then Sys.remove path;
            if Sys.file_exists wal then Sys.remove wal)
          (fun () ->
            let config = { (Config.default ()) with Config.page_size = 1024 } in
            let open_store () =
              Tree_store.open_store ~config (Natix_store.Disk.on_file ~page_size:1024 path)
            in
            (* Session 1: index created and synced with one document. *)
            let store = open_store () in
            let idx = Element_index.create store ~name:"elements" in
            Alcotest.(check bool) "fresh on an empty store" false (Element_index.stale idx);
            Tree_store.autocommit store ~doc:"d1" (fun () ->
                ignore (Loader.load store ~name:"d1" (Xml_parser.parse sample)));
            Element_index.refresh idx;
            Alcotest.(check bool) "current after refresh" false (Element_index.stale idx);
            Tree_store.close store;
            (* Session 2: a load the index never sees (no handle attached). *)
            let store = open_store () in
            Alcotest.(check bool) "epoch persisted" true (Tree_store.change_epoch store > 0);
            let epoch_before = Tree_store.change_epoch store in
            Tree_store.autocommit store ~doc:"d2" (fun () ->
                ignore (Loader.load store ~name:"d2" (Xml_parser.parse sample)));
            Alcotest.(check bool) "epoch advances" true
              (Tree_store.change_epoch store > epoch_before);
            Tree_store.close store;
            (* Session 3: the missed load is detectable, and rebuild repairs it. *)
            let store = open_store () in
            let idx = Option.get (Element_index.open_index store ~name:"elements") in
            Alcotest.(check bool) "stale after a missed load" true (Element_index.stale idx);
            Alcotest.(check int) "postings miss d2" 3
              (Element_index.count idx (Tree_store.label store "LINE"));
            Element_index.rebuild idx;
            Alcotest.(check bool) "fresh after rebuild" false (Element_index.stale idx);
            Alcotest.(check int) "postings cover both" 6
              (Element_index.count idx (Tree_store.label store "LINE"));
            Tree_store.sync store;
            Tree_store.close store;
            (* Session 4: the repair survives reopening. *)
            let store = open_store () in
            let idx = Option.get (Element_index.open_index store ~name:"elements") in
            Alcotest.(check bool) "still fresh" false (Element_index.stale idx);
            Tree_store.close ~commit:false store));
    Alcotest.test_case "labels lists everything" `Quick (fun () ->
        let store = mem_store () in
        let idx = Element_index.create store ~name:"elements" in
        let _ = Loader.load store ~name:"d" (Xml_parser.parse "<a><b/><b/><c/></a>") in
        let names =
          List.map (fun (l, c) -> (Tree_store.label_name store l, c)) (Element_index.labels idx)
        in
        Alcotest.(check (list (pair string int))) "labels"
          [ ("a", 1); ("b", 2); ("c", 1) ]
          (List.sort compare names));
  ]

let document_manager_tests =
  [
    Alcotest.test_case "valid documents are stored with their DTD" `Quick (fun () ->
        let dm = Document_manager.create (mem_store ()) in
        let xml = Xml_parser.parse sample in
        (match Document_manager.store_document dm ~name:"d" ~infer_dtd:true xml with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e));
        Alcotest.(check bool) "dtd stored" true (Document_manager.document_dtd dm "d" <> None);
        match Document_manager.validate dm "d" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "revalidation failed: %s" (Error.to_string e));
    Alcotest.test_case "invalid documents are rejected" `Quick (fun () ->
        let dm = Document_manager.create (mem_store ()) in
        let dtd = Dtd.create ~name:"strict" in
        Dtd.declare dtd "a" (Dtd.Children_of [ "b" ]);
        Dtd.declare dtd "b" Dtd.Pcdata_only;
        match Document_manager.store_document dm ~name:"d" ~dtd (Xml_parser.parse "<a><c/></a>") with
        | Error _ -> Alcotest.(check (list string)) "nothing stored" []
            (Tree_store.list_documents (Document_manager.store dm))
        | Ok _ -> Alcotest.fail "expected rejection");
    Alcotest.test_case "fragment insertion validates against the DTD" `Quick (fun () ->
        let dm = Document_manager.create (mem_store ()) in
        let dtd = Dtd.create ~name:"plays" in
        Dtd.declare dtd "SCENE" (Dtd.Children_of [ "SPEECH" ]);
        Dtd.declare dtd "SPEECH" (Dtd.Children_of [ "LINE" ]);
        Dtd.declare dtd "LINE" Dtd.Pcdata_only;
        let xml = Xml_parser.parse "<SCENE><SPEECH><LINE>x</LINE></SPEECH></SCENE>" in
        let root =
          match Document_manager.store_document dm ~name:"d" ~dtd xml with
          | Ok root -> root
          | Error e -> Alcotest.failf "store failed: %s" (Error.to_string e)
        in
        (* A SPEECH fragment fits under SCENE... *)
        (match
           Document_manager.insert_fragment dm ~doc:"d" (Tree_store.First_under root)
             (Xml_parser.parse "<SPEECH><LINE>y</LINE></SPEECH>")
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "valid fragment rejected: %s" (Error.to_string e));
        (* ... a TITLE fragment does not. *)
        (match
           Document_manager.insert_fragment dm ~doc:"d" (Tree_store.First_under root)
             (Xml_parser.parse "<LINE>stray</LINE>")
         with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "invalid fragment accepted");
        match Document_manager.validate dm "d" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "document invalid after edits: %s" (Error.to_string e));
    Alcotest.test_case "elements_named uses the index" `Quick (fun () ->
        let dm = Document_manager.create (mem_store ()) in
        (match Document_manager.store_document dm ~name:"d" (Xml_parser.parse sample) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "store failed: %s" (Error.to_string e));
        Alcotest.(check int) "lines via index" 3 (Document_manager.count_elements dm "LINE");
        Alcotest.(check int) "scan size" 3 (List.length (Document_manager.elements_named dm "LINE"));
        Alcotest.(check int) "unknown name" 0 (Document_manager.count_elements dm "NOPE"));
    Alcotest.test_case "elements_named without an index traverses" `Quick (fun () ->
        let dm = Document_manager.create ~index:Document_manager.Off (mem_store ()) in
        (match Document_manager.store_document dm ~name:"d" (Xml_parser.parse sample) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "store failed: %s" (Error.to_string e));
        Alcotest.(check int) "lines via traversal" 3 (Document_manager.count_elements dm "LINE"));
    Alcotest.test_case "index modes: stale index is skipped or repaired" `Quick (fun () ->
        let path = Filename.temp_file "natix_modes" ".db" in
        Sys.remove path;
        let wal = Natix_store.Recovery.wal_path path in
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists path then Sys.remove path;
            if Sys.file_exists wal then Sys.remove wal)
          (fun () ->
            let config = { (Config.default ()) with Config.page_size = 1024 } in
            let with_dm ?index ?(commit = true) f =
              let store =
                Tree_store.open_store ~config (Natix_store.Disk.on_file ~page_size:1024 path)
              in
              let dm = Document_manager.create ?index store in
              let r = f dm in
              if commit then Document_manager.checkpoint dm;
              Tree_store.close ~commit:false store;
              r
            in
            let store_doc dm name =
              match Document_manager.store_document dm ~name (Xml_parser.parse sample) with
              | Ok _ -> ()
              | Error e -> Alcotest.fail (Error.to_string e)
            in
            (* Writer 1 persists the index with one document. *)
            with_dm (fun dm -> store_doc dm "d1");
            (* Writer 2 loads without the index: it goes stale on disk. *)
            with_dm ~index:Document_manager.Off (fun dm -> store_doc dm "d2");
            (* A read-only session must not use (or touch) the stale index,
               and still answers correctly by traversal. *)
            with_dm ~index:Document_manager.Fresh_only ~commit:false (fun dm ->
                Alcotest.(check bool) "stale index skipped" true
                  (Document_manager.index dm = None);
                Alcotest.(check bool) "skip is observable" true
                  (Document_manager.stale_index_skipped dm);
                Alcotest.(check int) "correct without the index" 6
                  (Document_manager.count_elements dm "LINE"));
            (* [Maintain] (a writer) repairs it in passing. *)
            with_dm ~index:Document_manager.Maintain (fun dm ->
                Alcotest.(check bool) "persisted index opened" true
                  (Document_manager.index dm <> None);
                Alcotest.(check int) "repaired counts" 6
                  (Document_manager.count_elements dm "LINE"));
            (* After the committed repair a fresh read-only session uses it. *)
            with_dm ~index:Document_manager.Fresh_only ~commit:false (fun dm ->
                Alcotest.(check bool) "fresh index used" true
                  (Document_manager.index dm <> None);
                Alcotest.(check int) "index counts" 6
                  (Document_manager.count_elements dm "LINE"))));
    Alcotest.test_case "Maintain does not create an index" `Quick (fun () ->
        let dm = Document_manager.create ~index:Document_manager.Maintain (mem_store ()) in
        (match Document_manager.store_document dm ~name:"d" (Xml_parser.parse sample) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Error.to_string e));
        Alcotest.(check bool) "no index materialised" true (Document_manager.index dm = None);
        Alcotest.(check bool) "nothing registered" false
          (Element_index.persisted (Document_manager.store dm) ~name:"elements"));
    Alcotest.test_case "delete_document drops the DTD registration" `Quick (fun () ->
        let dm = Document_manager.create (mem_store ()) in
        (match Document_manager.store_document dm ~name:"d" ~infer_dtd:true (Xml_parser.parse sample) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "store failed: %s" (Error.to_string e));
        Document_manager.delete_document dm "d";
        Alcotest.(check bool) "dtd gone" true (Document_manager.document_dtd dm "d" = None);
        Alcotest.(check int) "index emptied" 0 (Document_manager.count_elements dm "LINE"));
  ]

(* File-backed stores for the index tests below. *)
let file_page_size = 1024

let file_config () =
  { (Config.default ()) with Config.page_size = file_page_size; buffer_bytes = 16 * file_page_size }

let with_path f =
  let path = Filename.temp_file "natix_index" ".db" in
  let clean () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; Natix_store.Recovery.wal_path path ]
  in
  clean ();
  Fun.protect ~finally:clean (fun () -> f path)

(* [n] copies of [sample] through the transactional bulk load, whose
   explicit transactions leave their index postings pending. *)
let load_all sess n =
  List.iter
    (function Ok () -> () | Error e -> Alcotest.failf "load failed: %s" (Error.to_string e))
    (Natix.Session.load_files_txn ~jobs:2 sess
       (List.init n (fun i -> (Printf.sprintf "d%d" i, sample))))
      .Natix_par.Par.results

(* A stale index is not corruption: fsck checks its B-tree structure, and
   the next writable open with [Ensure] rebuilds it. *)
let stale_index_tests =
  let page_size = file_page_size and config = file_config in
  (* fsck without an index handle, then a clean check after [Ensure]. *)
  let verify what path =
    let store = Tree_store.open_store ~config:(config ()) (Natix_store.Disk.on_file ~page_size path) in
    let report = Fsck.run store in
    if not (Fsck.ok report) then Alcotest.failf "%s: fsck: %a" what Fsck.pp report;
    Tree_store.close ~commit:false store;
    let options = { Natix.Session.Options.default with config = Some (config ()) } in
    Natix.Session.with_store ~options path (fun sess ->
        let idx = Option.get (Document_manager.index (Natix.Session.manager sess)) in
        Alcotest.(check bool) (what ^ ": current after Ensure") false (Element_index.stale idx);
        Element_index.check idx);
    report
  in
  [
    Alcotest.test_case "fsck reports a stale index as stale, not corrupt" `Quick (fun () ->
        with_path (fun path ->
            let options = { Natix.Session.Options.default with config = Some (config ()) } in
            let sess = Natix.Session.open_store ~options path in
            load_all sess 2;
            Natix.Session.close ~commit:false sess;
            let report = verify "after an unclean close" path in
            Alcotest.(check bool) "reported stale" true (report.Fsck.index = Fsck.Stale_index);
            Alcotest.(check bool) "pp says stale" true
              (let s = Format.asprintf "%a" Fsck.pp report in
               let rec has i = i + 5 <= String.length s && (String.sub s i 5 = "stale" || has (i + 1)) in
               has 0)));
    Alcotest.test_case "a crash at every write of the checkpoint leaves the index fsck-clean"
      `Quick (fun () ->
        with_path (fun path ->
            (* Three transactional loads leave postings pending; the
               checkpoint folds them in a transaction, then flushes. *)
            let run arm =
              let plan = Natix_store.Faulty_disk.create ~seed:17L () in
              let disk = Natix_store.Disk.on_file ~page_size path in
              Natix_store.Disk.set_faults disk (Some plan);
              let store = Tree_store.open_store ~config:(config ()) disk in
              let sess = Natix.Session.of_store ~monitor:false store in
              load_all sess 3;
              let before = Natix_store.Faulty_disk.writes_seen plan in
              Option.iter (fun k -> Natix_store.Faulty_disk.arm_crash plan (before + k)) arm;
              let crashed =
                match Natix.Session.checkpoint sess with
                | () -> false
                | exception Natix_store.Faulty_disk.Crash -> true
              in
              Tree_store.close ~commit:false store;
              (crashed, Natix_store.Faulty_disk.writes_seen plan - before)
            in
            let _, writes = run None in
            Alcotest.(check bool) "the checkpoint writes" true (writes > 0);
            for k = 0 to writes - 1 do
              List.iter
                (fun p -> if Sys.file_exists p then Sys.remove p)
                [ path; Natix_store.Recovery.wal_path path ];
              let crashed, _ = run (Some k) in
              Alcotest.(check bool) (Printf.sprintf "write %d: crashed" k) true crashed;
              ignore (verify (Printf.sprintf "crash at write %d" k) path)
            done));
  ]

(* Reads answer for pending postings without folding them: a fold writes
   index pages, which on a file-backed store takes a transaction. *)
let pending_index_tests =
  [
    Alcotest.test_case "reads merge pending postings and log nothing" `Quick (fun () ->
        with_path (fun path ->
            let options = { Natix.Session.Options.default with config = Some (file_config ()) } in
            let sess = Natix.Session.open_store ~options path in
            Fun.protect ~finally:(fun () -> Natix.Session.close ~commit:false sess) (fun () ->
                let dm = Natix.Session.manager sess in
                let store = Document_manager.store dm in
                let idx = Option.get (Document_manager.index dm) in
                load_all sess 2;
                Alcotest.(check bool) "postings pending" true (Element_index.pending idx > 0);
                let wal = Option.get (Natix_store.Buffer_pool.wal (Tree_store.buffer_pool store)) in
                let appends = Natix_store.Wal.appends wal in
                let line = Tree_store.label store "LINE" in
                let reads () =
                  ( Element_index.count idx line,
                    List.length (Element_index.records_with idx line),
                    List.length (Element_index.scan idx line),
                    List.assoc line (Element_index.labels idx),
                    Document_manager.count_elements dm "LINE" )
                in
                let navigated =
                  List.length (Test_core.query store ~doc:"d0" "//LINE")
                  + List.length (Test_core.query store ~doc:"d1" "//LINE")
                in
                let c, recs, scanned, listed, counted = reads () in
                Alcotest.(check (list int)) "every read sees both documents"
                  [ navigated; navigated; navigated; navigated ]
                  [ c; scanned; listed; counted ];
                let hits engine =
                  match Natix_query.Engine.query engine ~doc:"d1" "//LINE" with
                  | Ok seq ->
                    List.map (fun c -> Exporter.to_string store (Cursor.node c)) (List.of_seq seq)
                  | Error e -> Alcotest.failf "query failed: %s" (Error.to_string e)
                in
                Alcotest.(check (list string)) "an index-planned query matches navigation"
                  (hits (Natix_query.Engine.create store))
                  (hits (Natix_query.Engine.of_manager dm));
                Alcotest.(check int) "reads logged nothing" appends (Natix_store.Wal.appends wal);
                Alcotest.(check bool) "still pending" true (Element_index.pending idx > 0);
                (* The checkpoint folds them, and the reads do not move. *)
                Document_manager.checkpoint dm;
                Alcotest.(check int) "folded at the checkpoint" 0 (Element_index.pending idx);
                Element_index.check idx;
                let c', recs', scanned', listed', counted' = reads () in
                Alcotest.(check (list int)) "same answers once folded"
                  [ c; recs; scanned; listed; counted ]
                  [ c'; recs'; scanned'; listed'; counted' ])));
  ]

let dtd_codec_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100 ~name:"dtd encode/decode roundtrip"
         QCheck2.Gen.(
           list_size (int_bound 10)
             (pair
                (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
                (int_bound 4)))
         (fun decls ->
           let dtd = Dtd.create ~name:"test" in
           List.iter
             (fun (el, kind) ->
               let spec =
                 match kind with
                 | 0 -> Dtd.Any
                 | 1 -> Dtd.Empty
                 | 2 -> Dtd.Pcdata_only
                 | 3 -> Dtd.Children_of [ "x"; "y" ]
                 | _ -> Dtd.Mixed [ "z" ]
               in
               Dtd.declare dtd el spec)
             decls;
           let dtd' = Dtd.decode (Dtd.encode dtd) in
           Dtd.alphabet dtd = Dtd.alphabet dtd'
           && List.for_all (fun el -> Dtd.spec_of dtd el = Dtd.spec_of dtd' el) (Dtd.alphabet dtd)));
  ]

let suites =
  [
    ("core.element_index", element_index_tests);
    ("core.document_manager", document_manager_tests);
    ("core.stale_index", stale_index_tests);
    ("core.pending_index", pending_index_tests);
    ("xml.dtd_codec", dtd_codec_tests);
  ]
