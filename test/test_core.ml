(* Tests for natix_core: physical nodes, the codec, the split matrix, the
   tree store (tree growth procedure, splits, merges, fragmentation), the
   cursor, loader, exporter and path queries. *)

open Natix_util
open Natix_core
module Xml_tree = Natix_xml.Xml_tree
module Xml_parser = Natix_xml.Xml_parser
module Xml_print = Natix_xml.Xml_print

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let xml = Alcotest.testable Xml_tree.pp Xml_tree.equal

let mem_store ?(page_size = 512) ?(matrix = Split_matrix.native ()) ?(merge_threshold = 0.5) ()
    =
  let config =
    {
      (Config.default ()) with
      Config.page_size;
      matrix;
      merge_threshold;
      buffer_bytes = 64 * 1024;
    }
  in
  Tree_store.in_memory ~config ~model:Natix_store.Io_model.free ()

(* Path queries by strict navigation ({!Natix_query.Engine.query_naive}):
   every hit is materialised and the page accesses follow the cursor
   walk. *)
let query store ~doc path =
  match Natix_query.Engine.query_naive (Natix_query.Engine.create store) ~doc path with
  | Ok hits -> List.of_seq hits
  | Error e -> Alcotest.failf "%s: %s" path (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Phys_node                                                           *)

let phys_node_tests =
  [
    Alcotest.test_case "sizes are computed and cached" `Quick (fun () ->
        let t =
          Phys_node.aggregate 2
            [ Phys_node.literal (Str "hello"); Phys_node.proxy (Rid.make ~page:1 ~slot:0) ]
        in
        Alcotest.(check int) "literal" (6 + 5) (List.hd (Phys_node.children t)).Phys_node.size;
        Alcotest.(check int) "aggregate" (6 + 11 + 14) t.Phys_node.size;
        Alcotest.(check int) "cached = computed" (Phys_node.compute_size t) t.Phys_node.size);
    Alcotest.test_case "insert_child updates ancestor sizes" `Quick (fun () ->
        let inner = Phys_node.aggregate 3 [] in
        let outer = Phys_node.aggregate 2 [ inner ] in
        Phys_node.insert_child inner ~index:0 (Phys_node.literal (Str "xyz"));
        Alcotest.(check int) "outer grew" (6 + 6 + 9) outer.Phys_node.size;
        Alcotest.(check int) "consistent" (Phys_node.compute_size outer) outer.Phys_node.size);
    Alcotest.test_case "remove_child updates ancestor sizes" `Quick (fun () ->
        let lit = Phys_node.literal (Str "xyz") in
        let inner = Phys_node.aggregate 3 [ lit ] in
        let outer = Phys_node.aggregate 2 [ inner ] in
        Phys_node.remove_child inner lit;
        Alcotest.(check int) "outer shrank" (6 + 6) outer.Phys_node.size;
        Alcotest.(check bool) "detached" true (lit.Phys_node.parent = None));
    Alcotest.test_case "index_of uses physical identity" `Quick (fun () ->
        let a = Phys_node.literal (Str "same") in
        let b = Phys_node.literal (Str "same") in
        let p = Phys_node.aggregate 2 [ a; b ] in
        Alcotest.(check int) "first" 0 (Phys_node.index_of p a);
        Alcotest.(check int) "second" 1 (Phys_node.index_of p b));
    Alcotest.test_case "record_size swaps header sizes" `Quick (fun () ->
        let t = Phys_node.aggregate 2 [] in
        Alcotest.(check int) "10-byte standalone header" 10 (Phys_node.record_size t));
    Alcotest.test_case "facade vs scaffolding" `Quick (fun () ->
        Alcotest.(check bool) "element is facade" true
          (Phys_node.is_facade (Phys_node.aggregate 2 []));
        Alcotest.(check bool) "scaffold aggregate" true
          (Phys_node.is_scaffolding (Phys_node.scaffold_aggregate []));
        Alcotest.(check bool) "proxy is scaffolding" true
          (Phys_node.is_scaffolding (Phys_node.proxy Rid.null)));
  ]

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let gen_literal : Phys_node.literal QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      map (fun s -> Phys_node.Str s) (string_size ~gen:printable (int_bound 40));
      map (fun s -> Phys_node.Uri ("http://" ^ s)) (string_size ~gen:(char_range 'a' 'z') (int_range 1 20));
      map (fun v -> Phys_node.Int8 v) (int_bound 255);
      map (fun v -> Phys_node.Int16 v) (int_bound 65535);
      map (fun v -> Phys_node.Int32 (Int32.of_int v)) int;
      map (fun v -> Phys_node.Int64 (Int64.of_int v)) int;
      map (fun v -> Phys_node.Float v) float;
    ]

let gen_phys : Phys_node.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let node =
    fix
      (fun self depth ->
        if depth = 0 then map (fun v -> Phys_node.literal v) gen_literal
        else
          frequency
            [
              (2, map (fun v -> Phys_node.literal v) gen_literal);
              ( 1,
                map
                  (fun (p, s) -> Phys_node.proxy (Rid.make ~page:p ~slot:s))
                  (pair (int_bound 1000) (int_bound 100)) );
              ( 3,
                map2
                  (fun label cs -> Phys_node.aggregate label cs)
                  (int_range 2 10)
                  (list_size (int_bound 4) (self (depth - 1))) );
            ])
      3
  in
  let open QCheck2.Gen in
  map2
    (fun label cs -> Phys_node.aggregate label cs)
    (int_range 2 10)
    (list_size (int_bound 4) node)

let codec_tests =
  [
    qtest ~count:300 "encode/decode roundtrip"
      QCheck2.Gen.(pair gen_phys (pair (int_bound 1000) (int_bound 100)))
      (fun (root, (page, slot)) ->
        let tbl = Node_type_table.create () in
        let parent_rid = Rid.make ~page ~slot in
        let body = Node_codec.encode tbl ~parent_rid root in
        let decoded, prid = Node_codec.decode tbl body in
        String.length body = Phys_node.record_size root
        && Rid.equal prid parent_rid
        && Node_codec.structural_equal decoded root
        && decoded.Phys_node.size = root.Phys_node.size);
    Alcotest.test_case "proxy roots are rejected" `Quick (fun () ->
        let tbl = Node_type_table.create () in
        match Node_codec.encode tbl ~parent_rid:Rid.null (Phys_node.proxy Rid.null) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection");
    Alcotest.test_case "embedded headers cost 6 bytes" `Quick (fun () ->
        let tbl = Node_type_table.create () in
        let root = Phys_node.aggregate 2 [ Phys_node.literal (Str "x") ] in
        let body = Node_codec.encode tbl ~parent_rid:Rid.null root in
        (* 10 (standalone) + 6 (embedded header) + 1 (payload) *)
        Alcotest.(check int) "size" 17 (String.length body));
    Alcotest.test_case "corrupt parent offsets detected" `Quick (fun () ->
        let tbl = Node_type_table.create () in
        let root = Phys_node.aggregate 2 [ Phys_node.literal (Str "x") ] in
        let body = Bytes.of_string (Node_codec.encode tbl ~parent_rid:Rid.null root) in
        Bytes_util.set_u16 body 14 999;
        match Node_codec.decode tbl (Bytes.to_string body) with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected decode failure");
    Alcotest.test_case "decode_parent_rid" `Quick (fun () ->
        let tbl = Node_type_table.create () in
        let rid = Rid.make ~page:7 ~slot:9 in
        let body = Node_codec.encode tbl ~parent_rid:rid (Phys_node.aggregate 2 []) in
        Alcotest.(check bool) "parent rid" true (Rid.equal rid (Node_codec.decode_parent_rid body)));
    qtest "type table roundtrip"
      QCheck2.Gen.(list_size (int_bound 60) (pair (int_bound 9) (int_bound 5000)))
      (fun entries ->
        let tags =
          [|
            Node_type_table.Tag_aggregate; Tag_frag_aggregate; Tag_proxy; Tag_str; Tag_int8;
            Tag_int16; Tag_int32; Tag_int64; Tag_float; Tag_uri;
          |]
        in
        let tbl = Node_type_table.create () in
        let idxs = List.map (fun (t, l) -> Node_type_table.index tbl tags.(t) l) entries in
        let tbl' = Node_type_table.decode (Node_type_table.encode tbl) in
        Node_type_table.size tbl = Node_type_table.size tbl'
        && List.for_all2
             (fun (t, l) i -> Node_type_table.entry tbl' i = (tags.(t), l))
             entries idxs);
    qtest "type table indices follow first-intern order"
      QCheck2.Gen.(list_size (int_bound 80) (pair (int_bound 1) (int_bound 20)))
      (fun entries ->
        let tbl = Node_type_table.create () in
        let first = Hashtbl.create 16 in
        List.for_all
          (fun (t, l) ->
            let tag = if t = 0 then Node_type_table.Tag_aggregate else Tag_str in
            if not (Hashtbl.mem first (t, l)) then Hashtbl.add first (t, l) (Hashtbl.length first);
            Node_type_table.index tbl tag l = Hashtbl.find first (t, l))
          entries);
    Alcotest.test_case "type table holds 65535 entries, then fails" `Quick (fun () ->
        let tbl = Node_type_table.create () in
        for l = 0 to 0xfffe do
          Alcotest.(check int) "index" l (Node_type_table.index tbl Tag_str l)
        done;
        (match Node_type_table.index tbl Tag_str 0xffff with
        | exception Failure _ -> ()
        | i -> Alcotest.failf "entry 65536 got index %d" i);
        Alcotest.(check int) "size" 0xffff (Node_type_table.size tbl);
        Alcotest.(check int) "known entries still resolve" 0xfffe
          (Node_type_table.index tbl Tag_str 0xfffe));
    Alcotest.test_case "a full type table roundtrips through encode/decode" `Quick (fun () ->
        let tbl = Node_type_table.create () in
        for l = 0 to 0xfffe do
          ignore (Node_type_table.index tbl (if l mod 2 = 0 then Tag_str else Tag_aggregate) l)
        done;
        let tbl' = Node_type_table.decode (Node_type_table.encode tbl) in
        Alcotest.(check int) "size" 0xffff (Node_type_table.size tbl');
        for i = 0 to 0xfffe do
          if Node_type_table.entry tbl' i <> Node_type_table.entry tbl i then
            Alcotest.failf "entry %d differs" i
        done);
    Alcotest.test_case "unknown type index is rejected" `Quick (fun () ->
        let tbl = Node_type_table.create () in
        ignore (Node_type_table.index tbl Tag_aggregate 2);
        List.iter
          (fun bad ->
            match Node_type_table.entry tbl bad with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "index %d resolved" bad)
          [ -1; 1; 0x10000 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Split matrix                                                        *)

let split_matrix_tests =
  [
    Alcotest.test_case "default behaviour" `Quick (fun () ->
        let m = Split_matrix.create () in
        Alcotest.(check string) "other" "other"
          (Split_matrix.behaviour_to_string (Split_matrix.get m ~parent:2 ~child:3)));
    Alcotest.test_case "explicit entries win over the default" `Quick (fun () ->
        let m = Split_matrix.create ~default:Split_matrix.Other () in
        Split_matrix.set m ~parent:2 ~child:3 Split_matrix.Cluster;
        Alcotest.(check bool) "entry wins" true
          (Split_matrix.get m ~parent:2 ~child:3 = Split_matrix.Cluster);
        Alcotest.(check bool) "default elsewhere" true
          (Split_matrix.get m ~parent:9 ~child:3 = Split_matrix.Other));
    Alcotest.test_case "named configurations" `Quick (fun () ->
        Alcotest.(check bool) "1:1" true
          (Split_matrix.get (Split_matrix.one_to_one ()) ~parent:5 ~child:6
          = Split_matrix.Standalone);
        Alcotest.(check bool) "native" true
          (Split_matrix.get (Split_matrix.native ()) ~parent:5 ~child:6 = Split_matrix.Other));
  ]

(* ------------------------------------------------------------------ *)
(* Tree store                                                          *)

let sample_doc =
  "<PLAY><TITLE>Hamlet</TITLE><ACT><TITLE>Act I</TITLE><SCENE><TITLE>Scene 1</TITLE>"
  ^ "<SPEECH><SPEAKER>BERNARDO</SPEAKER><LINE>Who is there?</LINE></SPEECH>"
  ^ "<SPEECH><SPEAKER>FRANCISCO</SPEAKER><LINE>Nay, answer me: stand, and unfold yourself.</LINE>"
  ^ "<LINE>Long live the king and all his men at arms tonight.</LINE></SPEECH></SCENE>"
  ^ "<SCENE><TITLE>Scene 2</TITLE><SPEECH><SPEAKER>CLAUDIUS</SPEAKER>"
  ^ "<LINE>Though yet of Hamlet our dear brother death the memory be green.</LINE></SPEECH>"
  ^ "</SCENE></ACT></PLAY>"

let roundtrip ?(page_size = 512) ?(matrix = Split_matrix.native ()) ~order () =
  let store = mem_store ~page_size ~matrix () in
  let t = Xml_parser.parse sample_doc in
  let _root = Loader.load store ~name:"doc" ~order t in
  Tree_store.check_document store "doc";
  (store, t, Option.get (Exporter.document_to_xml store "doc"))

let tree_store_tests =
  [
    Alcotest.test_case "roundtrip native preorder, tiny pages" `Quick (fun () ->
        let _, t, back = roundtrip ~page_size:512 ~order:Loader.Preorder () in
        Alcotest.check xml "roundtrip" t back);
    Alcotest.test_case "roundtrip native bfs, tiny pages" `Quick (fun () ->
        let _, t, back = roundtrip ~page_size:512 ~order:Loader.Bfs_binary () in
        Alcotest.check xml "roundtrip" t back);
    Alcotest.test_case "roundtrip 1:1 both orders" `Quick (fun () ->
        List.iter
          (fun order ->
            let _, t, back =
              roundtrip ~page_size:512 ~matrix:(Split_matrix.one_to_one ()) ~order ()
            in
            Alcotest.check xml "roundtrip" t back)
          [ Loader.Preorder; Loader.Bfs_binary ]);
    Alcotest.test_case "splits occur under pressure and keep records legal" `Quick (fun () ->
        let store = mem_store ~page_size:512 () in
        let doc =
          Xml_tree.element "R"
            (List.init 40 (fun i ->
                 Xml_tree.element "E"
                   [ Xml_tree.text (Printf.sprintf "payload number %d with some length" i) ]))
        in
        let _ = Loader.load store ~name:"d" doc in
        Alcotest.(check bool) "splits happened" true (Tree_store.split_count store > 0);
        Tree_store.check_document store "d");
    Alcotest.test_case "1:1 emulation: every element is its own record" `Quick (fun () ->
        let store = mem_store ~page_size:2048 ~matrix:(Split_matrix.one_to_one ()) () in
        let t = Xml_parser.parse sample_doc in
        let _ = Loader.load store ~name:"d" t in
        let s = Stats.document store "d" in
        Alcotest.(check int) "one record per logical node" (Xml_tree.node_count t) s.Stats.records);
    Alcotest.test_case "all-cluster matrix cannot store big documents" `Quick (fun () ->
        let matrix = Split_matrix.create ~default:Split_matrix.Cluster () in
        let store = mem_store ~page_size:512 ~matrix () in
        let doc =
          Xml_tree.element "R"
            (List.init 40 (fun i ->
                 Xml_tree.element "E" [ Xml_tree.text (Printf.sprintf "payload %d padding" i) ]))
        in
        match Loader.load store ~name:"d" doc with
        | exception Tree_store.Unsplittable _ -> ()
        | _ -> Alcotest.fail "expected Unsplittable");
    Alcotest.test_case "hybrid matrix keeps speeches flat, scenes standalone" `Quick (fun () ->
        (* The matrix is shared with the store, so entries can be added
           after creation using the store's own labels. *)
        let m = Split_matrix.create () in
        let store = mem_store ~page_size:512 ~matrix:m () in
        Split_matrix.set m
          ~parent:(Tree_store.label store "ACT")
          ~child:(Tree_store.label store "SCENE")
          Split_matrix.Standalone;
        Split_matrix.set m
          ~parent:(Tree_store.label store "SPEECH")
          ~child:(Tree_store.label store "LINE")
          Split_matrix.Cluster;
        let t = Xml_parser.parse sample_doc in
        let _ = Loader.load store ~name:"d" t in
        Tree_store.check_document store "d";
        Alcotest.check xml "roundtrip" t (Option.get (Exporter.document_to_xml store "d"));
        (* Every SCENE must be the root of its own record. *)
        List.iter
          (fun c ->
            let node = Cursor.node c in
            Alcotest.(check bool) "scene standalone" true (node.Phys_node.parent = None))
          (query store ~doc:"d" "//SCENE"));
    Alcotest.test_case "oversized text fragments and reassembles" `Quick (fun () ->
        let store = mem_store ~page_size:512 () in
        let big = String.concat " " (List.init 500 (fun i -> Printf.sprintf "w%d" i)) in
        let t = Xml_tree.element "D" [ Xml_tree.element "P" [ Xml_tree.text big ] ] in
        let _ = Loader.load store ~name:"d" t in
        Tree_store.check_document store "d";
        Alcotest.check xml "roundtrip" t (Option.get (Exporter.document_to_xml store "d"));
        let s = Stats.document store "d" in
        Alcotest.(check bool) "fragmented across records" true (s.Stats.records > 1));
    Alcotest.test_case "update_text grows and shrinks" `Quick (fun () ->
        let store = mem_store ~page_size:512 () in
        let t = Xml_parser.parse "<D><P>small</P></D>" in
        let _ = Loader.load store ~name:"d" t in
        let p = List.hd (query store ~doc:"d" "/P") in
        let text_node = Cursor.node (Option.get (Cursor.first_child p)) in
        let big = String.make 2000 'x' in
        Tree_store.update_text store text_node big;
        Tree_store.check_document store "d";
        Alcotest.(check string) "grown" big (Tree_store.text_of store text_node);
        Tree_store.update_text store text_node "tiny";
        Tree_store.check_document store "d";
        Alcotest.(check string) "shrunk" "tiny" (Tree_store.text_of store text_node));
    Alcotest.test_case "delete_node removes subtrees and their records" `Quick (fun () ->
        let store = mem_store ~page_size:512 () in
        let t = Xml_parser.parse sample_doc in
        let _ = Loader.load store ~name:"d" t in
        let scene2 = List.hd (query store ~doc:"d" "/ACT[1]/SCENE[2]") in
        Tree_store.delete_node store (Cursor.node scene2);
        Tree_store.check_document store "d";
        Alcotest.(check int) "one scene left" 1 (List.length (query store ~doc:"d" "//SCENE")));
    Alcotest.test_case "deleting everything leaves a valid empty document" `Quick (fun () ->
        let store = mem_store ~page_size:512 () in
        let t = Xml_parser.parse sample_doc in
        let _ = Loader.load store ~name:"d" t in
        List.iter
          (fun c -> Tree_store.delete_node store (Cursor.node c))
          (query store ~doc:"d" "/*");
        (* text children of the root too *)
        Tree_store.check_document store "d";
        let root = Option.get (Cursor.of_document store "d") in
        Alcotest.(check int) "no children" 0 (List.length (List.of_seq (Cursor.children root))));
    Alcotest.test_case "merges re-cluster after deletions" `Quick (fun () ->
        let store = mem_store ~page_size:512 ~merge_threshold:0.6 () in
        let doc =
          Xml_tree.element "R"
            (List.init 30 (fun i ->
                 Xml_tree.element "E"
                   [ Xml_tree.text (Printf.sprintf "payload number %d with some length" i) ]))
        in
        let _ = Loader.load store ~name:"d" doc in
        let before = Stats.document store "d" in
        Alcotest.(check bool) "multiple records" true (before.Stats.records > 1);
        (* Delete most elements; records should merge back. *)
        List.iteri
          (fun i c -> if i < 25 then Tree_store.delete_node store (Cursor.node c))
          (query store ~doc:"d" "/E");
        Tree_store.check_document store "d";
        let after = Stats.document store "d" in
        Alcotest.(check bool) "merges happened" true (Tree_store.merge_count store > 0);
        Alcotest.(check bool) "fewer records" true (after.Stats.records < before.Stats.records));
    Alcotest.test_case "delete_document leaks no records" `Quick (fun () ->
        let store = mem_store ~page_size:512 () in
        let t = Xml_parser.parse sample_doc in
        let live_records () =
          let seg = Natix_store.Record_manager.segment (Tree_store.record_manager store) in
          let n = ref 0 in
          for page = 0 to Natix_store.Segment.page_count seg - 1 do
            Natix_store.Segment.with_page seg page (fun b ->
                n := !n + Natix_store.Slotted_page.live_count b)
          done;
          !n
        in
        (* Warm up once so the catalog chain reaches its steady size, then
           repeated create/delete cycles must not grow the record count. *)
        let _ = Loader.load store ~name:"d" t in
        Tree_store.delete_document store "d";
        let baseline = live_records () in
        for _ = 1 to 3 do
          let _ = Loader.load store ~name:"d" t in
          Tree_store.delete_document store "d";
          Alcotest.(check int) "steady record count" baseline (live_records ())
        done;
        Alcotest.(check (list string)) "no documents" [] (Tree_store.list_documents store));
    Alcotest.test_case "documents persist across reopen (file disk)" `Quick (fun () ->
        let path = Filename.temp_file "natix" ".db" in
        Sys.remove path;
        let config = { (Config.default ()) with Config.page_size = 1024 } in
        let disk = Natix_store.Disk.on_file ~page_size:1024 path in
        let store = Tree_store.open_store ~config disk in
        let t = Xml_parser.parse sample_doc in
        Tree_store.autocommit store ~doc:"d" (fun () -> ignore (Loader.load store ~name:"d" t));
        Tree_store.sync store;
        Natix_store.Disk.close disk;
        let disk2 = Natix_store.Disk.on_file ~page_size:1024 path in
        let store2 = Tree_store.open_store ~config disk2 in
        Alcotest.(check (list string)) "documents listed" [ "d" ] (Tree_store.list_documents store2);
        Alcotest.check xml "content survived" t (Option.get (Exporter.document_to_xml store2 "d"));
        Tree_store.check_document store2 "d";
        Natix_store.Disk.close disk2;
        Sys.remove path);
    Alcotest.test_case "insert_fragment grafts under an existing node" `Quick (fun () ->
        let store = mem_store ~page_size:512 () in
        let t = Xml_parser.parse sample_doc in
        let _ = Loader.load store ~name:"d" t in
        let act = List.hd (query store ~doc:"d" "/ACT[1]") in
        let frag = Xml_parser.parse "<SCENE><TITLE>Scene 3</TITLE></SCENE>" in
        let _ =
          Loader.insert_fragment store (Tree_store.After (Cursor.node (List.hd (query store ~doc:"d" "/ACT[1]/SCENE[2]")))) frag
        in
        ignore act;
        Tree_store.check_document store "d";
        Alcotest.(check int) "three scenes" 3 (List.length (query store ~doc:"d" "//SCENE")));
    Alcotest.test_case "an image that lags its tree is rewritten whole" `Quick (fun () ->
        (* A failed insertion in a store without a log can leave a node in
           the cached tree that was never stored; the next insertion into
           that record must not splice into the stale image. *)
        let store = mem_store ~page_size:2048 () in
        let root = Tree_store.create_document store ~name:"d" ~root:"R" in
        let first = Tree_store.insert_node store (Tree_store.First_under root) (Tree_store.Text "one") in
        Phys_node.insert_child root ~index:1 (Phys_node.literal (Str "never stored"));
        ignore (Tree_store.insert_node store (Tree_store.After first) (Tree_store.Text "two"));
        Tree_store.check_document store "d";
        Alcotest.(check int) "three children" 3 (List.length (Phys_node.children root)));
    qtest ~count:40 "random documents roundtrip at random page sizes"
      QCheck2.Gen.(
        pair (int_range 512 4096)
          (pair bool
             (list_size (int_range 1 25)
                (pair (int_bound 5) (string_size ~gen:printable (int_range 1 60))))))
      (fun (page_size, (bfs, specs)) ->
        let doc =
          Xml_tree.element "R"
            (List.map
               (fun (kind, text) ->
                 match kind with
                 | 0 -> Xml_tree.text text
                 | 1 -> Xml_tree.element "A" [ Xml_tree.text text ]
                 | 2 -> Xml_tree.element "B" [ Xml_tree.element "C" [ Xml_tree.text text ] ]
                 | 3 -> Xml_tree.element ~attrs:[ ("k", text) ] "D" []
                 | _ -> Xml_tree.element "E" (List.init 3 (fun _ -> Xml_tree.text text)))
               specs)
        in
        let store = mem_store ~page_size () in
        let order = if bfs then Loader.Bfs_binary else Loader.Preorder in
        let _ = Loader.load store ~name:"d" ~order doc in
        Tree_store.check_document store "d";
        Xml_tree.equal doc (Option.get (Exporter.document_to_xml store "d")));
  ]

(* Tree growth splices each inserted node into the stored record image.
   After every insertion, [check_document] requires each image to equal
   the encoding of its cached tree, byte for byte.  Three insertion
   patterns: preorder (appends), BFS over the binary tree (inserts land
   mid-record with later siblings behind them), and random [First_under]
   / [After] points. *)
type grow = Grow of Tree_store.payload * grow list

let splice_property_tests =
  (* The loader's pre-insertion form: attributes become "@k" literals
     ahead of an element's children. *)
  let rec grow store : Xml_tree.t -> grow = function
    | Xml_tree.Text s -> Grow (Tree_store.Text s, [])
    | Xml_tree.Element e ->
      let attr (k, v) = Grow (Tree_store.Lit (Tree_store.label store ("@" ^ k), Str v), []) in
      Grow
        ( Tree_store.Elem (Tree_store.label store e.name),
          List.map attr e.attrs @ List.map (grow store) e.children )
  in
  let insert store point payload =
    let n = Tree_store.insert_node store point payload in
    Tree_store.check_document store "d";
    n
  in
  let rec preorder store point (Grow (payload, kids)) =
    let n = insert store point payload in
    ignore
      (List.fold_left
         (fun point k -> Tree_store.After (preorder store point k))
         (Tree_store.First_under n) kids);
    n
  in
  let bfs store root xs =
    let q = Queue.create () in
    (match xs with x :: rest -> Queue.add (Tree_store.First_under root, x, rest) q | [] -> ());
    while not (Queue.is_empty q) do
      let point, Grow (payload, kids), right = Queue.pop q in
      let n = insert store point payload in
      (match kids with k :: ks -> Queue.add (Tree_store.First_under n, k, ks) q | [] -> ());
      match right with r :: rs -> Queue.add (Tree_store.After n, r, rs) q | [] -> ()
    done
  in
  let gen_tree =
    QCheck2.Gen.(
      fix
        (fun self depth ->
          let text = map Xml_tree.text (string_size ~gen:printable (int_range 1 50)) in
          if depth = 0 then text
          else
            frequency
              [
                (2, text);
                ( 3,
                  map3
                    (fun name attrs cs -> Xml_tree.element ~attrs name cs)
                    (oneofl [ "A"; "B"; "C" ])
                    (list_size (int_bound 1)
                       (pair (oneofl [ "k"; "id" ]) (string_size ~gen:printable (int_range 1 12))))
                    (list_size (int_bound 5) (self (depth - 1))) );
              ])
        4)
  in
  [
    qtest ~count:60 "preorder and bfs growth keep every image equal to encode"
      QCheck2.Gen.(triple (oneofl [ 512; 2048 ]) bool (list_size (int_range 1 8) gen_tree))
      (fun (page_size, bfs_order, xs) ->
        let store = mem_store ~page_size () in
        let root = Tree_store.create_document store ~name:"d" ~root:"R" in
        let xs = List.map (grow store) xs in
        if bfs_order then bfs store root xs
        else
          ignore
            (List.fold_left
               (fun point x -> Tree_store.After (preorder store point x))
               (Tree_store.First_under root) xs);
        Tree_store.check_document store "d";
        true);
    qtest ~count:60 "random-point growth keeps every image equal to encode"
      QCheck2.Gen.(
        pair (oneofl [ 512; 2048 ])
          (list_size (int_range 1 150)
             (quad (int_bound 1) nat (int_bound 2) (string_size ~gen:printable (int_range 1 40)))))
      (fun (page_size, ops) ->
        let store = mem_store ~page_size () in
        let root = Tree_store.create_document store ~name:"d" ~root:"R" in
        (* Inserted nodes, newest first, with whether each is an element. *)
        let nodes = ref [ (root, true) ] in
        List.iter
          (fun (where, pick, kind, text) ->
            let elements = List.filter snd !nodes in
            let others = List.filter (fun (n, _) -> n != root) !nodes in
            let point =
              if where = 0 || others = [] then
                Tree_store.First_under (fst (List.nth elements (pick mod List.length elements)))
              else Tree_store.After (fst (List.nth others (pick mod List.length others)))
            in
            let p : Tree_store.payload =
              match kind with
              | 0 -> Elem (Tree_store.label store (if String.length text mod 2 = 0 then "A" else "B"))
              | 1 -> Text text
              | _ -> Lit (Tree_store.label store "@k", Phys_node.Str text)
            in
            let n = Tree_store.insert_node store point p in
            Tree_store.check_document store "d";
            nodes := (n, kind = 0) :: !nodes)
          ops;
        true);
  ]

(* ------------------------------------------------------------------ *)
(* Cursor & path                                                       *)

let with_sample () =
  let store = mem_store ~page_size:512 () in
  let t = Xml_parser.parse sample_doc in
  let _ = Loader.load store ~name:"d" t in
  (store, Option.get (Cursor.of_document store "d"))

let cursor_tests =
  [
    Alcotest.test_case "root name and kind" `Quick (fun () ->
        let _, root = with_sample () in
        Alcotest.(check string) "name" "PLAY" (Cursor.name root);
        Alcotest.(check bool) "element" true (Cursor.is_element root));
    Alcotest.test_case "first_child / next_sibling walk in order" `Quick (fun () ->
        let _, root = with_sample () in
        let names = List.map Cursor.name (List.of_seq (Cursor.children root)) in
        Alcotest.(check (list string)) "children" [ "TITLE"; "ACT" ] names);
    Alcotest.test_case "parent returns through records" `Quick (fun () ->
        let _, root = with_sample () in
        let deep =
          List.of_seq (Cursor.descendants_or_self root)
          |> List.filter (fun c -> Cursor.is_element c && Cursor.name c = "SPEAKER")
          |> List.hd
        in
        let p = Option.get (Cursor.parent deep) in
        Alcotest.(check string) "parent" "SPEECH" (Cursor.name p));
    Alcotest.test_case "descendants_or_self is document order" `Quick (fun () ->
        let _, root = with_sample () in
        let elems =
          List.filter_map
            (fun c -> if Cursor.is_element c then Some (Cursor.name c) else None)
            (List.of_seq (Cursor.descendants_or_self root))
        in
        match elems with
        | "PLAY" :: "TITLE" :: "ACT" :: "TITLE" :: "SCENE" :: "TITLE" :: "SPEECH" :: _ -> ()
        | other -> Alcotest.failf "unexpected order: %s" (String.concat "," other));
    Alcotest.test_case "text and text_content" `Quick (fun () ->
        let _, root = with_sample () in
        let title = Option.get (Cursor.first_child root) in
        Alcotest.(check string) "title text" "Hamlet" (Cursor.text_content title));
    Alcotest.test_case "attributes are reachable and hidden from text" `Quick (fun () ->
        let store = mem_store () in
        let t = Xml_parser.parse {|<a id="7"><b>x</b></a>|} in
        let _ = Loader.load store ~name:"d" t in
        let root = Option.get (Cursor.of_document store "d") in
        Alcotest.(check (option string)) "attribute" (Some "7") (Cursor.attribute root "id");
        Alcotest.(check string) "text skips attributes" "x" (Cursor.text_content root));
    Alcotest.test_case "next_sibling without context recomputes" `Quick (fun () ->
        let store, root = with_sample () in
        let title = Option.get (Cursor.first_child root) in
        let title_node = Cursor.node title in
        let fresh = Cursor.of_node store title_node in
        let sib = Option.get (Cursor.next_sibling fresh) in
        Alcotest.(check string) "sibling" "ACT" (Cursor.name sib));
  ]

let path_tests =
  [
    Alcotest.test_case "child axis with positions" `Quick (fun () ->
        let store, _ = with_sample () in
        let r = query store ~doc:"d" "/ACT[1]/SCENE[2]/TITLE" in
        Alcotest.(check int) "one hit" 1 (List.length r);
        Alcotest.(check string) "right scene" "Scene 2" (Cursor.text_content (List.hd r)));
    Alcotest.test_case "descendant axis" `Quick (fun () ->
        let store, _ = with_sample () in
        Alcotest.(check int) "speakers" 3 (List.length (query store ~doc:"d" "//SPEAKER")));
    Alcotest.test_case "wildcard and text()" `Quick (fun () ->
        let store, _ = with_sample () in
        Alcotest.(check int) "root children" 2 (List.length (query store ~doc:"d" "/*"));
        let texts = query store ~doc:"d" "//LINE/text()" in
        Alcotest.(check int) "line texts" 4 (List.length texts));
    Alcotest.test_case "positions are per context node" `Quick (fun () ->
        let store, _ = with_sample () in
        (* SPEECH[1] of each scene: 2 scenes -> 2 hits *)
        Alcotest.(check int) "first speech per scene" 2
          (List.length (query store ~doc:"d" "//SCENE/SPEECH[1]")));
  ]

let suites =
  [
    ("core.phys_node", phys_node_tests);
    ("core.codec", codec_tests);
    ("core.split_matrix", split_matrix_tests);
    ("core.tree_store", tree_store_tests @ splice_property_tests);
    ("core.cursor", cursor_tests);
    ("core.path", path_tests);
  ]

let stream_loader_tests =
  [
    Alcotest.test_case "load_stream equals load" `Quick (fun () ->
        let text =
          "<?xml version=\"1.0\"?>\n<PLAY n=\"1\">\n  <TITLE>T</TITLE>\n  "
          ^ "<ACT><SCENE><SPEECH><SPEAKER>A</SPEAKER><LINE>one &amp; two</LINE></SPEECH></SCENE></ACT>\n</PLAY>\n"
        in
        let via_tree =
          let store = mem_store () in
          let _ = Loader.load store ~name:"d" (Xml_parser.parse text) in
          Option.get (Exporter.document_to_xml store "d")
        in
        let via_stream =
          let store = mem_store () in
          let _ = Loader.load_stream store ~name:"d" text in
          Tree_store.check_document store "d";
          Option.get (Exporter.document_to_xml store "d")
        in
        Alcotest.check xml "same document" via_tree via_stream);
    Alcotest.test_case "load_stream splits big documents too" `Quick (fun () ->
        let body =
          String.concat ""
            (List.init 50 (fun i ->
                 Printf.sprintf "<E k=\"%d\">payload %d with some padding text</E>" i i))
        in
        let store = mem_store ~page_size:512 () in
        let _ = Loader.load_stream store ~name:"d" ("<R>" ^ body ^ "</R>") in
        Tree_store.check_document store "d";
        Alcotest.(check bool) "splits happened" true (Tree_store.split_count store > 0);
        Alcotest.(check int) "all elements" 50
          (List.length (query store ~doc:"d" "/E")));
    Alcotest.test_case "load_stream rejects trailing content" `Quick (fun () ->
        let store = mem_store () in
        match Loader.load_stream store ~name:"d" "<a/><b/>" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection");
    Alcotest.test_case "load_stream rejects mismatched tags" `Quick (fun () ->
        let store = mem_store () in
        match Loader.load_stream store ~name:"d" "<a><b></a></b>" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection");
  ]

let suites = suites @ [ ("core.stream_loader", stream_loader_tests) ]

(* Behavioural properties tied to the paper's observations. *)
let behaviour_tests =
  [
    Alcotest.test_case "BFS insertion balances the record tree; preorder degenerates" `Quick
      (fun () ->
        (* §4.4.3/§4.4.5: pre-order insertion produces a linearly
           degenerated physical tree, incremental (BFS) a balanced one. *)
        let play = Xml_parser.parse (Natix_xml.Xml_print.to_string
          (List.hd (Natix_workload.Shakespeare.generate (Natix_workload.Shakespeare.scaled 0.01)))) in
        let depth order =
          let store = mem_store ~page_size:2048 () in
          let _ = Loader.load store ~name:"p" ~order play in
          (Stats.document store "p").Stats.record_tree_depth
        in
        let bfs = depth Loader.Bfs_binary and pre = depth Loader.Preorder in
        Alcotest.(check bool)
          (Printf.sprintf "bfs depth %d < preorder depth %d" bfs pre)
          true (bfs < pre));
    Alcotest.test_case "record access is charged even with a warm decode cache" `Quick (fun () ->
        let config = { (Config.default ()) with Config.page_size = 512; buffer_bytes = 64 * 1024 } in
        let store = Tree_store.in_memory ~config () in
        let doc =
          Xml_tree.element "R"
            (List.init 30 (fun i -> Xml_tree.element "E" [ Xml_tree.text (Printf.sprintf "body %d filler" i) ]))
        in
        let _ = Loader.load store ~name:"d" doc in
        let io = Tree_store.io_stats store in
        (* Cold traversal after a buffer clear must read pages... *)
        Tree_store.clear_buffers store;
        let r0 = io.Natix_store.Io_stats.reads in
        let root = Option.get (Cursor.of_document store "d") in
        Seq.iter (fun _ -> ()) (Cursor.descendants_or_self root);
        let cold = io.Natix_store.Io_stats.reads - r0 in
        Alcotest.(check bool) "cold traversal reads" true (cold > 0);
        (* ... and a warm one must not. *)
        let r1 = io.Natix_store.Io_stats.reads in
        let root = Option.get (Cursor.of_document store "d") in
        Seq.iter (fun _ -> ()) (Cursor.descendants_or_self root);
        Alcotest.(check int) "warm traversal reads" 0 (io.Natix_store.Io_stats.reads - r1));
    Alcotest.test_case "After a standalone sibling inserts next to its proxy" `Quick (fun () ->
        let m = Split_matrix.create () in
        let store = mem_store ~matrix:m () in
        Split_matrix.set m
          ~parent:(Tree_store.label store "R")
          ~child:(Tree_store.label store "S")
          Split_matrix.Standalone;
        let root = Tree_store.create_document store ~name:"d" ~root:"R" in
        let s1 =
          Tree_store.insert_node store (Tree_store.First_under root)
            (Tree_store.Elem (Tree_store.label store "S"))
        in
        Alcotest.(check bool) "s1 standalone" true (s1.Phys_node.parent = None);
        (* Insert a sibling after the record root s1. *)
        let s2 = Tree_store.insert_node store (Tree_store.After s1) (Tree_store.Elem (Tree_store.label store "S")) in
        Alcotest.(check bool) "s2 standalone too" true (s2.Phys_node.parent = None);
        Tree_store.check_document store "d";
        let names =
          List.map Cursor.name (List.of_seq (Cursor.children (Option.get (Cursor.of_document store "d"))))
        in
        Alcotest.(check (list string)) "order kept" [ "S"; "S" ] names);
    Alcotest.test_case "1:1 aggregates contain only proxies" `Quick (fun () ->
        (* §5: in metamodeling systems every facade node is standalone and
           aggregates contain exclusively proxies. *)
        let store = mem_store ~matrix:(Split_matrix.one_to_one ()) () in
        let t = Xml_parser.parse sample_doc in
        let _ = Loader.load store ~name:"d" t in
        (match Tree_store.document_rid store "d" with
        | None -> Alcotest.fail "no document"
        | Some rid ->
          Tree_store.iter_records store rid (fun _ root _ ->
              if Phys_node.is_aggregate root && Phys_node.is_facade root then
                List.iter
                  (fun (c : Phys_node.t) ->
                    match c.Phys_node.kind with
                    | Phys_node.Proxy _ -> ()
                    | _ -> Alcotest.fail "embedded child in a 1:1 aggregate")
                  (Phys_node.children root)));
        Tree_store.check_document store "d");
    Alcotest.test_case "config validation rejects nonsense" `Quick (fun () ->
        List.iter
          (fun config ->
            match Config.validate config with
            | exception Invalid_argument _ -> ()
            | () -> Alcotest.fail "expected rejection")
          [
            { (Config.default ()) with Config.page_size = 100 };
            { (Config.default ()) with Config.page_size = 65536 };
            { (Config.default ()) with Config.split_target = 0. };
            { (Config.default ()) with Config.split_target = 1.5 };
            { (Config.default ()) with Config.split_tolerance = 0.9 };
            { (Config.default ()) with Config.buffer_bytes = 0 };
            { (Config.default ()) with Config.merge_threshold = 2.0 };
          ]);
    Alcotest.test_case "cursor traversal equals the exported tree" `Quick (fun () ->
        let store = mem_store ~page_size:512 () in
        let t = Xml_parser.parse sample_doc in
        let _ = Loader.load store ~name:"d" t in
        let exported = Option.get (Exporter.document_to_xml store "d") in
        (* Count elements both ways. *)
        let via_cursor =
          Seq.fold_left
            (fun n c -> if Cursor.is_element c then n + 1 else n)
            0
            (Cursor.descendants_or_self (Option.get (Cursor.of_document store "d")))
        in
        Alcotest.(check int) "element counts agree" (Xml_tree.element_count exported) via_cursor);
  ]

let suites = suites @ [ ("core.behaviour", behaviour_tests) ]

let extra_query_tests =
  [
    Alcotest.test_case "attributes are addressable in paths" `Quick (fun () ->
        let store = mem_store () in
        let _ = Loader.load store ~name:"d" (Xml_parser.parse {|<a><b id="1"/><b id="2"/><b/></a>|}) in
        let hits = query store ~doc:"d" "/b/@id" in
        Alcotest.(check (list string)) "attribute values" [ "1"; "2" ]
          (List.map Cursor.text hits));
    Alcotest.test_case "non-ASCII text survives storage" `Quick (fun () ->
        let store = mem_store () in
        let text = "caf\xc3\xa9 \xe2\x80\x94 na\xc3\xafve \xf0\x9f\x8e\xad" in
        let t = Xml_tree.element "D" [ Xml_tree.text text ] in
        let _ = Loader.load store ~name:"d" t in
        let root = Option.get (Cursor.of_document store "d") in
        Alcotest.(check string) "utf-8 intact" text (Cursor.text_content root));
    Alcotest.test_case "entities survive a full store/export cycle" `Quick (fun () ->
        let store = mem_store () in
        let _ = Loader.load store ~name:"d" (Xml_parser.parse "<D>a &lt; b &amp;&amp; c &gt; d</D>") in
        let exported = Exporter.to_string store (Cursor.node (Option.get (Cursor.of_document store "d"))) in
        Alcotest.(check string) "re-escaped" "<D>a &lt; b &amp;&amp; c &gt; d</D>" exported);
    Alcotest.test_case "a smaller buffer never reads less" `Quick (fun () ->
        let play =
          List.hd (Natix_workload.Shakespeare.generate (Natix_workload.Shakespeare.scaled 0.01))
        in
        let reads buffer_bytes =
          let config =
            { (Config.default ()) with Config.page_size = 1024; buffer_bytes }
          in
          let store = Tree_store.in_memory ~config () in
          let _ = Loader.load store ~name:"p" ~order:Loader.Bfs_binary play in
          (Tree_store.io_stats store).Natix_store.Io_stats.reads
        in
        let small = reads (8 * 1024) and large = reads (512 * 1024) in
        Alcotest.(check bool)
          (Printf.sprintf "reads small=%d >= large=%d" small large)
          true (small >= large));
  ]

let suites = suites @ [ ("core.queries_extra", extra_query_tests) ]

let literal_tests =
  [
    Alcotest.test_case "typed literals store and render" `Quick (fun () ->
        let store = mem_store () in
        let root = Tree_store.create_document store ~name:"d" ~root:"ROW" in
        let lbl n = Tree_store.label store n in
        let values =
          [
            ("i8", Phys_node.Int8 200);
            ("i16", Phys_node.Int16 40000);
            ("i32", Phys_node.Int32 (-123456l));
            ("i64", Phys_node.Int64 9_007_199_254_740_993L);
            ("f", Phys_node.Float 2.5);
            ("uri", Phys_node.Uri "http://example.org/x");
          ]
        in
        let _ =
          List.fold_left
            (fun point (name, v) ->
              let field = Tree_store.insert_node store point (Tree_store.Elem (lbl name)) in
              let _ =
                Tree_store.insert_node store (Tree_store.First_under field)
                  (Tree_store.Lit (Label.pcdata, v))
              in
              Tree_store.After field)
            (Tree_store.First_under root) values
        in
        Tree_store.check_document store "d";
        let texts =
          List.map Cursor.text_content
            (List.of_seq (Cursor.children (Option.get (Cursor.of_document store "d"))))
        in
        Alcotest.(check (list string)) "rendered"
          [ "200"; "40000"; "-123456"; "9007199254740993"; "2.5"; "http://example.org/x" ]
          texts;
        (* typed access through literal_of *)
        let first_leaf =
          Option.get
            (Cursor.first_child
               (Option.get (Cursor.first_child (Option.get (Cursor.of_document store "d")))))
        in
        match Tree_store.literal_of (Cursor.node first_leaf) with
        | Some (Phys_node.Int8 200) -> ()
        | _ -> Alcotest.fail "expected Int8 200");
    Alcotest.test_case "typed literals roundtrip through the codec on disk" `Quick (fun () ->
        (* force the record out to disk and back *)
        let store = mem_store () in
        let root = Tree_store.create_document store ~name:"d" ~root:"R" in
        let _ =
          Tree_store.insert_node store (Tree_store.First_under root)
            (Tree_store.Lit (Label.pcdata, Phys_node.Float 1.5))
        in
        Tree_store.clear_buffers store;
        let root = Option.get (Tree_store.open_document store "d") in
        match
          Tree_store.literal_of
            (Cursor.node (Option.get (Cursor.first_child (Cursor.of_node store root))))
        with
        | Some (Phys_node.Float 1.5) -> ()
        | _ -> Alcotest.fail "float literal lost");
  ]

let suites = suites @ [ ("core.literals", literal_tests) ]

let stress_tests =
  [
    Alcotest.test_case "deeply nested documents survive splits" `Slow (fun () ->
        (* A 300-deep chain with payloads forces separator paths through
           many levels. *)
        let rec chain d =
          if d = 0 then Xml_tree.text "leaf"
          else
            Xml_tree.element "N"
              [ Xml_tree.text (Printf.sprintf "level %d padding padding" d); chain (d - 1) ]
        in
        let doc = Xml_tree.element "R" [ chain 300 ] in
        let store = mem_store ~page_size:512 () in
        let _ = Loader.load store ~name:"d" doc in
        Tree_store.check_document store "d";
        Alcotest.check xml "roundtrip" doc (Option.get (Exporter.document_to_xml store "d")));
    Alcotest.test_case "very wide documents survive splits" `Slow (fun () ->
        let doc =
          Xml_tree.element "R"
            (List.init 3000 (fun i -> Xml_tree.element "E" [ Xml_tree.text (string_of_int i) ]))
        in
        let store = mem_store ~page_size:512 () in
        let _ = Loader.load store ~name:"d" doc in
        Tree_store.check_document store "d";
        Alcotest.(check int) "all children" 3000
          (Seq.fold_left (fun n _ -> n + 1) 0
             (Cursor.children (Option.get (Cursor.of_document store "d")))));
    Alcotest.test_case "a 200KB text node fragments and reassembles byte-exact" `Slow (fun () ->
        let big = String.init 200_000 (fun i -> Char.chr (32 + (i mod 95))) in
        let store = mem_store ~page_size:2048 () in
        let doc = Xml_tree.element "D" [ Xml_tree.text big ] in
        let _ = Loader.load store ~name:"d" doc in
        Tree_store.check_document store "d";
        let root = Option.get (Cursor.of_document store "d") in
        Alcotest.(check string) "content" big (Cursor.text_content root);
        (* update it in place to something small and back *)
        let text_node = Cursor.node (Option.get (Cursor.first_child root)) in
        Tree_store.update_text store text_node "tiny";
        Tree_store.check_document store "d";
        Tree_store.update_text store text_node big;
        Tree_store.check_document store "d";
        Alcotest.(check int) "length back" (String.length big)
          (String.length (Tree_store.text_of store text_node)));
  ]

let suites = suites @ [ ("core.stress", stress_tests) ]

let navigation_property_tests =
  [
    qtest ~count:40 "sibling chain equals the children list"
      QCheck2.Gen.(pair (int_range 512 2048) (int_range 0 30))
      (fun (page_size, n) ->
        let store = mem_store ~page_size () in
        let doc =
          Xml_tree.element "R"
            (List.init n (fun i ->
                 Xml_tree.element (if i mod 2 = 0 then "A" else "B")
                   [ Xml_tree.text (Printf.sprintf "c%d body" i) ]))
        in
        let _ = Loader.load store ~name:"d" doc in
        let root = Option.get (Cursor.of_document store "d") in
        let via_children = List.map Cursor.name (List.of_seq (Cursor.children root)) in
        let via_chain =
          let rec walk acc = function
            | None -> List.rev acc
            | Some c -> walk (Cursor.name c :: acc) (Cursor.next_sibling c)
          in
          walk [] (Cursor.first_child root)
        in
        via_children = via_chain
        && List.length via_children = n
        && List.length (query store ~doc:"d" "/*") = n);
    qtest ~count:40 "every node's logical parent is correct"
      QCheck2.Gen.(int_range 512 1536)
      (fun page_size ->
        let store = mem_store ~page_size () in
        let t = Xml_parser.parse sample_doc in
        let _ = Loader.load store ~name:"d" t in
        let root = Option.get (Cursor.of_document store "d") in
        (* For each element, all its children must report it as parent. *)
        Seq.for_all
          (fun c ->
            (not (Cursor.is_element c))
            || Seq.for_all
                 (fun child ->
                   match Tree_store.logical_parent store (Cursor.node child) with
                   | Some p -> p == Cursor.node c
                   | None -> false)
                 (Cursor.children c))
          (Cursor.descendants_or_self root));
  ]

let suites = suites @ [ ("core.navigation_props", navigation_property_tests) ]

(* ------------------------------------------------------------------ *)
(* Exporter: markup written in place against the tree it replaces      *)

(* Random documents: markup-special characters in text and attribute
   values, empty elements, and texts long enough to split records and,
   now and then, to fragment. *)
let gen_export_doc rng =
  let values = [| "1"; "a<b"; "x & y"; "\"q\" > r"; "<>&\"'"; "plain text" |] in
  let text () =
    match Prng.int rng 8 with
    | 0 ->
      String.concat " & " (List.init (Prng.range rng 20 60) (fun i -> Printf.sprintf "<w%d>" i))
    | 1 when Prng.int rng 4 = 0 -> String.make 1500 'f' ^ "<&>"
    | _ -> Prng.pick rng values
  in
  let rec node depth =
    if depth = 0 || Prng.int rng 4 = 0 then Xml_tree.text (text ())
    else
      let attrs =
        List.filteri
          (fun i _ -> Prng.int rng (i + 2) = 0)
          [ ("id", Prng.pick rng values); ("k", text ()) ]
      in
      let kids = List.init (Prng.int rng 4) (fun _ -> node (depth - 1)) in
      Xml_tree.element ~attrs (Prng.pick rng [| "a"; "b"; "c" |]) kids
  in
  Xml_tree.element "root" (List.init (Prng.range rng 4 8) (fun _ -> node 5))

let exporter_tests =
  [
    qtest ~count:30 "to_string renders every node as Xml_print.to_string of to_xml"
      QCheck2.Gen.int
      (fun seed ->
        let rng = Prng.create ~seed:(Int64.of_int seed) in
        (* An 8-page pool, under up to 26 pages of data. *)
        let config =
          { (Config.default ()) with Config.page_size = 512; buffer_bytes = 8 * 512 }
        in
        let store = Tree_store.in_memory ~config ~model:Natix_store.Io_model.free () in
        let _ = Loader.load store ~name:"d" (gen_export_doc rng) in
        let root = Option.get (Cursor.of_document store "d") in
        (* Attributes inserted after content, which the renderers hoist
           into the start tag. *)
        let late = Tree_store.label store "@late" in
        List.iteri
          (fun i c ->
            match List.rev (List.of_seq (Cursor.children c)) with
            | last :: _ when i mod 3 = 0 ->
              ignore
                (Tree_store.insert_node store (Tree_store.After (Cursor.node last))
                   (Tree_store.Lit (late, Phys_node.Str (Printf.sprintf "%d < \"%d\" & more" i i))))
            | _ -> ())
          (List.filter Cursor.is_element (List.of_seq (Cursor.descendants_or_self root)));
        let oracle n = Xml_print.to_string (Exporter.to_xml store n) in
        let every_node =
          Seq.for_all
            (fun c -> Exporter.to_string store (Cursor.node c) = oracle (Cursor.node c))
            (Cursor.descendants_or_self root)
        in
        (* From a cold pool both read and fix the same pages. *)
        let cold render =
          Tree_store.clear_buffers store;
          let pool = Tree_store.buffer_pool store in
          let r0 = (Tree_store.io_stats store).Natix_store.Io_stats.reads
          and f0 = Natix_store.Buffer_pool.fixes pool in
          let s = render (Cursor.node root) in
          ( s,
            (Tree_store.io_stats store).Natix_store.Io_stats.reads - r0,
            Natix_store.Buffer_pool.fixes pool - f0 )
        in
        (* The root got the first late attribute, after all its content. *)
        let hoisted =
          String.starts_with ~prefix:{|<root late="0 &lt; &quot;0&quot; &amp; more">|}
            (Exporter.to_string store (Cursor.node root))
        in
        every_node && hoisted && cold (Exporter.to_string store) = cold oracle);
  ]

let suites = suites @ [ ("core.exporter", exporter_tests) ]
