(* Quickstart: store an XML document in NATIX, navigate it, query it, and
   reconstruct its text.

   Run with:  dune exec examples/quickstart.exe *)

open Natix_core

let document =
  {|<SPEECH kind="dialogue">
      <SPEAKER>OTHELLO</SPEAKER>
      <LINE>Let me see your eyes;</LINE>
      <LINE>Look in my face.</LINE>
    </SPEECH>|}

let () =
  (* 1. An in-memory store with default configuration (8K pages, 2 MB
     buffer, native 1:n Split Matrix).  Use [Tree_store.open_store] with
     [Disk.on_file] for a persistent one. *)
  let store = Tree_store.in_memory () in

  (* 2. Parse and load.  The loader drives the paper's tree growth
     procedure one node at a time. *)
  let xml = Natix_xml.Xml_parser.parse document in
  let _root = Loader.load store ~name:"othello" xml in
  Printf.printf "documents in store: %s\n" (String.concat ", " (Tree_store.list_documents store));

  (* 3. Navigate with a cursor: scaffolding (proxies, helper aggregates)
     is invisible; this is the logical tree of Figure 2. *)
  let root = Option.get (Cursor.of_document store "othello") in
  Printf.printf "root element: %s (kind attribute: %s)\n" (Cursor.name root)
    (Option.value ~default:"-" (Cursor.attribute root "kind"));
  Seq.iter
    (fun child ->
      if Cursor.is_element child then
        Printf.printf "  <%s> %s\n" (Cursor.name child) (Cursor.text_content child))
    (Cursor.children root);

  (* 4. Path queries.  [query_naive] evaluates strictly by navigation;
     [Engine.query] plans the same path (and may seed it from an element
     index). *)
  let engine = Natix_query.Engine.create store in
  let query path =
    match Natix_query.Engine.query_naive engine ~doc:"othello" path with
    | Ok hits -> List.of_seq hits
    | Error e -> failwith (Error.to_string e)
  in
  let lines = query "/LINE" in
  Printf.printf "the speech has %d lines; second line: %S\n" (List.length lines)
    (Cursor.text_content (List.nth lines 1));

  (* 5. Update: add a line, then reconstruct the textual representation. *)
  let last_line = Cursor.node (List.nth lines 1) in
  let _ =
    Tree_store.insert_node store (Tree_store.After last_line)
      (Tree_store.Elem (Tree_store.label store "LINE"))
  in
  let added = List.nth (query "/LINE") 2 in
  let _ =
    Tree_store.insert_node store
      (Tree_store.First_under (Cursor.node added))
      (Tree_store.Text "No, not that line.")
  in
  print_endline "reconstructed document:";
  print_string
    (Natix_xml.Xml_print.to_string_pretty
       (Option.get (Exporter.document_to_xml store "othello")));

  (* 6. Physical statistics: how the logical tree maps onto records. *)
  let s = Stats.document store "othello" in
  Format.printf "physical: %a@." Stats.pp_doc s;
  Format.printf "I/O so far: %a@." Natix_store.Io_stats.pp (Tree_store.io_stats store)
