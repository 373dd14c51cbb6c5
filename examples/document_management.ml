(* The document manager (paper Fig. 1): schema validation, index-backed
   element access and fragment integration on top of the tree store.

   Run with:  dune exec examples/document_management.exe *)

open Natix_core
module Dtd = Natix_xml.Dtd
module Xml_parser = Natix_xml.Xml_parser

let () =
  let dm = Document_manager.create (Tree_store.in_memory ()) in

  (* A DTD for a fragment of the plays' schema. *)
  let dtd = Dtd.create ~name:"play" in
  Dtd.declare dtd "PLAY" (Dtd.Children_of [ "TITLE"; "ACT" ]);
  Dtd.declare dtd "ACT" (Dtd.Children_of [ "TITLE"; "SCENE" ]);
  Dtd.declare dtd "SCENE" (Dtd.Children_of [ "TITLE"; "SPEECH" ]);
  Dtd.declare dtd "SPEECH" (Dtd.Children_of [ "SPEAKER"; "LINE" ]);
  List.iter (fun e -> Dtd.declare dtd e Dtd.Pcdata_only) [ "TITLE"; "SPEAKER"; "LINE" ];

  (* Storing a valid document registers the DTD with it. *)
  let doc =
    "<PLAY><TITLE>Othello</TITLE><ACT><TITLE>I</TITLE><SCENE><TITLE>1</TITLE>"
    ^ "<SPEECH><SPEAKER>OTHELLO</SPEAKER><LINE>Let me see your eyes;</LINE>"
    ^ "<LINE>Look in my face.</LINE></SPEECH></SCENE></ACT></PLAY>"
  in
  (match Document_manager.store_document dm ~name:"othello" ~dtd (Xml_parser.parse doc) with
  | Ok _ -> print_endline "stored 'othello' (valid against its DTD)"
  | Error e -> failwith (Error.to_string e));

  (* Invalid documents are rejected before anything is stored. *)
  (match
     Document_manager.store_document dm ~name:"broken" ~dtd
       (Xml_parser.parse "<PLAY><EPILOGUE/></PLAY>")
   with
  | Error e -> Printf.printf "rejected 'broken': %s\n" (Error.to_string e)
  | Ok _ -> failwith "should have been rejected");

  (* Fragment integration validates against the DTD too. *)
  let store = Document_manager.store dm in
  let scene =
    let engine = Natix_query.Engine.create store in
    match Natix_query.Engine.query_naive engine ~doc:"othello" "//SCENE[1]" with
    | Ok hits -> List.hd (List.of_seq hits)
    | Error e -> failwith (Error.to_string e)
  in
  (match
     Document_manager.insert_fragment dm ~doc:"othello"
       (Tree_store.First_under (Cursor.node scene))
       (Xml_parser.parse "<SPEECH><SPEAKER>IAGO</SPEAKER><LINE>My noble lord--</LINE></SPEECH>")
   with
  | Ok _ -> print_endline "grafted a SPEECH fragment into scene 1"
  | Error e -> failwith (Error.to_string e));
  (match
     Document_manager.insert_fragment dm ~doc:"othello"
       (Tree_store.First_under (Cursor.node scene))
       (Xml_parser.parse "<PERSONA>stray</PERSONA>")
   with
  | Error e -> Printf.printf "rejected a stray fragment: %s\n" (Error.to_string e)
  | Ok _ -> failwith "should have been rejected");

  (* The element index answers typed scans without traversing. *)
  Printf.printf "SPEECH nodes (via index): %d\n" (Document_manager.count_elements dm "SPEECH");
  List.iter
    (fun n -> Printf.printf "  speaker: %s\n" (Cursor.text_content (Cursor.of_node store n)))
    (Document_manager.elements_named dm "SPEAKER");

  (* The document still validates after the edits. *)
  match Document_manager.validate dm "othello" with
  | Ok () -> print_endline "document re-validates after updates"
  | Error e -> failwith (Error.to_string e)
