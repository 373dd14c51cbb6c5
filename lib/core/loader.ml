open Natix_xml

type order = Preorder | Bfs_binary

(* Single-document loads install a (doc, "load") context when the store
   is instrumented, so emitted events are attributable even when the
   loader is called directly, without a document manager.  (The BFS
   collection load interleaves documents page by page, so it carries no
   document label.) *)
let with_load_context store doc f =
  match Tree_store.obs store with
  | None -> f ()
  | Some obs -> Natix_obs.Obs.with_context obs ~doc ~phase:"load" f

(* Uniform pre-insertion representation: every logical node (element,
   attribute, text) becomes one payload; attributes come first among an
   element's children. *)
type pre = { payload : Tree_store.payload; kids : pre list }

let rec pre_of_xml store (x : Xml_tree.t) : pre =
  match x with
  | Xml_tree.Text s -> { payload = Tree_store.Text s; kids = [] }
  | Xml_tree.Element e ->
    let attrs =
      List.map
        (fun (k, v) ->
          { payload = Tree_store.Lit (Tree_store.label store ("@" ^ k), Phys_node.Str v); kids = [] })
        e.attrs
    in
    let kids = List.map (pre_of_xml store) e.children in
    { payload = Tree_store.Elem (Tree_store.label store e.name); kids = attrs @ kids }

let insert_preorder store point pre =
  let rec go point pre =
    let node = Tree_store.insert_node store point pre.payload in
    let _last : Tree_store.insert_point =
      List.fold_left
        (fun point kid -> Tree_store.After (go point kid))
        (Tree_store.First_under node) pre.kids
    in
    node
  in
  go point pre

(* BFS over the binary-tree representation: left = first child, right =
   next sibling.  A node can be inserted as soon as its binary parent is
   stored, which determines its insertion point directly.  Queue entries
   carry the node to insert and its pending right siblings. *)
let insert_bfs_binary store point pre right_siblings =
  let queue : (Tree_store.insert_point * pre * pre list) Queue.t = Queue.create () in
  Queue.add (point, pre, right_siblings) queue;
  let root = ref None in
  while not (Queue.is_empty queue) do
    let point, pre, right = Queue.pop queue in
    let node = Tree_store.insert_node store point pre.payload in
    if !root = None then root := Some node;
    (match pre.kids with
    | first :: rest -> Queue.add (Tree_store.First_under node, first, rest) queue
    | [] -> ());
    match right with
    | r :: rr -> Queue.add (Tree_store.After node, r, rr) queue
    | [] -> ()
  done;
  Option.get !root

let insert_fragment store point xml = insert_preorder store point (pre_of_xml store xml)

(* Streaming load: a stack of (element node, last inserted child) frames
   turns each SAX event into one tree-growth insertion. *)
let load_stream store ~name input =
  with_load_context store name @@ fun () ->
  let lexer = Xml_lexer.of_string input in
  let point parent last =
    match last with
    | None -> Tree_store.First_under parent
    | Some prev -> Tree_store.After prev
  in
  let rec skip_prolog () =
    match Xml_lexer.next lexer with
    | Some (Xml_event.Text s) when Xml_lexer.is_blank s -> skip_prolog ()
    | other -> other
  in
  let root, root_attrs =
    match skip_prolog () with
    | Some (Xml_event.Start_element { name = root_name; attrs }) ->
      (Tree_store.create_document store ~name ~root:root_name, attrs)
    | Some _ | None -> invalid_arg "Loader.load_stream: document must start with an element"
  in
  let insert_attrs node attrs last =
    List.fold_left
      (fun last (k, v) ->
        Some
          (Tree_store.insert_node store (point node last)
             (Tree_store.Lit (Tree_store.label store ("@" ^ k), Phys_node.Str v))))
      last attrs
  in
  (* Stack frames: (element, last child inserted under it). *)
  let stack = ref [ (root, insert_attrs root root_attrs None) ] in
  let rec loop () =
    match Xml_lexer.next lexer with
    | None -> (
      match !stack with
      | [ _ ] | [] -> ()
      | _ -> invalid_arg "Loader.load_stream: unclosed elements")
    | Some event ->
      (match (event, !stack) with
      | _, [] -> invalid_arg "Loader.load_stream: content after the root element"
      | Xml_event.Start_element { name = el; attrs }, (parent, last) :: up ->
        let node =
          Tree_store.insert_node store (point parent last)
            (Tree_store.Elem (Tree_store.label store el))
        in
        stack := (node, insert_attrs node attrs None) :: (parent, Some node) :: up
      | Xml_event.Text s, (parent, last) :: up ->
        if Xml_lexer.is_blank s then ()
        else begin
          let node = Tree_store.insert_node store (point parent last) (Tree_store.Text s) in
          stack := (parent, Some node) :: up
        end
      | Xml_event.End_element el, (node, _) :: up ->
        let expected = Tree_store.label_name store node.Phys_node.label in
        if expected <> el then
          invalid_arg
            (Printf.sprintf "Loader.load_stream: <%s> closed by </%s>" expected el);
        stack := up);
      if !stack <> [] then loop ()
  in
  loop ();
  (* Only whitespace (and skipped constructs) may follow the root. *)
  let rec drain () =
    match Xml_lexer.next lexer with
    | None -> ()
    | Some (Xml_event.Text s) when Xml_lexer.is_blank s -> drain ()
    | Some _ -> invalid_arg "Loader.load_stream: content after the root element"
  in
  drain ();
  root

let load store ~name ?(order = Preorder) (xml : Xml_tree.t) =
  with_load_context store name @@ fun () ->
  match xml with
  | Xml_tree.Text _ -> invalid_arg "Loader.load: document root must be an element"
  | Xml_tree.Element e ->
    let root = Tree_store.create_document store ~name ~root:e.name in
    let pre = pre_of_xml store xml in
    (match (order, pre.kids) with
    | _, [] -> ()
    | Preorder, kids ->
      ignore
        (List.fold_left
           (fun point kid -> Tree_store.After (insert_preorder store point kid))
           (Tree_store.First_under root) kids)
    | Bfs_binary, first :: rest ->
      ignore (insert_bfs_binary store (Tree_store.First_under root) first rest));
    root

let load_collection store docs ~order =
  match order with
  | Preorder -> List.iter (fun (name, xml) -> ignore (load store ~name xml)) docs
  | Bfs_binary ->
    (* One shared frontier across every document: the queue is seeded with
       all roots' first children, so level k of every document is inserted
       before level k+1 of any. *)
    let queue : (Tree_store.insert_point * pre * pre list) Queue.t = Queue.create () in
    List.iter
      (fun (name, xml) ->
        match xml with
        | Xml_tree.Text _ -> invalid_arg "Loader.load_collection: root must be an element"
        | Xml_tree.Element e ->
          let root = Tree_store.create_document store ~name ~root:e.name in
          let pre = pre_of_xml store xml in
          (match pre.kids with
          | first :: rest -> Queue.add (Tree_store.First_under root, first, rest) queue
          | [] -> ()))
      docs;
    while not (Queue.is_empty queue) do
      let point, pre, right = Queue.pop queue in
      let node = Tree_store.insert_node store point pre.payload in
      (match pre.kids with
      | f :: fr -> Queue.add (Tree_store.First_under node, f, fr) queue
      | [] -> ());
      match right with
      | r :: rr -> Queue.add (Tree_store.After node, r, rr) queue
      | [] -> ()
    done
