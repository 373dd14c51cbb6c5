open Natix_xml

let rec to_xml store (n : Phys_node.t) : Xml_tree.t =
  if Tree_store.is_element n then begin
    let name = Tree_store.label_name store n.Phys_node.label in
    (* Attributes are the leading "@"-labelled literal children. *)
    let attrs = ref [] in
    let children = ref [] in
    Seq.iter
      (fun (c : Phys_node.t) ->
        if Tree_store.is_attribute store c then begin
          let cname = Tree_store.label_name store c.Phys_node.label in
          attrs :=
            (String.sub cname 1 (String.length cname - 1), Tree_store.text_of store c) :: !attrs
        end
        else children := to_xml store c :: !children)
      (Tree_store.logical_children store n);
    Xml_tree.element ~attrs:(List.rev !attrs) name (List.rev !children)
  end
  else Xml_tree.text (Tree_store.text_of store n)

let document_to_xml store name =
  Option.map (to_xml store) (Tree_store.open_document store name)

let add_attribute store buf (a : Phys_node.t) =
  let name = Tree_store.label_name store a.Phys_node.label in
  Buffer.add_char buf ' ';
  Buffer.add_substring buf name 1 (String.length name - 1);
  Buffer.add_string buf "=\"";
  Xml_print.escape_into buf ~attr:true (Tree_store.text_of store a);
  Buffer.add_char buf '"'

(* [Xml_print.to_string (to_xml store n)], written into [buf] during the
   same single pass over logical children, so records are fetched in the
   same order.  Attributes go into the start tag as [to_xml] hoists them:
   one that follows content ([Tree_store.insert_node] can put it there)
   moves the content written since the last attribute behind it. *)
let rec render store buf (n : Phys_node.t) =
  if Tree_store.is_element n then begin
    let name = Tree_store.label_name store n.Phys_node.label in
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    let attrs_end = ref (Buffer.length buf) and content = ref false in
    Tree_store.iter_logical_children store n (fun c ->
        if Tree_store.is_attribute store c then begin
          let late = Buffer.length buf - !attrs_end in
          let moved = if late = 0 then "" else Buffer.sub buf !attrs_end late in
          Buffer.truncate buf !attrs_end;
          add_attribute store buf c;
          attrs_end := Buffer.length buf;
          Buffer.add_string buf moved
        end
        else begin
          if not !content then begin
            Buffer.add_char buf '>';
            content := true
          end;
          render store buf c
        end);
    if !content then begin
      Buffer.add_string buf "</";
      Buffer.add_string buf name;
      Buffer.add_char buf '>'
    end
    else Buffer.add_string buf "/>"
  end
  else Xml_print.escape_into buf ~attr:false (Tree_store.text_of store n)

(* One buffer per domain, reused by every render on it; one that grew
   past 64 KB for a large subtree is given back. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 1024)

let to_string store n =
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  render store buf n;
  let s = Buffer.contents buf in
  if Buffer.length buf > 65536 then Buffer.reset buf;
  s

let hit ~texts c =
  if texts then Cursor.text_content c
  else if Cursor.is_element c then to_string (Cursor.store c) (Cursor.node c)
  else Cursor.text c
