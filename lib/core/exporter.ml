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

let to_string store n = Xml_print.to_string (to_xml store n)

let hit ~texts c =
  if texts then Cursor.text_content c
  else if Cursor.is_element c then to_string (Cursor.store c) (Cursor.node c)
  else Cursor.text c
