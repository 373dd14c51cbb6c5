(** Reconstruction of the textual representation (paper §4.3 query 2).

    Walks the stored physical tree, expanding proxies and reassembling
    fragmented literals, and rebuilds the logical {!Natix_xml.Xml_tree.t}
    or writes the XML text directly. *)

(** Rebuild the logical tree under a stored node.  {!to_string} must
    equal [Xml_print.to_string (to_xml store n)]. *)
val to_xml : Tree_store.t -> Phys_node.t -> Natix_xml.Xml_tree.t

(** Rebuild the whole document.  [None] if it does not exist. *)
val document_to_xml : Tree_store.t -> string -> Natix_xml.Xml_tree.t option

(** Serialise a stored subtree to XML text without building its tree:
    the markup is written during one walk over logical children, which
    fetches records in {!to_xml}'s order. *)
val to_string : Tree_store.t -> Phys_node.t -> string

(** One query hit, rendered as every query surface returns it (the CLI,
    the session's [exec], the parallel executor and the server): with
    [texts], the subtree's text content; otherwise an element as markup
    and any other node (text, attribute) as its text.  Renders through
    {!Cursor.store}, so a hit found through a reader view renders through
    that view. *)
val hit : texts:bool -> Cursor.t -> string
