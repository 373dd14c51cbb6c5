(** Bulk and incremental document loading (paper §4.3).

    Two insertion orders reproduce the evaluation's update patterns:

    - {!Preorder}: nodes inserted in document order — a "bulkload", or
      consecutive appends to a textual representation;
    - {!Bfs_binary}: breadth-first traversal of the binary-tree
      representation of the document (first child = left child, next
      sibling = right child, after Knuth), yielding an incremental update
      pattern with inserts scattered over the whole document.

    Attributes are stored as ["@name"]-labelled string literals placed
    before the element's other children. *)

type order = Preorder | Bfs_binary

(** [load store ~name ?order xml] creates document [name] and inserts the
    tree node by node through the tree growth procedure.  Returns the root
    handle. *)
val load : Tree_store.t -> name:string -> ?order:order -> Natix_xml.Xml_tree.t -> Phys_node.t

(** [insert_fragment store point xml] grafts a parsed fragment under an
    existing node (the document manager's "integrates document fragments").
    Returns the fragment's root handle. *)
val insert_fragment :
  Tree_store.t -> Tree_store.insert_point -> Natix_xml.Xml_tree.t -> Phys_node.t

(** [load_stream store ~name input] parses and stores the document in one
    streaming pass over the XML text: SAX events drive the tree growth
    procedure directly, so the logical tree is never materialised in
    memory — suitable for documents larger than RAM-resident trees.
    Attributes become ["@name"] literals, as with {!load}.
    @raise Natix_xml.Xml_lexer.Error on malformed input. *)
val load_stream : Tree_store.t -> name:string -> string -> Phys_node.t

(** [load_collection store docs ~order] loads several documents.  Under
    {!Preorder} they are loaded one after another; under {!Bfs_binary} a
    {e single} breadth-first frontier interleaves insertions across all
    documents, so updates are scattered over the whole collection — the
    working set that defeats a small buffer, as in the paper's incremental
    update experiment. *)
val load_collection :
  Tree_store.t -> (string * Natix_xml.Xml_tree.t) list -> order:order -> unit
