(** The document manager (paper §2.1, Fig. 1).

    The application-facing layer: access "on node and document
    granularity", schema consistency checks ("document validation in the
    XML world"), the index updates, and integration of document fragments
    into a single document view.  It wraps a {!Tree_store} with

    - per-document DTDs persisted in the catalog, validated on store and
      on fragment insertion;
    - an optional {!Element_index} kept consistent through the store's
      change log;
    - fragment grafting with validation. *)

type t

(** How {!create} handles the element index named ["elements"].  A
    persisted index can be {e stale} (see {!Element_index.stale}) when
    the store changed in a session that did not open it; using it then
    would silently drop query results, so every mode either repairs or
    refuses a stale index:

    - [Ensure] — open or create the index; rebuild it when stale.  For
      writers that want index-accelerated access (the default).
    - [Maintain] — open the index only when one is persisted (rebuild
      when stale), so this session's changes keep it current; never
      create one.  For writers that don't need the index themselves.
    - [Fresh_only] — open the index only when one is persisted {e and}
      current; never create, rebuild, or otherwise write.  For read-only
      sessions: a stale index yields [None] (plan by navigation).
    - [Off] — no index. *)
type index_mode = Ensure | Maintain | Fresh_only | Off

(** [create ?index store] wraps a store; [index] (default [Ensure])
    selects the index policy above. *)
val create : ?index:index_mode -> Tree_store.t -> t

val store : t -> Tree_store.t
val index : t -> Element_index.t option

(** True when the manager runs without an index even though one is
    persisted — i.e. [Fresh_only] (or [Off]) skipped it.  Lets a CLI
    explain why a plan is navigation-only. *)
val stale_index_skipped : t -> bool

(** Durable checkpoint: fold pending element-index updates (a
    transaction of its own when any are pending), then {!Tree_store.sync}
    (catalog save, buffer flush, WAL truncation).  After it returns, a
    crash recovers to exactly this state. *)
val checkpoint : t -> unit

(** [store_document t ~name ?dtd ?order xml] validates [xml] against [dtd]
    when given (or [infer]s one when [infer_dtd] is set), loads it, and
    persists the DTD with the document.  On a file-backed store the load
    is one transaction ({!Tree_store.autocommit}: its own, unless the
    caller is in one), and the document stays in the shared arena.
    Returns the root handle, the validation error, or a [Storage] error
    when [name] is already taken (checked under the document latch,
    before anything is written). *)
val store_document :
  t ->
  name:string ->
  ?dtd:Natix_xml.Dtd.t ->
  ?infer_dtd:bool ->
  ?order:Loader.order ->
  Natix_xml.Xml_tree.t ->
  (Phys_node.t, Error.t) result

(** [store_stream t ~name text] loads [text] in one streaming pass
    ({!Loader.load_stream}), as one write like {!store_document} without
    a DTD.  A taken name is an [Error (Storage _)].  Malformed input
    raises after part of the document was written; on a file-backed
    store that poisons the store, and reopening rolls the partial
    document back. *)
val store_stream : t -> name:string -> string -> (Phys_node.t, Error.t) result

(** [store_transactional] is {!store_document} wrapped in
    {!Tree_store.with_txn} on the target document: the document gets a
    private allocation arena, so concurrent loaders on different
    documents overlap their mutation phases and batch their commit fsyncs
    in the group-commit daemon.  After the call returns, a crash cannot
    take the document with it; a crash mid-call loses it entirely, never
    partially.  A taken name, a poisoned store or a store without a
    write-ahead log come back as [Error (Storage _)]. *)
val store_transactional :
  t ->
  name:string ->
  ?dtd:Natix_xml.Dtd.t ->
  ?infer_dtd:bool ->
  ?order:Loader.order ->
  Natix_xml.Xml_tree.t ->
  (Phys_node.t, Error.t) result

(** DTD stored with a document, if any. *)
val document_dtd : t -> string -> Natix_xml.Dtd.t option

(** Re-validate a stored document against its stored DTD ([Ok ()] when it
    has none). *)
val validate : t -> string -> (unit, Error.t) result

(** [insert_fragment t ~doc point xml] validates the fragment against the
    document's DTD (it must fit the DTD on its own; the insertion point's
    parent must allow the fragment's root element), then grafts it — one
    transaction on a file-backed store, like {!store_document}. *)
val insert_fragment :
  t ->
  doc:string ->
  Tree_store.insert_point ->
  Natix_xml.Xml_tree.t ->
  (Phys_node.t, Error.t) result

(** Delete a document together with its DTD registration — one
    transaction on a file-backed store, like {!store_document}.
    @raise Error.Error with [Storage _] when there is no such document
    (checked before anything is written). *)
val delete_document : t -> string -> unit

(** All elements with the given name (attributes, for an [@name]),
    across all documents, via the index when available (record order),
    otherwise by full traversal (document order).  Both keep the same
    nodes. *)
val elements_named : t -> string -> Phys_node.t list

(** Node count for an element name (index-accelerated when available). *)
val count_elements : t -> string -> int
