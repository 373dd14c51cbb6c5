(** Record representation (Appendix A).

    A record body holds exactly one subtree, serialised in document order
    with nodes nested inside their parent aggregates:

    - the {b standalone} root carries a 10-byte header: a 2-byte node-type
      index and the 8-byte RID of the parent record (its own size comes
      from the slot information);
    - every {b embedded} object carries a 6-byte header: a 2-byte node-type
      index, a 2-byte total size (header included) and the 2-byte offset of
      its parent's header within the record.

    Offsets are record-relative, so the byte representation is
    location-independent: records move around pages (and across pages, with
    the store-wide type table) without modification.  For comparison, plain
    XML markup needs 7 bytes even for a one-character tag name. *)

open Natix_util

(** Byte offset of the parent RID inside a record body (after the type
    index), used for in-place reparenting patches. *)
val parent_rid_offset : int

(** [encode tbl ~parent_rid root] serialises a record body.  [root] must
    not be a proxy (single-proxy records are never created; paper §3.2.2).
    @raise Invalid_argument on a proxy root. *)
val encode : Node_type_table.t -> parent_rid:Rid.t -> Phys_node.t -> string

(** [splice tbl node] is the record-image fill (see
    {!Natix_store.Record_manager.fill}) for tree growth: [node] has just
    been inserted into a record's cached tree, and the old image is
    [encode] of that tree without it.  The fill copies the old image with
    [node]'s encoding spliced in at its offset, rewrites the 2-byte size
    of each ancestor below the record root, and rewrites the parent
    offsets inside every subtree that follows the insertion point (their
    parents moved).  Offsets come from the cached sizes along [node]'s
    path.  The result equals [encode] of the whole tree, byte for byte.
    If the old image's length is not the tree's minus [node]'s, the fill
    writes the whole tree instead. *)
val splice :
  Node_type_table.t -> Phys_node.t -> old:bytes -> old_len:int -> bytes -> int -> unit

(** [decode tbl body] rebuilds the subtree and returns it with the parent
    record RID from the standalone header.  The returned nodes are fresh
    and carry correct cached sizes and parent links.
    @raise Failure on a malformed body. *)
val decode : Node_type_table.t -> string -> Phys_node.t * Rid.t

(** [decode_parent_rid body] reads just the parent RID. *)
val decode_parent_rid : string -> Rid.t

(** Re-encode/decode consistency check used by property tests: structural
    equality of two subtrees (labels, kinds, payloads; record identity of
    proxies by RID). *)
val structural_equal : Phys_node.t -> Phys_node.t -> bool
