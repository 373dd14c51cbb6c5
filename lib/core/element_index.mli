(** Element index (the index management module of paper Fig. 1).

    Maps element labels to the records that materialise nodes with that
    label, backed by two disk-resident B+-trees in the same store (label →
    record postings and record → label counts).  It accelerates the scans
    §4.4.6 motivates — "scan all elements of a given type" — in time
    proportional to the records actually containing the label, instead of
    a full traversal.  Results are in record order, not document order
    (exactly the trade-off the paper describes for order-irrelevant
    queries).

    Maintenance is deferred: the index subscribes to the store's record
    change log and folds pending changes in on {!refresh}, which the
    document manager's writes and checkpoint call.  Reads never fold —
    folding writes index pages, which on a file-backed store takes a
    transaction — but answer as if they had: a pending record's postings
    are its current label counts.  The index roots persist in the store
    catalog, so the index survives reopening.

    {b Staleness.}  Alongside its roots the index stamps the store's
    {!Tree_store.change_epoch} it last folded changes in at.  When the
    store changed while no listener was attached (e.g. a load in a
    session opened without the index), the stamp on reopen is behind the
    store's epoch and the index reports {!stale}: its postings silently
    miss nodes, so consumers must either {!rebuild} it or plan without
    it.  {!Document_manager.create}'s index modes encapsulate both
    policies. *)

open Natix_util

type t

(** [create store ~name] builds a fresh (empty) index, registers its roots
    under [name] in the catalog and attaches the change listener.
    @raise Invalid_argument if [name] is already registered. *)
val create : Tree_store.t -> name:string -> t

(** Reattach to a persisted index (and its change listener). *)
val open_index : Tree_store.t -> name:string -> t option

(** Whether an index named [name] is registered in the store's catalog
    (without opening it). *)
val persisted : Tree_store.t -> name:string -> bool

(** Whether the store changed while no listener was attached, i.e. the
    persisted epoch stamp is behind the store's change epoch: postings may
    silently miss nodes until {!rebuild}.  A freshly {!create}d index on a
    store that already holds documents is also stale until rebuilt. *)
val stale : t -> bool

(** Drop pending changes and rebuild from every document — the repair for
    a {!stale} index (bulk loads that happened while no listener was
    attached).  Re-stamps the epoch. *)
val rebuild : t -> unit

(** Fold pending record changes into the index — a write: part of the
    caller's transaction when that is the only one in flight and holds
    the structure lock, a transaction of its own when none is in flight
    (see {!Tree_store.when_exclusive}); deferred otherwise. *)
val refresh : t -> unit

(** Records containing at least one facade node with this label. *)
val records_with : t -> Label.t -> Rid.t list

(** Total number of nodes with this label across all documents. *)
val count : t -> Label.t -> int

(** [lookup t label] is [(count t label, records_with t label)], read in
    one pass over the postings. *)
val lookup : t -> Label.t -> int * Rid.t list

(** All facade nodes with this label, unordered (record order). *)
val scan : t -> Label.t -> Phys_node.t list

(** [scan_records t label rids] fetches the records [rids] in order and
    returns their facade nodes with [label]: {!scan} without reading the
    postings, for a caller that already holds [records_with t label]. *)
val scan_records : t -> Label.t -> Rid.t list -> Phys_node.t list

(** Labels present in the index, with their node counts. *)
val labels : t -> (Label.t * int) list

(** Number of record changes queued for {!refresh}. *)
val pending : t -> int

(** {!refresh}, then verify the index against a full scan of all
    documents.
    @raise Failure on any divergence. *)
val check : t -> unit

(** Verify the B+-tree's structural invariants only, without comparing
    postings to the documents — all a {!stale} index can be held to.
    @raise Natix_store.Btree.Corrupt on a violation. *)
val check_tree : t -> unit
