(** The tree storage manager — the paper's contribution (§3).

    Maps logical document trees onto records of the underlying record
    manager, maintaining the physical organisation dynamically:

    - {b insertion} (the tree growth procedure, Fig. 5): determine the
      insertion record under the Split Matrix, insert, and when the record
      exceeds the net page capacity, {b split} it semantically —
      a small subtree sliced off the record's root serves as separator and
      moves to the parent record (recursively), the remaining forest is
      distributed onto partition records grouped under scaffolding
      aggregates (§3.2.2, including both scaffolding-avoidance special
      cases);
    - {b deletion} with re-merging of underfull child records (the dynamic
      re-clustering of §1);
    - {b navigation} over the logical tree that transparently expands
      proxies and hides scaffolding.

    Oversized text literals (larger than a page) are chunked under a
    fragment aggregate and from then on handled by the ordinary split
    machinery — an extension documented in DESIGN.md §4.6.

    Record access always pins the underlying page in the buffer pool, so
    {!io_stats} reflects the true access pattern even though decoded
    records are memoised. *)

open Natix_util
open Natix_store

(** Raised when a record cannot be split because the Split Matrix pins all
    its content to the parent (e.g. the all-[Cluster] "one record"
    configuration the paper notes cannot store documents larger than a
    page). *)
exception Unsplittable of string

type t

(** [open_store ?config disk] opens (or initialises) a store.  The catalog
    is loaded if present. *)
val open_store : ?config:Config.t -> Disk.t -> t

(** Fresh in-memory store (tests, benchmarks). *)
val in_memory : ?config:Config.t -> ?model:Io_model.t -> unit -> t

val config : t -> Config.t
val names : t -> Name_pool.t
val record_manager : t -> Record_manager.t
val buffer_pool : t -> Buffer_pool.t
val io_stats : t -> Io_stats.t

(** [reader t] is a read-only view for one worker domain: it shares the
    record manager, buffer pool, catalog and name pool with [t] but owns a
    fresh decoded-record cache (the store's main shared-mutable state) and
    has no observability handle or change listener.  I/O accounting is
    unaffected — {!io_stats} charges page accesses even on decoded-cache
    hits.  Readers assume the base store is not mutated while they are in
    use; [Natix_par.Par] only creates them inside read-only regions. *)
val reader : t -> t

(** Reset the disk {!Io_stats} and the pool fix/miss counters together
    (the measurement protocol's zeroing step).
    @raise Error.Error with [Storage _] while a parallel region is active
    on the underlying disk — a reset racing with per-domain accumulators
    would silently corrupt the merged totals. *)
val reset_io_stats : t -> unit

(** Largest record body under this configuration. *)
val max_record_size : t -> int

(** Persist the catalog and flush all buffers.  On a file-backed store
    this is a durable {e checkpoint}: the catalog save commits as a
    transaction, every page goes home and the write-ahead log is
    truncated, so a crash at any later point recovers the store to
    exactly this state.
    @raise Error.Error with [Storage _] while transactions are in flight
    or after the store was poisoned. *)
val sync : t -> unit

(** {1 Transactions}

    On a file-backed store every write is a transaction: a page marked
    dirty outside one raises [Invalid_argument] (see
    {!Natix_store.Buffer_pool.mark_dirty}).  Stores without a log
    (in-memory ones) mutate directly.

    [with_txn t ~doc f] runs [f] as one atomic, durable transaction
    against document [doc]: after a crash the store recovers to a state
    where the transaction either happened entirely or not at all.  The
    per-document latch is held for the whole call, so two transactions on
    the same document serialise completely.  [expect] is checked under
    the latch before the transaction begins: [`Absent] requires that no
    document [doc] exists, [`Present] that it does; a failed check raises
    a [Storage] error and leaves the store untouched and usable.

    Transactions on {e different} documents run their mutation phases
    concurrently when the documents have private allocation arenas —
    every document created inside [with_txn] gets one.  Their page
    sets are disjoint by construction, so tree growth, splits and record
    relocation all proceed under nothing but the document latch; only
    the begin step and the commit step (catalog save on shared pages,
    update/commit logging) serialise on the store-wide structure lock,
    and the commit-fsync wait overlaps in the group-commit daemon.  A
    pre-existing document in the shared arena holds the structure lock
    across its whole mutation phase instead.

    If [f] raises, or the commit fails (a crashed log force, a poisoned
    group-commit daemon), the store is {e poisoned}: the in-memory state
    cannot be rolled back in place, so every later operation raises a
    typed [Storage] error and the only way forward is to reopen the store,
    which replays the log and undoes the loser. *)
val with_txn : t -> doc:string -> ?expect:[ `Absent | `Present ] -> (unit -> 'a) -> 'a

(** [autocommit t ?doc ?expect f] runs the write [f] as a transaction of
    its own unless the calling domain is already in one, which [f] then
    joins.  Its own transaction holds the structure lock across [f], so
    it may write any page, and the documents [f] creates stay in the
    shared arena.  It latches [doc] when given and checks [expect] like
    {!with_txn}.  On a store without a log [f] runs directly (after the
    [expect] check). *)
val autocommit : t -> ?doc:string -> ?expect:[ `Absent | `Present ] -> (unit -> 'a) -> 'a

(** On a store without a log, persist the catalog now: there, the
    catalog is saved where it changes shape (a document created or
    deleted, an index registered, a DTD stored).  On a logged store every
    commit saves it, so this does nothing. *)
val save_catalog_if_unlogged : t -> unit

(** [when_exclusive t f] runs the shared-arena write [f] only where no
    other writer can interleave: in the caller's transaction when that
    holds the structure lock and no other transaction is in flight, in
    an {!autocommit} transaction when none is in flight, or directly on
    a store without a log.  Otherwise [f] is skipped; secondary
    structures on shared pages (the element index) defer their pending
    work to a later call. *)
val when_exclusive : t -> (unit -> unit) -> unit

(** Private allocation arena of a document, if it has one. *)
val document_arena : t -> string -> int option

(** {1 Catalog metadata}

    Keyed string metadata persisted with the catalog.  Inside a
    transaction a write is {e journalled}: it becomes durable with this
    transaction's commit, while a concurrently committing transaction
    excludes it from the catalog image it saves.  Secondary layers
    (DTDs, index roots and epochs, stats hints) must route their catalog
    metadata through these instead of touching the tables directly —
    the accessors also provide the synchronisation concurrent writers
    need. *)

val meta_find : t -> string -> string option
val meta_put : t -> string -> string -> unit
val meta_remove : t -> string -> unit

(** Why the store is poisoned, if it is. *)
val poisoned : t -> string option

(** Transactions currently between begin and commit acknowledgement. *)
val active_txns : t -> int

(** The group-commit daemon (present iff the store has a WAL); exposes
    flush/batching counters. *)
val group_commit : t -> Group_commit.t option

(** [close t] checkpoints (unless [~commit:false]), then closes the WAL
    and the disk.  [~commit:false] abandons un-checkpointed work — the
    crash-consistency harness uses it to release descriptors of a
    "killed" store without letting it write another byte. *)
val close : ?commit:bool -> t -> unit

(** Flush and drop all buffered pages {e and} decoded records — the
    paper's "buffer cleared at the start of each operation". *)
val clear_buffers : t -> unit

(** {1 Documents} *)

val create_document : t -> name:string -> root:string -> Phys_node.t

(** Logical root node of a document. *)
val open_document : t -> string -> Phys_node.t option

val list_documents : t -> string list

(** Delete the document and all its records. *)
val delete_document : t -> string -> unit

(** {1 Labels} *)

(** Intern an element or attribute name. *)
val label : t -> string -> Label.t

val label_name : t -> Label.t -> string

(** {1 Logical navigation}

    Logical nodes are facade {!Phys_node.t} values (plus fragment
    aggregates standing for oversized text nodes).  Handles stay valid
    across splits — splits move node objects between records without
    copying them — and are invalidated only by deleting the subtree. *)

(** Children in document order: proxies are dereferenced and scaffolding
    groups flattened.  With an obs handle, each dereference emits
    [Proxy_hop] and each child reached through proxies observes its
    fetch count into [proxy_chain_len]. *)
val logical_children : t -> Phys_node.t -> Phys_node.t Seq.t

(** [iter_logical_children t n f] applies [f] to {!logical_children}[ t n]
    in order, dereferencing as that sequence does when it is pulled, but
    without a [Seq] cell or suspension per child. *)
val iter_logical_children : t -> Phys_node.t -> (Phys_node.t -> unit) -> unit

(** [descendants t test n] is every logical descendant of [n] (not [n]
    itself) that passes [test], in document order.  It reaches each node
    when a recursive walk over {!logical_children} would, so records are
    fetched, proxy hops counted and [Proxy_hop] events emitted in the same
    order, and allocates per opened element and per hit rather than per
    visited node.  The sequence is persistent: forcing it again walks
    again and yields the same nodes. *)
val descendants : t -> (Phys_node.t -> bool) -> Phys_node.t -> Phys_node.t Seq.t

val logical_parent : t -> Phys_node.t -> Phys_node.t option

(** Proxy dereferences made by {!logical_children} on the calling domain
    since it started, with or without an obs handle; difference it
    around a region to count that region's hops. *)
val proxy_hops : unit -> int

(** True for element nodes (facade aggregates). *)
val is_element : Phys_node.t -> bool

(** True for logical text/literal leaves (including fragment aggregates). *)
val is_literal : Phys_node.t -> bool

(** True for attribute nodes: non-elements whose label starts with
    ["@"].  Allocates nothing. *)
val is_attribute : t -> Phys_node.t -> bool

(** Text of a logical text node; reassembles fragmented literals.
    @raise Invalid_argument on an element. *)
val text_of : t -> Phys_node.t -> string

(** Typed literal of a leaf, when it is not fragmented. *)
val literal_of : Phys_node.t -> Phys_node.literal option

(** {1 Updates} *)

type payload =
  | Elem of Label.t  (** a fresh empty element *)
  | Text of string
  | Lit of Label.t * Phys_node.literal

type insert_point =
  | First_under of Phys_node.t  (** as first child of this element *)
  | After of Phys_node.t  (** as next sibling of this logical node *)

(** [insert_node t point payload] runs the tree growth procedure and
    returns the new logical node. *)
val insert_node : t -> insert_point -> payload -> Phys_node.t

(** [delete_node t node] removes the logical subtree rooted at [node],
    deleting the records it owns and re-merging underfull neighbours.
    @raise Invalid_argument when [node] is a document root (use
    {!delete_document}). *)
val delete_node : t -> Phys_node.t -> unit

(** [update_text t node s] replaces a text node's contents. *)
val update_text : t -> Phys_node.t -> string -> unit

(** {1 Introspection} *)

(** The decoded record containing this node. *)
val box_of : t -> Phys_node.t -> Phys_node.box

(** Fetch (and memoise) a record by RID, charging the page access. *)
val fetch : t -> Rid.t -> Phys_node.box

(** Number of splits performed since the store was opened. *)
val split_count : t -> int

(** Number of record re-merges performed since the store was opened. *)
val merge_count : t -> int

(** Observability handle the store was opened with ({!Config.with_obs});
    [None] when tracing is disabled.  The handle's clock runs on the
    disk's simulated time. *)
val obs : t -> Natix_obs.Obs.t option

(** {1 Change notification}

    Secondary structures (e.g. {!Element_index}) subscribe to record-level
    changes; the listener fires after a record is (re)written or deleted.
    One listener at a time; pass [None] to detach. *)

type record_event = Changed | Dropped

val set_change_listener : t -> (Rid.t -> record_event -> unit) option -> unit

(** Monotone count of record-level changes over the store's lifetime,
    persisted in the catalog at {!sync}.  A secondary structure that
    stamps the epoch it last folded changes in at can tell on reopen
    whether the store changed while its listener was detached (and it is
    therefore stale). *)
val change_epoch : t -> int

(** Walk every record of a document's physical tree, in record-tree
    pre-order: [f rid root depth].  Used by stats and integrity checks. *)
val iter_records : t -> Rid.t -> (Rid.t -> Phys_node.t -> int -> unit) -> unit

(** Root record RID of a document. *)
val document_rid : t -> string -> Rid.t option

(** Consistency check over a document's physical tree: cached sizes match
    recomputation, parent RIDs are correct, proxies resolve, scaffolding
    invariants hold.  @raise Failure with a description on violation. *)
val check_document : t -> string -> unit
