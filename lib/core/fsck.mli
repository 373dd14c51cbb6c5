(** Store integrity checker (the engine behind [natix fsck]).

    Sweeps the whole store bottom-up and collects problems instead of
    stopping at the first: page trailers (checksum and page-id stamp),
    the slotted layout of every page, every document's physical tree
    (cached sizes, parent RIDs, proxy resolution, scaffolding invariants),
    the element index's B-tree invariants, and page ownership tags against
    the catalog's arena registry (every private arena claimed by exactly
    one document; every record homed on a page tagged with its document's
    arena; no orphaned tags left by a crashed writer).

    Note that opening a store already runs {!Natix_store.Recovery}, so by
    the time [run] sees a crashed store its recoverable damage has been
    repaired — a non-empty report means real, unrecoverable corruption.
    A {e stale} element index (see {!Element_index.stale}) is not
    corruption: the next writable open rebuilds it, so only its B-tree
    structure is checked. *)

type issue = { where : string; what : string }

(** The element index as [run] found it: absent, current (structure and
    postings checked), or stale (structure checked). *)
type index = No_index | Fresh_index | Stale_index

type report = {
  pages : int;  (** pages swept *)
  documents : int;  (** documents walked *)
  index : index;
  issues : issue list;  (** empty iff the store is clean *)
}

val ok : report -> bool
val run : Tree_store.t -> report

val run_disk : Natix_store.Disk.t -> report
(** [run_disk disk] is the layer-1 sweep alone (page trailers), for
    stores too damaged to open: no documents are walked and no index is
    checked.  [run] subsumes it whenever the store opens. *)

val pp : Format.formatter -> report -> unit
