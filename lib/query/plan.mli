(** Physical plans.

    The planner assigns each step of a parsed path an access method:

    - [Nav] — cursor navigation from each context node (children or
      descendant walk);
    - [Index_seed] — answer a leading [//NAME] step from the
      {!Natix_core.Element_index} instead of walking: fetch the records
      posted under the label, keep the nodes of the queried document, and
      sort them into document order by climbing their ancestor chains.

    The choice is driven by catalog cardinalities, in the currency of the
    disk's {!Natix_store.Io_model}: an index seed costs about one random
    access per posting record plus a discounted climb per node;
    navigation costs one access per page the document occupies (the
    per-document page count recorded by {!Natix_core.Stats} when
    available, the store-wide average otherwise) — all random on a plain
    pool, one sequential run ({!Natix_store.Io_model.run_cost}) when the
    pool has read-ahead.  Index seeding is considered only for the first
    step (its semantics — all nodes of the document except the root — are
    only simple from the root context).

    Each step's node test is compiled once, against the store's name
    pool: a name or [@attr] test becomes a label, so evaluation compares
    ints, and a name the pool does not hold makes the step match nothing.
    A seeded step keeps the record list it read from the postings, so
    the index is read once per query.

    The plan also records whether evaluating it amounts to a {e scan}
    (some descendant step keeps nearly every node); scans run with the
    buffer pool in scan mode so a scan-resistant pool keeps them out of
    the hot segment. *)

open Natix_core

(** A node test with its names resolved to labels. *)
type test =
  | Element of Natix_util.Label.t  (** [NAME] *)
  | Attribute of Natix_util.Label.t  (** [@NAME] *)
  | Any  (** [*] *)
  | Text  (** [text()] *)
  | Node  (** [node()] *)
  | Nothing  (** a name the store's pool does not hold *)

type access =
  | Nav
  | Index_seed of { label : Natix_util.Label.t; records : Natix_util.Rid.t list }
      (** [records]: the label's posting records, read while planning *)

type phys_step = {
  step : Ast.step;
  test : test;
  access : access;
  note : string;  (** why this access method was chosen (for [explain]) *)
  est_reads : float;
      (** planner's estimate of physical page reads for this step: the
          document's page count for a first descendant navigation, posting
          records + discounted climbs for an index seed, and 0 for later
          steps (assumed to hit already-faulted pages) and for a step that
          matches nothing.  EXPLAIN ANALYZE reports this against the
          measured reads. *)
}

type t = { doc : string; path : Ast.t; steps : phys_step list; scan : bool }

(** [build store ?index ~doc path] plans [path] against [doc].  Consults
    the element index (when given) for cardinalities, in one postings
    pass for a leading descendant name step; never touches document
    pages. *)
val build : Tree_store.t -> ?index:Element_index.t -> doc:string -> Ast.t -> t

(** True when any step is answered from the element index. *)
val uses_index : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
