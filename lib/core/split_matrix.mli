(** The Split Matrix (paper §3.3).

    Entry [S_ij] expresses the desired clustering of a node with label [j]
    as child of a node with label [i]:

    - [Standalone] (the paper's 0): the child is always kept as a record of
      its own, never clustered with the parent;
    - [Cluster] (the paper's ∞): the child is kept in the same record as
      the parent for as long as possible;
    - [Other]: the split algorithm decides freely.

    The matrix is an optional tuning parameter; the default has every entry
    [Other].  Other storage formats are instances of particular matrices
    (paper §5): all-[Standalone] emulates one-record-per-node metamodeling
    systems (POET, Excelon, LORE — the evaluation's 1:1 configuration);
    matrices of only [Standalone]/[Cluster] emulate HyperStorM's static
    hybrid. *)

open Natix_util

type behaviour = Standalone | Cluster | Other

type t

val create : ?default:behaviour -> unit -> t

val set : t -> parent:Label.t -> child:Label.t -> behaviour -> unit

(** [get t ~parent ~child] is the entry [set] for the pair, else the
    matrix's default. *)
val get : t -> parent:Label.t -> child:Label.t -> behaviour

(** Named configurations of §4.2. *)

(** All entries [Standalone]: the 1:1 record-per-node emulation. *)
val one_to_one : unit -> t

(** All entries [Other]: the native 1:n configuration. *)
val native : unit -> t

val behaviour_to_string : behaviour -> string
