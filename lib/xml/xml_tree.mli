(** The logical data model (paper §2.2): ordered labelled trees.

    Non-leaf nodes carry a symbol from the element alphabet Σ_DTD; leaves
    carry arbitrary strings.  Attributes are kept on elements and are mapped
    by the storage layer to ["@name"]-labelled children (DESIGN.md §4). *)

type t =
  | Element of { name : string; attrs : (string * string) list; children : t list }
  | Text of string

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t

(** Total number of nodes, counting every element, every attribute and
    every text leaf (attributes count as one node each, matching how the
    storage layer materialises them). *)
val node_count : t -> int

(** Number of element nodes only. *)
val element_count : t -> int

(** Height of the tree (a single node has depth 1; attributes ignored). *)
val depth : t -> int

(** Concatenation of all text leaves, in document order. *)
val text_content : t -> string

(** Children elements with the given name. *)
val children_named : t -> string -> t list

(** First child element with the given name, if any. *)
val child_named : t -> string -> t option

val attr : t -> string -> string option
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Distinct element and attribute names, in first-occurrence order. *)
val names : t -> string list
