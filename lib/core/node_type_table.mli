(** The node type table (Appendix A).

    Object headers do not spell out their content type and logical type;
    they store a 2-byte index into a node type table.  The paper keeps one
    table per page; this implementation keeps a single store-wide table
    (persisted with the catalog), which encodes to the same bytes while
    making records movable across pages without re-indexing — see DESIGN.md
    §4.3 for the trade-off.

    An entry is a pair (content tag, logical label).  Content tags
    enumerate the physical node kinds, including the literal subtypes. *)

open Natix_util

type content_tag =
  | Tag_aggregate
  | Tag_frag_aggregate
  | Tag_proxy
  | Tag_str
  | Tag_int8
  | Tag_int16
  | Tag_int32
  | Tag_int64
  | Tag_float
  | Tag_uri

type t

val create : unit -> t

(** [index t tag label] returns the entry's index, interning it if new.
    @raise Failure after 65,535 distinct entries (the catalog stores the
    count in 2 bytes). *)
val index : t -> content_tag -> Label.t -> int

(** [entry t idx] decodes an index.
    @raise Invalid_argument on an unknown index. *)
val entry : t -> int -> content_tag * Label.t

val size : t -> int

(** Serialization, for the store catalog. *)

val encode : t -> string

val decode : string -> t
