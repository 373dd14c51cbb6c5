(** Append-only dictionaries between keys and dense indices, shared by
    every domain.

    A table numbers its keys [0, 1, 2, ...] in first-intern order and never
    forgets one.  Reads take no lock: they load an immutable snapshot from
    an [Atomic] — a persistent map from key to index, an array from index
    to value, and the count that bounds the array — so [intern] of a
    known key and [get] allocate nothing.  Interning a new key takes
    the table's mutex, checks again, writes the next array slot and only
    then publishes a new snapshot, in O(log n) without copying the table.
    The mutex is a leaf: its holder compares keys and allocates, and takes
    no other lock. *)

module type KEY = sig
  type t

  (** What an index resolves to. *)
  type value

  (** A total order on keys; it must not take a lock. *)
  val compare : t -> t -> int

  (** [value k] is computed once, when [k] is interned. *)
  val value : t -> value

  (** Prefix of the error messages, e.g. ["Name_pool"]. *)
  val name : string

  (** Most distinct keys the table accepts. *)
  val limit : int
end

module Make (K : KEY) : sig
  type key = K.t
  type value = K.value
  type t

  val create : unit -> t

  (** [find t k] is the index of [k] if it is interned. *)
  val find : t -> key -> int option

  (** [intern t k] is the index of [k], interning it if new.
      @raise Failure when [k] would be key number [limit + 1]. *)
  val intern : t -> key -> int

  (** [get t i] is the value of the key at index [i].
      @raise Invalid_argument on an index not yet interned. *)
  val get : t -> int -> value

  (** Number of interned keys. *)
  val size : t -> int

  (** The values in index order, from one snapshot. *)
  val values : t -> value array
end
