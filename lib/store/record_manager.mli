(** RID-stable record operations over a segment.

    Records are identified by [(page, slot)] RIDs (paper §2.1).  When an
    update outgrows its page the record is transparently moved elsewhere and
    a tombstone (an 8-byte forward RID) is left in the home slot, so RIDs
    held by other records — proxies and standalone parent pointers — never
    need rewriting.  Forwarding is at most one hop: a record that moves
    again has its tombstone repointed, never chained.  The extra page access
    through a tombstone is charged like any other, so clustering experiments
    see its true cost. *)

open Natix_util

exception Record_too_large of int

type t

val create : Segment.t -> t
val segment : t -> Segment.t

(** Observability handle inherited from the segment; record allocate /
    relocate / free events and the record-size histogram flow through it. *)
val obs : t -> Natix_obs.Obs.t option

(** Largest storable record in bytes. *)
val max_len : t -> int

(** [insert t ?owner ?near ?policy data] stores a new record, preferring a
    page close to [near] (used to place children near their parents).
    [owner] selects the allocation arena explicitly (else [near]'s arena,
    else the shared arena); [policy] selects the fallback search, see
    {!Segment.find_space}.
    @raise Record_too_large if [data] exceeds {!max_len}. *)
val insert : t -> ?owner:int -> ?near:int -> ?policy:[ `Forward | `First_fit ] -> string -> Rid.t

(** [read t rid] is a copy of the record's contents. *)
val read : t -> Rid.t -> string

(** [with_record t rid f] runs [f page ~off ~len] on the pinned page image
    holding the record's data (after following any forwarding), avoiding a
    copy. *)
val with_record : t -> Rid.t -> (bytes -> off:int -> len:int -> 'a) -> 'a

(** A record-image writer: [fill ~old ~old_len dst off] writes the new
    image into [dst] at [off].  [old] holds the image being replaced in
    its first [old_len] bytes (a scratch copy owned by the calling domain;
    it is not the page). *)
type fill = old:bytes -> old_len:int -> bytes -> int -> unit

(** [update t rid ~len fill] replaces the record's contents with the [len]
    bytes [fill] writes, moving it to another page behind a tombstone when
    necessary.  The RID stays valid.  Placement, relocation and tombstone
    decisions depend on [len] only; [fill] runs once, straight into the
    page when the record stays where it is.
    @raise Record_too_large if [len] exceeds {!max_len}. *)
val update : t -> Rid.t -> len:int -> fill -> unit

(** [update_string t rid data] is {!update} with a fill that writes
    [data]. *)
val update_string : t -> Rid.t -> string -> unit

(** [patch t rid ~off data] overwrites [length data] bytes of the record
    body in place at offset [off], without resizing.  Used for cheap
    in-record pointer updates (e.g. reparenting a subtree record).
    @raise Invalid_argument if the range exceeds the record. *)
val patch : t -> Rid.t -> off:int -> string -> unit

(** Delete the record (and its moved body, if forwarded). *)
val delete : t -> Rid.t -> unit

val length : t -> Rid.t -> int
val exists : t -> Rid.t -> bool

(** Page where the record's bytes actually live (after forwarding); used by
    allocation-locality heuristics and by tests. *)
val home_page : t -> Rid.t -> int

(** True if the record is currently stored behind a tombstone. *)
val is_forwarded : t -> Rid.t -> bool
