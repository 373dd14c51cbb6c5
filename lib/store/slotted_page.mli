(** Slotted page layout.

    Pages holding records are organised as slotted pages (paper §2.1):
    a fixed header, a slot directory growing upward, and record data growing
    downward from the page end.  Records are addressed by slot number, so
    they can be moved around on the page (compaction) without invalidating
    their RIDs.

    Each slot carries two flag bits for the record manager's forwarding
    scheme ({!forward_flag}: the record body is a tombstone holding the RID
    of the moved record; {!moved_flag}: the record moved in from another
    home page).

    All functions operate directly on the page image [bytes] whose length is
    the page size. *)

val header_size : int
val slot_size : int

(** Largest record storable on an otherwise empty page of [page_size]. *)
val max_record_len : page_size:int -> int

(** Smallest extent a record occupies: a forward tombstone's 8 bytes.  A
    shorter record keeps its real length in its slot but owns
    [min_extent] bytes of the data area, so it can always be replaced in
    place by the tombstone that forwards it. *)
val min_extent : int

(** [extent len] is [max len min_extent]: the data-area bytes a record of
    [len] bytes occupies, and what {!free_for_insert} must cover for it. *)
val extent : int -> int

(** Initialise an all-zero page as an empty slotted page. *)
val format : bytes -> unit

val slot_count : bytes -> int

(** Number of live (non-free) slots. *)
val live_count : bytes -> int

(** Bytes available for inserting one new record (slot entry accounted for;
    assumes compaction may run). *)
val free_for_insert : bytes -> int

(** Total free bytes including fragmentation gaps (excluding slot reuse). *)
val total_free : bytes -> int

(** 32-bit field reserved for upper layers (e.g. catalog bootstrap). *)
val get_user32 : bytes -> int

val set_user32 : bytes -> int -> unit

type flags = { forward : bool; moved : bool }

val no_flags : flags
val forward_flag : flags
val moved_flag : flags

(** [insert page data flags] places a new record, returning its slot, or
    [None] if the page cannot hold it even after compaction. *)
val insert : bytes -> string -> flags -> int option

(** A live record's offset in the page, its length, and whether it is a
    forward tombstone ({!forward_flag}).  Each reads the slot entry in
    place and allocates nothing.
    @raise Invalid_argument on a free or out-of-range slot. *)

val offset : bytes -> int -> int
val length : bytes -> int -> int
val forwarded : bytes -> int -> bool

val is_live : bytes -> int -> bool

(** [write page slot ~len fill flags] replaces the record's contents with
    [len] bytes, growing or shrinking it (with compaction if needed), and
    calls [fill page off] to write them at [off].  The old image may be
    moved or overwritten before [fill] runs, so a fill that derives the
    new image from the old one must read a copy.  Returns [false] if the
    new size does not fit on the page; [fill] is then not called and the
    old record is left intact. *)
val write : bytes -> int -> len:int -> (bytes -> int -> unit) -> flags -> bool

(** [blit data] is the fill that writes [data]: pass it with
    [~len:(String.length data)]. *)
val blit : string -> bytes -> int -> unit

val delete : bytes -> int -> unit

(** [iter page f] applies [f slot offset length flags] to each live record. *)
val iter : bytes -> (int -> int -> int -> flags -> unit) -> unit

(** Defragment the data area.  Exposed for tests; called internally as
    needed. *)
val compact : bytes -> unit

(** Internal-consistency check used by tests and debug assertions: verifies
    header bookkeeping against a full scan.  Raises [Failure] with a
    description on corruption. *)
val check : bytes -> unit
