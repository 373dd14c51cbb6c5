(** Structured trace events.

    One constructor per instrumented operation of the storage engine, from
    raw page I/O up to tree-store splits.  Events are cheap immediate
    records; they are only constructed when an {!Obs.t} handle is installed,
    so uninstrumented stores pay a single [match] per hook.

    Timestamps ([at_ms]) are read from the store's {e simulated} I/O clock
    (the [Io_stats.sim_ms] accumulator of the underlying disk), so a trace
    lines up with the paper's cost model rather than with wall time. *)

open Natix_util

(** Mirror of [Split_matrix.behaviour]; duplicated here so the obs library
    stays below the core in the dependency order. *)
type decision = Cluster | Standalone | Other

type btree_op = Bt_read | Bt_write | Bt_alloc

(** Operation attribution stamped on events while an {!Obs.with_context}
    scope is active: which document (if any) and which operation phase
    ("load", "query", "checkpoint", ...) the engine was serving when the
    event fired.  The page-heat profiler groups I/O by these labels. *)
type ctx = { doc : string option; phase : string }

type kind =
  | Io of { page : int; write : bool; sequential : bool }
      (** One physical page transfer charged to the I/O model. *)
  | Page_fix of { page : int; hit : bool }
      (** Buffer-pool fix; [hit = false] means the frame was read (or, for
          freshly allocated pages, materialised) on demand. *)
  | Page_evict of { page : int; dirty : bool }
  | Page_flush of { page : int }  (** Dirty frame written back. *)
  | Record_alloc of { rid : Rid.t; bytes : int }
  | Record_relocate of { rid : Rid.t; target : Rid.t; bytes : int }
      (** A record moved behind a tombstone; [rid] keeps addressing it. *)
  | Record_free of { rid : Rid.t }
  | Split of { rid : Rid.t; decision : decision; fill : float; record_bytes : int }
      (** Tree-store record split: the overflowing record, the Split-Matrix
          behaviour of the insertion that triggered the overflow, the fill
          factor of the record's page at split time, and the (oversized)
          in-memory record size. *)
  | Merge of { rid : Rid.t; absorbed : Rid.t }
      (** Dynamic re-clustering: [absorbed] was inlined into [rid]. *)
  | Proxy_hop of { rid : Rid.t; chain : int }
      (** A proxy dereference during logical navigation; [chain] is the
          number of consecutive record fetches needed to resolve the
          logical child list position (> 1 through scaffolding groups). *)
  | Btree_node of { rid : Rid.t; op : btree_op; leaf : bool }
  | Checksum_fail of { page : int }
      (** A page trailer failed verification on read; the read raises
          [Disk.Bad_page] right after this event. *)
  | Read_retry of { page : int; attempt : int }
      (** The buffer pool retrying a transiently failed page read. *)
  | Read_ahead of { first : int; pages : int }
      (** The buffer pool prefetched a run of [pages] contiguous pages
          starting at [first] after detecting a sequential miss pattern. *)
  | Wal_append of { lsn : int; page : int; bytes : int }
      (** An update record (before+after image) appended to the
          write-ahead log. *)
  | Wal_fsync of { lsn : int; records : int }
      (** A log fsync made [records] pending records durable up to
          [lsn]. *)
  | Wal_torn of { offset : int; dropped : int }
      (** Recovery found a torn or corrupt log tail at [offset] and
          truncated [dropped] bytes. *)
  | Recovery_redo of { page : int }
      (** Recovery replayed a logged after-image onto this page. *)
  | Recovery_undo of { page : int }
      (** Recovery restored this page from its logged before-image. *)
  | Recovery_done of { undone : int; torn_bytes : int }
      (** Recovery finished: pages restored, and bytes of torn log tail
          discarded. *)

type t = { seq : int; at_ms : float; kind : kind; ctx : ctx option }

val decision_name : decision -> string

(** Stable snake_case tag, also used as the JSON ["type"] field and as the
    per-event-type metrics counter suffix. *)
val type_name : kind -> string

(** ["ev." ^ type_name kind], the kind's event counter, as a constant
    string (no allocation). *)
val counter_name : kind -> string

(** The kind's constructor index, in [0, tag_count). *)
val tag : kind -> int

val tag_count : int

(** [counter_names.(tag k) = counter_name k]. *)
val counter_names : string array

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
