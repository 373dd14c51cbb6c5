(** Buffer manager.

    Caches disk pages in a fixed byte budget (the paper uses 2 MB) with LRU
    replacement, pin counts and dirty write-back.  The paper clears the
    buffer at the start of each measured operation; {!clear} provides that.

    Access protocol: {!fix} pins a page frame (reading it from disk on a
    miss), the caller reads or mutates [frame.data] (calling {!mark_dirty}
    after mutation), then {!unfix} releases the pin.  Unpinned frames are
    eviction candidates.

    Frames hold the page {e payload} ({!Disk.payload_size} bytes); the
    integrity trailer is the disk's business.  When a {!Wal.t} is attached,
    the pool enforces {e WAL-before-data}: a dirty page goes home only
    after the log records covering it are durable, and is stamped with the
    LSN of the last such record.  Every write to such a pool happens
    inside a transaction ({!txn_begin} … {!txn_commit_prep}): each mutated
    page gets redo+undo update records, and durability is the group-commit
    fsync of the commit record — dirty pages may stay in the pool
    (no-force) or be stolen early (steal).

    {b Scan optimisations.}  Two opt-in features (both off by default, so
    the default pool reproduces the paper's plain LRU exactly):

    - {e Read-ahead} ([read_ahead > 0]): when a demand miss lands on the
      page right after the previous miss, the pool prefetches the next
      [read_ahead] physically contiguous pages in one batched
      {!Disk.read_run}, charged as a sequential run by the I/O model.
    - {e Scan resistance} ([scan_resistant = true]): segmented LRU.
      Frames live in a hot segment (the demand working set) or a cold,
      probationary segment.  Prefetched pages and demand misses issued
      while {!scan_mode} is on enter cold; eviction takes the cold tail
      first, so a full traversal churns the cold segment instead of
      flushing the hot working set.  A cold frame is promoted to hot when
      it is demand-hit outside a scan after a previous reference. *)

(** {b Domain safety.}  The pool is safe for concurrent use from multiple
    domains.  The mapping table is sharded across a small fixed array of
    stripe locks; the LRU chains, counters and eviction run under one pool
    lock; and every frame carries a latch held only while its content is
    in flight, so two domains fixing the same missing page coalesce into
    one disk read.  The documented lock order — stripe < frame latch <
    pool < disk, try-locks exempt — is checked by the optional
    {!Lock_rank} debug assertion.

    A hit, an {!unfix} and a {!mark_dirty} of a page the calling domain's
    transaction already claimed take no pool lock.  A hit pins under the
    page's stripe and appends the frame to the calling domain's {e hit
    log}; the log is applied, in hit order (LRU moves and {!fixes}), at
    the start of every pool-lock section that domain enters, when it is
    full, when the domain fixes a page of another pool, by {!apply_hits},
    and when a worker domain exits.  With a single domain every lock is
    uncontended and behaviour (counters, eviction decisions, emitted
    events) is bit-identical to the unstriped pool.  A frame with hits
    still in another domain's log is evicted only when no other frame
    can be; eviction order under concurrency is schedule-dependent
    anyway. *)

exception All_frames_pinned
(** Raised by {!fix}/{!fix_new} when no frame can be evicted because every
    resident frame is pinned (the pool is too small for the working set). *)

(** Which LRU segment a frame lives in; always [Hot] in a pool created
    without [scan_resistant]. *)
type segment = Hot | Cold

(** A transaction's undo image of one page, internal. *)
type track

type frame = private {
  page_id : int;
  data : bytes;
  latch : Mutex.t;  (** held while the content is being loaded, internal *)
  mutable failed : bool;  (** the load failed; waiters retry, internal *)
  mutable dirty : bool;
  mutable rec_lsn : int;
      (** LSN of the last WAL record covering [data]; 0 while untracked *)
  pins : int Atomic.t;
  logged : int Atomic.t;  (** hits in a domain's hit log not yet applied, internal *)
  mutable seg : segment;  (** current segment, internal *)
  mutable referenced : bool;  (** demand-referenced since entering cold *)
  mutable linked : bool;  (** currently on an LRU chain, internal *)
  mutable prev : frame option;  (** LRU chain, internal *)
  mutable next : frame option;
  mutable claim : track option;
      (** the page's track in the in-flight transaction that wrote it,
          internal *)
}

type t

(** [create ~disk ~bytes ()] sizes the pool at [bytes / page_size] frames
    (at least 2).  [wal] attaches a write-ahead log (file-backed stores).
    [read_ahead] (default 0 = off) is the number of pages to prefetch on
    a detected sequential run; [scan_resistant] (default false) enables
    the segmented-LRU eviction policy.  A transiently failing page read
    is retried 3 times before its error escapes. *)
val create :
  disk:Disk.t ->
  bytes:int ->
  ?wal:Wal.t ->
  ?read_ahead:int ->
  ?scan_resistant:bool ->
  unit ->
  t

val disk : t -> Disk.t

(** The attached write-ahead log, if any. *)
val wal : t -> Wal.t option

val capacity : t -> int

(** Number of resident frames. *)
val resident : t -> int

(** [fix t page] pins the frame holding [page].
    @raise All_frames_pinned when every frame is pinned.
    @raise Disk.Bad_page when the page fails checksum verification.
    @raise Faulty_disk.Read_error when the read keeps failing transiently
    after 3 retries. *)
val fix : t -> int -> frame

(** [fix_new t page] pins a frame for a freshly {!Disk.allocate}d page
    without reading it from disk (its content is all zeroes).
    @raise All_frames_pinned when every frame is pinned. *)
val fix_new : t -> int -> frame

val unfix : t -> frame -> unit

(** Apply the calling domain's hit log to its pool now.  A domain that
    is about to idle calls it (a parallel worker when its task loop
    ends, a server worker after each request), so readers of {!fixes}
    and of the LRU order on other domains see its hits. *)
val apply_hits : unit -> unit

(** Mark a frame about to be mutated ({e before} the mutation: the calling
    domain's transaction captures the page image its undo record will
    restore here).
    @raise Invalid_argument on a pool with a WAL when the calling domain
    has no transaction in flight, or when the page belongs to another
    domain's in-flight transaction. *)
val mark_dirty : t -> frame -> unit

(** [with_page t page f] fixes, applies [f], and unfixes (also on
    exceptions). *)
val with_page : t -> int -> (frame -> 'a) -> 'a

(** Write all dirty frames back to disk (frames stay resident), forcing
    the log first where a frame's covering record is not durable yet. *)
val flush : t -> unit

(** {!flush}, then truncate the WAL: every committed transaction's pages
    are home, so the log restarts empty.  Equivalent to {!flush} when no
    WAL is attached.
    @raise Invalid_argument while a transaction is in flight. *)
val checkpoint : t -> unit

(** {2 Transactions}

    Several transactions may be in their mutation phases at once — at
    most one per domain, and their page sets must be disjoint (the store
    guarantees this by giving each concurrently written document a
    private allocation arena; shared pages are only written under its
    structure lock).
    The pool tracks each page a transaction dirties, attributed to the
    calling domain's transaction, and logs redo+undo update records for
    it either when the page is stolen (written back while the transaction
    is in flight) or at {!txn_commit_prep}.  {!mark_dirty} on a page
    already tracked by a {e different} in-flight transaction raises —
    the disjointness invariant is what keeps page-level logging sound. *)

(** [txn_begin t ~txn] opens transaction [txn] on the calling domain:
    logs its begin record and starts page tracking.
    @raise Invalid_argument without a WAL or while the calling domain
    already has a transaction in flight. *)
val txn_begin : t -> txn:int -> unit

(** Seal the calling domain's transaction: log update records for its
    still-unlogged pages and the commit record, returning the commit
    record's LSN.  The caller makes it durable (group commit); no page is
    flushed (no-force). *)
val txn_commit_prep : t -> int

(** Flush, then drop every frame.  Pinned frames cause a [Failure].

    {b Measurement protocol.}  [clear] empties the cache but deliberately
    {e preserves} the {!fixes}/{!misses} counters: the paper's protocol
    clears the buffer at the start of each measured operation, and the
    counters are meant to span an operation, not a cache lifetime.  To
    measure the hit ratio of one operation, call [clear] (cold cache)
    followed by {!reset_stats} (zeroed counters), run the operation, then
    read {!hit_ratio}. *)
val clear : t -> unit

(** {2 Scan mode}

    While scan mode is on, demand misses enter the cold segment and hits
    on cold frames do not promote them — a page fixed hundreds of times
    while the scan walks its records still looks like scan traffic, not
    working-set traffic.  No effect on a pool without [scan_resistant]
    (the flag is tracked but placement ignores it). *)

(** Scan mode is on exactly while a {!with_scan} region is active. *)
val scan_mode : t -> bool

(** [with_scan t f] runs [f] inside a scan region (ended also on
    exceptions).  Regions are a refcount, so they nest and may run
    concurrently from several domains: scan mode stays on until the last
    active region exits. *)
val with_scan : t -> (unit -> 'a) -> 'a

(** {2 Introspection} *)

(** Configured read-ahead window (pages; 0 = off). *)
val read_ahead : t -> int

(** Whether the page is currently cached (pinned or not). *)
val is_resident : t -> int -> bool

(** Resident frames currently in the cold (probationary) segment.  Always
    0 without [scan_resistant]. *)
val resident_cold : t -> int

(** Resident frames with a nonzero pin count — 0 whenever no fix is in
    progress; the parallel stress harness asserts exactly that after its
    workers join. *)
val pinned_frames : t -> int

(** Cache-hit statistics (fixes, misses).  {!fixes} includes every hit of
    the calling domain, and every hit other domains have applied (see
    {!apply_hits}). *)
val fixes : t -> int

val misses : t -> int

(** Pages fetched speculatively by read-ahead since the last
    {!reset_stats}.  Prefetched pages are not counted in {!misses} (no fix
    asked for them), so a scan served from read-ahead shows up as a high
    {!hit_ratio} plus a nonzero [prefetched]. *)
val prefetched : t -> int

(** [(fixes - misses) / fixes]; 1.0 when no fix happened yet.  Freshly
    allocated pages ({!fix_new}) count as hits since they cost no read. *)
val hit_ratio : t -> float

(** Zero {!fixes}, {!misses} and {!prefetched} without touching resident
    frames; see the measurement protocol under {!clear}.
    @raise Invalid_argument while a parallel region is active on the
    underlying disk ({!Disk.enter_parallel_region}): a reset racing with
    worker accumulators would leave the merged figures unreconcilable.
    [Tree_store.reset_io_stats] wraps this condition in a typed error. *)
val reset_stats : t -> unit

(** The handle inherited from the disk at {!create} time; page fix, evict
    and flush events are emitted through it. *)
val obs : t -> Natix_obs.Obs.t option
