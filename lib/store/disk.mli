(** Page-granular persistent store.

    A disk is a growable array of equal-sized pages.  Two backends are
    provided: a purely in-memory one (used by tests and benchmarks) and a
    file-backed one (used by the CLI for real persistence).  Both charge
    every page access to an {!Io_model} and record it in {!Io_stats}; the
    in-memory backend therefore behaves, for measurement purposes, like the
    paper's raw disk with no operating-system buffering.

    {b Page integrity.}  The last {!trailer_size} bytes of every physical
    page hold a trailer (CRC-32 checksum, write LSN, page id) maintained by
    {!write} and verified by {!read}; layers above the disk only ever see
    the remaining {!payload_size} bytes.  The in-memory backend reserves
    the same trailer space (so capacities match the file backend) without
    materialising it.  A checksum or page-id mismatch, a torn page, or a
    corrupt superblock raises {!Bad_page}. *)

(** Raised when a page (or, with [page = -1], the superblock) fails
    verification: checksum mismatch, wrong page-id stamp, short read/write,
    or an unusable superblock. *)
exception Bad_page of { page : int; reason : string }

(** Bytes of each physical page reserved for the integrity trailer. *)
val trailer_size : int

type t

val in_memory : ?model:Io_model.t -> ?obs:Natix_obs.Obs.t -> page_size:int -> unit -> t

(** [on_file ~page_size path] opens (or creates) a file-backed disk.  The
    page size must match the one the file was created with; a fresh file is
    initialised with a small superblock recording it.
    @raise Bad_page when the file exists but its superblock is truncated,
    has the wrong magic or layout version, or records a different page
    size. *)
val on_file : ?model:Io_model.t -> ?obs:Natix_obs.Obs.t -> page_size:int -> string -> t

(** Observability handle; every page transfer emits an [Io] event through
    it.  [set_obs] also binds the handle's clock to this disk's simulated
    [sim_ms] accumulator, so traces are timestamped on the I/O model's
    clock.  Layers above (buffer pool, segment, record manager) pick the
    handle up from here at creation time. *)
val set_obs : t -> Natix_obs.Obs.t option -> unit

val obs : t -> Natix_obs.Obs.t option

(** Attach (or detach) a fault-injection plan.  When present, every page
    write and read consults it; see {!Faulty_disk}. *)
val set_faults : t -> Faulty_disk.t option -> unit

val faults : t -> Faulty_disk.t option

(** Page size recorded in an existing disk file's superblock.  Total:
    returns [None] — never raises — when the file is missing or unreadable,
    shorter than the superblock, not a natix disk (bad magic or layout
    version), or records an absurd page size. *)
val detect_page_size : string -> int option

(** Physical page size (trailer included). *)
val page_size : t -> int

(** Usable bytes per page ([page_size - trailer_size]); the buffer size
    {!read} and {!write} operate on. *)
val payload_size : t -> int

(** Backing file path; [None] for the in-memory backend. *)
val path : t -> string option

(** Number of allocated pages. *)
val page_count : t -> int

(** [allocate t] appends a zeroed page and returns its id. *)
val allocate : t -> int

(** [read t page buf] fills [buf] (of length {!payload_size}) with the
    page's contents after verifying the trailer.
    @raise Bad_page on checksum/page-id mismatch or a short read.
    @raise Faulty_disk.Read_error when an attached fault plan fails the
    read transiently (the buffer pool retries these). *)
val read : t -> int -> bytes -> unit

(** [write t page buf] persists [buf] (of length {!payload_size}) as the
    page's contents, sealing a fresh trailer.  [lsn] overrides the stamp
    (recovery replaying a logged image stamps the record's own LSN so the
    pass is idempotent); by default a fresh LSN is drawn.
    @raise Faulty_disk.Crash when an attached fault plan kills this write
    (possibly tearing the page). *)
val write : ?lsn:int -> t -> int -> bytes -> unit

(** [read_run t ~first bufs] reads the physically contiguous run of pages
    [first, first + 1, ...] into the payload buffers [bufs], in ascending
    order so the I/O model charges one random access plus sequential
    transfers ({!Io_model.run_cost}).  Returns the number of pages read:
    the run ends early (without raising) at the first page that fails
    verification or is killed by a fault plan, because a speculative batch
    must never fail the demand access that triggered it.  When
    [speculative] (default [true]) each page read is also counted in
    [Io_stats.read_ahead_pages]. *)
val read_run : t -> first:int -> ?speculative:bool -> bytes list -> int

(** {2 Raw access — recovery only}

    Whole physical pages, trailer included, with no checksum verification
    and no fault injection: recovery reads a page's trailer LSN this way
    even when the page is torn. *)

(** [read_raw t page buf] fills [buf] (of length {!page_size}) with the
    raw page image. *)
val read_raw : t -> int -> bytes -> unit

(** Verify one page's trailer without raising; [Ok ()] always for the
    in-memory backend.  Used by [natix fsck]. *)
val verify : t -> int -> (unit, string) result

(** [image_lsn t ~page buf] is the trailer LSN of a raw physical image
    ([read_raw] output), or [-1] when the trailer fails verification — a
    torn page carries no trustworthy stamp, so redo applies
    unconditionally. *)
val image_lsn : t -> page:int -> bytes -> int

(** [set_page_count t n] shrinks the disk to [n] pages (recovery rolling
    back allocations of an uncommitted batch).  The file backend truncates
    the backing file and rewrites the superblock.
    @raise Invalid_argument when [n] exceeds the current page count. *)
val set_page_count : t -> int -> unit

(** The disk's {e default} I/O accumulator.  Outside a parallel region
    every access is charged here; inside one, worker domains that
    registered a stream with {!with_stream} charge their own accumulator
    instead, and the executor merges those back into this record (in
    worker-index order) when the region ends. *)
val stats : t -> Io_stats.t

(** [charge_sync_ms t ms] adds [ms] of simulated wall-time to the default
    accumulator without counting a page transfer — the group-commit
    daemon's commit-delay window. *)
val charge_sync_ms : t -> float -> unit

(** The accumulator the {e calling domain} is charging right now: its
    registered stream inside a parallel region, the default {!stats}
    otherwise.  An executor can attribute I/O to individual tasks by
    diffing this around each task — exact, because a task runs on one
    domain and a domain runs one task at a time. *)
val active_stats : t -> Io_stats.t

(** {2 Parallel regions}

    The disk is internally serialised by a single latch (shared file
    descriptor, scratch buffer and LSN counter), so concurrent domains are
    safe; these entry points additionally give each worker its own
    {!Io_stats} accumulator with independent sequential-access detection.
    The refcount is what {!Buffer_pool.reset_stats} and
    [Tree_store.reset_io_stats] consult to reject counter resets that
    would race with active workers. *)

(** Mark the start of a parallel region (refcounted; nestable). *)
val enter_parallel_region : t -> unit

(** Mark the end of a parallel region.
    @raise Invalid_argument when no region is active. *)
val exit_parallel_region : t -> unit

val in_parallel_region : t -> bool

(** [with_stream t f] registers a private accumulator for the {e calling
    domain}, runs [f] (all charges from this domain inside an active
    parallel region land in the private stream), unregisters it, and
    returns [f]'s result together with the accumulated stats.  Streams
    only take effect inside a region — outside one, charges always hit the
    default {!stats}, keeping single-domain behaviour bit-identical. *)
val with_stream : t -> (unit -> 'a) -> 'a * Io_stats.t

(** The cost model page accesses are charged to (used by the query planner
    to price candidate access paths in the same currency). *)
val model : t -> Io_model.t

(** Total bytes occupied on disk ([page_count * page_size]). *)
val size_bytes : t -> int

val close : t -> unit
