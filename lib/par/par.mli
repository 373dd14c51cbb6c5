(** Domain-parallel query and bulk-load execution.

    Work is partitioned {e by document}: each task (one document to
    query, scan, or load) runs on one of [jobs] worker domains, which
    claim task indices in order from one shared atomic counter, and
    results come back in task-submission order — an ordered merge, so
    output is document-order deterministic regardless of which domain
    ran what.

    Read-path workers share the process-wide buffer pool (latch-striped,
    see {!Natix_store.Buffer_pool}) but each gets a private
    {!Natix_core.Tree_store.reader} view — own decoded-record cache, no
    observer — because decoded records are mutable and must not be
    shared across domains.  For the same reason workers plan by
    navigation only (no element index: its postings carry physical
    node identity through the owning store's cache).

    I/O accounting: each worker domain accumulates into a private
    {!Natix_store.Io_stats} stream ({!Natix_store.Disk.with_stream});
    on join the streams are merged into the disk's default accumulator
    in worker-index order, so the merged float totals are deterministic
    for a fixed partition.  [reads], [writes] and [total_ios] are
    moreover {e schedule}-independent (every distinct page is read
    exactly once into the shared pool, concurrent misses coalesce on the
    frame latch), which is what the differential harness asserts across
    job counts.  [sim_ms] and the [sequential_*] figures depend on
    per-stream access adjacency and legitimately vary with [jobs].

    With [jobs <= 1] everything runs inline on the calling domain — no
    spawn, no parallel region, no stream — and is bit-identical to the
    pre-parallel code path. *)

(** Per-worker I/O accounting, reported after the join. *)
type worker_stats = { worker : int; io : Natix_store.Io_stats.t }

(** [results] and [task_io] in task-submission (document) order;
    [workers] in worker index order.  At [jobs <= 1] there is exactly
    one worker entry, holding the stats delta of the whole inline run.

    [task_io] is each task's exact I/O delta, measured by diffing the
    executing domain's accumulator around the task (a domain runs one
    task at a time, so nothing bleeds between tasks).  Per-task {e read}
    counts are schedule-dependent at [jobs >= 2] — whichever task
    touches a shared page first pays its miss — while their sum stays
    schedule-independent; treat them as attribution for monitoring, not
    as replayable figures. *)
type 'a outcome = {
  results : 'a list;
  task_io : Natix_store.Io_stats.t list;
  workers : worker_stats list;
}

(** [map_tasks ~jobs ~disk ~make_ctx ~f tasks] is the generic executor
    behind the entry points below, exported so a caller with its own
    kind of task reuses the same partitioning, I/O accounting and
    determinism story instead of wiring its own domains.  [make_ctx] runs once per worker domain
    (build reader views and engines there — decoded records are mutable
    and must not cross domains); [f ctx task] runs each task.  Results
    come back in task-submission order with per-task I/O deltas.  At
    [jobs <= 1] everything runs inline on the calling domain,
    bit-identical to a hand-written loop.  A task that raises aborts the
    fleet: the first exception re-raises on the caller after all domains
    have joined and the per-domain streams are merged. *)
val map_tasks :
  jobs:int ->
  disk:Natix_store.Disk.t ->
  make_ctx:(unit -> 'ctx) ->
  f:('ctx -> 'task -> 'a) ->
  'task array ->
  'a outcome

(** [run_queries ~jobs store tasks] evaluates each [(doc, path)] task
    and renders every hit as the CLI does, through
    {!Natix_core.Exporter.hit} with [~texts:false] (elements as XML,
    other nodes as their text).  Per-task failures (bad path syntax,
    unknown document) come back as [Error]; storage-level exceptions
    abort the whole run. *)
val run_queries :
  ?jobs:int ->
  Natix_core.Tree_store.t ->
  (string * string) list ->
  (string list, Natix_core.Error.t) result outcome

(** [scan_all ~jobs store] traverses every document (sorted by name)
    with the pool in scan mode and returns [(doc, node_count)] per
    document. *)
val scan_all : ?jobs:int -> Natix_core.Tree_store.t -> (string * int) outcome

(** [load_files_txn ~jobs dm files] parses each [(name, xml_text)] on
    up to [jobs] worker domains and commits each document as one ARIES
    transaction via {!Natix_core.Document_manager.store_transactional}:
    workers overlap their mutation phases and commit waits, and the
    group-commit daemon batches their fsyncs.  A crash mid-run loses
    only documents whose commit had not completed; everything already
    committed recovers byte-identical.  Parse, validation and name
    failures (a document that already exists) come back per task as
    [Error]; a transaction failure poisons the store and the remaining
    tasks return typed [Error]s; a storage crash
    ({!Natix_store.Faulty_disk.Crash}) stops the fleet and re-raises
    after all workers have joined.  Requires a file-backed store. *)
val load_files_txn :
  ?jobs:int ->
  Natix_core.Document_manager.t ->
  (string * string) list ->
  (unit, Natix_core.Error.t) result outcome
