(** The monitor: always-on telemetry over a session's operation records.

    Every operation a session, the parallel executor or the server
    completes is handed to {!record_op} as one {!Recorder.op} carrying
    its exact I/O delta, and that record alone feeds three structures:

    - a {!Registry} of sliding-window series keyed by the operation's
      [(doc, kind)]: [ops] (one per operation), [reads] and [writes] (its
      page transfers), and [query_sim_ms] for queries, with moving
      p50/p95/p99.  A series' [count] is a number of operations, and its
      sum is a sum over recorded operations: I/O outside any recorded
      operation (crash recovery and the reopen scan when a store opens)
      is not counted;
    - an {!Account} per document: reads, simulated time and peak
      pages-pinned, each cumulative and windowed;
    - a {!Recorder} flight ring of the last 1,024 operations.

    The monitor does not read the engine's event stream: fixes, hits and
    WAL bytes are counted by the buffer pool, the disk and the log
    themselves.

    Windows span one minute of the {e simulated} clock (see
    {!Window.default_bucket_ms}), and everything is stamped with that
    clock, so a deterministic workload yields byte-identical exports.

    {b Cost.}  Constant work per recorded operation (a few window-bucket
    additions under one mutex); nothing on the page path.  No allocation
    grows with time except the bounded flight ring and one window per
    live [(doc, kind)] pair.

    {b Locking.}  One internal mutex serialises all feeds and snapshots;
    the monitor calls nothing that takes another lock. *)

type t

(** A fresh monitor with empty series, accounts and flight ring. *)
val create : unit -> t

(** {2 Operation records} *)

(** [record_op t ?pinned op] appends to the flight ring ([op.seq] is
    reassigned), charges [op.doc]'s account with the op's reads,
    simulated time and [pinned] (pages pinned at completion), and feeds
    the [ops], [reads], [writes] and (for queries) [query_sim_ms]
    series. *)
val record_op : t -> ?pinned:int -> Recorder.op -> unit

(** {2 Snapshots and export} *)

val metrics_snapshot : t -> at_ms:float -> Registry.snapshot
val accounts : t -> at_ms:float -> Account.doc_stats list
val flight_ops : t -> Recorder.op list
val flight_added : t -> int

(** One JSON object: [{"at_ms", "metrics", "accounts", "flight"}]. *)
val export_json : t -> at_ms:float -> Natix_obs.Json.t

(** Prometheus-style text exposition of the registry. *)
val export_prometheus : t -> at_ms:float -> string

(** [dump_flight t ~io ~jobs ?store ?trace_id oc] writes the flight
    ring as a JSONL dump with [cold = false] (see {!Replay}): [io] is
    the store's cumulative {!Natix_store.Io_stats} at dump time, and
    [trace_id] names the request whose failure triggered the dump, when
    known. *)
val dump_flight :
  t -> io:Natix_store.Io_stats.t -> jobs:int -> ?store:string -> ?trace_id:string ->
  out_channel -> unit
