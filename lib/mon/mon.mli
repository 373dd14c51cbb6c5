(** The monitor: always-on telemetry over one observability handle.

    {!attach} subscribes to an {!Natix_obs.Obs.t} and from then on feeds
    three structures from the event stream and from session-level
    operation records:

    - a {!Registry} of sliding-window series — [reads], [writes] and
      [wal_bytes] from events, keyed by the emitting [(doc, phase)]
      context; [ops] and [query_sim_ms] (with moving p50/p95/p99) from
      operation records.  Page fixes are not consumed: they are the
      hottest events, and the pool counts fixes and hits itself
      ({!Natix_store.Buffer_pool.fixes}, {!Natix_store.Buffer_pool.hit_ratio});
    - an {!Account} per document: reads fed from the event stream (the
      context attributes them even inside parallel batches), simulated
      time and peak pages-pinned from operation records, each cumulative
      and windowed;
    - a {!Recorder} flight ring of the last 1,024 operations.

    Windows span one minute of the {e simulated} clock (see
    {!Window.default_bucket_ms}), and everything is stamped with that
    clock, so a deterministic workload yields byte-identical exports.

    {b Cost when idle.}  The subscriber does constant work per event
    (a few window-bucket additions under one mutex); no allocation grows
    with time except the bounded flight ring and one window per live
    [(doc, phase)] pair.  A store opened without monitoring pays nothing.

    {b Locking.}  One internal mutex serialises all feeds and snapshots.
    The event subscriber runs under the observability handle's delivery
    lock and only ever takes the monitor's lock (never the reverse
    order); the monitor never calls back into the handle. *)

type t

(** Subscribe a fresh monitor to the handle's [io] and [wal_append]
    events. *)
val attach : Natix_obs.Obs.t -> t

(** {2 Operation records} *)

(** [record_op t ?pinned op] appends to the flight ring ([op.seq] is
    reassigned), charges [op.doc]'s account with the op's simulated time
    and [pinned] (pages pinned at completion), and feeds the [ops] /
    [query_sim_ms] series. *)
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
