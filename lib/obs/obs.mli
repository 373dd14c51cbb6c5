(** The observability handle threaded through the storage engine.

    An [Obs.t] bundles an optional trace {!Sink.t}, a {!Metrics.t}
    registry, and a clock.  Storage layers hold an [Obs.t option]; every
    instrumentation hook is guarded by one [match] on that option, so a
    store created without a handle allocates nothing extra on its hot
    paths.

    The clock is the {e simulated} I/O clock: when the handle is attached
    to a disk (see [Natix_store.Disk.set_obs]) it reads the disk's
    accumulated [Io_stats.sim_ms], so event timestamps are commensurable
    with the paper's cost model, not with wall time.  Timed regions are
    [Natix_trace.Trace] spans, on the same clock; the handle carries
    events, counters and histograms only.

    Every reader of a handle builds its own: [natix trace],
    [natix recover --jsonl], the doctor ([Natix_prof.Doctor]) and the
    bench.  The monitor ([Natix_mon.Mon]) reads operation records, not
    events, so a session's store carries a handle only when its
    configuration does.

    {b Domain safety.}  One handle may be shared by several worker
    domains (the latch-striped buffer pool emits through the store's
    handle from whichever domain fixes a page).  Metric updates, sequence
    stamping and delivery to the sink are serialised by an internal
    mutex; counting an event takes no lock.  The operation context
    ({!with_context}) is {e domain-local} — each domain attributes its
    own events, with no cross-domain bleed. *)

type t

(** [create ?sink ()] makes a handle.  Without [sink], events are still
    counted into the metrics registry (one ["ev.<type>"] counter per
    event type) but not retained.  The standard engine histograms
    ([record_size_bytes], [split_fill_factor], [proxy_chain_len]) are
    pre-registered. *)
val create : ?sink:Sink.t -> unit -> t

(** The registry, with every event emitted so far counted in its
    ["ev.<type>"] counters.  Events emitted later reach the counters at
    the next call. *)
val metrics : t -> Metrics.t

(** {2 Operation attribution}

    Events emitted while a context is installed carry it (see
    {!Event.ctx}); the page-heat profiler uses it to attribute I/O to
    (document, phase).  {!with_context} scopes dynamically and restores
    the previous context on exit (also on exceptions); lazy consumers that
    outlive the scope should re-install it around each pull via
    {!set_context}/{!context}. *)

val context : t -> Event.ctx option

val set_context : t -> Event.ctx option -> unit

val with_context : t -> ?doc:string -> phase:string -> (unit -> 'a) -> 'a

(** Install the simulated-millisecond clock (done by the disk layer). *)
val set_clock : t -> (unit -> float) -> unit

val now_ms : t -> float

(** Count an event in its ["ev.<type>"] counter; with a sink, stamp it
    (sequence number + clock) and deliver it, so a sink sees consecutive
    sequence numbers.  Without a sink an emit takes no lock and
    allocates nothing. *)
val emit : t -> Event.kind -> unit

(** Counter / histogram shorthands on {!metrics}. *)
val incr : ?by:int -> t -> string -> unit

val observe : t -> string -> float -> unit

(** Events retained by the sink (ring sinks only); [] without a sink. *)
val events : t -> Event.t list

(** Total events emitted so far. *)
val emitted : t -> int

(** Flush the sink's buffered output (see {!Sink.flush}); called by the
    store at every durable checkpoint and on close, so JSONL traces
    survive a crash up to the last checkpoint. *)
val flush : t -> unit

(** Close the sink (flushes JSONL files). *)
val close : t -> unit

(** Names of the pre-registered histograms. *)
val record_size_hist : string

val split_fill_hist : string
val proxy_chain_hist : string
