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

    {b Domain safety.}  One handle may be shared by several worker
    domains (the latch-striped buffer pool emits through the store's
    handle from whichever domain fixes a page).  Metric updates, sequence
    stamping and delivery are serialised by an internal mutex, except the
    counting of an event kind that neither a sink nor any subscriber
    consumes: that takes no lock.  The operation context
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

val sink : t -> Sink.t option

(** [subscribe t ?kinds f] registers an in-process consumer: every event
    emitted from now on whose {!Event.type_name} is in [kinds] (every
    event without [kinds]) is also handed to [f], in subscription order,
    {e after} the sink.  An event is sequence-stamped and delivered
    whenever the sink or a subscriber consumes its kind; the sink
    consumes every kind, so a sink sees consecutive sequence numbers.
    [f] runs under the handle's delivery lock — it must be fast and must
    not call back into this handle ({!emit}/{!incr}/{!observe}).
    Subscribe before other domains emit: an emit racing with the
    subscription may miss it.  The monitoring layer ([Natix_mon]) is the
    intended consumer.  Subscriptions cannot be removed; they live as
    long as the handle.
    @raise Invalid_argument for a name in [kinds] that no kind has. *)
val subscribe : t -> ?kinds:string list -> (Event.t -> unit) -> unit

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

(** Count an event in its ["ev.<type>"] counter; if the sink or a
    subscriber consumes its kind, stamp it (sequence number + clock) and
    deliver it.  A kind nobody consumes takes no lock and allocates
    nothing. *)
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
