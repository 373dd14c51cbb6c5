(** The request dispatcher: many tenants, one domain pool, bounded
    admission.

    A {!t} owns [jobs] worker domains fed from one FIFO queue of
    tickets under the connection lock: a submitted request that is
    admitted becomes a ticket at the back, and a free worker takes the
    oldest admitted ticket from the front.  {!submit} blocks its caller
    until a worker fills in the reply, so one connection maps naturally
    onto one submitting thread.

    {b Admission.}  Before queueing, under the connection lock (rank
    [conn], never held across execution):
    - dispatcher shutting down → [Overloaded "shutting_down"];
    - [running + queued >= max_inflight] → [Overloaded "inflight_limit"];
    - [queued >= queue_depth] → [Overloaded "queue_full"].

    Shedding is the {e only} overload behaviour: an admitted request is
    always executed and always answered, and {!shutdown} drains the
    queue before the workers exit, so no submitter is left hanging.

    {b Execution.}  A worker runs a request under the tenant's
    {!Rw_lock} gate — shared for queries (each on a private
    {!Natix_core.Tree_store.reader} view with a navigation-only engine),
    exclusive for everything else (via {!Natix.Session.exec}) — inside a
    per-request I/O stream on the tenant's disk, with the observability
    context set to (tenant doc, ["serve:<kind>"]).  Exceptions map
    {e exhaustively} to typed [Err] replies: a raising request never
    takes a worker down and never leaves a frame latched.  A simulated
    crash additionally latches the tenant's [crashed] flag so later
    requests are refused with a typed error instead of touching the torn
    store.

    With [jobs = 0] there are no workers and {!submit} executes inline
    on the calling domain (admission still applies) — the deterministic
    mode the traffic bench and differential tests build on. *)

(** Tracing knobs, active only when {!config}[.trace] is [Some _]. *)
type trace_config = {
  slow_ms : float;
      (** requests with simulated duration [>= slow_ms] also land in the
          slow-request log (with their EXPLAIN ANALYZE text for queries);
          [infinity] disables the slow log *)
  trace_ring : int;  (** finished reports (and slow entries) kept, newest win *)
}

(** [{ slow_ms = infinity; trace_ring = 256 }] *)
val default_trace : trace_config

type config = {
  jobs : int;  (** worker domains; [0] executes inline in {!submit} *)
  max_inflight : int;  (** running + queued admission ceiling *)
  queue_depth : int;  (** queued-only ceiling *)
  trace : trace_config option;
      (** [Some _] traces every admitted request end to end: a
          {!Natix_trace.Trace.report} per request — queue wait, gate
          wait, per-operator execution, commit queue/fsync — whose span
          I/O figures reconcile exactly with the request's private disk
          stream.  The tracer only {e reads} the simulated clock, so
          simulated figures are identical with tracing on or off. *)
}

(** [{ jobs = 4; max_inflight = 64; queue_depth = 32; trace = None }] *)
val default_config : config

type stats = {
  served : int;  (** requests executed and answered *)
  shed : int;  (** requests refused with [Overloaded] *)
  max_queue : int;  (** high-water mark of the queue *)
  queued : int;  (** admitted tickets waiting in the queue right now *)
  running : int;  (** requests executing right now *)
}

type t

val create : ?config:config -> Registry.t -> t
val registry : t -> Registry.t
val config : t -> config

(** Dispatch one request for [tenant] and block until its reply.

    [trace_id] names the request's trace when tracing is on (propagated
    from the wire at protocol v2); when absent the server assigns
    ["t-NNNNNN"] sequentially under the connection lock, so single-
    threaded submission yields deterministic ids.

    {!Natix.Api.Server_stats} is answered here, before tenant
    resolution — it reports on the dispatcher itself and needs no
    store. *)
val submit : ?trace_id:string -> t -> tenant:string -> Natix.Api.request -> Natix.Api.response

val stats : t -> stats

(** {2 Trace and SLO introspection}

    All accessors are safe from any thread.  Report lists are capped at
    [trace_ring] (oldest evicted) and returned oldest-first.  Empty when
    tracing is off. *)

(** Every finished trace report. *)
val trace_reports : t -> Natix_trace.Trace.report list

(** Reports whose simulated duration reached [slow_ms]. *)
val slow_reports : t -> Natix_trace.Trace.report list

(** Per-tenant latency window stats as of [at_ms] (the tenant disk's
    simulated clock). *)
val slo_snapshot : t -> at_ms:float -> Natix_mon.Slo.stat list

(** Drain the queue, answer everything admitted, join the workers.
    Further {!submit}s shed.  Idempotent.  Does {e not} close the
    registry's tenants — callers that own the registry follow with
    {!Registry.close_all}. *)
val shutdown : t -> unit

(** {2 In-process loopback client}

    The same bytes as a socket client — requests and responses go
    through {!Natix.Api}'s codec {e and} {!Protocol}'s CRC framing, via
    an in-memory buffer — without a file descriptor.  This is what the
    differential tests and the traffic bench drive. *)

module Loopback : sig
  type conn

  val connect : t -> tenant:string -> conn

  (** Encode → frame → unframe → decode → {!submit} → encode → frame →
      unframe → decode.  [trace_id] rides the v2 frame's trace field,
      exactly as a socket client's would.  @raise Failure if the codec
      or framing does not round-trip (a bug, not an I/O condition). *)
  val call : ?trace_id:string -> conn -> Natix.Api.request -> Natix.Api.response
end

(** {2 Socket serving}

    Stream layout per connection: both sides send {!Protocol.header};
    the client's first frame carries the raw tenant name; every later
    client frame is one encoded request, answered in order with one
    encoded response frame (same [seq]).  A malformed {e payload} in a
    valid frame gets a typed [Err] reply and the connection continues; a
    framing violation (bad CRC, truncation) closes the connection. *)

(** Serve one established connection until EOF; closes [fd]. *)
val serve_connection : t -> Unix.file_descr -> unit

(** Accept loop on [addr]:[port] ([addr] defaults to loopback), one
    domain per connection, at most [max_connections] (default 8)
    concurrent.  Runs until the calling thread is interrupted. *)
val serve : t -> ?addr:string -> ?max_connections:int -> port:int -> unit -> unit
