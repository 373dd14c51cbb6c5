(** Per-request causal tracing on the simulated clock, the engine's one
    span model.

    A trace follows one served request from admission to reply: every
    phase the request passes through (queue wait, tenant gate, engine
    execution, WAL group commit) opens a span, and every span records
    two independent dimensions:

    - a wall interval on the {e request's} simulated clock: the global
      clock (so waits on other requests' I/O — queue delay, gate
      blocking, group-commit fsync absorption — are visible) plus the
      request's own stream time while it runs, and
    - cumulative snapshots of the request's {e private} I/O stream
      (reads / writes / stream sim-ms), so per-span I/O deltas
      reconcile exactly with the request's `Disk` stream delta the way
      EXPLAIN ANALYZE reconciles with [Io_stats].

    The tracer never charges the simulated clock itself: enabling
    tracing moves no simulated figure, which the bench-diff gate
    enforces.

    Layering: this module depends only on [Natix_util]/[Natix_obs]
    (for JSON) and receives its clocks as closures, so deep layers
    (the store's group-commit daemon, the query engine's EXPLAIN
    ANALYZE, the server's tenant gate) can depend on it and emit spans
    through the ambient per-domain trace installed by the dispatcher. *)

(** Private-stream I/O figures (cumulative or delta). *)
type io = { reads : int; writes : int; io_ms : float }

val zero_io : io
val add_io : io -> io -> io
val sub_io : io -> io -> io

type t

(** [create ~trace_id ~tenant ~kind ~detail ~clock] starts a trace at
    submission time: [clock] samples the request's simulated clock and is
    read once immediately (the submission timestamp). *)
val create :
  trace_id:string -> tenant:string -> kind:string -> detail:string -> clock:(unit -> float) -> t

val trace_id : t -> string

(** The request's simulated clock, as sampled by this trace. *)
val clock : t -> float

(** [run t ~io body] is called on the executing domain, inside the
    request's private stream: it installs [t] as the ambient trace for
    the calling domain, opens the root ["request"] span (whose start
    time is the submission timestamp, so its duration covers queue
    wait), emits the synthetic ["queue.wait"] child covering
    submission → pickup, runs [body], closes the root and restores the
    previous ambient trace.  [io] samples the private stream's
    cumulative counters. *)
val run : t -> io:(unit -> io) -> (unit -> 'a) -> 'a

(** The trace installed on the calling domain by [run], if any.
    Instrumentation points in lower layers use this to emit spans
    without threading a handle; when no trace is installed they cost
    one DLS read. *)
val active : unit -> t option

(** [span t name f] runs [f] under a span that samples both clocks at
    open and close.  The span closes even if [f] raises. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** Ambient variant of [span]: no-op wrapper when no trace is
    installed. *)
val span_here : string -> (unit -> 'a) -> 'a

(** [detached f] runs [f] with no ambient trace on the calling domain,
    as a freshly spawned domain would, and restores the previous one
    afterwards. *)
val detached : (unit -> 'a) -> 'a

(** [interval t name ~t0 ~t1] emits a child of the innermost open span
    covering an explicit clock window, with no private-stream
    I/O attributed.  Used for waits measured by the instrumented site
    itself (gate blocking, commit queue/fsync decomposition). *)
val interval : t -> string -> t0:float -> t1:float -> unit

(** [io_child t name ~io ~dur_ms] emits a child carrying an explicit
    private-stream I/O delta, [dur_ms] wide and ending at the current
    clock value (the I/O it reports has already happened) — used to
    attach EXPLAIN ANALYZE operator rows as spans. *)
val io_child : t -> string -> io:io -> dur_ms:float -> unit

(** Attach rendered EXPLAIN ANALYZE text (kept for the slow-request
    log). *)
val set_plan : t -> string -> unit

(** {1 Reports} *)

type span_report = {
  id : int;  (** ids are assigned in opening order; parents precede children *)
  parent : int;  (** 0 for the root *)
  name : string;
  start_ms : float;
  dur_ms : float;
  total : io;  (** private-stream delta over the span *)
  self : io;  (** [total] minus the totals of direct children *)
}

type report = {
  trace_id : string;
  tenant : string;
  kind : string;
  detail : string;
  submitted_ms : float;
  queued_ms : float;  (** pickup − submission *)
  dur_ms : float;  (** root duration (includes queue wait) *)
  total : io;  (** root private-stream delta; equals the sum of spans' selves *)
  plan : string option;
  spans : span_report list;  (** in opening order; the root is first *)
}

(** [finish t] closes the books after [run] returned and computes the
    report.  Invariant: the sum of [self] figures over [spans] equals
    [total] exactly (integers exactly; floats by construction of the
    simulated clock). *)
val finish : t -> report

(** Deterministic single-line JSON rendering (stable field order). *)
val report_to_json : report -> Natix_obs.Json.t

(** The folded flamegraph of [reports], the format [flamegraph.pl] and
    speedscope consume: one newline-terminated ["stack;path weight"]
    line per distinct stack, sorted bytewise.  A stack's weight is the
    self duration (duration minus direct children's) of its spans, in
    integer simulated microseconds, summed across [reports]; stacks
    without positive weight are dropped.  Identical workloads fold to
    identical bytes. *)
val folded : report list -> string
