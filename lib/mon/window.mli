(** A sliding time window: a ring of equal-width buckets over a clock.

    The clock is whatever the caller stamps observations with — for the
    monitoring layer that is the {e simulated} I/O clock, so windows (and
    everything derived from them: rates and moving quantiles) are
    deterministic for a deterministic workload.

    Each bucket accumulates a count, a sum, and optionally a fixed-edge
    histogram (shared edges for the whole window) for moving quantiles.
    Recording at time [t] lazily retires buckets that fell out of the
    window; a snapshot at time [t] aggregates only buckets still inside
    [[t - span_ms, t]].

    {b Determinism under parallel feeds.}  Bucket placement depends only
    on the stamp, and per-bucket aggregation is addition.  Events fed
    concurrently from worker domains arrive in nondeterministic order,
    but every value fed from the event stream is a small integer (a page
    count, a byte count, 1.), so the float sums are exact and
    order-independent; fractional values (simulated milliseconds) enter
    only from operation records, which the session appends in
    deterministic submission order after a parallel region joins. *)

type t

(** The monitoring layer's window: 60 buckets of 1,000 clock-ms, one
    minute of the simulated clock.  {!Account} and {!Slo} always use
    it; {!Registry.create} defaults to it. *)
val default_bucket_ms : float

val default_buckets : int

(** [create ~bucket_ms ~buckets ()] — a window spanning
    [bucket_ms * buckets] clock-milliseconds.  [quantile_edges] attaches
    a per-bucket histogram (finite, strictly increasing edges) enabling
    {!quantile}.  Raises [Invalid_argument] on a non-positive width or
    count. *)
val create : bucket_ms:float -> buckets:int -> ?quantile_edges:float array -> unit -> t

(** Total window span in clock-milliseconds. *)
val span_ms : t -> float

(** [add t ~at_ms v] accumulates [v] into the bucket covering [at_ms]
    (count + sum, and the histogram when edges were given).  Non-finite
    [v] or [at_ms] is dropped.  Stamps may arrive slightly out of order;
    anything older than the window is dropped. *)
val add : t -> at_ms:float -> float -> unit

(** Aggregate of the buckets inside the window ending at [at_ms]. *)
type agg = {
  count : int;  (** observations in the window *)
  sum : float;
  rate_per_s : float;  (** [sum] per clock-second of window span *)
}

val agg : t -> at_ms:float -> agg

(** Moving quantile over the histograms of the live buckets, interpolated
    like {!Natix_obs.Metrics.quantile}.  [None] when the window has no
    histogram or no observation in range.  Raises [Invalid_argument] when
    [q] is outside [0, 1]. *)
val quantile : t -> at_ms:float -> float -> float option

(** All three of p50/p95/p99, or [None] on an empty window. *)
val p50_95_99 : t -> at_ms:float -> (float * float * float) option
