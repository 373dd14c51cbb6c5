(** Named metric series over sliding windows, keyed by operation context.

    A registry holds one {!Window.t} per series plus one per
    [(doc, phase)] context that has fed the series inside the window, and
    cumulative totals since creation.  {!snapshot} renders the whole
    registry at a given clock instant into a plain, {e deterministically
    ordered} value (series sorted by name, contexts by [(doc, phase)]),
    so a deterministic workload produces byte-identical exports.

    The registry itself is not thread-safe; {!Mon} serialises access. *)

type t

(** [create ()] — every window is {!Window.default_bucket_ms} ×
    {!Window.default_buckets} (a one-minute sim-clock window). *)
val create : unit -> t

(** Declare [name] with histogram edges so its snapshot carries moving
    p50/p95/p99.  Must precede the first {!record} of [name]. *)
val define : t -> string -> quantile_edges:float array -> unit

(** [record t ?ctx ~at_ms name v] feeds the series' global window and, when
    [ctx] is present, its per-context window.  Unknown series are created
    on first use (no histogram). *)
val record : t -> ?ctx:Natix_obs.Event.ctx -> at_ms:float -> string -> float -> unit

type series = {
  name : string;
  total_count : int;  (** observations since creation *)
  total_sum : float;
  window : Window.agg;  (** aggregate over the live window *)
  quantiles : (float * float * float) option;  (** moving p50/p95/p99 *)
  by_ctx : ((string option * string) * Window.agg) list;
      (** windowed per-[(doc, phase)] aggregates, sorted *)
}

type snapshot = { at_ms : float; span_ms : float; series : series list }

val snapshot : t -> at_ms:float -> snapshot
val to_json : snapshot -> Natix_obs.Json.t

(** Prometheus-style text exposition: [natix_<name>_total] counters,
    [natix_<name>_window{...}] gauges (labelled per context), and
    [natix_<name>_p50/p95/p99] gauges for histogram series. *)
val to_prometheus : snapshot -> string
