(** Bench regression gate: compare two bench JSON reports metric by
    metric.

    Both inputs are the deterministic simulated-I/O reports written by
    the bench harness ([--query-bench --json-file]); identical code on
    identical inputs produces identical JSON, so any difference is a real
    behaviour change.  The comparison walks both documents structurally
    and classifies each leaf by its key name:

    - cost figures ([reads], [writes], [sim_ms]/[*_ms], [disk_bytes]) are
      lower-better: an increase beyond the relative threshold {e and} an
      absolute floor is a {e regression};
    - [*hit_ratio] is higher-better, with the same gating;
    - result shape ([hits], corpus figures, strings, array lengths, the
      set of keys) must match exactly — a difference is a {e mismatch};
    - wall-clock figures ([*_wall_s]) are skipped; anything else numeric
      is reported as an informational change;
    - under the top-level [cells] (the paper's figures, e.g.
      [BENCH_figures.json]) every numeric leaf but [*_wall_s] must be
      equal, [splits] included: any difference is a {e mismatch},
      whatever the threshold.  The same holds inside the [*_io] objects
      under the top-level [query_bench], which reproduce bit for bit at
      any job count and with an obs handle or tracing on.

    The gate fails (see {!ok}) on any regression or mismatch;
    improvements and informational changes are reported but pass. *)

type kind = Regression | Improvement | Change | Mismatch

type verdict = { path : string; kind : kind; detail : string }

type report = {
  threshold_pct : float;
  compared : int;  (** leaves compared *)
  verdicts : verdict list;  (** every leaf that differed, in document order *)
  regressions : int;
  mismatches : int;
}

val ok : report -> bool
val kind_name : kind -> string

(** [diff ~baseline ~current ()] with [threshold_pct] defaulting to
    10%. *)
val diff :
  ?threshold_pct:float -> baseline:Natix_obs.Json.t -> current:Natix_obs.Json.t -> unit -> report

(** Machine-readable verdict
    [{"ok":.., "threshold_pct":.., "compared":.., "regressions":..,
    "mismatches":.., "verdicts":[{"path":..,"kind":..,"detail":..}]}]. *)
val to_json : report -> Natix_obs.Json.t

val pp : Format.formatter -> report -> unit
