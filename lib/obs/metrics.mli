(** Metrics registry: named counters and fixed-bucket histograms.

    Buckets are {e upper-inclusive}: an observation [v] falls into the
    first bucket whose edge [e] satisfies [v <= e]; observations above the
    last edge land in an implicit overflow bucket, so a histogram with [n]
    edges has [n + 1] counts.  Edges are fixed at registration time —
    there is no dynamic resizing, keeping {!observe} allocation-free.

    All operations are O(1) apart from a hash lookup by name;
    instrumentation call sites are expected to be guarded by the presence
    of an {!Obs.t} handle, so an uninstrumented store never reaches this
    module. *)

type t

val create : unit -> t

(** [incr t name] bumps counter [name] (creating it at 0 first). *)
val incr : ?by:int -> t -> string -> unit

(** Current counter value; 0 when never incremented. *)
val counter : t -> string -> int

(** [register_histogram t name ~edges] declares a histogram.  Idempotent
    when the edges match; re-registering with different edges raises
    [Invalid_argument].  Edges must be finite and strictly increasing. *)
val register_histogram : t -> string -> edges:float array -> unit

(** [observe t name v] records [v].  An unregistered name is first
    registered with power-of-two byte-size edges (1 .. 65536).  Non-finite
    values (NaN, ±∞) are dropped — they would otherwise poison the sum and
    make {!quantile} return NaN — so [histogram]'s [n] counts only finite
    observations. *)
val observe : t -> string -> float -> unit

(** [(edges, counts, sum, n)] of a registered histogram: [counts] has
    [Array.length edges + 1] cells (the last is the overflow bucket). *)
val histogram : t -> string -> (float array * int array * float * int) option

(** [quantile t name q] approximates the [q]-quantile ([0. <= q <= 1.]) of
    the observations recorded into histogram [name]: the bucket holding
    the rank-[q] observation is found from the counts, then the value is
    interpolated linearly within it (the first bucket's lower edge is
    taken as 0; observations in the overflow bucket report the last edge,
    so the estimate saturates there).  [None] when the histogram does not
    exist or is empty — never NaN: edges are finite by registration and
    non-finite observations are dropped by {!observe}.  Raises
    [Invalid_argument] if [q] is outside [0, 1]. *)
val quantile : t -> string -> float -> float option

(** {2 The fixed-edge kernel}

    The bucketing and interpolation behind {!observe} and {!quantile},
    for other fixed-edge histograms (the monitor's windows). *)

(** Edges are finite and strictly increasing (vacuously for [[||]]). *)
val edges_valid : float array -> bool

(** [bucket_of edges v] is the first index whose upper-inclusive edge
    admits [v]; [Array.length edges] (the overflow bucket) when none
    does. *)
val bucket_of : float array -> float -> int

(** [quantile_of_counts edges counts q] interpolates the [q]-quantile
    from per-bucket [counts] ([Array.length edges + 1] cells, overflow
    last) exactly as {!quantile} does; [None] when every count is 0.
    [q] must already be in [0, 1] and [edges] non-empty. *)
val quantile_of_counts : float array -> int array -> float -> float option

(** Names of all registered counters (resp. histograms), sorted. *)
val counter_names : t -> string list

val histogram_names : t -> string list

(** Zero every counter and histogram, keeping registrations. *)
val reset : t -> unit

(** Snapshot as
    [{"counters": {..}, "histograms": {name: {"edges": [..], "counts":
    [..], "sum": s, "count": n}}}]. *)
val to_json : t -> Json.t

(** Human-readable report: counters in a column, histograms as bucket
    tables with proportional bars. *)
val pp : Format.formatter -> t -> unit
