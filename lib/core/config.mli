(** Tree-storage-manager configuration (paper §3.2–§4.2).

    - [split_target]: the desired position of the separator as a fraction
      of the record's bytes; ½ produces two partitions of equal size.
    - [split_tolerance]: minimum subtree size, as a fraction of the page
      size, below which the separator search stops descending (subtrees
      smaller than this are moved whole into one partition to prevent
      fragmentation).  The paper uses 1/10.
    - [merge_threshold]: extension — when, after a deletion, a child record
      and its host would together encode below this fraction of the maximum
      record size, the child record is merged back in (the dynamic
      re-clustering promised in the paper's introduction).  [0.] disables
      merging. *)

type t = {
  page_size : int;
  buffer_bytes : int;
  split_target : float;
  split_tolerance : float;
  matrix : Split_matrix.t;
  merge_threshold : float;
  standalone_first_fit : bool;
      (** Placement of records created by [Standalone] matrix entries when
          the parent's page is full: [false] (default) keeps them close
          (NATIX-style forward scan); [true] first-fits them anywhere,
          like the generic record managers of metamodeling systems —
          the evaluation's 1:1 configuration uses [true]. *)
  commit_delay : float;
      (** Group-commit batching window in milliseconds: a commit leader
          waits this long before forcing the log, so concurrent committers
          share one fsync.  [0.] (default) forces immediately.  The window
          is slept on the wall clock (followers genuinely join the batch)
          and also charged to the I/O model's clock. *)
  read_ahead : int;
      (** Buffer-pool read-ahead window in pages: on a detected sequential
          miss pattern the pool prefetches this many contiguous pages as
          one batched run.  [0] (default) disables read-ahead, preserving
          the paper's demand-paging behaviour. *)
  scan_resistant : bool;
      (** Segmented-LRU eviction: read-ahead and scan-mode pages enter a
          probationary cold segment so full traversals stop evicting the
          hot working set.  [false] (default) keeps the paper's plain
          LRU. *)
  arena_batch : int;
      (** Pages a private document arena grabs from the global free-space
          structure per refill.  Larger batches mean fewer trips through
          the allocation lock under concurrent writers, at the cost of
          more pre-formatted (but reusable) pages per document.  The
          shared arena always refills one page at a time, preserving the
          paper's sequential allocation pattern exactly. *)
  obs : Natix_obs.Obs.t option;
      (** Observability handle.  [None] (default) disables tracing and
          metrics entirely; every instrumented hot path is guarded by a
          single match on this option, so a disabled store allocates
          nothing extra. *)
}

(** Paper defaults: 8K pages, 2 MB buffer, target ½, tolerance 1/10,
    all-[Other] matrix, merging at 0.5. *)
val default : unit -> t

val with_page_size : int -> t -> t

(** Enable tracing/metrics collection through the given handle. *)
val with_obs : Natix_obs.Obs.t -> t -> t

(** Largest record body a page can hold under this configuration. *)
val max_record_size : t -> int

(** @raise Invalid_argument when a field is out of range (page size not in
    [512, 32768], fractions outside [0, 1], ...). *)
val validate : t -> unit
