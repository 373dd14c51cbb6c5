(** [natix doctor]: one deterministic tree-health report for a store.

    The report combines quantities readable from live state (document
    stats, clustering scores, a fill-factor histogram over the pages
    holding records, WAL write amplification) with trace-derived sections
    available when the store carries an {!Natix_obs.Obs.t} handle
    (proxy-chain quantiles, split-decision tallies,
    checksum-failure/read-retry counters, and the page-heat breakdown by
    (document, phase)).

    {!run} probes every document with a clustering walk — under a
    [(doc, "doctor")] context when instrumented — so the trace-derived
    sections are populated even on a freshly opened store.  Everything
    is keyed on sorted names and the simulated clock: the same store
    contents and workload produce a byte-identical report. *)

(** [run ?top_pages store] renders the report; [top_pages] (default 5)
    bounds each heat row's hottest-pages list.  Read-only: probing fixes
    pages but writes nothing. *)
val run : ?top_pages:int -> Natix_core.Tree_store.t -> string
