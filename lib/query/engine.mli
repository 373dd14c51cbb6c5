(** The query engine's front door.

    Bundles a store with its optional element index and exposes parse →
    plan → evaluate as single calls.  All entry points return typed
    {!Natix_core.Error.t} failures ([Query] for syntax, [Storage] for an
    unknown document) instead of raising.

    Results are lazy cursor sequences in document order; consuming them
    performs the page accesses.  Plans classified as scans (see {!Plan})
    are evaluated with the buffer pool in scan mode, so a scan-resistant
    pool keeps them on probation instead of evicting the working set. *)

open Natix_core

type t

(** [create ?index store] — an engine over [store]; [index] enables
    index-seeded plans. *)
val create : ?index:Element_index.t -> Tree_store.t -> t

(** An engine sharing a document manager's store and index. *)
val of_manager : Document_manager.t -> t

val store : t -> Tree_store.t
val index : t -> Element_index.t option

(** Parse a path ([Error (Query _)] on bad syntax). *)
val parse : string -> (Ast.t, Error.t) result

(** Plan a path against a document without evaluating it. *)
val plan : t -> doc:string -> string -> (Plan.t, Error.t) result

(** Planned, streaming evaluation against one document. *)
val query : t -> doc:string -> string -> (Cursor.t Seq.t, Error.t) result

(** The naive baseline: strict, navigation-only evaluation of the same
    path (same results, different access pattern). *)
val query_naive : t -> doc:string -> string -> (Cursor.t Seq.t, Error.t) result

(** The plan, rendered (access method and rationale per step). *)
val explain : t -> doc:string -> string -> (string, Error.t) result

(** {2 EXPLAIN ANALYZE}

    {!analyze} runs the planned query to completion while measuring each
    operator against live engine counters, then reconciles: the per-step
    self figures plus the setup line add up {e exactly} to the overall
    {!Natix_store.Io_stats} delta observed across the run (the
    differential tests hold it to that). *)

type op_report = {
  step : Plan.phys_step;
  rows : int;  (** results this operator yielded *)
  reads : int;  (** physical page reads attributable to this operator *)
  sim_ms : float;  (** simulated I/O milliseconds, ditto *)
  fixes : int;
  hits : int;
  proxy_hops : int;
}

type analysis = {
  plan : Plan.t;
  ops : op_report list;  (** one per plan step, in plan order *)
  setup_reads : int;  (** reads outside the pipeline (root fetch) *)
  setup_ms : float;
  total_reads : int;  (** [setup_reads + sum reads] — the Io_stats delta *)
  total_ms : float;
  total_fixes : int;
  total_hits : int;
  total_proxy_hops : int;
  rows : int;
}

(** Run the query strictly (scan plans inside the pool's scan mode, like
    {!query}) and report per-operator estimated vs actual cost.  Inside a
    traced request ({!Natix_trace.Trace.active}) each operator row is
    attached to the innermost open span as an ["op<i>.<step>"] child
    carrying the row's reads and simulated milliseconds.  When the store
    has an obs handle, events emitted during the run carry a
    [(doc, "query")] context.

    Counters come from {!Natix_store.Disk.active_stats}, so on a domain
    inside a parallel region the analysis reconciles with that domain's
    private stream delta; elsewhere it reconciles with the plain
    [Io_stats] delta, as the differential tests assert. *)
val analyze : t -> doc:string -> string -> (analysis, Error.t) result

(** {!analyze}, also returning the materialised result cursors — one
    execution serves both the reply and the report.  This is what the
    server's traced query path uses: hits for the [Hits] response, the
    analysis for the slow-request log. *)
val analyze_query :
  t -> doc:string -> string -> (Natix_core.Cursor.t list * analysis, Error.t) result

val pp_analysis : Format.formatter -> analysis -> unit
val analysis_to_string : analysis -> string
