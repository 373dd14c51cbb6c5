(** Query evaluation.

    Two evaluators over the same step semantics:

    - {!eval}: the streaming planned evaluator — a lazy [Seq.t] pipeline
      following a {!Plan.t}'s compiled steps.  Each step yields only the
      stored nodes that pass its label test (a descendant step is a
      preorder walk over {!Tree_store.logical_children}), and a cursor is
      built only for a result.  Positional predicates stop pulling
      candidates at their position (so [//ACT[3]] stops walking after the
      third ACT), and steps planned as [Index_seed] fetch the posting
      records the planner read, sorted into document order.
    - {!eval_naive}: the naive baseline — cursor navigation with string
      name tests, strict per-step materialisation (every descendant step
      walks its whole subtree).  This is the reference the differential
      tests compare against.

    Both produce results in document order; on the same store they return
    byte-identical result sets. *)

open Natix_core

(** [eval store plan root] evaluates the plan from the context [root]
    (normally the document root the plan was built for).  [index] must be
    given when {!Plan.uses_index}.  Page accesses happen lazily as the
    sequence is consumed; storage-level inconsistencies detected mid-pull
    raise {!Natix_core.Error.Error} (the engine's entry points catch it
    where the sequence is forced). *)
val eval : Tree_store.t -> ?index:Element_index.t -> Plan.t -> Cursor.t -> Cursor.t Seq.t

(** [eval_naive path root] evaluates the parsed path strictly by pure
    cursor navigation. *)
val eval_naive : Ast.t -> Cursor.t -> Cursor.t list

(** {2 Instrumented evaluation}

    Per-operator measurement for EXPLAIN ANALYZE.  Every figure is taken
    from live engine counters (the disk's {!Natix_store.Io_stats}, the
    buffer pool's fix/miss totals, the domain's
    {!Tree_store.proxy_hops}), snapshotted around each pull of
    each operator's output. *)

type op_acc = {
  mutable rows : int;  (** results this operator yielded *)
  mutable reads : int;  (** physical page reads during its pulls *)
  mutable sim_ms : float;  (** simulated I/O milliseconds during its pulls *)
  mutable fixes : int;  (** buffer-pool fixes during its pulls *)
  mutable hits : int;  (** fixes served without a read *)
  mutable proxy_hops : int;  (** proxy dereferences *)
}

(** A zeroed accumulator (the differencing base for the first operator). *)
val fresh_acc : unit -> op_acc

(** [eval_instrumented store plan root] evaluates {!eval}'s compiled
    steps but returns one accumulator per plan step alongside the
    sequence.
    Accumulators fill as the sequence is consumed.  Because operator
    pulls nest, each accumulator is {e cumulative} over its upstream
    operators: operator [i]'s self cost is [acc.(i) - acc.(i-1)], and
    whatever the overall measurement saw beyond the last accumulator was
    spent outside the pipeline (root fetch, planning probes). *)
val eval_instrumented :
  Tree_store.t -> ?index:Element_index.t -> Plan.t -> Cursor.t -> Cursor.t Seq.t * op_acc list

(** [matches test c] — the naive evaluator's string name test, the
    semantics the compiled label tests must agree with (exposed for
    tests). *)
val matches : Ast.test -> Cursor.t -> bool
