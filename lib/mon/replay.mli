(** Deterministic replay of captured query workloads.

    {!capture} runs a batch of query tasks from a {e cold} store (buffers
    cleared, I/O counters zeroed) through {!Natix_par.Par.run_queries}
    and produces a dump: per-op result digests plus whole-capture I/O
    totals in the {!Recorder.meta} line.  {!run} re-executes the query
    ops of a dump the same way and checks, per op, that outcome, row
    count and result digest are byte-identical, and — when the dump was
    captured cold and contains only query ops — that the replay's
    [reads]/[writes]/[total_ios] equal the captured totals {e exactly}.
    The totals check is exact even at [jobs > 1]: those counters are
    schedule-independent (see {!Natix_par.Par}).  [sim_ms] is reported
    but never asserted — it legitimately varies with the job count.

    Dumps written from the session flight ring ([natix mon dump], or the
    automatic dump on a typed-error exit) have [cold = false]; replaying
    them still verifies result digests, only the totals assertion is
    skipped. *)

(** MD5 hex over the rendered hits, one per line — the digest stored in
    and compared against dump records. *)
val digest_hits : string list -> string

(** Short class tag for an error outcome (["parse"], ["validation"],
    ["dtd"], ["query"], ["storage"]). *)
val error_class : Natix_core.Error.t -> string

(** [capture ?jobs ?store_path store tasks] — cold-runs [(doc, path)]
    query tasks and returns the dump contents.  Per-op [reads]/[writes]
    come from the executor's per-task deltas ([Par.task_io]) and are
    schedule-dependent at [jobs >= 2] — informational only; the meta
    line carries the schedule-independent whole-capture totals, which
    are what {!run} asserts. *)
val capture :
  ?jobs:int ->
  ?store_path:string ->
  Natix_core.Tree_store.t ->
  (string * string) list ->
  Recorder.meta * Recorder.op list

type mismatch = {
  seq : int;
  doc : string option;
  detail : string;
  expected : string;  (** captured outcome/digest/rows rendering *)
  got : string;
}

type report = {
  replayed : int;  (** query ops re-executed *)
  skipped : int;  (** non-query ops (not replayable: they mutate) *)
  mismatches : mismatch list;
  io_checked : bool;  (** totals assertion applied (cold, all-query dump) *)
  io_ok : bool;  (** [true] when the check was skipped *)
  captured_io : int * int * int;  (** reads, writes, total_ios *)
  replayed_io : int * int * int;
  captured_sim_ms : float;
  replayed_sim_ms : float;
}

val ok : report -> bool

(** [run ?jobs store meta ops] replays against an already-open store,
    through the same cold {!Natix_par.Par.run_queries} path as
    {!capture}.  [jobs] defaults to the dump's job count. *)
val run : ?jobs:int -> Natix_core.Tree_store.t -> Recorder.meta -> Recorder.op list -> report
