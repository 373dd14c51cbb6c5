module Io_stats = Natix_store.Io_stats

let digest_hits hits = Digest.to_hex (Digest.string (String.concat "\n" hits))

let error_class (e : Natix_core.Error.t) =
  match e with
  | Parse _ -> "parse"
  | Validation _ -> "validation"
  | Dtd _ -> "dtd"
  | Query _ -> "query"
  | Storage _ -> "storage"

(* One op record out of one task result.  [d] is the task's own I/O
   delta as measured by the executor; per-task read counts are
   schedule-dependent at jobs >= 2, so they are recorded for inspection
   but the comparison ({!render_outcome}) never looks at them — the
   meta totals carry the schedule-independent figures. *)
let op_of_result at_ms (doc, path) (result, (d : Io_stats.t)) : Recorder.op =
  let outcome, digest, rows =
    match result with
    | Ok hits -> ("ok", Some (digest_hits hits), Some (List.length hits))
    | Error e -> ("error:" ^ error_class e, None, None)
  in
  {
    Recorder.seq = 0;
    at_ms;
    kind = "query";
    doc = Some doc;
    detail = path;
    plan = None;
    reads = d.Io_stats.reads;
    writes = d.Io_stats.writes;
    sim_ms = d.Io_stats.sim_ms;
    outcome;
    digest;
    rows;
  }

let cold_run ~jobs store tasks =
  Natix_core.Tree_store.clear_buffers store;
  Natix_core.Tree_store.reset_io_stats store;
  let outcome = Natix_par.Par.run_queries ~jobs store tasks in
  let io = Io_stats.copy (Natix_core.Tree_store.io_stats store) in
  (List.combine outcome.Natix_par.Par.results outcome.Natix_par.Par.task_io, io)

let capture ?(jobs = 1) ?store_path store tasks =
  let results, io = cold_run ~jobs store tasks in
  let at_ms = io.Io_stats.sim_ms in
  let ops = List.map2 (op_of_result at_ms) tasks results in
  let meta =
    {
      Recorder.version = 1;
      store = store_path;
      jobs;
      cold = true;
      reads = io.Io_stats.reads;
      writes = io.Io_stats.writes;
      total_ios = Io_stats.total_ios io;
      sim_ms = io.Io_stats.sim_ms;
      trace_id = None;
    }
  in
  (meta, ops)

type mismatch = { seq : int; doc : string option; detail : string; expected : string; got : string }

type report = {
  replayed : int;
  skipped : int;
  mismatches : mismatch list;
  io_checked : bool;
  io_ok : bool;
  captured_io : int * int * int;
  replayed_io : int * int * int;
  captured_sim_ms : float;
  replayed_sim_ms : float;
}

let ok r = r.mismatches = [] && r.io_ok

let render_outcome (op : Recorder.op) =
  match (op.outcome, op.digest, op.rows) with
  | "ok", Some d, Some n -> Printf.sprintf "ok rows=%d digest=%s" n d
  | outcome, _, _ -> outcome

let run ?jobs store (meta : Recorder.meta) ops =
  let jobs = Option.value jobs ~default:meta.Recorder.jobs in
  let queries, others = List.partition (fun (o : Recorder.op) -> o.kind = "query") ops in
  let tasks =
    List.map
      (fun (o : Recorder.op) -> (Option.value o.Recorder.doc ~default:"", o.Recorder.detail))
      queries
  in
  let results, io = cold_run ~jobs store tasks in
  let mismatches =
    List.map2
      (fun (o : Recorder.op) result ->
        let got = op_of_result 0. (Option.value o.doc ~default:"", o.detail) result in
        let expected_s = render_outcome o and got_s = render_outcome got in
        if expected_s = got_s then None
        else Some { seq = o.seq; doc = o.doc; detail = o.detail; expected = expected_s; got = got_s })
      queries results
    |> List.filter_map Fun.id
  in
  let io_checked = meta.Recorder.cold && others = [] in
  let captured_io = (meta.Recorder.reads, meta.Recorder.writes, meta.Recorder.total_ios) in
  let replayed_io = (io.Io_stats.reads, io.Io_stats.writes, Io_stats.total_ios io) in
  {
    replayed = List.length queries;
    skipped = List.length others;
    mismatches;
    io_checked;
    io_ok = (not io_checked) || captured_io = replayed_io;
    captured_io;
    replayed_io;
    captured_sim_ms = meta.Recorder.sim_ms;
    replayed_sim_ms = io.Io_stats.sim_ms;
  }
