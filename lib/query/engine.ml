open Natix_core

type t = { store : Tree_store.t; index : Element_index.t option }

let create ?index store = { store; index }
let of_manager dm = { store = Document_manager.store dm; index = Document_manager.index dm }
let store t = t.store
let index t = t.index

let parse path =
  match Ast.parse path with
  | ast -> Ok ast
  | exception Ast.Parse_error msg -> Error (Error.Query msg)

let root_of t doc =
  match Cursor.of_document t.store doc with
  | Some root -> Ok root
  | None -> Error (Error.Storage (Printf.sprintf "no document %S" doc))

let plan_ast t ~doc ast = Plan.build t.store ?index:t.index ~doc ast

let plan t ~doc path =
  match (parse path, root_of t doc) with
  | Error e, _ | _, Error e -> Error e
  | Ok ast, Ok _ -> Ok (plan_ast t ~doc ast)

(* Scan plans are forced while the pool is in scan mode: with a lazy
   result the scan would otherwise run (and pollute the pool) after
   [with_scan] returned.  Materialising cursors is cheap — they are
   handles, not copies. *)
let run_plan t (plan : Plan.t) root =
  let seq = Exec.eval t.store ?index:t.index plan root in
  if plan.Plan.scan then
    let pool = Tree_store.buffer_pool t.store in
    Natix_store.Buffer_pool.with_scan pool (fun () -> List.to_seq (List.of_seq seq))
  else seq

let query t ~doc path =
  match (parse path, root_of t doc) with
  | Error e, _ | _, Error e -> Error e
  | Ok ast, Ok root -> (
    (* Scan plans are forced inside [run_plan], so a failure raised from
       the pipeline surfaces here; lazy plans raise at consumption. *)
    match run_plan t (plan_ast t ~doc ast) root with
    | seq -> Ok seq
    | exception Error.Error e -> Error e)

let query_naive t ~doc path =
  match (parse path, root_of t doc) with
  | Error e, _ | _, Error e -> Error e
  | Ok ast, Ok root -> Ok (List.to_seq (Exec.eval_naive ast root))

let explain t ~doc path =
  match plan t ~doc path with
  | Error e -> Error e
  | Ok plan -> Ok (Plan.to_string plan)

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                     *)

type op_report = {
  step : Plan.phys_step;
  rows : int;
  reads : int;
  sim_ms : float;
  fixes : int;
  hits : int;
  proxy_hops : int;
}

type analysis = {
  plan : Plan.t;
  ops : op_report list;
  setup_reads : int;
  setup_ms : float;
  total_reads : int;
  total_ms : float;
  total_fixes : int;
  total_hits : int;
  total_proxy_hops : int;
  rows : int;
}

(* Self figures from the cumulative accumulators: operator [i] minus
   operator [i-1] (see [Exec.eval_instrumented]); what the overall delta
   saw beyond the last operator is the setup cost (root fetch). *)
let reports_of_accs steps (accs : Exec.op_acc list) =
  let zero = Exec.fresh_acc () in
  let rec go prev steps accs =
    match (steps, accs) with
    | [], [] -> []
    | step :: steps, (acc : Exec.op_acc) :: accs ->
      {
        step;
        rows = acc.rows;
        reads = acc.reads - prev.Exec.reads;
        sim_ms = acc.sim_ms -. prev.Exec.sim_ms;
        fixes = acc.fixes - prev.Exec.fixes;
        hits = acc.hits - prev.Exec.hits;
        proxy_hops = acc.proxy_hops - prev.Exec.proxy_hops;
      }
      :: go acc steps accs
    | _ -> invalid_arg "Natix_query.Engine: step/accumulator mismatch"
  in
  go zero steps accs

let analyze_query t ~doc path =
  match parse path with
  | Error e -> Error e
  | Ok ast -> (
    (* Document validation happens inside [run], after the snapshot: a
       cold catalog fetch must land in the setup line, or the totals
       would not reconcile with the caller-visible Io_stats delta.
       Counters come from [Disk.active_stats], so inside a server
       worker's private stream the analysis reconciles with the
       request's stream delta, and outside any parallel region with the
       plain [Io_stats] delta as always. *)
    let pool = Tree_store.buffer_pool t.store in
    let disk = Natix_store.Buffer_pool.disk pool in
    let stats () = Natix_store.Disk.active_stats disk in
    let run () =
      (* Snapshot before the root fetch so the setup line covers it. *)
      let s0 = Natix_store.Io_stats.copy (stats ()) in
      let fixes0 = Natix_store.Buffer_pool.fixes pool in
      let misses0 = Natix_store.Buffer_pool.misses pool in
      let hops0 = Tree_store.proxy_hops () in
      match root_of t doc with
      | Error e -> Error e
      | Ok root ->
        let plan = plan_ast t ~doc ast in
        let seq, accs = Exec.eval_instrumented t.store ?index:t.index plan root in
        let force () = List.of_seq seq in
        let hits =
          if plan.Plan.scan then Natix_store.Buffer_pool.with_scan pool force else force ()
        in
        let rows = List.length hits in
        let delta = Natix_store.Io_stats.diff (Natix_store.Io_stats.copy (stats ())) s0 in
        let total_fixes = Natix_store.Buffer_pool.fixes pool - fixes0 in
        let total_misses = Natix_store.Buffer_pool.misses pool - misses0 in
        let ops = reports_of_accs plan.Plan.steps accs in
        let last =
          match List.rev accs with [] -> Exec.fresh_acc () | acc :: _ -> acc
        in
        (* Inside a traced request, the operator rows become spans of its
           innermost open span. *)
        (match Natix_trace.Trace.active () with
        | None -> ()
        | Some tr ->
          List.iteri
            (fun i (op : op_report) ->
              Natix_trace.Trace.io_child tr
                (Printf.sprintf "op%d.%s" (i + 1) (Ast.step_to_string op.step.Plan.step))
                ~io:{ Natix_trace.Trace.reads = op.reads; writes = 0; io_ms = op.sim_ms }
                ~dur_ms:op.sim_ms)
            ops);
        Ok
          ( hits,
            {
              plan;
              ops;
              setup_reads = delta.Natix_store.Io_stats.reads - last.Exec.reads;
              setup_ms = delta.Natix_store.Io_stats.sim_ms -. last.Exec.sim_ms;
              total_reads = delta.Natix_store.Io_stats.reads;
              total_ms = delta.Natix_store.Io_stats.sim_ms;
              total_fixes;
              total_hits = total_fixes - total_misses;
              total_proxy_hops = Tree_store.proxy_hops () - hops0;
              rows;
            } )
    in
    let in_context () =
      match Tree_store.obs t.store with
      | None -> run ()
      | Some o -> Natix_obs.Obs.with_context o ~doc ~phase:"query" run
    in
    match in_context () with
    | result -> result
    | exception Error.Error e -> Error e)

let analyze t ~doc path = Result.map snd (analyze_query t ~doc path)

let pp_analysis ppf a =
  Format.fprintf ppf "%a@\n" Plan.pp a.plan;
  Format.fprintf ppf "analyze (reads are physical pages; ms is simulated I/O time):";
  List.iteri
    (fun i (op : op_report) ->
      Format.fprintf ppf
        "@\n  %d. %-20s rows=%-6d reads=%d (est %.0f)  ms=%.2f  fixes=%d hits=%d proxy_hops=%d"
        (i + 1)
        (Ast.step_to_string op.step.Plan.step)
        op.rows op.reads op.step.Plan.est_reads op.sim_ms op.fixes op.hits op.proxy_hops)
    a.ops;
  Format.fprintf ppf "@\n  setup (root fetch):       reads=%d  ms=%.2f" a.setup_reads a.setup_ms;
  Format.fprintf ppf
    "@\n  total: rows=%d reads=%d ms=%.2f fixes=%d hits=%d (ratio %.2f) proxy_hops=%d" a.rows
    a.total_reads a.total_ms a.total_fixes a.total_hits
    (if a.total_fixes = 0 then 1. else float_of_int a.total_hits /. float_of_int a.total_fixes)
    a.total_proxy_hops

let analysis_to_string a = Format.asprintf "%a" pp_analysis a
