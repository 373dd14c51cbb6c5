open Natix_store
open Natix_core

type test =
  | Element of Natix_util.Label.t
  | Attribute of Natix_util.Label.t
  | Any
  | Text
  | Node
  | Nothing

type access = Nav | Index_seed of { label : Natix_util.Label.t; records : Natix_util.Rid.t list }

type phys_step = {
  step : Ast.step;
  test : test;
  access : access;
  note : string;
  est_reads : float;
}

type t = { doc : string; path : Ast.t; steps : phys_step list; scan : bool }

(* A descendant step with one of these tests visits (nearly) every node of
   the context subtree and keeps most of them: evaluating it is a scan, not
   a lookup, so the whole plan runs with the buffer pool in scan mode. *)
let unselective = function
  | Ast.Node | Ast.Any | Ast.Text -> true
  | Ast.Name _ | Ast.Attribute _ -> false

(* Names resolve through the store's pool once per plan.  Labels and
   names are one-to-one, so comparing labels answers the name test. *)
let compile_test store (test : Ast.test) =
  let label name = Natix_util.Name_pool.find (Tree_store.names store) name in
  match test with
  | Ast.Name n -> Option.fold ~none:Nothing ~some:(fun l -> Element l) (label n)
  | Ast.Attribute a -> Option.fold ~none:Nothing ~some:(fun l -> Attribute l) (label ("@" ^ a))
  | Ast.Any -> Any
  | Ast.Text -> Text
  | Ast.Node -> Node

let build store ?index ~doc path =
  let pool = Tree_store.buffer_pool store in
  let disk = Buffer_pool.disk pool in
  let model = Disk.model disk in
  let page_size = Disk.page_size disk in
  let random_ms = Io_model.cost model ~page_size ~sequential:false in
  (* Pages the document occupies: the catalog hint recorded at load time
     when available (a store-wide average misprices skewed stores), the
     average otherwise. *)
  let doc_pages =
    match Stats.page_hint store doc with
    | Some p -> max 1 p
    | None ->
      let ndocs = max 1 (List.length (Tree_store.list_documents store)) in
      max 1 (Disk.page_count disk / ndocs)
  in
  (* Cost of answering a descendant step from the document root by
     navigation: the walk touches every page the document occupies.  On a
     read-ahead pool a mostly-contiguous walk is served by batched
     sequential runs, so it is charged as one run ({!Io_model.run_cost});
     without read-ahead every page access is random. *)
  let nav_ms =
    if Buffer_pool.read_ahead pool > 0 then Io_model.run_cost model ~page_size ~pages:doc_pages
    else float_of_int doc_pages *. random_ms
  in
  (* Estimated physical page reads per step, the planner's own currency
     translated back into pages so EXPLAIN ANALYZE can show estimate vs
     actual.  Only first-step access is priced (later steps are assumed to
     hit already-faulted pages — exactly the simplification [--analyze]
     exposes when it is wrong). *)
  let nav_est = float_of_int doc_pages in
  let steps =
    List.mapi
      (fun i (step : Ast.step) ->
        let first_nav_est =
          if i = 0 && step.Ast.axis = Ast.Descendant then nav_est else 0.
        in
        let test = compile_test store step.test in
        match (i, step.axis, test, index) with
        | _, _, Nothing, _ ->
          { step; test; access = Nav; note = "name not in store; no match"; est_reads = 0. }
        | 0, Ast.Descendant, Element label, Some idx ->
          let count, records = Element_index.lookup idx label in
          let nrecs = List.length records in
          (* Index seeding fetches each posting record (random reads,
             store-wide) and climbs every hit's ancestors to establish
             document order; the climbs mostly hit records the postings
             already faulted in, so they are charged at a fraction of a
             random access. *)
          let index_reads = float_of_int nrecs +. (0.25 *. float_of_int count) in
          let index_ms = index_reads *. random_ms in
          if index_ms < nav_ms then
            {
              step;
              test;
              access = Index_seed { label; records };
              note =
                Printf.sprintf "index seed: %d recs / %d nodes ~%.0fms < nav ~%.0fms" nrecs count
                  index_ms nav_ms;
              est_reads = index_reads;
            }
          else
            {
              step;
              test;
              access = Nav;
              note =
                Printf.sprintf "nav: index %d recs / %d nodes ~%.0fms >= nav ~%.0fms" nrecs count
                  index_ms nav_ms;
              est_reads = first_nav_est;
            }
        | 0, Ast.Descendant, Element _, None ->
          { step; test; access = Nav; note = "no index; nav"; est_reads = first_nav_est }
        | _ -> { step; test; access = Nav; note = "nav"; est_reads = first_nav_est })
      path
  in
  let scan =
    List.exists (fun ps -> ps.step.Ast.axis = Ast.Descendant && unselective ps.step.Ast.test) steps
  in
  { doc; path; steps; scan }

let uses_index t =
  List.exists (fun ps -> match ps.access with Index_seed _ -> true | Nav -> false) t.steps

let pp ppf t =
  Format.fprintf ppf "plan %s on %S (scan mode %s)" (Ast.to_string t.path) t.doc
    (if t.scan then "on" else "off");
  List.iteri
    (fun i ps ->
      Format.fprintf ppf "@\n  %d. %-20s %-10s %s" (i + 1) (Ast.step_to_string ps.step)
        (match ps.access with Nav -> "nav" | Index_seed _ -> "index-seed")
        ps.note)
    t.steps

let to_string t = Format.asprintf "%a" pp t
