open Natix_core

(* Two evaluators over the same step semantics.  The naive one executes
   the AST literally over cursors with string name tests; the planned one
   runs the plan's compiled steps over stored nodes and builds a cursor
   only for a result.  The differential suite holds them to byte-identical
   output; they differ in evaluation strategy (lazy vs. strict), in how a
   leading descendant step finds its candidates (navigation vs. index),
   and in what a visited node costs. *)

(* ------------------------------------------------------------------ *)
(* The naive oracle: string tests over cursors                         *)

let matches test c =
  match test with
  | Ast.Name n -> Cursor.is_element c && String.equal (Cursor.name c) n
  | Ast.Attribute a -> (not (Cursor.is_element c)) && String.equal (Cursor.name c) ("@" ^ a)
  | Ast.Any -> Cursor.is_element c
  | Ast.Text -> Cursor.is_text c && not (Cursor.is_attribute c)
  | Ast.Node -> true

let base (step : Ast.step) c =
  match step.axis with
  | Ast.Child -> Cursor.children c
  | Ast.Descendant -> Seq.concat_map Cursor.descendants_or_self (Cursor.children c)

(* [text()='v']: the candidate has a direct text child equal to [v]. *)
let has_text_equal v c =
  Seq.exists
    (fun ch -> Cursor.is_text ch && (not (Cursor.is_attribute ch)) && String.equal (Cursor.text ch) v)
    (Cursor.children c)

(* ------------------------------------------------------------------ *)
(* Compiled steps over stored nodes                                    *)

let test_node store (test : Plan.test) (n : Phys_node.t) =
  match test with
  | Plan.Element l -> Natix_util.Label.equal n.Phys_node.label l && Tree_store.is_element n
  | Plan.Attribute l -> Natix_util.Label.equal n.Phys_node.label l && not (Tree_store.is_element n)
  | Plan.Any -> Tree_store.is_element n
  | Plan.Text -> Tree_store.is_literal n && not (Tree_store.is_attribute store n)
  | Plan.Node -> true
  | Plan.Nothing -> false

(* [has_text_equal] over logical children, without cursors. *)
let has_text_child store v n =
  Seq.exists
    (fun ch ->
      Tree_store.is_literal ch
      && (not (Tree_store.is_attribute store ch))
      && String.equal (Tree_store.text_of store ch) v)
    (Tree_store.logical_children store n)

(* The k-th element of a sequence, as a (lazy) zero-or-one sequence: the
   streaming evaluator stops pulling candidates once position [k] is
   reached, which is where it beats strict evaluation on positional
   queries like //ACT[3]. *)
let position k seq () =
  let rec go k seq =
    match seq () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) -> if k = 1 then Seq.Cons (x, Seq.empty) else go (k - 1) rest
  in
  go k seq

let apply_pred store seq = function
  | Ast.Position k -> position k seq
  | Ast.Text_equals v -> Seq.filter (has_text_child store v) seq

(* One navigation step from one context node, lazily.  A step that can
   match nothing reads nothing. *)
let step_nav store (ps : Plan.phys_step) n =
  let candidates =
    match (ps.test, ps.step.axis) with
    | Plan.Nothing, _ -> Seq.empty
    | test, Ast.Child -> Seq.filter (test_node store test) (Tree_store.logical_children store n)
    | test, Ast.Descendant -> Tree_store.descendants store (test_node store test) n
  in
  List.fold_left (apply_pred store) candidates ps.step.preds

(* ------------------------------------------------------------------ *)
(* Index seeding                                                       *)

(* Identity of stored nodes is physical: [Tree_store.fetch] memoises
   decoded records, so while the store's node cache is warm the same
   stored node is the same OCaml value whether it was reached by
   navigation or through the element index.  (Structural equality is not
   an option — physical nodes carry parent back-pointers.) *)

(* Identity-keyed node table.  [Hashtbl.hash] is depth-bounded, so it
   terminates on the cyclic parent links; equality must be physical. *)
module Node_tbl = Hashtbl.Make (struct
  type t = Phys_node.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Child indexes, memoised per parent: hits under the same wide parent
   share one children traversal instead of one linear scan each (which
   would be quadratic for //X over flat documents). *)
let index_of_child store memo p n =
  let tbl =
    match Node_tbl.find_opt memo p with
    | Some tbl -> tbl
    | None ->
      let tbl = Node_tbl.create 16 in
      Seq.iteri (fun i c -> Node_tbl.replace tbl c i) (Tree_store.logical_children store p);
      Node_tbl.replace memo p tbl;
      tbl
  in
  match Node_tbl.find_opt tbl n with
  | Some i -> i
  | None ->
    Error.raise_error
      (Error.Storage "query: node not among its parent's children (stale node cache?)")

(* Document-order key of [node]: the child-index path from [root] down to
   it, obtained by climbing parents.  [None] when [node] is the root
   itself or belongs to a different document — the index is store-wide,
   the query is not. *)
let order_key store memo ~root node =
  let rec climb n acc =
    match Tree_store.logical_parent store n with
    | None -> if n == root then Some acc else None
    | Some p -> climb p (index_of_child store memo p n :: acc)
  in
  if node == root then None else climb node []

(* A leading //NAME step answered from the element index: fetch the
   posting records the planner read, keep this document's nodes, and sort
   them into document order so downstream steps and the differential
   tests cannot tell the two access paths apart. *)
let step_index store idx (ps : Plan.phys_step) ~label ~records root =
  let memo = Node_tbl.create 64 in
  let keyed =
    List.filter_map
      (fun n -> match order_key store memo ~root n with Some k -> Some (k, n) | None -> None)
      (Element_index.scan_records idx label records)
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare (a : int list) b) keyed in
  let seq = Seq.filter (test_node store ps.test) (Seq.map snd (List.to_seq sorted)) in
  List.fold_left (apply_pred store) seq ps.step.preds

(* ------------------------------------------------------------------ *)
(* Evaluators                                                          *)

(* Each plan step as a function from a context node to its results. *)
let stages store ?index (plan : Plan.t) =
  List.map
    (fun (ps : Plan.phys_step) ->
      match ps.access with
      | Plan.Nav -> step_nav store ps
      | Plan.Index_seed { label; records } ->
        let idx =
          match index with
          | Some idx -> idx
          | None -> invalid_arg "Natix_query: plan uses the index but none was given"
        in
        (* Index seeding is only planned for the first step, where the
           context is the root singleton. *)
        step_index store idx ps ~label ~records)
    plan.Plan.steps

(* Results become cursors only here, one per hit. *)
let cursors store root wrap stages =
  let nodes =
    List.fold_left
      (fun ctxs stage -> wrap (Seq.concat_map stage ctxs))
      (Seq.return (Cursor.node root))
      stages
  in
  Seq.map (Cursor.of_node store) nodes

(* Streaming planned evaluation: a lazy pipeline over the plan's compiled
   steps.  Page accesses happen as the consumer pulls results. *)
let eval store ?index plan root = cursors store root Fun.id (stages store ?index plan)

(* ------------------------------------------------------------------ *)
(* Instrumented evaluation (EXPLAIN ANALYZE)                           *)

type op_acc = {
  mutable rows : int;
  mutable reads : int;
  mutable sim_ms : float;
  mutable fixes : int;
  mutable hits : int;
  mutable proxy_hops : int;
}

type probe = unit -> op_acc

let fresh_acc () = { rows = 0; reads = 0; sim_ms = 0.; fixes = 0; hits = 0; proxy_hops = 0 }

let store_probe store : probe =
  let pool = Tree_store.buffer_pool store in
  let disk = Natix_store.Buffer_pool.disk pool in
  fun () ->
    (* [active_stats] resolves per call: on a worker inside a parallel
       region it is the domain's private stream (so per-operator figures
       reconcile with the request's stream delta); outside any region it
       is the default accumulator, exactly as before. *)
    let stats = Natix_store.Disk.active_stats disk in
    let fixes = Natix_store.Buffer_pool.fixes pool in
    let misses = Natix_store.Buffer_pool.misses pool in
    {
      rows = 0;
      reads = stats.Natix_store.Io_stats.reads;
      sim_ms = stats.Natix_store.Io_stats.sim_ms;
      fixes;
      hits = fixes - misses;
      proxy_hops = Tree_store.proxy_hops ();
    }

(* Charge the counter movement across one pull to [acc].  Pulls nest —
   operator [i]'s pull runs operator [i-1]'s pull inside — so each
   accumulator ends up cumulative over its upstream; the reporter
   recovers self figures by differencing adjacent operators. *)
let instrument probe acc seq =
  let rec wrap seq () =
    let before = probe () in
    let node = seq () in
    let after = probe () in
    acc.reads <- acc.reads + (after.reads - before.reads);
    acc.sim_ms <- acc.sim_ms +. (after.sim_ms -. before.sim_ms);
    acc.fixes <- acc.fixes + (after.fixes - before.fixes);
    acc.hits <- acc.hits + (after.hits - before.hits);
    acc.proxy_hops <- acc.proxy_hops + (after.proxy_hops - before.proxy_hops);
    match node with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) ->
      acc.rows <- acc.rows + 1;
      Seq.Cons (x, wrap rest)
  in
  wrap seq

(* [eval]'s compiled steps with a measuring wrapper between every pair of
   adjacent operators; same results, same access paths, same laziness. *)
let eval_instrumented store ?index plan root =
  let probe = store_probe store in
  let rev_accs = ref [] in
  let wrap stage =
    let acc = fresh_acc () in
    rev_accs := acc :: !rev_accs;
    instrument probe acc stage
  in
  let seq = cursors store root wrap (stages store ?index plan) in
  (seq, List.rev !rev_accs)

(* The naive baseline: cursor navigation only, strict — every step
   materialises all its candidates before predicates apply (the semantics
   spelled out in the AST's documentation, executed literally).  The
   differential suite holds the planned evaluator to byte-identical
   output. *)
let eval_naive (path : Ast.t) root =
  List.fold_left
    (fun nodes (step : Ast.step) ->
      List.concat_map
        (fun c ->
          let hits = List.of_seq (Seq.filter (matches step.test) (base step c)) in
          List.fold_left
            (fun nodes -> function
              | Ast.Position k -> (
                match List.nth_opt nodes (k - 1) with Some x -> [ x ] | None -> [])
              | Ast.Text_equals v -> List.filter (has_text_equal v) nodes)
            hits step.preds)
        nodes)
    [ root ] path
