open Natix_obs

type kind = Regression | Improvement | Change | Mismatch

type verdict = { path : string; kind : kind; detail : string }

type report = {
  threshold_pct : float;
  compared : int;
  verdicts : verdict list;
  regressions : int;
  mismatches : int;
}

let ok r = r.regressions = 0 && r.mismatches = 0

let kind_name = function
  | Regression -> "regression"
  | Improvement -> "improvement"
  | Change -> "change"
  | Mismatch -> "mismatch"

let has_suffix s suf =
  let ls = String.length s and lsuf = String.length suf in
  ls >= lsuf && String.sub s (ls - lsuf) lsuf = suf

(* What a numeric leaf means is decided by its key name — the bench
   report uses the same vocabulary everywhere (reads, sim_ms, hit_ratio,
   ...).  [`Lower]/[`Higher] carry an absolute floor: a delta must clear
   both the relative threshold and the floor to count, so a 3-page figure
   moving to 4 does not fail a 10% gate. *)
let classify key =
  if has_suffix key "_wall_s" then `Skip (* wall time: not deterministic *)
  else if has_suffix key "_commits_per_s" then `Skip (* wall-derived: not deterministic *)
  else if has_suffix key "hit_ratio" then `Higher 0.01
  else if key = "sim_ms" || has_suffix key "_ms" then `Lower 1.0
  else if key = "reads" || key = "writes" || key = "disk_bytes" then `Lower 1.0
  else if List.mem key [ "hits"; "plays"; "nodes"; "bytes"; "scale"; "page_size" ] then `Exact
  else `Info

(* The paper's figures ([cells]), the instrumented build's event counts
   and histograms ([instrumented]) and the query bench's I/O objects are
   simulated and deterministic for a fixed build and input, at any job
   count and with an obs handle or tracing on, so a tolerance would only
   hide drift: every numeric leaf there must be equal, wall time aside.
   [top] is the top-level key the subtree hangs under. *)
let exact_subtree ~top key =
  top = "cells" || top = "instrumented" || (top = "query_bench" && has_suffix key "_io")
let classify_cell key = if has_suffix key "_wall_s" then `Skip else `Exact

let num = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let fmt_num v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%g" v

let rel_pct oldv newv =
  if oldv = 0. then if newv = 0. then 0. else Float.infinity
  else (newv -. oldv) /. Float.abs oldv *. 100.

let diff ?(threshold_pct = 10.) ~baseline ~current () =
  let verdicts = ref [] in
  let compared = ref 0 in
  let add path kind detail = verdicts := { path; kind; detail } :: !verdicts in
  let numeric path cls oldv newv =
    incr compared;
    if oldv = newv then ()
    else begin
      let pct = rel_pct oldv newv in
      let detail =
        Printf.sprintf "%s -> %s (%+.1f%%)" (fmt_num oldv) (fmt_num newv) pct
      in
      match cls with
      | `Skip -> ()
      | `Exact -> add path Mismatch detail
      | `Info -> add path Change detail
      | `Lower floor | `Higher floor ->
        (* Flip the sign so "worse" is always positive. *)
        let worse = match cls with `Lower _ -> pct | _ -> -.pct in
        if worse > threshold_pct && Float.abs (newv -. oldv) > floor then
          add path Regression detail
        else if worse < -.threshold_pct && Float.abs (newv -. oldv) > floor then
          add path Improvement detail
        else add path Change detail
    end
  in
  let rec walk ~top ~exact path cls base cur =
    match (base, cur) with
    | Json.Obj bfields, Json.Obj cfields ->
      List.iter
        (fun (k, bv) ->
          let sub = if path = "" then k else path ^ "." ^ k in
          let top = if path = "" then k else top in
          let exact = exact || exact_subtree ~top k in
          match List.assoc_opt k cfields with
          | Some cv -> walk ~top ~exact sub (if exact then classify_cell k else classify k) bv cv
          | None -> add sub Mismatch "missing in current")
        bfields;
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k bfields) then
            add (if path = "" then k else path ^ "." ^ k) Change "added in current")
        cfields
    | Json.List bs, Json.List cs ->
      if List.length bs <> List.length cs then
        add path Mismatch
          (Printf.sprintf "array length %d -> %d" (List.length bs) (List.length cs))
      else
        List.iteri
          (fun i (bv, cv) -> walk ~top ~exact (Printf.sprintf "%s[%d]" path i) cls bv cv)
          (List.combine bs cs)
    | _ when cls = `Skip -> ()
    | b, c -> (
      match (num b, num c) with
      | Some bn, Some cn -> numeric path cls bn cn
      | _ -> (
        incr compared;
        match (b, c) with
        | Json.String s1, Json.String s2 ->
          if not (String.equal s1 s2) then
            add path Mismatch (Printf.sprintf "%S -> %S" s1 s2)
        | Json.Bool b1, Json.Bool b2 ->
          if b1 <> b2 then add path Mismatch (Printf.sprintf "%b -> %b" b1 b2)
        | Json.Null, Json.Null -> ()
        | _ -> add path Mismatch "type changed"))
  in
  walk ~top:"" ~exact:false "" `Info baseline current;
  let verdicts = List.rev !verdicts in
  let count k = List.length (List.filter (fun v -> v.kind = k) verdicts) in
  {
    threshold_pct;
    compared = !compared;
    verdicts;
    regressions = count Regression;
    mismatches = count Mismatch;
  }

let to_json r =
  Json.Obj
    [
      ("ok", Json.Bool (ok r));
      ("threshold_pct", Json.Float r.threshold_pct);
      ("compared", Json.Int r.compared);
      ("regressions", Json.Int r.regressions);
      ("mismatches", Json.Int r.mismatches);
      ( "verdicts",
        Json.List
          (List.map
             (fun v ->
               Json.Obj
                 [
                   ("path", Json.String v.path);
                   ("kind", Json.String (kind_name v.kind));
                   ("detail", Json.String v.detail);
                 ])
             r.verdicts) );
    ]

let pp ppf r =
  Format.fprintf ppf "@[<v>bench-diff: %d figure(s) compared, threshold %.0f%%" r.compared
    r.threshold_pct;
  List.iter
    (fun v -> Format.fprintf ppf "@,  %-11s %-55s %s" (kind_name v.kind) v.path v.detail)
    r.verdicts;
  Format.fprintf ppf "@,%s: %d regression(s), %d mismatch(es)"
    (if ok r then "OK" else "FAIL")
    r.regressions r.mismatches;
  Format.fprintf ppf "@]"
