(* Natix_prof: quantiles, operation context, trace filters, page heat,
   EXPLAIN ANALYZE reconciliation, doctor determinism, clustering quality
   across split configurations, and the bench-diff regression gate. *)

open Natix_core
open Natix_obs
open Natix_prof

let mk_event ?ctx ?(seq = 0) ?(at_ms = 0.) kind = { Event.seq; at_ms; kind; ctx }

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0
let io_kind page = Event.Io { page; write = false; sequential = false }
let fix_kind ?(hit = false) page = Event.Page_fix { page; hit }
let ctx ?doc phase = { Event.doc; phase }

(* ------------------------------------------------------------------ *)
(* Metrics.quantile *)

let quantile_tests =
  [
    Alcotest.test_case "interpolates inside the bucket" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.register_histogram m "h" ~edges:[| 10.; 20.; 30. |];
        (* 10 observations in <=10, 10 in (10,20]: p50 lands exactly at
           the first bucket's upper edge, p75 halfway into the second. *)
        for _ = 1 to 10 do
          Metrics.observe m "h" 5.
        done;
        for _ = 1 to 10 do
          Metrics.observe m "h" 15.
        done;
        let q p = Option.get (Metrics.quantile m "h" p) in
        Alcotest.(check (float 1e-9)) "p50" 10. (q 0.5);
        Alcotest.(check (float 1e-9)) "p75" 15. (q 0.75);
        Alcotest.(check (float 1e-9)) "p100" 20. (q 1.0);
        Alcotest.(check (float 1e-9)) "p0 at lower edge" 0. (q 0.));
    Alcotest.test_case "overflow bucket collapses to the last edge" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.register_histogram m "h" ~edges:[| 1.; 2. |];
        Metrics.observe m "h" 99.;
        Alcotest.(check (float 1e-9)) "p99" 2. (Option.get (Metrics.quantile m "h" 0.99)));
    Alcotest.test_case "missing or empty histograms yield None" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.register_histogram m "h" ~edges:[| 1. |];
        Alcotest.(check bool) "empty" true (Metrics.quantile m "h" 0.5 = None);
        Alcotest.(check bool) "missing" true (Metrics.quantile m "nope" 0.5 = None));
    Alcotest.test_case "q outside [0,1] is rejected" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.register_histogram m "h" ~edges:[| 1. |];
        Metrics.observe m "h" 0.5;
        Alcotest.check_raises "q=1.5"
          (Invalid_argument "Metrics.quantile: q must be in [0, 1]") (fun () ->
            ignore (Metrics.quantile m "h" 1.5)));
  ]

(* ------------------------------------------------------------------ *)
(* Operation context and live delivery in the obs layer *)

let context_tests =
  [
    Alcotest.test_case "with_context stamps events and restores on exit" `Quick (fun () ->
        let obs = Obs.create ~sink:(Sink.ring ()) () in
        Obs.with_context obs ~doc:"d1" ~phase:"load" (fun () -> Obs.emit obs (io_kind 7));
        Obs.emit obs (io_kind 8);
        (try
           Obs.with_context obs ~phase:"oops" (fun () -> failwith "boom")
         with Failure _ -> ());
        Alcotest.(check bool) "restored after raise" true (Obs.context obs = None);
        match Obs.events obs with
        | [ e1; e2 ] ->
          Alcotest.(check bool) "stamped" true
            (e1.Event.ctx = Some { Event.doc = Some "d1"; phase = "load" });
          Alcotest.(check bool) "outside scope" true (e2.Event.ctx = None)
        | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
    Alcotest.test_case "callback sink observes the live stream" `Quick (fun () ->
        let seen = ref [] in
        let sink = Sink.callback (fun e -> seen := e :: !seen) in
        let obs = Obs.create ~sink () in
        Obs.emit obs (io_kind 1);
        Obs.emit obs (fix_kind 2);
        Alcotest.(check int) "delivered" 2 (List.length !seen);
        Alcotest.(check int) "counted" 2 (Sink.emitted sink);
        Alcotest.(check int) "retains nothing" 0 (List.length (Sink.events sink)));
  ]

(* ------------------------------------------------------------------ *)
(* Trace filters *)

let filter_tests =
  [
    Alcotest.test_case "kind, doc and since_ms filters compose" `Quick (fun () ->
        let events =
          [
            mk_event ~at_ms:1. ~ctx:(ctx ~doc:"a" "load") (io_kind 1);
            mk_event ~at_ms:2. ~ctx:(ctx ~doc:"b" "load") (io_kind 2);
            mk_event ~at_ms:3. ~ctx:(ctx ~doc:"a" "query") (fix_kind 3);
            mk_event ~at_ms:4. (io_kind 4);
          ]
        in
        Alcotest.(check int) "by kind" 3 (List.length (Trace_view.filter ~kind:"io" events));
        Alcotest.(check int) "by doc" 2 (List.length (Trace_view.filter ~doc:"a" events));
        Alcotest.(check int) "no ctx never matches doc" 0
          (List.length (Trace_view.filter ~doc:"c" events));
        Alcotest.(check int) "since" 2 (List.length (Trace_view.filter ~since_ms:3. events));
        Alcotest.(check int) "composed" 1
          (List.length (Trace_view.filter ~kind:"io" ~doc:"a" ~since_ms:0. events));
        Alcotest.(check bool) "single event" true
          (Trace_view.keep_event ~kind:"page_fix" (List.nth events 2)));
  ]

(* ------------------------------------------------------------------ *)
(* Page heat *)

let heat_tests =
  [
    Alcotest.test_case "attributes fixes and I/O to (doc, phase)" `Quick (fun () ->
        let h = Heat.create () in
        let load = ctx ~doc:"d" "load" in
        Heat.feed h (mk_event ~ctx:load (fix_kind 1));
        Heat.feed h (mk_event ~ctx:load (fix_kind ~hit:true 1));
        Heat.feed h (mk_event ~ctx:load (fix_kind 2));
        Heat.feed h (mk_event ~ctx:load (io_kind 1));
        Heat.feed h
          (mk_event ~ctx:load (Event.Io { page = 2; write = true; sequential = false }));
        Heat.feed h (mk_event ~ctx:(ctx "doctor") (fix_kind 9));
        Heat.feed h (mk_event (fix_kind 5));
        (* no ctx: dropped *)
        match Heat.rows h with
        | [ anon; doc_row ] ->
          (* Sorted by doc: the context-less phase row ("", doctor) first. *)
          Alcotest.(check string) "anon doc" "" anon.Heat.doc;
          Alcotest.(check string) "anon phase" "doctor" anon.Heat.phase;
          Alcotest.(check int) "doc fixes" 3 doc_row.Heat.fixes;
          Alcotest.(check int) "doc hits" 1 doc_row.Heat.hits;
          Alcotest.(check int) "doc reads" 1 doc_row.Heat.reads;
          Alcotest.(check int) "doc writes" 1 doc_row.Heat.writes;
          Alcotest.(check int) "distinct pages" 2 doc_row.Heat.pages_touched;
          Alcotest.(check (list (pair int int))) "hottest first" [ (1, 2); (2, 1) ]
            doc_row.Heat.hottest
        | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  ]

(* ------------------------------------------------------------------ *)
(* Shared fixtures: a small Shakespeare store *)

let corpus ?(plays = 2) () =
  let plays_list =
    Natix_workload.Shakespeare.generate (Natix_workload.Shakespeare.scaled 0.01)
  in
  List.filteri (fun i _ -> i < plays) (plays_list @ plays_list)

let instrumented_store ?(plays = 2) () =
  let obs = Obs.create ~sink:(Sink.ring ~capacity:200_000 ()) () in
  let config = Config.with_obs obs (Config.default ()) in
  let store = Tree_store.in_memory ~config () in
  let dm = Document_manager.create store in
  List.iteri
    (fun i play ->
      match Document_manager.store_document dm ~name:(Printf.sprintf "play-%d" i) play with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Error.to_string e))
    (corpus ~plays ());
  Document_manager.checkpoint dm;
  (store, dm, obs)

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: actuals must reconcile with the engine counters *)

let analyze_paths =
  [ "//SPEECH/LINE"; "/ACT[1]/SCENE[1]/SPEECH[1]"; "//PERSONA"; "//node()"; "//LINE[2]" ]

let check_reconciles engine ~doc path =
  let store = Natix_query.Engine.store engine in
  Tree_store.clear_buffers store;
  let before = Natix_store.Io_stats.copy (Tree_store.io_stats store) in
  let a =
    match Natix_query.Engine.analyze engine ~doc path with
    | Ok a -> a
    | Error e -> Alcotest.failf "%s: %s" path (Error.to_string e)
  in
  let delta = Natix_store.Io_stats.diff (Tree_store.io_stats store) before in
  let sum f = List.fold_left (fun acc op -> acc + f op) 0 a.Natix_query.Engine.ops in
  let sumf f = List.fold_left (fun acc op -> acc +. f op) 0. a.Natix_query.Engine.ops in
  (* Per-operator self figures plus setup account for the whole run. *)
  Alcotest.(check int)
    (path ^ ": ops+setup = total reads")
    a.Natix_query.Engine.total_reads
    (a.Natix_query.Engine.setup_reads + sum (fun op -> op.Natix_query.Engine.reads));
  Alcotest.(check (float 1e-6))
    (path ^ ": ops+setup = total ms")
    a.Natix_query.Engine.total_ms
    (a.Natix_query.Engine.setup_ms +. sumf (fun op -> op.Natix_query.Engine.sim_ms));
  (* And the totals are exactly the Io_stats delta across the call. *)
  Alcotest.(check int) (path ^ ": total = io delta reads") delta.Natix_store.Io_stats.reads
    a.Natix_query.Engine.total_reads;
  Alcotest.(check (float 1e-6))
    (path ^ ": total = io delta ms")
    delta.Natix_store.Io_stats.sim_ms a.Natix_query.Engine.total_ms;
  (* Same rows as the plain streaming evaluation. *)
  let rows =
    match Natix_query.Engine.query engine ~doc path with
    | Ok seq -> List.length (List.of_seq seq)
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  Alcotest.(check int) (path ^ ": row count") rows a.Natix_query.Engine.rows;
  a

let analyze_tests =
  [
    Alcotest.test_case "actuals reconcile with Io_stats (indexed + nav-only)" `Quick
      (fun () ->
        let _store, dm, _obs = instrumented_store () in
        let indexed = Natix_query.Engine.of_manager dm in
        let nav_only = Natix_query.Engine.create (Document_manager.store dm) in
        List.iter
          (fun path ->
            ignore (check_reconciles indexed ~doc:"play-0" path);
            ignore (check_reconciles nav_only ~doc:"play-1" path))
          analyze_paths);
    Alcotest.test_case "cold run reads pages and attributes them to operators" `Quick
      (fun () ->
        let _store, dm, _obs = instrumented_store ~plays:1 () in
        let engine = Natix_query.Engine.of_manager dm in
        let a = check_reconciles engine ~doc:"play-0" "//SPEECH/LINE" in
        Alcotest.(check bool) "cold run cost something" true
          (a.Natix_query.Engine.total_reads > 0);
        Alcotest.(check bool) "operators saw reads" true
          (List.exists
             (fun op -> op.Natix_query.Engine.reads > 0)
             a.Natix_query.Engine.ops);
        Alcotest.(check bool) "rows flowed" true (a.Natix_query.Engine.rows > 0);
        (* The report renders the estimate column. *)
        let txt = Natix_query.Engine.analysis_to_string a in
        Alcotest.(check bool) "renders estimates" true
          (contains txt "(est "));
    Alcotest.test_case "session facade exposes analyze" `Quick (fun () ->
        let session = Natix.Session.open_memory () in
        (match
           Natix.Session.store_document session ~name:"d"
             (Natix_xml.Xml_tree.element "r"
                [ Natix_xml.Xml_tree.element "a" [ Natix_xml.Xml_tree.text "x" ] ])
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Error.to_string e));
        match Natix.Session.analyze session ~doc:"d" "//a" with
        | Ok a -> Alcotest.(check int) "one row" 1 a.Natix_query.Engine.rows
        | Error e -> Alcotest.fail (Error.to_string e));
  ]

(* ------------------------------------------------------------------ *)
(* Doctor and folded output: determinism across identical builds *)

let doctor_tests =
  [
    Alcotest.test_case "identical builds produce byte-identical reports" `Quick (fun () ->
        let store1, _, _ = instrumented_store () in
        let store2, _, _ = instrumented_store () in
        let r1 = Doctor.run store1 and r2 = Doctor.run store2 in
        Alcotest.(check string) "doctor deterministic" r1 r2);
    Alcotest.test_case "report covers store, documents, fill and heat" `Quick (fun () ->
        let store, _, _obs = instrumented_store ~plays:1 () in
        let r = Doctor.run store in
        List.iter
          (fun section ->
            Alcotest.(check bool) ("has " ^ section) true
              (contains r section))
          [
            "== store ==";
            "== documents ==";
            "clustering=";
            "== fill factor";
            "== wal ==";
            "proxy_chain_len:";
            "split decisions";
            "== page heat";
            "play-0";
          ]);
    Alcotest.test_case "uninstrumented stores still get the live sections" `Quick (fun () ->
        let store = Tree_store.in_memory () in
        let dm = Document_manager.create store in
        (match
           Document_manager.store_document dm ~name:"d"
             (Natix_xml.Xml_tree.element "r" [ Natix_xml.Xml_tree.text "x" ])
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Error.to_string e));
        let r = Doctor.run store in
        Alcotest.(check bool) "documents section" true
          (contains r "== documents ==");
        Alcotest.(check bool) "flags missing instrumentation" true
          (contains r "without an obs handle"));
  ]

(* ------------------------------------------------------------------ *)
(* Clustering quality: the split matrix must show up in the score *)

let avg_clustering built =
  let fractions =
    List.map
      (fun doc ->
        match Cluster.score built.Natix_workload.Harness.store ~doc with
        | Some s -> Cluster.fraction s
        | None -> Alcotest.failf "missing doc %s" doc)
      built.Natix_workload.Harness.docs
  in
  List.fold_left ( +. ) 0. fractions /. float_of_int (List.length fractions)

let cluster_tests =
  [
    Alcotest.test_case "native records cluster better than 1:1" `Quick (fun () ->
        let corpus = corpus ~plays:1 () in
        let build matrix =
          Natix_workload.Harness.build ~page_size:8192
            { Natix_workload.Harness.matrix; order = Loader.Preorder }
            corpus
        in
        let native = avg_clustering (build Natix_workload.Harness.Native) in
        let one_to_one = avg_clustering (build Natix_workload.Harness.One_to_one) in
        Alcotest.(check bool)
          (Printf.sprintf "native %.3f > 1:1 %.3f" native one_to_one)
          true
          (native > one_to_one +. 0.02));
    Alcotest.test_case "single-node documents score 1.0" `Quick (fun () ->
        let store = Tree_store.in_memory () in
        let dm = Document_manager.create store in
        (match
           Document_manager.store_document dm ~name:"one"
             (Natix_xml.Xml_tree.element "r" [])
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Error.to_string e));
        (match Cluster.score store ~doc:"one" with
        | Some s -> Alcotest.(check (float 1e-9)) "fraction" 1.0 (Cluster.fraction s)
        | None -> Alcotest.fail "doc missing");
        Alcotest.(check bool) "unknown doc" true (Cluster.score store ~doc:"nope" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Bench-diff regression gate *)

let parse s = Json.parse s

let bench_diff_tests =
  [
    Alcotest.test_case "self-diff is clean" `Quick (fun () ->
        let j = parse {|{"io":{"reads":100,"sim_ms":50.5,"hit_ratio":0.9},"nodes":42}|} in
        let r = Bench_diff.diff ~baseline:j ~current:j () in
        Alcotest.(check bool) "ok" true (Bench_diff.ok r);
        Alcotest.(check int) "no verdicts" 0 (List.length r.Bench_diff.verdicts);
        Alcotest.(check bool) "compared figures" true (r.Bench_diff.compared > 0));
    Alcotest.test_case "slower figures past the threshold are regressions" `Quick (fun () ->
        let base = parse {|{"io":{"reads":100,"sim_ms":50.0}}|} in
        let cur = parse {|{"io":{"reads":150,"sim_ms":50.0}}|} in
        let r = Bench_diff.diff ~threshold_pct:20. ~baseline:base ~current:cur () in
        Alcotest.(check bool) "fails" false (Bench_diff.ok r);
        Alcotest.(check int) "one regression" 1 r.Bench_diff.regressions;
        match r.Bench_diff.verdicts with
        | [ { Bench_diff.path = "io.reads"; kind = Bench_diff.Regression; _ } ] -> ()
        | _ -> Alcotest.fail "expected io.reads regression");
    Alcotest.test_case "improvements and small deltas do not fail" `Quick (fun () ->
        let base = parse {|{"io":{"reads":100,"hit_ratio":0.5},"tiny":{"reads":3}}|} in
        (* reads down = better; hit_ratio up = better; 3 -> 4 reads is a
           33% move but under the 1-page floor. *)
        let cur = parse {|{"io":{"reads":50,"hit_ratio":0.9},"tiny":{"reads":4}}|} in
        let r = Bench_diff.diff ~baseline:base ~current:cur () in
        Alcotest.(check bool) "ok" true (Bench_diff.ok r);
        Alcotest.(check bool) "improvement recorded" true
          (List.exists
             (fun v -> v.Bench_diff.kind = Bench_diff.Improvement)
             r.Bench_diff.verdicts));
    Alcotest.test_case "hit ratio regressions point the other way" `Quick (fun () ->
        let base = parse {|{"hit_ratio":0.9}|} in
        let cur = parse {|{"hit_ratio":0.5}|} in
        let r = Bench_diff.diff ~threshold_pct:10. ~baseline:base ~current:cur () in
        Alcotest.(check int) "regression" 1 r.Bench_diff.regressions);
    Alcotest.test_case "shape changes are mismatches" `Quick (fun () ->
        let base = parse {|{"nodes":10,"series":[1,2],"io_model":"dcas","gone":1}|} in
        let cur = parse {|{"nodes":11,"series":[1,2,3],"io_model":"other"}|} in
        let r = Bench_diff.diff ~baseline:base ~current:cur () in
        Alcotest.(check bool) "fails" false (Bench_diff.ok r);
        (* exact-match key drifted + array length + string + missing key *)
        Alcotest.(check int) "mismatches" 4 r.Bench_diff.mismatches);
    Alcotest.test_case "wall-clock figures are skipped" `Quick (fun () ->
        let base = parse {|{"build_wall_s":1.0}|} in
        let cur = parse {|{"build_wall_s":99.0}|} in
        let r = Bench_diff.diff ~baseline:base ~current:cur () in
        Alcotest.(check bool) "ok" true (Bench_diff.ok r);
        Alcotest.(check int) "no verdicts" 0 (List.length r.Bench_diff.verdicts));
    Alcotest.test_case "a one-read change inside a cell is a mismatch" `Quick (fun () ->
        let cell reads splits =
          Printf.sprintf
            {|{"cells":[{"page_size":2048,"series":"1:n append","splits":%d,"q1_io":{"reads":%d,"sim_ms":12.5}}]}|}
            splits reads
        in
        let r =
          Bench_diff.diff ~threshold_pct:20. ~baseline:(parse (cell 100 7))
            ~current:(parse (cell 101 7)) ()
        in
        Alcotest.(check bool) "fails" false (Bench_diff.ok r);
        Alcotest.(check int) "one mismatch" 1 r.Bench_diff.mismatches;
        let r =
          Bench_diff.diff ~threshold_pct:20. ~baseline:(parse (cell 100 7))
            ~current:(parse (cell 100 8)) ()
        in
        Alcotest.(check int) "splits are gated too" 1 r.Bench_diff.mismatches);
    Alcotest.test_case "a one-read change inside query_bench is a mismatch" `Quick (fun () ->
        let qb reads ratio =
          Printf.sprintf
            {|{"query_bench":{"index_seed":[{"hits":1,"planned_io":{"reads":%d,"sim_ms":62.3}}],"scan_pool":[{"q3_hit_ratio":%g}]}}|}
            reads ratio
        in
        let r =
          Bench_diff.diff ~threshold_pct:20. ~baseline:(parse (qb 6 0.8))
            ~current:(parse (qb 7 0.8)) ()
        in
        Alcotest.(check bool) "fails" false (Bench_diff.ok r);
        Alcotest.(check int) "one mismatch" 1 r.Bench_diff.mismatches;
        (* Outside the I/O objects the threshold still applies. *)
        let r =
          Bench_diff.diff ~threshold_pct:20. ~baseline:(parse (qb 6 0.8))
            ~current:(parse (qb 6 0.79)) ()
        in
        Alcotest.(check bool) "hit ratio within threshold" true (Bench_diff.ok r));
    Alcotest.test_case "a one-count change inside instrumented is a mismatch" `Quick (fun () ->
        let inst hops =
          Printf.sprintf
            {|{"instrumented":{"page_size":8192,"metrics":{"counters":{"ev.proxy_hop":%d},%s}}}|}
            hops {|"histograms":{"proxy_chain_len":{"counts":[2,4],"sum":98.5}}|}
        in
        let r =
          Bench_diff.diff ~threshold_pct:20. ~baseline:(parse (inst 292))
            ~current:(parse (inst 293)) ()
        in
        Alcotest.(check bool) "fails" false (Bench_diff.ok r);
        Alcotest.(check int) "one mismatch" 1 r.Bench_diff.mismatches;
        let r =
          Bench_diff.diff ~threshold_pct:20. ~baseline:(parse (inst 292))
            ~current:(parse (inst 292)) ()
        in
        Alcotest.(check bool) "equal passes" true (Bench_diff.ok r));
    Alcotest.test_case "the same change outside the exact sections stays within the threshold"
      `Quick (fun () ->
        let base = parse {|{"serve_bench":{"q1_io":{"reads":100,"sim_ms":12.5}}}|} in
        let cur = parse {|{"serve_bench":{"q1_io":{"reads":101,"sim_ms":12.5}}}|} in
        let r = Bench_diff.diff ~threshold_pct:20. ~baseline:base ~current:cur () in
        Alcotest.(check bool) "ok" true (Bench_diff.ok r);
        Alcotest.(check int) "no mismatch" 0 r.Bench_diff.mismatches);
    Alcotest.test_case "cell wall time is skipped" `Quick (fun () ->
        let base = parse {|{"cells":[{"build_wall_s":1.0,"disk_bytes":4096}]}|} in
        let cur = parse {|{"cells":[{"build_wall_s":3.5,"disk_bytes":4096}]}|} in
        let r = Bench_diff.diff ~threshold_pct:20. ~baseline:base ~current:cur () in
        Alcotest.(check bool) "ok" true (Bench_diff.ok r);
        Alcotest.(check int) "no verdicts" 0 (List.length r.Bench_diff.verdicts));
    Alcotest.test_case "verdict json carries the gate outcome" `Quick (fun () ->
        let base = parse {|{"reads":10}|} in
        let cur = parse {|{"reads":100}|} in
        let r = Bench_diff.diff ~baseline:base ~current:cur () in
        let j = Bench_diff.to_json r in
        Alcotest.(check bool) "ok=false" true (Json.member "ok" j = Some (Json.Bool false));
        Alcotest.(check bool) "regressions counted" true
          (Json.member "regressions" j = Some (Json.Int 1)));
  ]

let suites =
  [
    ("prof.quantile", quantile_tests);
    ("prof.spans", context_tests);
    ("prof.trace_view", filter_tests);
    ("prof.heat", heat_tests);
    ("prof.analyze", analyze_tests);
    ("prof.doctor", doctor_tests);
    ("prof.cluster", cluster_tests);
    ("prof.bench_diff", bench_diff_tests);
  ]
