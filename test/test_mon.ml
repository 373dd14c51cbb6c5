(* Monitoring layer: sliding windows, per-document accounts, the flight
   recorder, capture/replay, and the session wiring.

   Determinism is the backbone of every assertion here: windows and
   accounts run on the simulated I/O clock, so a deterministic workload
   must produce byte-identical exports and a capture must replay to
   byte-identical digests with equal I/O totals at any job count. *)

open Natix_core
module Window = Natix_mon.Window
module Registry = Natix_mon.Registry
module Account = Natix_mon.Account
module Recorder = Natix_mon.Recorder
module Replay = Natix_mon.Replay
module Mon = Natix_mon.Mon
module Event = Natix_obs.Event
module Json = Natix_obs.Json
module Io_stats = Natix_store.Io_stats

(* Small pages and a small pool so even the test corpus does real I/O
   once the buffers are dropped. *)
let config ?(buffer_bytes = 16 * 1024) () =
  { (Config.default ()) with Config.page_size = 1024; buffer_bytes }

(* A deterministic multi-page document: enough speeches that queries
   touch several pages. *)
let play_xml name =
  let b = Buffer.create 4096 in
  Buffer.add_string b "<PLAY><TITLE>";
  Buffer.add_string b name;
  Buffer.add_string b "</TITLE>";
  for act = 1 to 2 do
    Buffer.add_string b "<ACT>";
    for sp = 1 to 20 do
      Buffer.add_string b
        (Printf.sprintf
           "<SPEECH><SPEAKER>S%d</SPEAKER><LINE>act %d speech %d of %s with some more \
            words to fill the page</LINE></SPEECH>"
           sp act sp name)
    done;
    Buffer.add_string b "</ACT>"
  done;
  Buffer.add_string b "</PLAY>";
  Buffer.contents b

let parse = Natix_xml.Xml_parser.parse

let session_with_docs ?buffer_bytes names =
  let s = Natix.Session.open_memory
      ~options:{ Natix.Session.Options.default with config = Some (config ?buffer_bytes ()) }
      () in
  List.iter
    (fun name ->
      match Natix.Session.store_document s ~name (parse (play_xml name)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "store %s: %s" name (Error.to_string e))
    names;
  s

let cold s = Tree_store.clear_buffers (Natix.Session.store s)
let mon_of s = Option.get (Natix.Session.mon s)

(* ------------------------------------------------------------------ *)
(* Window                                                              *)

let window_tests =
  [
    Alcotest.test_case "empty window: zero aggregate, None quantiles" `Quick (fun () ->
        let w = Window.create ~bucket_ms:100. ~buckets:5 ~quantile_edges:[| 1.; 2. |] () in
        let a = Window.agg w ~at_ms:0. in
        Alcotest.(check int) "count" 0 a.Window.count;
        Alcotest.(check (float 1e-9)) "sum" 0. a.Window.sum;
        Alcotest.(check (float 1e-9)) "rate" 0. a.Window.rate_per_s;
        Alcotest.(check (option (float 1e-9))) "quantile" None (Window.quantile w ~at_ms:0. 0.5);
        Alcotest.(check bool) "p50/95/99" true (Window.p50_95_99 w ~at_ms:0. = None));
    Alcotest.test_case "no histogram: quantile always None, agg still works" `Quick (fun () ->
        let w = Window.create ~bucket_ms:100. ~buckets:5 () in
        Window.add w ~at_ms:10. 3.;
        Alcotest.(check (option (float 1e-9))) "no edges" None (Window.quantile w ~at_ms:10. 0.5);
        Alcotest.(check int) "count" 1 (Window.agg w ~at_ms:10.).Window.count);
    Alcotest.test_case "sliding: buckets retire as the clock advances" `Quick (fun () ->
        let w = Window.create ~bucket_ms:100. ~buckets:5 () in
        Window.add w ~at_ms:0. 1.;
        Window.add w ~at_ms:250. 2.;
        let a = Window.agg w ~at_ms:250. in
        Alcotest.(check (float 1e-9)) "both in window" 3. a.Window.sum;
        Alcotest.(check (float 1e-9)) "rate over span" (3. /. 0.5) a.Window.rate_per_s;
        (* At 550ms the epoch-0 bucket (stamp 0) is out of [50, 550]. *)
        let a = Window.agg w ~at_ms:550. in
        Alcotest.(check (float 1e-9)) "oldest dropped" 2. a.Window.sum;
        (* Jumping to 700ms recycles the ring slot the 250ms bucket
           lived in, and a stamp older than the window never lands. *)
        Window.add w ~at_ms:700. 4.;
        Window.add w ~at_ms:100. 8.;
        let a = Window.agg w ~at_ms:700. in
        Alcotest.(check (float 1e-9)) "only the fresh add is live" 4. a.Window.sum);
    Alcotest.test_case "non-finite values and stamps are dropped" `Quick (fun () ->
        let w = Window.create ~bucket_ms:100. ~buckets:5 ~quantile_edges:[| 1. |] () in
        Window.add w ~at_ms:10. Float.nan;
        Window.add w ~at_ms:10. Float.infinity;
        Window.add w ~at_ms:Float.nan 1.;
        Alcotest.(check int) "nothing recorded" 0 (Window.agg w ~at_ms:10.).Window.count;
        Alcotest.(check (option (float 1e-9))) "quantile still None" None
          (Window.quantile w ~at_ms:10. 0.99));
    Alcotest.test_case "moving quantiles interpolate and saturate" `Quick (fun () ->
        let w =
          Window.create ~bucket_ms:100. ~buckets:10 ~quantile_edges:[| 10.; 20.; 40. |] ()
        in
        (* 10 observations <=10, 10 in (10,20]: p50 at the first edge. *)
        for i = 0 to 9 do
          Window.add w ~at_ms:(float_of_int (i * 10)) 5.;
          Window.add w ~at_ms:(float_of_int (i * 10)) 15.
        done;
        (match Window.quantile w ~at_ms:95. 0.5 with
        | Some v -> Alcotest.(check (float 1e-6)) "p50" 10. v
        | None -> Alcotest.fail "p50 missing");
        (* Overflow observations report the last edge. *)
        Window.add w ~at_ms:95. 1000.;
        (match Window.quantile w ~at_ms:95. 1.0 with
        | Some v -> Alcotest.(check (float 1e-6)) "saturates at last edge" 40. v
        | None -> Alcotest.fail "p100 missing");
        Alcotest.check_raises "q out of range"
          (Invalid_argument "Window.quantile: q must be in [0, 1]") (fun () ->
            ignore (Window.quantile w ~at_ms:95. (-0.1))));
    Alcotest.test_case "create validates parameters" `Quick (fun () ->
        Alcotest.check_raises "bucket_ms <= 0"
          (Invalid_argument "Window.create: bucket_ms must be positive") (fun () ->
            ignore (Window.create ~bucket_ms:0. ~buckets:5 ()));
        Alcotest.check_raises "buckets <= 0"
          (Invalid_argument "Window.create: buckets must be positive") (fun () ->
            ignore (Window.create ~bucket_ms:1. ~buckets:0 ()));
        Alcotest.check_raises "bad edges"
          (Invalid_argument "Window.create: quantile edges must be finite and strictly increasing")
          (fun () ->
            ignore (Window.create ~bucket_ms:1. ~buckets:5 ~quantile_edges:[| 2.; 1. |] ())));
  ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let registry_tests =
  [
    Alcotest.test_case "snapshots are deterministically ordered and byte-identical" `Quick
      (fun () ->
        let feed () =
          let r = Registry.create () in
          Registry.define r "lat" ~quantile_edges:[| 1.; 10.; 100. |];
          let ctx doc phase = { Event.doc = Some doc; phase } in
          (* Feed in two different interleavings; the snapshot must not
             care. *)
          Registry.record r ~ctx:(ctx "b" "query") ~at_ms:10. "reads" 1.;
          Registry.record r ~ctx:(ctx "a" "scan") ~at_ms:20. "reads" 1.;
          Registry.record r ~ctx:(ctx "a" "query") ~at_ms:30. "reads" 1.;
          Registry.record r ~at_ms:40. "lat" 5.;
          Registry.record r ~at_ms:50. "lat" 50.;
          r
        in
        let s1 = Registry.snapshot (feed ()) ~at_ms:60. in
        let s2 = Registry.snapshot (feed ()) ~at_ms:60. in
        Alcotest.(check string) "json identical"
          (Json.to_string (Registry.to_json s1))
          (Json.to_string (Registry.to_json s2));
        Alcotest.(check string) "prometheus identical" (Registry.to_prometheus s1)
          (Registry.to_prometheus s2);
        let reads = List.find (fun s -> s.Registry.name = "reads") s1.Registry.series in
        Alcotest.(check int) "total" 3 reads.Registry.total_count;
        Alcotest.(check (list (pair (pair (option string) string) int)))
          "contexts sorted, windowed"
          [ ((Some "a", "query"), 1); ((Some "a", "scan"), 1); ((Some "b", "query"), 1) ]
          (List.map (fun (k, a) -> (k, a.Window.count)) reads.Registry.by_ctx);
        let lat = List.find (fun s -> s.Registry.name = "lat") s1.Registry.series in
        Alcotest.(check bool) "histogram series has quantiles" true
          (lat.Registry.quantiles <> None));
    Alcotest.test_case "duplicate define rejected; unknown series auto-created" `Quick
      (fun () ->
        let r = Registry.create () in
        Registry.define r "lat" ~quantile_edges:[| 1. |];
        Alcotest.check_raises "duplicate"
          (Invalid_argument "Registry.define: duplicate series lat") (fun () ->
            Registry.define r "lat" ~quantile_edges:[| 2. |]);
        Registry.record r ~at_ms:0. "fresh" 2.;
        let s = Registry.snapshot r ~at_ms:0. in
        let fresh = List.find (fun s -> s.Registry.name = "fresh") s.Registry.series in
        Alcotest.(check bool) "no quantiles without edges" true
          (fresh.Registry.quantiles = None));
  ]

(* ------------------------------------------------------------------ *)
(* Accounts                                                            *)

let account_tests =
  [
    Alcotest.test_case "sim-ms budget and pinned peak ride operation charges" `Quick
      (fun () ->
        let a = Account.create () in
        Account.charge_op a ~doc:"d" ~at_ms:0. ~sim_ms:6. ~pinned:2;
        Account.charge_op a ~doc:"d" ~at_ms:1. ~sim_ms:7. ~pinned:1;
        match Account.snapshot a ~at_ms:2. with
        | [ d ] ->
          Alcotest.(check (float 1e-9)) "sim_ms total" 13. d.Account.sim_ms_total;
          Alcotest.(check (float 1e-9)) "sim_ms windowed" 13. d.Account.win_sim_ms.Window.sum;
          Alcotest.(check int) "pinned peak" 2 d.Account.pinned_peak
        | l -> Alcotest.failf "expected one account, got %d" (List.length l));
    Alcotest.test_case "snapshot sorted by document" `Quick (fun () ->
        let a = Account.create () in
        Account.charge_reads a ~doc:"zeta" ~at_ms:0. 1;
        Account.charge_reads a ~doc:"alpha" ~at_ms:0. 1;
        Alcotest.(check (list string)) "order" [ "alpha"; "zeta" ]
          (List.map (fun d -> d.Account.doc) (Account.snapshot a ~at_ms:0.)));
  ]

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

let op ~seq ~kind ~doc ~detail =
  {
    Recorder.seq;
    at_ms = float_of_int seq;
    kind;
    doc;
    detail;
    plan = (if seq mod 2 = 0 then Some "nav" else None);
    reads = seq;
    writes = 0;
    sim_ms = float_of_int seq *. 1.5;
    outcome = "ok";
    digest = (if kind = "query" then Some (Digest.to_hex (Digest.string detail)) else None);
    rows = (if kind = "query" then Some (seq * 2) else None);
  }

let recorder_tests =
  [
    Alcotest.test_case "bounded ring keeps the newest, seq stays monotone" `Quick (fun () ->
        let r = Recorder.create ~capacity:4 in
        for i = 1 to 10 do
          Recorder.add r (op ~seq:0 ~kind:"query" ~doc:(Some "d") ~detail:(string_of_int i))
        done;
        Alcotest.(check int) "added" 10 (Recorder.added r);
        let ops = Recorder.ops r in
        Alcotest.(check int) "retained" 4 (List.length ops);
        Alcotest.(check (list int)) "seq oldest-first" [ 7; 8; 9; 10 ]
          (List.map (fun (o : Recorder.op) -> o.Recorder.seq) ops);
        Alcotest.(check (list string)) "payload matches" [ "7"; "8"; "9"; "10" ]
          (List.map (fun (o : Recorder.op) -> o.Recorder.detail) ops));
    Alcotest.test_case "dump/load JSONL roundtrip" `Quick (fun () ->
        let meta =
          {
            Recorder.version = 1;
            store = Some "s.natix";
            jobs = 4;
            cold = true;
            reads = 42;
            writes = 7;
            total_ios = 49;
            sim_ms = 123.456;
            trace_id = Some "t-000042";
          }
        in
        let ops =
          [
            op ~seq:1 ~kind:"query" ~doc:(Some "a") ~detail:"//SPEAKER";
            op ~seq:2 ~kind:"load" ~doc:(Some "b") ~detail:"b.xml";
            op ~seq:3 ~kind:"scan" ~doc:None ~detail:"all";
          ]
        in
        let path = Filename.temp_file "natix_mon" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            Recorder.dump oc meta ops;
            close_out oc;
            let meta', ops' = Recorder.load path in
            Alcotest.(check bool) "meta" true (meta = meta');
            Alcotest.(check bool) "ops" true (ops = ops')));
    Alcotest.test_case "load rejects unknown versions" `Quick (fun () ->
        let path = Filename.temp_file "natix_mon" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc "{\"meta\":{\"version\":99,\"store\":null,\"jobs\":1,\"cold\":false,\"reads\":0,\"writes\":0,\"total_ios\":0,\"sim_ms\":0}}\n";
            close_out oc;
            match Recorder.load path with
            | exception Failure _ -> ()
            | _ -> Alcotest.fail "version 99 accepted"));
  ]

(* ------------------------------------------------------------------ *)
(* Capture / replay                                                    *)

let tasks_of docs = List.map (fun d -> (d, "//SPEAKER")) docs

let replay_tests =
  [
    Alcotest.test_case "capture replays byte-identical with equal I/O, jobs 1 and 4" `Quick
      (fun () ->
        let docs = [ "a"; "b"; "c"; "d" ] in
        (* A pool large enough that the batch never evicts: with
           capacity evictions mid-batch, total physical reads become
           schedule-dependent at jobs >= 2 and the I/O equality the
           replay asserts would not hold. *)
        let s = session_with_docs ~buffer_bytes:(256 * 1024) docs in
        let store = Natix.Session.store s in
        let tasks = ("a", "//LINE[1]") :: tasks_of docs in
        List.iter
          (fun capture_jobs ->
            let meta, ops = Replay.capture ~jobs:capture_jobs store tasks in
            Alcotest.(check bool) "cold capture" true meta.Recorder.cold;
            List.iter
              (fun (o : Recorder.op) ->
                Alcotest.(check string) "op ok" "ok" o.Recorder.outcome;
                Alcotest.(check bool) "digest present" true (o.Recorder.digest <> None))
              ops;
            List.iter
              (fun replay_jobs ->
                let r = Replay.run ~jobs:replay_jobs store meta ops in
                Alcotest.(check bool) "io checked" true r.Replay.io_checked;
                if not (Replay.ok r) then
                  Alcotest.failf "capture jobs=%d replay jobs=%d diverged" capture_jobs
                    replay_jobs;
                Alcotest.(check int) "all replayed" (List.length tasks) r.Replay.replayed)
              [ 1; 4 ])
          [ 1; 4 ]);
    Alcotest.test_case "replay detects divergence after mutation" `Quick (fun () ->
        let s = session_with_docs [ "a"; "b" ] in
        let store = Natix.Session.store s in
        let meta, ops = Replay.capture ~jobs:1 store (tasks_of [ "a"; "b" ]) in
        (* Change what //SPEAKER renders in one document. *)
        (match Natix.Session.query s ~doc:"a" "//SPEAKER[1]" with
        | Ok seq -> (
          match seq () with
          | Seq.Cons (c, _) -> (
            match Cursor.first_child c with
            | Some t when Cursor.is_text t ->
              Tree_store.update_text store (Cursor.node t) "MUTATED"
            | _ -> Alcotest.fail "speaker has no text child")
          | Seq.Nil -> Alcotest.fail "no speaker hit")
        | Error e -> Alcotest.failf "query: %s" (Error.to_string e));
        let r = Replay.run ~jobs:1 store meta ops in
        Alcotest.(check bool) "not ok" false (Replay.ok r);
        (match r.Replay.mismatches with
        | [ m ] ->
          Alcotest.(check (option string)) "mismatch on the mutated doc" (Some "a")
            m.Replay.doc
        | l -> Alcotest.failf "expected one mismatch, got %d" (List.length l));
        (* Non-query ops are skipped, and their presence downgrades the
           I/O assertion. *)
        let load_op = op ~seq:99 ~kind:"load" ~doc:(Some "x") ~detail:"x.xml" in
        let r = Replay.run ~jobs:1 store meta (load_op :: ops) in
        Alcotest.(check int) "skipped" 1 r.Replay.skipped;
        Alcotest.(check bool) "io not checked with non-query ops" false r.Replay.io_checked);
  ]

(* ------------------------------------------------------------------ *)
(* Session integration                                                 *)

let find_ops mon kind =
  List.filter (fun (o : Recorder.op) -> o.Recorder.kind = kind) (Mon.flight_ops mon)

let session_tests =
  [
    Alcotest.test_case "loads and consumed queries land in the flight ring" `Quick (fun () ->
        let s = session_with_docs [ "a"; "b" ] in
        let mon = mon_of s in
        Alcotest.(check int) "one load op per document" 2 (List.length (find_ops mon "load"));
        cold s;
        let added_before = Mon.flight_added mon in
        (* A dropped sequence must not record: the monitor sees completed
           operations only. *)
        (match Natix.Session.query s ~doc:"a" "//SPEAKER" with
        | Ok _dropped -> ()
        | Error e -> Alcotest.failf "query: %s" (Error.to_string e));
        Alcotest.(check int) "dropped query not recorded" added_before
          (Mon.flight_added mon);
        (match Natix.Session.query s ~doc:"a" "//SPEAKER" with
        | Ok seq ->
          let n = Seq.length seq in
          Alcotest.(check bool) "hits" true (n > 0);
          (match find_ops mon "query" with
          | [ o ] ->
            Alcotest.(check (option int)) "rows" (Some n) o.Recorder.rows;
            Alcotest.(check bool) "cold query did reads" true (o.Recorder.reads > 0);
            Alcotest.(check bool) "and charged sim time" true (o.Recorder.sim_ms > 0.)
          | l -> Alcotest.failf "expected one query op, got %d" (List.length l))
        | Error e -> Alcotest.failf "query: %s" (Error.to_string e));
        (* Errors record eagerly, with their class. *)
        (match Natix.Session.query s ~doc:"missing" "//X" with
        | Ok _ -> Alcotest.fail "query on missing doc succeeded"
        | Error _ -> ());
        let errs =
          List.filter (fun (o : Recorder.op) -> o.Recorder.outcome <> "ok") (Mon.flight_ops mon)
        in
        Alcotest.(check bool) "error op recorded" true
          (List.exists (fun (o : Recorder.op) -> o.Recorder.outcome = "error:storage") errs));
    Alcotest.test_case "batch entry points record per-task ops with real I/O deltas" `Quick
      (fun () ->
        let s = session_with_docs [ "a"; "b"; "c" ] in
        let mon = mon_of s in
        cold s;
        let outcome = Natix.Session.run_queries ~jobs:2 s (tasks_of [ "a"; "b"; "c" ]) in
        let batch_reads =
          List.fold_left
            (fun acc (d : Io_stats.t) -> acc + d.Io_stats.reads)
            0 outcome.Natix_par.Par.task_io
        in
        let ops = find_ops mon "query" in
        Alcotest.(check int) "one op per task" 3 (List.length ops);
        Alcotest.(check int) "per-op reads sum to the batch total" batch_reads
          (List.fold_left (fun acc (o : Recorder.op) -> acc + o.Recorder.reads) 0 ops);
        List.iter
          (fun (o : Recorder.op) ->
            Alcotest.(check bool) "digest" true (o.Recorder.digest <> None);
            Alcotest.(check bool) "rows" true (o.Recorder.rows <> None))
          ops;
        ignore (Natix.Session.scan_all ~jobs:2 s);
        Alcotest.(check int) "one scan op per document" 3
          (List.length (find_ops mon "scan")));
    Alcotest.test_case "deterministic workload exports byte-identical snapshots" `Quick
      (fun () ->
        let run () =
          let s = session_with_docs [ "a"; "b" ] in
          cold s;
          ignore (Natix.Session.run_queries ~jobs:1 s (tasks_of [ "a"; "b" ]));
          ignore (Natix.Session.scan_all ~jobs:1 s);
          let mon = mon_of s in
          let at_ms =
            (Tree_store.io_stats (Natix.Session.store s)).Io_stats.sim_ms
          in
          ( Mon.export_prometheus mon ~at_ms,
            Json.to_string (Mon.export_json mon ~at_ms) )
        in
        let p1, j1 = run () in
        let p2, j2 = run () in
        Alcotest.(check string) "prometheus" p1 p2;
        Alcotest.(check string) "json" j1 j2;
        Alcotest.(check bool) "non-trivial export" true (String.length p1 > 100));
    Alcotest.test_case "monitor off: no handle is injected, no ring exists" `Quick (fun () ->
        let s = Natix.Session.open_memory
            ~options:{ Natix.Session.Options.default with config = Some (config ()); monitor = false }
            () in
        Alcotest.(check bool) "no monitor" true (Natix.Session.mon s = None);
        Alcotest.(check bool) "no handle" true
          (Tree_store.obs (Natix.Session.store s) = None);
        match Natix.Session.store_document s ~name:"d" (parse (play_xml "d")) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "store: %s" (Error.to_string e));
  ]

(* ------------------------------------------------------------------ *)
(* Parallel attribution                                                *)

let attribution_tests =
  [
    Alcotest.test_case "(doc, phase) attribution has no cross-domain bleed at jobs=4" `Quick
      (fun () ->
        let queried = [ "a"; "b"; "c" ] in
        let s = session_with_docs (queried @ [ "idle" ]) in
        let mon = mon_of s in
        let store = Natix.Session.store s in
        cold s;
        let io = Tree_store.io_stats store in
        let before = Io_stats.copy io in
        (* Cumulative per-document totals before the batch: the windows
           also hold load-phase charges, so attribution is asserted on
           the cumulative counters' deltas. *)
        let totals () =
          let at_ms = (Io_stats.copy io).Io_stats.sim_ms in
          List.map
            (fun d -> (d.Account.doc, (d.Account.reads_total, d.Account.sim_ms_total)))
            (Mon.accounts mon ~at_ms)
        in
        let t0 = totals () in
        ignore (Natix.Session.run_queries ~jobs:4 s (tasks_of queried));
        let delta = Io_stats.diff (Io_stats.copy io) before in
        let t1 = totals () in
        let charged doc =
          let reads1, sim1 = List.assoc doc t1 in
          let reads0, sim0 = List.assoc doc t0 in
          (reads1 - reads0, sim1 -. sim0)
        in
        (* Every page read of the batch ran under some task's context, so
           the per-document charges partition the batch total exactly. *)
        Alcotest.(check int) "per-doc reads partition the batch total" delta.Io_stats.reads
          (List.fold_left (fun acc d -> acc + fst (charged d)) 0 queried);
        List.iter
          (fun d ->
            Alcotest.(check bool) (d ^ " charged reads") true (fst (charged d) > 0);
            Alcotest.(check bool) (d ^ " charged sim time") true (snd (charged d) > 0.))
          queried;
        (* The document no task touched was charged nothing. *)
        Alcotest.(check int) "idle doc: no reads" 0 (fst (charged "idle"));
        Alcotest.(check (float 1e-9)) "idle doc: no sim time" 0. (snd (charged "idle"));
        let at_ms = (Io_stats.copy io).Io_stats.sim_ms in
        (* The metrics registry attributed reads under a query-phase
           context for exactly the queried documents — "idle" only ever
           appears under its load phase. *)
        let snap = Mon.metrics_snapshot mon ~at_ms in
        let reads = List.find (fun s -> s.Registry.name = "reads") snap.Registry.series in
        let query_docs =
          List.filter_map
            (fun ((doc, phase), _) -> if phase = "query" then doc else None)
            reads.Registry.by_ctx
        in
        Alcotest.(check (list string)) "query-phase contexts" queried
          (List.sort_uniq compare query_docs))
  ]

(* ------------------------------------------------------------------ *)
(* JSONL sink durability                                               *)

let sink_tests =
  [
    Alcotest.test_case "trace file is complete and parseable up to the last checkpoint"
      `Quick (fun () ->
        let store_path = Filename.temp_file "natix_mon_store" ".natix" in
        let trace_path = Filename.temp_file "natix_mon_trace" ".jsonl" in
        let wal_path = Natix_store.Recovery.wal_path store_path in
        let cleanup () =
          List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
            [ store_path; trace_path; wal_path ]
        in
        Sys.remove store_path;
        Fun.protect ~finally:cleanup (fun () ->
            let lines () =
              let ic = open_in trace_path in
              let rec go acc =
                match input_line ic with
                | line -> go (line :: acc)
                | exception End_of_file ->
                  close_in ic;
                  List.rev acc
              in
              go []
            in
            let obs = Natix_obs.Obs.create ~sink:(Natix_obs.Sink.jsonl trace_path) () in
            let plan = Natix_store.Faulty_disk.create ~seed:11L () in
            let disk = Natix_store.Disk.on_file ~page_size:1024 store_path in
            Natix_store.Disk.set_faults disk (Some plan);
            let config = Config.with_obs obs { (config ()) with Config.page_size = 1024 } in
            let store = Tree_store.open_store ~config disk in
            Tree_store.autocommit store ~doc:"a" (fun () ->
                ignore (Loader.load store ~name:"a" (parse (play_xml "a"))));
            Tree_store.sync store;
            let flushed = lines () in
            Alcotest.(check bool) "checkpoint flushed the trace" true
              (List.length flushed > 0);
            List.iter (fun l -> ignore (Json.parse l : Json.t)) flushed;
            (* Crash the very next physical write; the sink must still
               hold a valid prefix — nothing torn mid-line. *)
            Natix_store.Faulty_disk.arm_crash ~torn:false plan 0;
            (match
               Tree_store.autocommit store ~doc:"b" (fun () ->
                   Loader.load store ~name:"b" (parse (play_xml "b")))
             with
            | _ -> Alcotest.fail "expected a crash"
            | exception Natix_store.Faulty_disk.Crash -> ());
            let after = lines () in
            Alcotest.(check bool) "no flushed line lost" true
              (List.length after >= List.length flushed);
            List.iter (fun l -> ignore (Json.parse l : Json.t)) after;
            Natix_store.Disk.close disk));
  ]

let suites =
  [
    ("mon.window", window_tests);
    ("mon.registry", registry_tests);
    ("mon.account", account_tests);
    ("mon.recorder", recorder_tests);
    ("mon.replay", replay_tests);
    ("mon.session", session_tests);
    ("mon.attribution", attribution_tests);
    ("mon.sink", sink_tests);
  ]
