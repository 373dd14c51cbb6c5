(* End-to-end request tracing: the span tree's two dimensions (global
   simulated clock, private-stream I/O), the reconciliation invariant
   (span selves sum to the request's exact stream delta, which equals
   the store's global counter delta for a lone request), deterministic
   exports, the WAL commit decomposition, per-tenant SLO edges, the
   tenant gate's wait spans, and the flight-dump satellites. *)

open Natix_core
module Api = Natix.Api
module Registry = Natix_server.Registry
module Rw_lock = Natix_server.Rw_lock
module Server = Natix_server.Server
module Trace = Natix_trace.Trace
module Slo = Natix_mon.Slo
module Recorder = Natix_mon.Recorder
module Io_stats = Natix_store.Io_stats
module Disk = Natix_store.Disk
module Recovery = Natix_store.Recovery
module Json = Natix_obs.Json

let config () = { (Config.default ()) with Config.page_size = 1024; buffer_bytes = 16 * 1024 }

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
           "<SPEECH><SPEAKER>S%d</SPEAKER><LINE>act %d speech %d of %s with some more words \
            to fill the page</LINE></SPEECH>"
           sp act sp name)
    done;
    Buffer.add_string b "</ACT>"
  done;
  Buffer.add_string b "</PLAY>";
  Buffer.contents b

let cold s = Tree_store.clear_buffers (Natix.Session.store s)

let session_with_docs names =
  let s = Natix.Session.open_memory ~options:{ Natix.Session.Options.default with config = Some (config ()) } () in
  List.iter
    (fun doc ->
      match
        Natix.Session.exec s (Api.Load { doc; xml = play_xml doc; order = Loader.Preorder })
      with
      | Api.Loaded _ -> ()
      | r -> Alcotest.failf "load %s: %a" doc Api.pp_response r)
    names;
  s

(* Wait for a cross-domain condition; the deadline turns a hang into a
   test failure instead of a stuck CI job. *)
let wait_for what f =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

let close_ms a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a)

let find_span name (r : Trace.report) =
  match List.find_opt (fun (s : Trace.span_report) -> s.Trace.name = name) r.Trace.spans with
  | Some s -> s
  | None ->
    Alcotest.failf "span %s missing; have [%s]" name
      (String.concat "; " (List.map (fun (s : Trace.span_report) -> s.Trace.name) r.Trace.spans))

let has_span name (r : Trace.report) =
  List.exists (fun (s : Trace.span_report) -> s.Trace.name = name) r.Trace.spans

let has_span_prefix p (r : Trace.report) =
  List.exists
    (fun (s : Trace.span_report) ->
      String.length s.Trace.name >= String.length p
      && String.sub s.Trace.name 0 (String.length p) = p)
    r.Trace.spans

(* The reconciliation invariant every report must satisfy: the root
   comes first, parents precede children, and the spans' self figures
   sum back to the root's private-stream delta — integers exactly,
   stream milliseconds up to float association. *)
let check_reconciles (r : Trace.report) =
  (match r.Trace.spans with
  | [] -> Alcotest.failf "%s: no spans" r.Trace.trace_id
  | root :: rest ->
    Alcotest.(check string) "root span name" "request" root.Trace.name;
    Alcotest.(check int) "root parent" 0 root.Trace.parent;
    Alcotest.(check bool) "root duration covers queue wait" true
      (close_ms root.Trace.dur_ms r.Trace.dur_ms && r.Trace.dur_ms >= r.Trace.queued_ms);
    List.iter
      (fun (s : Trace.span_report) ->
        if not (s.Trace.parent >= 1 && s.Trace.parent < s.Trace.id) then
          Alcotest.failf "%s: span %s (id %d) has parent %d" r.Trace.trace_id s.Trace.name
            s.Trace.id s.Trace.parent)
      rest);
  let sum =
    List.fold_left
      (fun acc (s : Trace.span_report) -> Trace.add_io acc s.Trace.self)
      Trace.zero_io r.Trace.spans
  in
  Alcotest.(check int)
    (r.Trace.trace_id ^ " reads reconcile")
    r.Trace.total.Trace.reads sum.Trace.reads;
  Alcotest.(check int)
    (r.Trace.trace_id ^ " writes reconcile")
    r.Trace.total.Trace.writes sum.Trace.writes;
  Alcotest.(check bool)
    (r.Trace.trace_id ^ " stream ms reconcile")
    true
    (close_ms r.Trace.total.Trace.io_ms sum.Trace.io_ms)

(* ------------------------------------------------------------------ *)
(* The span tree on a hand-driven clock                                 *)

(* A scripted trace with known figures: submitted at 0, picked up at 2,
   one exec span [2,8] reading 5 pages with one operator row [5,6]
   (1 ms ending at 6) claiming 3 of them, root closing at 9. *)
let scripted () =
  let now = ref 0. in
  let reads = ref 0 in
  let io () = { Trace.reads = !reads; writes = 0; io_ms = 0. } in
  let tr =
    Trace.create ~trace_id:"t-unit" ~tenant:"t" ~kind:"query" ~detail:"//x"
      ~clock:(fun () -> !now)
  in
  now := 2.;
  Trace.run tr ~io (fun () ->
      Trace.span tr "exec.query" (fun () ->
          now := 6.;
          Trace.io_child tr "op1.scan" ~io:{ Trace.reads = 3; writes = 0; io_ms = 0. }
            ~dur_ms:1.;
          reads := 5;
          now := 8.);
      now := 9.);
  Trace.finish tr

let unit_tests =
  [
    Alcotest.test_case "span tree: wall intervals, io deltas, self vs total" `Quick (fun () ->
        let r = scripted () in
        Alcotest.(check (float 1e-9)) "queued" 2. r.Trace.queued_ms;
        Alcotest.(check (float 1e-9)) "duration" 9. r.Trace.dur_ms;
        Alcotest.(check int) "total reads" 5 r.Trace.total.Trace.reads;
        Alcotest.(check (list string)) "opening order"
          [ "request"; "queue.wait"; "exec.query"; "op1.scan" ]
          (List.map (fun (s : Trace.span_report) -> s.Trace.name) r.Trace.spans);
        let root = find_span "request" r in
        let qw = find_span "queue.wait" r in
        let ex = find_span "exec.query" r in
        let op = find_span "op1.scan" r in
        Alcotest.(check int) "queue.wait under root" root.Trace.id qw.Trace.parent;
        Alcotest.(check int) "exec under root" root.Trace.id ex.Trace.parent;
        Alcotest.(check int) "operator under exec" ex.Trace.id op.Trace.parent;
        Alcotest.(check (float 1e-9)) "queue.wait duration" 2. qw.Trace.dur_ms;
        Alcotest.(check int) "queue.wait moves no io" 0 qw.Trace.total.Trace.reads;
        Alcotest.(check (float 1e-9)) "exec start" 2. ex.Trace.start_ms;
        Alcotest.(check (float 1e-9)) "exec duration" 6. ex.Trace.dur_ms;
        Alcotest.(check int) "exec total" 5 ex.Trace.total.Trace.reads;
        Alcotest.(check int) "exec self = total - operator rows" 2 ex.Trace.self.Trace.reads;
        Alcotest.(check int) "operator total" 3 op.Trace.total.Trace.reads;
        Alcotest.(check int) "root self telescopes to zero" 0 root.Trace.self.Trace.reads;
        check_reconciles r);
    Alcotest.test_case "folded flamegraph lines: self weights, sorted, stable" `Quick (fun () ->
        let r = scripted () in
        Alcotest.(check string) "folded"
          "request 1000\n\
           request;exec.query 5000\n\
           request;exec.query;op1.scan 1000\n\
           request;queue.wait 2000\n"
          (Trace.folded [ r ]);
        Alcotest.(check string) "json is deterministic"
          (Json.to_string (Trace.report_to_json (scripted ())))
          (Json.to_string (Trace.report_to_json r)));
    Alcotest.test_case "folding reports sums shared stacks and drops weightless ones" `Quick
      (fun () ->
        (* Picked up at submission, one exec span [10,13] holding an
           instantaneous gate wait: queue.wait and gate.read weigh 0, the
           root's self is 0, exec.query's self is 3 ms. *)
        let instant =
          let now = ref 10. in
          let tr =
            Trace.create ~trace_id:"t-instant" ~tenant:"t" ~kind:"query" ~detail:"//y"
              ~clock:(fun () -> !now)
          in
          Trace.run tr
            ~io:(fun () -> Trace.zero_io)
            (fun () ->
              Trace.span tr "exec.query" (fun () ->
                  Trace.interval tr "gate.read" ~t0:10. ~t1:10.;
                  now := 13.));
          Trace.finish tr
        in
        Alcotest.(check string) "summed, sorted, newline-terminated"
          "request 1000\n\
           request;exec.query 8000\n\
           request;exec.query;op1.scan 1000\n\
           request;queue.wait 2000\n"
          (Trace.folded [ scripted (); instant ]);
        Alcotest.(check string) "no report, no line" "" (Trace.folded []));
    Alcotest.test_case "ambient install, restore, and exception safety" `Quick (fun () ->
        Alcotest.(check bool) "no ambient trace outside run" true (Trace.active () = None);
        let now = ref 0. in
        let tr =
          Trace.create ~trace_id:"t-boom" ~tenant:"t" ~kind:"load" ~detail:""
            ~clock:(fun () -> !now)
        in
        (try
           Trace.run tr
             ~io:(fun () -> Trace.zero_io)
             (fun () ->
               (match Trace.active () with
               | Some t -> Alcotest.(check string) "ambient is ours" "t-boom" (Trace.trace_id t)
               | None -> Alcotest.fail "no ambient trace inside run");
               Trace.span tr "exec.boom" (fun () ->
                   now := 3.;
                   raise Exit))
         with Exit -> ());
        Alcotest.(check bool) "ambient restored after raise" true (Trace.active () = None);
        let r = Trace.finish tr in
        List.iter
          (fun (s : Trace.span_report) ->
            if Float.is_nan s.Trace.dur_ms then
              Alcotest.failf "span %s left open through the exception" s.Trace.name)
          r.Trace.spans;
        Alcotest.(check bool) "raising span recorded" true (has_span "exec.boom" r);
        Alcotest.(check (float 1e-9)) "root closed at raise time" 3. r.Trace.dur_ms);
  ]

(* ------------------------------------------------------------------ *)
(* Through the server: loopback requests, reconciliation, determinism   *)

let with_traced_server ?(docs = [ "a"; "b" ]) ?(jobs = 0) ?(trace = Server.default_trace) f =
  let s = session_with_docs docs in
  let registry = Registry.create () in
  Registry.mount registry "t" s;
  let server =
    Server.create
      ~config:{ Server.default_config with Server.jobs; trace = Some trace }
      registry
  in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Natix.Session.close s)
    (fun () -> f server s)

let mix =
  [
    Api.Ping;
    Api.Query { doc = "a"; path = "//SPEAKER"; texts = false };
    Api.Scan { element = "SPEAKER"; texts = true };
    Api.Load { doc = "c"; xml = play_xml "c"; order = Loader.Preorder };
    Api.Query { doc = "b"; path = "//LINE"; texts = true };
    Api.Stat { doc = None };
  ]

let call_mix server =
  let conn = Server.Loopback.connect server ~tenant:"t" in
  List.iter
    (fun req ->
      match Server.Loopback.call conn req with
      | Api.Err e -> Alcotest.failf "%a: %s" Api.pp_request req (Error.to_string e)
      | Api.Overloaded { reason } -> Alcotest.failf "%a: shed (%s)" Api.pp_request req reason
      | _ -> ())
    mix

let server_tests =
  [
    Alcotest.test_case "every request reconciles, inline and across workers" `Quick (fun () ->
        List.iter
          (fun jobs ->
            with_traced_server ~jobs (fun server s ->
                cold s;
                call_mix server;
                let reports = Server.trace_reports server in
                Alcotest.(check int)
                  (Printf.sprintf "jobs=%d: one report per request" jobs)
                  (List.length mix) (List.length reports);
                List.iter check_reconciles reports;
                Alcotest.(check (list string)) "kinds in submission order"
                  (List.map Api.kind mix)
                  (List.map (fun (r : Trace.report) -> r.Trace.kind) reports);
                Alcotest.(check (list string)) "server-assigned ids are sequential"
                  [ "t-000001"; "t-000002"; "t-000003"; "t-000004"; "t-000005"; "t-000006" ]
                  (List.map (fun (r : Trace.report) -> r.Trace.trace_id) reports);
                List.iter
                  (fun (r : Trace.report) ->
                    Alcotest.(check bool) "queue.wait present" true (has_span "queue.wait" r);
                    match r.Trace.kind with
                    | "query" ->
                      Alcotest.(check bool) "query ran under the shared gate" true
                        (has_span "gate.read" r);
                      Alcotest.(check bool) "exec span" true (has_span "exec.query" r);
                      Alcotest.(check bool) "operator rows attached" true (has_span_prefix "op" r);
                      Alcotest.(check bool) "EXPLAIN ANALYZE kept" true (r.Trace.plan <> None)
                    | "load" ->
                      Alcotest.(check bool) "load ran under the exclusive gate" true
                        (has_span "gate.write" r);
                      Alcotest.(check bool) "exec span" true (has_span "exec.load" r);
                      Alcotest.(check bool) "parse phase" true (has_span "xml.parse" r);
                      Alcotest.(check bool) "store phase" true (has_span "load.store" r)
                    | _ -> ())
                  reports))
          [ 0; 1; 4 ]);
    Alcotest.test_case "a lone cold query's trace equals the store's counter delta" `Quick
      (fun () ->
        with_traced_server ~jobs:0 (fun server s ->
            let conn = Server.Loopback.connect server ~tenant:"t" in
            cold s;
            let store = Natix.Session.store s in
            let before = Io_stats.copy (Tree_store.io_stats store) in
            (match
               Server.Loopback.call conn (Api.Query { doc = "a"; path = "//SPEAKER"; texts = false })
             with
            | Api.Hits hits -> Alcotest.(check bool) "hits" true (hits <> [])
            | r -> Alcotest.failf "query: %a" Api.pp_response r);
            let after = Io_stats.copy (Tree_store.io_stats store) in
            let r =
              match Server.trace_reports server with
              | [ r ] -> r
              | l -> Alcotest.failf "expected one report, got %d" (List.length l)
            in
            Alcotest.(check bool) "cold query did real reads" true (r.Trace.total.Trace.reads > 0);
            Alcotest.(check int) "global reads delta"
              (after.Io_stats.reads - before.Io_stats.reads)
              r.Trace.total.Trace.reads;
            Alcotest.(check int) "global writes delta"
              (after.Io_stats.writes - before.Io_stats.writes)
              r.Trace.total.Trace.writes;
            Alcotest.(check bool) "global sim-ms delta" true
              (close_ms (after.Io_stats.sim_ms -. before.Io_stats.sim_ms) r.Trace.total.Trace.io_ms);
            check_reconciles r));
    Alcotest.test_case "a served request's spans cover its own I/O" `Quick (fun () ->
        let docs = [ "a"; "b"; "c"; "d"; "e"; "f" ] in
        with_traced_server ~docs ~trace:{ Server.slow_ms = 5.; trace_ring = 4 } (fun server s ->
            let store = Natix.Session.store s in
            let disk = Natix_store.Buffer_pool.disk (Tree_store.buffer_pool store) in
            Alcotest.(check bool) "store larger than its pool" true
              (Disk.size_bytes disk > (config ()).Config.buffer_bytes);
            cold s;
            let conn = Server.Loopback.connect server ~tenant:"t" in
            (match
               Server.Loopback.call conn (Api.Query { doc = "a"; path = "//SPEAKER"; texts = false })
             with
            | Api.Hits _ -> ()
            | r -> Alcotest.failf "query: %a" Api.pp_response r);
            let r =
              match Server.trace_reports server with
              | [ r ] -> r
              | l -> Alcotest.failf "expected one report, got %d" (List.length l)
            in
            let io_ms = r.Trace.total.Trace.io_ms in
            Alcotest.(check bool) "the cold query paid for I/O" true (io_ms > 5.);
            (* Both clocks add the same charges, in a different order. *)
            Alcotest.(check bool)
              (Printf.sprintf "root duration %.3f ms covers its I/O %.3f ms" r.Trace.dur_ms io_ms)
              true
              (r.Trace.dur_ms >= io_ms || close_ms r.Trace.dur_ms io_ms);
            let by_id = Hashtbl.create 16 in
            List.iter (fun (sp : Trace.span_report) -> Hashtbl.replace by_id sp.Trace.id sp) r.Trace.spans;
            List.iter
              (fun (sp : Trace.span_report) ->
                match Hashtbl.find_opt by_id sp.Trace.parent with
                | None -> ()
                | Some p ->
                  let eps = 1e-9 *. (1. +. Float.abs p.Trace.start_ms) in
                  if
                    sp.Trace.start_ms < p.Trace.start_ms -. eps
                    || sp.Trace.start_ms +. sp.Trace.dur_ms
                       > p.Trace.start_ms +. p.Trace.dur_ms +. eps
                  then
                    Alcotest.failf "span %s [%f, +%f] outside its parent %s [%f, +%f]" sp.Trace.name
                      sp.Trace.start_ms sp.Trace.dur_ms p.Trace.name p.Trace.start_ms p.Trace.dur_ms)
              r.Trace.spans;
            check_reconciles r;
            (* The SLO window holds the request's duration, its I/O
               included. *)
            (match
               Server.slo_snapshot server ~at_ms:(r.Trace.submitted_ms +. r.Trace.dur_ms)
             with
            | [ st ] -> (
              match st.Slo.p50_ms with
              | Some p50 ->
                Alcotest.(check bool)
                  (Printf.sprintf "SLO p50 %.3f ms is at least the I/O %.3f ms" p50 io_ms)
                  true (p50 >= io_ms)
              | None -> Alcotest.fail "no SLO p50")
            | l -> Alcotest.failf "expected one tenant, got %d" (List.length l));
            Alcotest.(check (list string)) "slow log" [ r.Trace.trace_id ]
              (List.map (fun (r : Trace.report) -> r.Trace.trace_id) (Server.slow_reports server))));
    Alcotest.test_case "twin runs export byte-identical traces" `Quick (fun () ->
        let run_once () =
          with_traced_server ~jobs:0 (fun server s ->
              cold s;
              call_mix server;
              let reports = Server.trace_reports server in
              ( List.map (fun r -> Json.to_string (Trace.report_to_json r)) reports,
                Trace.folded reports ))
        in
        let json1, folded1 = run_once () in
        let json2, folded2 = run_once () in
        Alcotest.(check bool) "traces exported" true (json1 <> []);
        Alcotest.(check (list string)) "json byte-identical" json1 json2;
        Alcotest.(check bool) "folded non-empty" true (folded1 <> "");
        Alcotest.(check string) "folded byte-identical" folded1 folded2);
    Alcotest.test_case "a served plan counts the proxy hops Session.analyze counts" `Quick
      (fun () ->
        with_traced_server ~jobs:0 (fun server s ->
            let path = "//SPEAKER" in
            let conn = Server.Loopback.connect server ~tenant:"t" in
            (match Server.Loopback.call conn (Api.Query { doc = "a"; path; texts = false }) with
            | Api.Hits _ -> ()
            | r -> Alcotest.failf "query: %a" Api.pp_response r);
            (* The plan's last line is "total: ... proxy_hops=N". *)
            let served_hops =
              match Server.trace_reports server with
              | [ { Trace.plan = Some plan; _ } ] -> (
                match List.rev (String.split_on_char '=' plan) with
                | n :: _ -> int_of_string (String.trim n)
                | [] -> Alcotest.fail "empty plan")
              | _ -> Alcotest.fail "expected one report with a plan"
            in
            match Natix.Session.analyze s ~doc:"a" path with
            | Error e -> Alcotest.fail (Error.to_string e)
            | Ok a ->
              Alcotest.(check bool) "the query crosses proxies" true
                (a.Natix_query.Engine.total_proxy_hops > 0);
              Alcotest.(check int) "served proxy_hops" a.Natix_query.Engine.total_proxy_hops
                served_hops));
    Alcotest.test_case "client trace ids ride the frame; the ring caps; slow log" `Quick
      (fun () ->
        with_traced_server
          ~trace:{ Server.slow_ms = 0.; trace_ring = 4 }
          (fun server s ->
            cold s;
            let conn = Server.Loopback.connect server ~tenant:"t" in
            let query = Api.Query { doc = "a"; path = "//SPEAKER"; texts = false } in
            (match Server.Loopback.call ~trace_id:"req-7f3" conn query with
            | Api.Hits _ -> ()
            | r -> Alcotest.failf "query: %a" Api.pp_response r);
            for _ = 1 to 5 do
              ignore (Server.Loopback.call conn query)
            done;
            let ids =
              List.map (fun (r : Trace.report) -> r.Trace.trace_id) (Server.trace_reports server)
            in
            (* Six requests, ring of four: the client-named one fell off;
               server-assigned ids never consumed a sequence number for
               it. *)
            Alcotest.(check (list string)) "ring keeps the newest, oldest first"
              [ "t-000002"; "t-000003"; "t-000004"; "t-000005" ]
              ids;
            let slow = Server.slow_reports server in
            Alcotest.(check int) "slow_ms = 0 logs every request (capped)" 4 (List.length slow);
            List.iter
              (fun (r : Trace.report) ->
                Alcotest.(check bool) "slow query keeps its plan" true (r.Trace.plan <> None))
              slow));
    Alcotest.test_case "server stats answer matches the dispatcher, untraced" `Quick (fun () ->
        with_traced_server (fun server _s ->
            call_mix server;
            let conn = Server.Loopback.connect server ~tenant:"t" in
            let st = Server.stats server in
            (match Server.Loopback.call conn Api.Server_stats with
            | Api.Server_statted w ->
              Alcotest.(check int) "served" st.Server.served w.Api.served;
              Alcotest.(check int) "shed" st.Server.shed w.Api.shed;
              Alcotest.(check int) "queued" 0 w.Api.queued;
              Alcotest.(check int) "running" 0 w.Api.running;
              let c = Server.config server in
              Alcotest.(check int) "jobs" c.Server.jobs w.Api.jobs;
              Alcotest.(check int) "max_inflight" c.Server.max_inflight w.Api.max_inflight;
              Alcotest.(check int) "queue_depth" c.Server.queue_depth w.Api.queue_depth
            | r -> Alcotest.failf "server stats: %a" Api.pp_response r);
            Alcotest.(check int) "stats request leaves no trace" (List.length mix)
              (List.length (Server.trace_reports server))));
  ]

(* ------------------------------------------------------------------ *)
(* WAL commit decomposition                                             *)

let fresh path =
  if Sys.file_exists path then Sys.remove path;
  let wal = Recovery.wal_path path in
  if Sys.file_exists wal then Sys.remove wal

let with_store_file f =
  let path = Filename.temp_file "natix_trace" ".db" in
  Fun.protect
    ~finally:(fun () -> fresh path)
    (fun () ->
      fresh path;
      f path)

let commit_tests =
  [
    Alcotest.test_case "group commit decomposes into queue and fsync spans" `Quick (fun () ->
        with_store_file (fun path ->
            let disk = Disk.on_file ~page_size:1024 path in
            let store =
              Tree_store.open_store ~config:{ (config ()) with Config.commit_delay = 5. } disk
            in
            Fun.protect
              ~finally:(fun () -> Tree_store.close ~commit:false store)
              (fun () ->
                let dm = Document_manager.create ~index:Document_manager.Off store in
                let clock () = (Disk.stats disk).Io_stats.sim_ms in
                let io () =
                  let s = Disk.active_stats disk in
                  {
                    Trace.reads = s.Io_stats.reads;
                    writes = s.Io_stats.writes;
                    io_ms = s.Io_stats.sim_ms;
                  }
                in
                let tr =
                  Trace.create ~trace_id:"t-commit" ~tenant:"t" ~kind:"load" ~detail:"doc" ~clock
                in
                Trace.run tr ~io (fun () ->
                    Trace.span tr "load.store" (fun () ->
                        match
                          Document_manager.store_transactional dm ~name:"doc"
                            (Natix_xml.Xml_parser.parse (play_xml "doc"))
                        with
                        | Ok _ -> ()
                        | Error e -> Alcotest.failf "store: %s" (Error.to_string e)));
                let r = Trace.finish tr in
                check_reconciles r;
                let parent = find_span "load.store" r in
                let queue = find_span "commit.queue" r in
                let fsync = find_span "commit.fsync" r in
                Alcotest.(check int) "commit.queue under the store span" parent.Trace.id
                  queue.Trace.parent;
                Alcotest.(check int) "commit.fsync under the store span" parent.Trace.id
                  fsync.Trace.parent;
                (* A lone committer leads immediately and pays the whole
                   delay window inside its own fsync span. *)
                Alcotest.(check bool) "no leadership wait" true (queue.Trace.dur_ms >= 0.);
                Alcotest.(check bool)
                  (Printf.sprintf "fsync absorbs the delay window (%g ms)" fsync.Trace.dur_ms)
                  true (fsync.Trace.dur_ms >= 5.);
                Alcotest.(check bool) "queue hands off to fsync" true
                  (close_ms (queue.Trace.start_ms +. queue.Trace.dur_ms) fsync.Trace.start_ms);
                Alcotest.(check int) "waits move no private io" 0
                  (queue.Trace.total.Trace.reads + fsync.Trace.total.Trace.reads
                 + queue.Trace.total.Trace.writes + fsync.Trace.total.Trace.writes))));
  ]

(* ------------------------------------------------------------------ *)
(* SLO windows: per-tenant request latency on the simulated clock      *)

let slo_tests =
  [
    Alcotest.test_case "per-tenant latency windows slide, sorted by tenant" `Quick (fun () ->
        let slo = Slo.create () in
        List.iter
          (fun (at_ms, dur_ms) -> Slo.observe slo ~tenant:"t" ~at_ms ~dur_ms)
          [ (0., 10.); (1., 100.); (2., 120.) ];
        (match Slo.snapshot slo ~at_ms:2. with
        | [ t ] ->
          Alcotest.(check int) "all three live" 3 t.Slo.count;
          Alcotest.(check bool) "p99 over the slow pair" true (Option.get t.Slo.p99_ms > 100.)
        | l -> Alcotest.failf "expected one tenant, got %d" (List.length l));
        (* The window spans 60 s of the clock; by 62 s the first three
           observations have slid out. *)
        Slo.observe slo ~tenant:"t" ~at_ms:62_000. ~dur_ms:5.;
        Slo.observe slo ~tenant:"t" ~at_ms:62_001. ~dur_ms:200.;
        Slo.observe slo ~tenant:"a" ~at_ms:62_002. ~dur_ms:2.;
        match Slo.snapshot slo ~at_ms:62_002. with
        | [ a; t ] ->
          Alcotest.(check string) "sorted by tenant" "a" a.Slo.tenant;
          Alcotest.(check string) "sorted by tenant" "t" t.Slo.tenant;
          Alcotest.(check int) "a holds its one observation" 1 a.Slo.count;
          Alcotest.(check int) "t window holds the live observations" 2 t.Slo.count
        | l -> Alcotest.failf "expected two tenants, got %d" (List.length l));
    Alcotest.test_case "the server's slo wiring feeds one window per tenant" `Quick (fun () ->
        with_traced_server (fun server s ->
            cold s;
            let conn = Server.Loopback.connect server ~tenant:"t" in
            for _ = 1 to 4 do
              ignore
                (Server.Loopback.call conn (Api.Query { doc = "a"; path = "//SPEAKER"; texts = false }))
            done;
            let store = Natix.Session.store s in
            let at_ms = (Tree_store.io_stats store).Io_stats.sim_ms in
            match Server.slo_snapshot server ~at_ms with
            | [ st ] ->
              Alcotest.(check string) "tenant" "t" st.Slo.tenant;
              Alcotest.(check int) "observations" 4 st.Slo.count;
              Alcotest.(check bool) "moving p99" true (st.Slo.p99_ms <> None)
            | l -> Alcotest.failf "expected one tenant, got %d" (List.length l)));
  ]

(* ------------------------------------------------------------------ *)
(* The tenant gate: writer preference and its wait spans                *)

(* Hold the gate shared from a helper domain until [release] is set;
   [held] reports acquisition so the main domain can sequence. *)
let holding_reader gate ~held ~release =
  Domain.spawn (fun () ->
      Rw_lock.with_read gate (fun () ->
          Atomic.set held true;
          while not (Atomic.get release) do
            Unix.sleepf 0.001
          done))

let gate_tests =
  [
    Alcotest.test_case "late readers queue behind a waiting writer" `Quick (fun () ->
        let gate = Rw_lock.create () in
        let order = ref [] in
        let mu = Mutex.create () in
        let record tag = Mutex.protect mu (fun () -> order := tag :: !order) in
        let seen tag = Mutex.protect mu (fun () -> List.mem tag !order) in
        let held = Atomic.make false and release = Atomic.make false in
        let holder = holding_reader gate ~held ~release in
        wait_for "holder shared acquisition" (fun () -> Atomic.get held);
        let writer =
          Domain.spawn (fun () ->
              record "w-queued";
              Rw_lock.with_write gate (fun () -> record "w-held"))
        in
        wait_for "writer queued" (fun () -> seen "w-queued");
        (* Give the writer time to block on the gate before the reader
           arrives; preference is what keeps this deterministic. *)
        Unix.sleepf 0.05;
        let reader =
          Domain.spawn (fun () -> Rw_lock.with_read gate (fun () -> record "r2-held"))
        in
        Unix.sleepf 0.05;
        Alcotest.(check bool) "writer blocked by the active reader" false (seen "w-held");
        Alcotest.(check bool) "late reader blocked by the waiting writer" false (seen "r2-held");
        Atomic.set release true;
        Domain.join holder;
        Domain.join writer;
        Domain.join reader;
        match List.rev !order with
        | [ "w-queued"; "w-held"; "r2-held" ] -> ()
        | l -> Alcotest.failf "acquisition order: [%s]" (String.concat "; " l));
    Alcotest.test_case "a writer is never starved by reader churn" `Quick (fun () ->
        let gate = Rw_lock.create () in
        let stop = Atomic.make false in
        let acquired = Atomic.make false in
        let readers =
          List.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  while not (Atomic.get stop) do
                    Rw_lock.with_read gate (fun () -> Unix.sleepf 0.0005)
                  done))
        in
        let writer =
          Domain.spawn (fun () -> Rw_lock.with_write gate (fun () -> Atomic.set acquired true))
        in
        wait_for "writer acquisition under churn" (fun () -> Atomic.get acquired);
        Atomic.set stop true;
        Domain.join writer;
        List.iter Domain.join readers);
    Alcotest.test_case "gate blocking shows up as a wait span" `Quick (fun () ->
        let gate = Rw_lock.create () in
        let now = ref 0. in
        let report = ref None in
        let held = Atomic.make false and release = Atomic.make false in
        let holder = holding_reader gate ~held ~release in
        wait_for "holder shared acquisition" (fun () -> Atomic.get held);
        let writer =
          Domain.spawn (fun () ->
              let tr =
                Trace.create ~trace_id:"t-gate" ~tenant:"t" ~kind:"load" ~detail:""
                  ~clock:(fun () -> !now)
              in
              Trace.run tr
                ~io:(fun () -> Trace.zero_io)
                (fun () -> Rw_lock.with_write gate (fun () -> ()));
              report := Some (Trace.finish tr))
        in
        (* Let the writer reach the gate, then advance the simulated
           clock while it blocks: the wait span must cover exactly the
           window the clock moved. *)
        Unix.sleepf 0.05;
        now := 10.;
        Atomic.set release true;
        Domain.join holder;
        Domain.join writer;
        let r = match !report with Some r -> r | None -> Alcotest.fail "no report" in
        let span = find_span "gate.write" r in
        Alcotest.(check (float 1e-9)) "blocked window" 10. span.Trace.dur_ms;
        Alcotest.(check int) "waiting moved no io" 0 span.Trace.total.Trace.reads;
        let tr2 =
          Trace.create ~trace_id:"t-free" ~tenant:"t" ~kind:"query" ~detail:""
            ~clock:(fun () -> !now)
        in
        Trace.run tr2
          ~io:(fun () -> Trace.zero_io)
          (fun () -> Rw_lock.with_read gate (fun () -> ()));
        let free = find_span "gate.read" (Trace.finish tr2) in
        Alcotest.(check (float 1e-9)) "a free gate is a zero-length wait" 0. free.Trace.dur_ms);
  ]

(* ------------------------------------------------------------------ *)
(* Flight-dump satellites: the path override and the trace id in meta   *)

let flight_tests =
  [
    Alcotest.test_case "NATIX_FLIGHT_PATH overrides the dump destination" `Quick (fun () ->
        Unix.putenv "NATIX_FLIGHT_PATH" "/tmp/natix-test-flight.jsonl";
        Alcotest.(check string) "env wins" "/tmp/natix-test-flight.jsonl"
          (Natix.Session.flight_path ());
        Unix.putenv "NATIX_FLIGHT_PATH" "";
        Alcotest.(check string) "empty env falls back" "natix-flight.jsonl"
          (Natix.Session.flight_path ()));
    Alcotest.test_case "a flight dump names the request that triggered it" `Quick (fun () ->
        let s = session_with_docs [ "d" ] in
        let dump trace_id =
          let path = Filename.temp_file "natix_flight" ".jsonl" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              let oc = open_out path in
              Natix.Session.dump_flight ?trace_id s oc;
              close_out oc;
              let meta, ops = Recorder.load path in
              Alcotest.(check bool) "flight ring captured the load" true (ops <> []);
              meta.Recorder.trace_id)
        in
        Alcotest.(check (option string)) "trace id rides the meta line" (Some "t-000042")
          (dump (Some "t-000042"));
        Alcotest.(check (option string)) "absent without a failing request" None (dump None);
        Natix.Session.close s);
  ]

let suites =
  [
    ("trace.spans", unit_tests);
    ("trace.server", server_tests);
    ("trace.commit", commit_tests);
    ("trace.slo", slo_tests);
    ("trace.gate", gate_tests);
    ("trace.flight", flight_tests);
  ]
