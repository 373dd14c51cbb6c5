(* Tests for the observability subsystem: JSON codec, metrics registry
   (bucket edges), trace sinks (ring ordering, JSONL round-trip), span
   timing on the simulated clock, and the store-level measurement
   protocol (hit ratio / reset_stats / clear). *)

open Natix_util
open Natix_obs
module Buffer_pool = Natix_store.Buffer_pool
module Disk = Natix_store.Disk

let rid p s = Rid.make ~page:p ~slot:s

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let json_tests =
  [
    Alcotest.test_case "print/parse roundtrip" `Quick (fun () ->
        let v =
          Json.Obj
            [
              ("a", Json.Int 42);
              ("b", Json.Float 1.5);
              ("s", Json.String "with \"quotes\" and \n control");
              ("l", Json.List [ Json.Bool true; Json.Null; Json.Int (-7) ]);
              ("nested", Json.Obj [ ("empty", Json.List []) ]);
            ]
        in
        let v' = Json.parse (Json.to_string v) in
        Alcotest.(check string) "stable" (Json.to_string v) (Json.to_string v'));
    Alcotest.test_case "member lookup" `Quick (fun () ->
        let v = Json.parse {|{"x": {"y": [1, 2, 3]}}|} in
        match Json.member "x" v with
        | Some inner ->
          Alcotest.(check bool) "y present" true (Json.member "y" inner <> None);
          Alcotest.(check bool) "z absent" true (Json.member "z" inner = None)
        | None -> Alcotest.fail "x missing");
    Alcotest.test_case "non-finite floats become null" `Quick (fun () ->
        Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
        Alcotest.(check string)
          "inf" "null"
          (Json.to_string (Json.Float Float.infinity)));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let metrics_tests =
  [
    Alcotest.test_case "histogram buckets are upper-inclusive" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.register_histogram m "h" ~edges:[| 10.; 20.; 30. |];
        List.iter (Metrics.observe m "h") [ 9.; 10.; 10.5; 20.; 30.; 31.; 1000. ];
        match Metrics.histogram m "h" with
        | None -> Alcotest.fail "histogram lost"
        | Some (edges, counts, sum, n) ->
          Alcotest.(check int) "edge count" 3 (Array.length edges);
          (* 9 and 10 in <=10; 10.5 and 20 in <=20; 30 in <=30; 31 and
             1000 overflow. *)
          Alcotest.(check (array int)) "counts" [| 2; 2; 1; 2 |] counts;
          Alcotest.(check int) "n" 7 n;
          Alcotest.(check (float 1e-9)) "sum" 1110.5 sum);
    Alcotest.test_case "re-registration: idempotent same edges, rejects new" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.register_histogram m "h" ~edges:[| 1.; 2. |];
        Metrics.observe m "h" 1.5;
        Metrics.register_histogram m "h" ~edges:[| 1.; 2. |];
        (match Metrics.histogram m "h" with
        | Some (_, _, _, n) -> Alcotest.(check int) "kept observations" 1 n
        | None -> Alcotest.fail "histogram lost");
        Alcotest.check_raises "different edges rejected"
          (Invalid_argument "Metrics.register_histogram: \"h\" re-registered with different edges")
          (fun () -> Metrics.register_histogram m "h" ~edges:[| 3.; 4. |]));
    Alcotest.test_case "counters and json snapshot" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.incr m "a";
        Metrics.incr ~by:4 m "a";
        Metrics.incr m "b";
        Metrics.register_histogram m "h" ~edges:[| 1. |];
        Metrics.observe m "h" 0.5;
        let j = Metrics.to_json m in
        let counter name =
          match Option.bind (Json.member "counters" j) (Json.member name) with
          | Some (Json.Int v) -> v
          | _ -> Alcotest.failf "counter %s missing" name
        in
        Alcotest.(check int) "a" 5 (counter "a");
        Alcotest.(check int) "b" 1 (counter "b");
        (match Option.bind (Json.member "histograms" j) (Json.member "h") with
        | Some h ->
          Alcotest.(check bool) "edges present" true (Json.member "edges" h <> None);
          Alcotest.(check bool) "counts present" true (Json.member "counts" h <> None)
        | None -> Alcotest.fail "histogram missing from snapshot");
        Metrics.reset m;
        Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter m "a"));
    Alcotest.test_case "quantile: empty and degenerate histograms yield None, never NaN"
      `Quick (fun () ->
        let m = Metrics.create () in
        Alcotest.(check (option (float 1e-9))) "unknown name" None (Metrics.quantile m "h" 0.5);
        Metrics.register_histogram m "h" ~edges:[| 1.; 2. |];
        Alcotest.(check (option (float 1e-9))) "registered but empty" None
          (Metrics.quantile m "h" 0.5);
        (* Non-finite observations are dropped, so the histogram stays
           empty and the sum stays finite. *)
        List.iter (Metrics.observe m "h") [ Float.nan; Float.infinity; Float.neg_infinity ];
        Alcotest.(check (option (float 1e-9))) "still empty after non-finite feeds" None
          (Metrics.quantile m "h" 0.5);
        (match Metrics.histogram m "h" with
        | Some (_, _, sum, n) ->
          Alcotest.(check int) "n counts only finite observations" 0 n;
          Alcotest.(check bool) "sum stays finite" true (Float.is_finite sum)
        | None -> Alcotest.fail "histogram lost");
        Metrics.observe m "h" 1.5;
        (match Metrics.quantile m "h" 1.0 with
        | Some v -> Alcotest.(check bool) "finite quantile" true (Float.is_finite v)
        | None -> Alcotest.fail "quantile missing after a finite observation");
        Alcotest.check_raises "q out of range rejected"
          (Invalid_argument "Metrics.quantile: q must be in [0, 1]") (fun () ->
            ignore (Metrics.quantile m "h" 1.5)));
    Alcotest.test_case "register_histogram rejects non-finite edges" `Quick (fun () ->
        let m = Metrics.create () in
        Alcotest.check_raises "NaN edge rejected"
          (Invalid_argument "Metrics.register_histogram: edges must be finite and strictly increasing")
          (fun () -> Metrics.register_histogram m "bad" ~edges:[| 1.; Float.nan |]);
        Alcotest.check_raises "infinite edge rejected"
          (Invalid_argument "Metrics.register_histogram: edges must be finite and strictly increasing")
          (fun () -> Metrics.register_histogram m "bad" ~edges:[| 1.; Float.infinity |]));
  ]

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let mk_event seq kind = { Event.seq; at_ms = float_of_int seq; kind; ctx = None }

let sink_tests =
  [
    Alcotest.test_case "ring keeps the newest events, oldest first" `Quick (fun () ->
        let r = Sink.ring ~capacity:4 () in
        for i = 1 to 6 do
          Sink.emit r (mk_event i (Event.Page_fix { page = i; hit = true }))
        done;
        Alcotest.(check int) "emitted counts all" 6 (Sink.emitted r);
        let seqs = List.map (fun (e : Event.t) -> e.seq) (Sink.events r) in
        Alcotest.(check (list int)) "window" [ 3; 4; 5; 6 ] seqs);
    Alcotest.test_case "ring below capacity returns everything" `Quick (fun () ->
        let r = Sink.ring ~capacity:8 () in
        for i = 1 to 3 do
          Sink.emit r (mk_event i (Event.Page_flush { page = i }))
        done;
        Alcotest.(check (list int)) "all three" [ 1; 2; 3 ]
          (List.map (fun (e : Event.t) -> e.seq) (Sink.events r)));
    Alcotest.test_case "jsonl roundtrips through the parser" `Quick (fun () ->
        let path = Filename.temp_file "natix_trace" ".jsonl" in
        let s = Sink.jsonl path in
        let emitted =
          [
            mk_event 1 (Event.Io { page = 3; write = true; sequential = false });
            mk_event 2 (Event.Record_alloc { rid = rid 3 1; bytes = 128 });
            mk_event 3
              (Event.Split
                 { rid = rid 3 1; decision = Event.Cluster; fill = 0.875; record_bytes = 4000 });
            mk_event 4 (Event.Proxy_hop { rid = rid 3 1; chain = 2 });
          ]
        in
        List.iter (Sink.emit s) emitted;
        Sink.close s;
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        let parsed = List.rev_map Json.parse !lines in
        Alcotest.(check int) "line per event" (List.length emitted) (List.length parsed);
        List.iter2
          (fun (e : Event.t) j ->
            (match Json.member "seq" j with
            | Some (Json.Int seq) -> Alcotest.(check int) "seq" e.seq seq
            | _ -> Alcotest.fail "seq missing");
            match Json.member "type" j with
            | Some (Json.String ty) ->
              Alcotest.(check string) "type" (Event.type_name e.kind) ty
            | _ -> Alcotest.fail "type missing")
          emitted parsed;
        (* Spot-check one payload field survives the roundtrip. *)
        (match List.nth parsed 2 |> Json.member "fill" with
        | Some (Json.Float f) -> Alcotest.(check (float 1e-9)) "fill" 0.875 f
        | _ -> Alcotest.fail "fill missing");
        Sys.remove path);
    Alcotest.test_case "multi fans out" `Quick (fun () ->
        let a = Sink.ring ~capacity:4 () and b = Sink.ring ~capacity:4 () in
        let m = Sink.multi [ a; b ] in
        Sink.emit m (mk_event 1 (Event.Page_fix { page = 0; hit = false }));
        Alcotest.(check int) "a got it" 1 (Sink.emitted a);
        Alcotest.(check int) "b got it" 1 (Sink.emitted b));
  ]

(* ------------------------------------------------------------------ *)
(* Obs handle                                                          *)

let obs_tests =
  [
    Alcotest.test_case "emit stamps sequence and counts per type" `Quick (fun () ->
        let obs = Obs.create ~sink:(Sink.ring ()) () in
        Obs.emit obs (Event.Page_fix { page = 0; hit = true });
        Obs.emit obs (Event.Page_fix { page = 1; hit = false });
        Obs.emit obs (Event.Page_flush { page = 0 });
        Alcotest.(check int) "emitted" 3 (Obs.emitted obs);
        Alcotest.(check int) "fix counter" 2 (Metrics.counter (Obs.metrics obs) "ev.page_fix");
        Alcotest.(check (list int)) "sequence" [ 1; 2; 3 ]
          (List.map (fun (e : Event.t) -> e.seq) (Obs.events obs)));
    Alcotest.test_case "counter names and delivery order are per kind" `Quick (fun () ->
        let kinds =
          [
            Event.Io { page = 0; write = false; sequential = false };
            Event.Page_fix { page = 0; hit = true };
            Event.Wal_append { lsn = 1; page = 0; bytes = 8 };
            Event.Recovery_done { undone = 0; torn_bytes = 0 };
          ]
        in
        List.iter
          (fun k ->
            Alcotest.(check string) "counter" ("ev." ^ Event.type_name k) (Event.counter_name k))
          kinds;
        let seen = ref [] in
        let sink = Sink.callback (fun ev -> seen := Event.type_name ev.Event.kind :: !seen) in
        let obs = Obs.create ~sink () in
        List.iter (Obs.emit obs) kinds;
        Alcotest.(check (list string)) "delivery order" (List.map Event.type_name kinds)
          (List.rev !seen));
    Alcotest.test_case "emit allocates nothing without a consumer" `Quick (fun () ->
        let obs = Obs.create () in
        let kind = Event.Page_fix { page = 3; hit = true } in
        Obs.emit obs kind;
        let before = Gc.minor_words () in
        for _ = 1 to 10_000 do
          Obs.emit obs kind
        done;
        let words = Gc.minor_words () -. before in
        Alcotest.(check bool) (Printf.sprintf "%.0f words for 10000 emits" words) true (words < 100.);
        Alcotest.(check int) "counted" 10_001 (Metrics.counter (Obs.metrics obs) "ev.page_fix"));
    Alcotest.test_case "emit stamps the installed clock" `Quick (fun () ->
        let obs = Obs.create ~sink:(Sink.ring ()) () in
        let now = ref 100. in
        Obs.set_clock obs (fun () -> !now);
        Obs.emit obs (Event.Page_flush { page = 1 });
        now := 250.;
        Obs.emit obs (Event.Page_flush { page = 2 });
        Alcotest.(check (float 1e-9)) "now_ms reads it" 250. (Obs.now_ms obs);
        Alcotest.(check (list (float 1e-9))) "stamped at emit" [ 100.; 250. ]
          (List.map (fun (e : Event.t) -> e.at_ms) (Obs.events obs)));
    Alcotest.test_case "kinds nobody consumes are counted exactly across domains" `Quick
      (fun () ->
        let obs = Obs.create () in
        let emit_all () =
          for i = 1 to 10_000 do
            Obs.emit obs (Event.Page_fix { page = i; hit = true });
            if i mod 1000 = 0 then Obs.emit obs (Event.Page_flush { page = i })
          done
        in
        List.iter Domain.join (List.init 4 (fun _ -> Domain.spawn emit_all));
        let m = Obs.metrics obs in
        Alcotest.(check int) "every page fix counted" 40_000 (Metrics.counter m "ev.page_fix");
        Alcotest.(check int) "every flush counted" 40 (Metrics.counter m "ev.page_flush"));
    Alcotest.test_case "a sink sees every event with consecutive sequence numbers" `Quick
      (fun () ->
        let obs = Obs.create ~sink:(Sink.ring ~capacity:8192 ()) () in
        let emit_all () =
          for i = 1 to 1000 do
            Obs.emit obs
              (if i mod 2 = 0 then Event.Page_fix { page = i; hit = false }
               else Event.Page_flush { page = i })
          done
        in
        List.iter Domain.join (List.init 4 (fun _ -> Domain.spawn emit_all));
        Alcotest.(check (list int)) "seq 1..4000 in delivery order" (List.init 4000 succ)
          (List.map (fun (e : Event.t) -> e.seq) (Obs.events obs));
        Alcotest.(check int) "counted" 2000 (Metrics.counter (Obs.metrics obs) "ev.page_fix"));
    Alcotest.test_case "sinkless handle still counts" `Quick (fun () ->
        let obs = Obs.create () in
        Obs.emit obs (Event.Page_flush { page = 9 });
        Alcotest.(check int) "counter" 1 (Metrics.counter (Obs.metrics obs) "ev.page_flush");
        Alcotest.(check (list int)) "no retained events" []
          (List.map (fun (e : Event.t) -> e.seq) (Obs.events obs)));
  ]

(* ------------------------------------------------------------------ *)
(* Buffer-pool measurement protocol                                    *)

let protocol_tests =
  [
    Alcotest.test_case "hit ratio under the measurement protocol" `Quick (fun () ->
        let page_size = 256 in
        let d = Disk.in_memory ~page_size () in
        let pool = Buffer_pool.create ~disk:d ~bytes:(4 * page_size) () in
        let p = Disk.allocate d in
        Alcotest.(check (float 1e-9)) "vacuous ratio is 1" 1.0 (Buffer_pool.hit_ratio pool);
        Buffer_pool.with_page pool p (fun _ -> ());
        Buffer_pool.with_page pool p (fun _ -> ());
        Buffer_pool.with_page pool p (fun _ -> ());
        (* 3 fixes, 1 miss. *)
        Alcotest.(check (float 1e-9)) "warm ratio" (2. /. 3.) (Buffer_pool.hit_ratio pool);
        (* Protocol: drop frames but keep counters, then reset explicitly. *)
        Buffer_pool.clear pool;
        Alcotest.(check int) "clear preserves fixes" 3 (Buffer_pool.fixes pool);
        Buffer_pool.reset_stats pool;
        Alcotest.(check int) "reset zeroes fixes" 0 (Buffer_pool.fixes pool);
        Buffer_pool.with_page pool p (fun _ -> ());
        Alcotest.(check (float 1e-9)) "cold op misses" 0.0 (Buffer_pool.hit_ratio pool));
  ]

let suites =
  [
    ("obs.json", json_tests);
    ("obs.metrics", metrics_tests);
    ("obs.sinks", sink_tests);
    ("obs.handle", obs_tests);
    ("obs.protocol", protocol_tests);
  ]
