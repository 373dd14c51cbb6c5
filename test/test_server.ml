(* The serving stack: the Api codec, CRC framing, the Session.exec
   command layer, the dispatcher (typed error mapping, bounded
   admission, the worker pool), multi-tenant isolation, and the
   simulated open-loop traffic model.

   The load-bearing property is differential: a request served through
   the full loopback path (codec + framing + admission + dispatch) must
   answer byte-identically to a direct [Session.exec] on a twin store. *)

open Natix_core
module Api = Natix.Api
module Client = Natix_server.Client
module Protocol = Natix_server.Protocol
module Registry = Natix_server.Registry
module Rw_lock = Natix_server.Rw_lock
module Server = Natix_server.Server
module Traffic = Natix_server.Traffic
module Io_stats = Natix_store.Io_stats
module Faulty_disk = Natix_store.Faulty_disk
module Mon = Natix_mon.Mon
module Account = Natix_mon.Account

let prop ?(count = 200) name gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen p)

(* Small pages and a small pool so the test corpus does real I/O once
   the buffers are dropped. *)
let config ?(buffer_bytes = 16 * 1024) () =
  { (Config.default ()) with Config.page_size = 1024; buffer_bytes }

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

let load_docs s names =
  List.iter
    (fun doc ->
      match
        Natix.Session.exec s (Api.Load { doc; xml = play_xml doc; order = Loader.Preorder })
      with
      | Api.Loaded _ -> ()
      | r -> Alcotest.failf "load %s: %a" doc Api.pp_response r)
    names

let session_with_docs names =
  let s = Natix.Session.open_memory ~options:{ Natix.Session.Options.default with config = Some (config ()) } () in
  load_docs s names;
  s

let check_hits what n = function
  | Api.Hits hits -> Alcotest.(check int) what n (List.length hits)
  | r -> Alcotest.failf "%s: expected Hits, got %a" what Api.pp_response r

let check_overloaded what reason = function
  | Api.Overloaded { reason = r } -> Alcotest.(check string) what reason r
  | r -> Alcotest.failf "%s: expected Overloaded, got %a" what Api.pp_response r

let check_err what = function
  | Api.Err _ -> ()
  | r -> Alcotest.failf "%s: expected Err, got %a" what Api.pp_response r

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

(* ------------------------------------------------------------------ *)
(* Api codec                                                           *)

let gen_order = QCheck2.Gen.oneofl [ Loader.Preorder; Loader.Bfs_binary ]

let gen_request =
  let open QCheck2.Gen in
  oneof
    [
      return Api.Ping;
      map3 (fun doc xml order -> Api.Load { doc; xml; order }) string string gen_order;
      map3 (fun doc path texts -> Api.Query { doc; path; texts }) string string bool;
      map2 (fun element texts -> Api.Scan { element; texts }) string bool;
      return Api.Checkpoint;
      map (fun doc -> Api.Stat { doc }) (option string);
    ]

let gen_error =
  let open QCheck2.Gen in
  oneof
    [
      map (fun s -> Error.Parse s) string;
      map2 (fun doc detail -> Error.Validation { doc; detail }) string string;
      map2 (fun doc detail -> Error.Dtd { doc; detail }) string string;
      map (fun s -> Error.Query s) string;
      map (fun s -> Error.Storage s) string;
    ]

let gen_doc_stat =
  let open QCheck2.Gen in
  map3
    (fun doc (records, pages) record_bytes -> { Api.doc; records; pages; record_bytes })
    string (pair nat nat) nat

let gen_response =
  let open QCheck2.Gen in
  oneof
    [
      return Api.Pong;
      map2 (fun doc nodes -> Api.Loaded { doc; nodes }) string nat;
      map (fun hits -> Api.Hits hits) (small_list string);
      map (fun hits -> Api.Scanned hits) (small_list string);
      return Api.Checkpointed;
      map2
        (fun docs disk_bytes -> Api.Stats { docs; disk_bytes })
        (small_list gen_doc_stat) nat;
      map (fun e -> Api.Err e) gen_error;
      map (fun reason -> Api.Overloaded { reason }) string;
    ]

let codec_tests =
  [
    prop "request codec round-trips" gen_request (fun r ->
        Api.decode_request (Api.encode_request r) = Ok r);
    prop "response codec round-trips" gen_response (fun r ->
        Api.decode_response (Api.encode_response r) = Ok r);
    prop "no strict prefix of a request decodes"
      QCheck2.Gen.(pair gen_request (float_range 0. 1.))
      (fun (r, cut) ->
        let s = Api.encode_request r in
        let k = int_of_float (cut *. float_of_int (String.length s)) in
        let k = min k (String.length s - 1) |> max 0 in
        Result.is_error (Api.decode_request (String.sub s 0 k)));
    prop "trailing garbage is refused" gen_response (fun r ->
        Result.is_error (Api.decode_response (Api.encode_response r ^ "x")));
    Alcotest.test_case "unknown tags and empty strings are typed errors" `Quick (fun () ->
        Alcotest.(check bool) "empty request" true (Result.is_error (Api.decode_request ""));
        Alcotest.(check bool) "empty response" true (Result.is_error (Api.decode_response ""));
        Alcotest.(check bool) "bad tag" true (Result.is_error (Api.decode_request "\xff"));
        Alcotest.(check bool) "bad tag" true (Result.is_error (Api.decode_response "\xfe")));
  ]

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)

let reader_of_string s =
  let pos = ref 0 in
  fun n ->
    if !pos + n > String.length s then raise End_of_file
    else begin
      let r = String.sub s !pos n in
      pos := !pos + n;
      r
    end

let u32_be n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let protocol_tests =
  [
    Alcotest.test_case "header and frames round-trip; EOF at a boundary is clean" `Quick
      (fun () ->
        let b = Buffer.create 256 in
        let w = Buffer.add_string b in
        Protocol.write_header w;
        Protocol.write_frame w ~seq:1 "";
        Protocol.write_frame w ~seq:0xDEADBE "payload \x00 with bytes";
        let read = reader_of_string (Buffer.contents b) in
        (match Protocol.read_header read with
        | Ok v -> Alcotest.(check int) "advertises v2" 2 v
        | Error msg -> Alcotest.failf "header: %s" msg);
        (match Protocol.read_frame read with
        | Ok (Some { Protocol.seq = 1; trace_id = None; payload = "" }) -> ()
        | _ -> Alcotest.fail "frame 1");
        (match Protocol.read_frame read with
        | Ok (Some { Protocol.seq = 0xDEADBE; trace_id = None; payload = "payload \x00 with bytes" })
          -> ()
        | _ -> Alcotest.fail "frame 2");
        match Protocol.read_frame read with
        | Ok None -> ()
        | _ -> Alcotest.fail "expected clean EOF");
    Alcotest.test_case "trace ids ride v2 frames and vanish at v1" `Quick (fun () ->
        let b = Buffer.create 64 in
        Protocol.write_frame (Buffer.add_string b) ~seq:9 ~trace_id:"t-000009" "body";
        (match Protocol.read_frame (reader_of_string (Buffer.contents b)) with
        | Ok (Some { Protocol.seq = 9; trace_id = Some "t-000009"; payload = "body" }) -> ()
        | _ -> Alcotest.fail "v2 trace round-trip");
        (* The same payload framed at v1 carries no trace field and is
           byte-identical to a pre-trace build's frame. *)
        let v1 = Buffer.create 64 and v1' = Buffer.create 64 in
        Protocol.write_frame (Buffer.add_string v1) ~version:1 ~seq:9 ~trace_id:"t-000009" "body";
        Protocol.write_frame (Buffer.add_string v1') ~version:1 ~seq:9 "body";
        Alcotest.(check string) "v1 drops the trace id" (Buffer.contents v1') (Buffer.contents v1);
        Alcotest.(check int) "v1 layout: len+seq+payload+crc" (4 + 4 + 4 + 4)
          (Buffer.length v1);
        (match Protocol.read_frame ~version:1 (reader_of_string (Buffer.contents v1)) with
        | Ok (Some { Protocol.seq = 9; trace_id = None; payload = "body" }) -> ()
        | _ -> Alcotest.fail "v1 round-trip");
        (* Oversized trace ids are the writer's bug. *)
        match
          Protocol.write_frame ignore ~seq:1
            ~trace_id:(String.make (Protocol.max_trace_id + 1) 'x')
            "p"
        with
        | () -> Alcotest.fail "oversized trace id accepted"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "version negotiation accepts v1 peers, refuses futures" `Quick
      (fun () ->
        (match Protocol.read_header (reader_of_string (Protocol.header_for 1)) with
        | Ok 1 -> ()
        | Ok v -> Alcotest.failf "v1 header read as v%d" v
        | Error msg -> Alcotest.failf "v1 peer refused: %s" msg);
        let bad_version =
          let b = Bytes.of_string Protocol.header in
          Bytes.set_uint16_be b 4 (Protocol.version + 1);
          Bytes.to_string b
        in
        Alcotest.(check bool) "future version" true
          (Result.is_error (Protocol.read_header (reader_of_string bad_version)));
        Alcotest.(check bool) "wrong magic" true
          (Result.is_error (Protocol.read_header (reader_of_string "XXXX\x00\x01")));
        Alcotest.(check bool) "truncated header" true
          (Result.is_error (Protocol.read_header (reader_of_string "NT"))));
    Alcotest.test_case "a flipped byte fails the CRC" `Quick (fun () ->
        let b = Buffer.create 64 in
        Protocol.write_frame (Buffer.add_string b) ~seq:7 "hello world";
        let s = Bytes.of_string (Buffer.contents b) in
        (* Flip one payload byte (after the 8-byte len+seq prefix). *)
        Bytes.set s 10 (Char.chr (Char.code (Bytes.get s 10) lxor 1));
        match Protocol.read_frame (reader_of_string (Bytes.to_string s)) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "corrupt frame accepted");
    Alcotest.test_case "truncation mid-frame is an error, not a short read" `Quick (fun () ->
        let b = Buffer.create 64 in
        Protocol.write_frame (Buffer.add_string b) ~seq:3 "some payload";
        let s = Buffer.contents b in
        (* Cuts inside the 4-byte length prefix are indistinguishable
           from a clean close under the all-bytes-or-End_of_file reader
           contract, so the error guarantee starts once the length
           prefix is complete. *)
        for k = 4 to String.length s - 1 do
          match Protocol.read_frame (reader_of_string (String.sub s 0 k)) with
          | Error _ -> ()
          | Ok None -> Alcotest.failf "cut at %d read as clean EOF" k
          | Ok (Some _) -> Alcotest.failf "cut at %d read as a full frame" k
        done);
    Alcotest.test_case "oversized length fields are refused without allocating" `Quick
      (fun () ->
        let s = u32_be (Protocol.max_payload + 1) ^ u32_be 0 in
        (match Protocol.read_frame (reader_of_string s) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "oversized frame accepted");
        match Protocol.write_frame ignore ~seq:0 (String.make 1 'x') with
        | () -> ()
        | exception Invalid_argument _ -> Alcotest.fail "small frame refused");
  ]

(* ------------------------------------------------------------------ *)
(* Session.exec: the command layer against a live store                *)

(* Two documents whose hits include text and attribute values with
   characters that markup escapes. *)
let attribute_session () =
  let s = Natix.Session.open_memory () in
  List.iter
    (fun doc ->
      match
        Natix.Session.exec s
          (Api.Load
             {
               doc;
               xml = {|<r><e id="1">x &amp; y</e><e id="2&lt;3"><f>z &lt; w</f></e>tail</r>|};
               order = Loader.Preorder;
             })
      with
      | Api.Loaded _ -> ()
      | r -> Alcotest.failf "load %s: %a" doc Api.pp_response r)
    [ "a"; "b" ];
  s

let exec_tests =
  [
    Alcotest.test_case "every request variant executes against a store" `Quick (fun () ->
        let s = Natix.Session.open_memory ~options:{ Natix.Session.Options.default with config = Some (config ()) } () in
        (match Natix.Session.exec s Api.Ping with
        | Api.Pong -> ()
        | r -> Alcotest.failf "ping: %a" Api.pp_response r);
        (match
           Natix.Session.exec s
             (Api.Load { doc = "d"; xml = play_xml "d"; order = Loader.Preorder })
         with
        | Api.Loaded { doc = "d"; nodes } -> Alcotest.(check bool) "nodes" true (nodes > 100)
        | r -> Alcotest.failf "load: %a" Api.pp_response r);
        check_hits "query markup" 40
          (Natix.Session.exec s (Api.Query { doc = "d"; path = "//SPEAKER"; texts = false }));
        (match Natix.Session.exec s (Api.Query { doc = "d"; path = "//SPEAKER"; texts = true }) with
        | Api.Hits (h :: _) -> Alcotest.(check string) "text rendering" "S1" h
        | r -> Alcotest.failf "query texts: %a" Api.pp_response r);
        check_hits "positional" 20
          (Natix.Session.exec s (Api.Query { doc = "d"; path = "/ACT[2]//SPEAKER"; texts = false }));
        (match Natix.Session.exec s (Api.Scan { element = "SPEAKER"; texts = true }) with
        | Api.Scanned hits -> Alcotest.(check int) "scan" 40 (List.length hits)
        | r -> Alcotest.failf "scan: %a" Api.pp_response r);
        (match Natix.Session.exec s Api.Checkpoint with
        | Api.Checkpointed -> ()
        | r -> Alcotest.failf "checkpoint: %a" Api.pp_response r);
        (match Natix.Session.exec s (Api.Stat { doc = Some "d" }) with
        | Api.Stats { docs = [ d ]; disk_bytes } ->
          let st = Stats.document (Natix.Session.store s) "d" in
          Alcotest.(check string) "stat doc" "d" d.Api.doc;
          Alcotest.(check int) "stat records" st.Stats.records d.Api.records;
          Alcotest.(check int) "stat pages" st.Stats.pages d.Api.pages;
          Alcotest.(check bool) "disk bytes" true (disk_bytes > 0)
        | r -> Alcotest.failf "stat: %a" Api.pp_response r);
        Natix.Session.close s);
    Alcotest.test_case "failures come back typed, never as exceptions" `Quick (fun () ->
        let s = session_with_docs [ "d" ] in
        (match Natix.Session.exec s (Api.Query { doc = "nope"; path = "//X"; texts = false }) with
        | Api.Err (Error.Storage _) -> ()
        | r -> Alcotest.failf "unknown doc: %a" Api.pp_response r);
        (match Natix.Session.exec s (Api.Query { doc = "d"; path = "//["; texts = false }) with
        | Api.Err (Error.Query _) -> ()
        | r -> Alcotest.failf "bad path: %a" Api.pp_response r);
        (match
           Natix.Session.exec s
             (Api.Load { doc = "x"; xml = "<a><b></a>"; order = Loader.Preorder })
         with
        | Api.Err (Error.Parse _) -> ()
        | r -> Alcotest.failf "parse error: %a" Api.pp_response r);
        (match Natix.Session.exec s (Api.Stat { doc = Some "nope" }) with
        | Api.Err (Error.Storage _) -> ()
        | r -> Alcotest.failf "stat unknown: %a" Api.pp_response r);
        Natix.Session.close s);
    Alcotest.test_case "run_queries renders every hit kind as exec does" `Quick (fun () ->
        (* Element, text-node and attribute hits, with characters that
           markup escapes and text does not; [run_queries] fans plain
           queries out through the parallel executor's reader views. *)
        let s = attribute_session () in
        let tasks =
          List.concat_map
            (fun doc ->
              List.map
                (fun path -> (doc, path))
                [ "//e"; "//e/text()"; "//@id"; "//node()"; "//nosuch" ])
            [ "a"; "b" ]
          @ [ ("nope", "//e"); ("a", "//[") ]
        in
        let direct =
          List.map
            (fun (doc, path) -> Natix.Session.exec s (Api.Query { doc; path; texts = false }))
            tasks
        in
        List.iter
          (fun jobs ->
            List.iter2
              (fun direct result ->
                let batched = match result with Ok hits -> Api.Hits hits | Error e -> Api.Err e in
                if Api.encode_response batched <> Api.encode_response direct then
                  Alcotest.failf "jobs=%d: batched %a <> exec %a" jobs Api.pp_response batched
                    Api.pp_response direct)
              direct
              (Natix.Session.run_queries ~jobs s tasks).Natix_par.Par.results)
          [ 1; 2 ];
        check_hits "attribute hits" 2 (List.nth direct 2);
        Natix.Session.close s);
    Alcotest.test_case "a scan renders attribute hits as a query does" `Quick (fun () ->
        let s = attribute_session () in
        let queried =
          List.concat_map
            (fun doc ->
              match Natix.Session.exec s (Api.Query { doc; path = "//@id"; texts = false }) with
              | Api.Hits hits -> hits
              | r -> Alcotest.failf "query %s: %a" doc Api.pp_response r)
            [ "a"; "b" ]
        in
        (match Natix.Session.exec s (Api.Scan { element = "@id"; texts = false }) with
        | Api.Scanned hits ->
          Alcotest.(check (list string))
            "raw values" [ "1"; "1"; "2<3"; "2<3" ] (List.sort compare hits);
          Alcotest.(check (list string)) "as queried" (List.sort compare queried)
            (List.sort compare hits)
        | r -> Alcotest.failf "scan: %a" Api.pp_response r);
        Natix.Session.close s);
    Alcotest.test_case "an attribute scan answers alike with and without an index" `Quick
      (fun () ->
        let answers index =
          let s =
            Natix.Session.open_memory ~options:{ Natix.Session.Options.default with index } ()
          in
          (match
             Natix.Session.exec s
               (Api.Load
                  { doc = "d"; xml = {|<r><e id="1"/><e id="2"/></r>|}; order = Loader.Preorder })
           with
          | Api.Loaded _ -> ()
          | r -> Alcotest.failf "load: %a" Api.pp_response r);
          let scanned =
            match Natix.Session.exec s (Api.Scan { element = "@id"; texts = false }) with
            | Api.Scanned hits -> List.sort compare hits
            | r -> Alcotest.failf "scan: %a" Api.pp_response r
          in
          let counts =
            List.map (Document_manager.count_elements (Natix.Session.manager s)) [ "@id"; "e"; "r" ]
          in
          Natix.Session.close s;
          (scanned, counts)
        in
        let indexed, indexed_counts = answers Document_manager.Ensure in
        let walked, walked_counts = answers Document_manager.Off in
        Alcotest.(check (list string)) "with the index" [ "1"; "2" ] indexed;
        Alcotest.(check (list string)) "without" indexed walked;
        Alcotest.(check (list int)) "counts with the index" [ 2; 2; 1 ] indexed_counts;
        Alcotest.(check (list int)) "counts without" indexed_counts walked_counts);
    Alcotest.test_case "Options: monitor = false leaves a session unmonitored, the default monitors"
      `Quick (fun () ->
        let s1 =
          Natix.Session.open_memory
            ~options:{ Natix.Session.Options.default with monitor = false }
            ()
        in
        Alcotest.(check bool) "monitor = false: no monitor" true (Natix.Session.mon s1 = None);
        Natix.Session.close s1;
        let s2 = Natix.Session.open_memory () in
        Alcotest.(check bool) "default: monitored" true (Natix.Session.mon s2 <> None);
        Natix.Session.close s2);
  ]

(* ------------------------------------------------------------------ *)
(* Loopback differential: full serve path vs direct Session.exec       *)

(* A request script touching every variant, including typed failures;
   [Load]s come first so both sides build identical stores through the
   same command layer. *)
let script =
  [
    Api.Ping;
    Api.Load { doc = "a"; xml = play_xml "a"; order = Loader.Preorder };
    Api.Load { doc = "b"; xml = play_xml "b"; order = Loader.Bfs_binary };
    Api.Query { doc = "a"; path = "//SPEAKER"; texts = false };
    Api.Query { doc = "a"; path = "//LINE"; texts = true };
    Api.Query { doc = "a"; path = "//LINE/text()"; texts = false };
    Api.Query { doc = "b"; path = "/ACT[2]//SPEAKER"; texts = false };
    Api.Query { doc = "nope"; path = "//X"; texts = false };
    Api.Query { doc = "a"; path = "//["; texts = false };
    Api.Scan { element = "SPEAKER"; texts = false };
    Api.Scan { element = "TITLE"; texts = true };
    Api.Checkpoint;
    Api.Stat { doc = Some "a" };
    Api.Stat { doc = None };
    Api.Load { doc = "bad"; xml = "<a><b></a>"; order = Loader.Preorder };
  ]

let differential_at ~jobs () =
  let serve_sess = Natix.Session.open_memory ~options:{ Natix.Session.Options.default with config = Some (config ()) } () in
  let twin = Natix.Session.open_memory ~options:{ Natix.Session.Options.default with config = Some (config ()) } () in
  let registry = Registry.create () in
  Registry.mount registry "t" serve_sess;
  let server =
    Server.create ~config:{ Server.default_config with Server.jobs } registry
  in
  let conn = Server.Loopback.connect server ~tenant:"t" in
  List.iteri
    (fun i req ->
      let served = Server.Loopback.call conn req in
      let direct = Natix.Session.exec twin req in
      if Api.encode_response served <> Api.encode_response direct then
        Alcotest.failf "request %d (%a): served %a <> direct %a" i Api.pp_request req
          Api.pp_response served Api.pp_response direct)
    script;
  Server.shutdown server;
  Natix.Session.close serve_sess;
  Natix.Session.close twin

let differential_tests =
  [
    Alcotest.test_case "loopback responses are byte-identical to Session.exec (inline)" `Quick
      (differential_at ~jobs:0);
    Alcotest.test_case "loopback responses are byte-identical to Session.exec (jobs=2)" `Quick
      (differential_at ~jobs:2);
    Alcotest.test_case "unknown and invalid tenants answer typed errors" `Quick (fun () ->
        let registry = Registry.create () in
        let server = Server.create ~config:{ Server.default_config with Server.jobs = 0 } registry in
        List.iter
          (fun tenant -> check_err tenant (Server.submit server ~tenant Api.Ping))
          [ "nope"; ""; "../evil"; ".hidden"; "a/b" ];
        Server.shutdown server);
    Alcotest.test_case "a client-supplied name never materialises a fresh store" `Quick
      (fun () ->
        let root = Filename.temp_file "natix_reg" "" in
        Sys.remove root;
        Unix.mkdir root 0o700;
        let registry = Registry.create ~root () in
        let server = Server.create ~config:{ Server.default_config with Server.jobs = 0 } registry in
        check_err "missing store file" (Server.submit server ~tenant:"ghost" Api.Ping);
        Alcotest.(check bool) "no ghost.natix created" false
          (Sys.file_exists (Filename.concat root "ghost.natix"));
        Server.shutdown server;
        Registry.close_all registry);
  ]

(* ------------------------------------------------------------------ *)
(* Typed error mapping under injected faults                           *)

let faulty_tenant () =
  let plan = Faulty_disk.create ~seed:7L () in
  let disk = Natix_store.Disk.in_memory ~page_size:1024 () in
  Natix_store.Disk.set_faults disk (Some plan);
  let store = Tree_store.open_store ~config:(config ()) disk in
  let session = Natix.Session.of_store store in
  (plan, store, session)

let fault_tests =
  [
    Alcotest.test_case
      "transient read errors mid-request: typed reply, no latched frame, loop survives" `Quick
      (fun () ->
        let plan, store, session = faulty_tenant () in
        let registry = Registry.create () in
        Registry.mount registry "t" session;
        (* jobs = 1: the same worker domain must survive the raising
           request and serve the next one. *)
        let server =
          Server.create ~config:{ Server.default_config with Server.jobs = 1 } registry
        in
        let conn = Server.Loopback.connect server ~tenant:"t" in
        (match Server.Loopback.call conn (Api.Load { doc = "d"; xml = play_xml "d"; order = Loader.Preorder }) with
        | Api.Loaded _ -> ()
        | r -> Alcotest.failf "load: %a" Api.pp_response r);
        Tree_store.clear_buffers store;
        Faulty_disk.fail_next_reads plan 10;
        (match Server.Loopback.call conn (Api.Query { doc = "d"; path = "//SPEAKER"; texts = false }) with
        | Api.Err (Error.Storage msg) ->
          Alcotest.(check bool) "read-failure reply" true
            (String.length msg > 0
            && String.sub msg 0 (min 9 (String.length msg)) = "transient")
        | r -> Alcotest.failf "faulty query: %a" Api.pp_response r);
        Alcotest.(check int) "no frame left pinned" 0
          (Natix_store.Buffer_pool.pinned_frames (Tree_store.buffer_pool store));
        Faulty_disk.disarm plan;
        check_hits "same worker, next request" 40
          (Server.Loopback.call conn (Api.Query { doc = "d"; path = "//SPEAKER"; texts = false }));
        Server.shutdown server;
        let st = Server.stats server in
        Alcotest.(check int) "every request served" 3 st.Server.served;
        Natix.Session.close session);
    Alcotest.test_case "a simulated crash latches the tenant; later requests refused typed"
      `Quick (fun () ->
        let plan, _store, session = faulty_tenant () in
        let healthy = session_with_docs [ "h" ] in
        let registry = Registry.create () in
        Registry.mount registry "sick" session;
        Registry.mount registry "ok" healthy;
        let server =
          Server.create ~config:{ Server.default_config with Server.jobs = 0 } registry
        in
        (match
           Server.submit server ~tenant:"sick"
             (Api.Load { doc = "d"; xml = play_xml "d"; order = Loader.Preorder })
         with
        | Api.Loaded _ -> ()
        | r -> Alcotest.failf "pre-crash load: %a" Api.pp_response r);
        (* The load's pages are still dirty in the pool; the checkpoint's
           first flush write hits the armed crash. *)
        Faulty_disk.arm_crash ~torn:false plan 0;
        check_err "crashing checkpoint" (Server.submit server ~tenant:"sick" Api.Checkpoint);
        check_err "tenant disabled"
          (Server.submit server ~tenant:"sick"
             (Api.Query { doc = "d"; path = "//SPEAKER"; texts = false }));
        (* The other tenant is untouched. *)
        check_hits "healthy tenant unaffected" 40
          (Server.submit server ~tenant:"ok"
             (Api.Query { doc = "h"; path = "//SPEAKER"; texts = false }));
        Server.shutdown server;
        Natix.Session.close healthy);
  ]

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

let hold_gate (tenant : Registry.tenant) =
  let held = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Rw_lock.with_write tenant.Registry.gate (fun () ->
            Atomic.set held true;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done))
  in
  wait_for "gate held" (fun () -> Atomic.get held);
  (release, holder)

let admission_tests =
  [
    Alcotest.test_case "a shutting-down dispatcher sheds typed" `Quick (fun () ->
        let s = session_with_docs [ "d" ] in
        let registry = Registry.create () in
        Registry.mount registry "t" s;
        let server = Server.create ~config:{ Server.default_config with Server.jobs = 0 } registry in
        Server.shutdown server;
        check_overloaded "after shutdown" "shutting_down" (Server.submit server ~tenant:"t" Api.Ping);
        Server.shutdown server;
        (* idempotent *)
        Natix.Session.close s);
    Alcotest.test_case "inflight limit sheds typed while a request is running" `Quick (fun () ->
        let s = session_with_docs [ "d" ] in
        let registry = Registry.create () in
        Registry.mount registry "t" s;
        let tenant =
          match Registry.find registry "t" with Ok t -> t | Error e -> Error.raise_error e
        in
        let server =
          Server.create
            ~config:{ Server.default_config with Server.jobs = 1; max_inflight = 1; queue_depth = 4 }
            registry
        in
        let release, holder = hold_gate tenant in
        (* The worker steals the ticket and blocks on the gate: running = 1. *)
        let d1 =
          Domain.spawn (fun () ->
              Server.submit server ~tenant:"t" (Api.Query { doc = "d"; path = "//SPEAKER"; texts = false }))
        in
        wait_for "request running" (fun () -> (Server.stats server).Server.running = 1);
        check_overloaded "second request" "inflight_limit"
          (Server.submit server ~tenant:"t" Api.Ping);
        Atomic.set release true;
        Domain.join holder;
        check_hits "blocked request completed" 40 (Domain.join d1);
        Server.shutdown server;
        Natix.Session.close s);
    Alcotest.test_case "queue depth bounds the queue and sheds typed" `Quick (fun () ->
        let s = session_with_docs [ "d" ] in
        let registry = Registry.create () in
        Registry.mount registry "t" s;
        let tenant =
          match Registry.find registry "t" with Ok t -> t | Error e -> Error.raise_error e
        in
        let server =
          Server.create
            ~config:{ Server.default_config with Server.jobs = 1; max_inflight = 10; queue_depth = 1 }
            registry
        in
        let release, holder = hold_gate tenant in
        let submit_query () =
          Domain.spawn (fun () ->
              Server.submit server ~tenant:"t" (Api.Query { doc = "d"; path = "//SPEAKER"; texts = false }))
        in
        let d1 = submit_query () in
        wait_for "first running" (fun () -> (Server.stats server).Server.running = 1);
        let d2 = submit_query () in
        wait_for "second queued" (fun () -> (Server.stats server).Server.queued = 1);
        check_overloaded "queue full" "queue_full" (Server.submit server ~tenant:"t" Api.Ping);
        Atomic.set release true;
        Domain.join holder;
        check_hits "first drained" 40 (Domain.join d1);
        check_hits "second drained" 40 (Domain.join d2);
        let st = Server.stats server in
        Alcotest.(check int) "served" 2 st.Server.served;
        Alcotest.(check int) "shed" 1 st.Server.shed;
        Alcotest.(check bool) "bounded queue" true (st.Server.max_queue <= 1);
        Server.shutdown server;
        Natix.Session.close s);
    Alcotest.test_case "shutdown drains every queued ticket with its hits" `Quick (fun () ->
        let s = session_with_docs [ "d" ] in
        let registry = Registry.create () in
        Registry.mount registry "t" s;
        let tenant =
          match Registry.find registry "t" with Ok t -> t | Error e -> Error.raise_error e
        in
        let k = 4 in
        (* Room for exactly two running and [k] queued requests: one more
           sheds "inflight_limit" until shutdown starts, then
           "shutting_down". *)
        let server =
          Server.create
            ~config:
              { Server.default_config with Server.jobs = 2; max_inflight = 2 + k; queue_depth = k }
            registry
        in
        let release, holder = hold_gate tenant in
        (* Counted, so a ticket left unanswered fails the wait below
           instead of hanging the join. *)
        let answered = Atomic.make 0 in
        let submit_query () =
          Domain.spawn (fun () ->
              let r =
                Server.submit server ~tenant:"t"
                  (Api.Query { doc = "d"; path = "//SPEAKER"; texts = false })
              in
              Atomic.incr answered;
              r)
        in
        let running = List.init 2 (fun _ -> submit_query ()) in
        wait_for "both workers blocked on the gate" (fun () ->
            (Server.stats server).Server.running = 2);
        let queued = List.init k (fun _ -> submit_query ()) in
        wait_for "tickets queued" (fun () -> (Server.stats server).Server.queued = k);
        let probes = ref 0 in
        let probe () =
          incr probes;
          match Server.submit server ~tenant:"t" Api.Ping with
          | Api.Overloaded { reason = "shutting_down" } -> true
          | Api.Overloaded { reason = "inflight_limit" } -> false
          | r -> Alcotest.failf "probe: %a" Api.pp_response r
        in
        let stopper = Domain.spawn (fun () -> Server.shutdown server) in
        wait_for "shutdown started" probe;
        Atomic.set release true;
        Domain.join holder;
        wait_for "every ticket answered" (fun () -> Atomic.get answered = 2 + k);
        Domain.join stopper;
        List.iteri
          (fun i d -> check_hits (Printf.sprintf "request %d answered" i) 40 (Domain.join d))
          (running @ queued);
        let st = Server.stats server in
        Alcotest.(check int) "served" (2 + k) st.Server.served;
        Alcotest.(check int) "only the probes shed" !probes st.Server.shed;
        Alcotest.(check int) "queue empty" 0 st.Server.queued;
        Alcotest.(check int) "nothing running" 0 st.Server.running;
        Natix.Session.close s);
  ]

(* ------------------------------------------------------------------ *)
(* Multi-tenant isolation at jobs = 4                                  *)

let paths = [ "//SPEAKER"; "//LINE"; "/ACT[2]//SPEAKER" ]

let mkdir_temp () =
  let dir = Filename.temp_file "natix_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let account_totals session =
  match Natix.Session.mon session with
  | None -> Alcotest.fail "tenant session has no monitor"
  | Some mon ->
    let store = Natix.Session.store session in
    let at_ms = (Io_stats.copy (Tree_store.io_stats store)).Io_stats.sim_ms in
    List.map (fun d -> (d.Account.doc, d.Account.reads_total)) (Mon.accounts mon ~at_ms)

let tenant_tests =
  [
    Alcotest.test_case
      "two tenants at jobs=4: exact per-tenant read partition, shared nothing" `Quick
      (fun () ->
        let root = mkdir_temp () in
        (* Pre-create both stores so the registry's lazy open has
           something to find. *)
        List.iter
          (fun (name, docs) ->
            let s =
              Natix.Session.open_store
                ~options:
                  {
                    Natix.Session.Options.default with
                    Natix.Session.Options.config = Some (config ());
                  }
                (Filename.concat root (name ^ ".natix"))
            in
            load_docs s docs;
            Natix.Session.close s)
          [ ("alpha", [ "a1"; "a2" ]); ("beta", [ "b1"; "b2" ]) ];
        let registry =
          Registry.create ~root
            ~options:
              {
                Natix.Session.Options.default with
                Natix.Session.Options.config = Some (config ());
              }
            ()
        in
        let server = Server.create ~config:{ Server.default_config with Server.jobs = 4 } registry in
        (* First touch opens lazily. *)
        let tenant name =
          match Registry.find registry name with Ok t -> t | Error e -> Error.raise_error e
        in
        let alpha = tenant "alpha" and beta = tenant "beta" in
        Alcotest.(check (list string)) "registry names" [ "alpha"; "beta" ] (Registry.names registry);
        let baseline t =
          cold t.Registry.session;
          let store = Natix.Session.store t.Registry.session in
          (Io_stats.copy (Tree_store.io_stats store), account_totals t.Registry.session)
        in
        let a0 = baseline alpha and b0 = baseline beta in
        (* One submitter domain per tenant, concurrently, through the
           loopback client. *)
        let hammer name docs =
          Domain.spawn (fun () ->
              let conn = Server.Loopback.connect server ~tenant:name in
              List.concat_map
                (fun doc ->
                  List.map
                    (fun path ->
                      Server.Loopback.call conn (Api.Query { doc; path; texts = false }))
                    paths)
                docs)
        in
        let da = hammer "alpha" [ "a1"; "a2" ] and db = hammer "beta" [ "b1"; "b2" ] in
        let ra = Domain.join da and rb = Domain.join db in
        List.iter
          (fun r -> match r with Api.Hits _ -> () | r -> Alcotest.failf "%a" Api.pp_response r)
          (ra @ rb);
        (* The per-document account deltas partition each tenant's read
           total exactly: every page read of the serving phase ran under
           some request's (doc, serve:query) context. *)
        let check_partition name t (io0, acct0) =
          let store = Natix.Session.store t.Registry.session in
          let reads = (Io_stats.diff (Io_stats.copy (Tree_store.io_stats store)) io0).Io_stats.reads in
          let acct1 = account_totals t.Registry.session in
          let charged =
            List.fold_left
              (fun acc (doc, total) ->
                let before = Option.value ~default:0 (List.assoc_opt doc acct0) in
                acc + (total - before))
              0 acct1
          in
          Alcotest.(check bool) (name ^ ": did real I/O") true (reads > 0);
          Alcotest.(check int) (name ^ ": accounts partition the read total") reads charged
        in
        check_partition "alpha" alpha a0;
        check_partition "beta" beta b0;
        (* Per-tenant export carries the (doc, serve:query) context. *)
        (match Natix.Session.mon beta.Registry.session with
        | None -> Alcotest.fail "no monitor"
        | Some mon ->
          let store = Natix.Session.store beta.Registry.session in
          let prom =
            Mon.export_prometheus mon
              ~at_ms:(Io_stats.copy (Tree_store.io_stats store)).Io_stats.sim_ms
          in
          let contains hay needle =
            let nl = String.length needle and hl = String.length hay in
            let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "export has serve context" true (contains prom "serve:query"));
        Server.shutdown server;
        Registry.close_all registry;
        (* Owned tenants were checkpointed and closed: both stores fsck
           clean and still serve. *)
        List.iter
          (fun (name, doc) ->
            let path = Filename.concat root (name ^ ".natix") in
            let disk = Natix_store.Disk.on_file ~page_size:1024 path in
            let store = Tree_store.open_store ~config:(config ()) disk in
            let report = Fsck.run store in
            if not (Fsck.ok report) then Alcotest.failf "%s: fsck: %a" name Fsck.pp report;
            let s = Natix.Session.of_store store in
            check_hits (name ^ " reopens") 40
              (Natix.Session.exec s (Api.Query { doc; path = "//SPEAKER"; texts = false }));
            Tree_store.close ~commit:false store)
          [ ("alpha", "a1"); ("beta", "b1") ])
  ]

(* ------------------------------------------------------------------ *)
(* Socket path: serve_connection over a socketpair, and Client over TCP *)

let socket_tests =
  [
    Alcotest.test_case
      "socketpair conversation: handshake, requests, malformed payload keeps serving" `Quick
      (fun () ->
        let s = session_with_docs [ "d" ] in
        let registry = Registry.create () in
        Registry.mount registry "t" s;
        let server = Server.create ~config:{ Server.default_config with Server.jobs = 0 } registry in
        let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let d = Domain.spawn (fun () -> Server.serve_connection server server_fd) in
        let w = Protocol.write_all client_fd and read = Protocol.read_exactly client_fd in
        Protocol.write_header w;
        (match Protocol.read_header read with
        | Ok _version -> ()
        | Error msg -> Alcotest.failf "server header: %s" msg);
        Protocol.write_frame w ~seq:0 "t";
        let call seq req =
          Protocol.write_frame w ~seq (Api.encode_request req);
          match Protocol.read_frame read with
          | Ok (Some f) ->
            Alcotest.(check int) "response seq" seq f.Protocol.seq;
            (match Api.decode_response f.Protocol.payload with
            | Ok resp -> resp
            | Error msg -> Alcotest.failf "decode: %s" msg)
          | Ok None -> Alcotest.fail "server closed early"
          | Error msg -> Alcotest.failf "frame: %s" msg
        in
        (match call 1 Api.Ping with
        | Api.Pong -> ()
        | r -> Alcotest.failf "ping: %a" Api.pp_response r);
        check_hits "query over the wire" 40
          (call 2 (Api.Query { doc = "d"; path = "//SPEAKER"; texts = false }));
        (* An intact frame with garbage payload: typed error, connection
           survives. *)
        Protocol.write_frame w ~seq:3 "\xff\xff not a request";
        (match Protocol.read_frame read with
        | Ok (Some f) -> (
          match Api.decode_response f.Protocol.payload with
          | Ok (Api.Err (Error.Storage _)) -> ()
          | Ok r -> Alcotest.failf "garbage payload: %a" Api.pp_response r
          | Error msg -> Alcotest.failf "garbage decode: %s" msg)
        | _ -> Alcotest.fail "no reply to garbage payload");
        check_hits "still serving after garbage" 40
          (call 4 (Api.Query { doc = "d"; path = "//SPEAKER"; texts = false }));
        Unix.close client_fd;
        Domain.join d;
        Server.shutdown server;
        Natix.Session.close s);
    Alcotest.test_case "a TCP client on loopback: ping, a traced query, close" `Quick (fun () ->
        let s = session_with_docs [ "d" ] in
        let registry = Registry.create () in
        Registry.mount registry "t" s;
        let server =
          Server.create
            ~config:
              { Server.default_config with Server.jobs = 0; trace = Some Server.default_trace }
            registry
        in
        let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen listener 1;
        let port =
          match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0
        in
        let accepted = Atomic.make false in
        let d =
          Domain.spawn (fun () ->
              let fd, _ = Unix.accept listener in
              Atomic.set accepted true;
              Server.serve_connection server fd)
        in
        Fun.protect
          ~finally:(fun () ->
            (* A client that never connected leaves the domain in
               [accept]: release it with an empty connection. *)
            if not (Atomic.get accepted) then begin
              let poke = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              (try Unix.connect poke (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
               with Unix.Unix_error _ -> ());
              Unix.close poke
            end;
            Domain.join d;
            Unix.close listener;
            Server.shutdown server;
            Natix.Session.close s)
          (fun () ->
            let c = Client.connect ~host:"127.0.0.1" ~port ~tenant:"t" in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                (match Client.call c Api.Ping with
                | Api.Pong -> ()
                | r -> Alcotest.failf "ping: %a" Api.pp_response r);
                check_hits "query over tcp" 40
                  (Client.call ~trace_id:"sock-1" c
                     (Api.Query { doc = "d"; path = "//SPEAKER"; texts = false }));
                Alcotest.(check (list string))
                  "the client's trace id reached the server" [ "t-000001"; "sock-1" ]
                  (List.map
                     (fun (r : Natix_trace.Trace.report) -> r.Natix_trace.Trace.trace_id)
                     (Server.trace_reports server)))));
  ]

(* ------------------------------------------------------------------ *)
(* Open-loop traffic: shed typed at overload, account for everything   *)

let traffic_tests =
  [
    Alcotest.test_case "simulate: conservation, bounded queue, monotone load" `Quick (fun () ->
        let service = Array.make 20 10. in
        let low = Traffic.simulate ~capacity:2 ~queue_depth:4 ~rate:50. service in
        let high = Traffic.simulate ~capacity:2 ~queue_depth:4 ~rate:2000. service in
        List.iter
          (fun (name, p) ->
            Alcotest.(check int) (name ^ ": conservation") p.Traffic.offered
              (p.Traffic.completed + p.Traffic.shed);
            Alcotest.(check bool) (name ^ ": bounded queue") true (p.Traffic.max_queue <= 4);
            Alcotest.(check int) (name ^ ": every request accounted") p.Traffic.offered
              (Array.length p.Traffic.latencies_ms);
            let some = Array.to_list p.Traffic.latencies_ms |> List.filter_map Fun.id in
            Alcotest.(check int) (name ^ ": latencies = completed") p.Traffic.completed
              (List.length some);
            List.iter
              (fun l -> Alcotest.(check bool) (name ^ ": finite latency") true (Float.is_finite l && l >= 0.))
              some)
          [ ("low", low); ("high", high) ];
        (* At 200 slot-seconds of work per second offered to 2 slots,
           shedding is certain; well under saturation, absent. *)
        Alcotest.(check int) "low load sheds nothing" 0 low.Traffic.shed;
        Alcotest.(check bool) "overload sheds" true (high.Traffic.shed > 0);
        Alcotest.(check bool) "overload p99 >= low p99" true
          (high.Traffic.p99_ms >= low.Traffic.p99_ms));
    Alcotest.test_case
      "measured sweep: >= 2x saturation sheds typed, nothing hangs, results stay exact" `Quick
      (fun () ->
        let serve_sess = session_with_docs [ "a"; "b"; "c" ] in
        let twin = session_with_docs [ "a"; "b"; "c" ] in
        let registry = Registry.create () in
        Registry.mount registry "t" serve_sess;
        let server = Server.create ~config:{ Server.default_config with Server.jobs = 0 } registry in
        let reqs =
          List.concat_map
            (fun texts ->
              List.concat_map
                (fun doc -> List.map (fun path -> Api.Query { doc; path; texts }) paths)
                [ "a"; "b"; "c" ])
            [ false; true ]
        in
        (* Cold per request: the service-time profile models steady-state
           traffic, and every request does real simulated I/O. *)
        let measured =
          List.concat_map
            (fun req ->
              cold serve_sess;
              Traffic.measure server ~tenant:"t" [ req ])
            reqs
        in
        (* Differential half: the loopback answers match a direct twin. *)
        List.iter2
          (fun req (resp, service_ms) ->
            let direct = Natix.Session.exec twin req in
            if Api.encode_response resp <> Api.encode_response direct then
              Alcotest.failf "%a: served differs from direct" Api.pp_request req;
            Alcotest.(check bool) "positive service time" true (service_ms > 0.))
          reqs measured;
        let service = Array.of_list (List.map snd measured) in
        let capacity = 2 and queue_depth = 3 in
        let sat = Traffic.saturation ~capacity service in
        Alcotest.(check bool) "finite saturation" true (Float.is_finite sat && sat > 0.);
        List.iter
          (fun mult ->
            let p = Traffic.simulate ~capacity ~queue_depth ~rate:(sat *. mult) service in
            Alcotest.(check int) "conservation" p.Traffic.offered
              (p.Traffic.completed + p.Traffic.shed);
            Alcotest.(check bool) "sheds at overload" true (p.Traffic.shed > 0);
            Alcotest.(check bool) "bounded queue" true (p.Traffic.max_queue <= queue_depth))
          [ 2.; 4. ];
        Server.shutdown server;
        Natix.Session.close serve_sess;
        Natix.Session.close twin);
  ]

let suites =
  [
    ("server.codec", codec_tests);
    ("server.protocol", protocol_tests);
    ("server.exec", exec_tests);
    ("server.differential", differential_tests);
    ("server.faults", fault_tests);
    ("server.admission", admission_tests);
    ("server.tenants", tenant_tests);
    ("server.socket", socket_tests);
    ("server.traffic", traffic_tests);
  ]
