(* Transactional writers: group-commit contract on the simulated clock,
   store-level transaction semantics (atomicity, poisoning, explicit and
   autocommit writers side by side), and the byte-by-byte torn-tail
   regression sweep over the redo+undo log. *)

open Natix_core
open Natix_store
open Natix_workload

let page_size = 1024

let config () =
  { (Config.default ()) with Config.page_size; buffer_bytes = 16 * page_size }

let fresh path =
  if Sys.file_exists path then Sys.remove path;
  let wal = Recovery.wal_path path in
  if Sys.file_exists wal then Sys.remove wal

let with_store_file f =
  let path = Filename.temp_file "natix_txn" ".db" in
  Fun.protect
    ~finally:(fun () -> fresh path)
    (fun () ->
      fresh path;
      f path)

let play ~seed i =
  let params =
    {
      Shakespeare.plays = 1;
      seed = Int64.of_int seed;
      acts_per_play = 1;
      scenes_per_act = (1, 2);
      speeches_per_scene = (2, 3);
      lines_per_speech = (1, 3);
      words_per_line = (3, 6);
      personae = (2, 3);
      stagedir_every = 4;
    }
  in
  Shakespeare.generate_play params (Natix_util.Prng.create ~seed:params.Shakespeare.seed) i

let export store doc =
  Natix_xml.Xml_print.to_string (Option.get (Exporter.document_to_xml store doc))

(* ------------------------------------------------------------------ *)
(* Group-commit contract (WAL-level, fully deterministic)              *)

let with_wal f =
  let path = Filename.temp_file "natix_gc" ".wal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let wal = Wal.create ~page_size:256 path in
      Fun.protect ~finally:(fun () -> Wal.close wal) (fun () -> f wal))

let append_commit wal ~txn =
  let b = Wal.log_begin wal ~txn ~base:0 in
  Wal.log_commit wal ~txn ~prev_lsn:b ~page_count:0

let group_commit_tests =
  [
    Alcotest.test_case "lone committer pays exactly one delay window" `Quick (fun () ->
        with_wal (fun wal ->
            let charged = ref 0. in
            let gc =
              Group_commit.create ~commit_delay:3.5 ~charge:(fun ms -> charged := !charged +. ms)
                wal
            in
            let lsn = append_commit wal ~txn:1 in
            (match Group_commit.commit gc ~lsn with
            | Ok () -> ()
            | Error m -> Alcotest.failf "commit failed: %s" m);
            Alcotest.(check (float 1e-9)) "one batching window charged" 3.5 !charged;
            Alcotest.(check int) "one flush" 1 (Group_commit.flushes gc);
            Alcotest.(check int) "one commit" 1 (Group_commit.committed gc);
            Alcotest.(check bool) "record durable" true (Wal.durable_lsn wal >= lsn)));
    Alcotest.test_case "a group of committers shares one flush" `Quick (fun () ->
        with_wal (fun wal ->
            let charged = ref 0. in
            let gc =
              Group_commit.create ~commit_delay:2.0 ~charge:(fun ms -> charged := !charged +. ms)
                wal
            in
            (* Four transactions land their commit records in the pending
               buffer during the leader's batching window; the first commit
               call flushes them all, the rest find the watermark already
               past their LSN. *)
            let lsns = List.map (fun txn -> append_commit wal ~txn) [ 1; 2; 3; 4 ] in
            let last = List.fold_left max 0 lsns in
            (match Group_commit.commit gc ~lsn:last with
            | Ok () -> ()
            | Error m -> Alcotest.failf "leader commit failed: %s" m);
            List.iter
              (fun lsn ->
                match Group_commit.commit gc ~lsn with
                | Ok () -> ()
                | Error m -> Alcotest.failf "follower commit failed: %s" m)
              lsns;
            Alcotest.(check int) "one flush for the whole group" 1 (Group_commit.flushes gc);
            Alcotest.(check int) "all five requests committed" 5 (Group_commit.committed gc);
            Alcotest.(check (float 1e-9)) "one batching window charged" 2.0 !charged));
    Alcotest.test_case "zero delay charges nothing" `Quick (fun () ->
        with_wal (fun wal ->
            let charged = ref 0. in
            let gc = Group_commit.create ~charge:(fun ms -> charged := !charged +. ms) wal in
            let lsn = append_commit wal ~txn:1 in
            (match Group_commit.commit gc ~lsn with
            | Ok () -> ()
            | Error m -> Alcotest.failf "commit failed: %s" m);
            Alcotest.(check (float 0.)) "no simulated time charged" 0. !charged));
    Alcotest.test_case "a crashed flush poisons the daemon, commits never hang" `Quick
      (fun () ->
        let path = Filename.temp_file "natix_gc" ".wal" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            let plan = Faulty_disk.create ~seed:11L () in
            let wal = Wal.create ~faults:plan ~page_size:256 path in
            Fun.protect
              ~finally:(fun () -> Wal.close wal)
              (fun () ->
                let gc = Group_commit.create ~charge:(fun _ -> ()) wal in
                let lsn = append_commit wal ~txn:1 in
                Faulty_disk.arm_fsync_crash plan 0;
                (match Group_commit.commit gc ~lsn with
                | exception Faulty_disk.Crash -> ()
                | Ok () -> Alcotest.fail "commit survived an armed fsync crash"
                | Error m -> Alcotest.failf "leader got Error %S, expected the crash" m);
                Alcotest.(check bool) "daemon poisoned" true (Group_commit.poisoned gc);
                (* Later committers get a typed error immediately. *)
                match Group_commit.commit gc ~lsn with
                | Error _ -> ()
                | Ok () -> Alcotest.fail "commit succeeded on a poisoned daemon")));
    Alcotest.test_case "acked commits survive a crash before any data write" `Quick (fun () ->
        (* No-force: the ack only proves the log records are durable.  Kill
           the process right after the ack — before a single data page is
           written back — and recovery must redo the transaction. *)
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p = Disk.allocate d in
            Disk.write d p (Bytes.make ps 'A');
            let wal =
              Wal.create ~first_lsn:10 ~page_size:(Disk.page_size d) (Recovery.wal_path path)
            in
            let gc = Group_commit.create ~charge:(fun _ -> ()) wal in
            let b = Wal.log_begin wal ~txn:1 ~base:(Disk.page_count d) in
            let u =
              Wal.log_update wal ~txn:1 ~prev_lsn:b ~page:p ~before:(Bytes.make ps 'A')
                ~after:(Bytes.make ps 'B')
            in
            let c = Wal.log_commit wal ~txn:1 ~prev_lsn:u ~page_count:(Disk.page_count d) in
            (match Group_commit.commit gc ~lsn:c with
            | Ok () -> ()
            | Error m -> Alcotest.failf "commit failed: %s" m);
            (* Simulated death: nothing else reaches the store file. *)
            Wal.close wal;
            Disk.close d;
            let d2 = Disk.on_file ~page_size:256 path in
            let rep = Recovery.run d2 in
            Alcotest.(check int) "acked page redone" 1 rep.Recovery.redone;
            Alcotest.(check int) "no losers" 0 rep.Recovery.losers;
            let r = Bytes.create ps in
            Disk.read d2 p r;
            Alcotest.(check bytes) "acked content present" (Bytes.make ps 'B') r;
            Disk.close d2));
  ]

(* ------------------------------------------------------------------ *)
(* Store-level transactions                                            *)

let open_txn_store ?plan ?(commit_delay = 0.) path =
  let disk = Disk.on_file ~page_size path in
  (match plan with None -> () | Some p -> Disk.set_faults disk (Some p));
  Tree_store.open_store ~config:{ (config ()) with Config.commit_delay } disk

let txn_tests =
  [
    Alcotest.test_case "a committed transaction survives death before write-back" `Quick
      (fun () ->
        with_store_file (fun path ->
            let store = open_txn_store path in
            let dm = Document_manager.create ~index:Document_manager.Off store in
            let xml = play ~seed:41 0 in
            (match Document_manager.store_transactional dm ~name:"doc" xml with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "store failed: %s" (Error.to_string e));
            let expected = export store "doc" in
            (* close ~commit:false: no checkpoint, so the buffer pool's
               dirty pages never reach the store file — only the WAL has
               the transaction.  Recovery must rebuild it from redo. *)
            Tree_store.close ~commit:false store;
            let store2 = open_txn_store path in
            Alcotest.(check (list string)) "document present" [ "doc" ]
              (Tree_store.list_documents store2);
            (let report = Fsck.run store2 in
             if not (Fsck.ok report) then
               Alcotest.failf "post-recovery fsck: %a" Fsck.pp report);
            Alcotest.(check string) "export byte-identical" expected (export store2 "doc");
            Tree_store.close ~commit:false store2));
    Alcotest.test_case "transactions on different documents commit from 3 domains" `Quick
      (fun () ->
        with_store_file (fun path ->
            let files =
              List.init 6 (fun i ->
                  ( Printf.sprintf "play-%d" i,
                    Natix_xml.Xml_print.to_string ~decl:true (play ~seed:(50 + i) i) ))
            in
            (* Sequential reference. *)
            let reference =
              let store = Tree_store.in_memory ~config:(config ()) () in
              let dm = Document_manager.create ~index:Document_manager.Off store in
              List.iter
                (fun (name, text) ->
                  match
                    Document_manager.store_document dm ~name (Natix_xml.Xml_parser.parse text)
                  with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "reference load: %s" (Error.to_string e))
                files;
              let r = List.map (fun (n, _) -> (n, export store n)) files in
              Tree_store.close ~commit:false store;
              r
            in
            let store = open_txn_store ~commit_delay:1.0 path in
            let dm = Document_manager.create ~index:Document_manager.Off store in
            let outcome = Natix_par.Par.load_files_txn ~jobs:3 dm files in
            List.iter2
              (fun (name, _) result ->
                match result with
                | Ok () -> ()
                | Error e -> Alcotest.failf "%s: %s" name (Error.to_string e))
              files outcome.Natix_par.Par.results;
            Alcotest.(check int) "no transaction left active" 0 (Tree_store.active_txns store);
            (let gc = Option.get (Tree_store.group_commit store) in
             Alcotest.(check int) "every document committed" (List.length files)
               (Group_commit.committed gc);
             Alcotest.(check bool) "commit fsyncs batched or equal" true
               (Group_commit.flushes gc <= Group_commit.committed gc));
            List.iter
              (fun (name, expected) ->
                Alcotest.(check string) (name ^ " export") expected (export store name))
              reference;
            Tree_store.close ~commit:false store;
            (* And again through recovery: nothing was checkpointed. *)
            let store2 = open_txn_store path in
            Alcotest.(check bool) "fsck clean after recovery" true
              (Fsck.ok (Fsck.run store2));
            List.iter
              (fun (name, expected) ->
                Alcotest.(check string) (name ^ " after recovery") expected
                  (export store2 name))
              reference;
            Tree_store.close ~commit:false store2));
    Alcotest.test_case "checkpoint is rejected mid-transaction, autocommit writes proceed"
      `Quick (fun () ->
        with_store_file (fun path ->
            let store = open_txn_store path in
            Tree_store.autocommit store ~doc:"base" (fun () ->
                ignore (Loader.load store ~name:"base" (play ~seed:77 0)));
            Tree_store.sync store;
            let m = Mutex.create () and c = Condition.create () in
            let started = ref false and release = ref false in
            let signal r =
              Mutex.lock m;
              r := true;
              Condition.broadcast c;
              Mutex.unlock m
            in
            let wait r =
              Mutex.lock m;
              while not !r do
                Condition.wait c m
              done;
              Mutex.unlock m
            in
            let writer =
              Domain.spawn (fun () ->
                  Tree_store.with_txn store ~doc:"txn-doc" (fun () ->
                      ignore (Loader.load store ~name:"txn-doc" (play ~seed:78 1));
                      signal started;
                      wait release))
            in
            wait started;
            Alcotest.(check int) "one transaction in flight" 1 (Tree_store.active_txns store);
            (* A write on another document commits beside it. *)
            Tree_store.autocommit store ~doc:"beside" (fun () ->
                ignore (Tree_store.create_document store ~name:"beside" ~root:"r"));
            Alcotest.(check bool) "autocommit write landed" true
              (Tree_store.document_rid store "beside" <> None);
            (match Tree_store.sync store with
            | exception Error.Error (Error.Storage _) -> ()
            | () -> Alcotest.fail "checkpoint accepted mid-transaction");
            signal release;
            ignore (Domain.join writer);
            Alcotest.(check int) "transaction drained" 0 (Tree_store.active_txns store);
            Tree_store.sync store;
            Tree_store.close store;
            let store2 = open_txn_store path in
            Alcotest.(check (list string)) "every write survives" [ "base"; "beside"; "txn-doc" ]
              (Tree_store.list_documents store2);
            Alcotest.(check bool) "fsck clean" true (Fsck.ok (Fsck.run store2));
            Tree_store.close ~commit:false store2));
    Alcotest.test_case "a crashed commit poisons the store with typed errors" `Quick (fun () ->
        with_store_file (fun path ->
            let plan = Faulty_disk.create ~seed:5L () in
            let store = open_txn_store ~plan path in
            let dm = Document_manager.create ~index:Document_manager.Off store in
            (match Document_manager.store_transactional dm ~name:"first" (play ~seed:90 0) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "first store failed: %s" (Error.to_string e));
            let expected = export store "first" in
            (* The next log fsync — the second document's commit — dies. *)
            Faulty_disk.arm_fsync_crash plan 0;
            (match Document_manager.store_transactional dm ~name:"second" (play ~seed:91 1) with
            | exception Faulty_disk.Crash -> ()
            | Ok _ -> Alcotest.fail "commit survived an armed fsync crash"
            | Error e -> Alcotest.failf "expected the crash, got %s" (Error.to_string e));
            Alcotest.(check bool) "store poisoned" true (Tree_store.poisoned store <> None);
            (* Every later operation fails with a typed error — no hang,
               no untyped exception. *)
            (match Document_manager.store_transactional dm ~name:"third" (play ~seed:92 2) with
            | Error (Error.Storage _) -> ()
            | _ -> Alcotest.fail "poisoned store accepted a transaction");
            (match Tree_store.sync store with
            | exception Error.Error (Error.Storage _) -> ()
            | () -> Alcotest.fail "poisoned store accepted a checkpoint");
            (* close must NOT checkpoint (that would promote the loser). *)
            Tree_store.close store;
            let store2 = open_txn_store path in
            Alcotest.(check (list string)) "loser rolled back, first survives" [ "first" ]
              (Tree_store.list_documents store2);
            Alcotest.(check bool) "fsck clean" true (Fsck.ok (Fsck.run store2));
            Alcotest.(check string) "first export intact" expected (export store2 "first");
            Tree_store.close ~commit:false store2));
    Alcotest.test_case "commit_delay lands on the simulated clock" `Quick (fun () ->
        with_store_file (fun path ->
            let store = open_txn_store ~commit_delay:4.25 path in
            let dm = Document_manager.create ~index:Document_manager.Off store in
            let before = (Tree_store.io_stats store).Io_stats.sim_ms in
            (match Document_manager.store_transactional dm ~name:"doc" (play ~seed:93 0) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "store failed: %s" (Error.to_string e));
            let after = (Tree_store.io_stats store).Io_stats.sim_ms in
            Alcotest.(check bool) "at least one batching window charged" true
              (after -. before >= 4.25);
            Tree_store.close store));
    Alcotest.test_case "transactions need a write-ahead log" `Quick (fun () ->
        let store = Tree_store.in_memory ~config:(config ()) () in
        (match Tree_store.with_txn store ~doc:"d" (fun () -> ()) with
        | exception Error.Error (Error.Storage _) -> ()
        | () -> Alcotest.fail "in-memory store accepted a transaction");
        Tree_store.close store);
    Alcotest.test_case "LSN sequence survives a crash at the checkpoint truncation" `Quick
      (fun () ->
        (* A checkpoint truncates the log; if the crash lands on the fresh
           log's first fsync, recovery finds a log with no records while
           data-page trailers still carry the previous incarnation's LSNs.
           The sequence must resume above them (the WAL header's high-water
           mark), or later committed transactions redo as no-ops — the
           pages "already contain" records they have never seen. *)
        with_store_file (fun path ->
            let plan = Faulty_disk.create ~seed:21L () in
            let store = open_txn_store ~plan path in
            (* Lots of logged records: the first incarnation's LSNs (and
               with them the trailer stamps its checkpoint flushes home)
               must dwarf anything the short second incarnation draws. *)
            ignore
              (Tree_store.with_txn store ~doc:"play" (fun () ->
                   for i = 0 to 3 do
                     ignore
                       (Loader.load store
                          ~name:(if i = 0 then "play" else Printf.sprintf "play_%d" i)
                          (play ~seed:(70 + i) i))
                   done));
            let reference = export store "play" in
            (* The checkpoint truncates the log; the next commit's fsync
               dies, leaving a header and a torn record. *)
            Tree_store.sync store;
            Faulty_disk.arm_fsync_crash plan (Faulty_disk.fsyncs_seen plan);
            (match
               Tree_store.autocommit store ~doc:"lost" (fun () ->
                   ignore (Tree_store.create_document store ~name:"lost" ~root:"r"))
             with
            | exception Faulty_disk.Crash -> ()
            | () -> Alcotest.fail "commit survived the armed fsync crash");
            Tree_store.close ~commit:false store;
            (* Reopen and commit one small document: its transaction
               updates catalog pages whose on-disk trailers carry
               first-incarnation LSNs far above a restarted sequence. *)
            let store2 = open_txn_store path in
            ignore
              (Tree_store.with_txn store2 ~doc:"play2" (fun () ->
                   ignore (Tree_store.create_document store2 ~name:"play2" ~root:"r")));
            let expected2 = export store2 "play2" in
            Tree_store.close ~commit:false store2;
            (* The ack is all this transaction ever got — recovery must
               redo it even onto pages with older (higher-looking) stamps. *)
            let store3 = open_txn_store path in
            Alcotest.(check bool) "fsck clean" true (Fsck.ok (Fsck.run store3));
            Alcotest.(check bool) "acked document present" true
              (List.mem "play2" (Tree_store.list_documents store3));
            Alcotest.(check string) "first document intact" reference (export store3 "play");
            Alcotest.(check string) "acked commit redone" expected2 (export store3 "play2");
            Tree_store.close ~commit:false store3));
    Alcotest.test_case "an autocommit write after a commit is WAL-covered" `Quick (fun () ->
        (* A write right after another transaction commits — the seam
           where steals of the committed pages and the new write's pages
           meet — must reach disk only under log records.  Sweep crash
           points across the write and the checkpoint that flushes it. *)
        let crashed = ref 0 in
        let point = ref 0 in
        let continue = ref true in
        while !continue do
          with_store_file (fun path ->
              let plan = Faulty_disk.create ~seed:31L () in
              let store = open_txn_store ~plan path in
              ignore
                (Tree_store.with_txn store ~doc:"committed" (fun () ->
                     ignore (Loader.load store ~name:"committed" (play ~seed:80 0))));
              let reference = export store "committed" in
              let acked = ref None in
              Faulty_disk.arm_crash plan (Faulty_disk.writes_seen plan + !point);
              (match
                 Tree_store.autocommit store ~doc:"next" (fun () ->
                     ignore (Loader.load store ~name:"next" (play ~seed:81 1)));
                 acked := Some (export store "next");
                 Tree_store.sync store
               with
              | exception Faulty_disk.Crash ->
                incr crashed;
                Tree_store.close ~commit:false store
              | () ->
                (* The sweep walked past the flush: no more crash points. *)
                continue := false;
                Tree_store.close ~commit:false store);
              let store2 = open_txn_store path in
              Alcotest.(check bool)
                (Printf.sprintf "crash point %d: fsck clean" !point)
                true
                (Fsck.ok (Fsck.run store2));
              Alcotest.(check string)
                (Printf.sprintf "crash point %d: committed document intact" !point)
                reference (export store2 "committed");
              (* The write is atomic — wholly absent or wholly present —
                 and present once acknowledged. *)
              (match (Tree_store.document_rid store2 "next", !acked) with
              | None, None -> ()
              | None, Some _ ->
                Alcotest.failf "crash point %d: acknowledged write lost" !point
              | Some _, _ ->
                let expected =
                  match !acked with
                  | Some x -> x
                  | None ->
                    (* In flight at the crash, yet durable: it must equal
                       the write as a clean run makes it. *)
                    with_store_file (fun p ->
                        let s = open_txn_store p in
                        Tree_store.autocommit s ~doc:"next" (fun () ->
                            ignore (Loader.load s ~name:"next" (play ~seed:81 1)));
                        let x = export s "next" in
                        Tree_store.close ~commit:false s;
                        x)
                in
                Alcotest.(check string)
                  (Printf.sprintf "crash point %d: write complete if present" !point)
                  expected (export store2 "next"));
              Tree_store.close ~commit:false store2);
          incr point
        done;
        Alcotest.(check bool) "sweep hit at least one crash point" true (!crashed > 0));
    Alcotest.test_case "loading a taken name is a typed error and the next load succeeds" `Quick
      (fun () ->
        with_store_file (fun path ->
            let text i = Natix_xml.Xml_print.to_string ~decl:true (play ~seed:(95 + i) i) in
            let options = { Natix.Session.Options.default with config = Some (config ()) } in
            let sess = Natix.Session.open_store ~options path in
            let store = Natix.Session.store sess in
            let results files = (Natix.Session.load_files_txn ~jobs:2 sess files).Natix_par.Par.results in
            (match results [ ("a", text 0) ] with
            | [ Ok () ] -> ()
            | _ -> Alcotest.fail "first load of \"a\" failed");
            let original = export store "a" in
            (* Through the transactional bulk load: a per-task error. *)
            (match results [ ("a", text 1); ("b", text 2) ] with
            | [ Error (Error.Storage _); Ok () ] -> ()
            | _ -> Alcotest.fail "a taken name in load_files_txn is not a per-task Storage error");
            Alcotest.(check bool) "not poisoned after load_files_txn" true
              (Tree_store.poisoned store = None);
            (* Through the command surface: a typed reply, then a load that
               works. *)
            let load doc i =
              Natix.Session.exec sess (Natix.Api.Load { doc; xml = text i; order = Loader.Preorder })
            in
            (match load "b" 3 with
            | Natix.Api.Err (Error.Storage _) -> ()
            | r -> Alcotest.failf "Load of a taken name: %a" Natix.Api.pp_response r);
            (match load "c" 4 with
            | Natix.Api.Loaded _ -> ()
            | r -> Alcotest.failf "Load after the rejected one: %a" Natix.Api.pp_response r);
            Natix.Session.close ~commit:false sess;
            let store2 = open_txn_store path in
            Alcotest.(check (list string)) "every acknowledged load survives" [ "a"; "b"; "c" ]
              (Tree_store.list_documents store2);
            Alcotest.(check string) "the taken name kept its document" original
              (export store2 "a");
            Alcotest.(check bool) "fsck clean" true (Fsck.ok (Fsck.run store2));
            Tree_store.close ~commit:false store2));
    Alcotest.test_case "a fresh store that dies before its first commit reopens writable" `Quick
      (fun () ->
        (* Page 0 is formatted by the bootstrap transaction.  Until that
           commits, recovery must roll the file back to no pages, so the
           next open bootstraps again — an unformatted page 0 would fail
           every later catalog save. *)
        let writable what path =
          let store = open_txn_store path in
          let report = Fsck.run store in
          if not (Fsck.ok report) then Alcotest.failf "%s: fsck: %a" what Fsck.pp report;
          let dm = Document_manager.create store in
          (match Document_manager.store_document dm ~name:"doc" (play ~seed:97 0) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: store failed: %s" what (Error.to_string e));
          let expected = export store "doc" in
          Document_manager.checkpoint dm;
          Tree_store.close store;
          let store = open_txn_store path in
          let report = Fsck.run store in
          if not (Fsck.ok report) then
            Alcotest.failf "%s: fsck after the write: %a" what Fsck.pp report;
          Alcotest.(check string) (what ^ ": document durable") expected (export store "doc");
          Tree_store.close ~commit:false store
        in
        with_store_file (fun path ->
            Tree_store.close ~commit:false (open_txn_store path);
            writable "closed without a commit" path);
        List.iter
          (fun (name, mode) ->
            with_store_file (fun path ->
                let plan = Faulty_disk.create ~seed:97L () in
                let store = open_txn_store ~plan path in
                Faulty_disk.arm_fsync_crash ~mode plan (Faulty_disk.fsyncs_seen plan);
                (match
                   Tree_store.autocommit store ~doc:"lost" (fun () ->
                       ignore (Tree_store.create_document store ~name:"lost" ~root:"r"))
                 with
                | exception Faulty_disk.Crash -> ()
                | () -> Alcotest.fail "commit survived the armed fsync crash");
                Tree_store.close ~commit:false store;
                writable ("crash at the first commit, " ^ name) path))
          [ ("batch lost", `Lose_all); ("tail lost", `Lose_tail); ("subset kept", `Subset) ]);
    Alcotest.test_case "a streaming load into a file store is one transaction" `Quick (fun () ->
        with_store_file (fun path ->
            let text = Natix_xml.Xml_print.to_string (play ~seed:98 0) in
            let options = { Natix.Session.Options.default with config = Some (config ()) } in
            let sess = Natix.Session.open_store ~options path in
            let dm = Natix.Session.manager sess in
            (match Document_manager.store_stream dm ~name:"s" text with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "stream load failed: %s" (Error.to_string e));
            (match Document_manager.store_stream dm ~name:"s" text with
            | Error (Error.Storage _) -> ()
            | Ok _ | Error _ -> Alcotest.fail "a taken name is not a Storage error");
            Alcotest.(check bool) "not poisoned" true
              (Tree_store.poisoned (Natix.Session.store sess) = None);
            let expected = export (Natix.Session.store sess) "s" in
            Natix.Session.close ~commit:false sess;
            let store = open_txn_store path in
            Alcotest.(check bool) "fsck clean" true (Fsck.ok (Fsck.run store));
            Alcotest.(check string) "the acknowledged load survives" expected (export store "s");
            Alcotest.(check string) "export equals the input" text (export store "s");
            Tree_store.close ~commit:false store));
  ]

(* ------------------------------------------------------------------ *)
(* Torn-tail hardening: byte-by-byte sweep                             *)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_whole path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let torn_tail_tests =
  [
    Alcotest.test_case "recovery survives truncation at every byte offset" `Slow (fun () ->
        with_store_file (fun path ->
            (* One committed transaction: Begin0, Begin1, Update('A'->'B'),
               Commit.  The page itself is never written, so the recovered
               content is 'B' exactly when the whole log survived and 'A'
               for every proper prefix. *)
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p = Disk.allocate d in
            Disk.write d p (Bytes.make ps 'A');
            let wal =
              Wal.create ~first_lsn:10 ~page_size:(Disk.page_size d) (Recovery.wal_path path)
            in
            let b = Wal.log_begin wal ~txn:1 ~base:(Disk.page_count d) in
            let u =
              Wal.log_update wal ~txn:1 ~prev_lsn:b ~page:p ~before:(Bytes.make ps 'A')
                ~after:(Bytes.make ps 'B')
            in
            ignore (Wal.log_commit wal ~txn:1 ~prev_lsn:u ~page_count:(Disk.page_count d));
            Wal.fsync wal;
            Wal.close wal;
            Disk.close d;
            let wal_path = Recovery.wal_path path in
            let pristine_store = read_whole path in
            let pristine_wal = read_whole wal_path in
            let n = String.length pristine_wal in
            for cut = 0 to n do
              write_whole path pristine_store;
              write_whole wal_path (String.sub pristine_wal 0 cut);
              let d2 = Disk.on_file ~page_size:256 path in
              (match Recovery.run d2 with
              | exception e ->
                Alcotest.failf "cut at %d/%d bytes: recovery raised %s" cut n
                  (Printexc.to_string e)
              | rep ->
                if cut < n then
                  Alcotest.(check bool)
                    (Printf.sprintf "cut at %d: torn tail reported or clean boundary" cut)
                    true
                    (rep.Recovery.torn_bytes > 0 || rep.Recovery.ran);
                let r = Bytes.create ps in
                Disk.read d2 p r;
                let expect = if cut = n then 'B' else 'A' in
                Alcotest.(check bytes)
                  (Printf.sprintf "cut at %d: content resolves to '%c'" cut expect)
                  (Bytes.make ps expect) r);
              Disk.close d2
            done));
    Alcotest.test_case "recovery survives a flipped byte at every offset" `Slow (fun () ->
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p = Disk.allocate d in
            Disk.write d p (Bytes.make ps 'A');
            let wal =
              Wal.create ~first_lsn:10 ~page_size:(Disk.page_size d) (Recovery.wal_path path)
            in
            let b = Wal.log_begin wal ~txn:1 ~base:(Disk.page_count d) in
            let u =
              Wal.log_update wal ~txn:1 ~prev_lsn:b ~page:p ~before:(Bytes.make ps 'A')
                ~after:(Bytes.make ps 'B')
            in
            ignore (Wal.log_commit wal ~txn:1 ~prev_lsn:u ~page_count:(Disk.page_count d));
            Wal.fsync wal;
            Wal.close wal;
            Disk.close d;
            let wal_path = Recovery.wal_path path in
            let pristine_store = read_whole path in
            let pristine_wal = read_whole wal_path in
            let n = String.length pristine_wal in
            (* Header bytes include don't-care padding, where a flip is
               legitimately invisible; the cut sweep above covers header
               damage.  Record bytes are all CRC-protected. *)
            for off = Wal.header_size to n - 1 do
              write_whole path pristine_store;
              let corrupt = Bytes.of_string pristine_wal in
              Bytes.set corrupt off (Char.chr (Char.code (Bytes.get corrupt off) lxor 0xff));
              write_whole wal_path (Bytes.to_string corrupt);
              let d2 = Disk.on_file ~page_size:256 path in
              (match Recovery.run d2 with
              | exception e ->
                Alcotest.failf "flip at %d/%d: recovery raised %s" off n
                  (Printexc.to_string e)
              | _rep ->
                (* A flip invalidates the CRC of the record containing it,
                   so parsing stops before the commit record: the page must
                   resolve to the pre-image. *)
                let r = Bytes.create ps in
                Disk.read d2 p r;
                Alcotest.(check bytes)
                  (Printf.sprintf "flip at %d: content rolls back to 'A'" off)
                  (Bytes.make ps 'A') r);
              Disk.close d2
            done));
  ]

(* ------------------------------------------------------------------ *)
(* Concurrent writers: randomized differential harness                 *)

let parse s = Natix_xml.Xml_parser.parse s

let frag_text ~seed k =
  Printf.sprintf "<scene n=\"%d\"><line>appended %d by schedule %d</line></scene>" k k seed

let sum_reads outcome =
  List.fold_left
    (fun acc ws -> acc + ws.Natix_par.Par.io.Io_stats.reads)
    0 outcome.Natix_par.Par.workers

let sum_writes outcome =
  List.fold_left
    (fun acc ws -> acc + ws.Natix_par.Par.io.Io_stats.writes)
    0 outcome.Natix_par.Par.workers

(* One randomized schedule: [ndocs] documents created by disjoint
   concurrent writers, then [nappends] fragment transactions whose target
   documents overlap (every document gets at least one, the rest are drawn
   at random).  The commit order observed under the document latches is
   recorded with a ticket taken inside each transaction; replaying the
   same committed transactions sequentially in ticket order on a fresh
   store must yield byte-identical exports — concurrency may only change
   the schedule, never the result.  Also asserted: the per-writer I/O
   accounting partitions the disk totals exactly, and the store is
   fsck-clean (ownership tags included) after crash recovery. *)
let run_schedule ~seed ~jobs =
  with_store_file (fun path ->
      let label what = Printf.sprintf "schedule %d jobs %d: %s" seed jobs what in
      let ndocs = 3 + (seed mod 3) in
      let nappends = ndocs + 6 in
      let prng = Natix_util.Prng.create ~seed:(Int64.of_int (0xC0 + seed)) in
      let doc i = Printf.sprintf "doc-%d-%d" seed i in
      let files =
        List.init ndocs (fun i ->
            (doc i, Natix_xml.Xml_print.to_string ~decl:true (play ~seed:((seed * 100) + i) i)))
      in
      let store = open_txn_store ~commit_delay:0.25 path in
      let dm = Document_manager.create ~index:Document_manager.Off store in
      let disk = Buffer_pool.disk (Tree_store.buffer_pool store) in
      let io = Tree_store.io_stats store in
      (* Phase A: disjoint writers, one document each. *)
      let before_a = Io_stats.copy io in
      let created = Natix_par.Par.load_files_txn ~jobs dm files in
      List.iter2
        (fun (name, _) -> function
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" (label name) (Error.to_string e))
        files created.Natix_par.Par.results;
      let delta_a = Io_stats.diff (Io_stats.copy io) before_a in
      Alcotest.(check int) (label "disjoint reads partition") delta_a.Io_stats.reads
        (sum_reads created);
      Alcotest.(check int)
        (label "disjoint writes partition")
        delta_a.Io_stats.writes (sum_writes created);
      (* Phase B: overlapping writers — every document gets one append,
         the remainder target random documents. *)
      let appends =
        List.init nappends (fun k ->
            let d = if k < ndocs then doc k else doc (Natix_util.Prng.int prng ndocs) in
            (k, d, frag_text ~seed k))
      in
      let order = Array.make nappends (-1) in
      let ticket = Atomic.make 0 in
      let before_b = Io_stats.copy io in
      let appended =
        Natix_par.Par.map_tasks ~jobs ~disk
          ~make_ctx:(fun () -> ())
          ~f:(fun () (k, d, text) ->
            Tree_store.with_txn store ~doc:d (fun () ->
                let root = Option.get (Tree_store.open_document store d) in
                match
                  Document_manager.insert_fragment dm ~doc:d (Tree_store.First_under root)
                    (parse text)
                with
                | Ok _ -> order.(k) <- Atomic.fetch_and_add ticket 1
                | Error e -> Alcotest.failf "append %d on %s: %s" k d (Error.to_string e)))
          (Array.of_list appends)
      in
      let delta_b = Io_stats.diff (Io_stats.copy io) before_b in
      Alcotest.(check int)
        (label "overlapping reads partition")
        delta_b.Io_stats.reads (sum_reads appended);
      Alcotest.(check int)
        (label "overlapping writes partition")
        delta_b.Io_stats.writes (sum_writes appended);
      Alcotest.(check int) (label "every append committed") nappends (Atomic.get ticket);
      (* Sequential replay of the same committed transactions, in ticket
         order, on a fresh store. *)
      let expected =
        let ref_store = Tree_store.in_memory ~config:(config ()) () in
        let ref_dm = Document_manager.create ~index:Document_manager.Off ref_store in
        List.iter
          (fun (name, text) ->
            match Document_manager.store_document ref_dm ~name (parse text) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: replay load: %s" (label name) (Error.to_string e))
          files;
        List.iter
          (fun (k, d, text) ->
            let root = Option.get (Tree_store.open_document ref_store d) in
            match
              Document_manager.insert_fragment ref_dm ~doc:d (Tree_store.First_under root)
                (parse text)
            with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "replay append %d on %s: %s" k d (Error.to_string e))
          (List.sort (fun (a, _, _) (b, _, _) -> compare order.(a) order.(b)) appends);
        let exports = List.init ndocs (fun i -> (doc i, export ref_store (doc i))) in
        Tree_store.close ~commit:false ref_store;
        exports
      in
      List.iter (fun (d, x) -> Alcotest.(check string) (label d) x (export store d)) expected;
      Tree_store.close ~commit:false store;
      (* Everything was acked and nothing checkpointed: recovery must
         rebuild the identical store, with no orphaned pages. *)
      let store2 = open_txn_store path in
      let report = Fsck.run store2 in
      if not (Fsck.ok report) then Alcotest.failf "%s: %a" (label "post-recovery fsck") Fsck.pp report;
      List.iter
        (fun (d, x) -> Alcotest.(check string) (label (d ^ " after recovery")) x (export store2 d))
        expected;
      Tree_store.close ~commit:false store2)

(* Autocommit and explicit writers at once.  Domain 0 runs autocommit
   loads and deletes (shared arena, structure lock across each mutation
   phase); the other domains run explicit transactional loads (private
   arenas, concurrent mutation phases).  Documents are independent, so a
   sequential replay of the surviving documents must export identically,
   whatever the interleaving; the index, folded at the checkpoint, must
   agree with the documents, and the store must fsck clean after both a
   checkpoint and crash recovery. *)
let run_mixed ~seed ~jobs =
  with_store_file (fun path ->
      let label what = Printf.sprintf "mixed %d jobs %d: %s" seed jobs what in
      let text i = Natix_xml.Xml_print.to_string ~decl:true (play ~seed:((seed * 100) + i) i) in
      let auto = List.init 4 (fun i -> (Printf.sprintf "auto-%d" i, text i)) in
      let deleted = [ "auto-0"; "auto-2" ] in
      let explicit = List.init (2 * (jobs - 1)) (fun i -> (Printf.sprintf "txn-%d" i, text (10 + i))) in
      let store = open_txn_store ~commit_delay:0.25 path in
      let dm = Document_manager.create store in
      let ok name = function
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" (label name) (Error.to_string e)
      in
      let autocommit_writer () =
        List.iteri
          (fun i (name, t) ->
            ok name (Document_manager.store_document dm ~name (parse t));
            (* Delete an earlier load while the explicit writers run. *)
            if i mod 2 = 1 then Document_manager.delete_document dm (Printf.sprintf "auto-%d" (i - 1)))
          auto
      in
      let explicit_writer w () =
        List.iteri
          (fun i (name, t) ->
            if i mod (jobs - 1) = w then
              ok name (Document_manager.store_transactional dm ~name (parse t)))
          explicit
      in
      let domains = List.init (jobs - 1) (fun w -> Domain.spawn (explicit_writer w)) in
      autocommit_writer ();
      List.iter Domain.join domains;
      let survivors =
        List.filter (fun (name, _) -> not (List.mem name deleted)) (auto @ explicit)
        |> List.sort compare
      in
      let expected =
        let ref_store = Tree_store.in_memory ~config:(config ()) () in
        let ref_dm = Document_manager.create ~index:Document_manager.Off ref_store in
        List.iter (fun (name, t) -> ok name (Document_manager.store_document ref_dm ~name (parse t))) survivors;
        let x = List.map (fun (name, _) -> (name, export ref_store name)) survivors in
        Tree_store.close ~commit:false ref_store;
        x
      in
      let check_store what store =
        Alcotest.(check (list string)) (label (what ^ ": documents")) (List.map fst expected)
          (Tree_store.list_documents store);
        List.iter (fun (d, x) -> Alcotest.(check string) (label (what ^ ": " ^ d)) x (export store d)) expected;
        let report = Fsck.run store in
        if not (Fsck.ok report) then Alcotest.failf "%s: %a" (label (what ^ ": fsck")) Fsck.pp report
      in
      Document_manager.checkpoint dm;
      Element_index.check (Option.get (Document_manager.index dm));
      check_store "after checkpoint" store;
      Tree_store.close ~commit:false store;
      let store2 = open_txn_store path in
      check_store "after recovery" store2;
      Tree_store.close ~commit:false store2)

let concurrent_tests =
  [
    Alcotest.test_case "autocommit and explicit writers together match sequential replay" `Quick
      (fun () ->
        Lock_rank.enable ();
        let v0 = Lock_rank.violations () in
        Fun.protect
          ~finally:(fun () -> Lock_rank.disable ())
          (fun () -> List.iter (fun jobs -> for seed = 1 to 3 do run_mixed ~seed ~jobs done) [ 2; 3 ]);
        Alcotest.(check int) "no lock-rank violations" v0 (Lock_rank.violations ()));
    Alcotest.test_case "randomized schedules match sequential replay at jobs 1/2/4" `Quick
      (fun () ->
        (* 7 seeds x 3 job counts = 21 schedules, all under lock-rank
           checking: the arena/alloc order must hold under real
           concurrent-writer stress. *)
        Lock_rank.enable ();
        let v0 = Lock_rank.violations () in
        Fun.protect
          ~finally:(fun () -> Lock_rank.disable ())
          (fun () ->
            List.iter (fun jobs -> for seed = 1 to 7 do run_schedule ~seed ~jobs done) [ 1; 2; 4 ]);
        Alcotest.(check int) "no lock-rank violations" v0 (Lock_rank.violations ()));
    Alcotest.test_case "two writers on the same document serialize on the doc latch" `Quick
      (fun () ->
        with_store_file (fun path ->
            let store = open_txn_store path in
            let dm = Document_manager.create ~index:Document_manager.Off store in
            (match Document_manager.store_transactional dm ~name:"shared" (play ~seed:60 0) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "load failed: %s" (Error.to_string e));
            let k = 8 in
            let writer w =
              Domain.spawn (fun () ->
                  for i = 0 to k - 1 do
                    Tree_store.with_txn store ~doc:"shared" (fun () ->
                        let root = Option.get (Tree_store.open_document store "shared") in
                        match
                          Document_manager.insert_fragment dm ~doc:"shared"
                            (Tree_store.First_under root)
                            (parse (Printf.sprintf "<note w=\"%d\" i=\"%d\">x</note>" w i))
                        with
                        | Ok _ -> ()
                        | Error e -> failwith (Error.to_string e))
                  done)
            in
            let count_notes store =
              let root = Option.get (Tree_store.open_document store "shared") in
              Seq.fold_left
                (fun acc n ->
                  if Tree_store.is_element n && Tree_store.label_name store n.Phys_node.label = "note"
                  then acc + 1
                  else acc)
                0
                (Tree_store.logical_children store root)
            in
            let a = writer 0 and b = writer 1 in
            Domain.join a;
            Domain.join b;
            (* Lost updates would show as fewer than 2k notes: an insert
               that planned against a snapshot another writer overwrote. *)
            Alcotest.(check int) "no lost updates" (2 * k) (count_notes store);
            Tree_store.close ~commit:false store;
            let store2 = open_txn_store path in
            Alcotest.(check bool) "fsck clean" true (Fsck.ok (Fsck.run store2));
            Alcotest.(check int) "no lost updates after recovery" (2 * k) (count_notes store2);
            Tree_store.close ~commit:false store2));
    Alcotest.test_case "a checkpoint is rejected while an unrelated writer is in flight"
      `Quick (fun () ->
        with_store_file (fun path ->
            let store = open_txn_store path in
            let dm = Document_manager.create ~index:Document_manager.Off store in
            (match Document_manager.store_transactional dm ~name:"idle" (play ~seed:61 0) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "load failed: %s" (Error.to_string e));
            let expected = export store "idle" in
            let m = Mutex.create () and c = Condition.create () in
            let started = ref false and release = ref false in
            let signal r =
              Mutex.lock m;
              r := true;
              Condition.broadcast c;
              Mutex.unlock m
            in
            let wait r =
              Mutex.lock m;
              while not !r do
                Condition.wait c m
              done;
              Mutex.unlock m
            in
            let writer =
              Domain.spawn (fun () ->
                  Tree_store.with_txn store ~doc:"busy" (fun () ->
                      ignore (Loader.load store ~name:"busy" (play ~seed:62 1));
                      signal started;
                      wait release))
            in
            wait started;
            (match Tree_store.sync store with
            | exception Error.Error (Error.Storage _) -> ()
            | () -> Alcotest.fail "store-wide sync accepted mid-transaction");
            signal release;
            ignore (Domain.join writer);
            Alcotest.(check int) "transaction drained" 0 (Tree_store.active_txns store);
            Tree_store.close ~commit:false store;
            let store2 = open_txn_store path in
            Alcotest.(check bool) "fsck clean" true (Fsck.ok (Fsck.run store2));
            Alcotest.(check string) "idle document intact" expected (export store2 "idle");
            Tree_store.close ~commit:false store2));
  ]

let suites =
  [
    ("txn.group_commit", group_commit_tests);
    ("txn.store", txn_tests);
    ("txn.concurrent", concurrent_tests);
    ("txn.torn_tail", torn_tail_tests);
  ]
