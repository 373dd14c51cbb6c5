(* Crash-consistency harness.

   A deterministic Shakespeare load+update workload runs against a
   file-backed store with a fault plan armed to crash on the [k+1]-th
   physical write (data pages, fresh allocations and WAL appends all
   count).  Every write is its own autocommit transaction.  After the
   simulated process death the store is reopened — which runs
   {!Natix_store.Recovery} — and must come back to exactly the state after
   the last acknowledged write, or after the write in flight when the
   crash hit: [natix fsck] clean, and every document's export
   byte-identical to the reference run's snapshot at that point.

   The sweep covers [NATIX_CRASH_POINTS] (default 12, CI uses 32) evenly
   spaced crash points over the write sequence; [NATIX_CRASH_TRACE=f.jsonl]
   additionally records every recovery's event stream as JSON lines. *)

open Natix_core
open Natix_store
open Natix_workload

let page_size = 1024

let config () =
  { (Config.default ()) with Config.page_size; buffer_bytes = 8 * page_size }

(* One small play: big enough to split pages and dirty the pool across
   many commits, small enough to replay dozens of times. *)
let play =
  let params =
    {
      Shakespeare.plays = 1;
      seed = 0xC0FFEEL;
      acts_per_play = 2;
      scenes_per_act = (1, 2);
      speeches_per_scene = (3, 5);
      lines_per_speech = (2, 4);
      words_per_line = (4, 8);
      personae = (2, 4);
      stagedir_every = 4;
    }
  in
  Shakespeare.generate_play params (Natix_util.Prng.create ~seed:params.Shakespeare.seed) 0

let rounds = 3
let updates_per_round = 5

(* The workload: load, then rounds of text updates with a checkpoint
   after each.  Each write — the load and every update — is one autocommit
   transaction run through [write], which the caller instruments;
   [checkpoint] changes no document state. *)
let workload store ~write ~checkpoint =
  write (fun () -> ignore (Loader.load store ~name:"play" play));
  for r = 1 to rounds do
    let lines = Test_core.query store ~doc:"play" "//LINE" in
    let n = List.length lines in
    for i = 0 to updates_per_round - 1 do
      let line = List.nth lines (((r * 37) + (i * 11)) mod n) in
      match Cursor.first_child line with
      | Some c when Cursor.is_text c ->
        write (fun () ->
            Tree_store.update_text store (Cursor.node c)
              (Printf.sprintf "round %d update %d %s" r i (String.make (24 * ((r + i) mod 5)) 'x')))
      | Some _ | None -> ()
    done;
    checkpoint ()
  done

let autocommit store f = Tree_store.autocommit store ~doc:"play" f

(* Every document's export, sorted by name — the unit of byte-for-byte
   comparison between reference snapshots and recovered stores. *)
let state_of store =
  Tree_store.list_documents store
  |> List.sort compare
  |> List.map (fun name ->
         ( name,
           Natix_xml.Xml_print.to_string (Option.get (Exporter.document_to_xml store name)) ))

let fresh path =
  if Sys.file_exists path then Sys.remove path;
  let wal = Recovery.wal_path path in
  if Sys.file_exists wal then Sys.remove wal

(* Reference run (fault plan attached but never armed): returns the total
   number of physical writes and the state snapshot after each
   acknowledged write.  Snapshot 0 is the empty store — where a crash
   before the first commit must roll back to. *)
let reference path =
  fresh path;
  let plan = Faulty_disk.create ~seed:1L () in
  let disk = Disk.on_file ~page_size path in
  Disk.set_faults disk (Some plan);
  let store = Tree_store.open_store ~config:(config ()) disk in
  let snapshots = ref [ [] ] in
  workload store
    ~write:(fun f ->
      autocommit store f;
      snapshots := state_of store :: !snapshots)
    ~checkpoint:(fun () -> Tree_store.sync store);
  Tree_store.close ~commit:false store;
  (Faulty_disk.writes_seen plan, Array.of_list (List.rev !snapshots))

type crash_outcome = { crashed : bool; completed : int; in_write : bool }

(* Run the workload with a crash armed after [k] writes, closing every
   file descriptor on death without letting anything else reach disk.
   [completed] counts acknowledged writes; [in_write] says the crash hit
   one in flight (not a checkpoint). *)
let run_to_crash path k =
  fresh path;
  let plan = Faulty_disk.create ~seed:(Int64.of_int (1000 + k)) () in
  Faulty_disk.arm_crash plan k;
  let completed = ref 0 and in_write = ref false in
  let disk = Disk.on_file ~page_size path in
  Disk.set_faults disk (Some plan);
  let crashed =
    match Tree_store.open_store ~config:(config ()) disk with
    | exception Faulty_disk.Crash ->
      Disk.close disk;
      true
    | store -> (
      let write f =
        in_write := true;
        autocommit store f;
        in_write := false;
        incr completed
      in
      match workload store ~write ~checkpoint:(fun () -> Tree_store.sync store) with
      | () ->
        Tree_store.close ~commit:false store;
        false
      | exception Faulty_disk.Crash ->
        Tree_store.close ~commit:false store;
        true)
  in
  { crashed; completed = !completed; in_write = crashed && !in_write }

(* Reopen after the crash (recovery runs inside [open_store]), fsck, and
   compare against the reference snapshot; then the recovered store must
   take a write and still fsck clean. *)
let verify_recovered ?obs path k (snapshots : (string * string) list array) outcome =
  let disk = Disk.on_file ?obs ~page_size path in
  let store = Tree_store.open_store ~config:(config ()) disk in
  let report = Fsck.run store in
  if not (Fsck.ok report) then
    Alcotest.failf "crash point %d: post-recovery fsck: %a" k Fsck.pp report;
  let actual = state_of store in
  let matches n = n < Array.length snapshots && actual = snapshots.(n) in
  let ok = matches outcome.completed || (outcome.in_write && matches (outcome.completed + 1)) in
  if not ok then
    Alcotest.failf
      "crash point %d: recovered state matches neither write %d%s (%d doc(s))" k
      outcome.completed
      (if outcome.in_write then " nor its in-flight successor" else "")
      (List.length actual);
  Tree_store.autocommit store ~doc:"probe" (fun () ->
      ignore (Tree_store.create_document store ~name:"probe" ~root:"r"));
  Tree_store.sync store;
  let report = Fsck.run store in
  if not (Fsck.ok report) then
    Alcotest.failf "crash point %d: fsck after a write to the recovered store: %a" k Fsck.pp
      report;
  Tree_store.close ~commit:false store

let crash_points total =
  let n =
    match Sys.getenv_opt "NATIX_CRASH_POINTS" with
    | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> 12)
    | None -> 12
  in
  if total <= 1 then [ 0 ]
  else
    List.init n (fun i -> i * (total - 1) / max 1 (n - 1)) |> List.sort_uniq compare

let sweep () =
  let path = Filename.temp_file "natix_crash" ".db" in
  Fun.protect
    ~finally:(fun () -> fresh path)
    (fun () ->
      let total_writes, snapshots = reference path in
      Alcotest.(check bool) "workload writes pages" true (total_writes > 0);
      (* The empty store, the load, and every update. *)
      Alcotest.(check int) "snapshot per write"
        (2 + (rounds * updates_per_round))
        (Array.length snapshots);
      let obs =
        Option.map
          (fun p -> Natix_obs.Obs.create ~sink:(Natix_obs.Sink.jsonl p) ())
          (Sys.getenv_opt "NATIX_CRASH_TRACE")
      in
      Fun.protect
        ~finally:(fun () -> Option.iter Natix_obs.Obs.close obs)
        (fun () ->
          List.iter
            (fun k ->
              let outcome = run_to_crash path k in
              Alcotest.(check bool)
                (Printf.sprintf "crash point %d fires" k)
                true outcome.crashed;
              verify_recovered ?obs path k snapshots outcome)
            (crash_points total_writes)))

(* Concurrent transactional committers under a crash sweep — the ARIES
   counterpart of [sweep].  Three domains commit documents through
   [Tree_store.with_txn] (via [Par.load_files_txn]: group commit batching
   the fsyncs) while the fault plan arms either a
   write-crash point or an fsync-crash point (batch lost, tail lost, or a
   reordered subset surviving).  After every simulated death the store is
   reopened — recovery runs analysis/redo/undo — and must satisfy, for
   every transaction: all-present (export byte-identical to the
   sequential reference) or all-absent; additionally every commit that
   was {e acked} before the crash must be present (durability of the
   group-commit ack), and fsck must be clean.  Selected points also
   re-crash {e during recovery} to check idempotence. *)
let concurrent_txn_crash () =
  let path = Filename.temp_file "natix_crash" ".db" in
  Fun.protect
    ~finally:(fun () -> fresh path)
    (fun () ->
      let params =
        {
          Shakespeare.plays = 6;
          seed = 0xACE5L;
          acts_per_play = 2;
          scenes_per_act = (1, 2);
          speeches_per_scene = (2, 4);
          lines_per_speech = (1, 3);
          words_per_line = (3, 6);
          personae = (2, 3);
          stagedir_every = 3;
        }
      in
      let rng = Natix_util.Prng.create ~seed:params.Shakespeare.seed in
      let files =
        Array.init params.Shakespeare.plays (fun i ->
            ( Printf.sprintf "play-%d" i,
              Natix_xml.Xml_print.to_string ~decl:true (Shakespeare.generate_play params rng i)
            ))
      in
      let jobs = 3 in
      let txn_config () = { (config ()) with Config.commit_delay = 0.5 } in
      (* Sequential reference exports. *)
      let reference =
        let store = Tree_store.in_memory ~config:(config ()) () in
        let dm = Document_manager.create ~index:Document_manager.Off store in
        Array.iter
          (fun (name, text) ->
            match Document_manager.store_document dm ~name (Natix_xml.Xml_parser.parse text) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "reference load failed: %s" (Error.to_string e))
          files;
        let r = state_of store in
        Tree_store.close ~commit:false store;
        r
      in
      (* Three domains, files seeded round-robin; each acked commit is
         recorded so the verifier can demand it back after recovery.  Any
         exception on a worker is kept (the armed crash, or collateral
         poisoned-store errors on its siblings). *)
      let run ~seed arm =
        fresh path;
        let plan = Faulty_disk.create ~seed () in
        arm plan;
        let disk = Disk.on_file ~page_size path in
        Disk.set_faults disk (Some plan);
        let acked = Atomic.make [] in
        let track name =
          let rec go () =
            let cur = Atomic.get acked in
            if not (Atomic.compare_and_set acked cur (name :: cur)) then go ()
          in
          go ()
        in
        (match Tree_store.open_store ~config:(txn_config ()) disk with
        | exception _ -> ( try Disk.close disk with _ -> ())
        | store ->
          let dm = Document_manager.create ~index:Document_manager.Off store in
          let worker w () =
            Array.iteri
              (fun i (name, text) ->
                if i mod jobs = w then
                  match
                    Document_manager.store_transactional dm ~name
                      (Natix_xml.Xml_parser.parse text)
                  with
                  | Ok _ -> track name
                  | Error _ -> ()
                  | exception _ -> ())
              files
          in
          let domains = List.init jobs (fun w -> Domain.spawn (worker w)) in
          List.iter Domain.join domains;
          (try Tree_store.close ~commit:false store with _ -> ()));
        (Faulty_disk.crashed plan, Atomic.get acked)
      in
      let verify ?obs ~recrash_seed label acked =
        (* Optionally crash again during recovery itself before the clean
           reopen: repeated crashes mid-recovery must not change the
           outcome (CLRs are redone, undo resumes from undo-next). *)
        (match recrash_seed with
        | None -> ()
        | Some (seed, k) -> (
          let plan = Faulty_disk.create ~seed () in
          Faulty_disk.arm_crash plan k;
          let disk = Disk.on_file ~page_size path in
          Disk.set_faults disk (Some plan);
          match Tree_store.open_store ~config:(txn_config ()) disk with
          | exception _ -> ( try Disk.close disk with _ -> ())
          | store -> Tree_store.close ~commit:false store));
        let disk = Disk.on_file ?obs ~page_size path in
        let store = Tree_store.open_store ~config:(txn_config ()) disk in
        let report = Fsck.run store in
        if not (Fsck.ok report) then Alcotest.failf "%s: post-recovery fsck: %a" label Fsck.pp report;
        let recovered = state_of store in
        List.iter
          (fun (name, exported) ->
            match List.assoc_opt name reference with
            | Some expected when String.equal expected exported -> ()
            | Some _ ->
              Alcotest.failf "%s: %S present but differs from the reference (partial commit?)"
                label name
            | None -> Alcotest.failf "%s: unexpected document %S" label name)
          recovered;
        List.iter
          (fun name ->
            if not (List.mem_assoc name recovered) then
              Alcotest.failf "%s: commit of %S was acked before the crash but is gone" label
                name)
          acked;
        Tree_store.close ~commit:false store
      in
      (* Unarmed sizing runs: once through the hand-rolled domains (checks
         the clean path acks everything), once through the [Par] entry
         point to count writes and fsyncs. *)
      let total_writes, total_fsyncs =
        let crashed, acked = run ~seed:21L (fun _ -> ()) in
        Alcotest.(check bool) "unarmed run does not crash" false crashed;
        Alcotest.(check int) "unarmed run commits every document" (Array.length files)
          (List.length acked);
        fresh path;
        let plan2 = Faulty_disk.create ~seed:23L () in
        let disk2 = Disk.on_file ~page_size path in
        Disk.set_faults disk2 (Some plan2);
        let store2 = Tree_store.open_store ~config:(txn_config ()) disk2 in
        let dm = Document_manager.create ~index:Document_manager.Off store2 in
        let outcome = Natix_par.Par.load_files_txn ~jobs dm (Array.to_list files) in
        List.iter
          (function
            | Ok () -> ()
            | Error e -> Alcotest.failf "sizing load failed: %s" (Error.to_string e))
          outcome.Natix_par.Par.results;
        Tree_store.close ~commit:false store2;
        (Faulty_disk.writes_seen plan2, Faulty_disk.fsyncs_seen plan2)
      in
      Alcotest.(check bool) "transactional load writes pages" true (total_writes > 0);
      Alcotest.(check bool) "transactional load fsyncs the log" true (total_fsyncs > 0);
      let obs =
        Option.map
          (fun p -> Natix_obs.Obs.create ~sink:(Natix_obs.Sink.jsonl p) ())
          (Sys.getenv_opt "NATIX_CRASH_TRACE")
      in
      Fun.protect
        ~finally:(fun () -> Option.iter Natix_obs.Obs.close obs)
        (fun () ->
          (* Write-crash points over the write sequence.  Parallel
             schedules shift write counts between runs, so a point is a
             probe: if the armed run survived, the store must simply be
             complete; if it crashed, recovery must hold the line. *)
          List.iteri
            (fun idx k ->
              let crashed, acked = run ~seed:(Int64.of_int (9000 + k)) (fun p -> Faulty_disk.arm_crash p k) in
              if not crashed then
                Alcotest.(check int)
                  (Printf.sprintf "write point %d survived: all committed" k)
                  (Array.length files) (List.length acked);
              let recrash_seed =
                if idx mod 4 = 0 then Some (Int64.of_int (9500 + k), 2 + (idx mod 3)) else None
              in
              if Sys.getenv_opt "NATIX_CRASH_DEBUG" <> None then Printf.eprintf "write point %d: crashed=%b acked=%d\n%!" k crashed (List.length acked);
              verify ?obs ~recrash_seed (Printf.sprintf "write point %d" k) acked)
            (crash_points total_writes);
          (* Fsync-crash points: each probe kills one log flush with one of
             the three failure shapes. *)
          let fsync_points =
            let n = max 4 (List.length (crash_points total_writes) / 3) in
            if total_fsyncs <= 1 then [ 0 ]
            else
              List.init n (fun i -> i * (total_fsyncs - 1) / max 1 (n - 1))
              |> List.sort_uniq compare
          in
          List.iteri
            (fun idx k ->
              let mode =
                match idx mod 3 with 0 -> `Lose_all | 1 -> `Lose_tail | _ -> `Subset
              in
              let crashed, acked =
                run ~seed:(Int64.of_int (11000 + k)) (fun p ->
                    Faulty_disk.arm_fsync_crash ~mode p k)
              in
              if not crashed then
                Alcotest.(check int)
                  (Printf.sprintf "fsync point %d survived: all committed" k)
                  (Array.length files) (List.length acked);
              if Sys.getenv_opt "NATIX_CRASH_DEBUG" <> None then Printf.eprintf "fsync point %d: crashed=%b acked=%d\n%!" k crashed (List.length acked);
              verify ?obs ~recrash_seed:None (Printf.sprintf "fsync point %d" k) acked)
            fsync_points))

(* Two writers provably inside their mutation phases at the same moment:
   each loads its document under [with_txn], then parks at a barrier
   before growing it further — the barrier only opens once both have
   arrived, which is itself a regression check (a serialised mutation
   phase would deadlock here: the second writer could never reach the
   barrier while the first holds the structure lock across it).  With
   both mid-phase, a crash is armed a few writes ahead, landing inside
   the overlapping phases or the commit sections that follow.  Recovery
   must keep every acked commit byte-identical, drop unacked losers
   entirely, and leave no orphaned pages (fsck's ownership layer). *)
let overlapping_phase_crash () =
  let path = Filename.temp_file "natix_crash" ".db" in
  Fun.protect
    ~finally:(fun () -> fresh path)
    (fun () ->
      let txn_config () = { (config ()) with Config.commit_delay = 0.5 } in
      let parse s = Natix_xml.Xml_parser.parse s in
      let small_play seed i =
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
      in
      let frag w i =
        Printf.sprintf "<scene n=\"%d\"><line>late growth %d of writer %d</line></scene>" i i w
      in
      let grow store name w =
        let root = Option.get (Tree_store.open_document store name) in
        for i = 0 to 5 do
          ignore (Loader.insert_fragment store (Tree_store.First_under root) (parse (frag w i)))
        done
      in
      (* Sequential reference: same load + growth, in memory. *)
      let reference =
        let store = Tree_store.in_memory ~config:(config ()) () in
        List.iteri
          (fun w name ->
            ignore (Loader.load store ~name (small_play (40 + w) w));
            grow store name w)
          [ "left"; "right" ];
        let r = state_of store in
        Tree_store.close ~commit:false store;
        r
      in
      List.iter
        (fun delta ->
          fresh path;
          let plan = Faulty_disk.create ~seed:(Int64.of_int (31000 + delta)) () in
          let disk = Disk.on_file ~page_size path in
          Disk.set_faults disk (Some plan);
          let store = Tree_store.open_store ~config:(txn_config ()) disk in
          let m = Mutex.create () and c = Condition.create () in
          let arrived = ref 0 and go = ref false in
          let barrier () =
            Mutex.lock m;
            incr arrived;
            Condition.broadcast c;
            while not !go do
              Condition.wait c m
            done;
            Mutex.unlock m
          in
          let acked = Atomic.make [] in
          let track name =
            let rec loop () =
              let cur = Atomic.get acked in
              if not (Atomic.compare_and_set acked cur (name :: cur)) then loop ()
            in
            loop ()
          in
          let writer w name =
            Domain.spawn (fun () ->
                match
                  Tree_store.with_txn store ~doc:name (fun () ->
                      ignore (Loader.load store ~name (small_play (40 + w) w));
                      barrier ();
                      grow store name w)
                with
                | () -> track name
                | exception _ -> ())
          in
          let a = writer 0 "left" and b = writer 1 "right" in
          Mutex.lock m;
          while !arrived < 2 do
            Condition.wait c m
          done;
          (* Both writers are mid-phase right now.  Arm the crash relative
             to this moment and release them into the overlap. *)
          Faulty_disk.arm_crash plan (Faulty_disk.writes_seen plan + delta);
          go := true;
          Condition.broadcast c;
          Mutex.unlock m;
          ignore (Domain.join a);
          ignore (Domain.join b);
          (try Tree_store.close ~commit:false store with _ -> ());
          let acked = Atomic.get acked in
          if not (Faulty_disk.crashed plan) then
            Alcotest.(check int)
              (Printf.sprintf "overlap delta %d survived: both committed" delta)
              2 (List.length acked);
          let disk2 = Disk.on_file ~page_size path in
          let store2 = Tree_store.open_store ~config:(txn_config ()) disk2 in
          let report = Fsck.run store2 in
          if not (Fsck.ok report) then
            Alcotest.failf "overlap delta %d: post-recovery fsck: %a" delta Fsck.pp report;
          let recovered = state_of store2 in
          List.iter
            (fun (name, exported) ->
              match List.assoc_opt name reference with
              | Some expected when String.equal expected exported -> ()
              | Some _ ->
                Alcotest.failf "overlap delta %d: %S present but differs (partial commit?)" delta
                  name
              | None -> Alcotest.failf "overlap delta %d: unexpected document %S" delta name)
            recovered;
          List.iter
            (fun name ->
              if not (List.mem_assoc name recovered) then
                Alcotest.failf "overlap delta %d: acked commit of %S is gone" delta name)
            acked;
          Tree_store.close ~commit:false store2)
        [ 0; 1; 2; 4; 8; 16; 32; 64; 128 ])

(* Crash armed from inside an arena refill: the [Segment.set_on_refill]
   hook fires at the start of the [target]-th refill (before any page is
   grabbed from the global allocator) and arms the fault plan on the very
   next physical write.  With [arena_batch = 2] the loading transaction
   refills several times, so the sweep covers a refill that logged
   nothing yet, one mid-batch, and one whose pages were already
   formatted.  Recovery must keep the committed base document, drop the
   loser entirely, and leave neither orphaned ownership tags nor
   half-formatted pages (the all-zero pages its undo leaves are carried
   as permanently-full shared space).  [arena_batch = 1] makes every
   page a refill, so later targets land deep inside the loser's load. *)
let arena_refill_crash () =
  let path = Filename.temp_file "natix_crash" ".db" in
  Fun.protect
    ~finally:(fun () -> fresh path)
    (fun () ->
      let txn_config () =
        { (config ()) with Config.commit_delay = 0.5; Config.arena_batch = 1 }
      in
      let text = Natix_xml.Xml_print.to_string ~decl:true play in
      (* Unarmed sizing run: count the loser's refills, so the sweep can
         probe the first, a middle, and the last one. *)
      let total_refills =
        fresh path;
        let disk = Disk.on_file ~page_size path in
        let store = Tree_store.open_store ~config:(txn_config ()) disk in
        let dm = Document_manager.create ~index:Document_manager.Off store in
        (match Document_manager.store_transactional dm ~name:"base" (Natix_xml.Xml_parser.parse text) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "sizing base load failed: %s" (Error.to_string e));
        let seg = Record_manager.segment (Tree_store.record_manager store) in
        let seen = ref 0 in
        Segment.set_on_refill seg (Some (fun () -> incr seen));
        (match Document_manager.store_transactional dm ~name:"loser" (Natix_xml.Xml_parser.parse text) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "sizing loser load failed: %s" (Error.to_string e));
        Tree_store.close ~commit:false store;
        !seen
      in
      Alcotest.(check bool) "the loser refills its arena" true (total_refills >= 1);
      List.iter
        (fun target ->
          fresh path;
          let plan = Faulty_disk.create ~seed:(Int64.of_int (33000 + target)) () in
          let disk = Disk.on_file ~page_size path in
          Disk.set_faults disk (Some plan);
          let store = Tree_store.open_store ~config:(txn_config ()) disk in
          let dm = Document_manager.create ~index:Document_manager.Off store in
          (match
             Document_manager.store_transactional dm ~name:"base"
               (Natix_xml.Xml_parser.parse text)
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "base load failed: %s" (Error.to_string e));
          let expected =
            Natix_xml.Xml_print.to_string (Option.get (Exporter.document_to_xml store "base"))
          in
          let seg = Record_manager.segment (Tree_store.record_manager store) in
          let seen = ref 0 in
          Segment.set_on_refill seg
            (Some
               (fun () ->
                 incr seen;
                 if !seen = target then Faulty_disk.arm_crash plan (Faulty_disk.writes_seen plan)));
          (match
             Document_manager.store_transactional dm ~name:"loser"
               (Natix_xml.Xml_parser.parse text)
           with
          | exception Faulty_disk.Crash -> ()
          | exception Error.Error (Error.Storage _) -> ()
          | Ok _ -> Alcotest.failf "refill %d: load survived the armed crash" target
          | Error e -> Alcotest.failf "refill %d: expected the crash, got %s" target (Error.to_string e));
          Alcotest.(check bool)
            (Printf.sprintf "refill %d: the hook fired" target)
            true (!seen >= target);
          Alcotest.(check bool)
            (Printf.sprintf "refill %d: the crash fired" target)
            true (Faulty_disk.crashed plan);
          (try Tree_store.close ~commit:false store with _ -> ());
          let disk2 = Disk.on_file ~page_size path in
          let store2 = Tree_store.open_store ~config:(txn_config ()) disk2 in
          let report = Fsck.run store2 in
          if not (Fsck.ok report) then
            Alcotest.failf "refill %d: post-recovery fsck: %a" target Fsck.pp report;
          Alcotest.(check (list string))
            (Printf.sprintf "refill %d: loser fully absent" target)
            [ "base" ]
            (List.sort compare (Tree_store.list_documents store2));
          Alcotest.(check string)
            (Printf.sprintf "refill %d: base intact" target)
            expected
            (Natix_xml.Xml_print.to_string (Option.get (Exporter.document_to_xml store2 "base")));
          Tree_store.close ~commit:false store2)
        (List.sort_uniq compare [ 1; (total_refills + 1) / 2; total_refills ]))

let harness_tests =
  [
    Alcotest.test_case "recovery reaches the last acknowledged write at every crash point" `Slow
      sweep;
    Alcotest.test_case "concurrent committers recover atomically at every crash point" `Slow
      concurrent_txn_crash;
    Alcotest.test_case "overlapping mutation phases recover atomically" `Slow
      overlapping_phase_crash;
    Alcotest.test_case "a crash inside an arena refill leaves no orphaned pages" `Slow
      arena_refill_crash;
    Alcotest.test_case "raw page sweep finds a flipped byte" `Quick (fun () ->
        let path = Filename.temp_file "natix_crash" ".db" in
        Fun.protect
          ~finally:(fun () -> fresh path)
          (fun () ->
            fresh path;
            let disk = Disk.on_file ~page_size path in
            let store = Tree_store.open_store ~config:(config ()) disk in
            autocommit store (fun () -> ignore (Loader.load store ~name:"play" play));
            Tree_store.close store;
            let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
            let off = page_size + (page_size / 2) in
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            let b = Bytes.create 1 in
            ignore (Unix.read fd b 0 1);
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
            ignore (Unix.write fd b 0 1);
            Unix.close fd;
            let disk2 = Disk.on_file ~page_size path in
            let report = Fsck.run_disk disk2 in
            Disk.close disk2;
            Alcotest.(check bool) "sweep flags corruption" false (Fsck.ok report);
            Alcotest.(check int) "exactly one bad page" 1 (List.length report.Fsck.issues)));
    Alcotest.test_case "a clean run needs no recovery" `Quick (fun () ->
        let path = Filename.temp_file "natix_crash" ".db" in
        Fun.protect
          ~finally:(fun () -> fresh path)
          (fun () ->
            fresh path;
            let disk = Disk.on_file ~page_size path in
            let store = Tree_store.open_store ~config:(config ()) disk in
            workload store ~write:(autocommit store) ~checkpoint:(fun () -> Tree_store.sync store);
            let final = state_of store in
            Tree_store.close store;
            let disk2 = Disk.on_file ~page_size path in
            let rep = Recovery.run disk2 in
            Alcotest.(check int) "nothing undone" 0 rep.Recovery.undone;
            Disk.close disk2;
            let disk3 = Disk.on_file ~page_size path in
            let store3 = Tree_store.open_store ~config:(config ()) disk3 in
            Alcotest.(check bool) "fsck clean" true (Fsck.ok (Fsck.run store3));
            Alcotest.(check bool) "state survives" true (state_of store3 = final);
            Tree_store.close ~commit:false store3));
  ]

let suites = [ ("crash.consistency", harness_tests) ]
