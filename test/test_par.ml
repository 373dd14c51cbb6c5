(* Randomized differential harness for the parallel executor.

   The executor's contract is that parallelism is unobservable: for any
   document set and query batch, running at jobs ∈ {1, 2, 4} over one
   shared store yields byte-identical rendered results (including
   per-task typed errors), identical reads/writes/total_ios deltas (the
   schedule-independent counters — every distinct page is read exactly
   once into the shared pool, concurrent misses coalesce on the frame
   latch), and a store that still passes fsck.  A seeded PRNG generates
   the corpora and batches so the sweep covers many shapes
   reproducibly; NATIX_PAR_SEEDS overrides the seed count (default 20).

   The stress case runs the scan executor at 4 domains over a deliberately
   small scan-resistant pool with the lock-rank checker on: no
   All_frames_pinned, no rank violations, all pins released, and the
   miss/read-ahead accounting consistent afterwards. *)

open Natix_core
open Natix_workload
module Par = Natix_par.Par
module Io_stats = Natix_store.Io_stats
module Buffer_pool = Natix_store.Buffer_pool
module Disk = Natix_store.Disk
module Lock_rank = Natix_store.Lock_rank

let seeds_or default =
  match Sys.getenv_opt "NATIX_PAR_SEEDS" with Some s -> int_of_string s | None -> default

let seeds = seeds_or 20

(* Small pages and a small buffer so even tiny corpora do real I/O and
   eviction under contention. *)
let config () =
  { (Config.default ()) with Config.page_size = 1024; buffer_bytes = 16 * 1024 }

let gen_params ~plays ~seed =
  {
    Shakespeare.plays;
    seed;
    acts_per_play = 2;
    scenes_per_act = (1, 2);
    speeches_per_scene = (2, 4);
    lines_per_speech = (1, 3);
    words_per_line = (3, 6);
    personae = (2, 3);
    stagedir_every = 3;
  }

let gen_corpus rng ~plays ~seed =
  let params = gen_params ~plays ~seed in
  List.init plays (fun i ->
      (Printf.sprintf "play-%d" i, Shakespeare.generate_play params rng i))

let path_pool =
  [|
    "//SPEAKER";
    "//LINE";
    "/ACT[1]/SCENE[1]/SPEECH[1]";
    "//ACT[2]//SPEAKER";
    "//PERSONA";
    "//STAGEDIR";
    "//SPEECH[2]/LINE[1]";
    "/ACT/SCENE/SPEECH[1]";
    "//";
    (* stays a syntax error: error values must be deterministic too *)
  |]

let gen_tasks rng docs =
  let n = 4 + Natix_util.Prng.int rng 8 in
  List.init n (fun _ ->
      let doc =
        (* occasionally an unknown document: Error (Storage _) results
           must survive the differential comparison like any hit list *)
        if Natix_util.Prng.int rng 8 = 0 then "nosuch"
        else List.nth docs (Natix_util.Prng.int rng (List.length docs))
      in
      (doc, path_pool.(Natix_util.Prng.int rng (Array.length path_pool))))

(* Cold-cache batch run: identical starting state for every job count. *)
let run_batch store ~jobs tasks =
  Tree_store.clear_buffers store;
  let io = Tree_store.io_stats store in
  let before = Io_stats.copy io in
  let outcome = Par.run_queries ~jobs store tasks in
  (outcome, Io_stats.diff (Io_stats.copy io) before)

let check_io_equal ~what (a : Io_stats.t) (b : Io_stats.t) =
  Alcotest.(check int) (what ^ ": reads") a.Io_stats.reads b.Io_stats.reads;
  Alcotest.(check int) (what ^ ": writes") a.Io_stats.writes b.Io_stats.writes;
  Alcotest.(check int) (what ^ ": total_ios") (Io_stats.total_ios a) (Io_stats.total_ios b)

(* The point of the exercise: page reads served from several domains,
   not one worker draining the whole batch.  Left to the schedule, the
   calling domain can claim every task before the spawned domains run.
   So the first task waits (at most 10 s) until the second has been
   claimed before it queries: the domain running it claims nothing
   meanwhile, so another domain runs the second task.  The two query
   documents no other task touches, on a cold pool, so both domains
   read pages, and [Par]'s per-worker accounting must show it. *)
let spread_reads () =
  let params =
    {
      (gen_params ~plays:6 ~seed:99L) with
      Shakespeare.acts_per_play = 3;
      speeches_per_scene = (4, 6);
      lines_per_speech = (2, 4);
    }
  in
  let rng = Natix_util.Prng.create ~seed:0xAC71AL in
  let corpus =
    List.init params.Shakespeare.plays (fun i ->
        (Printf.sprintf "play-%d" i, Shakespeare.generate_play params rng i))
  in
  let store = Tree_store.in_memory ~config:(config ()) () in
  List.iter (fun (name, play) -> ignore (Loader.load store ~name play)) corpus;
  Tree_store.sync store;
  let rest =
    List.concat_map
      (fun (name, _) ->
        List.map (fun p -> (name, p)) [ "//LINE"; "//SPEAKER"; "//SPEECH[2]/LINE[1]" ])
      (List.filter (fun (name, _) -> name <> "play-0" && name <> "play-1") corpus)
  in
  let tasks = Array.of_list (("play-0", "//LINE") :: ("play-1", "//LINE") :: rest) in
  let second_claimed = Atomic.make false in
  let query engine i =
    if i = 1 then Atomic.set second_claimed true;
    if i = 0 then begin
      let deadline = Unix.gettimeofday () +. 10. in
      while not (Atomic.get second_claimed) do
        if Unix.gettimeofday () > deadline then failwith "no second worker claimed a task in 10 s";
        Unix.sleepf 0.001
      done
    end;
    let doc, path = tasks.(i) in
    match Natix_query.Engine.query engine ~doc path with
    | Error e -> Alcotest.failf "%s on %s: %s" path doc (Error.to_string e)
    | Ok hits -> Seq.length hits
  in
  Tree_store.clear_buffers store;
  let outcome =
    Par.map_tasks ~jobs:4
      ~disk:(Buffer_pool.disk (Tree_store.buffer_pool store))
      ~make_ctx:(fun () -> Natix_query.Engine.create (Tree_store.reader store))
      ~f:query
      (Array.init (Array.length tasks) Fun.id)
  in
  Alcotest.(check bool)
    "every query found hits" true
    (List.for_all (fun n -> n > 0) outcome.Par.results);
  let busy = List.filter (fun ws -> ws.Par.io.Io_stats.reads > 0) outcome.Par.workers in
  Alcotest.(check bool) "jobs=4: >= 2 domains accumulated reads" true (List.length busy >= 2)

let differential () =
  for seed = 1 to seeds do
    let rng = Natix_util.Prng.create ~seed:(Int64.of_int (0xBEEF + seed)) in
    let plays = 2 + Natix_util.Prng.int rng 3 in
    let corpus = gen_corpus rng ~plays ~seed:(Int64.of_int seed) in
    let store = Tree_store.in_memory ~config:(config ()) () in
    List.iter (fun (name, play) -> ignore (Loader.load store ~name play)) corpus;
    Tree_store.sync store;
    let tasks = gen_tasks rng (List.map fst corpus) in
    let ref_outcome, ref_io = run_batch store ~jobs:1 tasks in
    List.iter
      (fun jobs ->
        let outcome, io = run_batch store ~jobs tasks in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d jobs %d: results byte-identical" seed jobs)
          true
          (outcome.Par.results = ref_outcome.Par.results);
        check_io_equal ~what:(Printf.sprintf "seed %d jobs %d" seed jobs) ref_io io)
      [ 2; 4 ];
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fsck clean after parallel runs" seed)
      true
      (Fsck.ok (Fsck.run store))
  done;
  spread_reads ()

let load_differential () =
  let rng = Natix_util.Prng.create ~seed:0x10ADL in
  let corpus = gen_corpus rng ~plays:5 ~seed:7L in
  let files =
    List.map (fun (name, play) -> (name, Natix_xml.Xml_print.to_string ~decl:true play)) corpus
  in
  let state_of store =
    Tree_store.list_documents store
    |> List.sort compare
    |> List.map (fun name ->
           (name, Natix_xml.Xml_print.to_string (Option.get (Exporter.document_to_xml store name))))
  in
  (* Transactions need a log, so each load runs against a fresh store
     file. *)
  let with_file_store f =
    let path = Filename.temp_file "natix_par" ".db" in
    let remove () =
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Natix_store.Recovery.wal_path path ]
    in
    remove ();
    Fun.protect ~finally:remove (fun () ->
        let store = Tree_store.open_store ~config:(config ()) (Disk.on_file ~page_size:1024 path) in
        Fun.protect ~finally:(fun () -> Tree_store.close ~commit:false store) (fun () -> f store))
  in
  let build jobs =
    with_file_store @@ fun store ->
    let dm = Document_manager.create ~index:Document_manager.Off store in
    let outcome = Par.load_files_txn ~jobs dm files in
    List.iter
      (function
        | Ok () -> ()
        | Error e -> Alcotest.failf "load at jobs=%d failed: %s" jobs (Error.to_string e))
      outcome.Par.results;
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d: fsck clean after bulk load" jobs)
      true
      (Fsck.ok (Fsck.run store));
    state_of store
  in
  let reference = build 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: loaded store byte-identical to sequential" jobs)
        true
        (build jobs = reference))
    [ 2; 4 ];
  (* A parse failure surfaces as a per-task error without poisoning the
     rest of the batch, at any job count. *)
  let with_bad = ("broken", "<oops") :: files in
  List.iter
    (fun jobs ->
      with_file_store @@ fun store ->
      let dm = Document_manager.create ~index:Document_manager.Off store in
      let outcome = Par.load_files_txn ~jobs dm with_bad in
      (match outcome.Par.results with
      | Error (Error.Parse _) :: rest ->
        List.iter
          (function
            | Ok () -> () | Error e -> Alcotest.failf "good file failed: %s" (Error.to_string e))
          rest
      | _ -> Alcotest.fail "parse failure not reported as Error (Parse _) in task order");
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: bad file loads rest" jobs)
        true
        (state_of store = reference))
    [ 1; 4 ]

(* Concurrent readers during a scan, over a pool small enough to evict
   constantly, with read-ahead and segmented LRU on and the lock-rank
   checker armed. *)
let scan_stress () =
  let config =
    {
      (Config.default ()) with
      Config.page_size = 1024;
      buffer_bytes = 16 * 1024;
      read_ahead = 8;
      scan_resistant = true;
    }
  in
  let store = Tree_store.in_memory ~config () in
  let rng = Natix_util.Prng.create ~seed:0x5CA4L in
  let corpus = gen_corpus rng ~plays:6 ~seed:21L in
  List.iter (fun (name, play) -> ignore (Loader.load store ~name play)) corpus;
  Tree_store.sync store;
  let pool = Tree_store.buffer_pool store in
  let reference = Par.scan_all ~jobs:1 store in
  Tree_store.clear_buffers store;
  let fixes0 = Buffer_pool.fixes pool and misses0 = Buffer_pool.misses pool in
  let io = Tree_store.io_stats store in
  let before = Io_stats.copy io in
  Lock_rank.enable ();
  let violations0 = Lock_rank.violations () in
  let outcome =
    match Par.scan_all ~jobs:4 store with
    | outcome -> outcome
    | exception Buffer_pool.All_frames_pinned ->
      Lock_rank.disable ();
      Alcotest.fail "scan stress: All_frames_pinned"
  in
  Lock_rank.disable ();
  let delta = Io_stats.diff (Io_stats.copy io) before in
  Alcotest.(check int) "no lock-rank violations" violations0 (Lock_rank.violations ());
  Alcotest.(check bool)
    "scan results identical to jobs=1" true (outcome.Par.results = reference.Par.results);
  Alcotest.(check bool)
    "scans counted nodes" true
    (List.for_all (fun (_, n) -> n > 0) outcome.Par.results);
  (* Frame accounting after the dust settles: every pin released, the
     pool within capacity, and the counters consistent — each miss read
     one page, everything else read came in through read-ahead. *)
  Alcotest.(check int) "all pins released" 0 (Buffer_pool.pinned_frames pool);
  Alcotest.(check bool)
    "resident within capacity" true
    (Buffer_pool.resident pool <= Buffer_pool.capacity pool);
  let misses = Buffer_pool.misses pool - misses0 in
  Alcotest.(check int)
    "reads = misses + read-ahead pages" delta.Io_stats.reads
    (misses + delta.Io_stats.read_ahead_pages);
  Alcotest.(check bool)
    "fixes cover misses" true (Buffer_pool.fixes pool - fixes0 >= misses);
  Alcotest.(check bool) "fsck clean after stress" true (Fsck.ok (Fsck.run store))

let reset_rejected () =
  let store = Tree_store.in_memory ~config:(config ()) () in
  let pool = Tree_store.buffer_pool store in
  let disk = Buffer_pool.disk pool in
  Disk.enter_parallel_region disk;
  (match Tree_store.reset_io_stats store with
  | () -> Alcotest.fail "reset_io_stats accepted during an active parallel region"
  | exception Error.Error (Error.Storage _) -> ()
  | exception e ->
    Alcotest.failf "expected Error (Storage _), got %s" (Printexc.to_string e));
  (match Buffer_pool.reset_stats pool with
  | () -> Alcotest.fail "Buffer_pool.reset_stats accepted during an active parallel region"
  | exception Invalid_argument _ -> ());
  Disk.exit_parallel_region disk;
  (* With the region gone both resets work again. *)
  Tree_store.reset_io_stats store;
  Alcotest.(check int) "stats reset" 0 (Tree_store.io_stats store).Io_stats.reads

(* Scan regions are a refcount, not a saved/restored flag: one region
   exiting while another domain is still mid-scan must leave scan mode
   on, and it must be off once the last region exits.  The stages force
   the exact interleaving that broke save/restore (A enters, B enters, A
   exits, B observes). *)
let scan_refcount () =
  let store = Tree_store.in_memory ~config:(config ()) () in
  let pool = Tree_store.buffer_pool store in
  let stage = Atomic.make 0 in
  let wait n = while Atomic.get stage < n do Domain.cpu_relax () done in
  let a =
    Domain.spawn (fun () ->
        Buffer_pool.with_scan pool (fun () ->
            Atomic.incr stage;
            wait 2);
        Atomic.incr stage)
  in
  let b =
    Domain.spawn (fun () ->
        wait 1;
        Buffer_pool.with_scan pool (fun () ->
            Atomic.incr stage;
            wait 3;
            Buffer_pool.scan_mode pool))
  in
  let still_on = Domain.join b in
  Domain.join a;
  Alcotest.(check bool) "scan mode survives the first region's exit" true still_on;
  Alcotest.(check bool) "scan mode off after the last region" false (Buffer_pool.scan_mode pool)

(* [map_tasks]'s own contract, over tasks that each read a known number
   of pages straight from the disk and sleep a task-dependent time, so
   the tasks' costs are uneven and every task's I/O is known exactly
   whichever domain runs it. *)
let task_disk () =
  let disk = Disk.in_memory ~page_size:512 () in
  let pages = Array.init 4 (fun _ -> Disk.allocate disk) in
  Array.iter (fun p -> Disk.write disk p (Bytes.make (Disk.payload_size disk) 'x')) pages;
  (disk, pages)

let task_reads i = 1 + (i * 5 mod 7)

let read_pages disk pages k =
  let buf = Bytes.create (Disk.payload_size disk) in
  for r = 1 to k do
    Disk.read disk pages.(r mod Array.length pages) buf
  done

let map_tasks_contract () =
  let disk, pages = task_disk () in
  let check ~jobs n =
    let what = Printf.sprintf "jobs %d, %d tasks" jobs n in
    let runs = Array.init n (fun _ -> Atomic.make 0) in
    let before = Io_stats.copy (Disk.stats disk) in
    let outcome =
      Par.map_tasks ~jobs ~disk
        ~make_ctx:(fun () -> ())
        ~f:(fun () i ->
          Atomic.incr runs.(i);
          read_pages disk pages (task_reads i);
          Unix.sleepf (float_of_int (i mod 3) *. 0.002);
          i * i)
        (Array.init n Fun.id)
    in
    let delta = Io_stats.diff (Io_stats.copy (Disk.stats disk)) before in
    Alcotest.(check (list int))
      (what ^ ": each task ran once") (List.init n (fun _ -> 1))
      (Array.to_list (Array.map Atomic.get runs));
    Alcotest.(check (list int))
      (what ^ ": results in task order") (List.init n (fun i -> i * i)) outcome.Par.results;
    Alcotest.(check (list int))
      (what ^ ": task I/O in task order") (List.init n task_reads)
      (List.map (fun io -> io.Io_stats.reads) outcome.Par.task_io);
    Alcotest.(check (list int))
      (what ^ ": one worker entry per domain")
      (List.init (max 1 (min jobs n)) Fun.id)
      (List.map (fun w -> w.Par.worker) outcome.Par.workers);
    Alcotest.(check int)
      (what ^ ": worker I/O sums to the disk's delta") delta.Io_stats.reads
      (List.fold_left (fun acc w -> acc + w.Par.io.Io_stats.reads) 0 outcome.Par.workers);
    Alcotest.(check int)
      (what ^ ": the disk's delta is every task's reads")
      (List.fold_left (fun acc i -> acc + task_reads i) 0 (List.init n Fun.id))
      delta.Io_stats.reads
  in
  List.iter (fun jobs -> check ~jobs 9) [ 1; 2; 3; 4 ];
  check ~jobs:6 3;
  check ~jobs:4 0

exception Boom

(* A raising task stops the fleet, and the caller sees the exception
   only after every domain has joined: every task that started has
   finished by then, its reads are merged into the disk's stats, and the
   parallel region is closed. *)
let map_tasks_raise () =
  let disk, pages = task_disk () in
  let started = Atomic.make 0 and finished = Atomic.make 0 and reads = Atomic.make 0 in
  let before = Io_stats.copy (Disk.stats disk) in
  (match
     Par.map_tasks ~jobs:4 ~disk
       ~make_ctx:(fun () -> ())
       ~f:(fun () i ->
         Atomic.incr started;
         read_pages disk pages (task_reads i);
         ignore (Atomic.fetch_and_add reads (task_reads i) : int);
         if i = 1 then begin
           Unix.sleepf 0.002;
           Atomic.incr finished;
           raise Boom
         end;
         Unix.sleepf 0.03;
         Atomic.incr finished)
       (Array.init 12 Fun.id)
   with
  | _ -> Alcotest.fail "a raising task must re-raise on the caller"
  | exception Boom -> ());
  Alcotest.(check int) "every started task finished" (Atomic.get started) (Atomic.get finished);
  Alcotest.(check bool) "the fleet stopped early" true (Atomic.get started < 12);
  Alcotest.(check bool) "region closed" false (Disk.in_parallel_region disk);
  Alcotest.(check int) "every domain's reads merged" (Atomic.get reads)
    (Io_stats.diff (Io_stats.copy (Disk.stats disk)) before).Io_stats.reads

(* The store-wide dictionaries under concurrent interning.  Four domains
   intern overlapping seeded key sets into one name pool and one
   node-type table, and after each intern resolve their own key and one
   picked from whatever the tables hold by then.  Reads take no lock, so
   a reader that could see an index before its slot was written fails
   here.  NATIX_PAR_SEEDS repeats the race (default 1). *)
let dict_seeds = seeds_or 1

let dict_race () =
  let module Name_pool = Natix_util.Name_pool in
  let module Prng = Natix_util.Prng in
  let tags = Node_type_table.[| Tag_aggregate; Tag_str; Tag_int8; Tag_uri |] in
  (* namespaced names too: the pool's framing is length-prefixed *)
  let name_of k = if k mod 5 = 0 then Printf.sprintf "ns%d:local" k else Printf.sprintf "E%d" k in
  for seed = 1 to dict_seeds do
    let rng = Prng.create ~seed:(Int64.of_int (0xD1C7 + seed)) in
    let universe = 100 + Prng.int rng 400 in
    let key_sets =
      List.init 4 (fun _ ->
          Array.init (2 * universe) (fun _ ->
              (Prng.int rng universe, Prng.int rng (Array.length tags), Prng.int rng 1_000_000)))
    in
    let pool = Name_pool.create () and types = Node_type_table.create () in
    let started = Atomic.make 0 in
    let worker keys () =
      Atomic.incr started;
      while Atomic.get started < 4 do
        Domain.cpu_relax ()
      done;
      Array.map
        (fun (k, t, pick) ->
          let name = name_of k and tag = tags.(t) in
          let label = Name_pool.intern pool name in
          let i = Node_type_table.index types tag label in
          let other_label = pick mod Name_pool.size pool in
          let other_i = pick mod Node_type_table.size types in
          let other_tag, l = Node_type_table.entry types other_i in
          let ok =
            Name_pool.find pool name = Some label
            && Name_pool.name pool label = name
            && Node_type_table.entry types i = (tag, label)
            && Name_pool.find pool (Name_pool.name pool other_label) = Some other_label
            && Node_type_table.index types other_tag l = other_i
          in
          (name, tag, label, i, ok))
        keys
    in
    let domains = List.map (fun keys -> Domain.spawn (worker keys)) key_sets in
    let results = List.concat_map (fun d -> Array.to_list (Domain.join d)) domains in
    let what fmt = Printf.sprintf ("seed %d: " ^^ fmt) seed in
    Alcotest.(check bool)
      (what "every read-back during the race agreed")
      true
      (List.for_all (fun (_, _, _, _, ok) -> ok) results);
    (* one index per key, and the indices are exactly 0..n-1 *)
    let labels = Hashtbl.create 64 and entries = Hashtbl.create 64 in
    List.iter
      (fun (name, tag, label, i, _) ->
        (match Hashtbl.find_opt labels name with
        | Some l when l <> label -> Alcotest.failf "%s" (what "%S got labels %d and %d" name l label)
        | _ -> Hashtbl.replace labels name label);
        match Hashtbl.find_opt entries (tag, label) with
        | Some j when j <> i -> Alcotest.failf "%s" (what "one type entry got indices %d and %d" j i)
        | _ -> Hashtbl.replace entries (tag, label) i)
      results;
    let sorted tbl = List.sort compare (Hashtbl.fold (fun _ v acc -> v :: acc) tbl []) in
    Alcotest.(check (list int))
      (what "labels are exactly 2..n-1")
      (List.init (Hashtbl.length labels) (fun i -> Natix_util.Label.first_user + i))
      (sorted labels);
    Alcotest.(check int) (what "pool size") (Hashtbl.length labels + 2) (Name_pool.size pool);
    Alcotest.(check (list int))
      (what "type indices are exactly 0..n-1")
      (List.init (Hashtbl.length entries) Fun.id)
      (sorted entries);
    Alcotest.(check int) (what "type table size") (Hashtbl.length entries)
      (Node_type_table.size types);
    (* every lookup round-trips, and the encodings decode to equal tables *)
    let pool' = Name_pool.decode (Name_pool.encode pool) in
    Alcotest.(check int) (what "decoded pool size") (Name_pool.size pool) (Name_pool.size pool');
    for l = 0 to Name_pool.size pool - 1 do
      let name = Name_pool.name pool l in
      Alcotest.(check (option int)) (what "find (name %d)" l) (Some l) (Name_pool.find pool name);
      Alcotest.(check string) (what "decoded name %d" l) name (Name_pool.name pool' l)
    done;
    let types' = Node_type_table.decode (Node_type_table.encode types) in
    Alcotest.(check int) (what "decoded type table size") (Node_type_table.size types)
      (Node_type_table.size types');
    for i = 0 to Node_type_table.size types - 1 do
      let tag, label = Node_type_table.entry types i in
      Alcotest.(check int) (what "index (entry %d)" i) i (Node_type_table.index types tag label);
      Alcotest.(check bool) (what "decoded entry %d" i) true
        (Node_type_table.entry types' i = (tag, label))
    done
  done

(* The pool's lock-free hit path under eviction.  Four domains fix random
   pages of a pool smaller than their page set, so evictions run beside
   hits.  Shared pages are only read; each domain writes a tag into a
   pinned page of its own, fixes two other pages, and re-fixes the page
   before it unpins: the frame must be the one it pinned, still holding
   the tag, and the next fix of the page must read that tag back.  An
   eviction of a pinned frame would lose it. *)
let pool_stress () =
  let module Prng = Natix_util.Prng in
  let page_size = 256 and frames = 32 and shared = 8 and owned = 16 and rounds = 1000 in
  for seed = 1 to seeds do
    let d = Disk.in_memory ~page_size () in
    let pool = Buffer_pool.create ~disk:d ~bytes:(frames * page_size) () in
    let shared_pages = Array.init shared (fun _ -> Disk.allocate d) in
    let own = Array.init 4 (fun _ -> Array.init owned (fun _ -> Disk.allocate d)) in
    let started = Atomic.make 0 in
    let worker w () =
      Atomic.incr started;
      while Atomic.get started < 4 do
        Domain.cpu_relax ()
      done;
      let rng = Prng.create ~seed:(Int64.of_int ((seed * 8) + w)) in
      let fixes = ref 0 and lost = ref 0 in
      let fix p =
        incr fixes;
        Buffer_pool.fix pool p
      in
      let tag_of f = Int32.to_int (Bytes.get_int32_le f.Buffer_pool.data 0) in
      let expected = Array.make owned 0 in
      for round = 1 to rounds do
        let i = Prng.int rng owned in
        let f = fix own.(w).(i) in
        if tag_of f <> expected.(i) then incr lost;
        Buffer_pool.mark_dirty pool f;
        let tag = (w lsl 16) lor round in
        Bytes.set_int32_le f.Buffer_pool.data 0 (Int32.of_int tag);
        expected.(i) <- tag;
        for _ = 1 to 2 do
          let q =
            if Prng.int rng 2 = 0 then shared_pages.(Prng.int rng shared)
            else own.(w).(Prng.int rng owned)
          in
          Buffer_pool.unfix pool (fix q)
        done;
        let g = fix own.(w).(i) in
        if g != f || tag_of g <> tag then incr lost;
        Buffer_pool.unfix pool g;
        Buffer_pool.unfix pool f
      done;
      (!fixes, !lost)
    in
    let domains = List.init 4 (fun w -> Domain.spawn (worker w)) in
    let results = List.map (fun dom -> match Domain.join dom with r -> Ok r | exception e -> Error e) domains in
    let what fmt = Printf.sprintf ("seed %d: " ^^ fmt) seed in
    let fixes =
      List.fold_left
        (fun acc -> function
          | Ok (n, lost) ->
            Alcotest.(check int) (what "tags lost") 0 lost;
            acc + n
          | Error e -> Alcotest.failf "%s" (what "worker raised %s" (Printexc.to_string e)))
        0 results
    in
    Alcotest.(check int) (what "fixes = fix calls") fixes (Buffer_pool.fixes pool);
    Alcotest.(check int)
      (what "reads = misses + read-ahead pages")
      (Buffer_pool.misses pool + Buffer_pool.prefetched pool)
      (Disk.stats d).Io_stats.reads;
    Alcotest.(check int) (what "no frame left pinned") 0 (Buffer_pool.pinned_frames pool);
    Alcotest.(check int) (what "lock-rank violations") 0 (Lock_rank.violations ())
  done

(* A hit another domain has not applied yet still counts as a use: the
   eviction it would have saved the frame from passes over it. *)
let eviction_sees_logged_hits () =
  let page_size = 256 in
  let d = Disk.in_memory ~page_size () in
  let pool = Buffer_pool.create ~disk:d ~bytes:(4 * page_size) () in
  let pages = Array.init 5 (fun _ -> Disk.allocate d) in
  for i = 0 to 3 do
    Buffer_pool.unfix pool (Buffer_pool.fix pool pages.(i))
  done;
  (* pages.(0) is least recent; another domain hits it and keeps its log. *)
  let hit = Atomic.make false and release = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        Buffer_pool.unfix pool (Buffer_pool.fix pool pages.(0));
        Atomic.set hit true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get hit) do
    Domain.cpu_relax ()
  done;
  Buffer_pool.unfix pool (Buffer_pool.fix pool pages.(4));
  Alcotest.(check bool) "the page just hit stays" true (Buffer_pool.is_resident pool pages.(0));
  Alcotest.(check bool) "the least recent other page goes" false
    (Buffer_pool.is_resident pool pages.(1));
  Atomic.set release true;
  Domain.join other;
  Alcotest.(check int) "every fix counted" 6 (Buffer_pool.fixes pool)

let suites =
  [
    ( "par.differential",
      [
        Alcotest.test_case
          (Printf.sprintf "queries identical at jobs 1/2/4 across %d seeds" seeds)
          `Slow differential;
        Alcotest.test_case "parallel bulk load matches sequential" `Quick load_differential;
      ] );
    ( "par.runtime",
      [
        Alcotest.test_case "scan stress: small scan-resistant pool, 4 domains" `Quick scan_stress;
        Alcotest.test_case "reset_stats rejected inside a parallel region" `Quick reset_rejected;
        Alcotest.test_case "scan regions refcount across domains" `Quick scan_refcount;
        Alcotest.test_case "map_tasks: each task once, results and I/O in task order" `Quick
          map_tasks_contract;
        Alcotest.test_case "map_tasks: a raising task re-raises after every domain joined" `Quick
          map_tasks_raise;
      ] );
    ( "par.dict",
      [
        Alcotest.test_case
          (Printf.sprintf "4 domains intern one name pool and one type table, %d seeds" dict_seeds)
          `Quick dict_race;
      ] );
    ( "par.pool",
      [
        Alcotest.test_case
          (Printf.sprintf "4 domains fix, pin and evict beside each other, %d seeds" seeds)
          `Quick pool_stress;
        Alcotest.test_case "an eviction passes over a frame another domain just hit" `Quick
          eviction_sees_logged_hits;
      ] );
  ]
