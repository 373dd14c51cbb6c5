(* Benchmark harness: regenerates every figure of the paper's evaluation
   (§4, Figures 9-14) plus the ablations DESIGN.md calls out.

   For each page size and each of the four series (1:1/1:n ×
   incremental/append) a store is built once; Figure 9 reports the build,
   Figures 10-13 the four retrieval operations (buffer cleared before
   each), Figure 14 the bytes on disk.  All times are simulated
   milliseconds under the DCAS-34330W I/O model — see EXPERIMENTS.md for
   the comparison against the paper's curves. *)

open Natix_core
open Natix_workload
module Io_stats = Natix_store.Io_stats

let default_page_sizes = [ 2048; 4096; 8192; 16384; 24576; 32768 ]

type cell = {
  page_size : int;
  series : Harness.series;
  built : Harness.built;
  traversal : Io_stats.t;
  q1 : Io_stats.t;
  q2 : Io_stats.t;
  q3 : Io_stats.t;
}

(* --mon: attach the always-on monitor to every figure build and
   measurement, turning the gated bench into the telemetry-overhead
   experiment.  The monitor performs no I/O on the measured disk and the
   clock is simulated, so every simulated figure must come out
   byte-identical with it on; CI enforces that by diffing a --mon run
   against the unmonitored baseline. *)
let mon_enabled = ref false

let mon_obs () =
  if not !mon_enabled then None
  else begin
    let obs = Natix_obs.Obs.create () in
    ignore (Natix_mon.Mon.attach obs : Natix_mon.Mon.t);
    Some obs
  end

let build_cell ~check page_size series corpus =
  let built = Harness.build ?obs:(mon_obs ()) ~page_size series corpus in
  if check then
    List.iter (fun d -> Tree_store.check_document built.Harness.store d) built.Harness.docs;
  let docs = built.Harness.docs and store = built.Harness.store in
  let _, traversal = Harness.measure built (fun () -> Queries.full_traversal store ~docs) in
  let _, q1 = Harness.measure built (fun () -> Queries.q1 store ~docs) in
  let _, q2 = Harness.measure built (fun () -> Queries.q2 store ~docs) in
  let _, q3 = Harness.measure built (fun () -> Queries.q3 store ~docs) in
  { page_size; series; built; traversal; q1; q2; q3 }

let series_order = Harness.all_series

let print_table ~title ~unit rows value =
  Printf.printf "\n%s\n" title;
  Printf.printf "%-10s" "page";
  List.iter (fun s -> Printf.printf "%18s" (Harness.series_name s)) series_order;
  Printf.printf "    (%s)\n" unit;
  List.iter
    (fun (page_size, cells) ->
      Printf.printf "%-10d" page_size;
      List.iter
        (fun s ->
          let cell = List.find (fun c -> c.series = s) cells in
          Printf.printf "%18s" (value cell))
        series_order;
      print_newline ())
    rows

let fmt_ms ms = Printf.sprintf "%.0f" ms
let fmt_io (io : Io_stats.t) = fmt_ms io.Io_stats.sim_ms

let figure_title = function
  | 9 -> "Figure 9 - Insertion (simulated ms)"
  | 10 -> "Figure 10 - Full tree traversal (simulated ms)"
  | 11 -> "Figure 11 - Query 1: leaf selection in a subtree (simulated ms)"
  | 12 -> "Figure 12 - Query 2: small contiguous fragments (simulated ms)"
  | 13 -> "Figure 13 - Query 3: single path per document (simulated ms)"
  | 14 -> "Figure 14 - Space requirements (bytes on disk)"
  | n -> Printf.sprintf "Figure %d" n

let print_figure rows n =
  let value =
    match n with
    | 9 -> fun c -> fmt_io c.built.Harness.build_io
    | 10 -> fun c -> fmt_io c.traversal
    | 11 -> fun c -> fmt_io c.q1
    | 12 -> fun c -> fmt_io c.q2
    | 13 -> fun c -> fmt_io c.q3
    | 14 -> fun c -> string_of_int c.built.Harness.disk_bytes
    | _ -> fun _ -> "-"
  in
  print_table ~title:(figure_title n) ~unit:(if n = 14 then "bytes" else "sim ms") rows value

let print_aux rows =
  print_table ~title:"Auxiliary - build page I/O" ~unit:"reads+writes" rows (fun c ->
      Printf.sprintf "%d+%d" c.built.Harness.build_io.Io_stats.reads
        c.built.Harness.build_io.Io_stats.writes);
  print_table ~title:"Auxiliary - record splits during build" ~unit:"splits" rows (fun c ->
      string_of_int c.built.Harness.splits)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation_split_params corpus =
  Printf.printf "\nAblation - split tolerance and split target (8K pages, 1:n append)\n";
  Printf.printf "%-14s %-12s %12s %10s %14s %12s\n" "tolerance" "target" "insert-ms" "splits"
    "disk-bytes" "q2-ms";
  let page_size = 8192 in
  List.iter
    (fun (tolerance, target) ->
      let config =
        {
          (Config.default ()) with
          Config.page_size;
          split_tolerance = tolerance;
          split_target = target;
        }
      in
      let store = Tree_store.in_memory ~config () in
      let docs = List.mapi (fun i p -> (Printf.sprintf "play-%d" i, p)) corpus in
      let io = Tree_store.io_stats store in
      let before = Io_stats.copy io in
      Loader.load_collection store docs ~order:Loader.Preorder;
      Tree_store.sync store;
      let build = Io_stats.diff (Io_stats.copy io) before in
      let doc_names = List.map fst docs in
      Tree_store.clear_buffers store;
      let before = Io_stats.copy io in
      ignore (Queries.q2 store ~docs:doc_names);
      let q2 = Io_stats.diff (Io_stats.copy io) before in
      Printf.printf "%-14.3f %-12.2f %12.0f %10d %14d %12.0f\n" tolerance target
        build.Io_stats.sim_ms (Tree_store.split_count store) (Stats.disk_bytes store)
        q2.Io_stats.sim_ms)
    [ (0.0, 0.5); (0.05, 0.5); (0.1, 0.5); (0.25, 0.5); (0.1, 0.25); (0.1, 0.75) ]

let ablation_hybrid corpus =
  Printf.printf
    "\nAblation - HyperStorM-style hybrid matrix (8K pages, append) vs 1:1 and native\n";
  Printf.printf "%-22s %12s %14s %12s %12s\n" "matrix" "insert-ms" "disk-bytes" "q1-ms" "q3-ms";
  let page_size = 8192 in
  (* The Split Matrix is mutable and shared with the store, so entries can
     be added after creation, once the store's name pool exists. *)
  let hybrid store m =
    (* Upper levels standalone (as in HyperStorM), speech subtrees flat. *)
    List.iter
      (fun (p, c) ->
        Split_matrix.set m ~parent:(Tree_store.label store p) ~child:(Tree_store.label store c)
          Split_matrix.Standalone)
      [ ("PLAY", "ACT"); ("ACT", "SCENE"); ("SCENE", "SPEECH"); ("PLAY", "PERSONAE") ]
  in
  List.iter
    (fun (name, default, configure) ->
      let matrix = Split_matrix.create ~default () in
      let config = { (Config.default ()) with Config.page_size; matrix } in
      let store = Tree_store.in_memory ~config () in
      configure store matrix;
      let docs = List.mapi (fun i p -> (Printf.sprintf "play-%d" i, p)) corpus in
      let io = Tree_store.io_stats store in
      let before = Io_stats.copy io in
      Loader.load_collection store docs ~order:Loader.Preorder;
      Tree_store.sync store;
      let build = Io_stats.diff (Io_stats.copy io) before in
      let doc_names = List.map fst docs in
      let run q =
        Tree_store.clear_buffers store;
        let before = Io_stats.copy io in
        ignore (q store ~docs:doc_names);
        (Io_stats.diff (Io_stats.copy io) before).Io_stats.sim_ms
      in
      let q1 = run Queries.q1 in
      let q3 = run Queries.q3 in
      Printf.printf "%-22s %12.0f %14d %12.0f %12.0f\n" name build.Io_stats.sim_ms
        (Stats.disk_bytes store) q1 q3)
    [
      ("1:1 (all standalone)", Split_matrix.Standalone, fun _ _ -> ());
      ("hybrid (HyperStorM)", Split_matrix.Cluster, hybrid);
      ("1:n (native)", Split_matrix.Other, fun _ _ -> ());
    ]

let ablation_flat corpus =
  Printf.printf "\nAblation - flat-stream BLOB baseline vs native (8K pages)\n";
  Printf.printf "%-14s %14s %14s %16s %16s\n" "store" "load-ms" "traverse-ms" "100-updates-ms"
    "disk-bytes";
  let page_size = 8192 in
  (* Flat: one blob per play. *)
  let disk = Natix_store.Disk.in_memory ~page_size () in
  let pool = Natix_store.Buffer_pool.create ~disk ~bytes:(2 * 1024 * 1024) () in
  let rm = Natix_store.Record_manager.create (Natix_store.Segment.create pool) in
  let bs = Natix_flat.Blob_store.create rm in
  let stats = Natix_store.Disk.stats disk in
  let before = Io_stats.copy stats in
  let flat_docs =
    List.mapi
      (fun i p -> Natix_flat.Flat_document.store bs ~name:(Printf.sprintf "play-%d" i) p)
      corpus
  in
  Natix_store.Buffer_pool.flush pool;
  let load_ms = (Io_stats.diff (Io_stats.copy stats) before).Io_stats.sim_ms in
  Natix_store.Buffer_pool.clear pool;
  let before = Io_stats.copy stats in
  List.iter (fun d -> ignore (Natix_flat.Flat_document.load bs d)) flat_docs;
  let traverse_ms = (Io_stats.diff (Io_stats.copy stats) before).Io_stats.sim_ms in
  Natix_store.Buffer_pool.clear pool;
  let per_doc = max 1 (100 / List.length flat_docs) in
  let before = Io_stats.copy stats in
  List.iter
    (fun d ->
      let offsets = Natix_flat.Flat_document.text_offsets bs d ~limit:per_doc in
      List.iter
        (fun at -> Natix_flat.Flat_document.splice_text bs d ~at " update")
        (List.rev (List.sort Int.compare offsets)))
    flat_docs;
  Natix_store.Buffer_pool.flush pool;
  let update_ms = (Io_stats.diff (Io_stats.copy stats) before).Io_stats.sim_ms in
  Printf.printf "%-14s %14.0f %14.0f %16.0f %16d\n" "flat (BLOB)" load_ms traverse_ms update_ms
    (Natix_store.Disk.size_bytes disk);
  (* Native for comparison: same corpus, 100 scattered text inserts. *)
  let built =
    Harness.build ~page_size { Harness.matrix = Native; order = Loader.Preorder } corpus
  in
  let store = built.Harness.store in
  let _, upd =
    Harness.measure built (fun () ->
        (* The same number of scattered updates as the flat side; the
           navigation to each update position is part of the measurement
           (handles from before the buffer clear would be stale anyway).
           Unlike the flat store, native navigation reads only the path
           down to each scene, not the whole document. *)
        let count = ref 0 in
        List.iter
          (fun d ->
            match Cursor.of_document store d with
            | None -> ()
            | Some root ->
              Seq.iter
                (fun act ->
                  if !count < 100 then begin
                    match Cursor.children_named act "SCENE" () with
                    | Seq.Cons (scene, _) ->
                      incr count;
                      ignore
                        (Tree_store.insert_node store
                           (Tree_store.First_under (Cursor.node scene))
                           (Tree_store.Text "an update line"))
                    | Seq.Nil -> ()
                  end)
                (Cursor.children_named root "ACT"))
          built.Harness.docs;
        Tree_store.sync store)
  in
  let _, trav =
    Harness.measure built (fun () -> Queries.full_traversal store ~docs:built.Harness.docs)
  in
  Printf.printf "%-14s %14.0f %14.0f %16.0f %16d\n" "native (1:n)"
    built.Harness.build_io.Io_stats.sim_ms trav.Io_stats.sim_ms upd.Io_stats.sim_ms
    built.Harness.disk_bytes

let ablation_buffer corpus =
  Printf.printf
    "\nAblation - buffer size (8K pages, 1:n incremental): the 2 MB working-set cliff\n";
  Printf.printf "%-14s %14s %12s %12s\n" "buffer" "insert-ms" "reads" "writes";
  List.iter
    (fun buffer_bytes ->
      let built =
        Harness.build ~page_size:8192 ~buffer_bytes
          { Harness.matrix = Harness.Native; order = Loader.Bfs_binary }
          corpus
      in
      Printf.printf "%-14s %14.0f %12d %12d\n"
        (Printf.sprintf "%dK" (buffer_bytes / 1024))
        built.Harness.build_io.Io_stats.sim_ms built.Harness.build_io.Io_stats.reads
        built.Harness.build_io.Io_stats.writes)
    [ 256 * 1024; 512 * 1024; 1024 * 1024; 2 * 1024 * 1024; 4 * 1024 * 1024; 8 * 1024 * 1024 ]

let ablation_merge corpus =
  Printf.printf
    "\nAblation - dynamic re-clustering on deletion (8K pages, 1:n, delete 2 of 3 speeches)\n";
  Printf.printf "%-18s %10s %10s %12s %14s %12s\n" "merge_threshold" "records" "merges"
    "disk-bytes" "traversal-ms" "depth";
  let page_size = 8192 in
  List.iter
    (fun merge_threshold ->
      let built =
        Harness.build ~page_size ~merge_threshold
          { Harness.matrix = Harness.Native; order = Loader.Preorder }
          corpus
      in
      let store = built.Harness.store in
      (* Delete two of every three speeches, document by document. *)
      let engine = Natix_query.Engine.create store in
      List.iter
        (fun doc ->
          let speeches =
            match Natix_query.Engine.query_naive engine ~doc "//SPEECH" with
            | Ok hits -> List.of_seq hits
            | Error e -> Error.raise_error e
          in
          List.iteri
            (fun i c -> if i mod 3 <> 0 then Tree_store.delete_node store (Cursor.node c))
            speeches)
        built.Harness.docs;
      Tree_store.sync store;
      let agg =
        List.fold_left
          (fun (records, depth) doc ->
            let s = Stats.document store doc in
            (records + s.Stats.records, max depth s.Stats.record_tree_depth))
          (0, 0) built.Harness.docs
      in
      let records, depth = agg in
      let _, trav =
        Harness.measure built (fun () ->
            Queries.full_traversal store ~docs:built.Harness.docs)
      in
      Printf.printf "%-18.2f %10d %10d %12d %14.0f %12d\n" merge_threshold records
        (Tree_store.merge_count store) (Stats.disk_bytes store) trav.Io_stats.sim_ms depth)
    [ 0.0; 0.25; 0.5; 0.8 ]

let ablation_scan corpus =
  Printf.printf "\nAblation - typed-element scans (paper 4.4.6), 8K pages\n";
  Printf.printf "%-14s %-10s %16s %16s %10s\n" "store" "element" "traversal-ms" "index-scan-ms"
    "hits";
  let page_size = 8192 in
  List.iter
    (fun (name, series) ->
      let built = Harness.build ~page_size series corpus in
      let store = built.Harness.store in
      let idx = Element_index.create store ~name:"elements" in
      Element_index.rebuild idx;
      Tree_store.sync store;
      (* SPEAKER is dense (in almost every record); SCNDESCR is one node
         per play -- the selectivity spectrum of an index. *)
      List.iter
        (fun element ->
          let label = Tree_store.label store element in
          let via_traversal, t_io =
            Harness.measure built (fun () ->
                List.fold_left
                  (fun acc doc ->
                    match Cursor.of_document store doc with
                    | None -> acc
                    | Some root ->
                      Seq.fold_left
                        (fun acc c ->
                          if Cursor.is_element c && Cursor.name c = element then acc + 1 else acc)
                        acc (Cursor.descendants_or_self root))
                  0 built.Harness.docs)
          in
          let via_index, i_io =
            Harness.measure built (fun () -> List.length (Element_index.scan idx label))
          in
          assert (via_traversal = via_index);
          Printf.printf "%-14s %-10s %16.0f %16.0f %10d\n" name element t_io.Io_stats.sim_ms
            i_io.Io_stats.sim_ms via_index)
        [ "SPEAKER"; "SCNDESCR" ])
    [
      ("1:1 append", { Harness.matrix = Harness.One_to_one; order = Loader.Preorder });
      ("1:n append", { Harness.matrix = Harness.Native; order = Loader.Preorder });
    ]

let ablation_wal corpus =
  Printf.printf
    "\nAblation - WAL write amplification (8K pages, file-backed, 1:n append)\n";
  Printf.printf "%-22s %12s %12s %16s %10s %10s\n" "checkpoint every" "data-MB" "wal-MB"
    "amplification" "commits" "appends";
  let page_size = 8192 in
  let plays = List.length corpus in
  List.iter
    (fun every ->
      let path = Filename.temp_file "natix_bench" ".db" in
      let config = { (Config.default ()) with Config.page_size } in
      let disk = Natix_store.Disk.on_file ~page_size path in
      let store = Tree_store.open_store ~config disk in
      let commits = ref 0 in
      let checkpoint () =
        Tree_store.sync store;
        incr commits
      in
      List.iteri
        (fun i play ->
          let name = Printf.sprintf "play-%d" i in
          Tree_store.autocommit store ~doc:name (fun () -> ignore (Loader.load store ~name play));
          if (i + 1) mod every = 0 then checkpoint ())
        corpus;
      if plays mod every <> 0 then checkpoint ();
      let wal = Option.get (Natix_store.Buffer_pool.wal (Tree_store.buffer_pool store)) in
      let wal_bytes = Natix_store.Wal.bytes_logged wal in
      let appends = Natix_store.Wal.appends wal in
      let data_bytes = (Natix_store.Disk.stats disk).Io_stats.writes * page_size in
      Tree_store.close ~commit:false store;
      Sys.remove path;
      let wal_path = Natix_store.Recovery.wal_path path in
      if Sys.file_exists wal_path then Sys.remove wal_path;
      Printf.printf "%-22s %12.2f %12.2f %16.3f %10d %10d\n"
        (Printf.sprintf "%d play(s)" every)
        (float_of_int data_bytes /. 1e6)
        (float_of_int wal_bytes /. 1e6)
        (float_of_int (data_bytes + wal_bytes) /. float_of_int (max 1 data_bytes))
        !commits appends)
    (List.sort_uniq compare [ 1; max 1 (plays / 2); plays ])

(* ------------------------------------------------------------------ *)
(* Machine-readable export                                             *)

module J = Natix_obs.Json

(* The per-operation I/O objects reuse [Io_stats.pp_json], so the JSON
   shape is identical wherever an I/O delta is reported. *)
let io_json io = J.parse (Format.asprintf "%a" Io_stats.pp_json io)

(* ------------------------------------------------------------------ *)
(* Query-engine bench: planned vs naive evaluation, index seeding, and
   the scan-optimised buffer pool (read-ahead + segmented LRU).  Run on
   its own with --query-bench (the CI smoke job). *)

let qb_series = { Harness.matrix = Harness.Native; order = Loader.Preorder }

let qb_count engine ~docs ~naive path =
  List.fold_left
    (fun acc doc ->
      let run = if naive then Natix_query.Engine.query_naive else Natix_query.Engine.query in
      match run engine ~doc path with
      | Ok seq -> acc + Seq.length seq
      | Error e -> failwith (Error.to_string e))
    0 docs

(* Engine over a harness store, with the element index built (the planner
   only considers index seeding when one is attached). *)
let qb_engine built =
  let store = built.Harness.store in
  let idx = Element_index.create store ~name:"elements" in
  Element_index.rebuild idx;
  Tree_store.sync store;
  Natix_query.Engine.create ~index:idx store

let qb_measure_pair built engine ~docs (name, path) =
  let planned_hits, p = Harness.measure built (fun () -> qb_count engine ~docs ~naive:false path) in
  let naive_hits, n = Harness.measure built (fun () -> qb_count engine ~docs ~naive:true path) in
  if planned_hits <> naive_hits then
    failwith (Printf.sprintf "%s: planned %d hits <> naive %d hits" name planned_hits naive_hits);
  (planned_hits, p, n)

let qb_planned_vs_naive corpus =
  Printf.printf
    "\nQuery bench - planned (lazy, index-aware) vs naive (strict navigation); 8K pages, 1:n \
     append, cold buffers\n";
  Printf.printf "%-8s %-28s %8s | %9s %9s | %9s %9s\n" "query" "path" "hits" "plan-rd" "plan-ms"
    "naive-rd" "naive-ms";
  let built = Harness.build ?obs:(mon_obs ()) ~page_size:8192 qb_series corpus in
  let engine = qb_engine built in
  let docs = built.Harness.docs in
  List.map
    (fun (name, path) ->
      let hits, p, n = qb_measure_pair built engine ~docs (name, path) in
      Printf.printf "%-8s %-28s %8d | %9d %9.0f | %9d %9.0f\n" name path hits p.Io_stats.reads
        p.Io_stats.sim_ms n.Io_stats.reads n.Io_stats.sim_ms;
      (name, path, hits, p, n))
    [
      ("q1", "//ACT[3]/SCENE[2]//SPEAKER");
      ("q2", "/ACT/SCENE/SPEECH[1]");
      ("q3", "/ACT[1]/SCENE[1]/SPEECH[1]");
    ]

let qb_index_seed corpus =
  Printf.printf
    "\nQuery bench - index seeding on one play (selective SCNDESCR vs dense SPEAKER)\n";
  Printf.printf "%-28s %-12s %8s | %9s %9s\n" "path" "access" "hits" "plan-rd" "naive-rd";
  let built = Harness.build ?obs:(mon_obs ()) ~page_size:8192 qb_series [ List.hd corpus ] in
  let engine = qb_engine built in
  let docs = built.Harness.docs in
  let doc = List.hd docs in
  List.map
    (fun path ->
      let plan =
        match Natix_query.Engine.plan engine ~doc path with
        | Ok p -> p
        | Error e -> failwith (Error.to_string e)
      in
      let access = if Natix_query.Plan.uses_index plan then "index-seed" else "nav" in
      let hits, p, n = qb_measure_pair built engine ~docs (path, path) in
      Printf.printf "%-28s %-12s %8d | %9d %9d\n" path access hits p.Io_stats.reads
        n.Io_stats.reads;
      (path, access, hits, p, n))
    [ "//SCNDESCR"; "//SPEAKER" ]

(* Protocol: warm the per-document root paths (q3), run the full
   traversal (a scan), then re-run q3 and read the pool's hit ratio --
   did the scan evict the working set?  The 512K buffer is deliberately
   much smaller than the store so eviction policy matters. *)
let qb_scan_pool corpus =
  Printf.printf
    "\nQuery bench - scan-optimised pool (512K buffer): q3 warm-up, cold traversal, q3 re-run\n";
  Printf.printf "%-24s %9s %9s %9s | %9s %13s\n" "pool" "trav-rd" "ra-pages" "trav-ms" "q3-ms"
    "q3-hit-ratio";
  List.map
    (fun (name, read_ahead, scan_resistant) ->
      let built =
        Harness.build ?obs:(mon_obs ()) ~page_size:8192 ~buffer_bytes:(512 * 1024) ~read_ahead ~scan_resistant
          qb_series corpus
      in
      let store = built.Harness.store in
      let docs = built.Harness.docs in
      let pool = Tree_store.buffer_pool store in
      let io = Tree_store.io_stats store in
      Tree_store.clear_buffers store;
      ignore (Queries.q3 store ~docs);
      let before = Io_stats.copy io in
      ignore (Queries.full_traversal store ~docs);
      let trav = Io_stats.diff (Io_stats.copy io) before in
      Natix_store.Buffer_pool.reset_stats pool;
      let before = Io_stats.copy io in
      ignore (Queries.q3 store ~docs);
      let q3 = Io_stats.diff (Io_stats.copy io) before in
      let ratio = Natix_store.Buffer_pool.hit_ratio pool in
      Printf.printf "%-24s %9d %9d %9.0f | %9.0f %13.3f\n" name trav.Io_stats.reads
        trav.Io_stats.read_ahead_pages trav.Io_stats.sim_ms q3.Io_stats.sim_ms ratio;
      (name, trav, q3, ratio))
    [ ("plain LRU", 0, false); ("segmented LRU + RA 8", 8, true) ]

(* Write bench (--write-bench): concurrent transactional writers.  Each
   document commits as one ARIES transaction through the group-commit
   daemon ([Par.load_files_txn]); jobs ∈ {1, 2, 4} worker domains share
   one file-backed store per run.  The workload is commit-latency bound
   by design: 16 small documents (one act each) against a 100 ms
   batching window, so at jobs=1 every commit pays its own window
   serially while at jobs>1 concurrent committers ride one leader's
   flush and the window overlaps other workers' mutation phases — the
   scaling measures the narrowed structure lock, not the XML parser.
   The domain schedule makes every I/O counter racy, so the JSON section
   exports only the document count and the wall-derived keys, which
   bench-diff skips; the table additionally shows how many daemon
   flushes the commits batched into. *)
let run_write_bench () =
  Printf.printf "\nWrite bench - concurrent transactional writers (8K pages, group commit)\n";
  Printf.printf "%-8s %8s %10s %12s %10s %12s\n" "jobs" "docs" "commits" "gc-flushes" "wall-s"
    "commits/s";
  let page_size = 8192 in
  (* ≥8 documents so mutation phases on distinct documents overlap and
     every worker domain stays busy; one-act plays keep the per-document
     mutation phase well under the batching window. *)
  let corpus =
    Natix_workload.Shakespeare.(
      generate
        {
          default_params with
          plays = 16;
          acts_per_play = 1;
          scenes_per_act = (1, 2);
          speeches_per_scene = (8, 14);
        })
  in
  let files =
    List.mapi
      (fun i play -> (Printf.sprintf "play-%d" i, Natix_xml.Xml_print.to_string play))
      corpus
  in
  let run jobs =
    let path = Filename.temp_file "natix_bench" ".db" in
    let config =
      { (Config.default ()) with Config.page_size; commit_delay = 100. }
    in
    let disk = Natix_store.Disk.on_file ~page_size path in
    let store = Tree_store.open_store ~config disk in
    let dm = Document_manager.create ~index:Document_manager.Off store in
    let t0 = Unix.gettimeofday () in
    let outcome = Natix_par.Par.load_files_txn ~jobs dm files in
    let wall = Unix.gettimeofday () -. t0 in
    List.iter2
      (fun (name, _) -> function
        | Ok () -> ()
        | Error e -> failwith (Printf.sprintf "write bench %s: %s" name (Error.to_string e)))
      files outcome.Natix_par.Par.results;
    let gc = Option.get (Tree_store.group_commit store) in
    let flushes = Natix_store.Group_commit.flushes gc in
    let committed = Natix_store.Group_commit.committed gc in
    if committed <> List.length files then
      failwith
        (Printf.sprintf "write bench: %d of %d commits acked" committed (List.length files));
    Tree_store.close ~commit:false store;
    Sys.remove path;
    let wal = Natix_store.Recovery.wal_path path in
    if Sys.file_exists wal then Sys.remove wal;
    let rate = if wall > 0. then float_of_int committed /. wall else 0. in
    Printf.printf "%-8d %8d %10d %12d %10.3f %12.1f\n" jobs (List.length files) committed
      flushes wall rate;
    (jobs, wall, rate)
  in
  let runs = List.map run [ 1; 2; 4 ] in
  J.Obj
    (("docs", J.Int (List.length files))
    :: List.concat_map
         (fun (jobs, w, r) ->
           [
             (Printf.sprintf "jobs%d_wall_s" jobs, J.Float w);
             (Printf.sprintf "jobs%d_commits_per_s" jobs, J.Float r);
           ])
         runs)

(* Parallel ablation (--jobs N): the same query batch at jobs=1 and
   jobs=N over one shared store.  reads/writes must match exactly — every
   distinct page is read once into the shared pool regardless of the
   schedule — while wall clock and the per-stream simulated figures may
   differ; the JSON section therefore exports only the deterministic
   counters (and [*_wall_s] keys, which bench-diff skips).  The section
   is additive: without --jobs the report is byte-identical to before. *)
let run_parallel_bench ~jobs corpus =
  Printf.printf "\nParallel query bench - jobs=1 vs jobs=%d (8K pages, 1:n append)\n" jobs;
  Printf.printf "%-8s %10s %10s %10s %12s %10s\n" "jobs" "tasks" "hits" "reads" "writes" "wall-s";
  let built = Harness.build ?obs:(mon_obs ()) ~page_size:8192 qb_series corpus in
  let store = built.Harness.store in
  let docs = built.Harness.docs in
  let paths =
    [ "//ACT[3]/SCENE[2]//SPEAKER"; "/ACT/SCENE/SPEECH[1]"; "/ACT[1]/SCENE[1]/SPEECH[1]" ]
  in
  let tasks = List.concat_map (fun d -> List.map (fun p -> (d, p)) paths) docs in
  let run jobs =
    Tree_store.clear_buffers store;
    Natix_store.Buffer_pool.reset_stats (Tree_store.buffer_pool store);
    let io = Tree_store.io_stats store in
    let before = Io_stats.copy io in
    let t0 = Unix.gettimeofday () in
    let outcome = Natix_par.Par.run_queries ~jobs store tasks in
    let wall = Unix.gettimeofday () -. t0 in
    (outcome, Io_stats.diff (Io_stats.copy io) before, wall)
  in
  let o1, d1, w1 = run 1 in
  let on, dn, wn = run jobs in
  if o1.Natix_par.Par.results <> on.Natix_par.Par.results then
    failwith "parallel bench: jobs=1 and parallel results differ";
  if d1.Io_stats.reads <> dn.Io_stats.reads || d1.Io_stats.writes <> dn.Io_stats.writes then
    failwith "parallel bench: jobs=1 and parallel I/O totals differ";
  let hits o =
    List.fold_left
      (fun acc -> function Ok l -> acc + List.length l | Error _ -> acc)
      0 o.Natix_par.Par.results
  in
  List.iter
    (fun (jobs, o, d, w) ->
      Printf.printf "%-8d %10d %10d %10d %12d %10.3f\n" jobs (List.length tasks) (hits o)
        d.Io_stats.reads d.Io_stats.writes w)
    [ (1, o1, d1, w1); (jobs, on, dn, wn) ];
  J.Obj
    [
      ("jobs", J.Int jobs);
      ("tasks", J.Int (List.length tasks));
      ("hits", J.Int (hits o1));
      ("io_jobs1", io_json d1);
      ("reads_jobs_n", J.Int dn.Io_stats.reads);
      ("writes_jobs_n", J.Int dn.Io_stats.writes);
      ("seq_wall_s", J.Float w1);
      ("par_wall_s", J.Float wn);
    ]

(* Serve bench: simulated open-loop traffic through the whole serve
   stack — Api codec, CRC framing, admission, dispatch — via the
   in-process loopback client.  The request mix is measured once on an
   inline (jobs = 0) server against the simulated I/O clock, then swept
   through the open-loop queueing model at multiples of the saturation
   rate.  Nothing touches a wall clock, so every figure (including the
   latency quantiles) is byte-identical across runs and machines and the
   section is gated by bench-diff. *)
let serve_export = ref ""

(* --trace: end-to-end request tracing on the serve bench's server.  The
   tracer only reads the simulated clock and the request's private I/O
   stream, so every figure in the report is byte-identical with it on —
   CI enforces that by diffing a --trace run against the baseline. *)
let serve_trace = ref false

let run_serve_bench corpus =
  let module T = Natix_server.Traffic in
  Printf.printf
    "\nServe bench - open-loop arrival sweep through the binary-protocol serve path (inline \
     server, simulated clock)\n";
  let sess = Natix.Session.open_memory () in
  let store = Natix.Session.store sess in
  let docs =
    List.mapi (fun i p -> (Printf.sprintf "play-%d" i, Natix_xml.Xml_print.to_string p)) corpus
  in
  List.iter
    (fun (doc, xml) ->
      match Natix.Session.exec sess (Natix.Api.Load { doc; xml; order = Loader.Preorder }) with
      | Natix.Api.Loaded _ -> ()
      | r -> failwith (Format.asprintf "serve bench load: %a" Natix.Api.pp_response r))
    docs;
  let registry = Natix_server.Registry.create () in
  Natix_server.Registry.mount registry "bench" sess;
  let server =
    Natix_server.Server.create
      ~config:
        {
          Natix_server.Server.default_config with
          Natix_server.Server.jobs = 0;
          trace = (if !serve_trace then Some Natix_server.Server.default_trace else None);
        }
      registry
  in
  let doc_names = List.map fst docs in
  let paths =
    [ "//ACT[3]/SCENE[2]//SPEAKER"; "/ACT/SCENE/SPEECH[1]"; "/ACT[1]/SCENE[1]/SPEECH[1]" ]
  in
  let reqs =
    Natix.Api.Ping
    :: Natix.Api.Scan { element = "SCNDESCR"; texts = false }
    :: Natix.Api.Stat { doc = None }
    :: List.concat_map
         (fun texts ->
           List.concat_map
             (fun path ->
               List.map (fun doc -> Natix.Api.Query { doc; path; texts }) doc_names)
             paths)
         [ false; true ]
  in
  (* Each request is measured against cold buffers: the service-time
     profile models steady-state traffic over a working set larger than
     the pool, not the second hit of a warm benchmark loop. *)
  let measured =
    List.concat_map
      (fun req ->
        Tree_store.clear_buffers store;
        T.measure server ~tenant:"bench" [ req ])
      reqs
  in
  List.iter
    (fun (resp, _) ->
      match resp with
      | Natix.Api.Err e -> failwith ("serve bench: " ^ Error.to_string e)
      | Natix.Api.Overloaded { reason } -> failwith ("serve bench: overloaded: " ^ reason)
      | _ -> ())
    measured;
  let service = Array.of_list (List.map snd measured) in
  let capacity = 4 and queue_depth = 8 in
  let sat = T.saturation ~capacity service in
  (* A fully cached mix saturates at infinity; fall back to a fixed base
     so the sweep (and its JSON) stays finite. *)
  let base = if Float.is_finite sat && sat > 0. then sat else 1000. in
  Printf.printf "%d request(s); capacity %d, queue depth %d, saturation %.1f req/s\n"
    (Array.length service) capacity queue_depth base;
  Printf.printf "%-9s %10s %8s %10s %6s %10s %9s %9s %9s\n" "multiple" "rate-rps" "offered"
    "completed" "shed" "max-queue" "p50-ms" "p95-ms" "p99-ms";
  let points =
    List.map
      (fun m ->
        let p = T.simulate ~capacity ~queue_depth ~rate:(base *. m) service in
        if p.T.completed + p.T.shed <> p.T.offered then
          failwith "serve bench: offered <> completed + shed";
        if p.T.max_queue > queue_depth then failwith "serve bench: queue bound exceeded";
        Printf.printf "%-9.2f %10.1f %8d %10d %6d %10d %9.2f %9.2f %9.2f\n" m p.T.rate
          p.T.offered p.T.completed p.T.shed p.T.max_queue p.T.p50_ms p.T.p95_ms p.T.p99_ms;
        (m, p))
      [ 0.5; 1.0; 2.0; 4.0 ]
  in
  (if !serve_export <> "" then
     match Natix.Session.mon sess with
     | None -> ()
     | Some mon ->
       let at_ms = (Io_stats.copy (Tree_store.io_stats store)).Io_stats.sim_ms in
       let path = Printf.sprintf "%s-bench.prom" !serve_export in
       let oc = open_out path in
       output_string oc (Natix_mon.Mon.export_prometheus mon ~at_ms);
       close_out oc;
       Printf.printf "wrote %s\n" path);
  Natix_server.Server.shutdown server;
  Natix.Session.close ~commit:false sess;
  J.Obj
    [
      ("requests", J.Int (Array.length service));
      ("capacity", J.Int capacity);
      ("queue_depth", J.Int queue_depth);
      ("saturation_rps", J.Float base);
      ( "sweep",
        J.List
          (List.map
             (fun (m, p) ->
               J.Obj
                 [
                   ("multiple", J.Float m);
                   ("rate_rps", J.Float p.T.rate);
                   ("offered", J.Int p.T.offered);
                   ("completed", J.Int p.T.completed);
                   ("shed", J.Int p.T.shed);
                   ("max_queue", J.Int p.T.max_queue);
                   ("p50_ms", J.Float p.T.p50_ms);
                   ("p95_ms", J.Float p.T.p95_ms);
                   ("p99_ms", J.Float p.T.p99_ms);
                 ])
             points) );
    ]

let run_query_bench corpus =
  let pvn = qb_planned_vs_naive corpus in
  let seed = qb_index_seed corpus in
  let scan = qb_scan_pool corpus in
  J.Obj
    [
      ( "planned_vs_naive",
        J.List
          (List.map
             (fun (name, path, hits, p, n) ->
               J.Obj
                 [
                   ("query", J.String name);
                   ("path", J.String path);
                   ("hits", J.Int hits);
                   ("planned_io", io_json p);
                   ("naive_io", io_json n);
                 ])
             pvn) );
      ( "index_seed",
        J.List
          (List.map
             (fun (path, access, hits, p, n) ->
               J.Obj
                 [
                   ("path", J.String path);
                   ("access", J.String access);
                   ("hits", J.Int hits);
                   ("planned_io", io_json p);
                   ("naive_io", io_json n);
                 ])
             seed) );
      ( "scan_pool",
        J.List
          (List.map
             (fun (name, trav, q3, ratio) ->
               J.Obj
                 [
                   ("pool", J.String name);
                   ("traversal_io", io_json trav);
                   ("q3_io", io_json q3);
                   ("q3_hit_ratio", J.Float ratio);
                 ])
             scan) );
    ]

let cell_json c =
  J.Obj
    [
      ("page_size", J.Int c.page_size);
      ("series", J.String (Harness.series_name c.series));
      ("build_io", io_json c.built.Harness.build_io);
      ("build_wall_s", J.Float c.built.Harness.build_wall_s);
      ("disk_bytes", J.Int c.built.Harness.disk_bytes);
      ("splits", J.Int c.built.Harness.splits);
      ("nodes", J.Int c.built.Harness.nodes);
      ("traversal_io", io_json c.traversal);
      ("q1_io", io_json c.q1);
      ("q2_io", io_json c.q2);
      ("q3_io", io_json c.q3);
    ]

(* One small instrumented build so the export also carries engine metrics
   (split-fill and record-size histograms, buffer hit ratio, event
   counts). *)
let instrumented_metrics_json corpus =
  let obs = Natix_obs.Obs.create () in
  let built =
    Harness.build ~page_size:8192 ~obs
      { Harness.matrix = Harness.Native; order = Loader.Preorder }
      corpus
  in
  let store = built.Harness.store in
  Tree_store.clear_buffers store;
  Natix_store.Buffer_pool.reset_stats (Tree_store.buffer_pool store);
  ignore (Queries.full_traversal store ~docs:built.Harness.docs);
  J.Obj
    [
      ("page_size", J.Int 8192);
      ("series", J.String "1:n append");
      ( "traversal_hit_ratio",
        J.Float (Natix_store.Buffer_pool.hit_ratio (Tree_store.buffer_pool store)) );
      ("metrics", Natix_obs.Metrics.to_json (Natix_obs.Obs.metrics obs));
    ]

let corpus_json ~scale ~plays ~nodes ~bytes =
  J.Obj
    [
      ("scale", J.Float scale); ("plays", J.Int plays); ("nodes", J.Int nodes);
      ("bytes", J.Int bytes);
    ]

let write_json_doc path doc =
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let write_json_report path ~scale ~plays ~nodes ~bytes ?query ?serve ?parallel ?write rows small =
  let doc =
    J.Obj
      ([
         ("corpus", corpus_json ~scale ~plays ~nodes ~bytes);
         ("io_model", J.String "IBM DCAS-34330W (simulated ms)");
         ( "cells",
           J.List (List.concat_map (fun (_page, cells) -> List.map cell_json cells) rows) );
         ("instrumented", instrumented_metrics_json small);
       ]
      @ (match query with None -> [] | Some q -> [ ("query_bench", q) ])
      @ (match serve with None -> [] | Some s -> [ ("serve_bench", s) ])
      @ (match parallel with None -> [] | Some p -> [ ("parallel", p) ])
      @ match write with None -> [] | Some w -> [ ("write_bench", w) ])
  in
  write_json_doc path doc

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let () =
  let scale = ref 1.0 in
  let pages = ref default_page_sizes in
  let figures = ref [] in
  let run_ablations = ref true in
  let query_only = ref false in
  let check = ref false in
  let json_path = ref "" in
  let jobs = ref 1 in
  let write_bench = ref false in
  let args =
    [
      ("--scale", Arg.Set_float scale, "FACTOR corpus scale (default 1.0 = 37 plays)");
      ( "--pages",
        Arg.String (fun s -> pages := List.map int_of_string (String.split_on_char ',' s)),
        "LIST comma-separated page sizes" );
      ( "--figure",
        Arg.Int (fun n -> figures := n :: !figures),
        "N print only figure N (9-14; repeatable)" );
      ("--no-ablations", Arg.Clear run_ablations, " skip the ablation benches");
      ( "--query-bench",
        Arg.Set query_only,
        " run only the query-engine bench (planned vs naive, index seeding, scan pool)" );
      ("--check", Arg.Set check, " run integrity checks after each build");
      ( "--json",
        Arg.Unit (fun () -> json_path := "BENCH_natix.json"),
        " write a machine-readable report to BENCH_natix.json" );
      ("--json-file", Arg.String (fun p -> json_path := p), "FILE write the JSON report to FILE");
      ( "--mon",
        Arg.Set mon_enabled,
        " attach the always-on monitor to every build/measurement; all simulated figures must \
         stay byte-identical (the telemetry-overhead experiment)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N also run the parallel query bench at N worker domains (adds a \"parallel\" JSON \
         section; existing figures are untouched)" );
      ( "--write-bench",
        Arg.Set write_bench,
        " also run the concurrent transactional-writer bench at jobs 1/2/4 (adds a \
         \"write_bench\" JSON section of wall-clock keys; existing figures are untouched)" );
      ( "--serve-export",
        Arg.Set_string serve_export,
        "PREFIX after the serve bench, write the tenant's Prometheus metrics to \
         PREFIX-<tenant>.prom" );
      ( "--trace",
        Arg.Set serve_trace,
        " trace every serve-bench request end to end; all simulated figures must stay \
         byte-identical (the tracing-overhead experiment)" );
    ]
  in
  Arg.parse args (fun _ -> ()) "natix benchmark harness";
  let figures = if !figures = [] then [ 9; 10; 11; 12; 13; 14 ] else List.rev !figures in
  let corpus = Shakespeare.generate (Shakespeare.scaled !scale) in
  let nodes, bytes = Shakespeare.corpus_measure corpus in
  Printf.printf
    "NATIX evaluation harness - corpus: %d plays, %d nodes, %.1f MB; buffer 2 MB;\n\
     split target 1/2, tolerance 1/10 page; IBM DCAS-34330W I/O model (simulated ms).\n"
    (List.length corpus) nodes
    (float_of_int bytes /. 1e6);
  let parallel_section () =
    if !jobs > 1 then
      Some (run_parallel_bench ~jobs:!jobs (Shakespeare.generate (Shakespeare.scaled (Float.min !scale 0.25))))
    else None
  in
  let write_section () =
    if !write_bench then
      Some (run_write_bench ())
    else None
  in
  let serve_corpus () = Shakespeare.generate (Shakespeare.scaled (Float.min !scale 0.1)) in
  if !query_only then begin
    let query = run_query_bench corpus in
    let serve = run_serve_bench (serve_corpus ()) in
    let parallel = parallel_section () in
    let write = write_section () in
    if !json_path <> "" then
      write_json_doc !json_path
        (J.Obj
           ([
              ("corpus", corpus_json ~scale:!scale ~plays:(List.length corpus) ~nodes ~bytes);
              ("io_model", J.String "IBM DCAS-34330W (simulated ms)");
              ("query_bench", query);
              ("serve_bench", serve);
            ]
           @ (match parallel with None -> [] | Some p -> [ ("parallel", p) ])
           @ match write with None -> [] | Some w -> [ ("write_bench", w) ]));
    exit 0
  end;
  let rows =
    List.map
      (fun page_size ->
        let cells =
          List.map
            (fun series ->
              let t0 = Unix.gettimeofday () in
              let cell = build_cell ~check:!check page_size series corpus in
              Printf.eprintf "[built %s @%d in %.1fs]\n%!" (Harness.series_name series)
                page_size
                (Unix.gettimeofday () -. t0);
              cell)
            series_order
        in
        (page_size, cells))
      !pages
  in
  List.iter (print_figure rows) figures;
  print_aux rows;
  let query =
    if !run_ablations then
      Some (run_query_bench (Shakespeare.generate (Shakespeare.scaled (Float.min !scale 0.25))))
    else None
  in
  let serve = if !run_ablations then Some (run_serve_bench (serve_corpus ())) else None in
  let parallel = parallel_section () in
  let write = write_section () in
  if !json_path <> "" then begin
    let small = Shakespeare.generate (Shakespeare.scaled (Float.min !scale 0.1)) in
    write_json_report !json_path ~scale:!scale ~plays:(List.length corpus) ~nodes ~bytes ?query
      ?serve ?parallel ?write rows small
  end;
  if !run_ablations then begin
    let small = Shakespeare.generate (Shakespeare.scaled (Float.min !scale 0.25)) in
    ablation_split_params small;
    ablation_buffer small;
    ablation_hybrid small;
    ablation_flat small;
    ablation_merge small;
    ablation_scan small;
    ablation_wal small
  end
