open Natix_core
open Natix_store

module Int_set = Set.Make (Int)

(* Fixed fill-factor buckets: upper-inclusive tenths. *)
let fill_edges = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 |]

let record_pages store doc =
  match Tree_store.document_rid store doc with
  | None -> Int_set.empty
  | Some rid ->
    let rm = Tree_store.record_manager store in
    let pages = ref Int_set.empty in
    Tree_store.iter_records store rid (fun rid _ _ ->
        pages := Int_set.add (Record_manager.home_page rm rid) !pages);
    !pages

let quantiles_line ppf metrics hist =
  match Natix_obs.Metrics.histogram metrics hist with
  | None | Some (_, _, _, 0) -> Format.fprintf ppf "n=0"
  | Some (_, _, sum, n) ->
    let q p =
      match Natix_obs.Metrics.quantile metrics hist p with
      | Some v -> Printf.sprintf "%.2f" v
      | None -> "-"
    in
    Format.fprintf ppf "n=%d mean=%.2f p50=%s p95=%s p99=%s" n
      (sum /. float_of_int n)
      (q 0.5) (q 0.95) (q 0.99)

let run ?(top_pages = 5) store =
  let obs = Tree_store.obs store in
  let docs = List.sort String.compare (Tree_store.list_documents store) in
  let pool = Tree_store.buffer_pool store in
  let disk = Buffer_pool.disk pool in
  let seg = Record_manager.segment (Tree_store.record_manager store) in
  (* Probe every document: the clustering walk doubles as the event
     source for proxy-chain and heat statistics when the store is
     instrumented. *)
  let probe doc =
    let work () =
      let stats = Stats.document store doc in
      let cluster = Cluster.score store ~doc in
      let pages = record_pages store doc in
      (doc, stats, cluster, pages)
    in
    match obs with
    | None -> work ()
    | Some o -> Natix_obs.Obs.with_context o ~doc ~phase:"doctor" work
  in
  let probed = List.map probe docs in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "@[<v>== store ==@,";
  Format.fprintf ppf "documents=%d pages=%d page_size=%d disk_bytes=%d@," (List.length docs)
    (Disk.page_count disk) (Disk.page_size disk) (Stats.disk_bytes store);
  Format.fprintf ppf "splits=%d merges=%d (since open)@,@," (Tree_store.split_count store)
    (Tree_store.merge_count store);
  Format.fprintf ppf "== documents ==@,";
  List.iter
    (fun (doc, (s : Stats.doc_stats), cluster, _) ->
      Format.fprintf ppf
        "%-20s records=%-5d nodes=%-7d proxies=%-5d depth=%-2d pages=%-4d fill=%.2f" doc
        s.Stats.records s.Stats.facade_nodes s.Stats.proxy_count s.Stats.record_tree_depth
        s.Stats.pages s.Stats.avg_fill_factor;
      (match cluster with
      | Some c ->
        Format.fprintf ppf "  clustering=%.3f (%d/%d same-page)" (Cluster.fraction c)
          c.Cluster.same_page c.Cluster.steps
      | None -> ());
      Format.fprintf ppf "@,")
    probed;
  (* Fill-factor histogram over the distinct pages holding document
     records, from the free-space inventory (charges no I/O). *)
  let all_pages =
    List.fold_left (fun acc (_, _, _, pages) -> Int_set.union acc pages) Int_set.empty probed
  in
  let counts = Array.make (Array.length fill_edges) 0 in
  Int_set.iter
    (fun page ->
      let fill = Segment.fill_factor seg page in
      let rec bucket i =
        if i >= Array.length fill_edges - 1 then i
        else if fill <= fill_edges.(i) then i
        else bucket (i + 1)
      in
      let b = bucket 0 in
      counts.(b) <- counts.(b) + 1)
    all_pages;
  Format.fprintf ppf "@,== fill factor (%d record pages) ==@," (Int_set.cardinal all_pages);
  let max_count = Array.fold_left max 1 counts in
  Array.iteri
    (fun i c ->
      Format.fprintf ppf "<=%.1f %6d |%s@," fill_edges.(i) c
        (String.make (c * 40 / max_count) '#'))
    counts;
  (* WAL write amplification: log bytes on top of the data pages
     written. *)
  (match Buffer_pool.wal pool with
  | None -> Format.fprintf ppf "@,== wal ==@,none (in-memory or WAL-less store)@,"
  | Some wal ->
    let io = Tree_store.io_stats store in
    let data_bytes = io.Io_stats.writes * Disk.page_size disk in
    let wal_bytes = Wal.bytes_logged wal in
    Format.fprintf ppf "@,== wal ==@,appends=%d bytes_logged=%d" (Wal.appends wal) wal_bytes;
    if data_bytes > 0 then
      Format.fprintf ppf " write_amplification=%.2fx"
        (float_of_int (data_bytes + wal_bytes) /. float_of_int data_bytes);
    Format.fprintf ppf "@,");
  (match obs with
  | None ->
    Format.fprintf ppf
      "@,== instrumentation ==@,store opened without an obs handle; proxy-chain and heat sections \
       unavailable@,"
  | Some o ->
    let metrics = Natix_obs.Obs.metrics o in
    Format.fprintf ppf "@,== distributions (simulated clock) ==@,";
    Format.fprintf ppf "proxy_chain_len: ";
    quantiles_line ppf metrics Natix_obs.Obs.proxy_chain_hist;
    Format.fprintf ppf "@,";
    (* Split-decision tallies from the retained trace (ring sinks); the
       counter covers splits since the handle was attached. *)
    let events = Natix_obs.Obs.events o in
    let splits = List.filter_map
        (fun (e : Natix_obs.Event.t) ->
          match e.kind with Natix_obs.Event.Split { decision; _ } -> Some decision | _ -> None)
        events
    in
    let tally d = List.length (List.filter (fun d' -> d' = d) splits) in
    Format.fprintf ppf "split decisions (traced): cluster=%d standalone=%d other=%d@,"
      (tally Natix_obs.Event.Cluster) (tally Natix_obs.Event.Standalone)
      (tally Natix_obs.Event.Other);
    Format.fprintf ppf "integrity: checksum_fail=%d read_retry=%d@,"
      (Natix_obs.Metrics.counter metrics "ev.checksum_fail")
      (Natix_obs.Metrics.counter metrics "ev.read_retry");
    let heat = Heat.of_events events in
    Format.fprintf ppf "@,== page heat (fixes by document/phase) ==@,";
    Format.fprintf ppf "%a@," (Heat.pp ~top:top_pages) heat);
  Format.fprintf ppf "@]";
  Format.pp_print_flush ppf ();
  Buffer.contents buf
