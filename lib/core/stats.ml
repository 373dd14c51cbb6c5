open Natix_store

type doc_stats = {
  records : int;
  facade_nodes : int;
  scaffold_nodes : int;
  proxy_count : int;
  record_bytes : int;
  record_tree_depth : int;
  max_record_bytes : int;
  avg_fill_factor : float;
  pages : int;
}

(* The distinct home pages of the records under [rid], each record
   visited by [f] after its home page is looked up. *)
let record_pages store rid f =
  let rm = Tree_store.record_manager store in
  let pages = Hashtbl.create 64 in
  Tree_store.iter_records store rid (fun rid root depth ->
      Hashtbl.replace pages (Record_manager.home_page rm rid) ();
      f root depth);
  pages

let document store name =
  match Tree_store.document_rid store name with
  | None -> invalid_arg (Printf.sprintf "Stats.document: no document %S" name)
  | Some rid ->
    let records = ref 0 in
    let facade = ref 0 in
    let scaffold = ref 0 in
    let proxies = ref 0 in
    let bytes = ref 0 in
    let depth = ref 0 in
    let max_bytes = ref 0 in
    let pages =
      record_pages store rid @@ fun root d ->
      incr records;
      depth := max !depth (d + 1);
      let size = Phys_node.record_size root in
      bytes := !bytes + size;
      max_bytes := max !max_bytes size;
      let rec count (n : Phys_node.t) =
        match n.Phys_node.kind with
        | Phys_node.Frag_aggregate _ ->
          (* One logical text node; its chunks are scaffolding. *)
          incr facade;
          scaffold := !scaffold + Phys_node.count n - 1
        | Phys_node.Aggregate _ | Phys_node.Literal _ ->
          if Phys_node.is_facade n then incr facade else incr scaffold;
          List.iter count (Phys_node.children n)
        | Phys_node.Proxy _ ->
          incr scaffold;
          incr proxies
      in
      count root
    in
    (* Fill averaged over the distinct pages the document's records live
       on, sampled from the free-space inventory (no I/O charged). *)
    let seg = Record_manager.segment (Tree_store.record_manager store) in
    let fill_sum = Hashtbl.fold (fun p () a -> a +. Segment.fill_factor seg p) pages 0. in
    let avg_fill_factor =
      let n = Hashtbl.length pages in
      if n = 0 then 0. else fill_sum /. float_of_int n
    in
    {
      records = !records;
      facade_nodes = !facade;
      scaffold_nodes = !scaffold;
      proxy_count = !proxies;
      record_bytes = !bytes;
      record_tree_depth = !depth;
      max_record_bytes = !max_bytes;
      avg_fill_factor;
      pages = Hashtbl.length pages;
    }

let disk_bytes store =
  Natix_store.Disk.size_bytes (Natix_store.Buffer_pool.disk (Tree_store.buffer_pool store))

(* Per-document page counts in the catalog, for the query planner: a
   skewed store (one huge plus many tiny documents) makes the store-wide
   average a wildly wrong navigation-cost estimate.  Maintained by the
   document manager at load/insert/delete time, when the document's
   records are warm in the caches anyway. *)

let pages_key doc = "stats:pages:" ^ doc

(* The same record walk and page fixes as [document], without its node
   counts and fill sampling. *)
let record_page_hint store doc =
  match Tree_store.document_rid store doc with
  | None -> ()
  | Some rid ->
    let pages = record_pages store rid (fun _ _ -> ()) in
    Tree_store.meta_put store (pages_key doc) (string_of_int (Hashtbl.length pages))

let drop_page_hint store doc = Tree_store.meta_remove store (pages_key doc)

let page_hint store doc = Option.bind (Tree_store.meta_find store (pages_key doc)) int_of_string_opt

let pp_doc ppf s =
  Format.fprintf ppf
    "records=%d facade=%d scaffold=%d (proxies=%d) bytes=%d depth=%d max_record=%d fill=%.2f \
     pages=%d"
    s.records s.facade_nodes s.scaffold_nodes s.proxy_count s.record_bytes s.record_tree_depth
    s.max_record_bytes s.avg_fill_factor s.pages
