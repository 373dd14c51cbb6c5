open Natix_store

type issue = { where : string; what : string }

type index = No_index | Fresh_index | Stale_index

type report = {
  pages : int;
  documents : int;
  index : index;
  issues : issue list;
}

let ok r = r.issues = []

let describe = function
  | Failure m -> m
  | Btree.Corrupt m -> Printf.sprintf "btree corrupt: %s" m
  | Disk.Bad_page { page; reason } -> Printf.sprintf "bad page %d: %s" page reason
  | e -> Printexc.to_string e

(* Layer 1: every page trailer (checksum, page-id stamp). *)
let sweep_trailers disk add =
  for page = 0 to Disk.page_count disk - 1 do
    match Disk.verify disk page with
    | Ok () -> ()
    | Error reason -> add (Printf.sprintf "page %d" page) reason
  done

let run_disk disk =
  let issues = ref [] in
  let add where what = issues := { where; what } :: !issues in
  sweep_trailers disk add;
  { pages = Disk.page_count disk; documents = 0; index = No_index; issues = List.rev !issues }

let run store =
  let pool = Tree_store.buffer_pool store in
  let disk = Buffer_pool.disk pool in
  let seg = Record_manager.segment (Tree_store.record_manager store) in
  let issues = ref [] in
  let add where what = issues := { where; what } :: !issues in
  let guard where f = try f () with e -> add where (describe e) in
  let pages = Disk.page_count disk in
  sweep_trailers disk add;
  (* Layer 2: the slotted layout of every page.  An all-zero payload is a
     quiesced allocation — a crashed transaction's arena refill wiped back
     by recovery's undo — not a layout: it carries no records, the
     allocator never selects it, and reformatting reclaims it.  Skip it
     rather than flag a missing slotted header. *)
  let all_zero data =
    let n = Bytes.length data in
    let rec go i = i >= n || (Bytes.get data i = '\000' && go (i + 1)) in
    go 0
  in
  for page = 0 to pages - 1 do
    guard
      (Printf.sprintf "page %d" page)
      (fun () ->
        Segment.with_page seg page (fun data -> if not (all_zero data) then Slotted_page.check data))
  done;
  (* Layer 3: every document's physical tree (sizes, parent RIDs, proxy
     chains, scaffolding invariants). *)
  let documents = Tree_store.list_documents store in
  List.iter (fun doc -> guard ("document " ^ doc) (fun () -> Tree_store.check_document store doc)) documents;
  (* Layer 4: the element index's B-tree invariants and its agreement with
     the documents.  A stale index (the store changed while it was not
     listening) is not corruption — the next writable open rebuilds it —
     so its postings are not held to the documents. *)
  let index =
    match (try Element_index.open_index store ~name:"elements" with e -> add "index" (describe e); None) with
    | None -> No_index
    | Some idx ->
      guard "index" (fun () -> Element_index.check_tree idx);
      if Element_index.stale idx then Stale_index
      else begin
        guard "index" (fun () -> Element_index.check idx);
        Fresh_index
      end
  in
  (* Layer 5: page ownership tags against the catalog's arena registry.
     Every private arena must be claimed by exactly one catalogued
     document, and every record of a document must live on a page tagged
     with that document's arena (the shared arena 0 when it has none).
     An unclaimed tag means a crashed writer's pages survived recovery
     without an owning document — orphaned storage. *)
  let claims = Hashtbl.create 8 in
  List.iter
    (fun doc ->
      match Tree_store.document_arena store doc with
      | None -> ()
      | Some a -> (
        (match Hashtbl.find_opt claims a with
        | Some other ->
          add (Printf.sprintf "arena %d" a) (Printf.sprintf "claimed by both %S and %S" other doc)
        | None -> Hashtbl.replace claims a doc);
        if not (List.mem a (Segment.arena_ids seg)) then
          add ("document " ^ doc) (Printf.sprintf "claims arena %d, which owns no pages" a)))
    documents;
  List.iter
    (fun a ->
      if a <> 0 && not (Hashtbl.mem claims a) then
        add
          (Printf.sprintf "arena %d" a)
          (Printf.sprintf "%d orphaned page(s) tagged with an arena no document claims"
             (List.length (Segment.arena_pages seg a))))
    (Segment.arena_ids seg);
  List.iter
    (fun doc ->
      let want = match Tree_store.document_arena store doc with Some a -> a | None -> 0 in
      match Tree_store.document_rid store doc with
      | None -> ()
      | Some root ->
        guard ("document " ^ doc) (fun () ->
            let rm = Tree_store.record_manager store in
            Tree_store.iter_records store root (fun rid _ _ ->
                let page = Record_manager.home_page rm rid in
                let got = Segment.owner_of seg page in
                if got <> want then
                  add
                    (Printf.sprintf "document %s record %s" doc (Natix_util.Rid.to_string rid))
                    (Printf.sprintf "lives on page %d tagged arena %d, expected arena %d" page got
                       want))))
    documents;
  { pages; documents = List.length documents; index; issues = List.rev !issues }

let pp ppf r =
  Format.fprintf ppf "@[<v>checked %d pages, %d document(s)%s@," r.pages r.documents
    (match r.index with
    | No_index -> ""
    | Fresh_index -> ", element index"
    | Stale_index -> ", element index (stale: structure checked, rebuilt on the next writable open)");
  (match r.issues with
  | [] -> Format.fprintf ppf "no errors"
  | issues ->
    Format.fprintf ppf "%d error(s):" (List.length issues);
    List.iter (fun i -> Format.fprintf ppf "@,  %s: %s" i.where i.what) issues);
  Format.fprintf ppf "@]"
