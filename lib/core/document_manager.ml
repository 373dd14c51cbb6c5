open Natix_xml

type t = { store : Tree_store.t; index : Element_index.t option }

type index_mode = Ensure | Maintain | Fresh_only | Off

let index_name = "elements"
let dtd_key doc = "dtd:" ^ doc

let create ?(index = Ensure) store =
  let opened () = Element_index.open_index store ~name:index_name in
  (* A stale index (the store changed while no listener was attached, or
     it was just created over existing documents) silently misses nodes;
     writers repair it by rebuilding, readers must plan without it. *)
  let rebuilt idx =
    if Element_index.stale idx then Element_index.rebuild idx;
    idx
  in
  let index =
    match index with
    | Off -> None
    | Ensure ->
      Some
        (rebuilt
           (match opened () with
           | Some idx -> idx
           | None -> Element_index.create store ~name:index_name))
    | Maintain -> Option.map rebuilt (opened ())
    | Fresh_only -> (
      match opened () with
      | Some idx when not (Element_index.stale idx) -> Some idx
      | Some _ | None ->
        (* Detach the listener the failed open attached: nobody will fold
           its pending changes in. *)
        Tree_store.set_change_listener store None;
        None)
  in
  { store; index }

(* Whether an index is persisted but was skipped (or would be) because it
   is stale — the CLI uses this to explain a navigation-only plan. *)
let stale_index_skipped t =
  t.index = None && Element_index.persisted t.store ~name:index_name

let store t = t.store
let index t = t.index

(* Stamp events emitted during manager operations with (document, phase)
   so the page-heat profiler can attribute I/O; a no-op without an obs
   handle. *)
let in_context t ?doc ~phase f =
  match Tree_store.obs t.store with
  | None -> f ()
  | Some obs -> Natix_obs.Obs.with_context obs ?doc ~phase f

let checkpoint t =
  in_context t ~phase:"checkpoint" (fun () ->
      (* Flush pending index postings first so the durable state is the
         coherent pair (documents, index). *)
      Option.iter Element_index.refresh t.index;
      Tree_store.sync t.store)

(* [run] is a transaction entry point; a typed failure raised before [f]
   starts — a name that is taken or missing, a poisoned store — wrote
   nothing and comes back as [Error].  Failures from inside [f] still
   raise, as they poison the store. *)
let before_start run f =
  let started = ref false in
  match
    run (fun () ->
        started := true;
        f ())
  with
  | r -> Ok r
  | exception Error.Error e when not !started -> Error e

(* Every write runs as one transaction: its own (autocommit) unless the
   caller is already in one. *)
let write t ~doc ?expect f = before_start (Tree_store.autocommit t.store ~doc ?expect) f

(* A new document [name], grown by [grow] and registered with [dtd], as
   one write. *)
let add_document t ~name ?dtd grow =
  in_context t ~doc:name ~phase:"load" (fun () ->
      write t ~doc:name ~expect:`Absent (fun () ->
          let root = grow () in
          Option.iter
            (fun d ->
              Tree_store.meta_put t.store (dtd_key name) (Dtd.encode d);
              Tree_store.save_catalog_if_unlogged t.store)
            dtd;
          Option.iter Element_index.refresh t.index;
          Stats.record_page_hint t.store name;
          root))

let store_document t ~name ?dtd ?(infer_dtd = false) ?order xml =
  let dtd = match dtd with Some _ -> dtd | None -> if infer_dtd then Some (Dtd.infer ~name xml) else None in
  let validation = match dtd with None -> Ok () | Some d -> Dtd.validate d xml in
  match validation with
  | Error detail -> Error (Error.Validation { doc = name; detail })
  | Ok () -> add_document t ~name ?dtd (fun () -> Loader.load t.store ~name ?order xml)

let store_stream t ~name text =
  add_document t ~name (fun () -> Loader.load_stream t.store ~name text)

(* One document, one explicit transaction: the document gets a private
   allocation arena, so concurrent loaders on different documents run
   their mutation phases in parallel and batch their commit fsyncs in the
   group-commit daemon — the document latch inside [Tree_store.with_txn]
   is the only per-document serialiser. *)
let store_transactional t ~name ?dtd ?infer_dtd ?order xml =
  Result.join
    (before_start (Tree_store.with_txn t.store ~doc:name ~expect:`Absent) (fun () ->
         store_document t ~name ?dtd ?infer_dtd ?order xml))

let document_dtd t doc = Option.map Dtd.decode (Tree_store.meta_find t.store (dtd_key doc))

let validate t doc =
  match document_dtd t doc with
  | None -> Ok ()
  | Some dtd -> (
    match Exporter.document_to_xml t.store doc with
    | None -> Error (Error.Storage (Printf.sprintf "no document %S" doc))
    | Some xml -> (
      match Dtd.validate dtd xml with
      | Ok () -> Ok ()
      | Error detail -> Error (Error.Validation { doc; detail })))

(* The document a node belongs to, for fragment validation: climb to the
   root and look its record up in the catalog. *)
let doc_of_node t node =
  let rec up n = match Tree_store.logical_parent t.store n with Some p -> up p | None -> n in
  let root = up node in
  let rid = (Tree_store.box_of t.store root).Phys_node.rid in
  List.find_opt
    (fun name ->
      match Tree_store.document_rid t.store name with
      | Some r -> Natix_util.Rid.equal r rid
      | None -> false)
    (Tree_store.list_documents t.store)

let insert_fragment t ~doc point xml =
  let anchor = match point with Tree_store.First_under n -> n | Tree_store.After n -> n in
  match doc_of_node t anchor with
  | Some owner when owner <> doc ->
    Error (Error.Storage (Printf.sprintf "insertion point belongs to %S, not %S" owner doc))
  | _ -> (
    let invalid detail = Error (Error.Validation { doc; detail }) in
    let check =
      match document_dtd t doc with
      | None -> Ok ()
      | Some dtd -> (
        match Dtd.validate dtd xml with
        | Error detail -> invalid detail
        | Ok () -> (
          (* The fragment root must be allowed under the target parent. *)
          let parent =
            match point with
            | Tree_store.First_under n -> Some n
            | Tree_store.After n -> Tree_store.logical_parent t.store n
          in
          match (parent, xml) with
          | Some p, Xml_tree.Element e -> (
            let pname = Tree_store.label_name t.store p.Phys_node.label in
            match Dtd.spec_of dtd pname with
            | Some (Dtd.Children_of names) | Some (Dtd.Mixed names) ->
              if List.mem e.name names then Ok ()
              else invalid (Printf.sprintf "<%s> does not allow child <%s>" pname e.name)
            | Some Dtd.Any -> Ok ()
            | Some Dtd.Empty -> invalid (Printf.sprintf "<%s> must stay empty" pname)
            | Some Dtd.Pcdata_only -> invalid (Printf.sprintf "<%s> allows only text" pname)
            | None ->
              Error (Error.Dtd { doc; detail = Printf.sprintf "undeclared parent <%s>" pname }))
          | _ -> Ok ()))
    in
    match check with
    | Error _ as e -> e
    | Ok () ->
      in_context t ~doc ~phase:"update" (fun () ->
          write t ~doc (fun () ->
              let node = Loader.insert_fragment t.store point xml in
              Option.iter Element_index.refresh t.index;
              Stats.record_page_hint t.store doc;
              node)))

let delete_document t doc =
  in_context t ~doc ~phase:"delete" (fun () ->
      Tree_store.autocommit t.store ~doc ~expect:`Present (fun () ->
          Tree_store.delete_document t.store doc;
          Tree_store.meta_remove t.store (dtd_key doc);
          Stats.drop_page_hint t.store doc;
          Tree_store.save_catalog_if_unlogged t.store;
          Option.iter Element_index.refresh t.index))

let elements_named t name =
  match (t.index, Natix_util.Name_pool.find (Tree_store.names t.store) name) with
  | _, None -> []
  | Some idx, Some label -> Element_index.scan idx label
  | None, Some label ->
    List.concat_map
      (fun doc ->
        match Tree_store.open_document t.store doc with
        | None -> []
        | Some root ->
          (* The nodes the index keeps: elements, and attributes for an
             [@name]; never text. *)
          let keep (n : Phys_node.t) =
            Natix_util.Label.equal n.label label
            && not (Natix_util.Label.equal label Natix_util.Label.pcdata)
          in
          let acc = ref [] in
          let rec go n =
            if keep n then acc := n :: !acc;
            Tree_store.iter_logical_children t.store n go
          in
          go root;
          List.rev !acc)
      (Tree_store.list_documents t.store)

let count_elements t name =
  match (t.index, Natix_util.Name_pool.find (Tree_store.names t.store) name) with
  | _, None -> 0
  | Some idx, Some label -> Element_index.count idx label
  | None, Some _ -> List.length (elements_named t name)
