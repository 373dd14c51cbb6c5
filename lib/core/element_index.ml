open Natix_util
module Rm = Natix_store.Record_manager
module Btree = Natix_store.Btree

(* One B+-tree holds both directions:
     'F' ^ be32(label) ^ rid8  ->  node count (forward postings)
     'R' ^ rid8 ^ be32(label)  ->  node count (per-record label sets)
   The per-record entries let [refresh] diff a record's new label counts
   against what the index believes without any auxiliary state. *)

type t = {
  store : Tree_store.t;
  tree : Btree.t;
  name : string;
  pending_changes : Tree_store.record_event Rid.Tbl.t;
  pending_lock : Mutex.t;
      (* The change listener fires from every mutating domain — under
         concurrent transactional writers that is several at once — so
         the pending table needs a lock.  Leaf: held only for table
         operations. *)
  mutable in_sync : bool;
      (* Whether the index reflects every store change up to the epoch it
         last stamped (modulo [pending_changes], which the listener keeps
         complete while this handle is attached).  False when the stamped
         epoch at open time is behind the store — changes happened while
         no listener was attached — until [rebuild] repairs it. *)
}

let with_pending t f =
  Mutex.lock t.pending_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.pending_lock) f

let be32 v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (v land 0xff));
  Bytes.unsafe_to_string b

let of_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let rid8 rid =
  let b = Bytes.create Rid.encoded_size in
  Rid.write b 0 rid;
  Bytes.unsafe_to_string b

let count8 v =
  let b = Bytes.create 8 in
  Bytes_util.set_i64 b 0 (Int64.of_int v);
  Bytes.unsafe_to_string b

let of_count8 s = Int64.to_int (Bytes_util.get_i64 (Bytes.unsafe_of_string s) 0)
let fwd_key label rid = "F" ^ be32 label ^ rid8 rid
let rev_key rid label = "R" ^ rid8 rid ^ be32 label
let meta_key name = "index:" ^ name
let epoch_key name = "index:" ^ name ^ ":epoch"

let persisted store ~name = Tree_store.meta_find store (meta_key name) <> None

(* Stamp the store epoch the index is now consistent with.  In-memory
   only; it becomes durable with the next catalog save, i.e. together
   with the index pages themselves at checkpoint. *)
let stamp_epoch t =
  Tree_store.meta_put t.store (epoch_key t.name)
    (string_of_int (Tree_store.change_epoch t.store))

let stamped_epoch store ~name =
  Option.bind (Tree_store.meta_find store (epoch_key name)) int_of_string_opt

let stale t = not t.in_sync

(* Keep the *last* event per rid: a trailing [Dropped] means the tree
   store gave the rid up, and whatever occupies it at refresh time (the
   record manager may have handed it to this index's own B+-tree pages)
   is not a tree record and must not be fetched, let alone indexed. *)
let attach t =
  Tree_store.set_change_listener t.store
    (Some (fun rid event -> with_pending t (fun () -> Rid.Tbl.replace t.pending_changes rid event)))

let create store ~name =
  if persisted store ~name then
    invalid_arg (Printf.sprintf "Element_index.create: index %S exists" name);
  let t =
    Tree_store.autocommit store (fun () ->
        let tree = Btree.create (Tree_store.record_manager store) in
        Tree_store.meta_put store (meta_key name) (rid8 (Btree.root tree));
        (* An empty index is consistent with an empty store; on a store
           that already holds documents it is stale until the caller
           rebuilds. *)
        let in_sync = Tree_store.list_documents store = [] in
        let t =
          { store; tree; name; pending_changes = Rid.Tbl.create 64; pending_lock = Mutex.create (); in_sync }
        in
        if in_sync then stamp_epoch t;
        Tree_store.save_catalog_if_unlogged store;
        t)
  in
  attach t;
  t

let open_index store ~name =
  match Tree_store.meta_find store (meta_key name) with
  | None -> None
  | Some root ->
    let tree =
      Btree.open_tree (Tree_store.record_manager store)
        (Rid.read (Bytes.unsafe_of_string root) 0)
    in
    (* The index is current only if it stamped the epoch the store is at
       now: a lower (or missing) stamp means documents changed while no
       listener was attached, and the postings silently miss them. *)
    let in_sync =
      match stamped_epoch store ~name with
      | Some e -> e >= Tree_store.change_epoch store
      | None -> false
    in
    let t =
      { store; tree; name; pending_changes = Rid.Tbl.create 64; pending_lock = Mutex.create (); in_sync }
    in
    attach t;
    Some t

(* Facade labels of one record's subtree (pcdata text excluded). *)
let label_counts (root : Phys_node.t) =
  let counts = Hashtbl.create 16 in
  let bump label = Hashtbl.replace counts label (1 + Option.value ~default:0 (Hashtbl.find_opt counts label)) in
  let rec go (n : Phys_node.t) =
    (match n.Phys_node.kind with
    | Phys_node.Aggregate _ when Phys_node.is_facade n -> bump n.Phys_node.label
    | Phys_node.Literal _ | Phys_node.Frag_aggregate _ ->
      if Phys_node.is_facade n && not (Label.equal n.Phys_node.label Label.pcdata) then
        bump n.Phys_node.label
    | Phys_node.Aggregate _ | Phys_node.Proxy _ -> ());
    match n.Phys_node.kind with
    | Phys_node.Frag_aggregate _ ->
      (* One logical node; its chunks are not indexed. *)
      ()
    | Phys_node.Aggregate _ | Phys_node.Literal _ | Phys_node.Proxy _ ->
      List.iter go (Phys_node.children n)
  in
  go root;
  counts

(* Stored label counts of a record, from the reverse entries. *)
let stored_counts t rid =
  let lo = "R" ^ rid8 rid in
  let hi = lo ^ "\xff\xff\xff\xff\xff" in
  let acc = ref [] in
  Btree.iter_range t.tree ~lo:(Some lo) ~hi:(Some hi) (fun k v ->
      acc := (of_be32 k (1 + Rid.encoded_size), of_count8 v) :: !acc);
  !acc

(* A record's label counts as the index should hold them.  [live]
   distinguishes a tree record from a reused rid: a freed rid can be
   re-allocated to a foreign record (including this index's own B+-tree
   pages), which may well decode — fetching it would index garbage.  The
   decode guard below is only a backstop for torn reads. *)
let current_counts ~live t rid =
  if live && Rm.exists (Tree_store.record_manager t.store) rid then begin
    match Tree_store.fetch t.store rid with
    | box -> label_counts box.Phys_node.root
    | exception _ -> Hashtbl.create 1
  end
  else Hashtbl.create 1

let apply_record ?(live = true) t rid =
  let current = current_counts ~live t rid in
  let old = stored_counts t rid in
  (* Remove or adjust stale entries. *)
  List.iter
    (fun (label, old_count) ->
      match Hashtbl.find_opt current label with
      | Some c when c = old_count -> Hashtbl.remove current label
      | Some c ->
        Btree.insert t.tree ~key:(fwd_key label rid) ~value:(count8 c);
        Btree.insert t.tree ~key:(rev_key rid label) ~value:(count8 c);
        Hashtbl.remove current label
      | None ->
        Btree.remove t.tree ~key:(fwd_key label rid);
        Btree.remove t.tree ~key:(rev_key rid label))
    old;
  (* Whatever is left is new. *)
  Hashtbl.iter
    (fun label c ->
      Btree.insert t.tree ~key:(fwd_key label rid) ~value:(count8 c);
      Btree.insert t.tree ~key:(rev_key rid label) ~value:(count8 c))
    current

let pending t = with_pending t (fun () -> Rid.Tbl.length t.pending_changes)

(* The pending changes, [take]n out of the table by a fold. *)
let pending_events ?(take = false) t =
  with_pending t (fun () ->
      let events = Rid.Tbl.fold (fun rid ev acc -> (rid, ev) :: acc) t.pending_changes [] in
      if take then Rid.Tbl.reset t.pending_changes;
      events)

let refresh t =
  (* Folding postings writes the B+-tree's shared-arena pages — and
     pending entries can describe records another in-flight transaction
     is still rewriting.  So the fold runs only while no other writer is
     in flight; otherwise it is deferred (the pending table keeps
     accumulating) to the next write on a quiet store — at the latest,
     the checkpoint.  Nothing pending, nothing written.  Only write paths
     fold: reads merge the pending changes instead ({!postings}). *)
  if pending t > 0 then
    Tree_store.when_exclusive t.store (fun () ->
        List.iter
          (fun (rid, ev) -> apply_record ~live:(ev = Tree_store.Changed) t rid)
          (pending_events ~take:true t);
        (* Only a synced index may advance its stamp: pending changes
           cover everything since the last stamp, but not changes from
           before this handle was attached. *)
        if t.in_sync then stamp_epoch t)

let rebuild t =
  Tree_store.autocommit t.store (fun () ->
      with_pending t (fun () -> Rid.Tbl.reset t.pending_changes);
      Btree.clear t.tree;
      List.iter
        (fun doc ->
          match Tree_store.document_rid t.store doc with
          | None -> ()
          | Some rid -> Tree_store.iter_records t.store rid (fun rid _root _ -> apply_record t rid))
        (Tree_store.list_documents t.store);
      t.in_sync <- true;
      stamp_epoch t)

(* The forward postings [(label, rid, count)] of [label] (of every label
   when [None]) as a fold would leave them, without folding: a read must
   not write index pages, which on a logged store takes a transaction.
   A pending record's stored entries give way to its current label
   counts.  In key (label, record) order. *)
let postings ?label t =
  let lo = "F" ^ Option.fold ~none:"" ~some:be32 label in
  let hi = if label = None then "G" else lo ^ String.make 9 '\xff' in
  let acc = ref [] in
  let stored keep =
    Btree.iter_range t.tree ~lo:(Some lo) ~hi:(Some hi) (fun k v ->
        let rid = Rid.read (Bytes.unsafe_of_string k) 5 in
        if keep rid then acc := (of_be32 k 1, rid, of_count8 v) :: !acc)
  in
  match pending_events t with
  | [] ->
    stored (fun _ -> true);
    List.rev !acc
  | events ->
    let overlay = Rid.Tbl.create 16 in
    List.iter
      (fun (rid, ev) ->
        Rid.Tbl.replace overlay rid (current_counts ~live:(ev = Tree_store.Changed) t rid))
      events;
    stored (fun rid -> not (Rid.Tbl.mem overlay rid));
    let wanted l = Option.fold ~none:true ~some:(Label.equal l) label in
    Rid.Tbl.iter
      (fun rid counts ->
        Hashtbl.iter (fun l c -> if wanted l then acc := (l, rid, c) :: !acc) counts)
      overlay;
    List.sort (fun (la, ra, _) (lb, rb, _) -> String.compare (fwd_key la ra) (fwd_key lb rb)) !acc

let records_of = List.map (fun (_, rid, _) -> rid)
let count_of = List.fold_left (fun n (_, _, c) -> n + c) 0
let records_with t label = records_of (postings ~label t)
let count t label = count_of (postings ~label t)

let lookup t label =
  let ps = postings ~label t in
  (count_of ps, records_of ps)

let scan_records t label rids =
  List.concat_map
    (fun rid ->
      let box = Tree_store.fetch t.store rid in
      let acc = ref [] in
      let rec go (n : Phys_node.t) =
        if Label.equal n.Phys_node.label label && Phys_node.is_facade n then acc := n :: !acc;
        match n.Phys_node.kind with
        | Phys_node.Frag_aggregate _ -> ()
        | Phys_node.Aggregate _ | Phys_node.Literal _ | Phys_node.Proxy _ ->
          List.iter go (Phys_node.children n)
      in
      go box.Phys_node.root;
      List.rev !acc)
    rids

let scan t label = scan_records t label (records_with t label)

let labels t =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (label, _, c) ->
      Hashtbl.replace acc label (c + Option.value ~default:0 (Hashtbl.find_opt acc label)))
    (postings t);
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) acc []
  |> List.sort (fun (a, _) (b, _) -> Label.compare a b)

let check_tree t = Btree.check t.tree

let check t =
  refresh t;
  let fail fmt = Printf.ksprintf failwith fmt in
  (* Ground truth from a full walk. *)
  let truth : (Label.t * Rid.t, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun doc ->
      match Tree_store.document_rid t.store doc with
      | None -> ()
      | Some root_rid ->
        Tree_store.iter_records t.store root_rid (fun rid root _ ->
            Hashtbl.iter
              (fun label c -> Hashtbl.replace truth (label, rid) c)
              (label_counts root)))
    (Tree_store.list_documents t.store);
  let postings = postings t in
  List.iter
    (fun (label, rid, v) ->
      let rid_s = Rid.to_string rid in
      match Hashtbl.find_opt truth (label, rid) with
      | Some c when c = v -> ()
      | Some c -> fail "index %s: label %d rid %s count %d <> %d" t.name label rid_s v c
      | None -> fail "index %s: stale posting for label %d rid %s" t.name label rid_s)
    postings;
  let seen = List.length postings in
  if seen <> Hashtbl.length truth then
    fail "index %s: %d postings but %d expected" t.name seen (Hashtbl.length truth)
