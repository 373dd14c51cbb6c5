open Natix_util
open Natix_store

exception Unsplittable of string

type record_event = Changed | Dropped

(* One in-flight transaction's catalog footprint.  [journal] records the
   {e previous} binding of every catalog entry the transaction replaced
   or removed (newest first), so a concurrent committer can persist a
   catalog image with this transaction's in-flight changes reverted: a
   commit must never make a possible loser's documents durable.  The
   per-document latch keeps journals disjoint — a catalog key (a
   document binding, its DTD, its arena id, its stats hint) is only ever
   touched by the one transaction holding that document's latch. *)
type journal_op =
  | Doc_put of string * Rid.t option  (* name, previous binding *)
  | Meta_put of string * string option  (* key, previous binding *)

(* One in-flight transaction.  [serial]: it holds the structure lock
   across its whole mutation phase, so it may write shared-arena pages.
   [private_arenas]: documents it creates get their own allocation arena
   (explicit {!with_txn}); an autocommit transaction leaves them in the
   shared arena. *)
type mutation_ctx = { serial : bool; private_arenas : bool; mutable journal : journal_op list }

(* Transaction machinery, shared by value across {!reader} copies (the
   field holds the same object).  Every write to a file-backed store is a
   transaction; the lock scope follows arena ownership.  Transactions on
   documents with private allocation arenas run their mutation phases
   {e concurrently}: their page sets are disjoint by construction (each
   allocates only from its own arena), which is what keeps page-level
   redo/undo sound with several uncommitted writers in the log.  For
   them [struct_lock] shrinks to the shared-state sections — the begin
   step (Begin record) and the commit step (catalog save on shared pages,
   update/commit records).  Transactions that write the shared arena —
   autocommit writes, and explicit ones on shared-arena documents — hold
   it across their whole mutation phase, since their pages are not
   disjoint from anyone's.  Per-document latches (held across the whole
   transaction, commit wait included) serialise writers on the same
   document. *)
type txn_state = {
  struct_lock : Mutex.t;  (* rank {!Lock_rank.structure} *)
  latches_lock : Mutex.t;  (* guards [doc_latches]; taken holding nothing *)
  doc_latches : (string, Mutex.t) Hashtbl.t;  (* rank {!Lock_rank.doc} *)
  counter : int Atomic.t;  (* next transaction id *)
  active : int Atomic.t;  (* transactions between begin and commit ack *)
  poisoned : string option Atomic.t;
  mutators_lock : Mutex.t;  (* guards [mutators]; leaf *)
  mutators : (int, mutation_ctx) Hashtbl.t;  (* domain id -> its transaction *)
}

type t = {
  rm : Record_manager.t;
  pool : Buffer_pool.t;
  config : Config.t;
  gc : Group_commit.t option;
  txns : txn_state;
  catalog : Catalog.t;
  catalog_lock : Mutex.t;
      (* Guards the catalog's [docs]/[meta] hashtables (concurrent
         transactions update disjoint keys, but OCaml hashtables need
         external synchronisation even then).  Leaf: held only for table
         operations and journal pushes, never while taking another
         lock. *)
  cache : Phys_node.box Rid.Tbl.t;
  cache_lock : Mutex.t;  (* guards [cache] table operations; leaf *)
  splits : int Atomic.t;
  merges : int Atomic.t;
  mutable listener : (Rid.t -> record_event -> unit) option;
  change_epoch : int Atomic.t;
      (* Count of record-level changes over the store's lifetime, persisted
         in the catalog at [sync].  Secondary structures stamp the epoch
         they are consistent with, so staleness (changes made while their
         listener was not attached) is detectable on reopen. *)
  obs : Natix_obs.Obs.t option;
  mutable last_decision : Split_matrix.behaviour;
      (* Matrix decision of the insertion that is currently running; a
         record split triggered by that insertion reports it.  Plain
         mutable on purpose: concurrent writers race on it, but it only
         flavours the decision label of split events, and each domain
         reads back a value some insertion just wrote. *)
}

type payload =
  | Elem of Label.t
  | Text of string
  | Lit of Label.t * Phys_node.literal

type insert_point =
  | First_under of Phys_node.t
  | After of Phys_node.t

let config t = t.config
let names t = t.catalog.Catalog.names
let record_manager t = t.rm
let buffer_pool t = t.pool
let io_stats t = Disk.stats (Buffer_pool.disk t.pool)
let max_record_size t = Config.max_record_size t.config
let split_count t = Atomic.get t.splits
let merge_count t = Atomic.get t.merges
let obs t = t.obs

let event_decision : Split_matrix.behaviour -> Natix_obs.Event.decision = function
  | Split_matrix.Cluster -> Natix_obs.Event.Cluster
  | Split_matrix.Standalone -> Natix_obs.Event.Standalone
  | Split_matrix.Other -> Natix_obs.Event.Other
let label t name = Name_pool.intern t.catalog.Catalog.names name
let set_change_listener t listener = t.listener <- listener

let change_epoch t = Atomic.get t.change_epoch
let epoch_meta_key = "store:epoch"

(* Leaf locks: held only around a table operation, never while acquiring
   anything else, so they stay outside the rank order. *)
let lock_leaf m =
  Lock_rank.acquire Lock_rank.unordered;
  Mutex.lock m

let unlock_leaf m =
  Mutex.unlock m;
  Lock_rank.release Lock_rank.unordered

let with_leaf_lock m f =
  lock_leaf m;
  match f () with
  | v ->
    unlock_leaf m;
    v
  | exception e ->
    unlock_leaf m;
    raise e

let with_cache t f = with_leaf_lock t.cache_lock f
let with_catalog_lock t f = with_leaf_lock t.catalog_lock f
let with_mutators t f = with_leaf_lock t.txns.mutators_lock f
let self_id () = (Domain.self () :> int)

let current_mutator t = with_mutators t (fun () -> Hashtbl.find_opt t.txns.mutators (self_id ()))
let in_transaction t = current_mutator t <> None

(* Journal-aware catalog access.  Inside a transaction the previous
   binding is pushed onto the calling transaction's journal before the
   table changes; outside (a store without a log), the tables are
   updated directly. *)
let journal t op =
  with_mutators t (fun () ->
      match Hashtbl.find_opt t.txns.mutators (self_id ()) with
      | Some m -> m.journal <- op :: m.journal
      | None -> ())

let meta_find t key = with_catalog_lock t (fun () -> Hashtbl.find_opt t.catalog.Catalog.meta key)

let meta_put t key value =
  with_catalog_lock t (fun () ->
      journal t (Meta_put (key, Hashtbl.find_opt t.catalog.Catalog.meta key));
      Hashtbl.replace t.catalog.Catalog.meta key value)

let meta_remove t key =
  with_catalog_lock t (fun () ->
      match Hashtbl.find_opt t.catalog.Catalog.meta key with
      | None -> ()
      | Some _ as prev ->
        journal t (Meta_put (key, prev));
        Hashtbl.remove t.catalog.Catalog.meta key)

let doc_put t name rid =
  with_catalog_lock t (fun () ->
      journal t (Doc_put (name, Hashtbl.find_opt t.catalog.Catalog.docs name));
      Hashtbl.replace t.catalog.Catalog.docs name rid)

let doc_remove t name =
  with_catalog_lock t (fun () ->
      journal t (Doc_put (name, Hashtbl.find_opt t.catalog.Catalog.docs name));
      Hashtbl.remove t.catalog.Catalog.docs name)

let arena_meta_key doc = "arena:" ^ doc
let document_arena t doc = Option.bind (meta_find t (arena_meta_key doc)) int_of_string_opt

let notify t rid event =
  Atomic.incr t.change_epoch;
  match t.listener with
  | Some f -> f rid event
  | None -> ()
let label_name t l = Name_pool.name t.catalog.Catalog.names l

let open_store ?(config = Config.default ()) disk =
  Config.validate config;
  if Disk.page_size disk <> config.page_size then
    invalid_arg "Tree_store.open_store: disk page size differs from the configuration";
  (* Bind the observability handle to the disk before any layer above
     caches it; the disk also drives the handle's simulated clock. *)
  (match Disk.obs disk, config.obs with
  | None, (Some _ as o) -> Disk.set_obs disk o
  | (Some _ | None), _ -> ());
  (* Crash recovery must run before the segment's reopen scan below reads
     any page: a torn page would fail its checksum there. *)
  let recovery =
    match Disk.path disk with
    | Some _ -> Recovery.run ?obs:(Disk.obs disk) disk
    | None -> Recovery.no_op disk
  in
  let wal =
    Option.map
      (fun p ->
        Wal.create ?obs:(Disk.obs disk) ?faults:(Disk.faults disk)
          ~first_lsn:recovery.Recovery.next_lsn ~page_size:(Disk.page_size disk)
          (Recovery.wal_path p))
      (Disk.path disk)
  in
  let gc =
    Option.map
      (fun w ->
        Group_commit.create ~commit_delay:config.commit_delay
          ~charge:(fun ms -> Disk.charge_sync_ms disk ms)
          w)
      wal
  in
  let pool =
    Buffer_pool.create ~disk ~bytes:config.buffer_bytes ?wal ~read_ahead:config.read_ahead
      ~scan_resistant:config.scan_resistant ()
  in
  (* A fresh file's bootstrap page is written like every other page: by
     a transaction (id 1), so the log covers it.  Its Begin is forced
     before page 0 is allocated: until the commit is durable, recovery
     rolls the file back to that Begin's base of 0 pages, so the next
     open bootstraps again instead of finding an unformatted page 0. *)
  let bootstrap = wal <> None && Disk.page_count disk = 0 in
  if bootstrap then begin
    Buffer_pool.txn_begin pool ~txn:1;
    Option.iter Wal.fsync wal
  end;
  let seg = Segment.create ~batch:config.arena_batch pool in
  if bootstrap then ignore (Buffer_pool.txn_commit_prep pool);
  let rm = Record_manager.create seg in
  let catalog = Catalog.load rm in
  let change_epoch =
    match Hashtbl.find_opt catalog.Catalog.meta epoch_meta_key with
    | Some s -> ( match int_of_string_opt s with Some e -> e | None -> 0)
    | None -> 0
  in
  {
    rm;
    pool;
    config;
    gc;
    txns =
      {
        struct_lock = Mutex.create ();
        latches_lock = Mutex.create ();
        doc_latches = Hashtbl.create 16;
        counter = Atomic.make 2;
        active = Atomic.make 0;
        poisoned = Atomic.make None;
        mutators_lock = Mutex.create ();
        mutators = Hashtbl.create 8;
      };
    catalog;
    catalog_lock = Mutex.create ();
    cache = Rid.Tbl.create 1024;
    cache_lock = Mutex.create ();
    splits = Atomic.make 0;
    merges = Atomic.make 0;
    listener = None;
    change_epoch = Atomic.make change_epoch;
    obs = Disk.obs disk;
    last_decision = Split_matrix.Other;
  }

let in_memory ?(config = Config.default ()) ?model () =
  open_store ~config (Disk.in_memory ?model ~page_size:config.page_size ())

(* A reader view shares the physical layers (record manager, buffer pool,
   catalog, name pool) but owns a fresh decoded-record cache: the cache is
   the store's main piece of shared mutable state ([fetch] installs boxes
   and rewires [root.box] back-pointers), so worker domains each get their
   own.  Stats are unaffected — [fetch] charges the page access even on a
   decoded-cache hit.  The view carries no observability handle, so it
   emits no proxy-hop events; [proxy_hops] still counts its
   dereferences. *)
let reader t =
  {
    t with
    cache = Rid.Tbl.create 1024;
    cache_lock = Mutex.create ();
    listener = None;
    obs = None;
    splits = Atomic.make 0;
    merges = Atomic.make 0;
    last_decision = Split_matrix.Other;
  }

(* Counter resets racing with active worker accumulators would make the
   merged totals unreconcilable; surface that as a typed storage error
   (the CLI maps it to an exit code like any other). *)
let reset_io_stats t =
  let disk = Buffer_pool.disk t.pool in
  if Disk.in_parallel_region disk then
    raise (Error.Error (Error.Storage "io-stats reset rejected: parallel region active"));
  Io_stats.reset (Disk.stats disk);
  Buffer_pool.reset_stats t.pool

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let storage_error fmt = Printf.ksprintf (fun m -> raise (Error.Error (Error.Storage m))) fmt

let poisoned t = Atomic.get t.txns.poisoned
let active_txns t = Atomic.get t.txns.active
let group_commit t = t.gc
let poison t msg = Atomic.compare_and_set t.txns.poisoned None (Some msg) |> ignore

let check_usable t =
  match Atomic.get t.txns.poisoned with
  | Some msg -> storage_error "store poisoned by a failed transaction (%s); reopen to recover" msg
  | None -> ()

let with_struct_lock t f =
  Lock_rank.acquire Lock_rank.structure;
  Mutex.lock t.txns.struct_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.txns.struct_lock;
      Lock_rank.release Lock_rank.structure)
    f

let doc_latch t doc =
  Lock_rank.acquire Lock_rank.unordered;
  Mutex.lock t.txns.latches_lock;
  let m =
    match Hashtbl.find_opt t.txns.doc_latches doc with
    | Some m -> m
    | None ->
      let m = Mutex.create () in
      Hashtbl.replace t.txns.doc_latches doc m;
      m
  in
  Mutex.unlock t.txns.latches_lock;
  Lock_rank.release Lock_rank.unordered;
  m

(* Persist the catalog as the committing transaction sees it: a snapshot
   of the live tables with every {e other} in-flight transaction's
   changes reverted.  Each journal records previous bindings newest
   first, so replaying it front to back lands on the binding from before
   that transaction started; journals of different transactions touch
   disjoint keys (the document latch guarantees it), so the replay order
   across transactions is immaterial.  The name pool and type table are
   shared and append-only: entries interned by in-flight transactions
   may over-persist, which is harmless — nothing dangles, and the
   interning is idempotent.  Runs under the structure lock (catalog
   chain pages are shared). *)
let save_catalog_filtered t =
  let self = self_id () in
  let image =
    with_catalog_lock t (fun () ->
        let docs = Hashtbl.copy t.catalog.Catalog.docs in
        let meta = Hashtbl.copy t.catalog.Catalog.meta in
        Hashtbl.replace meta epoch_meta_key (string_of_int (Atomic.get t.change_epoch));
        with_mutators t (fun () ->
            Hashtbl.iter
              (fun dom (m : mutation_ctx) ->
                if dom <> self then
                  List.iter
                    (function
                      | Doc_put (name, None) -> Hashtbl.remove docs name
                      | Doc_put (name, Some rid) -> Hashtbl.replace docs name rid
                      | Meta_put (key, None) -> Hashtbl.remove meta key
                      | Meta_put (key, Some v) -> Hashtbl.replace meta key v)
                    m.journal)
              t.txns.mutators);
        { t.catalog with Catalog.docs; meta })
  in
  Catalog.save t.rm image

let document_present t name =
  with_catalog_lock t (fun () -> Hashtbl.mem t.catalog.Catalog.docs name)

let check_expect t ~doc = function
  | None -> ()
  | Some `Absent -> if document_present t doc then storage_error "document %S exists" doc
  | Some `Present -> if not (document_present t doc) then storage_error "no document %S" doc

(* The two steps every transaction runs under the structure lock.  The
   catalog (documents, name pool, meta) commits with the transaction that
   grew it: labels interned during the mutation phase live only in memory
   until saved, and recovery redoes data pages against whatever catalog
   image the log carries. *)
let begin_locked t =
  check_usable t;
  Buffer_pool.txn_begin t.pool ~txn:(Atomic.fetch_and_add t.txns.counter 1)

let commit_locked t =
  check_usable t;
  save_catalog_filtered t;
  let lsn = Buffer_pool.txn_commit_prep t.pool in
  (* The commit record is logged: this transaction's catalog changes are
     now on the winning side of recovery.  Clear the journal while still
     inside the structure lock — the mutator stays registered until the
     group-commit fsync acknowledges, and a concurrent committer's
     filtered save in that window must include (not revert) what is
     already committed, or its higher-LSN catalog image would erase this
     document from the replayed store. *)
  with_mutators t (fun () ->
      match Hashtbl.find_opt t.txns.mutators (self_id ()) with
      | Some m -> m.journal <- []
      | None -> ());
  lsn

(* Wait until the group-commit daemon has made the commit record at [lsn]
   durable. *)
let await_durable t gc lsn =
  match Group_commit.commit gc ~lsn with
  | Ok () -> ()
  | Error msg ->
    poison t msg;
    storage_error "commit failed: %s" msg
  | exception e ->
    poison t (Printexc.to_string e);
    raise e

(* Run [f] as a transaction.  The document latch (when there is a
   document) spans the whole call, so two transactions on one document
   serialise entirely; [expect] is checked under it, before anything is
   logged, so a wrong name costs a typed error and nothing else.  A
   serial transaction holds the structure lock across its whole mutation
   phase.  Any other holds it only around the begin step and the commit
   step: its mutation phase runs under nothing but the document latch,
   because every page it writes belongs to the document's own arena.
   Either way the commit-fsync wait runs outside every lock but the
   latch, so group commit batches concurrent committers into one log
   force.  Any failure (an exception out of [f], a crashed or poisoned
   commit) leaves the in-memory state inconsistent with no way to roll it
   back in place, so it poisons the store: every later operation gets a
   typed error, and reopening runs recovery, which undoes the loser from
   the log. *)
let transaction t gc ?doc ?expect ~private_arenas f =
  let latch = Option.map (doc_latch t) doc in
  let unlatch () =
    Option.iter
      (fun m ->
        Mutex.unlock m;
        Lock_rank.release Lock_rank.doc)
      latch
  in
  Option.iter
    (fun m ->
      Lock_rank.acquire Lock_rank.doc;
      Mutex.lock m)
    latch;
  (* Decided under the latch, so a transaction that creates [doc] (and
     gives it a private arena) cannot race the classification.  Only an
     explicit transaction on a document that has a private arena, or will
     get one, runs its mutation phase concurrently. *)
  let serial =
    try
      check_usable t;
      Option.iter (fun doc -> check_expect t ~doc expect) doc;
      match doc with
      | Some doc when private_arenas -> document_arena t doc = None && document_present t doc
      | Some _ | None -> true
    with e ->
      unlatch ();
      raise e
  in
  Atomic.incr t.txns.active;
  with_mutators t (fun () ->
      Hashtbl.replace t.txns.mutators (self_id ()) { serial; private_arenas; journal = [] });
  let release () =
    with_mutators t (fun () -> Hashtbl.remove t.txns.mutators (self_id ()));
    Atomic.decr t.txns.active;
    unlatch ()
  in
  Fun.protect ~finally:release (fun () ->
      let result, lsn =
        try
          if serial then
            with_struct_lock t (fun () ->
                begin_locked t;
                let result = f () in
                (result, commit_locked t))
          else begin
            with_struct_lock t (fun () -> begin_locked t);
            let result = f () in
            (result, with_struct_lock t (fun () -> commit_locked t))
          end
        with e ->
          poison t (Printexc.to_string e);
          raise e
      in
      await_durable t gc lsn;
      result)

let with_txn t ~doc ?expect f =
  match t.gc with
  | Some gc -> transaction t gc ~doc ?expect ~private_arenas:true f
  | None -> storage_error "transactions need a write-ahead log (a file-backed store)"

let autocommit t ?doc ?expect f =
  match t.gc with
  | Some gc when not (in_transaction t) -> transaction t gc ?doc ?expect ~private_arenas:false f
  | Some _ | None ->
    Option.iter (fun doc -> check_expect t ~doc expect) doc;
    f ()

let save_catalog_if_unlogged t = if t.gc = None then Catalog.save t.rm t.catalog

let when_exclusive t f =
  let exclusive () =
    match current_mutator t with
    | Some m -> m.serial && Atomic.get t.txns.active = 1
    | None -> t.gc = None
  in
  (* Outside a transaction, open one only if no other is in flight. *)
  if in_transaction t || Atomic.get t.txns.active = 0 then
    autocommit t (fun () -> if exclusive () then f ())

(* The active check and the checkpoint must be one atomic step with
   respect to {!transaction}'s mutation phase: checked without the
   structure lock, a concurrent transaction could increment [active] and
   log its Begin/Update records between the check and [Wal.checkpoint]'s
   log truncation, destroying the undo/redo records it needs if it loses.
   Under the lock, a transaction that slipped past the check is parked at
   the structure lock with nothing logged yet, so rejecting here is
   always sound.  The unlocked check stays as the fast path: it rejects
   without touching the lock while a mutation phase is running — which
   also keeps a transaction's own [f] calling [sync] an error instead of
   a self-deadlock on the non-recursive lock.  The catalog save is the
   checkpoint's own transaction, durable before the flush and the log
   truncation. *)
let sync t =
  check_usable t;
  if Atomic.get t.txns.active > 0 then
    storage_error "checkpoint rejected: %d transaction(s) in flight" (Atomic.get t.txns.active);
  with_struct_lock t (fun () ->
      if Atomic.get t.txns.active > 0 then
        storage_error "checkpoint rejected: %d transaction(s) in flight"
          (Atomic.get t.txns.active);
      with_catalog_lock t (fun () ->
          Hashtbl.replace t.catalog.Catalog.meta epoch_meta_key
            (string_of_int (Atomic.get t.change_epoch)));
      (match t.gc with
      | None -> Catalog.save t.rm t.catalog
      | Some gc ->
        begin_locked t;
        await_durable t gc (commit_locked t));
      Buffer_pool.checkpoint t.pool);
  (* The durability point also flushes buffered trace output, so a JSONL
     event stream (flight recorder, [natix trace --jsonl]) on disk is
     complete up to the last checkpoint even if the process dies. *)
  match t.obs with None -> () | Some obs -> Natix_obs.Obs.flush obs

let close ?(commit = true) t =
  (* A poisoned store must not checkpoint: flushing and truncating the log
     would promote the failed transaction's partial writes to committed
     state.  Close without syncing; recovery rolls them back on reopen. *)
  (match Atomic.get t.txns.poisoned with
  | Some _ -> ()
  | None -> if commit then sync t);
  (match t.obs with None -> () | Some obs -> Natix_obs.Obs.flush obs);
  (match Buffer_pool.wal t.pool with Some w -> Wal.close w | None -> ());
  Disk.close (Buffer_pool.disk t.pool)

let clear_buffers t =
  with_cache t (fun () ->
      Rid.Tbl.iter
        (fun _ (box : Phys_node.box) ->
          match box.root.Phys_node.box with
          | Some b when b == box -> box.root.Phys_node.box <- None
          | Some _ | None -> ())
        t.cache;
      Rid.Tbl.reset t.cache);
  Buffer_pool.clear t.pool

(* ------------------------------------------------------------------ *)
(* Record access                                                       *)

(* The lookup every record access makes, without a closure: a table
   lookup cannot raise, so the lock needs no handler. *)
let cached t rid =
  lock_leaf t.cache_lock;
  let box = Rid.Tbl.find_opt t.cache rid in
  unlock_leaf t.cache_lock;
  box

let fetch t rid : Phys_node.box =
  match cached t rid with
  | Some box ->
    (* Charge the page access even on a decoded-cache hit, so the I/O
       pattern matches a system that re-reads the record image. *)
    Record_manager.with_record t.rm rid (fun _ ~off:_ ~len:_ -> ());
    box
  | None ->
    let body = Record_manager.read t.rm rid in
    let root, parent_rid = Node_codec.decode t.catalog.Catalog.types body in
    let box = { Phys_node.rid; root; parent_rid } in
    root.Phys_node.box <- Some box;
    with_cache t (fun () -> Rid.Tbl.replace t.cache rid box);
    box

let flush_box t (box : Phys_node.box) =
  let body = Node_codec.encode t.catalog.Catalog.types ~parent_rid:box.parent_rid box.root in
  Record_manager.update_string t.rm box.rid body;
  notify t box.rid Changed

(* Repoint the on-disk parent RID of a subtree record (cheap patch). *)
let set_parent_rid t rid parent =
  (match cached t rid with
  | Some box -> box.parent_rid <- parent
  | None -> ());
  let b = Bytes.create Rid.encoded_size in
  Rid.write b 0 parent;
  Record_manager.patch t.rm rid ~off:Node_codec.parent_rid_offset (Bytes.unsafe_to_string b)

let rec iter_proxies (n : Phys_node.t) f =
  match n.kind with
  | Proxy rid -> f rid
  | Aggregate _ | Frag_aggregate _ -> List.iter (fun c -> iter_proxies c f) (Phys_node.children n)
  | Literal _ -> ()

(* Create a record for [root] (which must fit) and adopt its proxy
   targets. *)
let new_record t ?owner ?near ?policy ~parent_rid root : Phys_node.box =
  let body = Node_codec.encode t.catalog.Catalog.types ~parent_rid root in
  let rid = Record_manager.insert t.rm ?owner ?near ?policy body in
  let box = { Phys_node.rid; root; parent_rid } in
  root.Phys_node.box <- Some box;
  with_cache t (fun () -> Rid.Tbl.replace t.cache rid box);
  iter_proxies root (fun target -> set_parent_rid t target rid);
  notify t rid Changed;
  box

let drop_record t (box : Phys_node.box) =
  Record_manager.delete t.rm box.rid;
  with_cache t (fun () -> Rid.Tbl.remove t.cache box.rid);
  notify t box.rid Dropped;
  (match box.root.Phys_node.box with
  | Some b when b == box -> box.root.Phys_node.box <- None
  | Some _ | None -> ())

let require_box (n : Phys_node.t) =
  match n.box with
  | Some box -> box
  | None -> invalid_arg "Tree_store: node is not attached to a record"

let box_of _t n = require_box (Phys_node.record_root n)

(* Find the proxy object pointing at [rid] inside a decoded subtree. *)
let find_proxy (root : Phys_node.t) rid =
  let exception Found of Phys_node.t in
  let rec go (n : Phys_node.t) =
    match n.kind with
    | Proxy r when Rid.equal r rid -> raise (Found n)
    | Proxy _ | Literal _ -> ()
    | Aggregate _ | Frag_aggregate _ -> List.iter go (Phys_node.children n)
  in
  match go root with
  | () -> failwith "Tree_store: dangling record (no proxy in parent)"
  | exception Found n -> n

(* A scaffolding grouping aggregate (not a fragment aggregate). *)
let is_scaffold_group (n : Phys_node.t) =
  Phys_node.is_scaffolding n
  && match n.kind with Aggregate _ -> true | Frag_aggregate _ | Literal _ | Proxy _ -> false

(* ------------------------------------------------------------------ *)
(* Logical navigation                                                  *)

(* Proxy dereferences on this domain, cumulative. *)
let hop_count : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let proxy_hops () = !(Domain.DLS.get hop_count)

(* Follow the proxy to [rid], [chain] record fetches from the facade
   parent, counting the hop.  Every logical walk dereferences through
   here, so all of them fetch, count, emit [Proxy_hop] and (for a target
   that is not a scaffolding group) observe [proxy_chain_len] alike. *)
let deref t rid ~chain =
  let root = (fetch t rid).root in
  incr (Domain.DLS.get hop_count);
  (match t.obs with
  | None -> ()
  | Some obs -> Natix_obs.Obs.emit obs (Natix_obs.Event.Proxy_hop { rid; chain }));
  (if not (is_scaffold_group root) then
     match t.obs with
     | None -> ()
     | Some obs -> Natix_obs.Obs.observe obs Natix_obs.Obs.proxy_chain_hist (float_of_int chain));
  root

let is_element (n : Phys_node.t) =
  Phys_node.is_facade n
  && match n.kind with Aggregate _ -> true | Frag_aggregate _ | Literal _ | Proxy _ -> false

let is_literal (n : Phys_node.t) =
  match n.kind with
  | Literal _ | Frag_aggregate _ -> true
  | Aggregate _ | Proxy _ -> false

let is_attribute t (n : Phys_node.t) =
  (not (is_element n))
  && (not (Label.equal n.label Label.pcdata))
  &&
  let name = label_name t n.label in
  String.length name > 0 && name.[0] = '@'

(* The unread physical siblings below the current list of a logical
   walk, one frame per opened element or scaffolding group.  [hops]
   counts the record fetches from the facade parent to the list, which
   the proxy-chain histogram records. *)
type frames = Bottom | Frame of { items : Phys_node.t list; hops : int; below : frames }

(* A frame for [items] on top of [below]; an exhausted list needs none. *)
let push items hops below = match items with [] -> below | _ :: _ -> Frame { items; hops; below }

(* The logical nodes under [n] that pass [test], in document order: its
   physical children with every proxy dereferenced and every scaffolding
   group flattened in place and, with [descend], the same below every
   element reached.  A [Seq] cell and a suspension only per yielded node;
   the frames are immutable, so the sequence is persistent. *)
let walk t ~descend test (n : Phys_node.t) : Phys_node.t Seq.t =
  let rec next items hops below () =
    match items with
    | [] -> ( match below with Bottom -> Seq.Nil | Frame f -> next f.items f.hops f.below ())
    | (item : Phys_node.t) :: rest -> (
      match item.kind with
      | Proxy rid ->
        let root = deref t rid ~chain:(hops + 1) in
        if is_scaffold_group root then
          next (Phys_node.children root) (hops + 1) (push rest hops below) ()
        else visit root rest hops below
      | Aggregate _ when Phys_node.is_scaffolding item ->
        (* Defensive: embedded scaffolding groups are not normally created. *)
        next (Phys_node.children item) hops (push rest hops below) ()
      | Aggregate _ | Frag_aggregate _ | Literal _ -> visit item rest hops below)
  and visit node rest hops below =
    if descend && is_element node then
      yield node (Phys_node.children node) 0 (push rest hops below)
    else yield node rest hops below
  and yield node items hops below =
    if test node then Seq.Cons (node, next items hops below) else next items hops below ()
  in
  if is_element n then next (Phys_node.children n) 0 Bottom else Seq.empty

let logical_children t n = walk t ~descend:false (fun _ -> true) n
let descendants t test n = walk t ~descend:true test n

let iter_logical_children t (n : Phys_node.t) f =
  let rec go hops = function
    | [] -> ()
    | (item : Phys_node.t) :: rest ->
      (match item.kind with
      | Proxy rid ->
        let root = deref t rid ~chain:(hops + 1) in
        if is_scaffold_group root then go (hops + 1) (Phys_node.children root) else f root
      | Aggregate _ when Phys_node.is_scaffolding item -> go hops (Phys_node.children item)
      | Aggregate _ | Frag_aggregate _ | Literal _ -> f item);
      go hops rest
  in
  if is_element n then go 0 (Phys_node.children n)

(* Logical parent of [n] together with the physical child of that parent
   on the path down to [n]; [None] at the document root. *)
let parent_link t (n : Phys_node.t) : (Phys_node.t * Phys_node.t) option =
  let rec up (n : Phys_node.t) =
    match n.parent with
    | Some p -> if is_element p then Some (p, n) else up p
    | None ->
      let box = require_box n in
      if Rid.is_null box.parent_rid then None
      else begin
        let pbox = fetch t box.parent_rid in
        let px = find_proxy pbox.root box.rid in
        up px
      end
  in
  up n

let logical_parent t n = Option.map fst (parent_link t n)

let literal_of (n : Phys_node.t) =
  match n.kind with
  | Literal v -> Some v
  | Aggregate _ | Frag_aggregate _ | Proxy _ -> None

let literal_to_string (v : Phys_node.literal) =
  match v with
  | Str s | Uri s -> s
  | Int8 v | Int16 v -> string_of_int v
  | Int32 v -> Int32.to_string v
  | Int64 v -> Int64.to_string v
  | Float v -> string_of_float v

let text_of t (n : Phys_node.t) =
  match n.kind with
  | Literal v -> literal_to_string v
  | Frag_aggregate _ ->
    let buf = Buffer.create 256 in
    let rec walk (n : Phys_node.t) =
      match n.kind with
      | Literal v -> Buffer.add_string buf (literal_to_string v)
      | Proxy rid -> walk (fetch t rid).root
      | Aggregate _ | Frag_aggregate _ -> List.iter walk (Phys_node.children n)
    in
    walk n;
    Buffer.contents buf
  | Aggregate _ | Proxy _ -> invalid_arg "Tree_store.text_of: not a text node"

(* ------------------------------------------------------------------ *)
(* The split algorithm (§3.2)                                          *)

(* Replace an oversized literal root by a fragment aggregate of chunks so
   that the separator search has edges to cut (DESIGN.md §4.6). *)
let fragment_literal t (n : Phys_node.t) =
  match n.kind with
  | Literal (Str s) | Literal (Uri s) ->
    let chunk = max 1 (max_record_size t / 2) in
    let len = String.length s in
    let rec chunks pos =
      if pos >= len then []
      else begin
        let l = min chunk (len - pos) in
        Phys_node.literal (Str (String.sub s pos l)) :: chunks (pos + l)
      end
    in
    let cs = chunks 0 in
    let old_size = n.size in
    n.kind <- Frag_aggregate { children = cs };
    List.iter (fun (c : Phys_node.t) -> c.parent <- Some n) cs;
    n.size <- Phys_node.embedded_header_size + List.fold_left (fun a (c : Phys_node.t) -> a + c.size) 0 cs;
    (match n.parent with
    | Some p -> Phys_node.add_size p (n.size - old_size)
    | None -> ())
  | Literal _ | Aggregate _ | Frag_aggregate _ | Proxy _ ->
    invalid_arg "Tree_store.fragment_literal: not a string literal"

(* Separator search (§3.2.2): descend from the record root into the child
   whose subtree contains the configured split target, stopping at leaves
   and at subtrees smaller than the split tolerance.  Children pinned to
   their parent by the Split Matrix are descended through (they stay with
   the separator), never chosen as [d]. *)
let find_d t (root : Phys_node.t) =
  let tolerance =
    int_of_float (t.config.Config.split_tolerance *. float_of_int t.config.Config.page_size)
  in
  let retained (p : Phys_node.t) (c : Phys_node.t) =
    Phys_node.is_facade c
    && Split_matrix.get t.config.Config.matrix ~parent:p.label ~child:c.label = Split_matrix.Cluster
  in
  let rec descend (node : Phys_node.t) target =
    match Phys_node.children node with
    | [] -> node
    | cs ->
      (* Child whose byte range contains [target]. *)
      let rec pick before = function
        | [ c ] -> (before, c)
        | c :: rest ->
          if float_of_int (before + c.Phys_node.size) >= target then (before, c)
          else pick (before + c.Phys_node.size) rest
        | [] -> assert false
      in
      let before, c = pick 0 cs in
      if retained node c then begin
        if Phys_node.is_leaf c then begin
          (* Cannot cut a pinned leaf: fall back to the largest free child. *)
          match
            List.filter (fun x -> not (retained node x)) cs
            |> List.sort (fun (a : Phys_node.t) b -> Int.compare b.size a.size)
          with
          | [] -> raise (Unsplittable "all children pinned to the parent by the Split Matrix")
          | free :: _ -> free
        end
        else descend c (target -. float_of_int (before + Phys_node.embedded_header_size))
      end
      else if Phys_node.is_leaf c || c.Phys_node.size < tolerance then c
      else descend c (target -. float_of_int (before + Phys_node.embedded_header_size))
  in
  let target = t.config.Config.split_target *. float_of_int root.size in
  let d = descend root target in
  if d == root then raise (Unsplittable "record root has no children to distribute");
  d

(* Split [box] in place: redistribute content onto partition records whose
   parent will be the record identified by [dest]; the separator remains as
   [box]'s root.  [materialize] is passed in to allow mutual recursion with
   oversized-partition handling. *)
let partition_record t (box : Phys_node.box) ~dest ~materialize =
  (* Sampled before the split rearranges anything: how full the page
     holding the record's bytes was when growth forced the split (the
     home page after forwarding — the RID's page may hold only a
     tombstone).  The fill itself comes from the free-space inventory;
     resolving forwarding re-fixes a page that is already hot, charging
     no simulated I/O. *)
  let fill_at_entry =
    match t.obs with
    | None -> 0.
    | Some _ ->
      Segment.fill_factor (Record_manager.segment t.rm) (Record_manager.home_page t.rm box.rid)
  in
  let bytes_at_entry = Phys_node.record_size box.root in
  (match box.root.Phys_node.kind with
  | Literal _ -> fragment_literal t box.root
  | Aggregate _ | Frag_aggregate _ | Proxy _ -> ());
  let d = find_d t box.root in
  (* Path from the parent of [d] up to the root. *)
  let rec path_to_root (n : Phys_node.t) acc =
    match n.parent with
    | None -> n :: acc
    | Some p -> path_to_root p (n :: acc)
  in
  let path =
    match d.parent with
    | None -> raise (Unsplittable "separator would be empty")
    | Some p -> List.rev (path_to_root p [])  (* bottom-up: parent(d) first *)
  in
  let near = Rid.page box.rid in
  let progress = ref 0 in
  let retained (p : Phys_node.t) (c : Phys_node.t) =
    Phys_node.is_facade c
    && Split_matrix.get t.config.Config.matrix ~parent:p.label ~child:c.label = Split_matrix.Cluster
  in
  (* Turn a maximal run of sibling partition roots into the node that
     replaces them in the separator: the proxy itself for a single proxy
     (scaffolding-avoidance case 1), otherwise a proxy to a new partition
     record (grouping siblings under one scaffolding aggregate). *)
  let emit_run (run : Phys_node.t list) : Phys_node.t list =
    match run with
    | [] -> []
    | [ ({ Phys_node.kind = Proxy _; _ } as only) ] ->
      only.Phys_node.parent <- None;
      [ only ]
    | run ->
      List.iter (fun (n : Phys_node.t) -> n.Phys_node.parent <- None) run;
      let part_root =
        match run with
        | [ single ] -> single
        | many -> Phys_node.scaffold_aggregate many
      in
      progress := !progress + part_root.Phys_node.size;
      let pbox = materialize t ~near ~parent_rid:dest part_root in
      [ Phys_node.proxy pbox.Phys_node.rid ]
  in
  (* Rebuild children of one separator level: partition [items] into runs
     broken by pinned children (which stay in the separator). *)
  let rebuild_side (p : Phys_node.t) (items : Phys_node.t list) : Phys_node.t list =
    let flush_run acc run = List.rev_append (emit_run (List.rev run)) acc in
    let rec go acc run = function
      | [] -> List.rev (flush_run acc run)
      | c :: rest ->
        if retained p c then go (c :: flush_run acc run) [] rest
        else go acc (c :: run) rest
    in
    go [] [] items
  in
  (* Process levels bottom-up so each parent sees its rebuilt child. *)
  let rec process (levels : Phys_node.t list) (path_child : Phys_node.t option) =
    match levels with
    | [] -> ()
    | p :: up ->
      let cs = Phys_node.children p in
      let boundary = match path_child with None -> d | Some c -> c in
      let rec split_at pre = function
        | [] -> failwith "Tree_store.partition_record: path child missing"
        | c :: rest when c == boundary -> (List.rev pre, rest)
        | c :: rest -> split_at (c :: pre) rest
      in
      let pre, post = split_at [] cs in
      let left = rebuild_side p pre in
      let right =
        match path_child with
        | None ->
          (* Deepest level: d and its right siblings form the right
             partition.  When d has no left siblings that would make the
             partition the whole record and no progress would be made
             (materializing it re-splits the identical tree), so cut
             between d and its right siblings instead. *)
          (match pre with
          | [] -> rebuild_side p [ d ] @ rebuild_side p post
          | _ :: _ -> rebuild_side p (d :: post))
        | Some c ->
          ignore c;
          rebuild_side p post
      in
      let keep = match path_child with None -> [] | Some c -> [ c ] in
      Phys_node.set_children p (left @ keep @ right);
      process up (Some p)
  in
  process path None;
  if !progress = 0 then
    raise (Unsplittable "split produced no partitions (Split Matrix pins everything)");
  Atomic.incr t.splits;
  match t.obs with
  | None -> ()
  | Some obs ->
    let decision = event_decision t.last_decision in
    Natix_obs.Obs.emit obs
      (Natix_obs.Event.Split
         { rid = box.rid; decision; fill = fill_at_entry; record_bytes = bytes_at_entry });
    Natix_obs.Obs.incr obs ("split." ^ Natix_obs.Event.decision_name decision);
    Natix_obs.Obs.observe obs Natix_obs.Obs.split_fill_hist fill_at_entry

(* Create a record for [root], splitting it locally first if it exceeds
   the page capacity (needed when a partition or a standalone subtree is
   itself oversized). *)
let rec materialize t ?policy ~near ~parent_rid (root : Phys_node.t) : Phys_node.box =
  if Phys_node.record_size root <= max_record_size t then new_record t ~near ?policy ~parent_rid root
  else begin
    (* Reserve the record's identity with a placeholder, then shrink the
       real content in place. *)
    let placeholder = Phys_node.scaffold_aggregate [] in
    let box = new_record t ~near ?policy ~parent_rid placeholder in
    placeholder.Phys_node.box <- None;
    box.root <- root;
    root.Phys_node.box <- Some box;
    shrink_in_place t box;
    box
  end

(* Repeatedly partition until the separator fits, keeping it as the
   record's root (used for root records and freshly materialised
   subtrees). *)
and shrink_in_place t (box : Phys_node.box) =
  if Phys_node.record_size box.root > max_record_size t then begin
    partition_record t box ~dest:box.rid
      ~materialize:(fun t ~near ~parent_rid root -> materialize t ~near ~parent_rid root);
    shrink_in_place t box
  end
  else flush_box t box

(* The tree growth procedure's overflow handling: split the record and
   move the separator into the parent record (recursively). *)
let rec grow_check t (box : Phys_node.box) =
  if Phys_node.record_size box.root <= max_record_size t then flush_box t box
  else if Rid.is_null box.parent_rid then
    (* Root record: the separator becomes the new root content; the RID is
       reused so the document catalog stays valid. *)
    shrink_in_place t box
  else begin
    let dest = box.parent_rid in
    partition_record t box ~dest
      ~materialize:(fun t ~near ~parent_rid root -> materialize t ~near ~parent_rid root);
    let sep_root = box.root in
    let pbox = fetch t dest in
    let px = find_proxy pbox.root box.rid in
    drop_record t box;
    let host =
      match px.Phys_node.parent with
      | Some h -> h
      | None -> failwith "Tree_store: proxy cannot be a record root"
    in
    let idx = Phys_node.index_of host px in
    Phys_node.remove_child host px;
    (* Scaffolding-avoidance case 2: a scaffolding separator root is
       disregarded; its children are inserted into the parent instead. *)
    let to_insert =
      if is_scaffold_group sep_root then begin
        let cs = Phys_node.children sep_root in
        List.iter (fun (c : Phys_node.t) -> c.Phys_node.parent <- None) cs;
        cs
      end
      else begin
        sep_root.Phys_node.parent <- None;
        [ sep_root ]
      end
    in
    List.iteri (fun i n -> Phys_node.insert_child host ~index:(idx + i) n) to_insert;
    (* Records referenced from the separator now hang off the parent. *)
    List.iter (fun n -> iter_proxies n (fun target -> set_parent_rid t target dest)) to_insert;
    grow_check t pbox
  end

(* ------------------------------------------------------------------ *)
(* Merging (dynamic re-clustering on deletion)                         *)

let rec try_merge t (box : Phys_node.box) =
  let threshold = t.config.Config.merge_threshold in
  if threshold > 0. then begin
    let limit = int_of_float (threshold *. float_of_int (max_record_size t)) in
    if Phys_node.record_size box.root < limit then begin
      (* Inline the first child record that keeps us under the limit. *)
      let candidate = ref None in
      (try
         iter_proxies box.root (fun rid ->
             let tbox = fetch t rid in
             let delta =
               tbox.root.Phys_node.size - (Phys_node.embedded_header_size + Rid.encoded_size)
             in
             if Phys_node.record_size box.root + delta <= limit then begin
               candidate := Some tbox;
               raise Exit
             end)
       with Exit -> ());
      match !candidate with
      | None -> flush_box t box
      | Some tbox ->
        let px = find_proxy box.root tbox.rid in
        let host =
          match px.Phys_node.parent with
          | Some h -> h
          | None -> failwith "Tree_store: proxy cannot be a record root"
        in
        let idx = Phys_node.index_of host px in
        Phys_node.remove_child host px;
        let content =
          if is_scaffold_group tbox.root then begin
            let cs = Phys_node.children tbox.root in
            List.iter (fun (c : Phys_node.t) -> c.Phys_node.parent <- None) cs;
            cs
          end
          else [ tbox.root ]
        in
        (match t.obs with
        | None -> ()
        | Some obs ->
          Natix_obs.Obs.emit obs
            (Natix_obs.Event.Merge { rid = box.rid; absorbed = tbox.rid }));
        drop_record t tbox;
        List.iteri (fun i n -> Phys_node.insert_child host ~index:(idx + i) n) content;
        List.iter (fun n -> iter_proxies n (fun target -> set_parent_rid t target box.rid)) content;
        Atomic.incr t.merges;
        try_merge t box
    end
    else flush_box t box
  end
  else flush_box t box

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)

let mk_payload = function
  | Elem l -> Phys_node.aggregate l []
  | Text s -> Phys_node.literal (Str s)
  | Lit (l, v) -> Phys_node.literal ~label:l v

let payload_label = function
  | Elem l -> l
  | Text _ -> Label.pcdata
  | Lit (l, _) -> l

(* Tree growth (§3.2.1): while the record still fits, the new node is
   spliced into the stored image, a local edit since every offset is
   record-relative (Appendix A), instead of re-encoding the record.  The
   update sees only the new length, so placement is what a full encode
   would have got. *)
let insert_embedded t host ~index node =
  Phys_node.insert_child host ~index node;
  let box = box_of t host in
  let len = Phys_node.record_size box.root in
  if len <= max_record_size t then begin
    Record_manager.update t.rm box.rid ~len (Node_codec.splice t.catalog.Catalog.types node);
    notify t box.rid Changed
  end
  else grow_check t box

let insert_node t point payload =
  let node = mk_payload payload in
  (* Physical placement next to the designated sibling, and the logical
     parent for the Split Matrix decision (§3.2.1/§3.3). *)
  let y, host, index =
    match point with
    | First_under y ->
      if not (is_element y) then invalid_arg "Tree_store.insert_node: First_under a non-element";
      (y, y, 0)
    | After prev -> (
      let y, y_child =
        match parent_link t prev with
        | Some link -> link
        | None -> invalid_arg "Tree_store.insert_node: cannot insert after the document root"
      in
      match prev.Phys_node.parent with
      | Some q -> (y, q, Phys_node.index_of q prev + 1)
      | None ->
        (* [prev] is a record root: the new sibling goes next to the proxy
           that points at it. *)
        let box = require_box prev in
        let pbox = fetch t box.parent_rid in
        let px = find_proxy pbox.root box.rid in
        (match px.Phys_node.parent with
        | Some h -> (y, h, Phys_node.index_of h px + 1)
        | None -> (y, y, Phys_node.index_of y y_child + 1)))
  in
  let behaviour =
    Split_matrix.get t.config.Config.matrix ~parent:y.Phys_node.label
      ~child:(payload_label payload)
  in
  t.last_decision <- behaviour;
  (match behaviour with
  | Split_matrix.Standalone ->
    (* Always a record of its own; a proxy goes where the node would.  The
       fallback placement policy distinguishes NATIX's locality-preserving
       allocation from the generic-manager emulation (Config). *)
    let host_box = box_of t host in
    let policy = if t.config.Config.standalone_first_fit then `First_fit else `Forward in
    let nbox = materialize t ~policy ~near:(Rid.page host_box.rid) ~parent_rid:host_box.rid node in
    insert_embedded t host ~index (Phys_node.proxy nbox.rid)
  | Split_matrix.Cluster ->
    (* Keep the node in the same record as its logical parent. *)
    let host, index =
      if Phys_node.record_root host == Phys_node.record_root y then (host, index)
      else begin
        (* The designated sibling lives in another record: fall back to a
           position under the parent itself. *)
        let n = List.length (Phys_node.children y) in
        (y, n)
      end
    in
    insert_embedded t host ~index node
  | Split_matrix.Other -> insert_embedded t host ~index node);
  node

let rec delete_descendant_records t (n : Phys_node.t) =
  match n.Phys_node.kind with
  | Proxy rid ->
    let box = fetch t rid in
    delete_descendant_records t box.root;
    drop_record t box
  | Aggregate _ | Frag_aggregate _ ->
    List.iter (delete_descendant_records t) (Phys_node.children n)
  | Literal _ -> ()

(* Remove now-empty scaffolding groups within the record. *)
let rec cleanup_scaffolds (n : Phys_node.t) =
  if is_scaffold_group n && Phys_node.children n = [] then begin
    match n.Phys_node.parent with
    | Some p ->
      Phys_node.remove_child p n;
      cleanup_scaffolds p
    | None -> ()
  end

(* After a deletion shrank a record, try to inline child records into it,
   then try the same one level up (the shrunken record may now fit into its
   parent) — the "merged into clusters" of §1. *)
let merge_around t (box : Phys_node.box) =
  try_merge t box;
  if not (Rid.is_null box.parent_rid) then try_merge t (fetch t box.parent_rid)

let delete_node t (node : Phys_node.t) =
  match node.Phys_node.parent with
  | Some p ->
    delete_descendant_records t node;
    Phys_node.remove_child p node;
    cleanup_scaffolds p;
    merge_around t (box_of t p)
  | None ->
    let box = require_box node in
    if Rid.is_null box.parent_rid then
      invalid_arg "Tree_store.delete_node: use delete_document for the root";
    delete_descendant_records t node;
    let pbox = fetch t box.parent_rid in
    let px = find_proxy pbox.root box.rid in
    drop_record t box;
    (match px.Phys_node.parent with
    | Some h ->
      Phys_node.remove_child h px;
      cleanup_scaffolds h
    | None -> failwith "Tree_store: proxy cannot be a record root");
    merge_around t pbox

let update_text t (node : Phys_node.t) s =
  (match node.Phys_node.kind with
  | Literal (Str _) | Literal (Uri _) | Frag_aggregate _ -> ()
  | Literal _ | Aggregate _ | Proxy _ ->
    invalid_arg "Tree_store.update_text: not a text node");
  delete_descendant_records t node;
  let old_size = node.Phys_node.size in
  node.Phys_node.kind <- Literal (Str s);
  node.Phys_node.size <- Phys_node.embedded_header_size + String.length s;
  (match node.Phys_node.parent with
  | Some p -> Phys_node.add_size p (node.Phys_node.size - old_size)
  | None -> ());
  grow_check t (box_of t node)

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)

let document_rid t name = with_catalog_lock t (fun () -> Hashtbl.find_opt t.catalog.Catalog.docs name)

let create_document t ~name ~root =
  if document_present t name then
    invalid_arg (Printf.sprintf "Tree_store.create_document: %S exists" name);
  let root_node = Phys_node.aggregate (label t root) [] in
  (* Inside {!with_txn} the document gets a private allocation arena, so
     its mutation phase (this one and every later one) never writes a
     page any other writer can touch.  The catalog entries are
     journalled; they become durable with the commit. *)
  let owner =
    match current_mutator t with
    | Some { private_arenas = true; _ } ->
      let arena = Segment.fresh_arena (Record_manager.segment t.rm) in
      meta_put t (arena_meta_key name) (string_of_int arena);
      Some arena
    | Some _ | None -> None
  in
  let box = new_record t ?owner ~parent_rid:Rid.null root_node in
  doc_put t name box.rid;
  save_catalog_if_unlogged t;
  root_node

let open_document t name =
  match document_rid t name with
  | None -> None
  | Some rid -> Some (fetch t rid).root

let list_documents t =
  with_catalog_lock t (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) t.catalog.Catalog.docs [])
  |> List.sort String.compare

let delete_document t name =
  match document_rid t name with
  | None -> invalid_arg (Printf.sprintf "Tree_store.delete_document: no document %S" name)
  | Some rid ->
    let arena = document_arena t name in
    let box = fetch t rid in
    delete_descendant_records t box.root;
    drop_record t box;
    doc_remove t name;
    (match arena with
    | Some arena ->
      (* Retag the dying document's pages back to the shared arena before
         the catalog forgets the arena id — no page may keep an ownership
         tag fsck cannot match to a document.  Inside a concurrent
         transaction the reclaimed space is quarantined (registered as
         full) until the next reopen rescans it: handing it to the shared
         arena's inventory immediately would let a concurrent committer's
         catalog write land on a page this still-uncommitted transaction
         owns.  A serial transaction holds the structure lock until its commit
         record is logged, so no other commit can run in that window. *)
      let quarantine = match current_mutator t with Some m -> not m.serial | None -> false in
      Segment.release_arena ~quarantine (Record_manager.segment t.rm) arena;
      meta_remove t (arena_meta_key name)
    | None -> ());
    save_catalog_if_unlogged t

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let iter_records t rid f =
  let rec go rid depth =
    let box = fetch t rid in
    f rid box.Phys_node.root depth;
    iter_proxies box.root (fun target -> go target (depth + 1))
  in
  go rid 0

let check_document t name =
  let fail fmt = Printf.ksprintf failwith fmt in
  match document_rid t name with
  | None -> fail "check_document: no document %S" name
  | Some root_rid ->
    let rec check_record rid expected_parent =
      let box = fetch t rid in
      if not (Rid.equal box.parent_rid expected_parent) then
        fail "record %s has parent %s, expected %s" (Rid.to_string rid)
          (Rid.to_string box.parent_rid)
          (Rid.to_string expected_parent);
      let rec check_node (n : Phys_node.t) ~embedded =
        if n.Phys_node.size <> Phys_node.compute_size n then
          fail "record %s: cached size %d <> computed %d" (Rid.to_string rid) n.size
            (Phys_node.compute_size n);
        if embedded && is_scaffold_group n then
          fail "record %s: embedded scaffolding group" (Rid.to_string rid);
        List.iter
          (fun (c : Phys_node.t) ->
            (match c.Phys_node.parent with
            | Some p when p == n -> ()
            | Some _ | None -> fail "record %s: broken parent link" (Rid.to_string rid));
            check_node c ~embedded:true)
          (Phys_node.children n)
      in
      check_node box.root ~embedded:false;
      if Phys_node.record_size box.root > max_record_size t then
        fail "record %s exceeds a page (%d > %d)" (Rid.to_string rid)
          (Phys_node.record_size box.root) (max_record_size t);
      (* Round-trip the byte image, and require it to be exactly the
         encoding of the cached tree: tree growth splices nodes into
         stored images instead of re-encoding them. *)
      let body = Record_manager.read t.rm rid in
      let decoded, _ = Node_codec.decode t.catalog.Catalog.types body in
      if not (Node_codec.structural_equal decoded box.root) then
        fail "record %s: decoded image differs from the cached tree" (Rid.to_string rid);
      if body <> Node_codec.encode t.catalog.Catalog.types ~parent_rid:box.parent_rid box.root then
        fail "record %s: stored image differs from the encoded tree" (Rid.to_string rid);
      iter_proxies box.root (fun target -> check_record target rid)
    in
    check_record root_rid Rid.null
