exception All_frames_pinned

type segment = Hot | Cold

(* Per-page write tracking of a transaction in its mutation phase.
   Several transactions may be in flight at once — one per domain, their
   page sets disjoint (each concurrent one mutates only its own
   document's arena pages; shared pages are touched only under the
   store's structure lock).
   [before] is the page payload as of the last point everything was
   logged — the image undo restores; [dirty_since_log] says the frame has
   moved past it.  [dom] is the domain whose transaction owns the page. *)
type track = { before : bytes; mutable dirty_since_log : bool; dom : int }

type frame = {
  page_id : int;
  data : bytes;
  latch : Mutex.t;  (* held while the frame's content is being loaded *)
  mutable failed : bool;  (* the load failed; waiters must retry the fix *)
  mutable dirty : bool;
  mutable rec_lsn : int;  (* LSN of the last WAL record covering [data] *)
  pins : int Atomic.t;  (* taken under the page's stripe, dropped with no lock *)
  logged : int Atomic.t;  (* hits in some domain's hit log, not yet applied *)
  mutable seg : segment;
  mutable referenced : bool;
  mutable linked : bool;  (* currently on an LRU chain *)
  mutable prev : frame option;
  mutable next : frame option;
  mutable claim : track option;  (* the in-flight transaction's track of this page *)
}

type txn = { id : int; mutable last_lsn : int; pages : (int, track) Hashtbl.t }

(* One LRU chain: head = most recently used, tail = eviction candidate. *)
type lru = { mutable head : frame option; mutable tail : frame option }

(* Concurrency design (see DESIGN §4 item 15 for the full argument).  The
   mapping table is sharded across [stripe_count] hashtables, each guarded
   by its stripe lock; everything else shared — the LRU chains, the
   counters, the resident count, scan mode and the read-ahead cursor —
   lives under the single pool lock.  Frames carry a latch held only while
   their content is in flight, so a concurrent fix of a loading page waits
   on the frame, not on the pool.  Lock order (ascending, checked by
   {!Lock_rank}):

     stripe (8) < frame latch (9) < pool (10) < wal (11) < disk (12)

   Eviction runs against the order — it holds the pool lock and needs a
   victim's stripe and latch — so it only ever [try_lock]s those, skipping
   the victim when either is contended.

   A hit takes no pool lock.  Its pin is an atomic count taken under the
   page's stripe, and eviction re-checks the count while it holds the
   victim's stripe, so a pinned frame is never evicted.  Its LRU move and
   its [fixes] count go into the calling domain's hit log, which is
   applied in hit order at the start of every pool-lock section that
   domain enters.  Single-domain behaviour is therefore bit-identical to
   the unstriped pool: every try_lock succeeds, every eviction sees the
   LRU order and counters of a pool that applied each hit at once. *)
let stripe_count = 16

type t = {
  disk : Disk.t;
  capacity : int;
  stripes : Mutex.t array;
  tables : (int, frame) Hashtbl.t array;
  pool_lock : Mutex.t;
  (* Full-table view maintained under the pool lock, mirroring the exact
     replace/remove sequence the pre-striping pool applied to its single
     hashtable.  [flush]/[clear] iterate it instead of taking every
     stripe, and — because OCaml hashtable iteration order is a pure
     function of the operation sequence — dirty pages flush in the exact
     order they did before striping, keeping accumulated [sim_ms] figures
     bit-identical for single-domain runs. *)
  registry : (int, frame) Hashtbl.t;
  mutable resident : int;
  (* Segmented LRU: the hot segment holds the demand working set, the cold
     segment holds probationary pages (read-ahead and scan-mode fixes).
     With [scan_resistant = false] every frame lives in [hot] and the pool
     degenerates to the plain LRU of the paper. *)
  hot : lru;
  cold : lru;
  scan_resistant : bool;
  read_ahead : int;
  (* Scan mode is on while any [with_scan] region is active.  The regions
     are a refcount, not a saved/restored flag: concurrent scanning
     domains each increment on entry and decrement on exit, so one worker
     leaving its region cannot clobber another worker still mid-scan. *)
  mutable scan_depth : int;
  mutable last_miss : int;  (* for sequential-miss detection; -2 = none *)
  mutable fixes : int;
  mutable misses : int;
  mutable prefetched : int;
  wal : Wal.t option;
  (* Transaction state, guarded by the pool lock (the evictor logging a
     stolen page races with a mutator's {!mark_dirty}).  [txns] maps a
     domain to its in-flight transaction; [page_txn] maps a tracked page
     to the transaction that owns it, so an evictor stealing any writer's
     page logs the update under the right chain. *)
  txns : (int, txn) Hashtbl.t;
  page_txn : (int, txn) Hashtbl.t;
  obs : Natix_obs.Obs.t option;
}

let create ~disk ~bytes ?wal ?(read_ahead = 0) ?(scan_resistant = false) () =
  if read_ahead < 0 then invalid_arg "Buffer_pool.create: negative read_ahead";
  let capacity = max 2 (bytes / Disk.page_size disk) in
  {
    disk;
    capacity;
    stripes = Array.init stripe_count (fun _ -> Mutex.create ());
    tables = Array.init stripe_count (fun _ -> Hashtbl.create (2 * (1 + (capacity / stripe_count))));
    pool_lock = Mutex.create ();
    registry = Hashtbl.create (2 * capacity);
    resident = 0;
    hot = { head = None; tail = None };
    cold = { head = None; tail = None };
    scan_resistant;
    read_ahead;
    scan_depth = 0;
    last_miss = -2;
    fixes = 0;
    misses = 0;
    prefetched = 0;
    wal;
    txns = Hashtbl.create 8;
    page_txn = Hashtbl.create 64;
    obs = Disk.obs disk;
  }

let stripe_of page_id = page_id land (stripe_count - 1)

(* Pool lock held. *)
let scanning t = t.scan_depth > 0

(* ------------------------------------------------------------------ *)
(* LRU chain primitives — pool lock held                               *)

let list_of t f = match f.seg with Hot -> t.hot | Cold -> t.cold

let unlink t f =
  let l = list_of t f in
  (match f.prev with Some p -> p.next <- f.next | None -> l.head <- f.next);
  (match f.next with Some n -> n.prev <- f.prev | None -> l.tail <- f.prev);
  f.prev <- None;
  f.next <- None

let push_front t seg f =
  let l = match seg with Hot -> t.hot | Cold -> t.cold in
  let link = Some f in
  f.seg <- seg;
  f.linked <- true;
  f.prev <- None;
  f.next <- l.head;
  (match l.head with Some h -> h.prev <- link | None -> l.tail <- link);
  l.head <- link

(* A frame already at the head stays put: moving it would put it back. *)
let touch t f =
  match (list_of t f).head with
  | Some h when h == f -> ()
  | Some _ | None ->
    unlink t f;
    push_front t f.seg f

(* Hit bookkeeping.  In the plain pool this is a bare LRU touch.  In the
   segmented pool a cold frame earns promotion to the hot segment on its
   first demand hit after a previous reference — but never while a scan is
   in progress, because a scan re-fixes the same page many times while
   walking its records and would otherwise promote the entire scan into the
   hot segment, which is exactly what the cold segment exists to prevent. *)
let on_hit t f =
  if (not t.scan_resistant) || f.seg = Hot then touch t f
  else if scanning t then begin
    f.referenced <- true;
    touch t f
  end
  else if f.referenced then begin
    unlink t f;
    push_front t Hot f
  end
  else begin
    f.referenced <- true;
    touch t f
  end

(* ------------------------------------------------------------------ *)
(* Hit logs                                                            *)

(* A domain's hits not yet applied to its pool, in hit order.  The log
   belongs to one pool at a time; [counted] is how many of its entries
   count as fixes (a retried fix does not). *)
type hit_log = {
  mutable pool : t option;
  mutable hits : frame array;  (* allocated at the first hit *)
  mutable len : int;
  mutable counted : int;
}

(* Enough to take the pool lock once per 64 hits; a constant, not a knob. *)
let hit_log_size = 64

(* Retries of a transiently failing page read before the error escapes. *)
let read_retry_limit = 3

let hit_logs : hit_log Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { pool = None; hits = [||]; len = 0; counted = 0 })

(* Pool lock held.  A frame evicted or cleared since its hit is no longer
   linked and is skipped; its fix still counts. *)
let apply_log t l =
  for i = 0 to l.len - 1 do
    let f = l.hits.(i) in
    Atomic.decr f.logged;
    if f.linked then on_hit t f
  done;
  t.fixes <- t.fixes + l.counted;
  l.len <- 0;
  l.counted <- 0

let lock_stripe t si =
  Lock_rank.acquire Lock_rank.stripe;
  Mutex.lock t.stripes.(si)

let unlock_stripe t si =
  Mutex.unlock t.stripes.(si);
  Lock_rank.release Lock_rank.stripe

let lock_frame f =
  Lock_rank.acquire Lock_rank.frame;
  Mutex.lock f.latch

(* Latch a frame this thread just created: exempt from the rank order
   (waiters on frame latches hold nothing, see {!Lock_rank}), so
   read-ahead can keep a batch of them latched while taking the next
   page's stripe. *)
let lock_frame_fresh f =
  Lock_rank.note_try Lock_rank.unordered;
  Mutex.lock f.latch

let unlock_frame_fresh f =
  Mutex.unlock f.latch;
  Lock_rank.release Lock_rank.unordered

let unlock_frame f =
  Mutex.unlock f.latch;
  Lock_rank.release Lock_rank.frame

(* Every pool-lock section starts by applying the calling domain's hits
   to this pool, so it sees them as if each had taken the lock itself. *)
let lock_pool t =
  Lock_rank.acquire Lock_rank.pool;
  Mutex.lock t.pool_lock;
  let l = Domain.DLS.get hit_logs in
  if l.len > 0 then match l.pool with Some p when p == t -> apply_log t l | Some _ | None -> ()

let unlock_pool t =
  Mutex.unlock t.pool_lock;
  Lock_rank.release Lock_rank.pool

let with_pool t fn =
  lock_pool t;
  Fun.protect ~finally:(fun () -> unlock_pool t) fn

let disk t = t.disk
let capacity t = t.capacity
let resident t = with_pool t (fun () -> t.resident)
let fixes t = with_pool t (fun () -> t.fixes)
let misses t = with_pool t (fun () -> t.misses)
let prefetched t = with_pool t (fun () -> t.prefetched)
let obs t = t.obs
let wal t = t.wal
let read_ahead t = t.read_ahead
let scan_mode t = with_pool t (fun () -> scanning t)

let with_scan t fn =
  with_pool t (fun () -> t.scan_depth <- t.scan_depth + 1);
  Fun.protect
    ~finally:(fun () -> with_pool t (fun () -> t.scan_depth <- t.scan_depth - 1))
    fn

let is_resident t page_id =
  let si = stripe_of page_id in
  lock_stripe t si;
  let r = Hashtbl.mem t.tables.(si) page_id in
  unlock_stripe t si;
  r

let iter_lru fn lru =
  let rec go = function
    | None -> ()
    | Some f ->
      let next = f.next in
      fn f;
      go next
  in
  go lru.head

let iter_frames t fn =
  iter_lru fn t.hot;
  iter_lru fn t.cold

let resident_cold t =
  with_pool t (fun () ->
      let n = ref 0 in
      iter_frames t (fun f -> if f.seg = Cold then incr n);
      !n)

let pinned_frames t =
  with_pool t (fun () ->
      let n = ref 0 in
      iter_frames t (fun f -> if Atomic.get f.pins > 0 then incr n);
      !n)

let hit_ratio t =
  with_pool t (fun () ->
      if t.fixes = 0 then 1.0 else float_of_int (t.fixes - t.misses) /. float_of_int t.fixes)

(* Zeroing the fix/miss counters while worker domains are mid-flight would
   leave the merged figures unreconcilable; the region refcount on the
   disk tells us whether that is the case. *)
let reset_stats t =
  if Disk.in_parallel_region t.disk then
    invalid_arg "Buffer_pool.reset_stats: active parallel region";
  with_pool t (fun () ->
      t.fixes <- 0;
      t.misses <- 0;
      t.prefetched <- 0)

(* Write-back, pool lock held.  WAL-before-data: a page an in-flight
   transaction has moved past its last logged image gets an update record
   here (the "steal" of ARIES: an uncommitted page may go home because
   undo can restore [track.before]), and the tracking advances so commit
   logs only what happened afterwards.  The log is forced before the data
   write whenever the frame's covering record is not durable yet, and the
   page goes home stamped with that record's LSN so redo can tell whether
   the page already contains its effect. *)
let write_back t f =
  if f.dirty then begin
    (match t.wal with
    | None -> ()
    | Some w ->
      (match Hashtbl.find_opt t.page_txn f.page_id with
      | Some txn -> (
        match Hashtbl.find_opt txn.pages f.page_id with
        | Some tr when tr.dirty_since_log ->
          let lsn =
            Wal.log_update w ~txn:txn.id ~prev_lsn:txn.last_lsn ~page:f.page_id ~before:tr.before
              ~after:f.data
          in
          txn.last_lsn <- lsn;
          Bytes.blit f.data 0 tr.before 0 (Bytes.length f.data);
          tr.dirty_since_log <- false;
          f.rec_lsn <- lsn
        | Some _ | None -> ())
      | None -> ());
      if f.rec_lsn > Wal.durable_lsn w then Wal.fsync w);
    (match t.obs with
    | None -> ()
    | Some obs -> Natix_obs.Obs.emit obs (Natix_obs.Event.Page_flush { page = f.page_id }));
    (match t.wal with
    | Some _ -> Disk.write ~lsn:f.rec_lsn t.disk f.page_id f.data
    | None -> Disk.write t.disk f.page_id f.data);
    f.dirty <- false
  end

(* ------------------------------------------------------------------ *)
(* Eviction — pool lock held, [held_stripe] already locked by caller   *)

(* Removing the victim from its shard runs against the lock order (the
   pool lock is held, stripes rank below it), so the stripe is only ever
   try_locked; a contended stripe just disqualifies the victim.  If the
   victim lives in the stripe the caller already holds, operate directly —
   OCaml mutexes are not recursive, and [try_lock] on a self-held lock
   would fail, wrongly skipping the victim.  A hit pins under the stripe,
   so the pin count read while holding it is final: a frame pinned since
   the victim scan saw it free is skipped. *)
let try_remove_from_table t ~held_stripe f =
  let si = stripe_of f.page_id in
  let remove_unpinned () =
    Atomic.get f.pins = 0
    && begin
      Hashtbl.remove t.tables.(si) f.page_id;
      true
    end
  in
  if si = held_stripe then remove_unpinned ()
  else if Mutex.try_lock t.stripes.(si) then begin
    Lock_rank.note_try Lock_rank.stripe;
    let removed = remove_unpinned () in
    Mutex.unlock t.stripes.(si);
    Lock_rank.release Lock_rank.stripe;
    removed
  end
  else false

(* Evict the least recently used unpinned frame, preferring the cold
   segment so probationary scan pages go before the working set.  [keep]
   protects a page range: a read-ahead batch must not evict the frames it
   allocated for its own run.  A frame whose latch is held (a load in
   flight, or a read-ahead frame being filled) is skipped the same way a
   pinned frame is.  A frame with hits still in another domain's log
   ([logged], never the calling domain's: its log was applied when it
   took the pool lock) sits further back than its last use; it goes only
   when no other frame can. *)
let evict_one ?(keep = (0, -1)) ~held_stripe t =
  let keep_lo, keep_hi = keep in
  let rec find ~settled = function
    | None -> None
    | Some f ->
      if
        Atomic.get f.pins = 0
        && ((not settled) || Atomic.get f.logged = 0)
        && (not (f.page_id >= keep_lo && f.page_id <= keep_hi))
        && Mutex.try_lock f.latch
      then begin
        Lock_rank.note_try Lock_rank.frame;
        if try_remove_from_table t ~held_stripe f then Some f
        else begin
          Mutex.unlock f.latch;
          Lock_rank.release Lock_rank.frame;
          find ~settled f.prev
        end
      end
      else find ~settled f.prev
  in
  let find_any ~settled =
    match find ~settled t.cold.tail with Some _ as v -> v | None -> find ~settled t.hot.tail
  in
  let victim =
    match find_any ~settled:true with
    | Some v -> v
    | None -> ( match find_any ~settled:false with Some v -> v | None -> raise All_frames_pinned)
  in
  (match t.obs with
  | None -> ()
  | Some obs ->
    Natix_obs.Obs.emit obs (Natix_obs.Event.Page_evict { page = victim.page_id; dirty = victim.dirty }));
  (* The victim is already out of its shard; finish the structural part of
     the eviction even when the write-back dies (a fault-plan crash), so
     the latch is not left locked behind the exception. *)
  Fun.protect
    ~finally:(fun () ->
      unlink t victim;
      victim.linked <- false;
      t.resident <- t.resident - 1;
      Hashtbl.remove t.registry victim.page_id;
      Mutex.unlock victim.latch;
      Lock_rank.release Lock_rank.frame)
    (fun () -> write_back t victim)

let make_room ?keep ~held_stripe t = if t.resident >= t.capacity then evict_one ?keep ~held_stripe t

(* Placement of a freshly allocated frame.  Plain pool: always hot (the
   single LRU list).  Segmented pool: speculative (read-ahead) frames and
   demand misses during a scan enter the cold segment on probation; normal
   demand misses enter hot directly. *)
let placement t ~speculative =
  if not t.scan_resistant then Hot
  else if speculative || scanning t then Cold
  else Hot

let mk_frame t ~pins ~speculative page_id =
  {
    page_id;
    data = Bytes.create (Disk.payload_size t.disk);
    latch = Mutex.create ();
    failed = false;
    dirty = false;
    rec_lsn = 0;
    pins = Atomic.make pins;
    logged = Atomic.make 0;
    seg = Hot;
    referenced = not speculative;
    linked = false;
    prev = None;
    next = None;
    claim = None;
  }

let note_fix t page_id ~hit =
  match t.obs with
  | None -> ()
  | Some obs -> Natix_obs.Obs.emit obs (Natix_obs.Event.Page_fix { page = page_id; hit })

(* Undo a frame that never became (or no longer is) valid: take it out of
   its shard (only if it is still the table's entry for the page — a
   concurrent eviction may already have removed it) and off its LRU chain.
   Called with no locks held. *)
let remove_frame t f =
  let si = stripe_of f.page_id in
  lock_stripe t si;
  (match Hashtbl.find_opt t.tables.(si) f.page_id with
  | Some g when g == f -> Hashtbl.remove t.tables.(si) f.page_id
  | Some _ | None -> ());
  lock_pool t;
  if f.linked then begin
    unlink t f;
    f.linked <- false;
    t.resident <- t.resident - 1
  end;
  (match Hashtbl.find_opt t.registry f.page_id with
  | Some g when g == f -> Hashtbl.remove t.registry f.page_id
  | Some _ | None -> ());
  unlock_pool t;
  unlock_stripe t si

(* Transient read failures (an attached fault plan) are retried a few
   times before giving up; each attempt is charged to the I/O model by the
   disk, which stands in for the backoff a real driver would pay.  The
   retry event is emitted under the pool lock because concurrent domains
   may be emitting under it too (rank 2 -> 3 is ascending, so this nests
   fine under the frame latch the loader holds). *)
let read_frame t f =
  let rec go attempt =
    try Disk.read t.disk f.page_id f.data
    with Faulty_disk.Read_error _ when attempt < read_retry_limit ->
      (match t.obs with
      | None -> ()
      | Some obs ->
        with_pool t (fun () ->
            Natix_obs.Obs.emit obs
              (Natix_obs.Event.Read_retry { page = f.page_id; attempt = attempt + 1 })));
      go (attempt + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Read-ahead                                                          *)

(* A demand miss at page [p] with the previous miss at [p - 1] reveals a
   sequential run; prefetch the next [read_ahead] pages (stopping at the
   end of the disk, at the first already-resident page, and at half the
   pool so a run cannot flush the whole cache).  Frames are allocated
   first (unpinned, cold, probationary, latch held so nobody reads them
   half-filled), then filled with one batched [Disk.read_run] in ascending
   page order so the I/O model charges the run sequentially.  Advancing
   [last_miss] to the end of the prefetched run keeps a longer scan in
   read-ahead mode: its next miss is at the run frontier + 1.  Failures
   drop the unfilled frames and end the run — prefetch never fails the
   demand fix that triggered it. *)
let maybe_read_ahead t p =
  let run_detected =
    with_pool t (fun () ->
        let detected = t.read_ahead > 0 && p = t.last_miss + 1 in
        t.last_miss <- p;
        detected)
  in
  if run_detected then begin
    let window = min t.read_ahead (max 1 (t.capacity / 2)) in
    let limit = min (p + window) (Disk.page_count t.disk - 1) in
    let rec targets q acc =
      if q > limit || is_resident t q then List.rev acc else targets (q + 1) (q :: acc)
    in
    let pages = targets (p + 1) [] in
    if pages <> [] then begin
      let keep = (p + 1, p + List.length pages) in
      (* Allocate one latched frame per target page.  [None] stops the
         batch: either eviction ran out of candidates (All_frames_pinned
         must not fail the demand fix that triggered the prefetch) or a
         concurrent fix made the page resident after the residency scan. *)
      let alloc_one q =
        let si = stripe_of q in
        lock_stripe t si;
        if Hashtbl.mem t.tables.(si) q then begin
          unlock_stripe t si;
          None
        end
        else begin
          let f = mk_frame t ~pins:0 ~speculative:true q in
          lock_frame_fresh f;
          Hashtbl.replace t.tables.(si) q f;
          lock_pool t;
          (* No eviction failure may escape while the pool lock, the
             stripe, or the fresh latch is held: undo the placeholder
             first, then either stop the batch (All_frames_pinned must
             not fail the demand fix that triggered the prefetch) or
             re-raise (a crash or bad page from a dirty victim's
             write-back propagates, exactly as it does on the demand miss
             path). *)
          let outcome =
            match make_room ~keep ~held_stripe:si t with
            | () ->
              t.resident <- t.resident + 1;
              push_front t (placement t ~speculative:true) f;
              Hashtbl.replace t.registry q f;
              `Allocated
            | exception All_frames_pinned -> `Stop
            | exception e -> `Fail e
          in
          unlock_pool t;
          (match outcome with
          | `Allocated -> ()
          | `Stop | `Fail _ ->
            Hashtbl.remove t.tables.(si) q;
            unlock_frame_fresh f);
          unlock_stripe t si;
          match outcome with `Allocated -> Some f | `Stop -> None | `Fail e -> raise e
        end
      in
      let frames =
        let rec alloc acc = function
          | [] -> List.rev acc
          | q :: rest -> (
            match alloc_one q with
            | None -> List.rev acc
            | Some f -> alloc (f :: acc) rest
            | exception e ->
              (* Drop the never-filled frames already latched for this
                 run: unlatch everything first, [remove_frame] retakes
                 stripes. *)
              List.iter
                (fun f ->
                  f.failed <- true;
                  unlock_frame_fresh f)
                acc;
              List.iter (remove_frame t) acc;
              raise e)
        in
        alloc [] pages
      in
      if frames <> [] then begin
        let filled = Disk.read_run t.disk ~first:(p + 1) (List.map (fun f -> f.data) frames) in
        (* Unlatch everything before [remove_frame] retakes stripes, then
           drop the frames the run never filled. *)
        List.iteri
          (fun i f ->
            if i >= filled then f.failed <- true;
            unlock_frame_fresh f)
          frames;
        List.iteri (fun i f -> if i >= filled then remove_frame t f) frames;
        if filled > 0 then
          with_pool t (fun () ->
              t.prefetched <- t.prefetched + filled;
              t.last_miss <- p + filled;
              match t.obs with
              | None -> ()
              | Some obs ->
                Natix_obs.Obs.emit obs (Natix_obs.Event.Read_ahead { first = p + 1; pages = filled }))
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Fix / unfix                                                         *)

(* An empty pool-lock section: entering it applies the domain's hits. *)
let settle p =
  lock_pool p;
  unlock_pool p

let apply_hits () =
  let l = Domain.DLS.get hit_logs in
  match l.pool with Some p when l.len > 0 -> settle p | Some _ | None -> ()

(* The calling domain's hit log, bound to [t].  A log still holding hits
   of another pool is applied to that pool first.  A domain other than
   the main one applies its log when it exits, so a worker that never
   takes the pool lock again loses no hit. *)
let hit_log t =
  let l = Domain.DLS.get hit_logs in
  (match l.pool with
  | Some p when p == t -> ()
  | Some p ->
    if l.len > 0 then settle p;
    l.pool <- Some t
  | None ->
    if not (Domain.is_main_domain ()) then Domain.at_exit apply_hits;
    l.pool <- Some t);
  l

let log_hit t l f ~count =
  if Array.length l.hits = 0 then l.hits <- Array.make hit_log_size f;
  Atomic.incr f.logged;
  l.hits.(l.len) <- f;
  l.len <- l.len + 1;
  if count then l.counted <- l.counted + 1;
  if l.len = hit_log_size then settle t

(* [count] is [false] on the internal retry taken after a waited-on
   placeholder turned out to have failed its load: the first attempt
   already charged {!fixes} for this external call, and the sequential
   pool charges exactly one fix per call.  A retry that ends in a real
   disk read still charges {!misses} (keeping reads = misses + read-ahead
   pages an invariant), so such a call nets out as one fix that missed. *)
let rec fix_aux t ~count page_id =
  let log = hit_log t in
  let si = stripe_of page_id in
  lock_stripe t si;
  match Hashtbl.find_opt t.tables.(si) page_id with
  | Some f ->
    (* Hit.  The pin is taken under the stripe, which eviction holds while
       it re-checks pins: once pinned the frame cannot go away, so the
       stripe can be released before waiting out a load.  The LRU move
       and the fix count go to the hit log; the event goes out after the
       stripe is released, and a hit causes no other event, so the order
       of one domain's events is unchanged. *)
    Atomic.incr f.pins;
    unlock_stripe t si;
    log_hit t log f ~count;
    if count then note_fix t page_id ~hit:true;
    (* Wait for an in-flight load (no-op when the latch is free). *)
    lock_frame f;
    unlock_frame f;
    if f.failed then
      (* The loader failed and is removing the frame; retry from scratch.
         The pin taken above dies with the disowned frame. *)
      fix_aux t ~count:false page_id
    else f
  | None ->
    (* Miss: publish a latched placeholder so concurrent fixes of this
       page wait on the frame latch instead of double-reading, then do the
       disk read with only the latch held. *)
    let f = mk_frame t ~pins:1 ~speculative:false page_id in
    lock_frame f;
    Hashtbl.replace t.tables.(si) page_id f;
    lock_pool t;
    (match
       if count then t.fixes <- t.fixes + 1;
       t.misses <- t.misses + 1;
       note_fix t page_id ~hit:false;
       make_room ~held_stripe:si t;
       t.resident <- t.resident + 1;
       push_front t (placement t ~speculative:false) f;
       Hashtbl.replace t.registry page_id f
     with
    | () ->
      unlock_pool t;
      unlock_stripe t si
    | exception e ->
      (* Eviction found every frame pinned (or write-back failed): undo
         the placeholder and let the caller see the failure. *)
      unlock_pool t;
      Hashtbl.remove t.tables.(si) page_id;
      unlock_frame f;
      unlock_stripe t si;
      raise e);
    (match read_frame t f with
    | () -> unlock_frame f
    | exception e ->
      (* Drop the half-made frame so a failed read leaves no garbage. *)
      f.failed <- true;
      unlock_frame f;
      remove_frame t f;
      raise e);
    maybe_read_ahead t page_id;
    f

let fix t page_id = fix_aux t ~count:true page_id

let fix_new t page_id =
  let log = hit_log t in
  let si = stripe_of page_id in
  lock_stripe t si;
  match Hashtbl.find_opt t.tables.(si) page_id with
  | Some f ->
    Atomic.incr f.pins;
    unlock_stripe t si;
    log_hit t log f ~count:true;
    note_fix t page_id ~hit:true;
    f
  | None ->
    (* Freshly allocated page: its content is zeroes, so no read is
       needed (and none charged) — counted as a hit for the same reason,
       and the latch is never taken because the frame is valid from the
       moment it is published.  The frame is zeroed here, not read: the
       image a transaction's {!mark_dirty} captures for undo must be the
       zero page recovery can leave behind, never stale heap bytes. *)
    let f = mk_frame t ~pins:1 ~speculative:false page_id in
    Bytes.fill f.data 0 (Bytes.length f.data) '\000';
    Hashtbl.replace t.tables.(si) page_id f;
    lock_pool t;
    (match
       t.fixes <- t.fixes + 1;
       note_fix t page_id ~hit:true;
       make_room ~held_stripe:si t;
       t.resident <- t.resident + 1;
       push_front t (placement t ~speculative:false) f;
       Hashtbl.replace t.registry page_id f
     with
    | () ->
      unlock_pool t;
      unlock_stripe t si
    | exception e ->
      unlock_pool t;
      Hashtbl.remove t.tables.(si) page_id;
      unlock_stripe t si;
      raise e);
    f

let unfix _t f =
  let pins = Atomic.fetch_and_add f.pins (-1) in
  assert (pins > 0)

(* Pool lock held. *)
let current_txn t =
  if Hashtbl.length t.txns = 0 then None
  else Hashtbl.find_opt t.txns (Domain.self () :> int)

(* Callers mark a frame dirty {e before} mutating it (see {!Segment}), so
   this is where the calling domain's transaction captures the page image
   its undo record will restore.  First touch copies the payload, claims
   the page in [page_txn] and records the claim on the frame; after a
   mid-transaction steal logged the page, the next touch just reopens the
   dirty window — the tracked image already equals the frame (the steal
   advanced it).  A frame this domain's transaction already claimed
   reopens its window without the pool lock: the caller holds a pin, so
   no steal can run on it, and only commit, on this domain, clears the
   claim.  Two misuses fail loudly rather than let a page reach disk
   unprotected: a write outside any transaction on a logged pool (nothing
   would cover it), and a page already claimed by a {e different}
   in-flight transaction (a violation of the disjoint-page-sets invariant
   that makes concurrent page-level logging sound). *)
let mark_dirty t f =
  let dom = (Domain.self () :> int) in
  (match (t.wal, f.claim) with
  | None, _ -> ()
  | Some _, Some tr when tr.dom = dom -> tr.dirty_since_log <- true
  | Some _, _ ->
    with_pool t (fun () ->
        match current_txn t with
        | None ->
          invalid_arg
            (Printf.sprintf "Buffer_pool.mark_dirty: page %d written outside a transaction"
               f.page_id)
        | Some txn ->
          let tr =
            match Hashtbl.find_opt t.page_txn f.page_id with
            | Some owner when owner != txn ->
              invalid_arg
                (Printf.sprintf "Buffer_pool.mark_dirty: page %d written by txn %d and txn %d"
                   f.page_id owner.id txn.id)
            | Some _ ->
              let tr = Hashtbl.find txn.pages f.page_id in
              tr.dirty_since_log <- true;
              tr
            | None ->
              let tr = { before = Bytes.copy f.data; dirty_since_log = true; dom } in
              Hashtbl.replace txn.pages f.page_id tr;
              Hashtbl.replace t.page_txn f.page_id txn;
              tr
          in
          f.claim <- Some tr));
  f.dirty <- true

let with_page t page_id fn =
  let f = fix t page_id in
  match fn f with
  | v ->
    unfix t f;
    v
  | exception e ->
    unfix t f;
    raise e

(* Flush iterates the registry, whose iteration order reproduces the
   pre-striping pool's single hashtable exactly (see the field comment) —
   measured write sequences are bit-identical for single-domain runs. *)
let flush t = with_pool t (fun () -> Hashtbl.iter (fun _ f -> write_back t f) t.registry)

let checkpoint t =
  with_pool t (fun () ->
      if Hashtbl.length t.txns > 0 then invalid_arg "Buffer_pool.checkpoint: transaction in flight");
  flush t;
  Option.iter Wal.checkpoint t.wal

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let txn_begin t ~txn =
  match t.wal with
  | None -> invalid_arg "Buffer_pool.txn_begin: no WAL attached"
  | Some w ->
    let dom = (Domain.self () :> int) in
    with_pool t (fun () ->
        if Hashtbl.mem t.txns dom then
          invalid_arg "Buffer_pool.txn_begin: transaction in flight on this domain";
        let base = Disk.page_count t.disk in
        let lsn = Wal.log_begin w ~txn ~base in
        Hashtbl.replace t.txns dom { id = txn; last_lsn = lsn; pages = Hashtbl.create 16 })

(* Seal the calling domain's transaction: log an update record for every
   page it has moved past its last logged image (all still resident — a
   steal would have logged and cleared them), then the commit record.
   Returns the commit record's LSN for the group-commit daemon to make
   durable; nothing is forced here and no page is flushed (no-force). *)
let txn_commit_prep t =
  let dom = (Domain.self () :> int) in
  with_pool t (fun () ->
      match (t.wal, Hashtbl.find_opt t.txns dom) with
      | Some w, Some txn ->
        Hashtbl.iter
          (fun page tr ->
            if tr.dirty_since_log then begin
              match Hashtbl.find_opt t.registry page with
              | Some f ->
                let lsn =
                  Wal.log_update w ~txn:txn.id ~prev_lsn:txn.last_lsn ~page ~before:tr.before
                    ~after:f.data
                in
                txn.last_lsn <- lsn;
                tr.dirty_since_log <- false;
                f.rec_lsn <- lsn
              | None ->
                (* mark_dirty pins the frame and a steal clears the dirty
                   window, so an unlogged page is always resident. *)
                assert false
            end)
          txn.pages;
        let lsn =
          Wal.log_commit w ~txn:txn.id ~prev_lsn:txn.last_lsn
            ~page_count:(Disk.page_count t.disk)
        in
        Hashtbl.iter
          (fun page _ ->
            Hashtbl.remove t.page_txn page;
            match Hashtbl.find_opt t.registry page with
            | Some f -> f.claim <- None
            | None -> ())
          txn.pages;
        Hashtbl.remove t.txns dom;
        lsn
      | _ -> invalid_arg "Buffer_pool.txn_commit_prep: no transaction in flight on this domain")

let clear t =
  (* All stripes in index order (equal rank, total order), then the pool:
     nothing can enter or leave while the table is being emptied. *)
  for si = 0 to stripe_count - 1 do
    lock_stripe t si
  done;
  lock_pool t;
  Fun.protect
    ~finally:(fun () ->
      unlock_pool t;
      for si = stripe_count - 1 downto 0 do
        unlock_stripe t si
      done)
    (fun () ->
      Hashtbl.iter
        (fun _ f -> if Atomic.get f.pins > 0 then failwith "Buffer_pool.clear: pinned frame")
        t.registry;
      Hashtbl.iter
        (fun _ f ->
          write_back t f;
          (* Stale hit-log entries of the frame are skipped from now on. *)
          f.linked <- false)
        t.registry;
      Array.iter Hashtbl.reset t.tables;
      Hashtbl.reset t.registry;
      t.hot.head <- None;
      t.hot.tail <- None;
      t.cold.head <- None;
      t.cold.tail <- None;
      t.resident <- 0;
      t.last_miss <- -2)
