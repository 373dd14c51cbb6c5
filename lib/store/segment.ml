(* The segment with per-document allocation arenas.

   Every page belongs to exactly one arena, recorded in the page's user32
   header field (page 0 is exempt — its user32 bootstraps the catalog —
   and always belongs to arena 0).  Arena 0 is the shared arena: the
   catalog chain, the element index, and every document not given a
   private arena allocate from it, with exactly the pre-arena segment's
   placement behaviour (rover, page-0 exclusion, one-page growth).  A
   private arena (id >= 1) allocates from only its own pages and grows by
   grabbing a batch of fresh pages from the global allocator, so two
   writers on different documents never compete for — or write to — the
   same page.  That disjointness is what makes the WAL's page-level
   redo/undo sound under concurrent transactions.

   Locking: each arena has its own lock (rank [arena]) held across a
   placement search and its possible refill; the global allocator lock
   (rank [alloc]) serialises [Disk.allocate] batches; the [meta] mutex is
   an unordered leaf serialising writes to the two registries (held only
   for table operations, never while taking another lock).  The
   page -> arena map is read without [meta] (see [page_entry]).  A domain
   holds at most one arena lock, except [release_arena], which takes
   arena 0's and the dying arena's in id order.  The refill writes go
   through [Buffer_pool.mark_dirty] before [Slotted_page.format], so
   inside a transaction the new page — ownership tag included — is
   redo-logged and survives a crash. *)

type arena = {
  id : int;
  mutable pages : int array;  (* local index -> global page id *)
  mutable npages : int;
  fsi : Fsi.t;  (* by local index *)
  mutable rover : int;  (* local index *)
  lock : Mutex.t;
}

type t = {
  pool : Buffer_pool.t;
  arenas : (int, arena) Hashtbl.t;
  page_arena : (arena * int) option array Atomic.t;  (* global page -> (arena, local) *)
  meta : Mutex.t;
  alloc_lock : Mutex.t;
  batch : int;  (* refill batch for private arenas; arena 0 grows by 1 *)
  mutable on_refill : (unit -> unit) option;  (* crash-test hook *)
}

(* Everything above the disk sees only the page payload; the integrity
   trailer is invisible here. *)
let page_size t = Disk.payload_size (Buffer_pool.disk t.pool)
let buffer_pool t = t.pool
let disk t = Buffer_pool.disk t.pool
let page_count t = Disk.page_count (disk t)
let max_record_len t = Slotted_page.max_record_len ~page_size:(page_size t)
let obs t = Buffer_pool.obs t.pool
let set_on_refill t hook = t.on_refill <- hook

let with_meta t f =
  Mutex.lock t.meta;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.meta) f

let with_arena a f =
  Lock_rank.acquire Lock_rank.arena;
  Mutex.lock a.lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock a.lock;
      Lock_rank.release Lock_rank.arena)
    f

let with_alloc t f =
  Lock_rank.acquire Lock_rank.alloc;
  Mutex.lock t.alloc_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.alloc_lock;
      Lock_rank.release Lock_rank.alloc)
    f

let mk_arena id =
  { id; pages = Array.make 8 (-1); npages = 0; fsi = Fsi.create (); rover = 0; lock = Mutex.create () }

(* The arena owning [page] and its local index there, read without
   [meta].  Writers change the map under [meta]: a slot is written in
   place, and growth publishes a filled copy through the [Atomic].  A
   domain always sees the registration of a page it writes or looks up,
   because it learns a page id only after that registration: from
   [find_space], which hands out pages of the arena's inventory under the
   arena lock that [refill] held while registering them, from a RID read
   on a page fixed after the RID's record was placed there, or after
   [create]'s reopen scan, which registers every page before returning.
   The lock releases and acquisitions (and the [Atomic]) order the
   registration's writes before the read.  A read racing a re-registration
   by [release_arena] sees the old entry or the new one, as a read taken
   before or after it under [meta] would. *)
let page_entry t page =
  let m = Atomic.get t.page_arena in
  if page < Array.length m then m.(page) else None

(* Caller holds [meta]. *)
let set_page_entry t page entry =
  let m = Atomic.get t.page_arena in
  if page < Array.length m then m.(page) <- entry
  else begin
    let bigger = Array.make (max (page + 1) (2 * Array.length m)) None in
    Array.blit m 0 bigger 0 (Array.length m);
    bigger.(page) <- entry;
    Atomic.set t.page_arena bigger
  end

(* Register [page] as the next local page of [a].  Meta lock taken here;
   the caller holds [a.lock] (or is single-threaded setup). *)
let register t a page free =
  if a.npages = Array.length a.pages then begin
    let bigger = Array.make (2 * a.npages) (-1) in
    Array.blit a.pages 0 bigger 0 a.npages;
    a.pages <- bigger
  end;
  let local = a.npages in
  a.pages.(local) <- page;
  a.npages <- local + 1;
  Fsi.append a.fsi free;
  with_meta t (fun () -> set_page_entry t page (Some (a, local)));
  local

let arena t id =
  with_meta t (fun () ->
      match Hashtbl.find_opt t.arenas id with
      | Some a -> a
      | None -> invalid_arg (Printf.sprintf "Segment: unknown arena %d" id))

let owner_of t page =
  if page = 0 then 0 else match page_entry t page with Some (a, _) -> a.id | None -> 0

let arena_ids t =
  with_meta t (fun () -> List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.arenas []))

let arena_pages t id =
  let a = arena t id in
  with_arena a (fun () -> Array.to_list (Array.sub a.pages 0 a.npages))

let fresh_arena t =
  with_meta t (fun () ->
      let id = 1 + Hashtbl.fold (fun id _ m -> max id m) t.arenas 0 in
      Hashtbl.replace t.arenas id (mk_arena id);
      id)

(* Ensure an arena struct exists for [id] (used when reopening a store
   whose catalog names arenas the page scan has not met yet). *)
let ensure_arena t id =
  with_meta t (fun () ->
      match Hashtbl.find_opt t.arenas id with
      | Some a -> a
      | None ->
        let a = mk_arena id in
        Hashtbl.replace t.arenas id a;
        a)

(* Grow [a] by fresh pages from the global allocator — [batch] pages for
   a private arena, one for the shared arena (the pre-arena growth rate,
   keeping legacy stores' allocation sequence identical).  Caller holds
   [a.lock].  Each page is marked dirty before it is formatted and
   tagged, so a transaction's refill is captured by its undo/redo
   tracking: ownership survives a crash when the transaction committed,
   and undo restores the zero page when it did not.  Returns the local
   index of the first new page. *)
let refill t a =
  (match t.on_refill with None -> () | Some hook -> hook ());
  with_alloc t (fun () ->
      let n = if a.id = 0 then 1 else t.batch in
      let first = ref (-1) in
      for _ = 1 to n do
        let page = Disk.allocate (disk t) in
        let frame = Buffer_pool.fix_new t.pool page in
        Buffer_pool.mark_dirty t.pool frame;
        Slotted_page.format frame.data;
        if a.id <> 0 then Slotted_page.set_user32 frame.data a.id;
        let free = Slotted_page.free_for_insert frame.data in
        Buffer_pool.unfix t.pool frame;
        let local = register t a page free in
        if !first < 0 then first := local
      done;
      !first)

(* Allocate and format one page in the shared arena (the legacy segment's
   [alloc_page]). *)
let alloc_page t =
  let a = arena t 0 in
  with_arena a (fun () ->
      let local = refill t a in
      a.pages.(local))

let create ?(batch = 8) pool =
  if batch < 1 then invalid_arg "Segment.create: batch must be >= 1";
  let t =
    {
      pool;
      arenas = Hashtbl.create 8;
      page_arena = Atomic.make (Array.make 256 None);
      meta = Mutex.create ();
      alloc_lock = Mutex.create ();
      batch;
      on_refill = None;
    }
  in
  Hashtbl.replace t.arenas 0 (mk_arena 0);
  let existing = Disk.page_count (Buffer_pool.disk pool) in
  if existing = 0 then ignore (alloc_page t)
  else
    (* Reopening an existing store: rebuild every arena's inventory by
       scanning, grouping pages by their ownership tag.  Pages join their
       arena in ascending page order, so a store that only ever used the
       shared arena gets local index = page id — placement behaviour (and
       the scan's I/O) is identical to the pre-arena segment.  An all-zero
       page (a crashed transaction's refill undone by recovery) reads as
       owner 0 with no insertable room: it is carried as permanently-full
       shared space, never selected for placement. *)
    for page = 0 to existing - 1 do
      Buffer_pool.with_page pool page (fun frame ->
          let owner = if page = 0 then 0 else Slotted_page.get_user32 frame.data in
          let a = ensure_arena t owner in
          ignore (register t a page (Slotted_page.free_for_insert frame.data)))
    done;
  t

let with_page t page f = Buffer_pool.with_page t.pool page (fun frame -> f frame.data)

(* Free-space bookkeeping for a mutated page goes to its owning arena,
   under that arena's lock (a concurrent placement search on the same
   arena must see a consistent inventory).  No other lock is held at the
   [Fsi.set] point: the page fix has already been released back to
   pin-only. *)
let note_free t page free =
  match page_entry t page with
  | None -> ()
  | Some (a, local) -> with_arena a (fun () -> Fsi.set a.fsi local free)

let with_page_mut t page f =
  Buffer_pool.with_page t.pool page (fun frame ->
      Buffer_pool.mark_dirty t.pool frame;
      let r = f frame.data in
      note_free t page (Slotted_page.free_for_insert frame.data);
      r)

let free_bytes t page =
  match page_entry t page with
  | None -> 0
  | Some (a, local) -> with_arena a (fun () -> Fsi.get a.fsi local)

(* Approximate page fill from the free-space inventory, so observers can
   sample fill factors without charging page accesses to the I/O model. *)
let fill_factor t page =
  let usable = page_size t - Slotted_page.header_size in
  if usable <= 0 then 1.0 else 1.0 -. (float_of_int (free_bytes t page) /. float_of_int usable)

(* Page 0 is reserved for the upper layers' catalog bootstrap; shared-
   arena placement never selects it (local index = 0 there).  A private
   arena owns none of page 0, so its whole range is eligible. *)
let find_space t ?owner ?near ?(policy = `Forward) n =
  let owner = match owner with Some o -> o | None -> ( match near with Some p -> owner_of t p | None -> 0) in
  let a = arena t owner in
  with_arena a (fun () ->
      let lo = if a.id = 0 then 1 else 0 in
      let near_local =
        match near with
        | None -> None
        | Some p -> (
          match page_entry t p with
          | Some (na, local) when na == a -> Some local
          | Some _ | None -> None)
      in
      let found =
        match near_local with
        | Some l ->
          let l = max l lo in
          if l < Fsi.pages a.fsi && Fsi.get a.fsi l >= n then Some l
          else begin
            match policy with
            | `Forward -> (
              (* Stay close to the hinted page: scan forward, then wrap. *)
              match Fsi.find_first a.fsi ~from:l n with
              | Some _ as r -> r
              | None -> Fsi.find_first a.fsi ~from:lo n)
            | `First_fit ->
              (* Generic-manager behaviour: any page with room, oldest
                 first (fills slack all over the arena). *)
              Fsi.find_first a.fsi ~from:lo n
          end
        | None -> begin
          match Fsi.find_first a.fsi ~from:(max a.rover lo) n with
          | Some _ as r -> r
          | None -> Fsi.find_first a.fsi ~from:lo n
        end
      in
      match found with
      | Some local ->
        if near = None then a.rover <- local;
        a.pages.(local)
      | None ->
        let local = refill t a in
        if near = None then a.rover <- local;
        if Fsi.get a.fsi local < n then
          invalid_arg (Printf.sprintf "Segment.find_space: %d bytes exceed page capacity" n);
        a.pages.(local))

(* Fold a dying document's private arena back into the shared one: retag
   every page to owner 0 and hand its remaining space to arena 0's
   inventory, so no page is left claiming membership of an arena the
   catalog no longer knows.  Both arena locks are taken in id order
   (0 first) — the only place a domain holds two.  [quarantine]
   registers the pages as permanently full instead of donating their
   free space: a deletion running inside a still-uncommitted transaction
   must not let another writer place shared-arena records on pages the
   transaction's undo could wipe back to zero.  Quarantined space is
   rediscovered by the reopen scan. *)
let release_arena ?(quarantine = false) t id =
  if id <> 0 then begin
    let dying = with_meta t (fun () -> Hashtbl.find_opt t.arenas id) in
    match dying with
    | None -> ()
    | Some a ->
      let shared = arena t 0 in
      with_arena shared (fun () ->
          with_arena a (fun () ->
              for local = 0 to a.npages - 1 do
                let page = a.pages.(local) in
                Buffer_pool.with_page t.pool page (fun frame ->
                    Buffer_pool.mark_dirty t.pool frame;
                    Slotted_page.set_user32 frame.data 0;
                    let free =
                      if quarantine then 0 else Slotted_page.free_for_insert frame.data
                    in
                    ignore (register t shared page free))
              done;
              a.npages <- 0);
          with_meta t (fun () -> Hashtbl.remove t.arenas id))
  end
