exception Bad_page of { page : int; reason : string }

let bad ~page fmt = Printf.ksprintf (fun reason -> raise (Bad_page { page; reason })) fmt

(* Every physical page ends in a 16-byte trailer maintained by [write] and
   verified by [read]:

     [0..4)   CRC-32 over payload ^ lsn ^ page id (trailer bytes 4..14)
     [4..10)  LSN: monotone per-disk write stamp
     [10..14) page id (catches misdirected writes)
     [14..16) zero padding

   The in-memory backend stores bare payloads — there is no medium to
   corrupt — but reserves the same 16 bytes so both backends expose the
   identical [payload_size] and records pack identically. *)
let trailer_size = 16

type backend =
  | Mem of { mutable pages : bytes array; mutable used : int }
  | File of { fd : Unix.file_descr; mutable used : int; path : string }

(* One sequential-detection + accumulation context.  The default stream is
   the disk's own [stats]/[last_page] pair; inside a parallel region each
   worker domain registers a private stream so concurrent access patterns
   do not scramble each other's sequentiality and the per-domain figures
   can be merged deterministically on join. *)
type stream = { s_stats : Io_stats.t; mutable s_last_page : int }

type t = {
  page_size : int;
  payload_size : int;
  model : Io_model.t;
  stats : Io_stats.t;
  backend : backend;
  scratch : bytes;  (* one full physical page, for trailer assembly *)
  latch : Mutex.t;  (* rank 4: serialises fd/scratch/lsn/stats access *)
  mutable next_lsn : int;
  mutable last_page : int;  (* for sequential-access detection; -2 = none *)
  mutable streams : (int * stream) list;  (* domain id -> active stream *)
  mutable regions : int;  (* active parallel-region refcount *)
  mutable obs : Natix_obs.Obs.t option;
  mutable faults : Faulty_disk.t option;
}

(* The shared file descriptor (lseek-then-read), the [scratch] trailer
   buffer and the LSN counter force whole-operation serialisation; a single
   latch is both sufficient and honest about a one-spindle disk.  All
   public operations take it; [_u]-suffixed internals assume it held. *)
let with_latch t f =
  Lock_rank.acquire Lock_rank.disk;
  Mutex.lock t.latch;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.latch;
      Lock_rank.release Lock_rank.disk)
    f

(* The file backend stores a small superblock at offset 0 holding the page
   size and page count, so data page [i] lives at offset
   [(i + 1) * page_size]:

     [0..4)   magic "NATX"
     [4..6)   layout version (2 since pages grew trailers)
     [6..8)   zero padding
     [8..12)  page size
     [12..16) allocated page count *)
let superblock_magic = 0x4e415458 (* "NATX" *)

let superblock_version = 2
let superblock_size = 16

let check_page_size page_size =
  if page_size < 4 * trailer_size then
    invalid_arg (Printf.sprintf "Disk: page size %d too small (min %d)" page_size (4 * trailer_size))

(* The disk owns the simulated clock, so attaching a handle binds the
   handle's clock to this disk's [sim_ms] accumulator. *)
let set_obs t obs =
  t.obs <- obs;
  match obs with
  | Some o -> Natix_obs.Obs.set_clock o (fun () -> t.stats.Io_stats.sim_ms)
  | None -> ()

let obs t = t.obs
let set_faults t faults = t.faults <- faults
let faults t = t.faults

let in_memory ?(model = Io_model.dcas_34330w) ?obs ~page_size () =
  check_page_size page_size;
  let t =
    {
      page_size;
      payload_size = page_size - trailer_size;
      model;
      stats = Io_stats.create ();
      backend = Mem { pages = Array.make 64 Bytes.empty; used = 0 };
      scratch = Bytes.create page_size;
      latch = Mutex.create ();
      next_lsn = 1;
      last_page = -2;
      streams = [];
      regions = 0;
      obs = None;
      faults = None;
    }
  in
  set_obs t obs;
  t

let read_superblock fd page_size =
  let buf = Bytes.create superblock_size in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let n = Unix.read fd buf 0 superblock_size in
  if n <> superblock_size then bad ~page:(-1) "truncated superblock (%d of %d bytes)" n superblock_size;
  if Natix_util.Bytes_util.get_u32 buf 0 <> superblock_magic then
    bad ~page:(-1) "not a natix disk file (bad magic)";
  let version = Natix_util.Bytes_util.get_u16 buf 4 in
  if version <> superblock_version then bad ~page:(-1) "unsupported disk layout version %d" version;
  let stored_page_size = Natix_util.Bytes_util.get_u32 buf 8 in
  if stored_page_size <> page_size then
    bad ~page:(-1) "file has page size %d, expected %d" stored_page_size page_size;
  Natix_util.Bytes_util.get_u32 buf 12

let write_superblock fd ~page_size ~used =
  let buf = Bytes.make superblock_size '\000' in
  Natix_util.Bytes_util.set_u32 buf 0 superblock_magic;
  Natix_util.Bytes_util.set_u16 buf 4 superblock_version;
  Natix_util.Bytes_util.set_u32 buf 8 page_size;
  Natix_util.Bytes_util.set_u32 buf 12 used;
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let n = Unix.write fd buf 0 superblock_size in
  if n <> superblock_size then bad ~page:(-1) "short superblock write"

let detect_page_size path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let buf = Bytes.create superblock_size in
        let n = try Unix.read fd buf 0 superblock_size with Unix.Unix_error _ -> 0 in
        if
          n < superblock_size
          || Natix_util.Bytes_util.get_u32 buf 0 <> superblock_magic
          || Natix_util.Bytes_util.get_u16 buf 4 <> superblock_version
        then None
        else
          let page_size = Natix_util.Bytes_util.get_u32 buf 8 in
          if page_size < 4 * trailer_size || page_size > 1 lsl 22 then None else Some page_size)

let on_file ?(model = Io_model.dcas_34330w) ?obs ~page_size path =
  check_page_size page_size;
  let exists = Sys.file_exists path in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let used =
    if exists && Unix.((fstat fd).st_size) > 0 then begin
      match read_superblock fd page_size with
      | used -> used
      | exception e ->
        Unix.close fd;
        raise e
    end
    else begin
      write_superblock fd ~page_size ~used:0;
      0
    end
  in
  let t =
    {
      page_size;
      payload_size = page_size - trailer_size;
      model;
      stats = Io_stats.create ();
      backend = File { fd; used; path };
      scratch = Bytes.create page_size;
      latch = Mutex.create ();
      next_lsn = 1;
      last_page = -2;
      streams = [];
      regions = 0;
      obs = None;
      faults = None;
    }
  in
  set_obs t obs;
  t

let page_size t = t.page_size
let payload_size t = t.payload_size

let path t =
  match t.backend with
  | Mem _ -> None
  | File f -> Some f.path

let page_count t =
  match t.backend with
  | Mem m -> m.used
  | File f -> f.used

(* Outside a parallel region the default stream is used unconditionally,
   so jobs=1 accounting is bit-identical to the pre-parallel code.  Inside
   one, a registered worker domain charges its own stream. *)
let active_stream t =
  if t.regions = 0 then None
  else List.assoc_opt (Domain.self () :> int) t.streams

let active_stats t =
  match active_stream t with Some s -> s.s_stats | None -> t.stats

(* Simulated wall-time that is not a page transfer: the group-commit
   daemon charges its commit-delay window here.  Always lands on the
   default accumulator — batching wait is a property of the shared log,
   not of whichever worker happened to lead the flush. *)
let charge_sync_ms t ms =
  Lock_rank.acquire Lock_rank.disk;
  Mutex.lock t.latch;
  t.stats.Io_stats.sim_ms <- t.stats.Io_stats.sim_ms +. ms;
  Mutex.unlock t.latch;
  Lock_rank.release Lock_rank.disk

let charge t ~page ~is_read =
  let stats, sequential =
    match active_stream t with
    | None ->
      let sequential = page = t.last_page + 1 || page = t.last_page in
      t.last_page <- page;
      (t.stats, sequential)
    | Some s ->
      let sequential = page = s.s_last_page + 1 || page = s.s_last_page in
      s.s_last_page <- page;
      (s.s_stats, sequential)
  in
  stats.Io_stats.sim_ms <-
    stats.Io_stats.sim_ms +. Io_model.cost t.model ~page_size:t.page_size ~sequential;
  if is_read then begin
    stats.reads <- stats.reads + 1;
    if sequential then stats.sequential_reads <- stats.sequential_reads + 1
  end
  else begin
    stats.writes <- stats.writes + 1;
    if sequential then stats.sequential_writes <- stats.sequential_writes + 1
  end;
  match t.obs with
  | None -> ()
  | Some obs -> Natix_obs.Obs.emit obs (Natix_obs.Event.Io { page; write = not is_read; sequential })

(* The CRC slot lives at the start of the trailer, so the cover is the
   payload plus the trailer fields after the slot. *)
let trailer_crc t buf =
  let base = t.payload_size in
  Checksum.crc32 ~init:(Checksum.crc32 buf ~off:0 ~len:base) buf ~off:(base + 4) ~len:(trailer_size - 4)

let seal_trailer ?lsn t ~page buf =
  let base = t.payload_size in
  let lsn =
    match lsn with
    | Some l -> l
    | None ->
      let l = t.next_lsn in
      t.next_lsn <- l + 1;
      l
  in
  Natix_util.Bytes_util.set_u48 buf (base + 4) lsn;
  Natix_util.Bytes_util.set_u32 buf (base + 10) page;
  Natix_util.Bytes_util.set_u16 buf (base + 14) 0;
  Natix_util.Bytes_util.set_u32 buf base (trailer_crc t buf)

let check_trailer t ~page buf =
  let base = t.payload_size in
  let stored = Natix_util.Bytes_util.get_u32 buf base in
  if stored <> trailer_crc t buf then Error "checksum mismatch"
  else
    let stamped = Natix_util.Bytes_util.get_u32 buf (base + 10) in
    if stamped <> page then Error (Printf.sprintf "trailer names page %d" stamped) else Ok ()

(* Trailer LSN of a raw physical image ([read_raw] output), or -1 when the
   trailer fails verification — a torn page carries no trustworthy stamp,
   so redo must apply unconditionally. *)
let image_lsn t ~page buf =
  if Bytes.length buf <> t.page_size then -1
  else
    match check_trailer t ~page buf with
    | Ok () -> Natix_util.Bytes_util.get_u48 buf (t.payload_size + 4)
    | Error _ -> -1

(* All physical file writes of one page image funnel through here so the
   fault plan sees every one of them (data flushes and the zero image of a
   fresh allocation alike). *)
let write_physical t fd ~page image =
  let offset = (page + 1) * t.page_size in
  ignore (Unix.lseek fd offset Unix.SEEK_SET);
  let full () =
    let n = Unix.write fd image 0 t.page_size in
    if n <> t.page_size then bad ~page "short write (%d of %d bytes)" n t.page_size
  in
  match t.faults with
  | None -> full ()
  | Some plan -> (
    match Faulty_disk.on_write plan with
    | `Ok -> full ()
    | `Crash_lost -> raise Faulty_disk.Crash
    | `Crash_torn frac ->
      let keep = max 1 (min (t.page_size - 1) (int_of_float (frac *. float_of_int t.page_size))) in
      ignore (Unix.write fd image 0 keep);
      raise Faulty_disk.Crash)

let allocate_u t =
  match t.backend with
  | Mem m ->
    if m.used = Array.length m.pages then begin
      let bigger = Array.make (2 * m.used) Bytes.empty in
      Array.blit m.pages 0 bigger 0 m.used;
      m.pages <- bigger
    end;
    m.pages.(m.used) <- Bytes.make t.payload_size '\000';
    m.used <- m.used + 1;
    m.used - 1
  | File f ->
    let page = f.used in
    Bytes.fill t.scratch 0 t.page_size '\000';
    (* A fresh page has no covering log record: stamp LSN 0 so redo always
       applies the first record that ever touches it. *)
    seal_trailer ~lsn:0 t ~page t.scratch;
    write_physical t f.fd ~page t.scratch;
    f.used <- f.used + 1;
    write_superblock f.fd ~page_size:t.page_size ~used:f.used;
    page

let allocate t = with_latch t (fun () -> allocate_u t)

let check_bounds t page =
  if page < 0 || page >= page_count t then
    invalid_arg (Printf.sprintf "Disk: page %d out of bounds (count %d)" page (page_count t))

let read_physical t fd ~page buf =
  ignore (Unix.lseek fd ((page + 1) * t.page_size) Unix.SEEK_SET);
  let rec fill off =
    if off < t.page_size then begin
      let n = Unix.read fd buf off (t.page_size - off) in
      if n = 0 then bad ~page "short read (%d of %d bytes)" off t.page_size;
      fill (off + n)
    end
  in
  fill 0

let checksum_failed t page reason =
  (match t.obs with
  | None -> ()
  | Some obs -> Natix_obs.Obs.emit obs (Natix_obs.Event.Checksum_fail { page }));
  bad ~page "%s" reason

let read_u t page buf =
  check_bounds t page;
  assert (Bytes.length buf = t.payload_size);
  (match t.faults with None -> () | Some plan -> Faulty_disk.on_read plan ~page);
  charge t ~page ~is_read:true;
  match t.backend with
  | Mem m -> Bytes.blit m.pages.(page) 0 buf 0 t.payload_size
  | File f ->
    read_physical t f.fd ~page t.scratch;
    (match check_trailer t ~page t.scratch with
    | Ok () -> ()
    | Error reason -> checksum_failed t page reason);
    Bytes.blit t.scratch 0 buf 0 t.payload_size

let read t page buf = with_latch t (fun () -> read_u t page buf)

let write_u ?lsn t page buf =
  check_bounds t page;
  assert (Bytes.length buf = t.payload_size);
  charge t ~page ~is_read:false;
  match t.backend with
  | Mem m -> (
    match t.faults with
    | None -> Bytes.blit buf 0 m.pages.(page) 0 t.payload_size
    | Some plan -> (
      match Faulty_disk.on_write plan with
      | `Ok -> Bytes.blit buf 0 m.pages.(page) 0 t.payload_size
      | `Crash_lost -> raise Faulty_disk.Crash
      | `Crash_torn frac ->
        let keep = max 1 (int_of_float (frac *. float_of_int t.payload_size)) in
        Bytes.blit buf 0 m.pages.(page) 0 (min keep t.payload_size);
        raise Faulty_disk.Crash))
  | File f ->
    Bytes.blit buf 0 t.scratch 0 t.payload_size;
    seal_trailer ?lsn t ~page t.scratch;
    write_physical t f.fd ~page t.scratch

let write ?lsn t page buf = with_latch t (fun () -> write_u ?lsn t page buf)

(* Pages are read in ascending order, so [charge] prices the run as one
   seek plus sequential transfers — the same total as
   [Io_model.run_cost ~pages].  A failing page ends the run early instead
   of raising: read-ahead is speculative and must never fail the demand
   read that triggered it.  One latch hold covers the whole run, keeping
   the batch physically contiguous from the charged stream's viewpoint. *)
let read_run t ~first ?(speculative = true) bufs =
  with_latch t (fun () ->
      let completed = ref 0 in
      (try
         List.iteri
           (fun i buf ->
             let page = first + i in
             read_u t page buf;
             if speculative then begin
               let stats = active_stats t in
               stats.Io_stats.read_ahead_pages <- stats.Io_stats.read_ahead_pages + 1
             end;
             incr completed)
           bufs
       with Bad_page _ | Faulty_disk.Read_error _ -> ());
      !completed)

(* Raw (trailer-included) page access for the WAL and recovery.  No fault
   injection and no checksum verification: recovery must be able to read
   torn pages and put back exact pre-images, trailers and all. *)

let read_raw t page buf =
  with_latch t (fun () ->
      check_bounds t page;
      assert (Bytes.length buf = t.page_size);
      charge t ~page ~is_read:true;
      match t.backend with
      | Mem m ->
        Bytes.fill buf 0 t.page_size '\000';
        Bytes.blit m.pages.(page) 0 buf 0 t.payload_size
      | File f -> read_physical t f.fd ~page buf)

let verify t page =
  with_latch t (fun () ->
      if page < 0 || page >= page_count t then Error "page out of bounds"
      else
        match t.backend with
        | Mem _ -> Ok ()
        | File f -> (
          charge t ~page ~is_read:true;
          match read_physical t f.fd ~page t.scratch with
          | () -> check_trailer t ~page t.scratch
          | exception Bad_page { reason; _ } -> Error reason))

let set_page_count t n =
  with_latch t (fun () ->
      if n < 0 || n > page_count t then
        invalid_arg (Printf.sprintf "Disk.set_page_count: %d not in [0, %d]" n (page_count t));
      match t.backend with
      | Mem m ->
        for p = n to m.used - 1 do
          m.pages.(p) <- Bytes.empty
        done;
        m.used <- n
      | File f ->
        f.used <- n;
        Unix.ftruncate f.fd ((n + 1) * t.page_size);
        write_superblock f.fd ~page_size:t.page_size ~used:n)

let stats t = t.stats
let model t = t.model
let size_bytes t = page_count t * t.page_size

(* ------------------------------------------------------------------ *)
(* Parallel regions and per-domain stat streams                        *)

let enter_parallel_region t = with_latch t (fun () -> t.regions <- t.regions + 1)

let exit_parallel_region t =
  with_latch t (fun () ->
      if t.regions <= 0 then invalid_arg "Disk.exit_parallel_region: no active region";
      t.regions <- t.regions - 1)

let in_parallel_region t = t.regions > 0

let with_stream t f =
  let id = (Domain.self () :> int) in
  let s = { s_stats = Io_stats.create (); s_last_page = -2 } in
  with_latch t (fun () -> t.streams <- (id, s) :: t.streams);
  let remove () =
    with_latch t (fun () ->
        let rec drop = function
          | [] -> []
          | (i, x) :: rest when i = id && x == s -> rest
          | entry :: rest -> entry :: drop rest
        in
        t.streams <- drop t.streams)
  in
  match f () with
  | v ->
    remove ();
    (v, s.s_stats)
  | exception e ->
    remove ();
    raise e

let close t =
  match t.backend with
  | Mem _ -> ()
  | File f -> Unix.close f.fd
