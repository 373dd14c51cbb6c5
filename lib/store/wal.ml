open Natix_util

(* Redo+undo write-ahead log (ARIES-style, steal/no-force).

   File layout.  A 24-byte header:

     [0..4)   magic "NTWL"
     [4..6)   version
     [6..8)   zero padding
     [8..12)  page size of the disk this log protects
     [12..18) next-LSN high-water mark
     [18..24) zero padding

   followed by LSN-stamped records of the form

     [0]      kind (1 = Begin, 2 = Update, 3 = Commit, 4 = Clr, 5 = End)
     [1..7)   LSN
     [7..11)  transaction id
     [11..17) previous LSN of the same transaction (Clr: undo-next LSN)
     [17..21) argument (Begin/Commit: page count; Update/Clr: page id)
     [21..25) payload length
     [25..25+len)  payload (Update: before-image ‖ after-image, each
                   [payload_size] bytes; Clr: the image being restored)
     [..+4)   CRC-32 over everything above

   Records are appended to an in-memory pending buffer and only reach the
   file at {!fsync}; the buffer pool calls [fsync] before any data-page
   write whose covering record is still pending (WAL-before-data).  The
   per-record checksum makes a torn tail detectable: recovery replays the
   longest valid prefix and truncates the rest.

   Page images are payload-only (physical page minus the integrity
   trailer): recovery restores them through [Disk.write ~lsn], which seals
   a fresh trailer, so a restored page is always well-formed.

   The log owns the store's LSN sequence ([next_lsn]).  Data-page writes
   are stamped with the LSN of the last record covering the page (0 when
   none), never with fresh draws, so every trailer stamp on disk is a
   record LSN and the redo comparison [page_lsn < record_lsn] stays sound
   across restarts.  The header's high-water mark keeps the sequence
   monotone even when a crash leaves the log with no parseable records
   (e.g. right after a checkpoint truncation): the mark is rewritten at
   every truncation point, so recovery never re-issues an LSN that a
   data-page trailer may already carry — a restarted sequence would make
   redo silently skip replay. *)

let magic = 0x4e54574c (* "NTWL" *)
let version = 3
let header_size = 24
let entry_header_size = 25

let kind_begin = 1
let kind_update = 2
let kind_commit = 3
let kind_clr = 4
let kind_end = 5

type record = {
  kind : int;
  lsn : int;
  txn : int;
  prev_lsn : int;
  arg : int;
  payload : bytes;
  pos : int;  (* file offset of the record's first byte *)
  next : int;  (* file offset just past the record *)
}

let encode ~kind ~lsn ~txn ~prev_lsn ~arg payload =
  let len = match payload with None -> 0 | Some p -> Bytes.length p in
  let total = entry_header_size + len + 4 in
  let buf = Bytes.create total in
  Bytes_util.set_u8 buf 0 kind;
  Bytes_util.set_u48 buf 1 lsn;
  Bytes_util.set_u32 buf 7 txn;
  Bytes_util.set_u48 buf 11 prev_lsn;
  Bytes_util.set_u32 buf 17 arg;
  Bytes_util.set_u32 buf 21 len;
  (match payload with None -> () | Some p -> Bytes.blit p 0 buf entry_header_size len);
  Bytes_util.set_u32 buf (entry_header_size + len)
    (Checksum.crc32 buf ~off:0 ~len:(entry_header_size + len));
  buf

(* Decode the record starting at [off]; [None] on anything short or
   CRC-invalid (a torn or never-written tail). *)
let decode buf ~off =
  let avail = Bytes.length buf - off in
  if avail < entry_header_size + 4 then None
  else begin
    let len = Bytes_util.get_u32 buf (off + 21) in
    if len < 0 || len > avail - entry_header_size - 4 then None
    else begin
      let body = entry_header_size + len in
      let stored = Bytes_util.get_u32 buf (off + body) in
      if Checksum.crc32 buf ~off ~len:body <> stored then None
      else begin
        let kind = Bytes_util.get_u8 buf off in
        if kind < kind_begin || kind > kind_end then None
        else
          Some
            {
              kind;
              lsn = Bytes_util.get_u48 buf (off + 1);
              txn = Bytes_util.get_u32 buf (off + 7);
              prev_lsn = Bytes_util.get_u48 buf (off + 11);
              arg = Bytes_util.get_u32 buf (off + 17);
              payload = Bytes.sub buf (off + entry_header_size) len;
              pos = off;
              next = off + body + 4;
            }
      end
    end
  end

type t = {
  fd : Unix.file_descr;
  page_size : int;
  payload_size : int;
  lock : Mutex.t;
  next_lsn : int Atomic.t;
  mutable file_end : int;  (* offset of the next durable record *)
  mutable pending : (int * bytes) list;  (* newest first: lsn, encoded *)
  mutable pending_count : int;
  mutable durable_lsn : int;
  mutable appends : int;
  mutable bytes_logged : int;
  mutable flushes : int;
  mutable flushed_records : int;
  obs : Natix_obs.Obs.t option;
  faults : Faulty_disk.t option;
}

let with_lock t f =
  Lock_rank.acquire Lock_rank.wal;
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.lock;
      Lock_rank.release Lock_rank.wal)
    f

let encode_header ~page_size ~next_lsn =
  let buf = Bytes.make header_size '\000' in
  Bytes_util.set_u32 buf 0 magic;
  Bytes_util.set_u16 buf 4 version;
  Bytes_util.set_u32 buf 8 page_size;
  Bytes_util.set_u48 buf 12 next_lsn;
  buf

let write_header_fd fd ~page_size ~next_lsn =
  let buf = encode_header ~page_size ~next_lsn in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  if Unix.write fd buf 0 header_size <> header_size then
    failwith "Wal: short header write"

let write_header t = write_header_fd t.fd ~page_size:t.page_size ~next_lsn:(Atomic.get t.next_lsn)

(* Rewrite [path] as an empty log whose header carries [next_lsn] as the
   high-water mark.  Recovery calls this once everything the log protected
   is on disk: the records are moot, but the mark must survive so the next
   incarnation's sequence stays above every LSN stamped on a data page. *)
let reset_file ~page_size ~next_lsn path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd 0;
      write_header_fd fd ~page_size ~next_lsn)

let pwrite_all t ~off buf =
  ignore (Unix.lseek t.fd off Unix.SEEK_SET);
  if Unix.write t.fd buf 0 (Bytes.length buf) <> Bytes.length buf then
    failwith "Wal: short append"

(* Append one record to the pending buffer (memory only — durable after
   the next {!fsync}).  Caller holds the wal lock. *)
let append_locked t ~kind ~txn ~prev_lsn ~arg payload =
  let lsn = Atomic.fetch_and_add t.next_lsn 1 in
  let buf = encode ~kind ~lsn ~txn ~prev_lsn ~arg payload in
  t.pending <- (lsn, buf) :: t.pending;
  t.pending_count <- t.pending_count + 1;
  t.appends <- t.appends + 1;
  t.bytes_logged <- t.bytes_logged + Bytes.length buf;
  lsn

(* Persist the pending records.  One fault consultation per non-empty
   batch: a crash outcome persists the prescribed subset — a prefix for
   write-crash points (with the following record torn in half, the classic
   torn tail), an arbitrary subset at true offsets for reordering faults —
   and then kills the simulated process. *)
let fsync_locked t =
  if t.pending_count > 0 then begin
    let records = Array.of_list (List.rev t.pending) in
    let n = Array.length records in
    let offsets = Array.make (n + 1) t.file_end in
    for i = 0 to n - 1 do
      offsets.(i + 1) <- offsets.(i) + Bytes.length (snd records.(i))
    done;
    let write_upto k =
      for i = 0 to k - 1 do
        pwrite_all t ~off:offsets.(i) (snd records.(i))
      done
    in
    let outcome =
      match t.faults with
      | None -> `Ok
      | Some plan -> Faulty_disk.on_fsync plan ~pending:n
    in
    (match outcome with
    | `Ok ->
      write_upto n;
      t.file_end <- offsets.(n);
      t.durable_lsn <- fst records.(n - 1);
      t.pending <- [];
      t.pending_count <- 0;
      t.flushes <- t.flushes + 1;
      t.flushed_records <- t.flushed_records + n;
      (match t.obs with
      | None -> ()
      | Some obs ->
        Natix_obs.Obs.emit obs
          (Natix_obs.Event.Wal_fsync { lsn = t.durable_lsn; records = n }))
    | `Crash_keep k ->
      let k = max 0 (min k n) in
      write_upto k;
      if k < n then begin
        let buf = snd records.(k) in
        let torn = Bytes.length buf / 2 in
        if torn > 0 then pwrite_all t ~off:offsets.(k) (Bytes.sub buf 0 torn)
      end;
      raise Faulty_disk.Crash
    | `Crash_subset keep ->
      for i = 0 to n - 1 do
        if i < Array.length keep && keep.(i) then pwrite_all t ~off:offsets.(i) (snd records.(i))
      done;
      raise Faulty_disk.Crash)
  end

let fsync t = with_lock t (fun () -> fsync_locked t)

let create ?obs ?faults ?(first_lsn = 1) ~page_size path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t =
    {
      fd;
      page_size;
      payload_size = page_size - Disk.trailer_size;
      lock = Mutex.create ();
      next_lsn = Atomic.make (max 1 first_lsn);
      file_end = header_size;
      pending = [];
      pending_count = 0;
      durable_lsn = 0;
      appends = 0;
      bytes_logged = 0;
      flushes = 0;
      flushed_records = 0;
      obs;
      faults;
    }
  in
  write_header t;
  t

let appends t = t.appends
let bytes_logged t = t.bytes_logged
let flushes t = t.flushes
let flushed_records t = t.flushed_records
let durable_lsn t = t.durable_lsn
let pending_records t = t.pending_count

let check_image t name img =
  if Bytes.length img <> t.payload_size then
    invalid_arg (Printf.sprintf "Wal.%s: image must be payload-sized" name)

let emit_update t lsn page =
  match t.obs with
  | None -> ()
  | Some obs ->
    Natix_obs.Obs.emit obs (Natix_obs.Event.Wal_append { lsn; page; bytes = 2 * t.payload_size })

(* Transaction records.  Memory-only; the caller decides when to force
   them ({!fsync} via steal or the group-commit daemon). *)

let log_begin t ~txn ~base =
  with_lock t (fun () -> append_locked t ~kind:kind_begin ~txn ~prev_lsn:0 ~arg:base None)

let log_update t ~txn ~prev_lsn ~page ~before ~after =
  check_image t "log_update" before;
  check_image t "log_update" after;
  let payload = Bytes.create (2 * t.payload_size) in
  Bytes.blit before 0 payload 0 t.payload_size;
  Bytes.blit after 0 payload t.payload_size t.payload_size;
  let lsn =
    with_lock t (fun () ->
        append_locked t ~kind:kind_update ~txn ~prev_lsn ~arg:page (Some payload))
  in
  emit_update t lsn page;
  lsn

let log_commit t ~txn ~prev_lsn ~page_count =
  with_lock t (fun () -> append_locked t ~kind:kind_commit ~txn ~prev_lsn ~arg:page_count None)

(* Truncate the log at a checkpoint: every dirty page was flushed before
   this call (force-at-checkpoint), so the records are moot. *)
let checkpoint t =
  with_lock t (fun () ->
      fsync_locked t;
      Unix.ftruncate t.fd header_size;
      (* The truncation just dropped every record whose LSN dominated the
         data-page trailers; refresh the header's high-water mark so a
         crash before the next record becomes durable cannot restart the
         sequence below those trailers. *)
      write_header t;
      t.file_end <- header_size)

let close t = Unix.close t.fd
