(* Three-pass ARIES-style recovery: analysis, redo, undo.

   The log file always starts at the most recent checkpoint (Wal.checkpoint
   truncates it), so the redo scan begins at the file's first record.

   Analysis walks the longest CRC-valid prefix of the log, truncating any
   torn tail, and classifies every transaction: committed (a Commit record
   is durable), ended (fully undone by a previous recovery attempt), or a
   loser.  Redo repeats history: every Update and Clr after-image whose LSN
   is newer than the page's trailer stamp is replayed, stamping the
   record's own LSN so the pass is idempotent.  Undo rolls the losers back
   newest-first along their prev_lsn chains, writing a compensation record
   (CLR, carrying the restored image and an undo-next pointer) before each
   page restore — WAL-before-data holds during recovery too — and an End
   record once a loser's Begin is reached.  A crash at any point during
   recovery leaves a log the next recovery handles: CLRs are redone like
   updates, and undo resumes from the last CLR's undo-next pointer.

   The LSN sequence handed to the next incarnation ([report.next_lsn])
   must dominate every LSN a data-page trailer may carry, or redo's
   [page_lsn < record_lsn] comparison would silently skip replay of new
   records.  Parsed records alone cannot guarantee that: a crash right
   after a checkpoint truncation (or during the fresh log's first flush)
   leaves a log with no records while trailers still carry LSNs from the
   previous incarnation.  So the WAL header persists a next-LSN
   high-water mark, rewritten at every truncation point, and recovery
   seeds the sequence from [max (log max LSN + 1) mark]; if the header
   itself is unreadable, the fallback is a scan of every data-page
   trailer on the disk. *)

type report = {
  ran : bool;
  clean : bool;
  redone : int;
  undone : int;
  losers : int;
  torn_bytes : int;
  page_count : int;
  next_lsn : int;
}

let no_op disk =
  {
    ran = false;
    clean = true;
    redone = 0;
    undone = 0;
    losers = 0;
    torn_bytes = 0;
    page_count = Disk.page_count disk;
    next_lsn = 1;
  }

let wal_path store_path = store_path ^ ".wal"

let read_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = Unix.((fstat fd).st_size) in
      let buf = Bytes.create size in
      let rec fill off =
        if off < size then begin
          let n = Unix.read fd buf off (size - off) in
          if n = 0 then Bytes.sub buf 0 off else fill (off + n)
        end
        else buf
      in
      fill 0)

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

(* Highest LSN stamped on any data-page trailer — the fallback seed for
   the LSN sequence when the log's header (and with it the persisted
   high-water mark) is unreadable.  Pages whose trailer fails its
   checksum contribute nothing: a torn page never completed the write
   that would have stamped a newer LSN. *)
let max_page_lsn disk =
  let buf = Bytes.create (Disk.page_size disk) in
  let m = ref 0 in
  for page = 0 to Disk.page_count disk - 1 do
    Disk.read_raw disk page buf;
    let lsn = Disk.image_lsn disk ~page buf in
    if lsn > !m then m := lsn
  done;
  !m

(* Parse the longest valid prefix; returns the records in log order and
   the offset where validity ends. *)
let parse buf =
  let records = ref [] in
  let off = ref Wal.header_size in
  let stop = ref false in
  while not !stop do
    match Wal.decode buf ~off:!off with
    | None -> stop := true
    | Some r ->
      records := r :: !records;
      off := r.Wal.next
  done;
  (List.rev !records, !off)

(* Per-transaction analysis state.  [cursor] is the LSN of the next record
   to examine when undoing: each Update moves it forward, each CLR snaps
   it back past the record that CLR already compensated. *)
type txn_state = {
  mutable committed : bool;
  mutable ended : bool;
  mutable cursor : int;
  mutable touched : bool;  (* logged at least one Update/Clr: real work to undo *)
}

(* Append one record to the log during undo, consulting the fault plan so
   crash-point sweeps cover recovery's own writes (a torn CLR at the tail
   is exactly what the next recovery's parser truncates). *)
let append_record fd ~faults buf =
  let total = Bytes.length buf in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let full () =
    if Unix.write fd buf 0 total <> total then failwith "Recovery: short log append"
  in
  match faults with
  | None -> full ()
  | Some plan -> (
    match Faulty_disk.on_write plan with
    | `Ok -> full ()
    | `Crash_lost -> raise Faulty_disk.Crash
    | `Crash_torn frac ->
      let keep = max 1 (min (total - 1) (int_of_float (frac *. float_of_int total))) in
      ignore (Unix.write fd buf 0 keep);
      raise Faulty_disk.Crash)

let run ?obs disk =
  match Disk.path disk with
  | None -> no_op disk
  | Some store_path ->
    let wal = wal_path store_path in
    if not (Sys.file_exists wal) then no_op disk
    else begin
      let buf = read_file wal in
      let size = Bytes.length buf in
      let page_size = Disk.page_size disk in
      let payload_size = page_size - Disk.trailer_size in
      let header_ok =
        size >= Wal.header_size
        && Natix_util.Bytes_util.get_u32 buf 0 = Wal.magic
        && Natix_util.Bytes_util.get_u16 buf 4 = Wal.version
        && Natix_util.Bytes_util.get_u32 buf 8 = page_size
      in
      (* Highest LSN possibly in use before this crash: the header's
         high-water mark (it stores the next LSN to assign), or — when the
         header itself is torn or from a foreign format — whatever the
         data-page trailers say. *)
      let lsn_floor =
        if header_ok then max 0 (Natix_util.Bytes_util.get_u48 buf 12 - 1)
        else max_page_lsn disk
      in
      let records, valid_end = if header_ok then parse buf else ([], 0) in
      let torn_bytes = size - valid_end in
      if torn_bytes > 0 then begin
        (* Torn-tail hardening: drop the invalid suffix rather than fail —
           WAL-before-data means a record torn mid-flush never covered a
           completed data write. *)
        truncate_file wal (max valid_end 0);
        match obs with
        | None -> ()
        | Some o ->
          Natix_obs.Obs.emit o (Natix_obs.Event.Wal_torn { offset = valid_end; dropped = torn_bytes })
      end;
      (* --- Analysis --- *)
      let txns : (int, txn_state) Hashtbl.t = Hashtbl.create 8 in
      let by_lsn : (int, Wal.record) Hashtbl.t = Hashtbl.create 64 in
      let max_lsn = ref 0 in
      let last_commit_pc = ref None in
      let first_begin_base = ref None in
      List.iter
        (fun (r : Wal.record) ->
          if r.lsn > !max_lsn then max_lsn := r.lsn;
          Hashtbl.replace by_lsn r.lsn r;
          let state =
            match Hashtbl.find_opt txns r.txn with
            | Some s -> s
            | None ->
              let s = { committed = false; ended = false; cursor = 0; touched = false } in
              Hashtbl.add txns r.txn s;
              s
          in
          match r.kind with
          | k when k = Wal.kind_begin ->
            if !first_begin_base = None then first_begin_base := Some r.arg;
            state.cursor <- r.lsn
          | k when k = Wal.kind_update ->
            state.cursor <- r.lsn;
            state.touched <- true
          | k when k = Wal.kind_commit ->
            state.committed <- true;
            last_commit_pc := Some r.arg
          | k when k = Wal.kind_clr ->
            state.cursor <- r.prev_lsn;
            state.touched <- true
          | k when k = Wal.kind_end -> state.ended <- true
          | _ -> ())
        records;
      (* --- Redo: repeat history --- *)
      let redone = ref 0 in
      let scratch = Bytes.create page_size in
      let redo_image ~lsn ~page image =
        if page >= 0 && page < Disk.page_count disk && Bytes.length image = payload_size
        then begin
          Disk.read_raw disk page scratch;
          if Disk.image_lsn disk ~page scratch < lsn then begin
            Disk.write ~lsn disk page image;
            incr redone;
            match obs with
            | None -> ()
            | Some o -> Natix_obs.Obs.emit o (Natix_obs.Event.Recovery_redo { page })
          end
        end
      in
      List.iter
        (fun (r : Wal.record) ->
          if r.kind = Wal.kind_update then begin
            if Bytes.length r.payload = 2 * payload_size then
              redo_image ~lsn:r.lsn ~page:r.arg (Bytes.sub r.payload payload_size payload_size)
          end
          else if r.kind = Wal.kind_clr then redo_image ~lsn:r.lsn ~page:r.arg r.payload)
        records;
      (* --- Undo the losers, newest record first across transactions --- *)
      let losers = ref [] in
      (* A Begin with no logged work (a transaction that died before its
         first update reached the log) needs no undo and is not a loser. *)
      Hashtbl.iter
        (fun txn s ->
          if (not s.committed) && (not s.ended) && s.touched then losers := (txn, s) :: !losers)
        txns;
      let loser_count = List.length !losers in
      let undone = ref 0 in
      let next_lsn = ref (max !max_lsn lsn_floor + 1) in
      if loser_count > 0 then begin
        let fd = Unix.openfile wal [ Unix.O_RDWR ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let faults = Disk.faults disk in
            let fresh_lsn () =
              let l = !next_lsn in
              next_lsn := l + 1;
              l
            in
            let active = ref !losers in
            while !active <> [] do
              (* The loser whose cursor is newest undoes next, so restores
                 land in exact reverse order of mutation history. *)
              let (txn, s), rest =
                match
                  List.sort (fun ((_, a) : int * txn_state) (_, b) -> compare b.cursor a.cursor) !active
                with
                | x :: r -> (x, r)
                | [] -> assert false
              in
              match Hashtbl.find_opt by_lsn s.cursor with
              | None ->
                (* Chain exhausted (cursor 0 or pointing past the torn
                   tail): seal the transaction. *)
                append_record fd ~faults
                  (Wal.encode ~kind:Wal.kind_end ~lsn:(fresh_lsn ()) ~txn ~prev_lsn:s.cursor
                     ~arg:0 None);
                active := rest
              | Some r when r.kind = Wal.kind_begin ->
                append_record fd ~faults
                  (Wal.encode ~kind:Wal.kind_end ~lsn:(fresh_lsn ()) ~txn ~prev_lsn:r.lsn ~arg:0
                     None);
                active := rest
              | Some r when r.kind = Wal.kind_update ->
                if Bytes.length r.payload = 2 * payload_size then begin
                  let before = Bytes.sub r.payload 0 payload_size in
                  let clr_lsn = fresh_lsn () in
                  append_record fd ~faults
                    (Wal.encode ~kind:Wal.kind_clr ~lsn:clr_lsn ~txn ~prev_lsn:r.prev_lsn
                       ~arg:r.arg (Some before));
                  if r.arg >= 0 && r.arg < Disk.page_count disk then begin
                    Disk.write ~lsn:clr_lsn disk r.arg before;
                    incr undone;
                    match obs with
                    | None -> ()
                    | Some o ->
                      Natix_obs.Obs.emit o (Natix_obs.Event.Recovery_undo { page = r.arg })
                  end
                end;
                s.cursor <- r.prev_lsn;
                active := (txn, s) :: rest
              | Some r ->
                (* A CLR (its work was redone) or a stray record: follow
                   the chain. *)
                s.cursor <- r.prev_lsn;
                active := (txn, s) :: rest
            done)
      end;
      (* Roll allocations back to the watermark of the last durable commit
         (fall back to the first Begin's base: nothing ever committed). *)
      (match (!last_commit_pc, !first_begin_base) with
      | Some pc, _ when pc < Disk.page_count disk -> Disk.set_page_count disk pc
      | Some _, _ -> ()
      | None, Some base when base < Disk.page_count disk -> Disk.set_page_count disk base
      | None, _ -> ());
      (* Everything is on disk and consistent; the records are moot — but
         the header's high-water mark must survive, or a crash before the
         fresh log's first durable record would restart the LSN sequence
         below the trailers just written. *)
      Wal.reset_file ~page_size ~next_lsn:!next_lsn wal;
      (match obs with
      | None -> ()
      | Some o ->
        if !undone > 0 || torn_bytes > 0 then
          Natix_obs.Obs.emit o (Natix_obs.Event.Recovery_done { undone = !undone; torn_bytes }));
      {
        ran = true;
        clean = loser_count = 0 && torn_bytes = 0;
        redone = !redone;
        undone = !undone;
        losers = loser_count;
        torn_bytes;
        page_count = Disk.page_count disk;
        next_lsn = !next_lsn;
      }
    end
