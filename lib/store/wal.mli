(** Redo+undo write-ahead log (ARIES-style, steal/no-force).

    Every mutation appends an LSN-stamped record carrying both the
    before-image and the after-image of the page it touches; records
    accumulate in a pending buffer and reach the file at {!fsync}.  The
    buffer pool enforces {e WAL-before-data}: a dirty page is written home
    only after the records covering it are durable.  Commit durability is
    a single [fsync] of the transaction's records — data pages may follow
    at leisure (no-force), since redo replays the after-images; and dirty
    pages of in-flight transactions may be stolen early, since undo
    restores the before-images.

    The log also owns the store's single LSN sequence; data pages are
    stamped with the LSN of the last record covering them, so recovery can
    compare a page's trailer LSN against a record's LSN to decide whether
    the page already contains that record's effect.

    Every record belongs to a transaction: its records are forced at
    commit by the group-commit daemon, or earlier when a steal writes a
    page home.  {!checkpoint} truncates the log once every dirty page is
    home (force-at-checkpoint), so the log file always starts at the most
    recent checkpoint — the redo pass scans from the file start.

    Every record carries its own CRC-32, so a tail torn by a crash
    mid-flush is detected; recovery truncates the log at the last valid
    record.  One log file per store, at [<store path> ^ ".wal"]. *)

type t

(** [create ~page_size path] truncates/creates the log — call only after
    {!Recovery.run} has consumed any previous log.  [first_lsn]
    (default 1) seeds the LSN sequence strictly above every LSN the
    recovered store has seen.  [faults] shares the disk's fault-injection
    plan so crash points cover log fsyncs too. *)
val create :
  ?obs:Natix_obs.Obs.t ->
  ?faults:Faulty_disk.t ->
  ?first_lsn:int ->
  page_size:int ->
  string ->
  t

(** {2 LSN sequence} *)

(** Highest LSN known durable (last record of the last successful
    {!fsync}). *)
val durable_lsn : t -> int

(** Records appended but not yet fsynced. *)
val pending_records : t -> int

(** {2 Transactions} *)

(** Append a transaction-begin record; [base] is the page count at begin.
    Returns the record's LSN.  Memory-only until {!fsync}. *)
val log_begin : t -> txn:int -> base:int -> int

(** Append an update record for [page]: [before] and [after] are
    payload-sized images.  [prev_lsn] chains the transaction's records for
    the undo pass. *)
val log_update : t -> txn:int -> prev_lsn:int -> page:int -> before:bytes -> after:bytes -> int

(** Append the commit record; [page_count] is the allocation watermark the
    store truncates to when rolling back {e later} losers. *)
val log_commit : t -> txn:int -> prev_lsn:int -> page_count:int -> int

(** Force all pending records to the file.  One fault-plan consultation
    per non-empty batch; a crash outcome persists the prescribed subset
    and raises {!Faulty_disk.Crash}. *)
val fsync : t -> unit

(** [checkpoint t] forces any pending records, then truncates the log and
    rewrites the header's LSN high-water mark.  Call only after every
    dirty page has been flushed. *)
val checkpoint : t -> unit

(** {2 Counters} *)

(** Records appended since {!create}. *)
val appends : t -> int

(** Total log bytes appended since {!create} — the numerator of the WAL
    write-amplification ratio reported by the benchmarks. *)
val bytes_logged : t -> int

(** Successful fsync batches, and records they carried — the group-commit
    ablation reports [flushed_records / flushes]. *)
val flushes : t -> int

val flushed_records : t -> int
val close : t -> unit

(** [reset_file ~page_size ~next_lsn path] rewrites [path] as an empty
    log whose header carries [next_lsn] as the LSN high-water mark.
    Recovery finishes with this instead of a bare truncation: the mark is
    what keeps the LSN sequence monotone across incarnations when the log
    holds no records, so redo's [page_lsn < record_lsn] comparison never
    meets a re-issued LSN. *)
val reset_file : page_size:int -> next_lsn:int -> string -> unit

(** {2 On-disk format (shared with {!Recovery})} *)

val magic : int
val version : int
val header_size : int
val kind_begin : int
val kind_update : int
val kind_commit : int
val kind_clr : int
val kind_end : int

(** A decoded record.  [prev_lsn] is the same-transaction back-chain (for
    a CLR: the undo-next LSN).  [pos]/[next] delimit the record's bytes in
    the file. *)
type record = {
  kind : int;
  lsn : int;
  txn : int;
  prev_lsn : int;
  arg : int;
  payload : bytes;
  pos : int;
  next : int;
}

(** Encode a record (header, payload, CRC) — used by recovery to append
    CLR and end records to an existing log. *)
val encode : kind:int -> lsn:int -> txn:int -> prev_lsn:int -> arg:int -> bytes option -> bytes

(** Decode the record starting at [off]; [None] on a short or CRC-invalid
    tail. *)
val decode : bytes -> off:int -> record option
