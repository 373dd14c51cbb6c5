(** Deterministic fault injection for the disk layer.

    A fault plan is attached to a {!Disk.t} (and shared with its {!Wal.t});
    every physical page or log write consults {!on_write} and every page
    read consults {!on_read}.  All randomness comes from the plan's own
    {!Natix_util.Prng}, so a given seed reproduces the exact same failure
    byte-for-byte — the crash-consistency harness sweeps "crash after [n]
    writes" points this way.

    Simulated failures:
    - {b crash after N writes} ({!arm_crash}): the [n+1]-th write either
      tears (a prefix of the new image is persisted over the old bytes) or
      is lost entirely, and {!Crash} is raised to kill the simulated
      process.  After a crash every further write is lost and every read
      fails, so leaked handles cannot persist post-mortem state.
    - {b transient read errors} ({!fail_next_reads}):
      {!Read_error} is raised; the buffer pool retries these. *)

(** The simulated process death.  Escapes through every store layer; the
    test harness catches it, closes the file descriptors, and reopens the
    store to exercise recovery. *)
exception Crash

(** A transient read failure on the given page (a retry may succeed). *)
exception Read_error of int

(** What a single write should do: complete, persist only a prefix
    ([`Crash_torn fraction], fraction in (0, 1)) and crash, or be dropped
    entirely and crash. *)
type write_outcome = [ `Ok | `Crash_torn of float | `Crash_lost ]

(** What a log fsync of [pending] buffered records should do: persist all
    of them, persist only the first [k] and crash ([`Crash_keep k]), or —
    modelling write reordering inside the un-fsynced window — persist an
    arbitrary subset at their true file offsets and crash
    ([`Crash_subset keep], one flag per pending record). *)
type fsync_outcome = [ `Ok | `Crash_keep of int | `Crash_subset of bool array ]

(** Failure shape for an armed fsync crash: the whole batch lost, a random
    tail lost, or a random subset surviving (reordering). *)
type fsync_mode = [ `Lose_all | `Lose_tail | `Subset ]

type t

val create : seed:int64 -> unit -> t

(** [arm_crash t n] makes the [n+1]-th subsequent write crash ([n = 0]
    crashes the very next write).  [torn] (default true) allows the crashing
    write to be torn; otherwise it is always lost whole. *)
val arm_crash : ?torn:bool -> t -> int -> unit

(** [arm_fsync_crash t n] makes the [n+1]-th subsequent log fsync crash with
    the given {!fsync_mode} (default [`Lose_all]). *)
val arm_fsync_crash : ?mode:fsync_mode -> t -> int -> unit

(** Clear the crash triggers and any pending read failures ({!crashed}
    state is kept). *)
val disarm : t -> unit

(** Fail exactly the next [n] reads, then recover. *)
val fail_next_reads : t -> int -> unit

(** Writes observed so far (used to size crash-point sweeps). *)
val writes_seen : t -> int

val reads_seen : t -> int

(** Log fsyncs observed so far (used to size fsync-fault sweeps). *)
val fsyncs_seen : t -> int

(** True once the armed crash has fired. *)
val crashed : t -> bool

(** Called by the disk/WAL before each write; when the result is a crash
    outcome the caller persists the prescribed prefix (if torn) and then
    raises {!Crash}. *)
val on_write : t -> write_outcome

(** Called by the WAL once per non-empty fsync batch; [pending] is the
    number of buffered records.  On [`Ok] the records count as [pending]
    writes against the armed write-crash budget; a write-crash point landing
    inside the batch persists the prefix that fit and crashes. *)
val on_fsync : t -> pending:int -> fsync_outcome

(** Called by the disk before each page read.
    @raise Read_error when the plan says this read fails. *)
val on_read : t -> page:int -> unit
