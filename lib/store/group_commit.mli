(** Group-commit daemon: one fsync durably commits every transaction whose
    commit record is already in the WAL's pending buffer.

    Committers call {!commit} with the LSN of their commit record.  If the
    durability watermark already covers it, they return immediately (their
    record rode a previous flush).  Otherwise one committer becomes the
    {e leader}: it waits out the configured [commit_delay] — the batching
    window during which later committers append their records — then
    forces the log once for the whole group.  The window is realized on
    the wall clock (the leader sleeps, so concurrent committers genuinely
    join the batch) and charged to the simulated clock so the I/O model
    prices it.  Followers block on a condition variable and are woken by
    the leader's broadcast; they never fsync themselves.

    If the leader's flush raises (e.g. an armed fsync fault), the daemon is
    {e poisoned}: the leader re-raises the crash, and every waiting or
    subsequent committer gets [Error reason] immediately — a commit never
    hangs on a dead log. *)

type t

(** [create ~charge wal] wraps [wal].  [commit_delay] (milliseconds,
    default 0) is the leader's batching window: slept on the wall clock
    and charged through [charge] so it also lands on the I/O model's
    clock. *)
val create : ?commit_delay:float -> charge:(float -> unit) -> Wal.t -> t

(** Block until the commit record at [lsn] is durable.  [Error reason]
    when the daemon is (or becomes) poisoned.  Re-raises the underlying
    crash only in the leader whose own flush died. *)
val commit : t -> lsn:int -> (unit, string) result

(** Flushes led through the daemon (each shared by one or more
    transactions). *)
val flushes : t -> int

(** Commit requests satisfied; [committed / flushes] is the group-commit
    batching factor. *)
val committed : t -> int

val poisoned : t -> bool
