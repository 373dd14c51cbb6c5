(* Group commit: batch WAL fsyncs across concurrently committing
   transactions.

   Leader/follower, no dedicated thread.  A committer whose commit record
   is already covered by the durability watermark returns immediately — it
   shared a previous flush.  Otherwise the first committer to find no
   flush in progress becomes the leader: it releases the daemon lock,
   waits out the configured commit delay — the batching window during
   which concurrently committing transactions append their records into
   the same batch — then forces the log and republishes the watermark.
   The window is real wall-clock time (the leader sleeps, so followers
   genuinely pile in) and is also charged to the simulated clock so the
   I/O model prices it.  Followers wait on the condition variable; they
   never fsync themselves.

   Failure is total: if the leader's flush raises (an armed fsync fault
   killing the simulated process), the daemon is poisoned — the leader
   re-raises so the harness sees the crash, and every waiting or later
   committer gets a typed error immediately.  Nobody hangs. *)

type t = {
  wal : Wal.t;
  commit_delay : float;
  charge : float -> unit;  (* commit-delay window, on the simulated clock *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable acked_upto : int;  (* commit records at or below this LSN are durable *)
  mutable flushing : bool;
  mutable poisoned : string option;
  mutable flushes : int;  (* flushes led through this daemon *)
  mutable committed : int;  (* commit requests satisfied *)
}

let create ?(commit_delay = 0.) ~charge wal =
  {
    wal;
    commit_delay;
    charge;
    lock = Mutex.create ();
    cond = Condition.create ();
    acked_upto = Wal.durable_lsn wal;
    flushing = false;
    poisoned = None;
    flushes = 0;
    committed = 0;
  }

let flushes t = t.flushes
let committed t = t.committed
let poisoned t = t.poisoned <> None

(* The daemon lock nests inside a committer's document latch and outside
   nothing: the leader drops it before touching the log, so no wal/disk
   rank is ever taken under it. *)
let with_lock t f =
  Lock_rank.acquire Lock_rank.structure;
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.lock;
      Lock_rank.release Lock_rank.structure)
    f

(* Wait until the commit record at [lsn] is durable.  [Ok ()] when a flush
   (ours or a leader's we shared) covered it; [Error reason] when the
   daemon is poisoned.  Raises only in the leader whose own flush died, so
   the original crash propagates exactly once.

   When the calling domain carries an ambient request trace, commit
   latency decomposes into two sibling spans: [commit.queue] (entry
   until our covering flush began — leadership wait, or the whole stay
   for a follower/fast-path committer) and, for the leader only,
   [commit.fsync] (the commit-delay window plus the log force).  The
   tracer never charges the clock, so traced and untraced commits cost
   identical simulated time. *)
let commit t ~lsn =
  let trace = Natix_trace.Trace.active () in
  let tnow () = match trace with None -> 0. | Some tr -> Natix_trace.Trace.clock tr in
  let entered = tnow () in
  let led = ref None in
  let result =
    with_lock t (fun () ->
        let result = ref None in
        while !result = None do
          match t.poisoned with
          | Some reason -> result := Some (Error reason)
          | None ->
            if t.acked_upto >= lsn then begin
              t.committed <- t.committed + 1;
              result := Some (Ok ())
            end
            else if not t.flushing then begin
              t.flushing <- true;
              Mutex.unlock t.lock;
              Lock_rank.release Lock_rank.structure;
              let flush_start = tnow () in
              (match
                 if t.commit_delay > 0. then begin
                   t.charge t.commit_delay;
                   Unix.sleepf (t.commit_delay /. 1000.)
                 end;
                 Wal.fsync t.wal
               with
              | () ->
                led := Some (flush_start, tnow ());
                Lock_rank.acquire Lock_rank.structure;
                Mutex.lock t.lock;
                t.flushing <- false;
                t.acked_upto <- Wal.durable_lsn t.wal;
                t.flushes <- t.flushes + 1;
                Condition.broadcast t.cond
              | exception e ->
                (* Relock and re-raise; [with_lock]'s finally releases. *)
                Lock_rank.acquire Lock_rank.structure;
                Mutex.lock t.lock;
                t.flushing <- false;
                t.poisoned <- Some (Printexc.to_string e);
                Condition.broadcast t.cond;
                raise e)
            end
            else Condition.wait t.cond t.lock
        done;
        match !result with Some r -> r | None -> assert false)
  in
  (match trace with
  | None -> ()
  | Some tr -> (
    match !led with
    | Some (f0, f1) ->
      Natix_trace.Trace.interval tr "commit.queue" ~t0:entered ~t1:f0;
      Natix_trace.Trace.interval tr "commit.fsync" ~t0:f0 ~t1:f1
    | None -> Natix_trace.Trace.interval tr "commit.queue" ~t0:entered ~t1:(tnow ())));
  result
