open Natix_util

exception Crash
exception Read_error of int

type write_outcome = [ `Ok | `Crash_torn of float | `Crash_lost ]
type fsync_outcome = [ `Ok | `Crash_keep of int | `Crash_subset of bool array ]
type fsync_mode = [ `Lose_all | `Lose_tail | `Subset ]

type t = {
  prng : Prng.t;
  mutable crash_after : int;
  mutable tearing : bool;
  mutable fail_next : int;
  mutable fsync_crash_after : int;
  mutable fsync_mode : fsync_mode;
  mutable writes_seen : int;
  mutable reads_seen : int;
  mutable fsyncs_seen : int;
  mutable crashed : bool;
}

let create ~seed () =
  {
    prng = Prng.create ~seed;
    crash_after = -1;
    tearing = true;
    fail_next = 0;
    fsync_crash_after = -1;
    fsync_mode = `Lose_all;
    writes_seen = 0;
    reads_seen = 0;
    fsyncs_seen = 0;
    crashed = false;
  }

let arm_crash ?(torn = true) t n =
  if n < 0 then invalid_arg "Faulty_disk.arm_crash: negative count";
  t.crash_after <- n;
  t.tearing <- torn;
  t.crashed <- false

let arm_fsync_crash ?(mode = `Lose_all) t n =
  if n < 0 then invalid_arg "Faulty_disk.arm_fsync_crash: negative count";
  t.fsync_crash_after <- n;
  t.fsync_mode <- mode;
  t.crashed <- false

let disarm t =
  t.crash_after <- -1;
  t.fsync_crash_after <- -1;
  t.fail_next <- 0

let fail_next_reads t n =
  if n < 0 then invalid_arg "Faulty_disk.fail_next_reads: negative count";
  t.fail_next <- n

let writes_seen t = t.writes_seen
let reads_seen t = t.reads_seen
let fsyncs_seen t = t.fsyncs_seen
let crashed t = t.crashed

(* A crashed plan keeps reporting [`Crash_lost]: once the simulated process
   is dead, nothing reaches the platters, so a caller that swallows [Crash]
   and keeps writing cannot accidentally persist post-crash state. *)
let on_write t : write_outcome =
  t.writes_seen <- t.writes_seen + 1;
  if t.crashed then `Crash_lost
  else if t.crash_after < 0 then `Ok
  else if t.writes_seen <= t.crash_after then `Ok
  else begin
    t.crashed <- true;
    if t.tearing && Prng.bool t.prng then
      (* Tear somewhere strictly inside the write, sector-ish aligned so a
         prefix of the new image lands over the old bytes. *)
      `Crash_torn (0.1 +. (0.8 *. Prng.float t.prng))
    else `Crash_lost
  end

(* A log fsync of [pending] records consults once.  Each durable record is
   charged as one write against the armed write-crash budget, so a sweep over
   "crash after n writes" also lands crash points between the records of a
   single batch — the fsync then persists the prefix that fit.  Fsync-armed
   crashes additionally model sync-specific failures: the whole batch lost,
   a random tail lost, or (reordering inside the un-fsynced window) a random
   subset persisted at its true offsets. *)
let on_fsync t ~pending : fsync_outcome =
  if pending < 0 then invalid_arg "Faulty_disk.on_fsync: negative pending";
  t.fsyncs_seen <- t.fsyncs_seen + 1;
  if t.crashed then `Crash_keep 0
  else if t.fsync_crash_after >= 0 && t.fsyncs_seen > t.fsync_crash_after then begin
    t.crashed <- true;
    match t.fsync_mode with
    | `Lose_all -> `Crash_keep 0
    | `Lose_tail -> `Crash_keep (if pending = 0 then 0 else Prng.int t.prng pending)
    | `Subset -> `Crash_subset (Array.init pending (fun _ -> Prng.bool t.prng))
  end
  else if t.crash_after >= 0 && t.writes_seen + pending > t.crash_after then begin
    let keep = max 0 (t.crash_after - t.writes_seen) in
    t.writes_seen <- t.writes_seen + pending;
    t.crashed <- true;
    `Crash_keep keep
  end
  else begin
    t.writes_seen <- t.writes_seen + pending;
    `Ok
  end

let on_read t ~page =
  t.reads_seen <- t.reads_seen + 1;
  if t.crashed then raise (Read_error page);
  if t.fail_next > 0 then begin
    t.fail_next <- t.fail_next - 1;
    raise (Read_error page)
  end
