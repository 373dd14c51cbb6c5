module Lock_rank = Natix_store.Lock_rank

type t = {
  mu : Mutex.t;
  turn : Condition.t;
  mutable readers : int;  (* active shared holders *)
  mutable writer : bool;  (* an exclusive holder is active *)
  mutable waiting_writers : int;
}

let create () =
  { mu = Mutex.create (); turn = Condition.create (); readers = 0; writer = false;
    waiting_writers = 0 }

(* The internal mutex is only ever held for the state transition below —
   never across a request — so the rank checker tracks the *gate* (rank
   [tenant], held across execution), not the mutex. *)

(* Gate waits show up in request traces as [gate.read]/[gate.write]
   intervals on the request's simulated clock — zero-length when the gate
   was free, the blocked window (other requests' I/O advancing the
   clock) when it was not.  Sampling happens outside the mutex; the
   tracer is per-domain state and charges nothing. *)
let gate_now () =
  match Natix_trace.Trace.active () with
  | None -> 0.
  | Some tr -> Natix_trace.Trace.clock tr

let gate_waited name t0 =
  match Natix_trace.Trace.active () with
  | None -> ()
  | Some tr -> Natix_trace.Trace.interval tr name ~t0 ~t1:(Natix_trace.Trace.clock tr)

let lock_read t =
  let t0 = gate_now () in
  Lock_rank.acquire Lock_rank.tenant;
  Mutex.lock t.mu;
  (* Queue behind waiting writers, or a query stream starves loads. *)
  while t.writer || t.waiting_writers > 0 do
    Condition.wait t.turn t.mu
  done;
  t.readers <- t.readers + 1;
  Mutex.unlock t.mu;
  gate_waited "gate.read" t0

let unlock_read t =
  Mutex.lock t.mu;
  t.readers <- t.readers - 1;
  if t.readers = 0 then Condition.broadcast t.turn;
  Mutex.unlock t.mu;
  Lock_rank.release Lock_rank.tenant

let lock_write t =
  let t0 = gate_now () in
  Lock_rank.acquire Lock_rank.tenant;
  Mutex.lock t.mu;
  t.waiting_writers <- t.waiting_writers + 1;
  while t.writer || t.readers > 0 do
    Condition.wait t.turn t.mu
  done;
  t.waiting_writers <- t.waiting_writers - 1;
  t.writer <- true;
  Mutex.unlock t.mu;
  gate_waited "gate.write" t0

let unlock_write t =
  Mutex.lock t.mu;
  t.writer <- false;
  Condition.broadcast t.turn;
  Mutex.unlock t.mu;
  Lock_rank.release Lock_rank.tenant

let with_read t f =
  lock_read t;
  Fun.protect ~finally:(fun () -> unlock_read t) f

let with_write t f =
  lock_write t;
  Fun.protect ~finally:(fun () -> unlock_write t) f
