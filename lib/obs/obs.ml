type t = {
  sink : Sink.t option;
  counts : int Atomic.t array;  (* per tag: events emitted *)
  folded : int array;  (* per tag: the part of [counts] already in [metrics] *)
  metrics : Metrics.t;
  mutable now : unit -> float;
  mutable seq : int;
  lock : Mutex.t;
      (* Serialises metric updates, sequence stamping and delivery to the
         sink.  Worker domains share the pool's handle, so everything the
         hooks mutate is under this lock, atomic ([counts]) or
         domain-local (see [tls]). *)
  tls : tls Domain.DLS.key;
}

(* The context is {e domain-local}: a worker domain evaluating one
   document must not see (or clobber) the context another domain
   installed — operation attribution would bleed across domains
   otherwise. *)
and tls = { mutable ctx : Event.ctx option }

let record_size_hist = "record_size_bytes"
let split_fill_hist = "split_fill_factor"
let proxy_chain_hist = "proxy_chain_len"

let create ?sink () =
  let metrics = Metrics.create () in
  Metrics.register_histogram metrics record_size_hist
    ~edges:[| 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096.; 8192.; 16384.; 32768. |];
  Metrics.register_histogram metrics split_fill_hist
    ~edges:[| 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 1.0 |];
  Metrics.register_histogram metrics proxy_chain_hist ~edges:[| 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16. |];
  {
    sink;
    counts = Array.init Event.tag_count (fun _ -> Atomic.make 0);
    folded = Array.make Event.tag_count 0;
    metrics;
    now = (fun () -> 0.);
    seq = 0;
    lock = Mutex.create ();
    tls = Domain.DLS.new_key (fun () -> { ctx = None });
  }

let set_clock t now = t.now <- now
let now_ms t = t.now ()
let tls t = Domain.DLS.get t.tls

let context t = (tls t).ctx

let set_context t ctx = (tls t).ctx <- ctx

let with_context t ?doc ~phase f =
  let slot = tls t in
  let saved = slot.ctx in
  slot.ctx <- Some { Event.doc; phase };
  Fun.protect ~finally:(fun () -> slot.ctx <- saved) f

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Events counted since the last fold go into the registry's counters. *)
let metrics t =
  locked t (fun () ->
      Array.iteri
        (fun i count ->
          let n = Atomic.get count in
          if n > t.folded.(i) then begin
            Metrics.incr ~by:(n - t.folded.(i)) t.metrics Event.counter_names.(i);
            t.folded.(i) <- n
          end)
        t.counts;
      t.metrics)

(* The per-event path.  Without a sink an event is only counted: no
   lock, no allocation.  With one it is stamped and delivered under the
   lock, which keeps the sequence numbers consecutive. *)
let emit t kind =
  Atomic.incr t.counts.(Event.tag kind);
  match t.sink with
  | None -> ()
  | Some sink -> (
    Mutex.lock t.lock;
    match
      t.seq <- t.seq + 1;
      Sink.emit sink { Event.seq = t.seq; at_ms = t.now (); kind; ctx = (tls t).ctx }
    with
    | () -> Mutex.unlock t.lock
    | exception e ->
      Mutex.unlock t.lock;
      raise e)

let incr ?by t name = locked t (fun () -> Metrics.incr ?by t.metrics name)
let observe t name v = locked t (fun () -> Metrics.observe t.metrics name v)

let events t = match t.sink with None -> [] | Some s -> Sink.events s
let emitted t = match t.sink with None -> 0 | Some s -> Sink.emitted s
let flush t = match t.sink with None -> () | Some s -> Sink.flush s
let close t = match t.sink with None -> () | Some s -> Sink.close s
