type t = {
  sink : Sink.t option;
  mutable subscribers : (Event.t -> unit) list;  (* in delivery (subscription) order *)
  metrics : Metrics.t;
  mutable now : unit -> float;
  mutable seq : int;
  mutable next_span : int;  (* id generator; 0 is reserved for "no parent" *)
  lock : Mutex.t;
      (* Serialises metric updates, sequence stamping and sink delivery.
         Worker domains share the pool's handle, so everything the hooks
         mutate is either under this lock or domain-local (see [tls]). *)
  tls : tls Domain.DLS.key;
}

(* Context and the open-span stack are {e domain-local}: a worker domain
   evaluating one document must not see (or clobber) the context another
   domain installed — operation attribution would bleed across domains
   otherwise.  Single-domain behaviour is unchanged: the main domain's
   slot acts exactly like the old mutable fields. *)
and tls = { mutable ctx : Event.ctx option; mutable span_stack : int list }

let record_size_hist = "record_size_bytes"
let split_fill_hist = "split_fill_factor"
let proxy_chain_hist = "proxy_chain_len"
let span_ms_hist = "span_ms"

let create ?sink () =
  let metrics = Metrics.create () in
  Metrics.register_histogram metrics record_size_hist
    ~edges:[| 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096.; 8192.; 16384.; 32768. |];
  Metrics.register_histogram metrics split_fill_hist
    ~edges:[| 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 1.0 |];
  Metrics.register_histogram metrics proxy_chain_hist ~edges:[| 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16. |];
  Metrics.register_histogram metrics span_ms_hist
    ~edges:[| 0.1; 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 250.; 500.; 1000.; 2500.; 5000.; 10000.; 30000.; 120000. |];
  {
    sink;
    subscribers = [];
    metrics;
    now = (fun () -> 0.);
    seq = 0;
    next_span = 0;
    lock = Mutex.create ();
    tls = Domain.DLS.new_key (fun () -> { ctx = None; span_stack = [] });
  }

let metrics t = t.metrics
let sink t = t.sink
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

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let rec notify event = function
  | [] -> ()
  | f :: rest ->
    f event;
    notify event rest

(* Subscribers run under the handle's lock (they are part of delivery);
   they must not call back into [emit]/[incr]/[observe] on this handle. *)
let deliver t event =
  (match t.sink with None -> () | Some sink -> Sink.emit sink event);
  notify event t.subscribers

(* The per-event path: besides the event record, nothing is allocated. *)
let emit t kind =
  Mutex.lock t.lock;
  match
    Metrics.incr t.metrics (Event.counter_name kind);
    if t.sink <> None || t.subscribers <> [] then begin
      t.seq <- t.seq + 1;
      deliver t { Event.seq = t.seq; at_ms = t.now (); kind; ctx = (tls t).ctx }
    end
  with
  | () -> Mutex.unlock t.lock
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let incr ?by t name = locked t (fun () -> Metrics.incr ?by t.metrics name)
let observe t name v = locked t (fun () -> Metrics.observe t.metrics name v)

(* Spans nest through an explicit (domain-local) stack of ids: [span]
   pushes a fresh id for the dynamic extent of [f], so any span (or
   [child_span]) opened inside on the same domain sees it as the parent.
   The event fires at close, carrying the id/parent/depth triple the
   flamegraph exporter rebuilds stacks from. *)
let current_span t = match (tls t).span_stack with [] -> 0 | id :: _ -> id

let fresh_span_id t =
  locked t (fun () ->
      t.next_span <- t.next_span + 1;
      t.next_span)

let finish_span t name ~id ~parent ~depth ~dur_ms =
  incr t ("span." ^ name);
  observe t span_ms_hist dur_ms;
  emit t (Event.Span { name; dur_ms; id; parent; depth })

let span t name f =
  let t0 = t.now () in
  let slot = tls t in
  let parent = current_span t in
  let depth = List.length slot.span_stack in
  let id = fresh_span_id t in
  slot.span_stack <- id :: slot.span_stack;
  let finish () =
    slot.span_stack <- (match slot.span_stack with _ :: rest -> rest | [] -> []);
    finish_span t name ~id ~parent ~depth ~dur_ms:(t.now () -. t0)
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let child_span t name ~dur_ms =
  let parent = current_span t in
  let depth = List.length (tls t).span_stack in
  let id = fresh_span_id t in
  finish_span t name ~id ~parent ~depth ~dur_ms

let events t = match t.sink with None -> [] | Some s -> Sink.events s
let emitted t = match t.sink with None -> 0 | Some s -> Sink.emitted s
let flush t = match t.sink with None -> () | Some s -> Sink.flush s
let close t = match t.sink with None -> () | Some s -> Sink.close s
