open Natix_core
module Api = Natix.Api
module Disk = Natix_store.Disk
module Io_stats = Natix_store.Io_stats
module Lock_rank = Natix_store.Lock_rank
module Trace = Natix_trace.Trace
module Slo = Natix_mon.Slo

type trace_config = { slow_ms : float; trace_ring : int }

let default_trace = { slow_ms = infinity; trace_ring = 256 }

type config = { jobs : int; max_inflight : int; queue_depth : int; trace : trace_config option }

let default_config = { jobs = 4; max_inflight = 64; queue_depth = 32; trace = None }

type stats = { served : int; shed : int; max_queue : int; queued : int; running : int }

type ticket = {
  tenant : Registry.tenant;
  req : Api.request;
  trace : Trace.t option;
  tmu : Mutex.t;
  tcond : Condition.t;
  mutable reply : Api.response option;
}

type t = {
  config : config;
  registry : Registry.t;
  conn_mu : Mutex.t;  (* rank conn: admission + queue state, never held across execution *)
  work : Condition.t;
  queue : ticket Queue.t;  (* admitted tickets, oldest first; empty in inline mode (jobs = 0) *)
  mutable running : int;
  mutable served : int;
  mutable shed_count : int;
  mutable max_queue : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  (* Tracing state, all under [trace_mu] (a leaf: taken after execution,
     never while holding any other lock of ours). *)
  trace_mu : Mutex.t;
  mutable trace_seq : int;
  mutable reports : Trace.report list;  (* newest first, capped at trace_ring *)
  mutable slow : Trace.report list;  (* newest first, capped at trace_ring *)
  slo : Slo.t;
}

let registry t = t.registry
let config t = t.config

let with_conn t f =
  Lock_rank.acquire Lock_rank.conn;
  Mutex.lock t.conn_mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.conn_mu;
      Lock_rank.release Lock_rank.conn)
    f

(* ---- request execution -------------------------------------------- *)

let doc_of = function
  | Api.Load { doc; _ } | Api.Query { doc; _ } -> Some doc
  | Api.Stat { doc } -> doc
  | Api.Ping | Api.Scan _ | Api.Checkpoint | Api.Server_stats -> None

(* What a trace report shows as the request's argument. *)
let detail_of = function
  | Api.Query { path; _ } -> path
  | Api.Load { doc; _ } -> doc
  | Api.Scan { element; _ } -> element
  | Api.Stat { doc } -> Option.value doc ~default:"*"
  | Api.Ping | Api.Checkpoint | Api.Server_stats -> ""

(* Every failure a request can produce becomes a typed reply.  This
   mapping must stay exhaustive: an exception that escaped here would
   take the worker domain (and with it every queued ticket) down.  The
   catch-all keeps it total against exceptions we did not enumerate. *)
let guarded (tenant : Registry.tenant) f =
  try f () with
  | Error.Error e -> Api.Err e
  | Natix_store.Faulty_disk.Crash ->
    tenant.crashed <- true;
    Api.Err (Error.Storage "store crashed (injected fault); tenant disabled")
  | Natix_store.Faulty_disk.Read_error page ->
    Api.Err (Error.Storage (Printf.sprintf "transient read failure at page %d" page))
  | Natix_store.Disk.Bad_page { page; reason } ->
    Api.Err (Error.Storage (Printf.sprintf "bad page %d: %s" page reason))
  | Natix_store.Btree.Corrupt detail -> Api.Err (Error.Storage ("element index corrupt: " ^ detail))
  | Natix_store.Buffer_pool.All_frames_pinned ->
    Api.Err (Error.Storage "buffer pool exhausted: all frames pinned")
  | Natix_store.Record_manager.Record_too_large n ->
    Api.Err (Error.Storage (Printf.sprintf "record too large: %d bytes" n))
  | Tree_store.Unsplittable detail -> Api.Err (Error.Storage ("unsplittable: " ^ detail))
  | Natix_xml.Xml_parser.Error { line; col; msg } ->
    Api.Err (Error.Parse (Printf.sprintf "%d:%d: %s" line col msg))
  | e -> Api.Err (Error.Storage ("request failed: " ^ Printexc.to_string e))

(* A query on the worker: private reader view + navigation-only engine —
   decoded records are mutable and must not cross domains, so each
   request decodes into its own cache (the parallel executor's model,
   per-request instead of per-worker).  Runs under the tenant's shared
   gate; hits render through the view, as the CLI prints them. *)
let run_query (tenant : Registry.tenant) ~doc ~path ~texts =
  let store = Natix.Session.store tenant.session in
  let disk = Natix_store.Buffer_pool.disk (Tree_store.buffer_pool store) in
  let before = Io_stats.copy (Disk.active_stats disk) in
  let engine = Natix_query.Engine.create (Tree_store.reader store) in
  let render = Exporter.hit ~texts in
  let resp =
    match Trace.active () with
    | None -> (
      match Natix_query.Engine.query engine ~doc path with
      | Error e -> Api.Err e
      | Ok seq -> Api.Hits (List.map render (List.of_seq seq)))
    | Some tr -> (
      (* Traced: one instrumented execution serves the reply, the
         per-operator spans (attached by the engine to this request's
         trace) and the slow log's EXPLAIN ANALYZE.  The operator rows
         reconcile with this request's private stream because the probes
         read [Disk.active_stats]. *)
      match Natix_query.Engine.analyze_query engine ~doc path with
      | Error e -> Api.Err e
      | Ok (hits, a) ->
        Trace.set_plan tr (Natix_query.Engine.analysis_to_string a);
        Api.Hits (List.map render hits))
  in
  (* The active accumulator is this request's stream, so the delta is
     the request's exact I/O — attribution stays exact even with other
     requests of the same tenant in flight. *)
  let rows = match resp with Api.Hits hits -> Some (List.length hits) | _ -> None in
  Natix.Mon.record_op (Natix.Session.mon tenant.session)
    (Natix_mon.Recorder.make
       ~at_ms:(Tree_store.io_stats store).Io_stats.sim_ms
       ~kind:"query" ~doc ~detail:path ?rows
       (Io_stats.diff (Io_stats.copy (Disk.active_stats disk)) before)
       (match resp with Api.Err e -> Natix_mon.Recorder.outcome (Error e) | _ -> "ok"));
  resp

(* The clock a request lives on: the tenant disk's global simulated
   clock (the default accumulator's [sim_ms], which every finished
   request's merge and every group-commit delay charge advances, so queue
   waits and gate blocks show on it), plus, while the calling domain runs
   inside the request's private stream, that stream's own [sim_ms] — which
   reaches the global clock only at the merge, after the spans closed. *)
let request_clock disk () =
  let global = Disk.stats disk and active = Disk.active_stats disk in
  if active == global then global.Io_stats.sim_ms
  else global.Io_stats.sim_ms +. active.Io_stats.sim_ms

(* Book a finished trace: report ring, slow log, SLO window.  [trace_mu]
   is a leaf taken after the request fully completed. *)
let record_trace t (report : Trace.report) =
  let cap = match t.config.trace with Some tc -> tc.trace_ring | None -> 0 in
  let keep n l = if List.length l > n then List.filteri (fun i _ -> i < n) l else l in
  let slow_ms = match t.config.trace with Some tc -> tc.slow_ms | None -> infinity in
  Slo.observe t.slo ~tenant:report.Trace.tenant
    ~at_ms:(report.Trace.submitted_ms +. report.Trace.dur_ms)
    ~dur_ms:report.Trace.dur_ms;
  Mutex.lock t.trace_mu;
  t.reports <- keep cap (report :: t.reports);
  if report.Trace.dur_ms >= slow_ms then t.slow <- keep cap (report :: t.slow);
  Mutex.unlock t.trace_mu

(* Execute one admitted request: exception guard outermost, then the
   tenant gate, then the (tenant doc, "serve:<kind>") observability
   context, then the store work.  Wrapped in a per-request I/O stream on
   the tenant's disk so concurrent requests charge private accumulators
   (the disk's default record is not safe for concurrent charging), with
   the merge back serialised by the tenant's leaf [stats_mu].

   When tracing is on, the stream body runs under the request's trace:
   the root span brackets exactly the [Disk.with_stream] body, so the
   root's I/O delta {e is} the private stream delta and the span tree's
   self figures sum to it. *)
let execute t ?trace (tenant : Registry.tenant) req =
  let session = tenant.session in
  let store = Natix.Session.store session in
  let disk = Natix_store.Buffer_pool.disk (Tree_store.buffer_pool store) in
  let with_ctx f =
    match Tree_store.obs store with
    | None -> f ()
    | Some obs -> Natix_obs.Obs.with_context obs ?doc:(doc_of req) ~phase:("serve:" ^ Api.kind req) f
  in
  let exec_span f = Trace.span_here ("exec." ^ Api.kind req) f in
  let body () =
    guarded tenant (fun () ->
        if tenant.crashed then
          Api.Err (Error.Storage (Printf.sprintf "tenant %S: store crashed; disabled" tenant.name))
        else
          match req with
          | Api.Query { doc; path; texts } ->
            Rw_lock.with_read tenant.gate (fun () ->
                exec_span (fun () -> with_ctx (fun () -> run_query tenant ~doc ~path ~texts)))
          | _ ->
            (* Everything else mutates the store or walks shared session
               state (the session engine, the document manager's decoded
               caches), so it gets the gate exclusively. *)
            Rw_lock.with_write tenant.gate (fun () ->
                exec_span (fun () -> with_ctx (fun () -> Natix.Session.exec session req))))
  in
  let traced_body () =
    match trace with
    | None -> body ()
    | Some tr ->
      let io () =
        let s = Disk.active_stats disk in
        { Trace.reads = s.Io_stats.reads; writes = s.Io_stats.writes; io_ms = s.Io_stats.sim_ms }
      in
      Trace.run tr ~io body
  in
  let crashed_before = tenant.crashed in
  Disk.enter_parallel_region disk;
  let resp, io =
    Fun.protect ~finally:(fun () -> Disk.exit_parallel_region disk) (fun () ->
        Disk.with_stream disk traced_body)
  in
  Mutex.lock tenant.stats_mu;
  Io_stats.add (Disk.stats disk) io;
  Mutex.unlock tenant.stats_mu;
  (match trace with
  | None -> ()
  | Some tr ->
    record_trace t (Trace.finish tr);
    (* A request that just crashed its tenant is the flight recorder's
       moment: dump the ring with the culprit's trace id in the meta
       line, where a post-mortem starts. *)
    if tenant.crashed && not crashed_before then
      ignore (Natix.Session.write_flight ~trace_id:(Trace.trace_id tr) session : string option));
  resp

(* ---- the worker pool ---------------------------------------------- *)

let answer ticket reply =
  Mutex.lock ticket.tmu;
  ticket.reply <- Some reply;
  Condition.signal ticket.tcond;
  Mutex.unlock ticket.tmu

let worker t () =
  let rec loop () =
    let next =
      with_conn t (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.work t.conn_mu
          done;
          let ticket = Queue.take_opt t.queue in
          if Option.is_some ticket then t.running <- t.running + 1;
          ticket)
    in
    match next with
    | None -> ()
    | Some ticket ->
      (* [execute] is total by construction; the backstop below is for
         bugs in the dispatcher itself — a ticket must always be
         answered or its submitter hangs forever. *)
      let reply =
        try execute t ?trace:ticket.trace ticket.tenant ticket.req
        with e -> Api.Err (Error.Storage ("dispatcher failure: " ^ Printexc.to_string e))
      in
      (* The request's pool hits and its place in the dispatcher's
         counters go in before its reply, so the counters a client reads
         next include them, as on the inline path. *)
      Natix_store.Buffer_pool.apply_hits ();
      with_conn t (fun () ->
          t.running <- t.running - 1;
          t.served <- t.served + 1);
      answer ticket reply;
      loop ()
  in
  loop ()

let create ?(config = default_config) registry =
  if config.jobs < 0 then invalid_arg "Server.create: jobs must be >= 0";
  if config.max_inflight < 1 then invalid_arg "Server.create: max_inflight must be >= 1";
  if config.queue_depth < 1 then invalid_arg "Server.create: queue_depth must be >= 1";
  let t =
    {
      config;
      registry;
      conn_mu = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      running = 0;
      served = 0;
      shed_count = 0;
      max_queue = 0;
      stopping = false;
      workers = [];
      trace_mu = Mutex.create ();
      trace_seq = 0;
      reports = [];
      slow = [];
      slo = Slo.create ();
    }
  in
  t.workers <- List.init config.jobs (fun _ -> Domain.spawn (worker t));
  t

let stats t =
  with_conn t (fun () ->
      {
        served = t.served;
        shed = t.shed_count;
        max_queue = t.max_queue;
        queued = Queue.length t.queue;
        running = t.running;
      })

(* Trace accessors: snapshots are oldest-first so exports read in
   submission order. *)
let trace_reports t = Mutex.protect t.trace_mu (fun () -> List.rev t.reports)
let slow_reports t = Mutex.protect t.trace_mu (fun () -> List.rev t.slow)
let slo_snapshot t ~at_ms = Slo.snapshot t.slo ~at_ms

let server_statted t =
  let s = stats t in
  Api.Server_statted
    {
      Api.served = s.served;
      shed = s.shed;
      max_queue = s.max_queue;
      queued = s.queued;
      running = s.running;
      jobs = t.config.jobs;
      max_inflight = t.config.max_inflight;
      queue_depth = t.config.queue_depth;
    }

let submit ?trace_id t ~tenant:name req =
  (* The dispatcher's own counters are tenant-independent and answered
     here, before tenant resolution — they must work even when every
     tenant is shedding or crashed. *)
  if req = Api.Server_stats then server_statted t
  else
  match Registry.find t.registry name with
  | Error e -> Api.Err e
  | Ok tenant -> (
    let trace =
      match t.config.trace with
      | None -> None
      | Some _ ->
        (* Client-propagated ids pass through; otherwise assign a
           sequential one under the connection lock, so inline-mode
           (jobs = 0) workloads get byte-identical exports run to run. *)
        let id =
          match trace_id with
          | Some id when id <> "" -> id
          | _ ->
            with_conn t (fun () ->
                t.trace_seq <- t.trace_seq + 1;
                Printf.sprintf "t-%06d" t.trace_seq)
        in
        let store = Natix.Session.store tenant.session in
        let disk = Natix_store.Buffer_pool.disk (Tree_store.buffer_pool store) in
        Some
          (Trace.create ~trace_id:id ~tenant:name ~kind:(Api.kind req) ~detail:(detail_of req)
             ~clock:(request_clock disk))
    in
    let decision =
      with_conn t (fun () ->
          let shed reason =
            t.shed_count <- t.shed_count + 1;
            `Shed reason
          in
          let queued = Queue.length t.queue in
          if t.stopping then shed "shutting_down"
          else if t.running + queued >= t.config.max_inflight then shed "inflight_limit"
          else if queued >= t.config.queue_depth then shed "queue_full"
          else if t.config.jobs = 0 then begin
            t.running <- t.running + 1;
            `Inline
          end
          else begin
            let ticket =
              { tenant; req; trace; tmu = Mutex.create (); tcond = Condition.create ();
                reply = None }
            in
            Queue.push ticket t.queue;
            t.max_queue <- max t.max_queue (queued + 1);
            Condition.signal t.work;
            `Queued ticket
          end)
    in
    match decision with
    | `Shed reason -> Api.Overloaded { reason }
    | `Inline ->
      let reply =
        try execute t ?trace tenant req
        with e -> Api.Err (Error.Storage ("dispatcher failure: " ^ Printexc.to_string e))
      in
      with_conn t (fun () ->
          t.running <- t.running - 1;
          t.served <- t.served + 1);
      reply
    | `Queued ticket ->
      Mutex.lock ticket.tmu;
      while ticket.reply = None do
        Condition.wait ticket.tcond ticket.tmu
      done;
      let reply = Option.get ticket.reply in
      Mutex.unlock ticket.tmu;
      reply)

let shutdown t =
  let workers =
    with_conn t (fun () ->
        t.stopping <- true;
        Condition.broadcast t.work;
        let ws = t.workers in
        t.workers <- [];
        ws)
  in
  (* Workers drain the queue before exiting (a worker waits only while
     the queue is empty, so it keeps taking tickets once [stopping] is
     set), and every admitted ticket gets its answer before the join
     returns. *)
  List.iter Domain.join workers

(* ---- in-process loopback ------------------------------------------ *)

let reader_of_string s =
  let pos = ref 0 in
  fun n ->
    if !pos + n > String.length s then raise End_of_file
    else begin
      let r = String.sub s !pos n in
      pos := !pos + n;
      r
    end

module Loopback = struct
  type nonrec conn = { server : t; tenant : string; mutable seq : int }

  let connect server ~tenant =
    (* Exercise the header exchange the way a socket peer would. *)
    let b = Buffer.create 8 in
    Protocol.write_header (Buffer.add_string b);
    (match Protocol.read_header (reader_of_string (Buffer.contents b)) with
    | Ok _version -> ()
    | Error msg -> failwith ("loopback header: " ^ msg));
    { server; tenant; seq = 0 }

  let round what frame_of decode =
    let b = Buffer.create 256 in
    frame_of (Buffer.add_string b);
    match Protocol.read_frame (reader_of_string (Buffer.contents b)) with
    | Ok (Some f) -> (
      match decode f.Protocol.payload with
      | Ok v -> (f.Protocol.seq, f.Protocol.trace_id, v)
      | Error msg -> failwith (Printf.sprintf "loopback %s decode: %s" what msg))
    | Ok None -> failwith (Printf.sprintf "loopback %s: empty stream" what)
    | Error msg -> failwith (Printf.sprintf "loopback %s frame: %s" what msg)

  let call ?trace_id conn req =
    conn.seq <- conn.seq + 1;
    let seq, trace_id', req' =
      round "request"
        (fun w ->
          Protocol.write_frame w ~seq:conn.seq ?trace_id (Api.encode_request req))
        Api.decode_request
    in
    let resp = submit ?trace_id:trace_id' conn.server ~tenant:conn.tenant req' in
    let _, _, resp' =
      round "response"
        (fun w -> Protocol.write_frame w ~seq ?trace_id:trace_id' (Api.encode_response resp))
        Api.decode_response
    in
    resp'
end

(* ---- sockets ------------------------------------------------------- *)

let serve_connection t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let read = Protocol.read_exactly fd and write = Protocol.write_all fd in
      Protocol.write_header write;
      match Protocol.read_header read with
      | Error _ -> ()
      | Ok peer -> (
        (* Both sides frame at the lower of the two advertised versions,
           so a v1 peer never sees the trace-id field. *)
        let version = min peer Protocol.version in
        (* First frame: the raw tenant name this connection serves. *)
        match Protocol.read_frame ~version read with
        | Ok (Some { Protocol.payload = tenant; _ }) ->
          let rec loop () =
            match Protocol.read_frame ~version read with
            | Ok None -> ()  (* clean EOF *)
            | Error _ -> ()  (* framing broken: the stream cannot resync *)
            | Ok (Some f) ->
              (* A malformed payload inside an intact frame is the
                 client's bug, not a stream failure: answer typed and
                 keep serving. *)
              let resp =
                match Api.decode_request f.Protocol.payload with
                | Error msg -> Api.Err (Error.Storage ("malformed request: " ^ msg))
                | Ok req -> submit ?trace_id:f.Protocol.trace_id t ~tenant req
              in
              Protocol.write_frame write ~version ~seq:f.Protocol.seq
                ?trace_id:f.Protocol.trace_id (Api.encode_response resp);
              loop ()
          in
          loop ()
        | Ok None | Error _ -> ()))

let serve t ?(addr = "127.0.0.1") ?(max_connections = 8) ~port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
  Unix.listen sock max_connections;
  (* One domain per connection, capped: connections above the cap wait in
     the accept backlog rather than spawning unbounded domains. *)
  let mu = Mutex.create () and freed = Condition.create () in
  let active = ref 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      let rec accept_loop () =
        Mutex.lock mu;
        while !active >= max_connections do
          Condition.wait freed mu
        done;
        incr active;
        Mutex.unlock mu;
        let fd, _ = Unix.accept sock in
        ignore
          (Domain.spawn (fun () ->
               Fun.protect
                 ~finally:(fun () ->
                   Mutex.lock mu;
                   decr active;
                   Condition.signal freed;
                   Mutex.unlock mu)
                 (fun () -> serve_connection t fd))
            : unit Domain.t);
        accept_loop ()
      in
      accept_loop ())
