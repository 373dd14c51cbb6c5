(* serve-mixed: two client connections through [Server.Loopback] (the
   full [Api] codec, CRC framing and admission) in closed loops against a
   [Server] with two worker domains over a file-backed store of about
   4.5 MB, about 2.2 times the 2 MB pool.

   95% of operations are queries from the shared mix, the document drawn
   with a Zipf-like skew; 5% are writes: a [Load] of a fresh one-act play
   of about 9 KB, then a [Checkpoint], counted as one operation.  This is
   the only workload that reaches the protocol, admission, the tenant
   gate and per-request reader views; the pool evicts under concurrent
   readers, and a checkpoint holds the tenant's exclusive gate while
   readers wait. *)

open Natix_core
open Common
module Session = Natix.Session
module Server = Natix_server.Server
module Protocol = Natix_server.Protocol
module Api = Natix.Api
module Io = Natix_store.Io_stats

let plays = 22
let clients = 2
let workers = 2
(* one write in each block of this many operations: 5% *)
let write_every = 20
let write_kind = "write"
let setups = 3
let warm_ops = 200
let tenant = "plays"
(* the k-th write of a client loads the (k mod 16)-th of these one-act
   plays under a fresh name *)
let write_docs = 16

let server_config ~traced =
  {
    Server.default_config with
    Server.jobs = workers;
    trace =
      (if traced then Some { Server.default_trace with Server.trace_ring = 1_000_000 } else None);
  }

(* ---- the client side of one call ---- *)

type conn = {
  server : Server.t;
  loopback : Server.Loopback.conn;
  mutable seq : int;
  mutable frame_bytes : int;
}

let connect server =
  { server; loopback = Server.Loopback.connect server ~tenant; seq = 0; frame_bytes = 0 }

let reader_of_string s =
  let pos = ref 0 in
  fun n ->
    if !pos + n > String.length s then raise End_of_file
    else begin
      let r = String.sub s !pos n in
      pos := !pos + n;
      r
    end

let frame c ~seq ?trace_id payload =
  let b = Buffer.create 256 in
  Protocol.write_frame (Buffer.add_string b) ~seq ?trace_id payload;
  c.frame_bytes <- c.frame_bytes + Buffer.length b;
  match Protocol.read_frame (reader_of_string (Buffer.contents b)) with
  | Ok (Some f) -> f
  | Ok None -> failwith "empty frame stream"
  | Error msg -> failwith ("frame: " ^ msg)

let decoded what = function Ok v -> v | Error msg -> failwith (what ^ " decode: " ^ msg)

(* The steps of [Loopback.call], each a span. *)
let traced_call tr c req =
  c.seq <- c.seq + 1;
  let payload = Span.span tr "api.encode" (fun () -> Api.encode_request req) in
  let f = Span.span tr "protocol.frame" (fun () -> frame c ~seq:c.seq payload) in
  let req' =
    decoded "request" (Span.span tr "api.decode" (fun () -> Api.decode_request f.Protocol.payload))
  in
  let resp =
    Span.span tr "server.submit" (fun () ->
        Server.submit ?trace_id:f.Protocol.trace_id c.server ~tenant req')
  in
  let payload = Span.span tr "api.encode" (fun () -> Api.encode_response resp) in
  let f' =
    Span.span tr "protocol.frame" (fun () ->
        frame c ~seq:f.Protocol.seq ?trace_id:f.Protocol.trace_id payload)
  in
  decoded "response" (Span.span tr "api.decode" (fun () -> Api.decode_response f'.Protocol.payload))

let call tr c req =
  match tr with None -> Server.Loopback.call c.loopback req | Some tr -> traced_call tr c req

(* ---- one client's closed loop ---- *)

type client = {
  id : int;
  conn : conn;
  is_write : unit -> bool;
  next_query : unit -> query;
  tr : Span.t option;
  mutable slice_lat : By_kind.t;  (** wall ms of the current slice *)
  lat : By_kind.t;  (** reference ms: query kinds, and [write_kind] *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatched : int;
  mutable reply_bytes : int;
  mutable loaded_bytes : int;
  mutable rows : int;
  mutable written : string list;  (** documents whose [Load] was acknowledged *)
  mutable read_ops : int;
  mutable write_ops : int;
}

let guard f = try f () with e -> Api.Err (Error.Storage (Printexc.to_string e))

let new_client ~id ~seed ~server ~docs ~pick ~tr =
  let rng = Prng.create ~seed:(Int64.of_int ((seed * 1_000_003) + 101 + id)) in
  let is_write = deck rng (Array.init write_every (fun i -> i = 0)) in
  {
    id;
    conn = connect server;
    is_write;
    next_query = query_mix rng ~doc:(fun rng -> docs.(pick rng));
    tr;
    slice_lat = By_kind.create ();
    lat = By_kind.create ();
    attempted = 0;
    failed = 0;
    mismatched = 0;
    reply_bytes = 0;
    loaded_bytes = 0;
    rows = 0;
    written = [];
    read_ops = 0;
    write_ops = 0;
  }

(* Operations until the wall deadline [until]; latencies go to
   [slice_lat]. *)
let client_run cl ~pass ~refs ~xmls ~until =
  let tr = cl.tr and c = cl.conn in
  let op kind f = match tr with None -> f () | Some tr -> Span.op tr kind f in
  let sub name f = match tr with None -> f () | Some tr -> Span.span tr name f in
  while now_ns () < until do
    cl.attempted <- cl.attempted + 1;
    if cl.is_write () then begin
      let k = cl.write_ops in
      cl.write_ops <- k + 1;
      let doc = Printf.sprintf "w%d-%d-%04d" pass cl.id k in
      let xml = xmls.(k mod Array.length xmls) in
      let t0 = now_ns () in
      let ok =
        op "op.write" (fun () ->
            match
              sub "call.load" (fun () ->
                  guard (fun () -> call tr c (Api.Load { doc; xml; order = Loader.Preorder })))
            with
            | Api.Loaded _ ->
              cl.written <- doc :: cl.written;
              cl.loaded_bytes <- cl.loaded_bytes + String.length xml;
              sub "call.checkpoint" (fun () -> guard (fun () -> call tr c Api.Checkpoint))
              = Api.Checkpointed
            | _ -> false)
      in
      let t1 = now_ns () in
      if ok then By_kind.push cl.slice_lat write_kind (ms_of_ns (t1 - t0))
      else begin
        cl.failed <- cl.failed + 1;
        By_kind.push cl.slice_lat write_kind infinity
      end
    end
    else begin
      cl.read_ops <- cl.read_ops + 1;
      let q = cl.next_query () in
      let t0 = now_ns () in
      let resp =
        op "op.read" (fun () ->
            guard (fun () -> call tr c (Api.Query { doc = q.doc; path = q.path; texts = q.texts })))
      in
      let t1 = now_ns () in
      match resp with
      | Api.Hits hits ->
        By_kind.push cl.slice_lat (kind_name q) (ms_of_ns (t1 - t0));
        if hits <> expected refs q then cl.mismatched <- cl.mismatched + 1;
        cl.reply_bytes <- cl.reply_bytes + reply_bytes hits;
        cl.rows <- cl.rows + List.length hits
      | _ ->
        cl.failed <- cl.failed + 1;
        By_kind.push cl.slice_lat (kind_name q) infinity
    end
  done

(* Take in the slice's latencies, times the slice's factor [f]. *)
let commit_slice f cl =
  By_kind.scale_into ~f cl.slice_lat cl.lat;
  cl.slice_lat <- By_kind.create ()

(* ---- set-up ---- *)

type state = {
  sess : Session.t;
  registry : Natix_server.Registry.t;
  docs : (string * string) list;
  refs : (string * string * bool, string list) Hashtbl.t;
  path : string;
  mutable server : Server.t;
}

let pick_doc = zipf plays

(* Queries from the mix through one loopback connection: the last step
   of set-up, so the timed loop starts on a pool in its steady state. *)
let warm server ~docs ~seed =
  let rng = Prng.create ~seed:(Int64.of_int ((seed * 1_000_003) + 99)) in
  let next_query = query_mix rng ~doc:(fun rng -> docs.(pick_doc rng)) in
  let conn = Server.Loopback.connect server ~tenant in
  for _ = 1 to warm_ops do
    let q = next_query () in
    ignore (Server.Loopback.call conn (Api.Query { doc = q.doc; path = q.path; texts = q.texts }))
  done

let set_up ~seed ~dir ~tr =
  let splits = ref 0 and fixes = ref 0 in
  let setup ~last =
    let t0 = now_ns () in
    let docs = corpus ~seed ~plays in
    let path = Filename.concat dir "serve.natix" in
    remove_store path;
    let sess = Session.open_store path in
    let s, f = Setup.load_docs ?tr sess docs in
    splits := !splits + s;
    fixes := !fixes + f;
    Session.checkpoint sess;
    let t1 = now_ns () in
    let refs = if last then references sess ~docs:(List.map fst docs) else Hashtbl.create 1 in
    let t2 = now_ns () in
    let registry = Natix_server.Registry.create () in
    Natix_server.Registry.mount registry tenant sess;
    let server = Server.create ~config:(server_config ~traced:false) registry in
    warm server ~docs:(Array.of_list (List.map fst docs)) ~seed;
    ({ sess; registry; docs; refs; path; server }, s_of_ns (t1 - t0 + (now_ns () - t2)))
  in
  let discard st =
    Server.shutdown st.server;
    Session.close ~commit:false st.sess;
    remove_store st.path
  in
  let st, setup_s = Setup.repeat setups ~setup ~discard in
  (st, setup_s, !splits, !fixes)

let small_plays ~seed =
  Array.of_list
    (List.map Natix_xml.Xml_print.to_string
       (Sh.generate (small_play_params ~seed:(seed + 7) ~plays:write_docs)))

(* ---- a measured pass: the clients run until [seconds] have passed ---- *)

type pass = {
  cls : client list;
  frame_bytes : int;
  wall_ns : int;
  ref_ns : float;
  io : Io.t;  (** tenant disk delta *)
  store0 : store_counters;
  store1 : store_counters;
  proc0 : proc;
  proc1 : proc;
  wal_bytes : int;
  wal_flushes : int;
  stats : Server.stats;
  reports : Natix_trace.Trace.report list;
  trs : Span.t list;
  missing : string list;  (** acknowledged writes a final [Stat] cannot find *)
}

let wal_counters store =
  match Natix_store.Buffer_pool.wal (Tree_store.buffer_pool store) with
  | None -> (0, 0)
  | Some w -> (Natix_store.Wal.bytes_logged w, Natix_store.Wal.flushes w)

(* A pass of [seconds].  With a [meter], the clients run in slices, each
   followed by a probe of the host's speed, and latencies and time are in
   reference time; without (traced runs), in one stretch of wall time. *)
let run_pass st ~pass ~seed ~seconds ~traced ~meter =
  if traced then begin
    Server.shutdown st.server;
    st.server <- Server.create ~config:(server_config ~traced:true) st.registry
  end;
  let store = Session.store st.sess in
  let docs = Array.of_list (List.map fst st.docs) in
  let xmls = small_plays ~seed in
  let origin = now_ns () in
  let cls =
    List.init clients (fun id ->
        let tr = if traced then Some (Span.create ~keep:100 ~origin) else None in
        new_client ~id ~seed ~server:st.server ~docs ~pick:pick_doc ~tr)
  in
  let run ~until =
    List.iter Domain.join
      (List.map
         (fun cl -> Domain.spawn (fun () -> client_run cl ~pass ~refs:st.refs ~xmls ~until))
         cls)
  in
  settle ();
  let store0 = store_counters store and proc0 = proc () in
  let wb0, wf0 = wal_counters store in
  let wall_ns, ref_ns =
    match meter with
    | Some m ->
      let s = Host.sliced m ~seconds ~run ~commit:(fun f () -> List.iter (commit_slice f) cls) in
      (s.Host.wall_ns, s.Host.ref_ns)
    | None ->
      let start = now_ns () in
      run ~until:(start + int_of_float (seconds *. 1e9));
      List.iter (commit_slice 1.) cls;
      let wall_ns = now_ns () - start in
      (wall_ns, float_of_int wall_ns)
  in
  let store1 = store_counters store and proc1 = proc () in
  let wb1, wf1 = wal_counters store in
  (* every acknowledged write must be there *)
  let conn = Server.Loopback.connect st.server ~tenant in
  let missing =
    List.concat_map
      (fun cl ->
        List.filter
          (fun doc ->
            match Server.Loopback.call conn (Api.Stat { doc = Some doc }) with
            | Api.Stats { docs = [ d ]; _ } -> d.Api.doc <> doc
            | _ -> true)
          cl.written)
      cls
  in
  {
    cls;
    frame_bytes = List.fold_left (fun acc cl -> acc + cl.conn.frame_bytes) 0 cls;
    wall_ns;
    ref_ns;
    io = Io.diff store1.io store0.io;
    store0;
    store1;
    proc0;
    proc1;
    wal_bytes = wb1 - wb0;
    wal_flushes = wf1 - wf0;
    stats = Server.stats st.server;
    reports = Server.trace_reports st.server;
    trs = List.filter_map (fun cl -> cl.tr) cls;
    missing;
  }

let sumc f p = List.fold_left (fun acc cl -> acc + f cl) 0 p.cls
let completed p = sumc (fun cl -> cl.attempted - cl.failed) p
let ops_per_s p = float_of_int (completed p) /. (p.ref_ns /. 1e9)

let notes_of p =
  reply_notes (sumc (fun cl -> cl.mismatched) p)
  @ List.map (fun d -> Printf.sprintf "written document %s missing at the end" d) p.missing

let finish st =
  Server.shutdown st.server;
  let space = float_of_int (Stats.disk_bytes (Session.store st.sess)) in
  Session.close st.sess;
  remove_store st.path;
  space

let untraced ~seed ~seconds ~dir =
  let st, setup_s, _, _ = set_up ~seed ~dir ~tr:None in
  let meter = Host.meter ~domains:workers in
  let p = run_pass st ~pass:0 ~seed ~seconds ~traced:false ~meter:(Some meter) in
  let stored = xml_bytes st.docs + sumc (fun cl -> cl.loaded_bytes) p in
  let disk = finish st in
  let lats = List.map (fun cl -> cl.lat) p.cls in
  let reads = By_kind.sorted ~pred:(fun k -> k <> write_kind) lats in
  let writes = By_kind.sorted ~pred:(String.equal write_kind) lats in
  let attempted = sumc (fun cl -> cl.attempted) p and failed = sumc (fun cl -> cl.failed) p in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", ops_per_s p);
      ( "xml_mb_per_s",
        mb (sumc (fun cl -> cl.reply_bytes + cl.loaded_bytes) p) /. (p.ref_ns /. 1e9) );
      ("kind_p50_ms", By_kind.p50 lats);
      ("kind_tail_ms", By_kind.tail lats);
      ("space_amp", disk /. float_of_int stored);
    ]
  in
  let notes = notes_of p in
  {
    correct = notes = [];
    attempted;
    failed;
    e2e = pick e2e_units e2e;
    report =
      pick e2e_units e2e @ latency_report "read" reads @ latency_report "write" writes
      @ [
          m "sim_ms_per_op" "sim_ms" (per p.io.Io.sim_ms attempted);
          m "error_ratio" "ratio" (per (float_of_int failed) attempted);
          m "wall_ops_per_s" "ops/s" (float_of_int (completed p) /. s_of_ns p.wall_ns);
          m "host_speed" "ratio" (Host.speed meter);
        ];
    layers = [];
    notes;
  }

(* Sim-clock figures of the server's own request traces. *)
let server_layers reports =
  let n = List.length reports in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. reports in
  let spans pred (r : Natix_trace.Trace.report) =
    List.fold_left
      (fun acc (s : Natix_trace.Trace.span_report) ->
        if pred s.Natix_trace.Trace.name then acc +. s.dur_ms else acc)
      0. r.Natix_trace.Trace.spans
  in
  let starts p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  [
    ("server.queue_wait_sim_ms", per (sum (fun r -> r.Natix_trace.Trace.queued_ms)) n);
    ("server.gate_wait_sim_ms", per (sum (spans (starts "gate."))) n);
    ("server.exec_sim_ms", per (sum (spans (starts "exec."))) n);
  ]

let traced_run ~seed ~seconds ~dir ~export =
  let setup_tr = Span.create ~keep:0 ~origin:(now_ns ()) in
  let st, _, splits, fixes = set_up ~seed ~dir ~tr:(Some setup_tr) in
  let half = seconds /. 2. in
  let plain = run_pass st ~pass:0 ~seed ~seconds:half ~traced:false ~meter:None in
  let p = run_pass st ~pass:1 ~seed ~seconds:half ~traced:true ~meter:None in
  ignore (finish st : float);
  export (setup_tr :: p.trs);
  let trs = p.trs in
  let ops = sumc (fun cl -> cl.attempted) p in
  let reads = sumc (fun cl -> cl.read_ops) p and writes = sumc (fun cl -> cl.write_ops) p in
  let self_us name = float_of_int (Span.self_ns trs name) /. 1e3 in
  let path_ms path = ms_of_ns (Span.path_self_ns trs path) in
  let layers =
    Setup.load_layers [ setup_tr ] ~bytes:(setups * xml_bytes st.docs) ~splits ~fixes
    @ store_layers ~ops p.store0 p.store1 @ proc_layers ~ops p.proc0 p.proc1
    @ server_layers p.reports
    @ [
        ( "wal.bytes_per_xml_byte",
          per (float_of_int p.wal_bytes) (sumc (fun cl -> cl.loaded_bytes) p) );
        ("wal.flushes_per_op", per (float_of_int p.wal_flushes) ops);
        ("query.rows_per_op", per (float_of_int (sumc (fun cl -> cl.rows) p)) reads);
        ("api.codec_us_per_op", per (self_us "api.encode" +. self_us "api.decode") ops);
        ("protocol.frame_us_per_op", per (self_us "protocol.frame") ops);
        ("protocol.bytes_per_op", per (float_of_int p.frame_bytes) ops);
        ("server.submit_read_ms", per (path_ms "op.read;server.submit") reads);
        ( "server.submit_write_ms",
          per
            (path_ms "op.write;call.load;server.submit"
            +. path_ms "op.write;call.checkpoint;server.submit")
            writes );
        ("server.max_queue", float_of_int p.stats.Server.max_queue);
        ("server.shed", float_of_int p.stats.Server.shed);
        ("trace.overhead", ratio (ops_per_s plain) (ops_per_s p) -. 1.);
      ]
  in
  let notes = notes_of plain @ notes_of p @ Span.check_notes (setup_tr :: trs) in
  {
    correct = notes = [];
    attempted = sumc (fun cl -> cl.attempted) plain + ops;
    failed = sumc (fun cl -> cl.failed) plain + sumc (fun cl -> cl.failed) p;
    e2e = [];
    report = [];
    layers = pick layer_units layers;
    notes;
  }
