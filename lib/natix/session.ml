open Natix_core
module Disk = Natix_store.Disk
module Io_stats = Natix_store.Io_stats
module Mon = Natix_mon.Mon
module Recorder = Natix_mon.Recorder

type t = {
  store : Tree_store.t;
  manager : Document_manager.t;
  engine : Natix_query.Engine.t;
  mon : Mon.t;
  path : string option;  (* backing file, for flight-dump metadata *)
}

module Options = struct
  type t = { config : Config.t option; index : Document_manager.index_mode }

  let default = { config = None; index = Document_manager.Ensure }
end

(* Where error paths drop the flight-recorder ring.  One resolution
   point for every dumper — the CLI's exit handler, the server's
   request-crash path and the open-failure path below all agree on the
   destination. *)
let flight_path () =
  match Sys.getenv_opt "NATIX_FLIGHT_PATH" with
  | Some p when p <> "" -> p
  | _ -> "natix-flight.jsonl"

(* Error paths call this on their way out, so it must not raise: a dump
   that cannot be written is reported as [None]. *)
let write_flight_with dump =
  let path = flight_path () in
  try
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> dump oc);
    Some path
  with _ -> None

let of_store ?(index = Document_manager.Ensure) ?path store =
  let manager = Document_manager.create ~index store in
  let engine = Natix_query.Engine.of_manager manager in
  { store; manager; engine; mon = Mon.create (); path }

let open_memory ?(options = Options.default) () =
  let { Options.config; index } = options in
  let config = Option.value config ~default:(Config.default ()) in
  of_store ~index (Tree_store.in_memory ~config ())

let open_store ?(options = Options.default) path =
  let { Options.config; index } = options in
  let config = Option.value config ~default:(Config.default ()) in
  (* An existing file dictates its page size; the configured one only
     applies when the file is created. *)
  let config =
    match Disk.detect_page_size path with
    | Some page_size -> { config with Config.page_size }
    | None -> config
  in
  let disk = Disk.on_file ~page_size:config.Config.page_size path in
  (* If recovery (or any other part of opening) fails, a flight dump
     (the disk's I/O counters under an empty ring) is written next to
     the store before the exception propagates — the only trace of a
     store that cannot even open. *)
  let store =
    try Tree_store.open_store ~config disk
    with e ->
      let dump = Mon.dump_flight (Mon.create ()) ~io:(Disk.stats disk) ~jobs:1 ~store:path in
      ignore (write_flight_with dump : string option);
      (try Disk.close disk with _ -> ());
      raise e
  in
  of_store ~index ~path store

let store t = t.store
let manager t = t.manager
let engine t = t.engine
let mon t = t.mon
let documents t = List.sort String.compare (Tree_store.list_documents t.store)

(* Operation records for the monitor *)

let io t = Tree_store.io_stats t.store
let now_ms t = (io t).Io_stats.sim_ms
let pinned t = Natix_store.Buffer_pool.pinned_frames (Tree_store.buffer_pool t.store)

(* A copy of the accumulator this domain charges: a served request's own
   stream inside [Natix_server]'s dispatcher, the store's totals
   elsewhere.  Diffing it around an operation is the operation's exact
   I/O, even with other requests of the same store in flight. *)
let snapshot t =
  Io_stats.copy (Disk.active_stats (Natix_store.Buffer_pool.disk (Tree_store.buffer_pool t.store)))

(* Record an eager operation's flight entry: [before] is the {!snapshot}
   taken when it started. *)
let record_eager t ~kind ?doc ~detail ?rows ~outcome before =
  Mon.record_op t.mon ~pinned:(pinned t)
    (Recorder.make ~at_ms:(now_ms t) ~kind ?doc ~detail ?rows
       (Io_stats.diff (snapshot t) before)
       outcome)

let dump_flight ?trace_id t oc = Mon.dump_flight t.mon ~io:(io t) ~jobs:1 ?store:t.path ?trace_id oc
let write_flight ?trace_id t = write_flight_with (dump_flight ?trace_id t)

(* The flush is where most page writes happen, so a checkpoint is an
   operation of its own; [close]'s final checkpoint is not recorded. *)
let checkpoint t =
  let before = snapshot t in
  Document_manager.checkpoint t.manager;
  record_eager t ~kind:"checkpoint" ~detail:"" ~outcome:"ok" before

let close ?(commit = true) t =
  if commit then Document_manager.checkpoint t.manager;
  Tree_store.close ~commit:false t.store

let with_store ?options path fn =
  let t = open_store ?options path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> fn t)

(* Document management *)

let store_document t ~name ?dtd ?infer_dtd ?order xml =
  let before = snapshot t in
  let result = Document_manager.store_document t.manager ~name ?dtd ?infer_dtd ?order xml in
  record_eager t ~kind:"load" ~doc:name ~detail:name ~outcome:(Recorder.outcome result) before;
  result

let validate t doc = Document_manager.validate t.manager doc

let delete_document t doc =
  let before = snapshot t in
  Document_manager.delete_document t.manager doc;
  record_eager t ~kind:"delete" ~doc ~detail:doc ~outcome:"ok" before

let export t doc = Exporter.document_to_xml t.store doc

(* Queries *)

(* Lazy query results are consumed after any [with_context] scope would
   have closed, so attribute their page accesses by re-installing the
   (doc, "query") context around each pull. *)
let contextual t ~doc seq =
  match Tree_store.obs t.store with
  | None -> seq
  | Some obs ->
    let ctx = Some { Natix_obs.Event.doc = Some doc; phase = "query" } in
    let rec wrap seq () =
      let saved = Natix_obs.Obs.context obs in
      Natix_obs.Obs.set_context obs ctx;
      match seq () with
      | Seq.Nil ->
        Natix_obs.Obs.set_context obs saved;
        Seq.Nil
      | Seq.Cons (x, rest) ->
        Natix_obs.Obs.set_context obs saved;
        Seq.Cons (x, wrap rest)
      | exception e ->
        Natix_obs.Obs.set_context obs saved;
        raise e
    in
    wrap seq

(* The flight record for a lazy query closes when the sequence is
   exhausted (or the first pull raises): only then is the I/O delta the
   operation's true cost.  A sequence dropped before its end never
   records — the monitor sees completed operations. *)
let record_on_exhaust t ~doc ~path before seq =
  let count = ref 0 in
  let done_ = ref false in
  let finish outcome =
    if not !done_ then begin
      done_ := true;
      record_eager t ~kind:"query" ~doc ~detail:path ~rows:!count ~outcome before
    end
  in
  let rec wrap seq () =
    match seq () with
    | Seq.Nil ->
      finish "ok";
      Seq.Nil
    | Seq.Cons (x, rest) ->
      incr count;
      Seq.Cons (x, wrap rest)
    | exception e ->
      finish
        (match e with Error.Error err -> Recorder.outcome (Error err) | _ -> "error:exception");
      raise e
  in
  wrap seq

let query t ~doc path =
  let before = snapshot t in
  match Natix_query.Engine.query t.engine ~doc path with
  | Ok seq -> Ok (record_on_exhaust t ~doc ~path before (contextual t ~doc seq))
  | Error _ as err ->
    record_eager t ~kind:"query" ~doc ~detail:path ~rows:0 ~outcome:(Recorder.outcome err) before;
    err

let analyze t ~doc path = Natix_query.Engine.analyze t.engine ~doc path
let query_naive t ~doc path = Natix_query.Engine.query_naive t.engine ~doc path
let explain t ~doc path = Natix_query.Engine.explain t.engine ~doc path

(* Parallel execution *)

(* Batch entry points record one op per task, each carrying the task's
   exact I/O delta as measured by the executor ([Par.task_io]: the
   running domain's accumulator diffed around the task).  Per-task read
   counts are schedule-dependent at jobs >= 2 — whichever task touches a
   shared page first pays its miss — which is why replay compares
   digests, row counts and outcomes, never per-op I/O. *)
let record_batch t ops =
  let at_ms = now_ms t in
  List.iter (fun f -> Mon.record_op t.mon (f ~at_ms)) ops

let task_results outcome =
  List.combine outcome.Natix_par.Par.results outcome.Natix_par.Par.task_io

let run_queries ?jobs t tasks =
  let outcome = Natix_par.Par.run_queries ?jobs t.store tasks in
  record_batch t
    (List.map2
       (fun task result ~at_ms -> Natix_mon.Replay.query_op ~at_ms task result)
       tasks (task_results outcome));
  outcome

let scan_all ?jobs t =
  let outcome = Natix_par.Par.scan_all ?jobs t.store in
  record_batch t
    (List.map
       (fun ((doc, nodes), d) ~at_ms ->
         Recorder.make ~at_ms ~kind:"scan" ~doc ~detail:doc ~rows:nodes d "ok")
       (task_results outcome));
  outcome

let load_files_txn ?jobs t files =
  let outcome = Natix_par.Par.load_files_txn ?jobs t.manager files in
  record_batch t
    (List.map2
       (fun (name, _) (result, d) ~at_ms ->
         Recorder.make ~at_ms ~kind:"bulkload" ~doc:name ~detail:name d (Recorder.outcome result))
       files (task_results outcome));
  outcome

(* The Api command layer *)

let exec t (req : Api.request) : Api.response =
  try
    match req with
    | Api.Ping -> Api.Pong
    | Api.Load { doc; xml; order } -> (
      match Natix_trace.Trace.span_here "xml.parse" (fun () -> Natix_xml.Xml_parser.parse xml) with
      | exception Natix_xml.Xml_parser.Error { line; col; msg } ->
        Api.Err (Error.Parse (Printf.sprintf "%s:%d:%d: %s" doc line col msg))
      | tree -> (
        match
          Natix_trace.Trace.span_here "load.store" (fun () -> store_document t ~name:doc ~order tree)
        with
        | Ok _ -> Api.Loaded { doc; nodes = Natix_xml.Xml_tree.node_count tree }
        | Error e -> Api.Err e))
    | Api.Query { doc; path; texts } -> (
      match query t ~doc path with
      | Ok seq -> Api.Hits (List.of_seq (Seq.map (Exporter.hit ~texts) seq))
      | Error e -> Api.Err e)
    | Api.Scan { element; texts } ->
      let before = snapshot t in
      let nodes = Document_manager.elements_named t.manager element in
      let hits = List.map (fun n -> Exporter.hit ~texts (Cursor.of_node t.store n)) nodes in
      record_eager t ~kind:"scan" ~detail:element ~rows:(List.length hits) ~outcome:"ok" before;
      Api.Scanned hits
    | Api.Checkpoint ->
      checkpoint t;
      Api.Checkpointed
    | Api.Stat { doc } ->
      let names =
        match doc with
        | None -> documents t
        | Some d ->
          if List.mem d (documents t) then [ d ]
          else Error.raise_error (Error.Storage (Printf.sprintf "stat: no document %S" d))
      in
      let docs =
        List.map
          (fun d ->
            let s = Stats.document t.store d in
            {
              Api.doc = d;
              records = s.Stats.records;
              pages = s.Stats.pages;
              record_bytes = s.Stats.record_bytes;
            })
          names
      in
      Api.Stats { docs; disk_bytes = Stats.disk_bytes t.store }
    | Api.Server_stats ->
      (* Dispatcher counters live in the dispatcher; a bare session has
         none.  The server answers this before tenant dispatch, so
         reaching here means the request was sent somewhere it cannot
         mean anything. *)
      Api.Err (Error.Storage "server_stats: not a store request (ask a server)")
  with Error.Error e -> Api.Err e
(* Only {e typed} failures map to replies here: storage-corruption
   exceptions (bad page, crash, pinned-frame exhaustion) keep
   propagating, so a direct caller — the CLI with its exit codes, a test
   asserting poisoning — still sees them.  The server's dispatcher guard
   owns the exhaustive exception → [Err] mapping, because only there
   must a raising request never take down anything else. *)
