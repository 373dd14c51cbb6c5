module Json = Natix_obs.Json
module Event = Natix_obs.Event
module Io_stats = Natix_store.Io_stats

type t = { registry : Registry.t; account : Account.t; recorder : Recorder.t; lock : Mutex.t }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let query_ms_edges =
  [| 0.1; 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 250.; 500.; 1000.; 2500.; 5000.; 10000. |]

let create () =
  let registry = Registry.create () in
  Registry.define registry "query_sim_ms" ~quantile_edges:query_ms_edges;
  {
    registry;
    account = Account.create ();
    recorder = Recorder.create ~capacity:1024;
    lock = Mutex.create ();
  }

let record_op t ?(pinned = 0) (op : Recorder.op) =
  locked t (fun () ->
      Recorder.add t.recorder op;
      let record name v =
        Registry.record t.registry
          ~ctx:{ Event.doc = op.doc; phase = op.kind }
          ~at_ms:op.at_ms name v
      in
      record "ops" 1.;
      record "reads" (float_of_int op.reads);
      record "writes" (float_of_int op.writes);
      if op.kind = "query" then record "query_sim_ms" op.sim_ms;
      match op.doc with
      | None -> ()
      | Some doc ->
        Account.charge t.account ~doc ~at_ms:op.at_ms ~reads:op.reads ~sim_ms:op.sim_ms ~pinned)

let metrics_snapshot t ~at_ms = locked t (fun () -> Registry.snapshot t.registry ~at_ms)

let accounts t ~at_ms = locked t (fun () -> Account.snapshot t.account ~at_ms)

let flight_ops t = locked t (fun () -> Recorder.ops t.recorder)
let flight_added t = locked t (fun () -> Recorder.added t.recorder)

let export_json t ~at_ms =
  locked t (fun () ->
      Json.Obj
        [
          ("at_ms", Json.Float at_ms);
          ("metrics", Registry.to_json (Registry.snapshot t.registry ~at_ms));
          ("accounts", Account.to_json (Account.snapshot t.account ~at_ms));
          ( "flight",
            Json.Obj
              [
                ("added", Json.Int (Recorder.added t.recorder));
                ("retained", Json.Int (List.length (Recorder.ops t.recorder)));
              ] );
        ])

let export_prometheus t ~at_ms =
  locked t (fun () -> Registry.to_prometheus (Registry.snapshot t.registry ~at_ms))

let dump_flight t ~io ~jobs ?store ?trace_id oc =
  let meta, ops =
    locked t (fun () ->
        ( {
            Recorder.version = 1;
            store;
            jobs;
            cold = false;
            reads = io.Io_stats.reads;
            writes = io.Io_stats.writes;
            total_ios = Io_stats.total_ios io;
            sim_ms = io.Io_stats.sim_ms;
            trace_id;
          },
          Recorder.ops t.recorder ))
  in
  Recorder.dump oc meta ops
