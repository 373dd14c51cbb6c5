(* ingest: two writer domains bulk-load about 4 MB of generated plays
   (about 200 KB each) into a fresh file-backed store with the WAL on and
   the default configuration (8 KB pages, 2 MB pool, commit_delay 0).
   Each document is one ARIES transaction.  The store ends at about
   5 MB, past the pool.  Parse, the load path, the WAL and group commit do
   the work; no query runs.

   A round is one [Session.load_files_txn ~jobs:2] call over the whole
   corpus into a fresh store: the path of [natix bulkload --txn --jobs 2],
   and the operation whose latency the caller sees.  Traced, the round
   makes the calls [Par.load_files_txn] makes for each document on
   [Par.map_tasks ~jobs:2] itself, each a span: [Xml_parser.parse], then
   [Document_manager.store_transactional], under the store's
   (doc, "load") observability context. *)

open Natix_core
open Common
module Session = Natix.Session
module Par = Natix_par.Par
module Pool = Natix_store.Buffer_pool
module Io = Natix_store.Io_stats

let plays = 20
let jobs = 2
let setups = 15

let options = { Session.Options.default with index = Document_manager.Maintain }

let with_ctx obs name f =
  match obs with
  | None -> f ()
  | Some obs -> Natix_obs.Obs.with_context obs ~doc:name ~phase:"load" f

(* One document the way [Par.load_files_txn] stores it; the operation's
   spans are the parse and the transactional store. *)
let store_one tr dm obs (name, text) =
  Span.op tr "ingest.doc" (fun () ->
      with_ctx obs name (fun () ->
          match Span.span tr "xml.parse" (fun () -> Natix_xml.Xml_parser.parse text) with
          | exception Natix_xml.Xml_parser.Error { line; col; msg } ->
            Error (Error.Parse (Printf.sprintf "%s:%d:%d: %s" name line col msg))
          | xml -> (
            let store () = Document_manager.store_transactional dm ~name xml in
            match Span.span tr "load.store" store with
            | Ok _ -> Ok ()
            | Error _ as e -> e
            | exception Error.Error e -> Error e)))

(* The corpus through [Session.load_files_txn], or, traced, through the
   same calls with spans.  Returns each document's result and the span
   recorders of the writer domains. *)
let load ~traced sess docs =
  if not traced then ((Session.load_files_txn ~jobs sess docs).Par.results, [])
  else begin
    let store = Session.store sess in
    let recorders = ref [] and mu = Mutex.create () in
    let origin = now_ns () in
    let make_ctx () =
      let tr = Span.create ~keep:40 ~origin in
      Mutex.protect mu (fun () -> recorders := tr :: !recorders);
      tr
    in
    let outcome =
      Par.map_tasks ~jobs
        ~disk:(Pool.disk (Tree_store.buffer_pool store))
        ~make_ctx
        ~f:(fun tr doc -> store_one tr (Session.manager sess) (Tree_store.obs store) doc)
        (Array.of_list docs)
    in
    (outcome.Par.results, !recorders)
  end

type counters = {
  io : Io.t;
  fixes : int;
  misses : int;
  splits : int;
  wal_bytes : int;
  wal_flushes : int;
  gc_flushes : int;
  gc_committed : int;
  proc : proc;
}

let counters store =
  let pool = Tree_store.buffer_pool store in
  let wal = Pool.wal pool and gc = Tree_store.group_commit store in
  {
    io = Io.copy (Tree_store.io_stats store);
    fixes = Pool.fixes pool;
    misses = Pool.misses pool;
    splits = Tree_store.split_count store;
    wal_bytes = Option.fold ~none:0 ~some:Natix_store.Wal.bytes_logged wal;
    wal_flushes = Option.fold ~none:0 ~some:Natix_store.Wal.flushes wal;
    gc_flushes = Option.fold ~none:0 ~some:Natix_store.Group_commit.flushes gc;
    gc_committed = Option.fold ~none:0 ~some:Natix_store.Group_commit.committed gc;
    proc = proc ();
  }

type round = {
  wall_ns : int;
  acked : int;
  acked_bytes : int;
  failed : int;
  disk_bytes : int;
  before : counters;
  after : counters;
  lost : string list;  (** acknowledged documents not exported identically after recovery *)
}

let open_fresh path =
  remove_store path;
  Session.open_store ~options path

(* Load every document into [sess]'s fresh store, then crash-close it
   (no final checkpoint), reopen so recovery runs, and export every
   acknowledged document. *)
let round ~path ~docs ~traced sess =
  let store = Session.store sess in
  settle ();
  let before = counters store in
  let t0 = now_ns () in
  let results, recorders = load ~traced sess docs in
  let wall_ns = now_ns () - t0 in
  let after = counters store in
  let disk_bytes = Stats.disk_bytes store in
  let acked =
    List.filter_map
      (fun (doc, r) -> if Result.is_ok r then Some doc else None)
      (List.combine docs results)
  in
  Session.close ~commit:false sess;
  let lost =
    Session.with_store ~options:{ options with index = Document_manager.Fresh_only } path (fun s ->
        List.filter_map
          (fun (name, xml) ->
            match Session.export s name with
            | Some tree when Natix_xml.Xml_print.to_string tree = xml -> None
            | _ -> Some name)
          acked)
  in
  remove_store path;
  ( {
      wall_ns;
      acked = List.length acked;
      acked_bytes = xml_bytes acked;
      failed = List.length docs - List.length acked;
      disk_bytes;
      before;
      after;
      lost;
    },
    recorders )

let set_up ~seed ~dir =
  let setup ~last:_ =
    let t0 = now_ns () in
    let docs = corpus ~seed ~plays in
    let path = Filename.concat dir "ingest.natix" in
    let sess = open_fresh path in
    ((docs, path, sess), s_of_ns (now_ns () - t0))
  in
  Setup.repeat setups ~setup ~discard:(fun (_, _, sess) -> Session.close ~commit:false sess)

(* Rounds on fresh stores until [seconds] of loading are measured (at
   least one). *)
let rounds ~docs ~path ~traced ~seconds first =
  let rec go acc trs measured sess =
    let r, rtrs = round ~path ~docs ~traced sess in
    let acc = r :: acc and trs = rtrs @ trs in
    let measured = measured + r.wall_ns in
    if s_of_ns measured >= seconds then (List.rev acc, trs)
    else go acc trs measured (open_fresh path)
  in
  go [] [] 0 first

let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs

let lost_notes rs =
  List.concat_map
    (fun r ->
      List.map (Printf.sprintf "document %s acknowledged but not recovered intact") r.lost)
    rs

let untraced ~seed ~seconds ~dir =
  let (docs, path, sess), setup_s = set_up ~seed ~dir in
  let rs, _ = rounds ~docs ~path ~traced:false ~seconds sess in
  let wall_s = s_of_ns (sum (fun r -> r.wall_ns) rs) in
  let acked = sum (fun r -> r.acked) rs in
  (* a round with a failed document missed any latency limit *)
  let sorted =
    sorted_of_list (List.map (fun r -> if r.failed = 0 then ms_of_ns r.wall_ns else infinity) rs)
  in
  let sim = List.fold_left (fun acc r -> acc +. (Io.diff r.after.io r.before.io).Io.sim_ms) 0. rs in
  let cpu = List.fold_left (fun acc r -> acc +. r.after.proc.cpu -. r.before.proc.cpu) 0. rs in
  let attempted = sum (fun r -> r.acked + r.failed) rs and failed = sum (fun r -> r.failed) rs in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", float_of_int acked /. wall_s);
      ("xml_mb_per_s", mb (sum (fun r -> r.acked_bytes) rs) /. wall_s);
      ("kind_p50_ms", percentile sorted 0.5);
      ("kind_tail_ms", tail_value sorted);
      ( "space_amp",
        median
          (List.map (fun r -> ratio (float_of_int r.disk_bytes) (float_of_int r.acked_bytes)) rs) );
    ]
  in
  let notes = lost_notes rs in
  {
    correct = notes = [];
    attempted;
    failed;
    e2e = pick e2e_units e2e;
    report =
      pick e2e_units e2e
      @ latency_report "round" sorted
      @ [
          m "sim_ms_per_op" "sim_ms" (per sim acked);
          m "cpu_util" "ratio" (cpu /. wall_s);
          m "error_ratio" "ratio" (per (float_of_int failed) attempted);
        ];
    layers = [];
    notes;
  }

(* Per-layer figures of traced rounds: spans per document on each writer
   domain; pool, disk, WAL and commit counters around each round, since
   two domains run in it. *)
let layers_of rs trs =
  let docs = sum (fun r -> r.acked + r.failed) rs in
  let bytes = sum (fun r -> r.acked_bytes) rs in
  let d f = sum (fun r -> f r.after - f r.before) rs in
  let fd f = List.fold_left (fun acc r -> acc +. f r.after.proc -. f r.before.proc) 0. rs in
  let io =
    List.fold_left
      (fun acc r ->
        Io.add acc (Io.diff r.after.io r.before.io);
        acc)
      (Io.create ()) rs
  in
  let store_a : store_counters = { io = Io.create (); fixes = 0; misses = 0 } in
  let store_b : store_counters =
    { io; fixes = d (fun c -> c.fixes); misses = d (fun c -> c.misses) }
  in
  let proc_a = { wall = 0; cpu = 0.; minor = 0.; majors = 0 } in
  let proc_b =
    {
      wall = d (fun c -> c.proc.wall);
      cpu = fd (fun p -> p.cpu);
      minor = fd (fun p -> p.minor);
      majors = d (fun c -> c.proc.majors);
    }
  in
  Setup.load_layers trs ~bytes ~splits:(d (fun c -> c.splits)) ~fixes:(d (fun c -> c.fixes))
  @ store_layers ~ops:docs store_a store_b
  @ proc_layers ~ops:docs proc_a proc_b
  @ [
      ("wal.bytes_per_xml_byte", per (float_of_int (d (fun c -> c.wal_bytes))) bytes);
      ("wal.flushes_per_op", per (float_of_int (d (fun c -> c.wal_flushes))) docs);
      ( "commit.docs_per_flush",
        per (float_of_int (d (fun c -> c.gc_committed))) (d (fun c -> c.gc_flushes)) );
    ]

let traced_run ~seed ~seconds ~dir ~export =
  let (docs, path, sess), _ = set_up ~seed ~dir in
  let half = seconds /. 2. in
  let plain, _ = rounds ~docs ~path ~traced:false ~seconds:half sess in
  let rs, trs = rounds ~docs ~path ~traced:true ~seconds:half (open_fresh path) in
  export trs;
  let rate rs =
    float_of_int (sum (fun r -> r.acked_bytes) rs) /. float_of_int (sum (fun r -> r.wall_ns) rs)
  in
  let notes = lost_notes (plain @ rs) @ Span.check_notes trs in
  {
    correct = notes = [];
    attempted = sum (fun r -> r.acked + r.failed) (plain @ rs);
    failed = sum (fun r -> r.failed) (plain @ rs);
    e2e = [];
    report = [];
    layers =
      pick layer_units
        (layers_of rs trs @ [ ("trace.overhead", ratio (rate plain) (rate rs) -. 1.) ]);
    notes;
  }

(* Counters that must repeat exactly for a seed: four plays bulk-loaded
   by the two writers into a fresh store, then checkpointed. *)
let counters ~seed ~dir =
  let docs = corpus ~seed ~plays:4 in
  let path = Filename.concat dir "ingest-counters.natix" in
  let sess = open_fresh path in
  let store = Session.store sess in
  let before = Io.copy (Tree_store.io_stats store) in
  let results, _ = load ~traced:false sess docs in
  Session.checkpoint sess;
  let d = Io.diff (Io.copy (Tree_store.io_stats store)) before in
  let space_amp = ratio (float_of_int (Stats.disk_bytes store)) (float_of_int (xml_bytes docs)) in
  Session.close ~commit:false sess;
  remove_store path;
  [
    ("space_amp", space_amp);
    ("page_writes", float_of_int d.Io.writes);
    ("failed", float_of_int (List.length (List.filter Result.is_error results)));
  ]
