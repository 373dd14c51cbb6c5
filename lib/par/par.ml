open Natix_core
module Io_stats = Natix_store.Io_stats
module Disk = Natix_store.Disk
module Buffer_pool = Natix_store.Buffer_pool

type worker_stats = { worker : int; io : Io_stats.t }
type 'a outcome = { results : 'a list; task_io : Io_stats.t list; workers : worker_stats list }

let disk_of store = Buffer_pool.disk (Tree_store.buffer_pool store)

(* Per-task operation attribution.  The pool and disk emit through the
   {e base} store's observability handle from whichever domain runs the
   task; the handle's context slot is domain-local (see
   {!Natix_obs.Obs}), so each worker installs the (doc, phase) of the
   task it is executing without clobbering its siblings. *)
let with_ctx obs ?doc ~phase f =
  match obs with None -> f () | Some obs -> Natix_obs.Obs.with_context obs ?doc ~phase f

(* The generic executor: run [f ctx task] over [tasks] on [jobs] domains
   and hand results back in task order.

   jobs <= 1 must stay bit-identical to the sequential code path, so it
   runs inline: no domain, no parallel region, no per-domain stream —
   the only addition is a stats snapshot around the run to fill in the
   single worker entry.

   jobs >= 2: each worker claims the next task index from one shared
   atomic counter until the index passes the last task.  A task is a
   whole document, so one [fetch_and_add] per task is all the scheduling
   the fleet needs.  Workers 1.. run on spawned domains; worker 0 runs on
   the caller, which would otherwise only wait in [Domain.join] — one
   domain fewer for every stop-the-world minor collection to stop.  A
   worker failure sets [stop] so the rest drain out; the first exception
   is re-raised on the caller after every domain has joined and the
   streams are merged — stats stay consistent even on a crash. *)
let map_tasks ~jobs ~disk ~make_ctx ~f tasks =
  let n = Array.length tasks in
  let jobs = if n = 0 then 1 else max 1 (min jobs n) in
  (* Per-task I/O attribution: a task runs on one domain, and a domain
     charges one accumulator (its stream inside a region, the default
     stats outside), so diffing that accumulator around the task is the
     task's exact I/O delta — no sampling, no cross-task bleed. *)
  let timed ctx task =
    let before = Io_stats.copy (Disk.active_stats disk) in
    let r = f ctx task in
    (r, Io_stats.diff (Io_stats.copy (Disk.active_stats disk)) before)
  in
  if jobs <= 1 then begin
    let before = Io_stats.copy (Disk.stats disk) in
    let ctx = make_ctx () in
    let results = Array.map (fun task -> timed ctx task) tasks in
    let io = Io_stats.diff (Io_stats.copy (Disk.stats disk)) before in
    {
      results = Array.to_list (Array.map fst results);
      task_io = Array.to_list (Array.map snd results);
      workers = [ { worker = 0; io } ];
    }
  end
  else begin
    let next = Atomic.make 0 in
    let results = Array.make n None in
    let stop = Atomic.make false in
    let fatal = Atomic.make None in
    let body () =
      Disk.with_stream disk (fun () ->
          match
            let ctx = make_ctx () in
            let rec loop () =
              if not (Atomic.get stop) then begin
                let i = Atomic.fetch_and_add next 1 in
                if i < n then begin
                  results.(i) <- Some (timed ctx tasks.(i));
                  loop ()
                end
              end
            in
            loop ()
          with
          | () -> ()
          | exception e ->
            if Atomic.compare_and_set fatal None (Some e) then Atomic.set stop true)
    in
    (* A worker idles once its task loop ends: its pool hits go in then. *)
    let worker () =
      let r = body () in
      Buffer_pool.apply_hits ();
      r
    in
    (* Worker 0 sees what a spawned worker sees: no ambient trace and no
       obs context of the caller's. *)
    let on_caller () =
      let obs = Disk.obs disk in
      let ctx = Option.bind obs Natix_obs.Obs.context in
      Option.iter (fun o -> Natix_obs.Obs.set_context o None) obs;
      Fun.protect
        ~finally:(fun () -> Option.iter (fun o -> Natix_obs.Obs.set_context o ctx) obs)
        (fun () -> Natix_trace.Trace.detached worker)
    in
    Disk.enter_parallel_region disk;
    let streams =
      Fun.protect
        ~finally:(fun () -> Disk.exit_parallel_region disk)
        (fun () ->
          let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
          let first = match on_caller () with s -> Ok s | exception e -> Error e in
          let rest = Array.map Domain.join domains in
          match first with Ok s -> Array.append [| s |] rest | Error e -> raise e)
    in
    (* Merge per-worker accumulators into the default stream in worker
       index order: float addition is not associative, and a fixed order
       keeps the merged totals deterministic for a fixed partition. *)
    let workers =
      Array.to_list (Array.mapi (fun w ((), io) -> { worker = w; io }) streams)
    in
    List.iter (fun ws -> Io_stats.add (Disk.stats disk) ws.io) workers;
    (match Atomic.get fatal with Some e -> raise e | None -> ());
    let results =
      Array.to_list
        (Array.map
           (function
             | Some r -> r
             | None -> invalid_arg "Par.map_tasks: task left unexecuted")
           results)
    in
    { results = List.map fst results; task_io = List.map snd results; workers }
  end

(* Each hit renders through the worker's reader view (the cursor's
   store) — the differential harness compares these strings byte for
   byte across job counts. *)
let run_queries ?(jobs = 1) store tasks =
  let obs = Tree_store.obs store in
  map_tasks ~jobs ~disk:(disk_of store)
    ~make_ctx:(fun () -> Natix_query.Engine.create (Tree_store.reader store))
    ~f:(fun engine (doc, path) ->
      with_ctx obs ~doc ~phase:"query" (fun () ->
          match Natix_query.Engine.query engine ~doc path with
          | Error _ as e -> e
          | Ok seq -> Ok (List.map (Exporter.hit ~texts:false) (List.of_seq seq))))
    (Array.of_list tasks)

let scan_all ?(jobs = 1) store =
  let docs = List.sort String.compare (Tree_store.list_documents store) in
  let obs = Tree_store.obs store in
  map_tasks ~jobs ~disk:(disk_of store)
    ~make_ctx:(fun () -> Tree_store.reader store)
    ~f:(fun reader doc ->
      with_ctx obs ~doc ~phase:"scan" @@ fun () ->
      Buffer_pool.with_scan (Tree_store.buffer_pool reader) (fun () ->
          match Cursor.of_document reader doc with
          | None -> (doc, 0)
          | Some root ->
            (doc, Seq.fold_left (fun acc _ -> acc + 1) 0 (Cursor.descendants_or_self root))))
    (Array.of_list docs)

(* Transactional bulk load.  Each worker parses its file, then commits
   it as one ARIES transaction ({!Document_manager.store_transactional})
   in the document's own allocation arena: mutation phases overlap, and
   commit fsyncs from different workers batch in the group-commit
   daemon.  A failed commit poisons the store, so the remaining tasks
   come back as typed [Error]s instead of piling writes onto a store in
   an unknown state; a simulated crash still aborts the fleet. *)
let load_files_txn ?(jobs = 1) dm files =
  let disk = disk_of (Document_manager.store dm) in
  let obs = Tree_store.obs (Document_manager.store dm) in
  map_tasks ~jobs ~disk
    ~make_ctx:(fun () -> ())
    ~f:(fun () (name, text) ->
      with_ctx obs ~doc:name ~phase:"load" @@ fun () ->
      match Natix_xml.Xml_parser.parse text with
      | exception Natix_xml.Xml_parser.Error { line; col; msg } ->
        Error (Error.Parse (Printf.sprintf "%s:%d:%d: %s" name line col msg))
      | xml -> (
        match Document_manager.store_transactional dm ~name xml with
        | Ok _ -> Ok ()
        | Error _ as e -> e
        | exception Error.Error e -> Error e))
    (Array.of_list files)
