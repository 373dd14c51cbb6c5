(* natix: command-line front end to the repository.

   A persistent, file-backed NATIX store:

     natix load  store.natix hamlet hamlet.xml --order bfs
     natix bulkload store.natix *.xml --jobs 4
     natix list  store.natix
     natix cat   store.natix hamlet
     natix query store.natix hamlet "//ACT[3]/SCENE[2]//SPEAKER"
     natix query store.natix hamlet "//SPEAKER" --explain   (show the plan)
     natix stats store.natix [hamlet]
     natix check store.natix hamlet
     natix scan  store.natix SPEAKER          (index-accelerated typed scan)
     natix validate store.natix hamlet        (against the stored DTD)
     natix delete store.natix hamlet
     natix gen   out.xml --scale 0.1        (synthetic corpus as XML files)
     natix trace hamlet.xml [--jsonl t.jsonl]  (instrumented load + report)

   Store-touching commands run on a Natix.Session, the facade that
   bundles disk + tree store + document manager + query engine.  Commands
   that only read close the session without committing and never create
   or rebuild the element index ([query] opens a persisted index only
   when it is current — a stale one would silently miss results, a
   rebuild would dirty pages — and otherwise plans by navigation), so
   they never mutate the store file.  Mutating commands ([load],
   [delete]) open a persisted index so their change listener keeps it
   current; [scan] creates or repairs it.  The forensics commands (trace,
   fsck, recover) keep their direct disk/store plumbing on purpose. *)

open Cmdliner
open Natix_core

(* The most recently opened session, for the error-path flight dump: when
   the process dies on a typed error or a storage exception, the monitor's
   operation ring is flushed to a JSONL file so the failing workload can
   be inspected (and its query ops replayed) post mortem. *)
let current_session : Natix.Session.t option ref = ref None

(* [page_size] applies only when the file is created. *)
let open_session ?page_size ?(index = Document_manager.Off) path =
  let config = Option.map (fun n -> Config.with_page_size n (Config.default ())) page_size in
  let sess = Natix.Session.open_store ~options:{ Natix.Session.Options.config; index } path in
  current_session := Some sess;
  sess

(* [Session.flight_path] honours NATIX_FLIGHT_PATH, so crash dumps can
   be steered somewhere writable (CI sandboxes, read-only CWDs); a dump
   that cannot be written leaves the exit code alone. *)
let dump_flight_on_error () =
  match !current_session with
  | None -> ()
  | Some sess -> (
    match Natix.Session.write_flight sess with
    | Some path -> Printf.eprintf "natix: flight recorder written to %s\n" path
    | None ->
      Printf.eprintf "natix: could not write the flight recorder to %s\n"
        (Natix.Session.flight_path ()))

let fail_error e =
  Printf.eprintf "natix: %s\n" (Error.to_string e);
  dump_flight_on_error ();
  exit (Error.exit_code e)

(* ---- arguments ---------------------------------------------------- *)

let store_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc:"Store file.")

let doc_arg n =
  Arg.(required & pos n (some string) None & info [] ~docv:"DOC" ~doc:"Document name.")

let page_size_arg =
  Arg.(
    value
    & opt int 8192
    & info [ "page-size" ] ~docv:"BYTES" ~doc:"Page size when creating a new store (512-32768).")

let order_arg =
  let order_conv =
    Arg.enum [ ("preorder", Loader.Preorder); ("append", Loader.Preorder); ("bfs", Loader.Bfs_binary); ("incremental", Loader.Bfs_binary) ]
  in
  Arg.(
    value
    & opt order_conv Loader.Preorder
    & info [ "order" ] ~docv:"ORDER" ~doc:"Insertion order: $(b,preorder) (bulkload) or $(b,bfs) (scattered incremental updates).")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for parallel execution; $(b,1) (the default) runs inline.")

(* ---- commands ----------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_cmd =
  let run store_path doc xml_path page_size order stream =
    (* A persisted element index must see this load (via the session's
       change listener) or it would go stale; absent one, don't create
       an index the user never asked for. *)
    let sess =
      open_session ~page_size ~index:Document_manager.Maintain store_path
    in
    let store = Natix.Session.store sess in
    let text = read_file xml_path in
    let nodes =
      if stream then begin
        (* one-pass SAX load; the parsed tree is only for the node-count
           report *)
        let xml = Natix_xml.Xml_parser.parse_file xml_path in
        (match Document_manager.store_stream (Natix.Session.manager sess) ~name:doc text with
        | Ok _ -> ()
        | Error e -> fail_error e);
        Natix_xml.Xml_tree.node_count xml
      end
      else
        (* The Api command path — the same request a server connection
           would dispatch. *)
        match Natix.Session.exec sess (Natix.Api.Load { doc; xml = text; order }) with
        | Natix.Api.Loaded { nodes; _ } -> nodes
        | Natix.Api.Err e -> fail_error e
        | _ -> assert false
    in
    Printf.printf "loaded %S (%d logical nodes) into %s\n" doc nodes store_path;
    Format.printf "%a@." Stats.pp_doc (Stats.document store doc);
    Natix.Session.close sess
  in
  let xml_arg =
    Arg.(required & pos 2 (some file) None & info [] ~docv:"FILE" ~doc:"XML file to load.")
  in
  let stream = Arg.(value & flag & info [ "stream" ] ~doc:"One-pass SAX load.") in
  Cmd.v
    (Cmd.info "load" ~doc:"Parse an XML file and store it as a document.")
    Term.(const run $ store_arg $ doc_arg 1 $ xml_arg $ page_size_arg $ order_arg $ stream)

let bulkload_cmd =
  let run store_path xml_paths page_size jobs =
    (* Document names derive from basenames, so dir1/a.xml and dir2/a.xml
       would silently collide on "a"; refuse upfront with the offending
       paths instead of surfacing a confusing per-document store error. *)
    let named = List.map (fun p -> (Filename.remove_extension (Filename.basename p), p)) xml_paths in
    let collisions =
      List.filter_map
        (fun name ->
          match List.filter_map (fun (n, p) -> if n = name then Some p else None) named with
          | _ :: _ :: _ as paths -> Some (name, paths)
          | _ -> None)
        (List.sort_uniq String.compare (List.map fst named))
    in
    if collisions <> [] then begin
      List.iter
        (fun (name, paths) ->
          Printf.eprintf "natix: document name %S derived from several inputs: %s\n" name
            (String.concat ", " paths))
        collisions;
      fail_error
        (Error.Storage "bulkload: duplicate document names; rename the files or load separately")
    end;
    let sess =
      open_session ~page_size ~index:Document_manager.Maintain store_path
    in
    let files = List.map (fun (name, p) -> (name, read_file p)) named in
    let outcome = Natix.Session.load_files_txn ~jobs sess files in
    let failed = ref None in
    List.iter2
      (fun (name, _) result ->
        match result with
        | Ok () -> Printf.printf "loaded %S\n" name
        | Error e ->
          Printf.eprintf "natix: %S: %s\n" name (Error.to_string e);
          if !failed = None then failed := Some e)
      files outcome.Natix_par.Par.results;
    List.iter
      (fun ws ->
        Format.eprintf "worker %d: %a@." ws.Natix_par.Par.worker Natix_store.Io_stats.pp
          ws.Natix_par.Par.io)
      outcome.Natix_par.Par.workers;
    Natix.Session.close sess;
    match !failed with None -> () | Some e -> exit (Error.exit_code e)
  in
  let xml_args =
    Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"FILE" ~doc:"XML files to load.")
  in
  Cmd.v
    (Cmd.info "bulkload"
       ~doc:
         "Load many XML files in one go, each as a document named after its basename and \
          committed as one transaction in its own allocation arena.  With --jobs > 1 files \
          parse and load on parallel worker domains, and the group-commit daemon batches \
          their commit fsyncs.")
    Term.(const run $ store_arg $ xml_args $ page_size_arg $ jobs_arg)

let list_cmd =
  let run store_path =
    let sess = open_session store_path in
    List.iter print_endline (Natix.Session.documents sess);
    Natix.Session.close ~commit:false sess
  in
  Cmd.v (Cmd.info "list" ~doc:"List stored documents.") Term.(const run $ store_arg)

let cat_cmd =
  let run store_path doc pretty =
    let sess = open_session store_path in
    (match Natix.Session.export sess doc with
    | None -> prerr_endline "no such document"; exit 1
    | Some xml ->
      if pretty then print_string (Natix_xml.Xml_print.to_string_pretty xml)
      else print_endline (Natix_xml.Xml_print.to_string xml));
    Natix.Session.close ~commit:false sess
  in
  let pretty = Arg.(value & flag & info [ "pretty" ] ~doc:"Indented output.") in
  Cmd.v
    (Cmd.info "cat" ~doc:"Reconstruct a document's textual representation.")
    Term.(const run $ store_arg $ doc_arg 1 $ pretty)

let query_cmd =
  let run store_path doc path texts naive explain analyze no_index jobs =
    (* With the index open the planner may seed descendant steps from it;
       [--no-index] (or [--naive]) forces pure navigation.  [Fresh_only]
       keeps this command read-only: a persisted index is used only when
       it is current — never created or rebuilt here. *)
    let index =
      if no_index || naive then Document_manager.Off else Document_manager.Fresh_only
    in
    let sess = open_session ~index store_path in
    (if index = Document_manager.Fresh_only
        && Document_manager.stale_index_skipped (Natix.Session.manager sess) then
       prerr_endline
         "note: the element index is stale (the store changed without it); planning by \
          navigation.  Run `natix scan` once to rebuild it.");
    let store = Natix.Session.store sess in
    (if jobs > 1 then begin
       (* The parallel executor renders markup hits only (worker domains
          use private reader views; see Natix_par.Par), so the flags that
          change evaluation or rendering stay sequential-only. *)
       if texts || naive || explain || analyze then begin
         prerr_endline "natix: --jobs combines only with plain evaluation";
         exit 2
       end;
       let outcome = Natix.Session.run_queries ~jobs sess [ (doc, path) ] in
       match outcome.Natix_par.Par.results with
       | [ Error e ] -> fail_error e
       | [ Ok hits ] ->
         List.iter print_endline hits;
         Printf.eprintf "%d hit(s); %s\n" (List.length hits)
           (Format.asprintf "%a" Natix_store.Io_stats.pp (Tree_store.io_stats store))
       | _ -> assert false
     end
     else if analyze then
       match Natix.Session.analyze sess ~doc path with
       | Ok a -> print_endline (Natix_query.Engine.analysis_to_string a)
       | Error e -> fail_error e
     else if explain then
       match Natix.Session.explain sess ~doc path with
       | Ok plan -> print_endline plan
       | Error e -> fail_error e
     else if naive then
       match Natix.Session.query_naive sess ~doc path with
       | Error e -> fail_error e
       | Ok hits ->
         let n = ref 0 in
         Seq.iter
           (fun c ->
             incr n;
             print_endline (Exporter.hit ~texts c))
           hits;
         Printf.eprintf "%d hit(s); %s\n" !n
           (Format.asprintf "%a" Natix_store.Io_stats.pp (Tree_store.io_stats store))
     else
       (* Plain evaluation goes through the Api command path — the same
          request a server connection would dispatch. *)
       match Natix.Session.exec sess (Natix.Api.Query { doc; path; texts }) with
       | Natix.Api.Err e -> fail_error e
       | Natix.Api.Hits hits ->
         List.iter print_endline hits;
         Printf.eprintf "%d hit(s); %s\n" (List.length hits)
           (Format.asprintf "%a" Natix_store.Io_stats.pp (Tree_store.io_stats store))
       | _ -> assert false);
    Natix.Session.close ~commit:false sess
  in
  let path_arg =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"PATH" ~doc:"Path query, e.g. //ACT[3]/SCENE[2]//SPEAKER.")
  in
  let texts = Arg.(value & flag & info [ "text" ] ~doc:"Print text content instead of markup.") in
  let naive =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:"Strict per-step evaluation without planning (the differential baseline).")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the physical plan instead of evaluating.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "EXPLAIN ANALYZE: run the query and print the plan with estimated vs actual page \
             reads, buffer hits and simulated I/O time per operator.")
  in
  let no_index =
    Arg.(
      value & flag
      & info [ "no-index" ] ~doc:"Plan without the element index (navigation only).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Evaluate a path query against a document via the planning engine (child/descendant \
          steps, attribute and text() tests, positional and text-equality predicates).")
    Term.(
      const run $ store_arg $ doc_arg 1 $ path_arg $ texts $ naive $ explain $ analyze $ no_index
      $ jobs_arg)

let stats_cmd =
  let run store_path doc =
    let sess = open_session store_path in
    let store = Natix.Session.store sess in
    (match doc with
    | Some doc -> Format.printf "%s: %a@." doc Stats.pp_doc (Stats.document store doc)
    | None ->
      List.iter
        (fun doc -> Format.printf "%-20s %a@." doc Stats.pp_doc (Stats.document store doc))
        (Natix.Session.documents sess));
    Printf.printf "store: %d pages of %d bytes = %d bytes on disk\n"
      (Natix_store.Disk.page_count (Natix_store.Buffer_pool.disk (Tree_store.buffer_pool store)))
      (Tree_store.config store).Config.page_size (Stats.disk_bytes store);
    Natix.Session.close ~commit:false sess
  in
  let doc = Arg.(value & pos 1 (some string) None & info [] ~docv:"DOC") in
  Cmd.v
    (Cmd.info "stats" ~doc:"Physical statistics of documents and the store.")
    Term.(const run $ store_arg $ doc)

let check_cmd =
  let run store_path doc =
    let sess = open_session store_path in
    Tree_store.check_document (Natix.Session.store sess) doc;
    print_endline "ok";
    Natix.Session.close ~commit:false sess
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run the physical-tree integrity check on a document.")
    Term.(const run $ store_arg $ doc_arg 1)

let scan_cmd =
  let run store_path element texts =
    (* [Ensure] creates the index on first use and rebuilds it if it went
       stale; the session commits on close, persisting the repair. *)
    let sess = open_session ~index:Document_manager.Ensure store_path in
    (match Natix.Session.exec sess (Natix.Api.Scan { element; texts }) with
    | Natix.Api.Err e -> fail_error e
    | Natix.Api.Scanned hits ->
      List.iter print_endline hits;
      Printf.eprintf "%d node(s) of type %s\n" (List.length hits) element
    | _ -> assert false);
    Natix.Session.close sess
  in
  let element_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ELEMENT" ~doc:"Element name.")
  in
  let texts = Arg.(value & flag & info [ "text" ] ~doc:"Print text content instead of markup.") in
  Cmd.v
    (Cmd.info "scan" ~doc:"Scan all elements of a given type via the element index.")
    Term.(const run $ store_arg $ element_arg $ texts)

let validate_cmd =
  let run store_path doc =
    let sess = open_session store_path in
    (match Document_manager.document_dtd (Natix.Session.manager sess) doc with
    | None ->
      print_endline "no DTD stored with this document";
      exit 1
    | Some _ -> (
      match Natix.Session.validate sess doc with
      | Ok () -> print_endline "valid"
      | Error e ->
        Printf.printf "invalid: %s\n" (Error.to_string e);
        exit (Error.exit_code e)));
    Natix.Session.close ~commit:false sess
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate a document against its stored DTD.")
    Term.(const run $ store_arg $ doc_arg 1)

let delete_cmd =
  let run store_path doc =
    (* Like [load]: keep a persisted index in step with the deletion. *)
    let sess = open_session ~index:Document_manager.Maintain store_path in
    Natix.Session.delete_document sess doc;
    Natix.Session.close sess;
    Printf.printf "deleted %S\n" doc
  in
  Cmd.v (Cmd.info "delete" ~doc:"Delete a document.") Term.(const run $ store_arg $ doc_arg 1)

(* ---- request tracing against the serving stack -------------------- *)

(* Query workload files: one `DOC PATH` task per line (the first
   whitespace separates the document from the query); blank lines and
   `#` comments are skipped. *)
let read_tasks path =
  read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let l = String.trim line in
         if l = "" || l.[0] = '#' then None
         else begin
           let cut =
             match (String.index_opt l ' ', String.index_opt l '\t') with
             | Some a, Some b -> Some (min a b)
             | (Some _ as c), None | None, (Some _ as c) -> c
             | None, None -> None
           in
           match cut with
           | None ->
             Printf.eprintf "natix: %s: task line %S has no query\n" path l;
             exit 2
           | Some i -> Some (String.sub l 0 i, String.trim (String.sub l i (String.length l - i)))
         end)

let queries_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "queries" ] ~docv:"FILE"
        ~doc:"Query workload: one $(b,DOC PATH) task per line ($(b,#) comments).")

(* The span tree of one request, indented by causal depth: wall interval
   on the simulated clock, then the span's total and self I/O from the
   request's private disk stream. *)
let pp_trace_report ppf (r : Natix_trace.Trace.report) =
  let open Natix_trace.Trace in
  Format.fprintf ppf "%s %-6s %-24s queued %.2fms  dur %.2fms  io %dr/%dw/%.2fms" r.trace_id
    r.kind
    (if r.detail = "" then "-" else r.detail)
    r.queued_ms r.dur_ms r.total.reads r.total.writes r.total.io_ms;
  let depth = Hashtbl.create 16 in
  List.iter
    (fun (s : span_report) ->
      let d = match Hashtbl.find_opt depth s.parent with Some d -> d + 1 | None -> 0 in
      Hashtbl.replace depth s.id d;
      Format.fprintf ppf "@\n  %s%-*s %10.2f ..%10.2f  total %dr/%.2fms  self %dr/%.2fms"
        (String.make (2 * d) ' ')
        (max 1 (26 - (2 * d)))
        s.name s.start_ms (s.start_ms +. s.dur_ms) s.total.reads s.total.io_ms s.self.reads
        s.self.io_ms)
    r.spans;
  match r.plan with
  | None -> ()
  | Some plan ->
    Format.fprintf ppf "@\n";
    List.iter (fun l -> Format.fprintf ppf "@\n  | %s" l) (String.split_on_char '\n' plan)

let write_folded path reports =
  let oc = open_out path in
  output_string oc (Natix_trace.Trace.folded reports);
  close_out oc;
  Printf.printf "wrote folded stacks to %s\n" path

let tenant_arg =
  Arg.(
    value
    & opt string "t"
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:"Tenant served in $(b,--serve) mode ($(i,ROOT)/$(i,NAME).natix must exist).")

let serve_flag =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "Treat the positional argument as a store directory and drive the workload through \
           the multi-tenant dispatcher (codec, framing, admission, tenant gate), not a bare \
           session.")

(* Run a query workload through the full serving stack with tracing on
   and hand back the server for introspection.  Every request goes
   through the loopback client — the same bytes as a socket peer — so
   the traces cover the path production requests take. *)
let serve_traced ~root ~tenant ~jobs ~trace queries use =
  let registry = Natix_server.Registry.create ~root () in
  let config =
    { Natix_server.Server.default_config with jobs; trace = Some trace }
  in
  let server = Natix_server.Server.create ~config registry in
  Fun.protect
    ~finally:(fun () ->
      Natix_server.Server.shutdown server;
      Natix_server.Registry.close_all registry)
    (fun () ->
      let conn = Natix_server.Server.Loopback.connect server ~tenant in
      let tasks = match queries with None -> [] | Some qf -> read_tasks qf in
      List.iter
        (fun (doc, path) ->
          match
            Natix_server.Server.Loopback.call conn (Natix.Api.Query { doc; path; texts = false })
          with
          | Natix.Api.Hits _ -> ()
          | r ->
            Printf.eprintf "natix: %s %s: %s\n" doc path
              (Format.asprintf "%a" Natix.Api.pp_response r))
        tasks;
      use server conn)

let trace_cmd =
  let run_serve root tenant queries jobs slow_ms jsonl folded =
    serve_traced ~root ~tenant ~jobs
      ~trace:{ Natix_server.Server.default_trace with slow_ms }
      queries
      (fun server _conn ->
        let reports = Natix_server.Server.trace_reports server in
        let slow = Natix_server.Server.slow_reports server in
        Format.printf "natix trace --serve %s — tenant %s, %d request(s), %d slow@." root tenant
          (List.length reports) (List.length slow);
        List.iter (fun r -> Format.printf "@.%a@." pp_trace_report r) reports;
        (match jsonl with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          List.iter
            (fun r ->
              output_string oc (Natix_obs.Json.to_string (Natix_trace.Trace.report_to_json r));
              output_char oc '\n')
            reports;
          close_out oc;
          Printf.printf "wrote %d trace report(s) to %s\n" (List.length reports) path);
        Option.iter (fun path -> write_folded path reports) folded)
  in
  let run xml_path page_size order jsonl last folded kind docf since_ms summary serve tenant
      queries serve_jobs slow_ms =
    if serve then run_serve xml_path tenant queries serve_jobs slow_ms jsonl folded
    else begin
    let keep = Natix_prof.Trace_view.keep_event ?kind ?doc:docf ?since_ms in
    let ring = Natix_obs.Sink.ring ~capacity:65536 () in
    (* The ring keeps the unfiltered stream (the summary and the tail
       filter it); filters apply to what is written and printed. *)
    let jsonl_sink = Option.map Natix_obs.Sink.jsonl jsonl in
    let sink =
      match jsonl_sink with
      | None -> ring
      | Some js ->
        Natix_obs.Sink.multi
          [ ring; Natix_obs.Sink.callback (fun e -> if keep e then Natix_obs.Sink.emit js e) ]
    in
    let obs = Natix_obs.Obs.create ~sink () in
    let config =
      Config.default () |> Config.with_page_size page_size |> Config.with_obs obs
    in
    let store = Tree_store.in_memory ~config () in
    let xml = Natix_xml.Xml_parser.parse_file xml_path in
    let doc = Filename.remove_extension (Filename.basename xml_path) in
    (* One trace on the store's simulated clock: the load (with the sync
       that writes its pages) and the cold traversal are its spans. *)
    let stats () = Tree_store.io_stats store in
    let tr =
      Natix_trace.Trace.create ~trace_id:doc ~tenant:"-" ~kind:"file" ~detail:xml_path
        ~clock:(fun () -> (stats ()).Natix_store.Io_stats.sim_ms)
    in
    let io () =
      let s = stats () in
      {
        Natix_trace.Trace.reads = s.Natix_store.Io_stats.reads;
        writes = s.Natix_store.Io_stats.writes;
        io_ms = s.Natix_store.Io_stats.sim_ms;
      }
    in
    Natix_trace.Trace.run tr ~io (fun () ->
        Natix_trace.Trace.span tr "load" (fun () ->
            ignore (Loader.load store ~name:doc ~order xml);
            Natix_obs.Obs.with_context obs ~doc ~phase:"load" (fun () -> Tree_store.sync store));
        Format.printf "== load ==@.";
        Format.printf "%s: %a@." doc Stats.pp_doc (Stats.document store doc);
        Format.printf "io: %a@." Natix_store.Io_stats.pp (stats ());
        Format.printf "splits=%d merges=%d@." (Tree_store.split_count store)
          (Tree_store.merge_count store);
        (* Cold full traversal under the paper's measurement protocol:
           clear the buffer (and the decoded-record memo), reset the
           fix/miss counters, then read the hit ratio of that one
           operation. *)
        let pool = Tree_store.buffer_pool store in
        Tree_store.clear_buffers store;
        Natix_store.Buffer_pool.reset_stats pool;
        let before = Natix_store.Io_stats.copy (stats ()) in
        let visited = ref 0 in
        Natix_trace.Trace.span tr "traversal" (fun () ->
            Natix_obs.Obs.with_context obs ~doc ~phase:"traversal" @@ fun () ->
            match Tree_store.open_document store doc with
            | None -> ()
            | Some root ->
              let rec walk n =
                incr visited;
                Seq.iter walk (Tree_store.logical_children store n)
              in
              walk root);
        let delta = Natix_store.Io_stats.diff (Natix_store.Io_stats.copy (stats ())) before in
        Format.printf "@.== traversal (cold buffers) ==@.";
        Format.printf "visited %d logical nodes@." !visited;
        Format.printf "io: %a@." Natix_store.Io_stats.pp delta;
        Format.printf "buffer hit ratio: %.3f@." (Natix_store.Buffer_pool.hit_ratio pool));
    let report = Natix_trace.Trace.finish tr in
    Format.printf "@.== trace ==@.%a@." pp_trace_report report;
    Format.printf "@.== metrics ==@.%a@." Natix_obs.Metrics.pp (Natix_obs.Obs.metrics obs);
    (if summary then begin
       (* Count the (filtered) event stream per (doc, kind), printed in
          that order: events without a document first. *)
       let counts = Hashtbl.create 64 in
       List.iter
         (fun (e : Natix_obs.Event.t) ->
           if keep e then begin
             let doc = match e.ctx with Some c -> c.Natix_obs.Event.doc | None -> None in
             let key = (doc, Natix_obs.Event.type_name e.kind) in
             Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
           end)
         (Natix_obs.Obs.events obs);
       Format.printf "@.== summary: events per (kind, doc) ==@.";
       Hashtbl.fold (fun key n acc -> (key, n) :: acc) counts []
       |> List.sort compare
       |> List.iter (fun ((doc, kind), n) ->
              Format.printf "%-18s %-18s %8d@." kind (Option.value doc ~default:"-") n)
     end);
    (if last > 0 then begin
       let events = List.filter keep (Natix_obs.Obs.events obs) in
       let buffered = List.length events in
       let rec drop k l = match l with _ :: t when k > 0 -> drop (k - 1) t | l -> l in
       let tail = drop (buffered - last) events in
       Format.printf "== trace tail (%d of %d emitted) ==@." (List.length tail)
         (Natix_obs.Sink.emitted ring);
       List.iter (fun e -> Format.printf "%a@." Natix_obs.Event.pp e) tail
     end);
    Option.iter (fun path -> write_folded path [ report ]) folded;
    match (jsonl, jsonl_sink) with
    | Some path, Some js ->
      (* A final line with the metrics snapshot follows the event stream. *)
      Natix_obs.Sink.write_json js (Natix_obs.Metrics.to_json (Natix_obs.Obs.metrics obs));
      Natix_obs.Obs.close obs;
      Printf.printf "wrote %d events (+1 metrics line) to %s\n" (Natix_obs.Sink.emitted js) path
    | _ -> ()
    end
  in
  let xml_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"XML file to load ($(b,--serve): a store directory).")
  in
  let jsonl_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE" ~doc:"Also write the full event stream as JSON lines.")
  in
  let last_arg =
    Arg.(
      value
      & opt int 12
      & info [ "last" ] ~docv:"N" ~doc:"Print the last $(docv) trace events (0 disables).")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write the trace's span nesting as folded stacks (simulated µs self weights), the \
             format flamegraph.pl and speedscope consume.")
  in
  let kind_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"TYPE"
          ~doc:"Keep only events of this type (e.g. $(b,io), $(b,page_fix), $(b,split)).")
  in
  let doc_filter_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "doc" ] ~docv:"DOC" ~doc:"Keep only events attributed to this document.")
  in
  let since_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "since-ms" ] ~docv:"MS"
          ~doc:"Keep only events stamped at or after this simulated time.")
  in
  let summary_arg =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:
            "Aggregate the (filtered) event stream: event counts per (kind, doc).")
  in
  let serve_jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "($(b,--serve)) Worker domains dispatching requests; $(b,0) (the default) executes \
             inline, which makes double runs byte-identical.")
  in
  let slow_arg =
    Arg.(
      value & opt float infinity
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "($(b,--serve)) Requests at or above this simulated duration also land in the \
             slow-request log.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Load an XML file into an instrumented in-memory store, traverse it cold, and report \
          events, metrics (splits, fill factors, buffer hit ratio) and one span tree on the \
          simulated clock whose $(b,load) span covers the load and the sync writing its pages \
          and whose $(b,traversal) span covers the cold traversal.  --kind/--doc/--since-ms \
          filter the JSONL event stream and the printed tail; --folded exports the span tree \
          as a flamegraph; --summary counts events per (kind, doc).  With $(b,--serve ROOT), \
          trace a query workload end to end through the \
          multi-tenant dispatcher instead: per-request span trees (queue wait, tenant gate, \
          per-operator execution, commit fsync) whose I/O figures reconcile exactly with each \
          request's private disk stream; --jsonl and --folded then export the trace reports \
          and the aggregated flamegraph.")
    Term.(
      const run $ xml_arg $ page_size_arg $ order_arg $ jsonl_arg $ last_arg $ folded_arg
      $ kind_arg $ doc_filter_arg $ since_arg $ summary_arg $ serve_flag $ tenant_arg
      $ queries_arg $ serve_jobs_arg $ slow_arg)

(* fsck bypasses the session facade: it must open a possibly-damaged
   store with the bare layers so a failure can fall back to the raw
   page sweep. *)
let open_store path =
  let page_size =
    Option.value ~default:8192 (Natix_store.Disk.detect_page_size path)
  in
  let config = { (Config.default ()) with Config.page_size } in
  Tree_store.open_store ~config (Natix_store.Disk.on_file ~page_size path)

let fsck_cmd =
  let run store_path =
    let report =
      match open_store store_path with
      | store -> Fsck.run store
      | exception ((Natix_store.Disk.Bad_page _ | Natix_store.Btree.Corrupt _) as e) ->
        (* Too damaged to open: fall back to the raw page-trailer sweep so
           the report still says which pages are bad. *)
        Printf.eprintf "natix: store does not open (%s); page sweep only\n"
          (Printexc.to_string e);
        let page_size =
          Option.value ~default:8192 (Natix_store.Disk.detect_page_size store_path)
        in
        let disk = Natix_store.Disk.on_file ~page_size store_path in
        Fun.protect
          ~finally:(fun () -> Natix_store.Disk.close disk)
          (fun () -> Fsck.run_disk disk)
    in
    Format.printf "%a@." Fsck.pp report;
    if not (Fsck.ok report) then exit 4
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify the whole store: page checksums and trailers, slotted-page layouts, document \
          trees (proxy chains, cached sizes), and element-index B-tree invariants.  Exits 4 when \
          corruption is found.")
    Term.(const run $ store_arg)

let recover_cmd =
  let run store_path jsonl =
    match Natix_store.Disk.detect_page_size store_path with
    | None ->
      prerr_endline "not a natix store (missing, truncated, or foreign file)";
      exit 2
    | Some page_size ->
      let obs =
        Option.map (fun p -> Natix_obs.Obs.create ~sink:(Natix_obs.Sink.jsonl p) ()) jsonl
      in
      let disk = Natix_store.Disk.on_file ~page_size ?obs store_path in
      let report = Natix_store.Recovery.run ?obs:(Natix_store.Disk.obs disk) disk in
      Printf.printf
        "%s: %s; %d page(s) redone, %d page(s) undone across %d loser(s), %d torn log byte(s) \
         discarded, %d page(s) on disk\n"
        store_path
        (if not report.Natix_store.Recovery.ran then "no write-ahead log, nothing to do"
         else if report.clean then "log was clean (no losers, no torn tail)"
         else "rolled back uncommitted transaction(s)")
        report.redone report.undone report.losers report.torn_bytes report.page_count;
      Natix_store.Disk.close disk;
      Option.iter Natix_obs.Obs.close obs
  in
  let jsonl_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE" ~doc:"Write the recovery event trace as JSON lines.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Run crash recovery on a store explicitly (opening a store does this automatically): \
          discard the write-ahead log's torn tail, roll back the uncommitted batch, and report.")
    Term.(const run $ store_arg $ jsonl_arg)

let doctor_cmd =
  let run store_path top =
    (* Open with an instrumented config (ring sink) so the report's probe
       traversal populates the trace-derived sections; read-only — the
       session is closed without committing. *)
    let page_size =
      Option.value ~default:8192 (Natix_store.Disk.detect_page_size store_path)
    in
    let obs = Natix_obs.Obs.create ~sink:(Natix_obs.Sink.ring ~capacity:262144 ()) () in
    let config =
      { (Config.default ()) with Config.page_size } |> Config.with_obs obs
    in
    let store = Tree_store.open_store ~config (Natix_store.Disk.on_file ~page_size store_path) in
    Fun.protect
      ~finally:(fun () -> Tree_store.close ~commit:false store)
      (fun () -> print_string (Natix_prof.Doctor.run ~top_pages:top store))
  in
  let top_arg =
    Arg.(
      value
      & opt int 5
      & info [ "top" ] ~docv:"N" ~doc:"Hottest pages listed per (document, phase) row.")
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Tree-health report: per-document stats and clustering scores, fill-factor histogram, \
          proxy-chain quantiles, split-decision tallies, WAL write amplification, and \
          a page-heat breakdown.  Read-only.")
    Term.(const run $ store_arg $ top_arg)

let bench_diff_cmd =
  let run baseline_path current_path threshold json_out =
    let parse p = Natix_obs.Json.parse (read_file p) in
    let report =
      Natix_prof.Bench_diff.diff ~threshold_pct:threshold ~baseline:(parse baseline_path)
        ~current:(parse current_path) ()
    in
    Format.printf "%a@." Natix_prof.Bench_diff.pp report;
    (match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Natix_obs.Json.to_string (Natix_prof.Bench_diff.to_json report));
      output_char oc '\n';
      close_out oc);
    if not (Natix_prof.Bench_diff.ok report) then exit 7
  in
  let baseline_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc:"Baseline bench JSON.")
  in
  let current_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc:"New bench JSON.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt float 10.
      & info [ "fail-threshold" ] ~docv:"PCT"
          ~doc:"Relative worsening (in percent) above which a cost figure is a regression.")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE" ~doc:"Also write the verdict as JSON.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two bench JSON reports metric by metric and fail (exit 7) on regressions \
          beyond the threshold or on result mismatches.  The reports are simulated-I/O \
          deterministic, so any difference is a real behaviour change.")
    Term.(const run $ baseline_arg $ current_arg $ threshold_arg $ json_out_arg)

let gen_cmd =
  let run prefix scale =
    let corpus = Natix_workload.Shakespeare.generate (Natix_workload.Shakespeare.scaled scale) in
    List.iteri
      (fun i play ->
        let path = Printf.sprintf "%s-%02d.xml" prefix i in
        let oc = open_out path in
        output_string oc (Natix_xml.Xml_print.to_string ~decl:true play);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      corpus
  in
  let prefix_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PREFIX" ~doc:"Output file prefix.")
  in
  let scale_arg =
    Arg.(value & opt float 0.05 & info [ "scale" ] ~docv:"F" ~doc:"Corpus scale (1.0 = 37 plays).")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate the synthetic Shakespeare-like corpus as XML files.")
    Term.(const run $ prefix_arg $ scale_arg)

(* ---- monitoring commands ------------------------------------------ *)

(* Drive the monitored workload: the queries file when given, a full
   document scan otherwise.  [cold] drops the buffer pool first so the
   probe measures physical I/O instead of re-reading a pool warmed by
   opening the store (the sim clock keeps running either way). *)
let run_probe ?(cold = false) sess queries jobs =
  if cold then Tree_store.clear_buffers (Natix.Session.store sess);
  match queries with
  | Some qf ->
    let outcome = Natix.Session.run_queries ~jobs sess (read_tasks qf) in
    List.iter
      (function Error e -> Printf.eprintf "natix: %s\n" (Error.to_string e) | Ok _ -> ())
      outcome.Natix_par.Par.results
  | None -> ignore (Natix.Session.scan_all ~jobs sess)

let cold_arg =
  Arg.(
    value & flag
    & info [ "cold" ]
        ~doc:"Drop the buffer pool before the probe, so it measures physical I/O.")

let sim_now sess =
  (Tree_store.io_stats (Natix.Session.store sess)).Natix_store.Io_stats.sim_ms

let write_out out text =
  match out with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of standard output.")

let top_cmd =
  (* --serve: the dispatcher's own counters come over the wire through
     Api.Server_stats — the same remote surface a monitoring agent would
     poll — while SLO windows and the slow log read server-side. *)
  let run_serve root tenant queries jobs slow_ms =
    serve_traced ~root ~tenant ~jobs
      ~trace:{ Natix_server.Server.default_trace with slow_ms }
      queries
      (fun server conn ->
        let s =
          match Natix_server.Server.Loopback.call conn Natix.Api.Server_stats with
          | Natix.Api.Server_statted s -> s
          | r ->
            Printf.eprintf "natix: server_stats: %s\n"
              (Format.asprintf "%a" Natix.Api.pp_response r);
            exit 2
        in
        Printf.printf "natix top --serve %s  (tenant %s)\n" root tenant;
        Printf.printf
          "dispatcher: served %d  shed %d  queued %d  running %d  max-queue %d  (jobs %d, \
           inflight cap %d, queue depth %d)\n"
          s.Natix.Api.served s.Natix.Api.shed s.Natix.Api.queued s.Natix.Api.running
          s.Natix.Api.max_queue s.Natix.Api.jobs s.Natix.Api.max_inflight
          s.Natix.Api.queue_depth;
        let reports = Natix_server.Server.trace_reports server in
        let at_ms =
          List.fold_left
            (fun acc (r : Natix_trace.Trace.report) ->
              Float.max acc (r.Natix_trace.Trace.submitted_ms +. r.Natix_trace.Trace.dur_ms))
            0. reports
        in
        Printf.printf "%-24s %8s %10s %10s %10s\n" "TENANT" "REQS" "P50-MS" "P95-MS" "P99-MS";
        List.iter
          (fun (st : Natix_mon.Slo.stat) ->
            let q = function None -> "-" | Some v -> Printf.sprintf "%.2f" v in
            Printf.printf "%-24s %8d %10s %10s %10s\n" st.Natix_mon.Slo.tenant
              st.Natix_mon.Slo.count (q st.Natix_mon.Slo.p50_ms) (q st.Natix_mon.Slo.p95_ms)
              (q st.Natix_mon.Slo.p99_ms))
          (Natix_server.Server.slo_snapshot server ~at_ms);
        match Natix_server.Server.slow_reports server with
        | [] -> ()
        | slow ->
          Printf.printf "slow requests (>= %.2f sim-ms): %d\n" slow_ms (List.length slow);
          List.iter
            (fun (r : Natix_trace.Trace.report) ->
              Printf.printf "  %s %s %s  %.2fms\n" r.Natix_trace.Trace.trace_id
                r.Natix_trace.Trace.kind r.Natix_trace.Trace.detail r.Natix_trace.Trace.dur_ms)
            slow)
  in
  let run store_path queries jobs cold n serve tenant slow_ms =
    if serve then run_serve store_path tenant queries jobs slow_ms
    else begin
    let open Natix_mon in
    let sess = open_session store_path in
    let pool = Tree_store.buffer_pool (Natix.Session.store sess) in
    Natix_store.Buffer_pool.reset_stats pool;
    run_probe ~cold sess queries jobs;
    let mon = Natix.Session.mon sess in
    let at_ms = sim_now sess in
    let snap = Mon.metrics_snapshot mon ~at_ms in
    let series name = List.find_opt (fun s -> s.Registry.name = name) snap.Registry.series in
    let wsum name =
      match series name with None -> 0. | Some s -> s.Registry.window.Window.sum
    in
    Printf.printf "natix top — %s  (sim clock %.1f ms, window %.0f ms)\n" store_path at_ms
      snap.Registry.span_ms;
    Printf.printf "window: reads %.0f  writes %.0f\n" (wsum "reads") (wsum "writes");
    Printf.printf "pool since the probe began: fixes %d  hit ratio %.3f\n"
      (Natix_store.Buffer_pool.fixes pool)
      (Natix_store.Buffer_pool.hit_ratio pool);
    (match series "query_sim_ms" with
    | Some { Registry.quantiles = Some (p50, p95, p99); _ } ->
      Printf.printf "query sim-ms: p50 %.2f  p95 %.2f  p99 %.2f\n" p50 p95 p99
    | _ -> ());
    let accounts =
      List.sort
        (fun a b -> compare b.Account.win_sim_ms.Window.sum a.Account.win_sim_ms.Window.sum)
        (Mon.accounts mon ~at_ms)
    in
    Printf.printf "%-24s %10s %8s %12s %10s %5s\n" "DOC" "READS" "RD/WIN" "SIM-MS" "MS/WIN" "PIN";
    List.iteri
      (fun i (d : Account.doc_stats) ->
        if i < n then
          Printf.printf "%-24s %10d %8.0f %12.2f %10.2f %5d\n" d.Account.doc d.reads_total
            d.win_reads.Window.sum d.sim_ms_total d.win_sim_ms.Window.sum d.pinned_peak)
      accounts;
    Natix.Session.close ~commit:false sess
    end
  in
  let n_arg =
    Arg.(value & opt int 20 & info [ "n" ] ~docv:"N" ~doc:"Documents listed (busiest first).")
  in
  let slow_arg =
    Arg.(
      value & opt float infinity
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"($(b,--serve)) Slow-request log threshold in simulated milliseconds.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run a workload (--queries, or a full scan) against a monitored session and print a \
          top-style report: windowed store rates, moving query-latency quantiles, and the \
          busiest documents by simulated time.  With $(b,--serve ROOT), drive the workload \
          through the multi-tenant dispatcher instead and report its counters (fetched over \
          the wire via Server_stats), per-tenant latency SLO windows, and the slow-request \
          log.")
    Term.(
      const run $ store_arg $ queries_arg $ jobs_arg $ cold_arg $ n_arg $ serve_flag
      $ tenant_arg $ slow_arg)

let mon_export_cmd =
  let run store_path queries jobs cold format out =
    let sess = open_session store_path in
    run_probe ~cold sess queries jobs;
    let mon = Natix.Session.mon sess in
    let at_ms = sim_now sess in
    let text =
      match format with
      | `Prom -> Natix_mon.Mon.export_prometheus mon ~at_ms
      | `Json -> Natix_obs.Json.to_string (Natix_mon.Mon.export_json mon ~at_ms) ^ "\n"
    in
    write_out out text;
    Natix.Session.close ~commit:false sess
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("prometheus", `Prom); ("json", `Json) ]) `Prom
      & info [ "format" ] ~docv:"FMT" ~doc:"$(b,prometheus) text or a $(b,json) snapshot.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Run a workload and export the monitor's sliding-window metrics.  Deterministic \
          workloads export byte-identical snapshots (everything runs on the simulated clock).")
    Term.(const run $ store_arg $ queries_arg $ jobs_arg $ cold_arg $ format_arg $ out_arg)

let mon_capture_cmd =
  let run store_path queries jobs out =
    let sess = open_session store_path in
    let tasks = read_tasks queries in
    let meta, ops =
      Natix_mon.Replay.capture ~jobs ~store_path (Natix.Session.store sess) tasks
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Natix_obs.Json.to_string (Natix_mon.Recorder.meta_to_json meta));
    Buffer.add_char buf '\n';
    List.iter
      (fun op ->
        Buffer.add_string buf (Natix_obs.Json.to_string (Natix_mon.Recorder.op_to_json op));
        Buffer.add_char buf '\n')
      ops;
    write_out out (Buffer.contents buf);
    Printf.eprintf "captured %d op(s); %d read(s), %d write(s), %.2f sim-ms\n" (List.length ops)
      meta.Natix_mon.Recorder.reads meta.Natix_mon.Recorder.writes
      meta.Natix_mon.Recorder.sim_ms;
    Natix.Session.close ~commit:false sess
  in
  let queries_required =
    Arg.(
      required
      & opt (some file) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:"Query workload: one $(b,DOC PATH) task per line ($(b,#) comments).")
  in
  Cmd.v
    (Cmd.info "capture"
       ~doc:
         "Cold-run a query workload (buffers cleared, I/O counters zeroed) and write a replay \
          dump: per-op result digests plus exact whole-run I/O totals.  `natix replay` verifies \
          a store still reproduces it byte for byte.")
    Term.(const run $ store_arg $ queries_required $ jobs_arg $ out_arg)

let mon_dump_cmd =
  let run store_path queries jobs cold out =
    let sess = open_session store_path in
    run_probe ~cold sess queries jobs;
    (match out with
    | None -> Natix.Session.dump_flight sess stdout
    | Some path ->
      let oc = open_out path in
      Natix.Session.dump_flight sess oc;
      close_out oc);
    Natix.Session.close ~commit:false sess
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Run a workload and flush the session's flight ring — the most recent operations with \
          their I/O deltas and outcomes — as JSONL.  (The ring is also flushed automatically to \
          natix-flight.jsonl when the CLI dies on a typed error.)")
    Term.(const run $ store_arg $ queries_arg $ jobs_arg $ cold_arg $ out_arg)

let mon_cmd =
  Cmd.group
    (Cmd.info "mon" ~doc:"Monitor surfaces: metrics export, replay capture, flight-ring dump.")
    [ mon_export_cmd; mon_capture_cmd; mon_dump_cmd ]

let replay_cmd =
  let run dump_path store_override jobs =
    let meta, ops = Natix_mon.Recorder.load dump_path in
    let store_path =
      match (store_override, meta.Natix_mon.Recorder.store) with
      | Some p, _ -> p
      | None, Some p -> p
      | None, None ->
        prerr_endline "natix: dump names no store file; pass --store";
        exit 2
    in
    let sess = open_session store_path in
    let report = Natix_mon.Replay.run ?jobs (Natix.Session.store sess) meta ops in
    let r_reads, r_writes, r_total = report.Natix_mon.Replay.replayed_io in
    let c_reads, c_writes, c_total = report.Natix_mon.Replay.captured_io in
    Printf.printf "replayed %d op(s) (%d skipped: not replayable)\n"
      report.Natix_mon.Replay.replayed report.Natix_mon.Replay.skipped;
    List.iter
      (fun (m : Natix_mon.Replay.mismatch) ->
        Printf.printf "MISMATCH op %d %s %s\n  captured: %s\n  replayed: %s\n" m.seq
          (Option.value m.doc ~default:"-")
          m.detail m.expected m.got)
      report.Natix_mon.Replay.mismatches;
    Printf.printf "io: captured %d+%d=%d, replayed %d+%d=%d (%s)\n" c_reads c_writes c_total
      r_reads r_writes r_total
      (if not report.Natix_mon.Replay.io_checked then "not compared: warm or partial dump"
       else if report.Natix_mon.Replay.io_ok then "equal"
       else "DIFFERENT");
    Printf.printf "sim-ms: captured %.2f, replayed %.2f (informational)\n"
      report.Natix_mon.Replay.captured_sim_ms report.Natix_mon.Replay.replayed_sim_ms;
    Natix.Session.close ~commit:false sess;
    if Natix_mon.Replay.ok report then print_endline "replay ok"
    else begin
      print_endline "replay FAILED";
      exit 8
    end
  in
  let dump_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DUMP" ~doc:"Replay dump (JSONL).")
  in
  let store_override =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"STORE" ~doc:"Replay against this store instead of the dump's.")
  in
  let jobs_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains (default: the dump's job count).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a captured workload and verify the store reproduces it: per-op outcome, \
          row count and result digest must be byte-identical, and for cold captures the \
          read/write/total I/O counts must match exactly (they are schedule-independent, so \
          this holds at any --jobs).  Exits 8 on any divergence.")
    Term.(const run $ dump_arg $ store_override $ jobs_opt)

let checkpoint_cmd =
  let run store_path =
    let sess = open_session store_path in
    (match Natix.Session.exec sess Natix.Api.Checkpoint with
    | Natix.Api.Checkpointed -> print_endline "checkpointed"
    | Natix.Api.Err e -> fail_error e
    | _ -> assert false);
    Natix.Session.close ~commit:false sess
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Force a durable checkpoint: flush dirty pages, fsync, and truncate the write-ahead \
          log.")
    Term.(const run $ store_arg)

let serve_cmd =
  let run root port jobs inflight queue_depth =
    let registry = Natix_server.Registry.create ~root () in
    let config =
      {
        Natix_server.Server.default_config with
        jobs;
        max_inflight = inflight;
        queue_depth;
      }
    in
    let server = Natix_server.Server.create ~config registry in
    Printf.printf "natix: serving stores under %s on 127.0.0.1:%d (%d worker domain(s))\n%!" root
      port jobs;
    Sys.catch_break true;
    (try Natix_server.Server.serve server ~port ()
     with Sys.Break -> prerr_endline "\nnatix: interrupted; draining in-flight requests");
    Natix_server.Server.shutdown server;
    Natix_server.Registry.close_all registry
  in
  let root_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"ROOT"
          ~doc:"Directory of stores; tenant $(i,NAME) maps to $(i,ROOT)/$(i,NAME).natix.")
  in
  let port_arg =
    Arg.(value & opt int 7733 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"TCP port to listen on.")
  in
  let serve_jobs =
    Arg.(
      value & opt int 4
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains dispatching requests (0 = execute inline on the connection).")
  in
  let inflight_arg =
    Arg.(
      value & opt int 64
      & info [ "inflight" ] ~docv:"N"
          ~doc:"Admission limit: running + queued requests before shedding.")
  in
  let queue_arg =
    Arg.(
      value & opt int 32
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Admission limit: queued requests, over all workers, before shedding.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve many stores from one process over a length-prefixed, CRC-framed binary \
          protocol.  Stores open lazily on first use; overload sheds requests with a typed \
          Overloaded reply instead of queueing unboundedly.")
    Term.(const run $ root_arg $ port_arg $ serve_jobs $ inflight_arg $ queue_arg)

let () =
  let info =
    Cmd.info "natix" ~version:"1.0.0"
      ~doc:"A native XML repository with tree-aware record splitting (Kanne & Moerkotte, ICDE 2000)."
  in
  (* Storage-layer failures exit with distinct codes instead of a
     backtrace: 3 = page-level corruption, 4 = index corruption, 5 =
     buffer exhaustion, 6 = unrecoverable transient read failure,
     7 = bench regression, 8 = replay divergence.  Every typed-error
     path also flushes the flight recorder (see [dump_flight_on_error]). *)
  let code =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [
             load_cmd; bulkload_cmd; list_cmd; cat_cmd; query_cmd; scan_cmd; validate_cmd;
             stats_cmd; check_cmd; checkpoint_cmd; delete_cmd; gen_cmd; trace_cmd; doctor_cmd;
             bench_diff_cmd; fsck_cmd; recover_cmd; serve_cmd; top_cmd; mon_cmd; replay_cmd;
           ])
    with
    | Error.Error e ->
      (* Typed failures raised from inside lazy result sequences (the
         [result]-returning entry points already handled the eager ones). *)
      Printf.eprintf "natix: %s\n" (Error.to_string e);
      dump_flight_on_error ();
      Error.exit_code e
    | Natix_store.Disk.Bad_page { page; reason } ->
      if page < 0 then Printf.eprintf "natix: bad superblock: %s\n" reason
      else Printf.eprintf "natix: bad page %d: %s (try `natix recover`)\n" page reason;
      dump_flight_on_error ();
      3
    | Natix_store.Btree.Corrupt reason ->
      Printf.eprintf "natix: corrupt index: %s (try `natix fsck`)\n" reason;
      dump_flight_on_error ();
      4
    | Natix_store.Buffer_pool.All_frames_pinned ->
      prerr_endline "natix: buffer pool exhausted (all frames pinned); raise the buffer size";
      dump_flight_on_error ();
      5
    | Natix_store.Faulty_disk.Read_error page ->
      Printf.eprintf "natix: page %d unreadable after retries\n" page;
      dump_flight_on_error ();
      6
    | e ->
      (* Anything unexpected — a recovery pass dying on a corrupt log, an
         assertion in the storage engine — still flushes the flight
         recorder before the backtrace, so the last moments before the
         failure are on disk next to it. *)
      dump_flight_on_error ();
      raise e
  in
  exit code
