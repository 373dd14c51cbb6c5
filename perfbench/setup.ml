(* Set-up steps shared by the workloads that serve queries. *)

open Natix_core
open Common

(* [repeat n ~setup ~discard] sets up [n] times and keeps the last state;
   the reported set-up time is the median of the [n], in reference
   seconds: each set-up's wall time times the host's speed factor, the
   mean of probes before and after it (see [Host]).  [setup ~last]
   returns its state and its own duration in wall seconds. *)
let repeat n ~setup ~discard =
  let rec go i times =
    settle ();
    let before = Host.probe ~domains:1 in
    let st, wall = setup ~last:(i = n) in
    let s = wall *. (before +. Host.probe ~domains:1) /. 2. in
    if i = n then (st, median (s :: times))
    else begin
      discard st;
      go (i + 1) (s :: times)
    end
  in
  go 1 []

(* Store [docs] the way a [Load] request does.  Traced, each document is
   an operation whose spans are the two calls [Session.exec] makes for
   it: the parse and the store.  Returns the splits and pool fixes the
   loads made. *)
let load_docs ?tr sess docs =
  let store = Natix.Session.store sess in
  let pool = Tree_store.buffer_pool store in
  let splits = Tree_store.split_count store and fixes = Natix_store.Buffer_pool.fixes pool in
  List.iter
    (fun (doc, xml) ->
      match tr with
      | None -> (
        match Natix.Session.exec sess (Natix.Api.Load { doc; xml; order = Loader.Preorder }) with
        | Natix.Api.Loaded _ -> ()
        | r -> failwith (Format.asprintf "set-up load %s: %a" doc Natix.Api.pp_response r))
      | Some tr ->
        Span.op tr "setup.load" (fun () ->
            let tree = Span.span tr "xml.parse" (fun () -> Natix_xml.Xml_parser.parse xml) in
            match
              Span.span tr "load.store" (fun () ->
                  Natix.Session.store_document sess ~name:doc ~order:Loader.Preorder tree)
            with
            | Ok _ -> ()
            | Error e -> failwith ("set-up load " ^ doc ^ ": " ^ Error.to_string e)))
    docs;
  (Tree_store.split_count store - splits, Natix_store.Buffer_pool.fixes pool - fixes)

(* Per-layer figures of the traced set-up loads: [bytes] of XML stored,
   split and fix counts read around them. *)
let load_layers trs ~bytes ~splits ~fixes =
  let mbs = mb bytes in
  [
    ("xml.parse_ms_per_mb", ratio (ms_of_ns (Span.self_ns trs "xml.parse")) mbs);
    ("xml.alloc_words_per_byte", per (Span.self_words trs "xml.parse") bytes);
    ("load.ms_per_mb", ratio (ms_of_ns (Span.self_ns trs "load.store")) mbs);
    ("load.alloc_words_per_byte", per (Span.self_words trs "load.store") bytes);
    ("load.splits_per_mb", ratio (float_of_int splits) mbs);
    ("load.fixes_per_mb", ratio (float_of_int fixes) mbs);
  ]
