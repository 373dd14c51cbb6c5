(* query-hot: one client in a closed loop over an in-memory store of four
   plays (about 1 MB) that fits the 2 MB pool and is warm before timing.
   All the work is the warm CPU path: plan, navigation and record decode,
   render.  No page is read and nothing is written. *)

open Natix_core
open Common
module Session = Natix.Session

let plays = 4
let setups = 5

type state = {
  sess : Session.t;
  docs : (string * string) list;
  refs : (string * string * bool, string list) Hashtbl.t;
}

let exec sess q =
  Session.exec sess (Natix.Api.Query { doc = q.doc; path = q.path; texts = q.texts })

(* The calls [Session.exec] makes for a query, in its order, each a span:
   plan, then every pull of the hit sequence and the render of its hit. *)
let traced tr sess q =
  Span.op tr "query" (fun () ->
      match Span.span tr "query.plan" (fun () -> Session.query sess ~doc:q.doc q.path) with
      | Error e -> Natix.Api.Err e
      | Ok seq ->
        let store = Session.store sess in
        let rec drain seq acc =
          match Span.span tr "query.exec" seq with
          | Seq.Nil -> List.rev acc
          | Seq.Cons (c, rest) ->
            let hit = Span.span tr "render" (fun () -> render store ~texts:q.texts c) in
            drain rest (hit :: acc)
        in
        Natix.Api.Hits (drain seq []))

let request_rng seed = Prng.create ~seed:(Int64.of_int ((seed * 1_000_003) + 17))

(* Every distinct query once, through the untraced path. *)
let warm sess docs =
  List.iter
    (fun (doc, _) ->
      Array.iter
        (fun path ->
          List.iter (fun texts -> ignore (exec sess { doc; path; texts })) [ false; true ])
        paths)
    docs

type pass = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatched : int;
  lat : By_kind.t;  (** reference ms *)
  mutable bytes : int;
  mutable rows : int;
  mutable wall_ns : int;
  mutable ref_ns : float;
}

let new_pass () =
  {
    attempted = 0;
    failed = 0;
    mismatched = 0;
    lat = By_kind.create ();
    bytes = 0;
    rows = 0;
    wall_ns = 0;
    ref_ns = 0.;
  }

(* The request stream; every pass of a seed draws the same one. *)
let requests st ~seed =
  let names = Array.of_list (List.map fst st.docs) in
  query_mix (request_rng seed) ~doc:(fun rng -> Prng.pick rng names)

(* The closed loop: draw a query, ask, time, check the reply; until the
   wall deadline [until] or [max_ops] queries.  Latencies go to [lat]. *)
let loop st p ~next ~ask ~lat ~until ~max_ops =
  while p.attempted < max_ops && now_ns () < until do
    let q = next () in
    p.attempted <- p.attempted + 1;
    let t0 = now_ns () in
    let resp = try ask q with e -> Natix.Api.Err (Error.Storage (Printexc.to_string e)) in
    let t1 = now_ns () in
    match resp with
    | Natix.Api.Hits hits ->
      By_kind.push lat (kind_name q) (ms_of_ns (t1 - t0));
      if hits <> expected st.refs q then p.mismatched <- p.mismatched + 1;
      p.bytes <- p.bytes + reply_bytes hits;
      p.rows <- p.rows + List.length hits
    | _ ->
      p.failed <- p.failed + 1;
      By_kind.push lat (kind_name q) infinity
  done

(* A pass of [seconds] on the wall clock alone, as traced runs make. *)
let wall_pass st ~seed ~ask ~seconds =
  let p = new_pass () in
  let t0 = now_ns () in
  loop st p ~next:(requests st ~seed) ~ask ~lat:p.lat
    ~until:(t0 + int_of_float (seconds *. 1e9))
    ~max_ops:max_int;
  p.wall_ns <- now_ns () - t0;
  p.ref_ns <- float_of_int p.wall_ns;
  p

(* A pass of [seconds] in slices, each followed by a probe of the host's
   speed; latencies and time in reference time. *)
let sliced_pass st ~seed ~meter ~seconds =
  let p = new_pass () and next = requests st ~seed in
  let s =
    Host.sliced meter ~seconds
      ~run:(fun ~until ->
        let lat = By_kind.create () in
        loop st p ~next ~ask:(exec st.sess) ~lat ~until ~max_ops:max_int;
        lat)
      ~commit:(fun f lat -> By_kind.scale_into ~f lat p.lat)
  in
  p.wall_ns <- s.Host.wall_ns;
  p.ref_ns <- s.Host.ref_ns;
  p

let ops_per_s p = float_of_int (p.attempted - p.failed) /. (p.ref_ns /. 1e9)

let set_up ~seed ~tr =
  let splits = ref 0 and fixes = ref 0 in
  let setup ~last =
    let t0 = now_ns () in
    let docs = corpus ~seed ~plays in
    let sess = Session.open_memory () in
    let s, f = Setup.load_docs ?tr sess docs in
    splits := !splits + s;
    fixes := !fixes + f;
    let t1 = now_ns () in
    let refs = if last then references sess ~docs:(List.map fst docs) else Hashtbl.create 1 in
    let t2 = now_ns () in
    warm sess docs;
    ({ sess; docs; refs }, s_of_ns (t1 - t0 + (now_ns () - t2)))
  in
  let st, setup_s = Setup.repeat setups ~setup ~discard:(fun st -> Session.close st.sess) in
  (st, setup_s, !splits, !fixes)

let untraced ~seed ~seconds =
  let st, setup_s, _, _ = set_up ~seed ~tr:None in
  let store = Session.store st.sess in
  settle ();
  let c0 = store_counters store in
  let meter = Host.meter ~domains:1 in
  let p = sliced_pass st ~seed ~meter ~seconds in
  let c1 = store_counters store in
  let sorted = By_kind.sorted [ p.lat ] in
  let space_amp = float_of_int (Stats.disk_bytes store) /. float_of_int (xml_bytes st.docs) in
  Session.close st.sess;
  let sim = (Natix_store.Io_stats.diff c1.io c0.io).Natix_store.Io_stats.sim_ms in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", ops_per_s p);
      ("xml_mb_per_s", mb p.bytes /. (p.ref_ns /. 1e9));
      ("kind_p50_ms", By_kind.p50 [ p.lat ]);
      ("kind_tail_ms", By_kind.tail [ p.lat ]);
      ("space_amp", space_amp);
    ]
  in
  let notes = reply_notes p.mismatched in
  {
    correct = notes = [];
    attempted = p.attempted;
    failed = p.failed;
    e2e = pick e2e_units e2e;
    report =
      pick e2e_units e2e
      @ latency_report "read" sorted
      @ [
          m "sim_ms_per_op" "sim_ms" (per sim p.attempted);
          m "error_ratio" "ratio" (per (float_of_int p.failed) p.attempted);
          m "wall_ops_per_s" "ops/s" (float_of_int (p.attempted - p.failed) /. s_of_ns p.wall_ns);
          m "host_speed" "ratio" (Host.speed meter);
        ];
    layers = [];
    notes;
  }

(* The traced run: an untraced pass and a traced pass of half the time
   each, over the same request stream; per-layer figures come from the
   traced pass and the set-up loads. *)
let traced_run ~seed ~seconds ~export =
  let origin = now_ns () in
  let setup_tr = Span.create ~keep:0 ~origin in
  let st, _, splits, fixes = set_up ~seed ~tr:(Some setup_tr) in
  let store = Session.store st.sess in
  let half = seconds /. 2. in
  settle ();
  let plain = wall_pass st ~seed ~ask:(exec st.sess) ~seconds:half in
  let tr = Span.create ~keep:50 ~origin in
  settle ();
  let c0 = store_counters store and p0 = proc () in
  let p = wall_pass st ~seed ~ask:(traced tr st.sess) ~seconds:half in
  let c1 = store_counters store and p1 = proc () in
  Session.close st.sess;
  export [ setup_tr; tr ];
  let ops = p.attempted in
  let trs = [ tr ] in
  let us name = per (float_of_int (Span.self_ns trs name) /. 1e3) ops in
  let layers =
    Setup.load_layers [ setup_tr ] ~bytes:(setups * xml_bytes st.docs) ~splits ~fixes
    @ store_layers ~ops c0 c1 @ proc_layers ~ops p0 p1
    @ [
        ("query.plan_us", us "query.plan");
        ("query.exec_us", us "query.exec");
        ("query.rows_per_op", per (float_of_int p.rows) ops);
        ( "query.alloc_words_per_op",
          per (Span.self_words trs "query.plan" +. Span.self_words trs "query.exec") ops );
        ("render.us_per_op", us "render");
        ("render.alloc_words_per_op", per (Span.self_words trs "render") ops);
        ("trace.overhead", ratio (ops_per_s plain) (ops_per_s p) -. 1.);
      ]
  in
  let notes = reply_notes (plain.mismatched + p.mismatched) @ Span.check_notes (setup_tr :: trs) in
  {
    correct = notes = [];
    attempted = plain.attempted + p.attempted;
    failed = plain.failed + p.failed;
    e2e = [];
    report = [];
    layers = pick layer_units layers;
    notes;
  }

(* Counters that must repeat exactly for a seed: a fixed number of
   queries on a fresh store, one domain. *)
let counters ~seed ~ops =
  let st, _, _, _ = set_up ~seed ~tr:None in
  let store = Session.store st.sess in
  settle ();
  let c0 = store_counters store in
  let w0 = Gc.minor_words () in
  let p = new_pass () in
  loop st p ~next:(requests st ~seed) ~ask:(exec st.sess) ~lat:p.lat ~until:max_int ~max_ops:ops;
  let w1 = Gc.minor_words () in
  let c1 = store_counters store in
  Session.close st.sess;
  let d = Natix_store.Io_stats.diff c1.io c0.io in
  [
    ("sim_ms", d.Natix_store.Io_stats.sim_ms);
    ("reads", float_of_int d.Natix_store.Io_stats.reads);
    ("rows", float_of_int p.rows);
    ("minor_words", w1 -. w0);
    ("mismatched", float_of_int p.mismatched);
  ]
