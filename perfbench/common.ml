(* Shared pieces of the three workloads: the clock, seeded inputs, reply
   rendering and checking, percentiles, and the result record every
   workload fills in. *)

open Natix_core
module Sh = Natix_workload.Shakespeare
module Prng = Natix_util.Prng

(* ---- clocks ---- *)

(* Monotonic nanoseconds; every wall figure of the benchmark comes from
   here. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- scratch space inside the working directory ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let work_root = ".perfbench-work"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A fresh directory for one run's store files, removed by the caller. *)
let fresh_dir name =
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  remove_tree dir;
  mkdir_p dir;
  dir

let remove_store path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Natix_store.Recovery.wal_path path ]

(* Compact the heap before a timed stretch, untimed, so that its
   collections do not depend on what ran before it in the process: how
   many set-ups, rounds or passes, and how much garbage they left. *)
let settle () = Gc.compact ()

(* ---- seeded inputs ---- *)

(* Plays of about 200 KB.  The scene, speech and line ranges are
   narrower than the generator's defaults so that a corpus's size, and
   the cost of a query over it, moves little from one seed to the next:
   the seed changes the data, not the size of the workload. *)
let play_params ~seed ~plays =
  {
    Sh.default_params with
    plays;
    seed = Int64.of_int seed;
    scenes_per_act = (4, 4);
    speeches_per_scene = (30, 36);
    lines_per_speech = (3, 6);
  }

(* One-act plays of about 9 KB: the documents serve-mixed writes. *)
let small_play_params ~seed ~plays =
  {
    (play_params ~seed ~plays) with
    acts_per_play = 1;
    scenes_per_act = (1, 1);
    speeches_per_scene = (20, 25);
  }

let name_docs prefix plays =
  List.mapi (fun i p -> (Printf.sprintf "%s%02d" prefix i, Natix_xml.Xml_print.to_string p)) plays

(* [corpus ~seed ~plays] is [(name, xml)] for each generated play. *)
let corpus ~seed ~plays = name_docs "play-" (Sh.generate (play_params ~seed ~plays))

let xml_bytes docs = List.fold_left (fun acc (_, xml) -> acc + String.length xml) 0 docs

(* [deck rng items] draws from [items] so that each item comes up once in
   every block of [Array.length items] draws, in an order the seed
   shuffles.  A run's mix is then exact: the seed changes the order and
   the data, not how much of each kind of work the run does.  (Drawn
   independently, the share of the costly queries moves by a point or so
   from seed to seed, and the median latency of a mix whose costs cluster
   moves with it.) *)
let deck rng items =
  let a = Array.copy items in
  let n = Array.length a in
  let next = ref n in
  fun () ->
    if !next = n then begin
      for i = n - 1 downto 1 do
        let j = Prng.int rng (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      next := 0
    end;
    let x = a.(!next) in
    incr next;
    x

(* The query mix: the paper's q1-q3, an index-seeded selective path and a
   dense one, each rendered as markup and as text: ten kinds of query,
   dealt from a deck. *)
let paths =
  [|
    "/ACT[3]/SCENE[2]//SPEAKER";
    "/ACT/SCENE/SPEECH[1]";
    "/ACT[1]/SCENE[1]/SPEECH[1]";
    "//SCNDESCR";
    "//SPEAKER";
  |]

type query = { doc : string; path : string; texts : bool }

let kind_name q = q.path ^ if q.texts then " (text)" else " (markup)"

let query_kinds =
  Array.concat (List.map (fun texts -> Array.map (fun path -> (path, texts)) paths) [ false; true ])

(* [query_mix rng ~doc] is a stream of queries: the kind dealt from a
   deck, the document from [doc rng]. *)
let query_mix rng ~doc =
  let kind = deck rng query_kinds in
  fun () ->
    let path, texts = kind () in
    { doc = doc rng; path; texts }

(* A Zipf-like (exponent 1) choice among [n] ranked items. *)
let zipf n =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cum.(r) <- !acc
  done;
  fun rng ->
    let x = Prng.float rng *. !acc in
    let rec search lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < x then search (mid + 1) hi else search lo mid
    in
    search 0 (n - 1)

(* ---- replies ---- *)

(* A hit rendered the way [Natix.Session.exec] renders it: text content
   with [texts], otherwise elements as markup and other nodes as text. *)
let render store ~texts c =
  if texts then Cursor.text_content c
  else if Cursor.is_element c then Exporter.to_string store (Cursor.node c)
  else Cursor.text c

let reply_bytes hits = List.fold_left (fun acc h -> acc + String.length h) 0 hits

(* Reference replies for every query the mix can draw against [docs],
   computed with the naive evaluator. *)
let references sess ~docs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun doc ->
      Array.iter
        (fun path ->
          List.iter
            (fun texts ->
              match Natix.Session.query_naive sess ~doc path with
              | Ok seq ->
                let store = Natix.Session.store sess in
                Hashtbl.replace tbl (doc, path, texts)
                  (List.of_seq (Seq.map (render store ~texts) seq))
              | Error e -> failwith ("reference " ^ path ^ ": " ^ Error.to_string e))
            [ false; true ])
        paths)
    docs;
  tbl

let expected refs q = Hashtbl.find refs (q.doc, q.path, q.texts)

let reply_notes = function
  | 0 -> []
  | n -> [ Printf.sprintf "%d replies differ from the reference" n ]

(* ---- percentiles ---- *)

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The highest of these percentiles that leaves at least ten samples
   beyond it; [None] below 20 samples.  p99 is the highest level named:
   further out, a run on a shared host measures the host's worst second
   more than the program. *)
let tail_levels = [ 0.99; 0.95; 0.9; 0.75; 0.5 ]

let tail ?(top = 0.99) sorted =
  let n = Array.length sorted in
  List.find_opt
    (fun q -> q <= top && n - int_of_float (Float.ceil (q *. float_of_int n)) >= 10)
    tail_levels
  |> Option.map (fun q -> (q, percentile sorted q))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = percentile (sorted_of_list l) 0.5

(* ---- results ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;  (** the gated end-to-end metrics *)
  report : metric list;  (** every end-to-end figure the workload has, for people *)
  layers : metric list;  (** per-layer figures, traced runs only *)
  notes : string list;  (** failed checks, for people *)
}

(* Latency summaries for the report: median and the highest supported
   percentile, named after the level. *)
let latency_report prefix sorted =
  if Array.length sorted = 0 then []
  else
    m (prefix ^ "_p50_ms") "ms" (percentile sorted 0.5)
    :: (match tail sorted with
       | Some (q, v) when q > 0.5 ->
         [ m (Printf.sprintf "%s_p%g_ms" prefix (q *. 100.)) "ms" v ]
       | _ -> [])
    @ [ m (prefix ^ "_samples") "count" (float_of_int (Array.length sorted)) ]

(* The gated tail of one kind's latencies: p95, or the highest lower
   level the sample supports, or the maximum when a run is too short to
   support any.  A kind's p99 rests on a few dozen samples in a run and
   moved by a tenth from run to run on query-hot; its p95 rests on five
   times as many. *)
let tail_value sorted =
  match tail ~top:0.95 sorted with
  | Some (_, v) -> v
  | None -> sorted.(Array.length sorted - 1)

(* ---- the metric catalogue ---- *)

(* Gated end-to-end metrics, printed by every workload's untraced run. *)
let e2e_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("xml_mb_per_s", "MB/s");
    ("kind_p50_ms", "ms");
    ("kind_tail_ms", "ms");
    ("space_amp", "ratio");
  ]

(* Per-layer metrics, printed by every workload's traced run; a layer the
   workload does not call reads 0. *)
let layer_units =
  [
    ("xml.parse_ms_per_mb", "ms/MB");
    ("xml.alloc_words_per_byte", "words/B");
    ("load.ms_per_mb", "ms/MB");
    ("load.alloc_words_per_byte", "words/B");
    ("load.splits_per_mb", "1/MB");
    ("load.fixes_per_mb", "1/MB");
    ("wal.bytes_per_xml_byte", "B/B");
    ("wal.flushes_per_op", "1/op");
    ("commit.docs_per_flush", "docs/flush");
    ("pool.hit_ratio", "ratio");
    ("pool.misses_per_op", "1/op");
    ("pool.fixes_per_op", "1/op");
    ("disk.reads_per_op", "pages/op");
    ("disk.writes_per_op", "pages/op");
    ("disk.seq_ratio", "ratio");
    ("query.plan_us", "us");
    ("query.exec_us", "us");
    ("query.rows_per_op", "rows/op");
    ("query.alloc_words_per_op", "words/op");
    ("render.us_per_op", "us");
    ("render.alloc_words_per_op", "words/op");
    ("api.codec_us_per_op", "us");
    ("protocol.frame_us_per_op", "us");
    ("protocol.bytes_per_op", "B/op");
    ("server.submit_read_ms", "ms");
    ("server.submit_write_ms", "ms");
    ("server.queue_wait_sim_ms", "sim_ms");
    ("server.gate_wait_sim_ms", "sim_ms");
    ("server.exec_sim_ms", "sim_ms");
    ("server.max_queue", "count");
    ("server.shed", "count");
    ("process.cpu_util", "ratio");
    ("process.cpu_ms_per_op", "ms");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections_per_op", "1/op");
    ("trace.overhead", "ratio");
  ]

let pick units values =
  List.map
    (fun (name, u) -> m name u (Option.value (List.assoc_opt name values) ~default:0.))
    units

let ratio a b = if b = 0. then 0. else a /. b
let per a n = ratio a (float_of_int n)
let mb bytes = float_of_int bytes /. 1e6

(* ---- whole-process counters, read where several domains run ---- *)

type proc = { wall : int; cpu : float; minor : float; majors : int }

let proc () =
  let s = Gc.quick_stat () in
  { wall = now_ns (); cpu = cpu_s (); minor = s.Gc.minor_words; majors = s.Gc.major_collections }

let proc_layers ~ops a b =
  let wall_s = s_of_ns (b.wall - a.wall) in
  [
    ("process.cpu_util", ratio (b.cpu -. a.cpu) wall_s);
    ("process.cpu_ms_per_op", per ((b.cpu -. a.cpu) *. 1e3) ops);
    ("gc.minor_words_per_op", per (b.minor -. a.minor) ops);
    ("gc.major_collections_per_op", per (float_of_int (b.majors - a.majors)) ops);
  ]

(* Pool and disk counters of one store over a measured stretch. *)
type store_counters = { io : Natix_store.Io_stats.t; fixes : int; misses : int }

let store_counters store =
  let pool = Tree_store.buffer_pool store in
  {
    io = Natix_store.Io_stats.copy (Tree_store.io_stats store);
    fixes = Natix_store.Buffer_pool.fixes pool;
    misses = Natix_store.Buffer_pool.misses pool;
  }

let store_layers ~ops a b =
  let module Io = Natix_store.Io_stats in
  let d = Io.diff b.io a.io in
  let fixes = b.fixes - a.fixes and misses = b.misses - a.misses in
  [
    ("pool.hit_ratio", if fixes = 0 then 0. else 1. -. (float_of_int misses /. float_of_int fixes));
    ("pool.misses_per_op", per (float_of_int misses) ops);
    ("pool.fixes_per_op", per (float_of_int fixes) ops);
    ("disk.reads_per_op", per (float_of_int d.Io.reads) ops);
    ("disk.writes_per_op", per (float_of_int d.Io.writes) ops);
    ( "disk.seq_ratio",
      ratio
        (float_of_int (d.Io.sequential_reads + d.Io.sequential_writes))
        (float_of_int (d.Io.reads + d.Io.writes)) );
  ]

(* ---- growable float vector for latencies ---- *)

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then v.a <- Array.append v.a (Array.make v.n 0.);
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted vs =
    let a = Array.concat (List.map (fun v -> Array.sub v.a 0 v.n) vs) in
    Array.sort Float.compare a;
    a
end

(* Latencies kept by kind of operation: a query kind, or a write. *)
module By_kind = struct
  type t = (string, Fvec.t) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let push (t : t) kind x =
    match Hashtbl.find_opt t kind with
    | Some v -> Fvec.push v x
    | None ->
      let v = Fvec.create () in
      Fvec.push v x;
      Hashtbl.add t kind v

  (* Every latency of the kinds that satisfy [pred], in several tables
     (one per client), sorted. *)
  let sorted ?(pred = fun _ -> true) ts =
    let pick (k, v) = if pred k then Some v else None in
    Fvec.sorted
      (List.concat_map (fun (t : t) -> List.of_seq (Seq.filter_map pick (Hashtbl.to_seq t))) ts)

  let kinds ts =
    List.sort_uniq String.compare
      (List.concat_map (fun (t : t) -> List.of_seq (Hashtbl.to_seq_keys t)) ts)

  (* The geometric mean, over the kinds, of [stat] of each kind's
     latencies. *)
  let geomean_over_kinds stat ts =
    let ks = kinds ts in
    let log_stat k = log (stat (sorted ~pred:(String.equal k) ts)) in
    exp (List.fold_left (fun acc k -> acc +. log_stat k) 0. ks /. float_of_int (List.length ks))

  (* The gated median: the geometric mean, over the kinds, of each kind's
     median.  A kind's median sits inside the bulk of its latencies, where
     they are dense.  The median of the whole mix sits where the costs of
     one kind end and the next begin, and moves with how far the two
     overlap: by a quarter from run to run on query-hot. *)
  let p50 ts = geomean_over_kinds (fun sorted -> percentile sorted 0.5) ts

  (* The gated tail, likewise: the geometric mean of each kind's tail.
     The tail of the whole mix is the tail of its slowest kind alone (on
     serve-mixed, the writes), so it moves with that kind's every
     outlier. *)
  let tail ts = geomean_over_kinds tail_value ts

  (* Add every latency of [src], times [f], to [dst]. *)
  let scale_into ~f (src : t) (dst : t) =
    Hashtbl.iter (fun k v -> for i = 0 to v.Fvec.n - 1 do push dst k (v.Fvec.a.(i) *. f) done) src
end
