module Json = Natix_obs.Json

type op = {
  seq : int;
  at_ms : float;
  kind : string;
  doc : string option;
  detail : string;
  plan : string option;
  reads : int;
  writes : int;
  sim_ms : float;
  outcome : string;
  digest : string option;
  rows : int option;
}

let outcome = function
  | Ok _ -> "ok"
  | Error (e : Natix_core.Error.t) -> (
    match e with
    | Parse _ -> "error:parse"
    | Validation _ -> "error:validation"
    | Dtd _ -> "error:dtd"
    | Query _ -> "error:query"
    | Storage _ -> "error:storage")

let make ~at_ms ~kind ?doc ~detail ?digest ?rows io outcome =
  let module Io = Natix_store.Io_stats in
  {
    seq = 0;
    at_ms;
    kind;
    doc;
    detail;
    plan = None;
    reads = io.Io.reads;
    writes = io.Io.writes;
    sim_ms = io.Io.sim_ms;
    outcome;
    digest;
    rows;
  }

type meta = {
  version : int;
  store : string option;
  jobs : int;
  cold : bool;
  reads : int;
  writes : int;
  total_ios : int;
  sim_ms : float;
  trace_id : string option;
      (* the request whose failure triggered the dump, when tracing was
         on; absent from the emitted JSON when [None] so pre-trace dumps
         stay byte-identical *)
}

type t = { ring : op option array; mutable next : int }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  { ring = Array.make capacity None; next = 0 }

let add t op =
  let n = Array.length t.ring in
  t.ring.(t.next mod n) <- Some { op with seq = t.next + 1 };
  t.next <- t.next + 1

let added t = t.next

let ops t =
  let n = Array.length t.ring in
  let lo = max 0 (t.next - n) in
  List.init (t.next - lo) (fun i -> Option.get t.ring.((lo + i) mod n))

let opt_string = function None -> Json.Null | Some s -> Json.String s

let op_to_json o =
  Json.Obj
    ([
       ("seq", Json.Int o.seq);
       ("at_ms", Json.Float o.at_ms);
       ("kind", Json.String o.kind);
       ("doc", opt_string o.doc);
       ("detail", Json.String o.detail);
       ("plan", opt_string o.plan);
       ("reads", Json.Int o.reads);
       ("writes", Json.Int o.writes);
       ("sim_ms", Json.Float o.sim_ms);
       ("outcome", Json.String o.outcome);
     ]
    @ (match o.digest with None -> [] | Some d -> [ ("digest", Json.String d) ])
    @ match o.rows with None -> [] | Some r -> [ ("rows", Json.Int r) ])

let get name v = match Json.member name v with Some x -> x | None -> failwith ("missing " ^ name)

let to_int name = function
  | Json.Int i -> i
  | _ -> failwith (name ^ ": expected int")

let to_float name = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> failwith (name ^ ": expected number")

let to_string_j name = function
  | Json.String s -> s
  | _ -> failwith (name ^ ": expected string")

let to_opt_string name = function
  | Json.Null -> None
  | Json.String s -> Some s
  | _ -> failwith (name ^ ": expected string or null")

let op_of_json v =
  {
    seq = to_int "seq" (get "seq" v);
    at_ms = to_float "at_ms" (get "at_ms" v);
    kind = to_string_j "kind" (get "kind" v);
    doc = to_opt_string "doc" (get "doc" v);
    detail = to_string_j "detail" (get "detail" v);
    plan = to_opt_string "plan" (get "plan" v);
    reads = to_int "reads" (get "reads" v);
    writes = to_int "writes" (get "writes" v);
    sim_ms = to_float "sim_ms" (get "sim_ms" v);
    outcome = to_string_j "outcome" (get "outcome" v);
    digest = (match Json.member "digest" v with None -> None | Some d -> to_opt_string "digest" d);
    rows = (match Json.member "rows" v with None | Some Json.Null -> None | Some r -> Some (to_int "rows" r));
  }

let meta_to_json m =
  Json.Obj
    [
      ( "meta",
        Json.Obj
          ([
            ("version", Json.Int m.version);
            ("store", opt_string m.store);
            ("jobs", Json.Int m.jobs);
            ("cold", Json.Bool m.cold);
            ("reads", Json.Int m.reads);
            ("writes", Json.Int m.writes);
            ("total_ios", Json.Int m.total_ios);
            ("sim_ms", Json.Float m.sim_ms);
          ]
          @ (match m.trace_id with None -> [] | Some id -> [ ("trace_id", Json.String id) ])) );
    ]

let meta_of_json v =
  let m = get "meta" v in
  {
    version = to_int "version" (get "version" m);
    store = to_opt_string "store" (get "store" m);
    jobs = to_int "jobs" (get "jobs" m);
    cold = (match get "cold" m with Json.Bool b -> b | _ -> failwith "cold: expected bool");
    reads = to_int "reads" (get "reads" m);
    writes = to_int "writes" (get "writes" m);
    total_ios = to_int "total_ios" (get "total_ios" m);
    sim_ms = to_float "sim_ms" (get "sim_ms" m);
    trace_id =
      (match Json.member "trace_id" m with
      | None | Some Json.Null -> None
      | Some id -> Some (to_string_j "trace_id" id));
  }

let dump oc meta ops =
  output_string oc (Json.to_string (meta_to_json meta));
  output_char oc '\n';
  List.iter
    (fun op ->
      output_string oc (Json.to_string (op_to_json op));
      output_char oc '\n')
    ops;
  flush oc

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           let l = String.trim (input_line ic) in
           if l <> "" then lines := l :: !lines
         done
       with End_of_file -> ());
      match List.rev !lines with
      | [] -> failwith "Recorder.load: empty dump"
      | meta_line :: op_lines ->
        let meta = meta_of_json (Json.parse meta_line) in
        if meta.version <> 1 then failwith "Recorder.load: unsupported dump version";
        (meta, List.map (fun l -> op_of_json (Json.parse l)) op_lines))
