module Json = Natix_obs.Json

type entry = {
  edges : float array;  (* [||] = no histogram *)
  global : Window.t;
  by_ctx : (string option * string, Window.t) Hashtbl.t;
  mutable total_count : int;
  mutable total_sum : float;
}

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 16 }

let make_window edges =
  Window.create ~bucket_ms:Window.default_bucket_ms ~buckets:Window.default_buckets
    ~quantile_edges:edges ()

let entry t name edges =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None ->
    let e =
      { edges; global = make_window edges; by_ctx = Hashtbl.create 4; total_count = 0; total_sum = 0. }
    in
    Hashtbl.add t.entries name e;
    e

let define t name ~quantile_edges =
  if Hashtbl.mem t.entries name then invalid_arg ("Registry.define: duplicate series " ^ name);
  ignore (entry t name quantile_edges)

let record t ?ctx ~at_ms name v =
  if Float.is_finite v then begin
    let e = entry t name [||] in
    e.total_count <- e.total_count + 1;
    e.total_sum <- e.total_sum +. v;
    Window.add e.global ~at_ms v;
    match ctx with
    | None -> ()
    | Some { Natix_obs.Event.doc; phase } ->
      let key = (doc, phase) in
      let w =
        match Hashtbl.find_opt e.by_ctx key with
        | Some w -> w
        | None ->
          (* Per-context windows skip the histogram: quantiles are global. *)
          let w = make_window [||] in
          Hashtbl.add e.by_ctx key w;
          w
      in
      Window.add w ~at_ms v
  end

type series = {
  name : string;
  total_count : int;
  total_sum : float;
  window : Window.agg;
  quantiles : (float * float * float) option;
  by_ctx : ((string option * string) * Window.agg) list;
}

type snapshot = { at_ms : float; span_ms : float; series : series list }

let snapshot t ~at_ms =
  let series =
    Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.entries []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, (e : entry)) ->
           let by_ctx =
             Hashtbl.fold (fun key w acc -> (key, Window.agg w ~at_ms) :: acc) e.by_ctx []
             |> List.filter (fun (_, (a : Window.agg)) -> a.count > 0)
             |> List.sort (fun (a, _) (b, _) -> compare a b)
           in
           {
             name;
             total_count = e.total_count;
             total_sum = e.total_sum;
             window = Window.agg e.global ~at_ms;
             quantiles =
               (if Array.length e.edges = 0 then None else Window.p50_95_99 e.global ~at_ms);
             by_ctx;
           })
  in
  { at_ms; span_ms = Window.default_bucket_ms *. float_of_int Window.default_buckets; series }

let json_of_agg (a : Window.agg) =
  Json.Obj
    [ ("count", Json.Int a.count); ("sum", Json.Float a.sum); ("rate_per_s", Json.Float a.rate_per_s) ]

let json_of_ctx (doc, phase) =
  Json.Obj
    [
      ("doc", match doc with None -> Json.Null | Some d -> Json.String d);
      ("phase", Json.String phase);
    ]

let to_json (s : snapshot) =
  Json.Obj
    [
      ("at_ms", Json.Float s.at_ms);
      ("span_ms", Json.Float s.span_ms);
      ( "series",
        Json.List
          (List.map
             (fun sr ->
               let base =
                 [
                   ("name", Json.String sr.name);
                   ("total_count", Json.Int sr.total_count);
                   ("total_sum", Json.Float sr.total_sum);
                   ("window", json_of_agg sr.window);
                 ]
               in
               let q =
                 match sr.quantiles with
                 | None -> []
                 | Some (p50, p95, p99) ->
                   [
                     ( "quantiles",
                       Json.Obj
                         [
                           ("p50", Json.Float p50); ("p95", Json.Float p95); ("p99", Json.Float p99);
                         ] );
                   ]
               in
               let ctxs =
                 match sr.by_ctx with
                 | [] -> []
                 | cs ->
                   [
                     ( "by_ctx",
                       Json.List
                         (List.map
                            (fun (key, agg) ->
                              Json.Obj [ ("ctx", json_of_ctx key); ("window", json_of_agg agg) ])
                            cs) );
                   ]
               in
               Json.Obj (base @ q @ ctxs))
             s.series) );
    ]

(* Prometheus exposition.  Series names become metric names with dots
   replaced; label values escape backslash, quote and newline. *)
let prom_name name =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_') name

let prom_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf {|\\|}
      | '"' -> Buffer.add_string buf {|\"|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let to_prometheus (s : snapshot) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun sr ->
      let n = prom_name sr.name in
      line "# TYPE natix_%s_total counter" n;
      line "natix_%s_total %s" n (Json.float_repr sr.total_sum);
      line "# TYPE natix_%s_window gauge" n;
      line "natix_%s_window %s" n (Json.float_repr sr.window.sum);
      line "natix_%s_rate_per_s %s" n (Json.float_repr sr.window.rate_per_s);
      List.iter
        (fun ((doc, phase), (agg : Window.agg)) ->
          line {|natix_%s_window{doc="%s",phase="%s"} %s|} n
            (prom_label_value (Option.value doc ~default:""))
            (prom_label_value phase) (Json.float_repr agg.sum))
        sr.by_ctx;
      match sr.quantiles with
      | None -> ()
      | Some (p50, p95, p99) ->
        line "natix_%s_p50 %s" n (Json.float_repr p50);
        line "natix_%s_p95 %s" n (Json.float_repr p95);
        line "natix_%s_p99 %s" n (Json.float_repr p99))
    s.series;
  Buffer.contents buf
