type histogram = {
  edges : float array;
  counts : int array;  (* length = Array.length edges + 1; last = overflow *)
  mutable sum : float;
  mutable n : int;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; histograms = Hashtbl.create 16 }

let incr ?(by = 1) t name =
  match Hashtbl.find t.counters name with
  | r -> r := !r + by
  | exception Not_found -> Hashtbl.replace t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> !r
  | None -> 0

let edges_valid edges =
  let ok = ref true in
  Array.iteri
    (fun i e -> if (not (Float.is_finite e)) || (i > 0 && e <= edges.(i - 1)) then ok := false)
    edges;
  !ok

let register_histogram t name ~edges =
  match Hashtbl.find_opt t.histograms name with
  | Some h ->
    if h.edges <> edges then
      invalid_arg (Printf.sprintf "Metrics.register_histogram: %S re-registered with different edges" name)
  | None ->
    if Array.length edges = 0 || not (edges_valid edges) then
      invalid_arg "Metrics.register_histogram: edges must be finite and strictly increasing";
    Hashtbl.replace t.histograms name
      { edges; counts = Array.make (Array.length edges + 1) 0; sum = 0.; n = 0 }

let default_edges = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096.; 8192.; 16384.; 32768.; 65536. |]

(* First bucket whose (upper-inclusive) edge admits [v]; the overflow
   bucket when none does. *)
let bucket_of edges v =
  let n = Array.length edges in
  let rec go lo hi =
    (* Invariant: every edge below [lo] is < v; bucket is in [lo, hi]. *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if v <= edges.(mid) then go lo mid else go (mid + 1) hi
    end
  in
  go 0 n

let observe t name v =
  (* A NaN or infinite observation would poison [sum] (and, for NaN, land
     in an arbitrary bucket since every comparison is false); drop it so
     quantiles and means stay finite whatever an instrumentation site
     feeds in. *)
  if Float.is_finite v then begin
    let h =
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
        register_histogram t name ~edges:default_edges;
        Hashtbl.find t.histograms name
    in
    let b = bucket_of h.edges v in
    h.counts.(b) <- h.counts.(b) + 1;
    h.sum <- h.sum +. v;
    h.n <- h.n + 1
  end

let histogram t name =
  Hashtbl.find_opt t.histograms name
  |> Option.map (fun h -> (Array.copy h.edges, Array.copy h.counts, h.sum, h.n))

(* The true quantile is only known up to the bucket; interpolate linearly
   inside it, taking the first bucket's lower edge as 0 and collapsing the
   unbounded overflow bucket to the last edge. *)
let quantile_of_counts edges counts q =
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then None
  else begin
    let rank = q *. float_of_int n in
    let nedges = Array.length edges in
    let rec go i cum =
      if i >= Array.length counts then Some edges.(nedges - 1)
      else begin
        let cum' = cum +. float_of_int counts.(i) in
        if cum' >= rank && counts.(i) > 0 then
          if i >= nedges then Some edges.(nedges - 1)
          else begin
            let lo = if i = 0 then 0. else edges.(i - 1) in
            let frac = (rank -. cum) /. float_of_int counts.(i) in
            Some (lo +. (frac *. (edges.(i) -. lo)))
          end
        else go (i + 1) cum'
      end
    in
    go 0 0.
  end

let quantile t name q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Metrics.quantile: q must be in [0, 1]";
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some h -> quantile_of_counts h.edges h.counts q

let sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare
let counter_names t = sorted_keys t.counters
let histogram_names t = sorted_keys t.histograms

let reset t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.counts 0 (Array.length h.counts) 0;
      h.sum <- 0.;
      h.n <- 0)
    t.histograms

let to_json t =
  let counters =
    List.map (fun name -> (name, Json.Int (counter t name))) (counter_names t)
  in
  let histograms =
    List.map
      (fun name ->
        let h = Hashtbl.find t.histograms name in
        ( name,
          Json.Obj
            [
              ("edges", Json.List (Array.to_list h.edges |> List.map (fun e -> Json.Float e)));
              ("counts", Json.List (Array.to_list h.counts |> List.map (fun c -> Json.Int c)));
              ("sum", Json.Float h.sum);
              ("count", Json.Int h.n);
            ] ))
      (histogram_names t)
  in
  Json.Obj [ ("counters", Json.Obj counters); ("histograms", Json.Obj histograms) ]

let edge_label e =
  if Float.is_integer e && Float.abs e < 1e15 then Printf.sprintf "%.0f" e
  else Printf.sprintf "%g" e

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  (match counter_names t with
  | [] -> ()
  | names ->
    Format.fprintf ppf "counters:@,";
    List.iter (fun name -> Format.fprintf ppf "  %-28s %10d@," name (counter t name)) names);
  List.iter
    (fun name ->
      let h = Hashtbl.find t.histograms name in
      let mean = if h.n = 0 then 0. else h.sum /. float_of_int h.n in
      Format.fprintf ppf "%s (n=%d, mean=%.2f):@," name h.n mean;
      let max_count = Array.fold_left max 1 h.counts in
      let bar c = String.make (c * 40 / max_count) '#' in
      Array.iteri
        (fun i c ->
          if i < Array.length h.edges then
            Format.fprintf ppf "  <=%-10s %8d |%s@," (edge_label h.edges.(i)) c (bar c)
          else if c > 0 then
            Format.fprintf ppf "  > %-10s %8d |%s@," (edge_label h.edges.(Array.length h.edges - 1))
              c (bar c))
        h.counts)
    (histogram_names t);
  Format.fprintf ppf "@]"
