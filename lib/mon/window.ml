type bucket = {
  mutable epoch : int;  (* absolute bucket index this slot currently holds; -1 = empty *)
  mutable count : int;
  mutable sum : float;
  hist : int array;  (* length = edges + 1 (overflow); [||] without edges *)
}

type t = {
  bucket_ms : float;
  buckets : bucket array;
  edges : float array;  (* [||] = no histogram *)
}

let default_bucket_ms = 1000.
let default_buckets = 60

let create ~bucket_ms ~buckets ?(quantile_edges = [||]) () =
  if not (bucket_ms > 0.) then invalid_arg "Window.create: bucket_ms must be positive";
  if buckets <= 0 then invalid_arg "Window.create: buckets must be positive";
  if not (Natix_obs.Metrics.edges_valid quantile_edges) then
    invalid_arg "Window.create: quantile edges must be finite and strictly increasing";
  let hist_len = if Array.length quantile_edges = 0 then 0 else Array.length quantile_edges + 1 in
  {
    bucket_ms;
    buckets =
      Array.init buckets (fun _ ->
          { epoch = -1; count = 0; sum = 0.; hist = Array.make hist_len 0 });
    edges = quantile_edges;
  }

let span_ms t = t.bucket_ms *. float_of_int (Array.length t.buckets)

let abs_index t at_ms = int_of_float (Float.floor (at_ms /. t.bucket_ms))

let reset_bucket b epoch =
  b.epoch <- epoch;
  b.count <- 0;
  b.sum <- 0.;
  Array.fill b.hist 0 (Array.length b.hist) 0

let add t ~at_ms v =
  if Float.is_finite v && Float.is_finite at_ms then begin
    let epoch = abs_index t at_ms in
    let n = Array.length t.buckets in
    let b = t.buckets.(((epoch mod n) + n) mod n) in
    (* A slot whose epoch differs holds either a retired bucket (reuse it)
       or a newer one (the stamp is older than the window: drop). *)
    if b.epoch < epoch then reset_bucket b epoch;
    if b.epoch = epoch then begin
      b.count <- b.count + 1;
      b.sum <- b.sum +. v;
      if Array.length t.edges > 0 then begin
        let s = Natix_obs.Metrics.bucket_of t.edges v in
        b.hist.(s) <- b.hist.(s) + 1
      end
    end
  end

type agg = { count : int; sum : float; rate_per_s : float }

(* Buckets live iff their epoch is within the last [buckets] indices
   ending at the bucket covering [at_ms].  Iterating the slot array in
   order visits live epochs in a fixed (arbitrary but deterministic)
   order; sums are accumulated in ascending-epoch order to keep float
   totals independent of the ring's phase. *)
let live t ~at_ms =
  let newest = abs_index t at_ms in
  let oldest = newest - Array.length t.buckets + 1 in
  Array.to_list t.buckets
  |> List.filter (fun b -> b.epoch >= oldest && b.epoch <= newest)
  |> List.sort (fun a b -> compare a.epoch b.epoch)

let agg t ~at_ms =
  let bs = live t ~at_ms in
  let count = List.fold_left (fun acc (b : bucket) -> acc + b.count) 0 bs in
  let sum = List.fold_left (fun acc (b : bucket) -> acc +. b.sum) 0. bs in
  { count; sum; rate_per_s = sum /. (span_ms t /. 1000.) }

let quantile t ~at_ms q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Window.quantile: q must be in [0, 1]";
  if Array.length t.edges = 0 then None
  else begin
    let counts = Array.make (Array.length t.edges + 1) 0 in
    List.iter
      (fun b -> Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) b.hist)
      (live t ~at_ms);
    Natix_obs.Metrics.quantile_of_counts t.edges counts q
  end

let p50_95_99 t ~at_ms =
  match (quantile t ~at_ms 0.5, quantile t ~at_ms 0.95, quantile t ~at_ms 0.99) with
  | Some a, Some b, Some c -> Some (a, b, c)
  | _ -> None
