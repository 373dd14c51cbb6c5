module Json = Natix_obs.Json

type acct = {
  mutable reads_total : int;
  mutable sim_ms_total : float;
  mutable pinned_peak : int;
  win_reads : Window.t;
  win_sim_ms : Window.t;
}

type t = (string, acct) Hashtbl.t

let create () = Hashtbl.create 8

let window () =
  Window.create ~bucket_ms:Window.default_bucket_ms ~buckets:Window.default_buckets ()

let acct t doc =
  match Hashtbl.find_opt t doc with
  | Some a -> a
  | None ->
    let a =
      {
        reads_total = 0;
        sim_ms_total = 0.;
        pinned_peak = 0;
        win_reads = window ();
        win_sim_ms = window ();
      }
    in
    Hashtbl.add t doc a;
    a

let charge t ~doc ~at_ms ~reads ~sim_ms ~pinned =
  let a = acct t doc in
  a.reads_total <- a.reads_total + reads;
  a.sim_ms_total <- a.sim_ms_total +. sim_ms;
  if pinned > a.pinned_peak then a.pinned_peak <- pinned;
  Window.add a.win_reads ~at_ms (float_of_int reads);
  Window.add a.win_sim_ms ~at_ms sim_ms

type doc_stats = {
  doc : string;
  reads_total : int;
  sim_ms_total : float;
  pinned_peak : int;
  win_reads : Window.agg;
  win_sim_ms : Window.agg;
}

let snapshot t ~at_ms =
  Hashtbl.fold (fun doc a acc -> (doc, a) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (doc, (a : acct)) ->
         {
           doc;
           reads_total = a.reads_total;
           sim_ms_total = a.sim_ms_total;
           pinned_peak = a.pinned_peak;
           win_reads = Window.agg a.win_reads ~at_ms;
           win_sim_ms = Window.agg a.win_sim_ms ~at_ms;
         })

let json_of_agg (a : Window.agg) =
  Json.Obj
    [ ("count", Json.Int a.count); ("sum", Json.Float a.sum); ("rate_per_s", Json.Float a.rate_per_s) ]

let to_json stats =
  Json.List
    (List.map
       (fun d ->
         Json.Obj
           [
             ("doc", Json.String d.doc);
             ("reads_total", Json.Int d.reads_total);
             ("sim_ms_total", Json.Float d.sim_ms_total);
             ("pinned_peak", Json.Int d.pinned_peak);
             ("win_reads", json_of_agg d.win_reads);
             ("win_sim_ms", json_of_agg d.win_sim_ms);
           ])
       stats)
