(* Latency edges: the query_sim_ms edges extended upward — an
   end-to-end request duration includes queue and commit wait, which
   under load dwarfs a single query's engine time. *)
let latency_edges =
  [|
    0.1; 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 250.; 500.; 1000.; 2500.; 5000.; 10000.;
    25000.; 50000.; 100000.;
  |]

type t = { lock : Mutex.t; tenants : (string, Window.t) Hashtbl.t }

type stat = {
  tenant : string;
  count : int;
  p50_ms : float option;
  p95_ms : float option;
  p99_ms : float option;
}

let create () = { lock = Mutex.create (); tenants = Hashtbl.create 8 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let window t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some w -> w
  | None ->
    let w =
      Window.create ~bucket_ms:Window.default_bucket_ms ~buckets:Window.default_buckets
        ~quantile_edges:latency_edges ()
    in
    Hashtbl.replace t.tenants tenant w;
    w

let observe t ~tenant ~at_ms ~dur_ms =
  locked t (fun () -> Window.add (window t tenant) ~at_ms dur_ms)

let snapshot t ~at_ms =
  locked t (fun () ->
      Hashtbl.fold
        (fun tenant w acc ->
          let q p = Window.quantile w ~at_ms p in
          {
            tenant;
            count = (Window.agg w ~at_ms).Window.count;
            p50_ms = q 0.50;
            p95_ms = q 0.95;
            p99_ms = q 0.99;
          }
          :: acc)
        t.tenants []
      |> List.sort (fun a b -> String.compare a.tenant b.tenant))
