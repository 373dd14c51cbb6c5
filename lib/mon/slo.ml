(* Latency edges: the query_sim_ms edges extended upward — an
   end-to-end request duration includes queue and commit wait, which
   under load dwarfs a single query's engine time. *)
let latency_edges =
  [|
    0.1; 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 250.; 500.; 1000.; 2500.; 5000.; 10000.;
    25000.; 50000.; 100000.;
  |]

type entry = {
  win : Window.t;
  mutable target : float option;
  mutable breached : bool;
  mutable breaches : int;
}

type t = {
  bucket_ms : float;
  buckets : int;
  default_target : float option;
  lock : Mutex.t;
  tenants : (string, entry) Hashtbl.t;
}

type breach = { tenant : string; p99_ms : float; target_ms : float; at_ms : float }

type stat = {
  tenant : string;
  count : int;
  p50_ms : float option;
  p95_ms : float option;
  p99_ms : float option;
  target_ms : float option;
  breached : bool;
  breaches : int;
}

let create ?(bucket_ms = 1000.) ?(buckets = 60) ?target_p99_ms () =
  {
    bucket_ms;
    buckets;
    default_target = target_p99_ms;
    lock = Mutex.create ();
    tenants = Hashtbl.create 8;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entry t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some e -> e
  | None ->
    let e =
      {
        win =
          Window.create ~bucket_ms:t.bucket_ms ~buckets:t.buckets ~quantile_edges:latency_edges
            ();
        target = t.default_target;
        breached = false;
        breaches = 0;
      }
    in
    Hashtbl.replace t.tenants tenant e;
    e

let set_target t ~tenant ~p99_ms =
  locked t (fun () -> (entry t tenant).target <- p99_ms)

(* Edge trigger, Account-style: one event per crossing.  Unlike the
   budget latch it re-arms when the moving p99 drops back under the
   target — an SLO burn that ended and restarted is two events. *)
let observe t ~tenant ~at_ms ~dur_ms =
  locked t (fun () ->
      let e = entry t tenant in
      Window.add e.win ~at_ms dur_ms;
      match e.target with
      | None -> None
      | Some target -> (
        match Window.quantile e.win ~at_ms 0.99 with
        | None -> None
        | Some p99 ->
          if p99 > target then
            if e.breached then None
            else (
              e.breached <- true;
              e.breaches <- e.breaches + 1;
              Some { tenant; p99_ms = p99; target_ms = target; at_ms })
          else (
            e.breached <- false;
            None)))

let snapshot t ~at_ms =
  locked t (fun () ->
      Hashtbl.fold
        (fun tenant e acc ->
          let q p = Window.quantile e.win ~at_ms p in
          {
            tenant;
            count = (Window.agg e.win ~at_ms).Window.count;
            p50_ms = q 0.50;
            p95_ms = q 0.95;
            p99_ms = q 0.99;
            target_ms = e.target;
            breached = e.breached;
            breaches = e.breaches;
          }
          :: acc)
        t.tenants []
      |> List.sort (fun a b -> String.compare a.tenant b.tenant))
