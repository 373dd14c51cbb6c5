module Json = Natix_obs.Json

type io = { reads : int; writes : int; io_ms : float }

let zero_io = { reads = 0; writes = 0; io_ms = 0. }

let add_io a b =
  { reads = a.reads + b.reads; writes = a.writes + b.writes; io_ms = a.io_ms +. b.io_ms }

let sub_io a b =
  { reads = a.reads - b.reads; writes = a.writes - b.writes; io_ms = a.io_ms -. b.io_ms }

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  mutable t1 : float;
  io0 : io;
  mutable io1 : io;
}

type t = {
  trace_id : string;
  tenant : string;
  kind : string;
  detail : string;
  clock : unit -> float;
  mutable io : unit -> io;
  submitted_ms : float;
  mutable plan : string option;
  mutable next_id : int;
  mutable stack : span list;  (* innermost open span first *)
  mutable spans : span list;  (* reverse opening order *)
  mutable pickup_ms : float;
}

let create ~trace_id ~tenant ~kind ~detail ~clock =
  {
    trace_id;
    tenant;
    kind;
    detail;
    clock;
    io = (fun () -> zero_io);
    submitted_ms = clock ();
    plan = None;
    next_id = 0;
    stack = [];
    spans = [];
    pickup_ms = nan;
  }

let trace_id t = t.trace_id
let clock t = t.clock ()
let set_plan t plan = t.plan <- Some plan

(* A trace is touched by one domain at a time (the submitting
   connection creates it, the executing worker runs it), so span
   bookkeeping needs no lock. *)
let fresh_span t ?t0 name =
  t.next_id <- t.next_id + 1;
  let parent = match t.stack with [] -> 0 | s :: _ -> s.id in
  let t0 = match t0 with Some t0 -> t0 | None -> t.clock () in
  { id = t.next_id; parent; name; t0; t1 = nan; io0 = t.io (); io1 = zero_io }

let open_span t ?t0 name =
  let s = fresh_span t ?t0 name in
  t.stack <- s :: t.stack;
  t.spans <- s :: t.spans;
  s

let close_span t s =
  s.t1 <- t.clock ();
  s.io1 <- t.io ();
  t.stack <-
    (match t.stack with
    | top :: rest when top == s -> rest
    | stack -> List.filter (fun x -> x != s) stack)

let span t name f =
  let s = open_span t name in
  Fun.protect ~finally:(fun () -> close_span t s) f

let interval t name ~t0 ~t1 =
  let s = fresh_span t ~t0 name in
  s.t1 <- t1;
  s.io1 <- s.io0;
  t.spans <- s :: t.spans

let io_child t name ~io ~dur_ms =
  let now = t.clock () in
  let s = { (fresh_span t ~t0:(now -. dur_ms) name) with io0 = zero_io } in
  s.t1 <- now;
  s.io1 <- io;
  t.spans <- s :: t.spans

(* Ambient per-domain trace.  One slot per domain: the dispatcher runs
   one request at a time per worker, and nested requests do not exist. *)
let ambient : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let active () = !(Domain.DLS.get ambient)

let span_here name f = match active () with None -> f () | Some t -> span t name f

let detached f =
  let slot = Domain.DLS.get ambient in
  let saved = !slot in
  slot := None;
  Fun.protect ~finally:(fun () -> slot := saved) f

let run t ~io body =
  let slot = Domain.DLS.get ambient in
  let saved = !slot in
  slot := Some t;
  t.io <- io;
  t.pickup_ms <- t.clock ();
  (* The root starts at submission so queue wait is inside it; its
     private-stream window starts now, on the worker, where the stream
     exists. *)
  let root = open_span t ~t0:t.submitted_ms "request" in
  interval t "queue.wait" ~t0:t.submitted_ms ~t1:t.pickup_ms;
  Fun.protect
    ~finally:(fun () ->
      close_span t root;
      slot := saved)
    body

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

type span_report = {
  id : int;
  parent : int;
  name : string;
  start_ms : float;
  dur_ms : float;
  total : io;
  self : io;
}

type report = {
  trace_id : string;
  tenant : string;
  kind : string;
  detail : string;
  submitted_ms : float;
  queued_ms : float;
  dur_ms : float;
  total : io;
  plan : string option;
  spans : span_report list;
}

let finish (t : t) =
  let spans = List.rev t.spans in
  (* Self = total − Σ direct children totals.  Children carry
     cumulative-snapshot windows nested inside the parent's window, so
     the subtraction telescopes: Σ selves = root total. *)
  let totals = Hashtbl.create 16 in
  List.iter (fun (s : span) -> Hashtbl.replace totals s.id (sub_io s.io1 s.io0)) spans;
  let child_sum = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      if s.parent <> 0 then
        let prev = Option.value ~default:zero_io (Hashtbl.find_opt child_sum s.parent) in
        Hashtbl.replace child_sum s.parent (add_io prev (Hashtbl.find totals s.id)))
    spans;
  let reports =
    List.map
      (fun (s : span) ->
        let total = Hashtbl.find totals s.id in
        let children = Option.value ~default:zero_io (Hashtbl.find_opt child_sum s.id) in
        {
          id = s.id;
          parent = s.parent;
          name = s.name;
          start_ms = s.t0;
          dur_ms = s.t1 -. s.t0;
          total;
          self = sub_io total children;
        })
      spans
  in
  let root_total, root_dur =
    match reports with [] -> (zero_io, 0.) | r :: _ -> (r.total, r.dur_ms)
  in
  {
    trace_id = t.trace_id;
    tenant = t.tenant;
    kind = t.kind;
    detail = t.detail;
    submitted_ms = t.submitted_ms;
    queued_ms = (if Float.is_nan t.pickup_ms then 0. else t.pickup_ms -. t.submitted_ms);
    dur_ms = root_dur;
    total = root_total;
    plan = t.plan;
    spans = reports;
  }

let io_fields prefix io =
  [
    (prefix ^ "reads", Json.Int io.reads);
    (prefix ^ "writes", Json.Int io.writes);
    (prefix ^ "io_ms", Json.Float io.io_ms);
  ]

let span_to_json (s : span_report) =
  Json.Obj
    ([
       ("id", Json.Int s.id);
       ("parent", Json.Int s.parent);
       ("name", Json.String s.name);
       ("start_ms", Json.Float s.start_ms);
       ("dur_ms", Json.Float s.dur_ms);
     ]
    @ io_fields "" s.total
    @ io_fields "self_" s.self)

let report_to_json (r : report) =
  Json.Obj
    ([
       ("trace_id", Json.String r.trace_id);
       ("tenant", Json.String r.tenant);
       ("kind", Json.String r.kind);
       ("detail", Json.String r.detail);
       ("submitted_ms", Json.Float r.submitted_ms);
       ("queued_ms", Json.Float r.queued_ms);
       ("dur_ms", Json.Float r.dur_ms);
     ]
    @ io_fields "" r.total
    @ (match r.plan with None -> [] | Some p -> [ ("plan", Json.String p) ])
    @ [ ("spans", Json.List (List.map span_to_json r.spans)) ])

(* Each span weighs its self duration (its own minus its direct
   children's) in integer simulated microseconds under its
   semicolon-joined ancestor stack; weights sum per stack across
   reports.  A span with no positive self weight adds no line. *)
let folded reports =
  let weights = Hashtbl.create 64 in
  let sim_us ms = int_of_float (Float.round (ms *. 1000.)) in
  List.iter
    (fun (r : report) ->
      let by_id = Hashtbl.create 16 in
      List.iter (fun s -> Hashtbl.replace by_id s.id s) r.spans;
      let rec stack s acc =
        let acc = s.name :: acc in
        if s.parent = 0 then acc
        else match Hashtbl.find_opt by_id s.parent with None -> acc | Some p -> stack p acc
      in
      let child_dur = Hashtbl.create 16 in
      List.iter
        (fun s ->
          if s.parent <> 0 then
            let prev = Option.value ~default:0. (Hashtbl.find_opt child_dur s.parent) in
            Hashtbl.replace child_dur s.parent (prev +. s.dur_ms))
        r.spans;
      List.iter
        (fun s ->
          let children = Option.value ~default:0. (Hashtbl.find_opt child_dur s.id) in
          let self = sim_us (s.dur_ms -. children) in
          if self > 0 then begin
            let key = String.concat ";" (stack s []) in
            Hashtbl.replace weights key
              (self + Option.value ~default:0 (Hashtbl.find_opt weights key))
          end)
        r.spans)
    reports;
  Hashtbl.fold (fun stack w acc -> Printf.sprintf "%s %d\n" stack w :: acc) weights []
  |> List.sort String.compare |> String.concat ""
