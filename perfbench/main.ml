(* The repository benchmark: three seeded workloads (ingest, query-hot,
   serve-mixed) with end-to-end metrics from an untraced run and
   per-layer metrics from a traced run.  See README.md.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
   main.exe --workload NAME --seed N --counters   (determinism counters)

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   The exit code is 0 only when every output and durability check
   passed. *)

open Common

let workloads = [ "ingest"; "query-hot"; "serve-mixed" ]

let json_number v =
  (* +inf marks a failed operation's latency; JSON has no infinity *)
  let v = if Float.is_nan v then 0. else if v = infinity then max_float else v in
  Printf.sprintf "%.17g" v

let json_line (r : result) metrics =
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number mt.value) mt.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed (String.concat ", " fields)

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun mt -> Printf.printf "  %-28s %16.6g %s\n" mt.name mt.value mt.unit_) metrics

let export_trace ~workload ~seed trs =
  let dir = Filename.concat work_root "trace" in
  mkdir_p dir;
  let base = Filename.concat dir (Printf.sprintf "%s-seed%d" workload seed) in
  Span.export trs ~jsonl:(base ^ ".jsonl") ~folded:(base ^ ".folded");
  Printf.printf "trace: %s.jsonl, %s.folded\n%s\n" base base (Span.reconciliation trs)

let run_one ~workload ~seed ~seconds ~trace =
  let dir = fresh_dir workload in
  let export = export_trace ~workload ~seed in
  let r =
    Fun.protect
      ~finally:(fun () -> remove_tree dir)
      (fun () ->
        match (workload, trace) with
        | "ingest", false -> Ingest.untraced ~seed ~seconds ~dir
        | "ingest", true -> Ingest.traced_run ~seed ~seconds ~dir ~export
        | "query-hot", false -> Query_hot.untraced ~seed ~seconds
        | "query-hot", true -> Query_hot.traced_run ~seed ~seconds ~export
        | "serve-mixed", false -> Serve_mixed.untraced ~seed ~seconds ~dir
        | "serve-mixed", true -> Serve_mixed.traced_run ~seed ~seconds ~dir ~export
        | w, _ -> invalid_arg ("unknown workload " ^ w))
  in
  let title = Printf.sprintf "%s seed=%d seconds=%g trace=%b" workload seed seconds trace in
  print_table title (if trace then r.layers else r.report);
  Printf.printf "  attempted %d, failed %d, correct %b\n" r.attempted r.failed r.correct;
  List.iter (fun n -> Printf.printf "  CHECK FAILED: %s\n" n) r.notes;
  print_endline (json_line r (if trace then r.layers else r.e2e));
  r.correct

let counters ~workload ~seed =
  let dir = fresh_dir workload in
  let cs =
    Fun.protect
      ~finally:(fun () -> remove_tree dir)
      (fun () ->
        match workload with
        | "query-hot" -> Query_hot.counters ~seed ~ops:300
        | "ingest" -> Ingest.counters ~seed ~dir
        | w -> invalid_arg ("no determinism counters for " ^ w))
  in
  print_endline
    ("{"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_number v)) cs)
    ^ "}")

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and count = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ingest | query-hot | serve-mixed | all");
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--counters", Arg.Set count, " print the counters that must repeat exactly for a seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--counters]";
  Unix.putenv "NATIX_FLIGHT_PATH" (Filename.concat work_root "natix-flight.jsonl");
  mkdir_p work_root;
  let names = if !workload = "all" then workloads else [ !workload ] in
  if not (List.for_all (fun w -> List.mem w workloads) names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !count then
    List.iter
      (fun workload -> counters ~workload ~seed:!seed)
      (if !workload = "all" then [ "query-hot"; "ingest" ] else names)
  else begin
    let ok =
      List.for_all Fun.id
        (List.map
           (fun workload -> run_one ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
           names)
    in
    if not ok then exit 1
  end
