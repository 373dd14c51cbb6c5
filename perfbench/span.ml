(* Spans recorded by the benchmark around its calls into the program.

   One recorder per domain.  A span has a name, a start and an end on the
   monotonic clock, a parent and the id of its operation, plus the
   domain's [Gc.minor_words] at both ends.  Spans of one operation are
   kept until the operation ends; then each span's self time (its
   duration minus the time its child spans cover) is added to per-name
   and per-stack totals, and the self times are checked to sum exactly to
   the operation's span.  The spans of the first [keep] operations are
   also kept in memory as JSON lines for export when the run ends. *)

let next_op = Atomic.make 0
let max_depth = 16

type t = {
  keep : int;
  origin : int;  (* ns; exported times are relative to it *)
  mutable n : int;
  mutable names : string array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable w0 : float array;
  mutable w1 : float array;
  stack : int array;
  mutable depth : int;
  mutable op : int;
  (* Aggregates over every finished operation, per distinct stack.  A
     stack is identified by (parent stack id, span name); names are
     string literals, so physical equality finds them. *)
  mutable stacks : (int * string * string) array;  (* parent id, name, folded path *)
  mutable st_self_ns : int array;
  mutable st_self_words : float array;
  mutable st_count : int array;
  mutable ops : int;
  mutable mismatches : int;
  jsonl : Buffer.t;
}

let create ~keep ~origin =
  let cap = 64 in
  {
    keep;
    origin;
    n = 0;
    names = Array.make cap "";
    parent = Array.make cap (-1);
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    w0 = Array.make cap 0.;
    w1 = Array.make cap 0.;
    stack = Array.make max_depth 0;
    depth = 0;
    op = -1;
    stacks = [||];
    st_self_ns = [||];
    st_self_words = [||];
    st_count = [||];
    ops = 0;
    mismatches = 0;
    jsonl = Buffer.create 4096;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let g a fill = Array.init cap (fun i -> if i < t.n then a.(i) else fill) in
  t.names <- g t.names "";
  t.parent <- g t.parent (-1);
  t.t0 <- g t.t0 0;
  t.t1 <- g t.t1 0;
  t.w0 <- g t.w0 0.;
  t.w1 <- g t.w1 0.

let open_span t name =
  if t.n = Array.length t.names then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.names.(i) <- name;
  t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1;
  t.w0.(i) <- Gc.minor_words ();
  t.t0.(i) <- Common.now_ns ();
  i

let close_span t i =
  t.t1.(i) <- Common.now_ns ();
  t.w1.(i) <- Gc.minor_words ();
  t.depth <- t.depth - 1

let stack_id t ~parent name =
  let k = Array.length t.stacks in
  let rec find j =
    if j = k then begin
      let path = if parent < 0 then name else (let _, _, p = t.stacks.(parent) in p ^ ";" ^ name) in
      t.stacks <- Array.append t.stacks [| (parent, name, path) |];
      t.st_self_ns <- Array.append t.st_self_ns [| 0 |];
      t.st_self_words <- Array.append t.st_self_words [| 0. |];
      t.st_count <- Array.append t.st_count [| 0 |];
      k
    end
    else
      let p, n, _ = t.stacks.(j) in
      if p = parent && n == name then j else find (j + 1)
  in
  find 0

(* Self figures of the finished operation; checks, aggregates, exports. *)
let finish_op t ~kind =
  let n = t.n in
  let self = Array.init n (fun i -> t.t1.(i) - t.t0.(i)) in
  let selfw = Array.init n (fun i -> t.w1.(i) -. t.w0.(i)) in
  (* end of the latest child seen, per span: children must not overlap *)
  let last = Array.init n (fun i -> t.t0.(i)) in
  let ok = ref (t.parent.(0) = -1) in
  for i = 1 to n - 1 do
    let p = t.parent.(i) in
    if p < 0 || p >= i || t.t0.(i) < last.(p) || t.t1.(i) > t.t1.(p) || t.t1.(i) < t.t0.(i)
    then ok := false
    else begin
      last.(p) <- t.t1.(i);
      self.(p) <- self.(p) - (t.t1.(i) - t.t0.(i));
      selfw.(p) <- selfw.(p) -. (t.w1.(i) -. t.w0.(i))
    end
  done;
  if Array.fold_left ( + ) 0 self <> t.t1.(0) - t.t0.(0) then ok := false;
  if not !ok then t.mismatches <- t.mismatches + 1;
  let ids = Array.make n 0 in
  for i = 0 to n - 1 do
    let id = stack_id t ~parent:(if i = 0 then -1 else ids.(t.parent.(i))) t.names.(i) in
    ids.(i) <- id;
    t.st_self_ns.(id) <- t.st_self_ns.(id) + self.(i);
    t.st_self_words.(id) <- t.st_self_words.(id) +. selfw.(i);
    t.st_count.(id) <- t.st_count.(id) + 1
  done;
  if t.ops < t.keep then
    for i = 0 to n - 1 do
      Printf.bprintf t.jsonl
        "{\"op\":%d,\"kind\":%S,\"span\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\
         \"end_ns\":%d,\"self_ns\":%d,\"minor_words\":%.0f}\n"
        t.op kind i t.parent.(i) t.names.(i) (t.t0.(i) - t.origin) (t.t1.(i) - t.origin) self.(i)
        selfw.(i)
    done;
  t.ops <- t.ops + 1;
  t.n <- 0

(* [op t kind f] runs [f] as one operation, the root span named [kind]. *)
let op t kind f =
  t.op <- Atomic.fetch_and_add next_op 1;
  let i = open_span t kind in
  match f () with
  | v ->
    close_span t i;
    finish_op t ~kind;
    v
  | exception e ->
    close_span t i;
    finish_op t ~kind;
    raise e

(* [span t name f] runs [f] as a child of the innermost open span. *)
let span t name f =
  let i = open_span t name in
  match f () with
  | v ->
    close_span t i;
    v
  | exception e ->
    close_span t i;
    raise e

(* ---- reading the aggregates of several recorders ---- *)

(* Sum of [field] over every stack that satisfies [pred name path]. *)
let sum ts field pred zero add =
  List.fold_left
    (fun acc t ->
      let acc = ref acc in
      Array.iteri
        (fun j (_, n, path) -> if pred n path then acc := add !acc (field t).(j))
        t.stacks;
      !acc)
    zero ts

let leaf name n _ = n = name

(* Self time of every span named [name], wherever it sits. *)
let self_ns ts name = sum ts (fun t -> t.st_self_ns) (leaf name) 0 ( + )
let self_words ts name = sum ts (fun t -> t.st_self_words) (leaf name) 0. ( +. )

(* Self time of the spans at one folded stack, e.g. ["op.read;server.submit"]. *)
let path_self_ns ts path = sum ts (fun t -> t.st_self_ns) (fun _ p -> p = path) 0 ( + )
let mismatches ts = List.fold_left (fun acc t -> acc + t.mismatches) 0 ts

(* The failed-check note of [ts], if some operation's self times do not
   sum to it. *)
let check_notes ts =
  match mismatches ts with
  | 0 -> []
  | n -> [ Printf.sprintf "%d operations whose span self times do not sum to the operation" n ]

let reconciliation ts =
  let ops = List.fold_left (fun acc t -> acc + t.ops) 0 ts in
  Printf.sprintf "spans: %d operations, %d whose self times do not sum to the operation" ops
    (mismatches ts)

(* Write the kept spans as JSON lines and every operation's self time as
   folded stacks (one "a;b;c <self ns>" line per distinct stack). *)
let export ts ~jsonl ~folded =
  let oc = open_out jsonl in
  List.iter (fun t -> Buffer.output_buffer oc t.jsonl) ts;
  close_out oc;
  let merged = Hashtbl.create 32 in
  List.iter
    (fun t ->
      Array.iteri
        (fun j (_, _, path) ->
          let v = t.st_self_ns.(j) in
          match Hashtbl.find_opt merged path with
          | Some r -> r := !r + v
          | None -> Hashtbl.add merged path (ref v))
        t.stacks)
    ts;
  let lines = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) merged [] |> List.sort compare in
  let oc = open_out folded in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v) lines;
  close_out oc
