(* The host's speed, measured in the run itself.

   On a shared host, neighbours contend for caches and memory, and the
   benchmark's work runs twice as fast or slow, and more, for seconds or
   minutes at a time.
   A plain integer loop hardly notices; work that allocates and reads
   memory all over a few MB, as the program's does, follows it closely.
   So each timed stretch of a workload is followed by a probe: a fixed
   kernel of that second kind, which calls no code of the program.  The
   probe's speed relative to [nominal] is the host's speed factor, and a
   wall interval times the factor is the interval in reference time: the
   time it would have taken on the host running at [nominal].  Gated
   timings are in reference time, so that they move with the program
   and not with the neighbours.

   The kernel's table is built once; everything a run of it allocates
   dies young.  So the program's heap does not change the kernel's cost,
   and the kernel leaves the program's major heap as it found it. *)

let keys = 65536

(* About 4 MB of strings and list cells, past the 2 MB L2 cache. *)
let table =
  lazy
    (let h = Hashtbl.create keys in
     for i = 0 to keys - 1 do
       Hashtbl.replace h (string_of_int (i * 7919)) [ i ]
     done;
     h)

(* One run: lookups under freshly printed keys spread over the table,
   then a short list built and folded. *)
let kernel () =
  let table = Lazy.force table in
  let s = ref 0 in
  for i = 0 to 1_999 do
    match Hashtbl.find_opt table (string_of_int ((i * 40503) land (keys - 1) * 7919)) with
    | Some l -> s := !s + List.length l
    | None -> ()
  done;
  List.fold_left ( + ) 0 (List.init 500 (fun i -> i + !s))

(* Kernel runs per second: the median rate of back-to-back probes over
   20 s on a shared 2-vCPU Xeon (Emerald Rapids) development host, whose
   probes ranged over 0.65-1.85 times it.  Any fixed value would do; this one
   makes a reference second about a wall second there. *)
let nominal = 1700.

(* Runs per probe: about 35 ms at [nominal].  A 15 ms probe's rate moved
   by a quarter either way from one probe to the next. *)
let runs = 60

let warm_and_time () =
  let table = Lazy.force table in
  Hashtbl.iter (fun _ l -> ignore (Sys.opaque_identity l)) table;
  ignore (Sys.opaque_identity (kernel ()));
  let t0 = Common.now_ns () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (kernel ()))
  done;
  float_of_int runs /. Common.s_of_ns (Common.now_ns () - t0)

(* [probe ~domains] runs the kernel [runs] times in each of [domains]
   domains at once and returns the host's speed factor: the kernel's mean
   speed over [nominal].  A workload whose work runs on both cores is
   slowed by a neighbour on either, so its probe runs on both too.  A
   warm-up run first brings the table back into the caches, whatever the
   program's work left there, so that the factor does not depend on how
   much of the caches that work used. *)
let probe ~domains =
  ignore (Lazy.force table);
  let others = List.init (domains - 1) (fun _ -> Domain.spawn warm_and_time) in
  let mine = warm_and_time () in
  let rates = mine :: List.map Domain.join others in
  List.fold_left ( +. ) 0. rates /. float_of_int domains /. nominal

(* The factors of a run's probes, for its report. *)
type meter = { domains : int; mutable factors : float list }

let meter ~domains = { domains; factors = [] }

let measure m =
  let f = probe ~domains:m.domains in
  m.factors <- f :: m.factors;
  f

(* The median factor of the run: its host speed, printed for people. *)
let speed m = Common.median m.factors

(* Wall and reference time of a measured stretch. *)
type stretch = { wall_ns : int; ref_ns : float }

let slice_ns = 300_000_000

(* [sliced m ~seconds ~run ~commit] measures [seconds] of wall time in
   slices of 0.3 s, with a probe before the first slice and after each.
   [run ~until] does one slice's work, up to the wall deadline [until],
   and returns its samples; [commit f samples] takes them in, [f] being
   the slice's factor: the mean of the probes on either side of it.  The
   probes are not part of the measured time. *)
let sliced m ~seconds ~run ~commit =
  let budget = int_of_float (seconds *. 1e9) in
  let rec go before wall ref_ns =
    if wall >= budget then { wall_ns = wall; ref_ns }
    else begin
      let t0 = Common.now_ns () in
      let samples = run ~until:(t0 + min slice_ns (budget - wall)) in
      let dt = Common.now_ns () - t0 in
      let after = measure m in
      let f = (before +. after) /. 2. in
      commit f samples;
      go after (wall + dt) (ref_ns +. (float_of_int dt *. f))
    end
  in
  go (measure m) 0 0.
