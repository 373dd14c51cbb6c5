(** Trace sinks: where emitted events go.

    Three concrete sinks are provided, matching the three consumption
    modes of a trace:

    - {!ring}: a bounded in-memory ring buffer keeping the most recent
      events, for tests and post-mortem inspection with no I/O;
    - {!jsonl}: one JSON object per line appended to a file, for offline
      analysis and the CLI inspector;
    - {!callback}: each event handed to a function as it is emitted, for
      in-process consumers.

    {!multi} fans one event out to several sinks. *)

type t

(** [ring ~capacity ()] keeps the last [capacity] events (default 4096). *)
val ring : ?capacity:int -> unit -> t

(** [jsonl path] truncates/creates [path] and appends one JSON line per
    event.  {!close} flushes and closes the file. *)
val jsonl : string -> t

(** [callback f] hands each event to [f] as it is emitted; nothing is
    retained.  Used by in-process consumers (the profiler) that want the
    stream without buffering it. *)
val callback : (Event.t -> unit) -> t

val multi : t list -> t
val emit : t -> Event.t -> unit

(** Events currently held, oldest first.  Ring sinks report their
    contents; a [multi] concatenates its children's; file and callback
    sinks report []. *)
val events : t -> Event.t list

(** Number of events ever emitted to this sink (before any ring
    truncation). *)
val emitted : t -> int

(** [write_json t v] appends a raw JSON line to JSONL sinks (e.g. a final
    metrics snapshot after the event stream); ignored by other sinks. *)
val write_json : t -> Json.t -> unit

(** Push buffered output to the OS: JSONL sinks flush their channel;
    ring and callback sinks hold nothing.

    {b Buffering contract.}  JSONL event lines are buffered in the
    [out_channel]; a crash of the process (or a simulated
    [Faulty_disk.Crash]) loses whatever has not been flushed.  The store
    calls [flush] at every durable checkpoint and on close, so a trace or
    flight-recorder file on disk is complete up to the last checkpoint,
    with every line valid JSON. *)
val flush : t -> unit

val close : t -> unit
