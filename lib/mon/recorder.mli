(** The workload flight recorder: a bounded ring of recent operations.

    Every operation a session, the parallel executor or the server
    completes appends one {!op} — what ran, against which document, the
    I/O delta the operation observed, and its outcome (with the row
    count and, where the producer renders one, an MD5 digest of the
    result, which is what replay compares).  The ring keeps the most
    recent [capacity] records; older ones fall off.

    {!dump} serialises the ring as JSONL — one {!meta} header line, then
    one line per op, oldest first — the format [natix replay] consumes
    (see {!Replay}).  Not thread-safe; {!Mon} serialises. *)

type op = {
  seq : int;  (** assigned by {!add}, monotone over the recorder's life *)
  at_ms : float;  (** sim-clock stamp when the op completed *)
  kind : string;
      (** ["query"] | ["scan"] | ["load"] | ["bulkload"] | ["delete"] |
          ["checkpoint"] *)
  doc : string option;
  detail : string;  (** query path text, loaded file name, … *)
  plan : string option;  (** planner's choice, when the op reports one *)
  reads : int;  (** I/O delta observed across the op *)
  writes : int;
  sim_ms : float;
  outcome : string;  (** ["ok"] or ["error:<class>"] *)
  digest : string option;  (** MD5 hex of rendered query output *)
  rows : int option;  (** rendered hit count, queries only *)
}

(** ["ok"], or ["error:<class>"] with the class one of ["parse"],
    ["validation"], ["dtd"], ["query"], ["storage"]. *)
val outcome : ('a, Natix_core.Error.t) result -> string

(** [make ~at_ms ~kind ?doc ~detail ?digest ?rows io outcome] is one op
    record whose [reads], [writes] and [sim_ms] are those of [io], the
    operation's I/O delta; [plan] is [None] and [seq] is left for {!add}
    to assign.  Every producer of records builds them here. *)
val make :
  at_ms:float ->
  kind:string ->
  ?doc:string ->
  detail:string ->
  ?digest:string ->
  ?rows:int ->
  Natix_store.Io_stats.t ->
  string ->
  op

type meta = {
  version : int;
  store : string option;  (** backing file path, when file-backed *)
  jobs : int;
  cold : bool;
      (** captured from cleared buffers + zeroed I/O counters: replay may
          assert equal I/O totals, not just equal results *)
  reads : int;  (** I/O totals across the whole capture *)
  writes : int;
  total_ios : int;
  sim_ms : float;
  trace_id : string option;
      (** the failing request's trace id when a server dumped this ring
          on a request crash; omitted from the JSON when [None], so
          pre-tracing dumps are unchanged byte for byte *)
}

type t

val create : capacity:int -> t

(** Append an op (the [seq] field of the argument is ignored and
    reassigned); drops the oldest record when full. *)
val add : t -> op -> unit

(** Ops currently retained, oldest first. *)
val ops : t -> op list

(** Total ops ever added (≥ [List.length (ops t)]). *)
val added : t -> int

val op_to_json : op -> Natix_obs.Json.t
val op_of_json : Natix_obs.Json.t -> op
val meta_to_json : meta -> Natix_obs.Json.t
val meta_of_json : Natix_obs.Json.t -> meta

(** [dump oc meta ops] writes the JSONL dump. *)
val dump : out_channel -> meta -> op list -> unit

(** [load path] parses a dump file.
    @raise Failure on malformed input. *)
val load : string -> meta * op list
