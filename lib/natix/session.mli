(** One handle to a whole store.

    A session bundles the layers an application would otherwise wire by
    hand — {!Natix_store.Disk} + {!Natix_core.Tree_store} +
    {!Natix_core.Document_manager} + the {!Natix_query.Engine} — behind
    three constructors:

    {[
      Natix.Session.with_store "plays.natix" (fun s ->
          match Natix.Session.query s ~doc:"hamlet" "//ACT[3]//SPEAKER" with
          | Ok hits -> Seq.iter print_hit hits
          | Error e -> prerr_endline (Natix.Error.to_string e))
    ]}

    File sessions detect the page size of an existing store file (the
    configured size only applies on creation), run recovery on open, and
    checkpoint on {!close}.

    {b Every session is monitored.}  Each operation the session
    completes — a load, a consumed query, a scan, a bulk load, a delete,
    a checkpoint — is recorded with its exact I/O delta into the
    session's {!Natix_mon.Mon} monitor, which keeps sliding-window
    metrics, per-document accounts and the operation flight ring from
    those records alone (see {!mon} and {!dump_flight}).  The monitor
    reads no events, so the store runs the uninstrumented engine unless
    the configuration carries an observability handle
    ({!Natix_core.Config.with_obs}). *)

open Natix_core

type t

(** Construction options, one record instead of a keyword argument per
    knob.  Build from {!Options.default} with record update syntax:

    {[
      Natix.Session.open_store
        ~options:{ Natix.Session.Options.default with index = Fresh_only }
        "plays.natix"
    ]} *)
module Options : sig
  type t = {
    config : Config.t option;
        (** full store configuration; [None] uses {!Config.default}.
            Its page size applies only when {!open_store} creates the
            file: an existing file keeps its own. *)
    index : Document_manager.index_mode;
        (** element-index policy, default {!Document_manager.Ensure}:
            open or create the index, rebuilding it when stale.
            Index-seeded query plans need an index; read-only sessions
            should use [Fresh_only] so a stale index is skipped instead
            of rebuilt. *)
  }

  val default : t
end

(** [open_store ?options path] opens (or creates) a file-backed store. *)
val open_store : ?options:Options.t -> string -> t

(** An in-memory session (benchmarks, tests). *)
val open_memory : ?options:Options.t -> unit -> t

(** [with_store ?options path f] opens, applies [f], and {!close}s (also
    on exceptions). *)
val with_store : ?options:Options.t -> string -> (t -> 'a) -> 'a

(** Wrap an existing store (takes no ownership of closing it), with a
    fresh monitor.  [path] labels flight dumps. *)
val of_store : ?index:Document_manager.index_mode -> ?path:string -> Tree_store.t -> t

(** {2 The bundled layers} *)

val store : t -> Tree_store.t
val manager : t -> Document_manager.t
val engine : t -> Natix_query.Engine.t

(** The session's monitor. *)
val mon : t -> Natix_mon.Mon.t

(** {2 Monitoring}

    Conveniences over {!mon}. *)

(** Write the operation flight ring as a JSONL dump (see
    {!Natix_mon.Recorder}); the meta line carries the session's
    cumulative I/O totals and [cold = false].  [trace_id], when given,
    names the request whose failure triggered the dump. *)
val dump_flight : ?trace_id:string -> t -> out_channel -> unit

(** Where error paths write the flight ring: [$NATIX_FLIGHT_PATH] when
    set and non-empty, else ["natix-flight.jsonl"]. *)
val flight_path : unit -> string

(** [write_flight ?trace_id t] writes {!dump_flight} to {!flight_path}
    and returns [Some path], or [None] when the file cannot be written;
    it never raises.  The one writer behind the CLI's exit handler, the
    server's request-crash dump and the open-failure path inside
    {!open_store}. *)
val write_flight : ?trace_id:string -> t -> string option

(** Stored document names, sorted. *)
val documents : t -> string list

(** Durable checkpoint: element-index refresh, catalog save, buffer
    flush, WAL commit.  Recorded as a ["checkpoint"] operation. *)
val checkpoint : t -> unit

(** {!checkpoint} (unless [~commit:false]; not recorded), then close the
    WAL and the disk. *)
val close : ?commit:bool -> t -> unit

(** {2 Documents} *)

val store_document :
  t ->
  name:string ->
  ?dtd:Natix_xml.Dtd.t ->
  ?infer_dtd:bool ->
  ?order:Loader.order ->
  Natix_xml.Xml_tree.t ->
  (Phys_node.t, Error.t) result

val validate : t -> string -> (unit, Error.t) result

val delete_document : t -> string -> unit

(** Re-serialise a stored document; [None] if it does not exist. *)
val export : t -> string -> Natix_xml.Xml_tree.t option

(** {2 Queries}

    Thin wrappers over the session's {!Natix_query.Engine}. *)

val query : t -> doc:string -> string -> (Cursor.t Seq.t, Error.t) result
val query_naive : t -> doc:string -> string -> (Cursor.t Seq.t, Error.t) result
val explain : t -> doc:string -> string -> (string, Error.t) result

(** EXPLAIN ANALYZE: run the query strictly and report per-operator
    estimated vs actual cost (see {!Natix_query.Engine.analyze}). *)
val analyze : t -> doc:string -> string -> (Natix_query.Engine.analysis, Error.t) result

(** {2 Parallel execution}

    Thin wrappers over {!Natix_par.Par}: work partitioned by document
    across worker domains, results merged back in document order.
    [?jobs] defaults to [1], which runs inline on the calling domain,
    bit-identical to the sequential entry points. *)

val run_queries :
  ?jobs:int ->
  t ->
  (string * string) list ->
  (string list, Error.t) result Natix_par.Par.outcome

val scan_all : ?jobs:int -> t -> (string * int) Natix_par.Par.outcome

(** {!Natix_par.Par.load_files_txn} with one flight-ring entry per
    document: each document commits as one ARIES transaction in its own
    allocation arena, through the group-commit daemon. *)
val load_files_txn :
  ?jobs:int -> t -> (string * string) list -> (unit, Error.t) result Natix_par.Par.outcome

(** {2 The command surface}

    Every front end — the CLI's store-touching commands, the network
    server's dispatcher and the in-process loopback client — funnels
    through [exec]: one {!Api.request} in, one {!Api.response} out,
    against this session's store. *)

(** [exec t req] executes one request.  Hits render through
    {!Natix_core.Exporter.hit}, as the CLI prints them.  {e Typed}
    failures come back as [Err] (a [Load] of malformed XML is
    [Err (Parse _)], a [Stat] of an unknown document is
    [Err (Storage _)]); storage-{e corruption} exceptions (bad page,
    crash, frame exhaustion) still raise, so direct callers keep their
    exit codes and the server's dispatcher guard — not this function —
    decides what a connection sees.  [exec] never returns [Overloaded]:
    admission control lives in the server. *)
val exec : t -> Api.request -> Api.response
