(** The typed request/response command surface.

    One vocabulary for every front end: the CLI's store-touching
    commands, the network server ({!Natix_server}), the in-process
    loopback client and deterministic replay all build an {!request},
    hand it to {!Session.exec} (or a connection), and branch on the
    {!response}.  Nothing here touches a store — this module is the
    {e types and their wire codec} only, so a client can link it without
    pulling in the engine.

    {b Codec.}  {!encode_request}/{!decode_request} (and the response
    pair) are a hand-rolled binary codec: length-prefixed strings,
    fixed-width unsigned integers, one tag byte per constructor.  The
    codec carries no framing, checksum or version — that is the
    transport's job (see [Natix_server.Protocol], which CRC-frames each
    encoded message under a versioned stream header).  Decoding is total:
    malformed bytes yield [Error], never an exception. *)

open Natix_core

type request =
  | Ping  (** liveness/echo; never touches a store *)
  | Load of { doc : string; xml : string; order : Loader.order }
      (** parse [xml] and store it as document [doc] *)
  | Query of { doc : string; path : string; texts : bool }
      (** evaluate a path query; [texts] renders text content instead of
          markup (the CLI's [--text]) *)
  | Scan of { element : string; texts : bool }
      (** all elements of a type across the store, via the element index *)
  | Checkpoint  (** durable checkpoint of the whole store *)
  | Stat of { doc : string option }
      (** physical statistics for one document, or all of them *)
  | Server_stats
      (** the dispatcher's own counters; answered by the server before
          tenant resolution, never by {!Session.exec} *)

(** One document's physical footprint, the wire subset of
    {!Natix_core.Stats.doc_stats}. *)
type doc_stat = { doc : string; records : int; pages : int; record_bytes : int }

(** Dispatcher counters as served over the wire (the remote face of
    [Natix_server.Server.stats], plus the server's static limits so a
    client can tell "queued 30" from "queued 30 of 32"). *)
type server_stats = {
  served : int;
  shed : int;
  max_queue : int;
  queued : int;
  running : int;
  jobs : int;
  max_inflight : int;
  queue_depth : int;
}

type response =
  | Pong
  | Loaded of { doc : string; nodes : int }  (** logical nodes stored *)
  | Hits of string list
      (** rendered query hits ({!Natix_core.Exporter.hit}), exactly as
          the CLI prints them: elements as exported XML, text/attribute
          nodes as their text *)
  | Scanned of string list  (** rendered scan hits, same convention *)
  | Checkpointed
  | Stats of { docs : doc_stat list; disk_bytes : int }
  | Err of Error.t  (** typed failure, same classes as the direct API *)
  | Overloaded of { reason : string }
      (** shed by admission control before execution — the request was
          {e not} run; retry later.  [reason] is diagnostic:
          ["shutting_down"], ["inflight_limit"] or ["queue_full"] *)
  | Server_statted of server_stats

(** Short stable tag (["ping"], ["load"], ["query"], ["scan"],
    ["checkpoint"], ["stat"]) — the request half of the (tenant, request)
    observability context, and the dispatcher's log vocabulary. *)
val kind : request -> string

(** {2 Binary codec}

    [decode_* s] consumes exactly [String.length s] bytes; trailing
    garbage is an error (a frame carries one message). *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
