(** Wire framing for the serve protocol.

    A connection is, per direction, one 6-byte stream header followed by
    CRC-framed messages.  Version 2 added an optional trace-id field so
    clients can propagate (and the server can echo) a request's trace
    identity; version 1 frames carry none:

    {v
      header   ::=  "NTXS"  u16 version              (once per direction)
      frame_v1 ::=  u32 len  u32 seq  payload[len]  u32 crc
      frame_v2 ::=  u32 len  u32 seq  u8 tlen  trace[tlen]  payload[len]  u32 crc
    v}

    All integers are big-endian.  [len] counts payload bytes only.
    [crc] is CRC-32 (the WAL's {!Natix_store.Checksum}) over the 4
    [seq] bytes, then (v2) the [tlen] byte and trace bytes, then the
    payload, so a frame that arrives at all arrives intact — a mismatch
    means the stream is unusable and the connection must close (framing
    cannot resynchronise).  The payload is one encoded {!Natix.Api}
    message; this layer neither knows nor cares which.

    Version negotiation is one-shot and header-driven: each side sends
    the newest version it speaks and accepts any version in
    [{!min_version} .. {!version}] from the peer; both directions then
    frame at the {e lower} of the two headers.  A v1 stream is
    byte-identical to what a pre-v2 build produced.

    I/O happens through two callbacks so the same code drives a socket,
    a pipe, or the in-process loopback buffer:
    - a writer [string -> unit] that must write the whole string;
    - a reader [int -> string] that returns {e exactly} [n] bytes or
      raises [End_of_file]. *)

(** Newest protocol version this build speaks (2). *)
val version : int

(** Oldest version still accepted from a peer (1). *)
val min_version : int

(** The 6-byte stream header ("NTXS" + {!version}). *)
val header : string

(** [header_for v] is the stream header advertising version [v]. *)
val header_for : int -> string

type frame = { seq : int; trace_id : string option; payload : string }

(** Refuse frames larger than this (64 MiB): a huge length field is far
    more likely a desynchronised or hostile stream than a real message. *)
val max_payload : int

(** Trace ids longer than this (255 bytes) are refused. *)
val max_trace_id : int

val write_header : (string -> unit) -> unit

(** Consume and check the peer's stream header; [Ok v] is the peer's
    advertised version, clamped nowhere — the caller frames at
    [min v version]. *)
val read_header : (int -> string) -> (int, string) result

(** [write_frame ?version ?trace_id write ~seq payload] frames at
    [version] (default {!version}).  A [trace_id] is dropped silently
    when framing at version 1, which cannot carry one.
    @raise Invalid_argument when the payload exceeds {!max_payload},
    the trace id exceeds {!max_trace_id}, or [version] is unknown. *)
val write_frame : ?version:int -> ?trace_id:string -> (string -> unit) -> seq:int -> string -> unit

(** [Ok None] on a clean end of stream (EOF at a frame boundary);
    [Error _] on a truncated frame, oversized length or CRC mismatch —
    all fatal to the connection.  [version] (default {!version})
    selects the frame layout negotiated for the stream. *)
val read_frame : ?version:int -> (int -> string) -> (frame option, string) result

(** {2 Socket callbacks}

    The reader and the writer this module takes, over a connected
    socket. *)

(** [read_exactly fd n] returns exactly [n] bytes read from [fd].
    @raise End_of_file when the peer closes first. *)
val read_exactly : Unix.file_descr -> int -> string

(** [write_all fd s] writes all of [s] to [fd]. *)
val write_all : Unix.file_descr -> string -> unit
