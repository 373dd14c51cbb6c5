(** Tokenizer for XML documents.

    A from-scratch, non-validating scanner covering the constructs needed to
    store real document corpora: elements, attributes (single- or
    double-quoted), character data, CDATA sections, comments, processing
    instructions, the XML declaration, DOCTYPE (skipped, including an
    internal subset), the five predefined entities and numeric character
    references.  Comments, PIs and DOCTYPE produce no events. *)

exception Error of { line : int; col : int; msg : string }

type t

val of_string : string -> t

(** Next event, or [None] at end of input. *)
val next : t -> Xml_event.t option

(** Drain the input into an event list. *)
val all : string -> Xml_event.t list

(** [is_blank s] holds when [s] has only XML white space (space, tab, CR,
    LF) — the empty string included: the text events a loader drops
    between elements. *)
val is_blank : string -> bool
