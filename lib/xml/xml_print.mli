(** Serialization of logical trees back to XML text (the paper's
    "reconstruction of a textual representation"). *)

(** [to_string ?decl t] renders [t] as compact XML (no inserted
    whitespace); [decl] prepends an XML declaration (default false). *)
val to_string : ?decl:bool -> Xml_tree.t -> string

(** Pretty-printed rendering with the given indent width (default 2).
    Note: indentation inserts whitespace text, so [parse ~keep_ws:true]
    of the output is not identical to the input tree. *)
val to_string_pretty : ?indent:int -> Xml_tree.t -> string

val add_to_buffer : Buffer.t -> Xml_tree.t -> unit

(** [escape_into buf ~attr s] appends [s] to [buf] escaped as character
    data, or as an attribute value when [attr]. *)
val escape_into : Buffer.t -> attr:bool -> string -> unit
