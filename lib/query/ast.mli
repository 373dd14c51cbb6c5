(** Path-query syntax.

    A small XPath-like language, enough to express the differential test
    corpus and, declaratively, the queries the paper's evaluation
    navigates by hand (its query engine was "not yet implemented"), e.g.
    [//ACT\[3\]/SCENE\[2\]//SPEAKER] (query 1):

    {v
      path      ::= (("/" | "//") step)+
      step      ::= test predicate*
      test      ::= NAME | "@" NAME | "*" | "text()" | "node()"
      predicate ::= "[" INTEGER "]" | "[" "text()" "=" "'" ... "'" "]"
    v}

    ["/"] selects children, ["//"] descendants.  [NAME] matches elements,
    ["@" NAME] attribute nodes (stored as ["@name"]-labelled literal
    children), ["*"] any element, ["text()"] text nodes, ["node()"] every
    logical node.  [\[k\]] keeps the k-th candidate (1-based, XPath-style
    {e per context node}); [\[text()='v'\]] keeps candidates with a direct
    text child equal to [v].  Predicates apply left to right. *)

exception Parse_error of string

type axis = Child | Descendant
type test = Name of string | Attribute of string | Any | Text | Node
type pred = Position of int | Text_equals of string

type step = { axis : axis; test : test; preds : pred list }

type t = step list

(** @raise Parse_error on malformed input. *)
val parse : string -> t

val to_string : t -> string
val step_to_string : step -> string
val test_to_string : test -> string
