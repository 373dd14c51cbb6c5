(* Tests for the XML substrate: lexer, parser, printer, tree utilities and
   DTD inference/validation. *)

open Natix_xml

let qtest ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)

let tree = Alcotest.testable Xml_tree.pp Xml_tree.equal

(* The character-at-a-time lexer that [Xml_lexer] replaced, kept as the
   oracle of its run-scanning successor: it advances one byte at a time,
   counts lines as it goes and appends character data byte by byte.  The
   property below requires the same events, or the same error at the
   same line and column, on every generated input. *)
module Oracle = struct
  exception Error of { line : int; col : int; msg : string }

  type t = {
    input : string;
    mutable pos : int;
    mutable line : int;
    mutable bol : int;  (* position just after the last newline *)
    buf : Buffer.t;  (* scratch for text accumulation *)
    mutable pending_end : string option;  (* synthesised end of a self-closing tag *)
  }

  let of_string input =
    { input; pos = 0; line = 1; bol = 0; buf = Buffer.create 256; pending_end = None }
  let len t = String.length t.input
  let eof t = t.pos >= len t

  let error t msg = raise (Error { line = t.line; col = t.pos - t.bol + 1; msg })

  let peek t = if eof t then '\000' else t.input.[t.pos]

  let advance t =
    if peek t = '\n' then begin
      t.line <- t.line + 1;
      t.bol <- t.pos + 1
    end;
    t.pos <- t.pos + 1

  let next_char t =
    if eof t then error t "unexpected end of input";
    let c = peek t in
    advance t;
    c

  let expect t c =
    let got = next_char t in
    if got <> c then error t (Printf.sprintf "expected %C, got %C" c got)

  let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

  let skip_ws t =
    while (not (eof t)) && is_ws (peek t) do
      advance t
    done

  let is_name_start = function
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
    | c -> Char.code c >= 0x80

  let is_name_char c =
    is_name_start c || match c with '0' .. '9' | '-' | '.' -> true | _ -> false

  let name t =
    if not (is_name_start (peek t)) then error t "expected a name";
    let start = t.pos in
    while (not (eof t)) && is_name_char (peek t) do
      advance t
    done;
    String.sub t.input start (t.pos - start)

  (* Resolve an entity or character reference; the leading '&' is consumed. *)
  let reference t =
    if peek t = '#' then begin
      advance t;
      let hex = peek t = 'x' in
      if hex then advance t;
      let start = t.pos in
      while peek t <> ';' && not (eof t) do
        advance t
      done;
      let digits = String.sub t.input start (t.pos - start) in
      expect t ';';
      let code =
        try int_of_string (if hex then "0x" ^ digits else digits)
        with Failure _ -> error t "malformed character reference"
      in
      (* Encode the code point as UTF-8. *)
      let b = Buffer.create 4 in
      (try Buffer.add_utf_8_uchar b (Uchar.of_int code)
       with Invalid_argument _ -> error t "character reference out of range");
      Buffer.contents b
    end
    else begin
      let n = name t in
      expect t ';';
      match n with
      | "lt" -> "<"
      | "gt" -> ">"
      | "amp" -> "&"
      | "apos" -> "'"
      | "quot" -> "\""
      | other -> error t (Printf.sprintf "unknown entity &%s;" other)
    end

  let attr_value t =
    let quote = next_char t in
    if quote <> '"' && quote <> '\'' then error t "expected quoted attribute value";
    Buffer.clear t.buf;
    let rec loop () =
      let c = next_char t in
      if c = quote then Buffer.contents t.buf
      else if c = '&' then begin
        Buffer.add_string t.buf (reference t);
        loop ()
      end
      else if c = '<' then error t "'<' in attribute value"
      else begin
        Buffer.add_char t.buf c;
        loop ()
      end
    in
    loop ()

  let attributes t =
    let rec loop acc =
      skip_ws t;
      match peek t with
      | '>' | '/' | '?' -> List.rev acc
      | _ ->
        let n = name t in
        skip_ws t;
        expect t '=';
        skip_ws t;
        let v = attr_value t in
        loop ((n, v) :: acc)
    in
    loop []

  let skip_comment t =
    (* "<!--" already consumed *)
    let rec loop () =
      if next_char t = '-' && peek t = '-' then begin
        advance t;
        expect t '>'
      end
      else loop ()
    in
    loop ()

  let skip_pi t =
    (* "<?" and the target already consumed *)
    let rec loop () = if next_char t = '?' && peek t = '>' then advance t else loop () in
    loop ()

  let skip_doctype t =
    (* "<!DOCTYPE" already consumed; skip to the matching '>', allowing one
       level of internal subset brackets. *)
    let rec loop depth =
      match next_char t with
      | '[' -> loop (depth + 1)
      | ']' -> loop (depth - 1)
      | '>' when depth = 0 -> ()
      | '"' | '\'' ->
        (* quoted literal inside the declaration *)
        loop depth
      | _ -> loop depth
    in
    loop 0

  let cdata t =
    (* "<![CDATA[" already consumed *)
    let start = t.pos in
    let rec find () =
      if t.pos + 2 >= len t then error t "unterminated CDATA section"
      else if t.input.[t.pos] = ']' && t.input.[t.pos + 1] = ']' && t.input.[t.pos + 2] = '>' then begin
        let s = String.sub t.input start (t.pos - start) in
        advance t;
        advance t;
        advance t;
        s
      end
      else begin
        advance t;
        find ()
      end
    in
    find ()

  (* Character data up to the next '<'; resolves references.  Returns [None]
     for empty runs. *)
  let char_data t =
    Buffer.clear t.buf;
    let rec loop () =
      if eof t || peek t = '<' then ()
      else if peek t = '&' then begin
        advance t;
        Buffer.add_string t.buf (reference t);
        loop ()
      end
      else begin
        Buffer.add_char t.buf (next_char t);
        loop ()
      end
    in
    loop ();
    if Buffer.length t.buf = 0 then None else Some (Buffer.contents t.buf)

  let rec scan t : Xml_event.t option =
    if eof t then None
    else if peek t = '<' then begin
      advance t;
      match peek t with
      | '/' ->
        advance t;
        let n = name t in
        skip_ws t;
        expect t '>';
        Some (Xml_event.End_element n)
      | '?' ->
        advance t;
        let _target = name t in
        skip_pi t;
        scan t
      | '!' ->
        advance t;
        if t.pos + 1 < len t && t.input.[t.pos] = '-' && t.input.[t.pos + 1] = '-' then begin
          advance t;
          advance t;
          skip_comment t;
          scan t
        end
        else if t.pos + 6 < len t && String.sub t.input t.pos 7 = "[CDATA[" then begin
          for _ = 1 to 7 do
            advance t
          done;
          Some (Xml_event.Text (cdata t))
        end
        else begin
          let kw = name t in
          if kw = "DOCTYPE" then begin
            skip_doctype t;
            scan t
          end
          else error t (Printf.sprintf "unsupported declaration <!%s" kw)
        end
      | _ ->
        let n = name t in
        let attrs = attributes t in
        skip_ws t;
        if peek t = '/' then begin
          advance t;
          expect t '>';
          (* Self-closing: synthesise the end event on the next call. *)
          t.pending_end <- Some n;
          Some (Xml_event.Start_element { name = n; attrs })
        end
        else begin
          expect t '>';
          Some (Xml_event.Start_element { name = n; attrs })
        end
    end
    else
      match char_data t with
      | Some s -> Some (Xml_event.Text s)
      | None -> scan t

  let next t =
    match t.pending_end with
    | Some n ->
      t.pending_end <- None;
      Some (Xml_event.End_element n)
    | None -> scan t

  let all input =
    let t = of_string input in
    let rec loop acc =
      match next t with
      | None -> List.rev acc
      | Some e -> loop (e :: acc)
    in
    loop []
end

(* Inputs are concatenations of markup fragments, well-formed and not:
   tags and attributes in both quote styles, the five entities, character
   references (valid, unknown, out of range, unterminated), CDATA,
   comments, PIs and a DOCTYPE with an internal subset, with "\n" and
   "\r\n" anywhere. *)
let gen_markup : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let well_formed =
    [
      "<a>"; "</a>"; "<b x=\"1\">"; "</b >"; "<c y='v'/>"; "<d/>"; "<e x=\"1\" y='two'>"; "</e>";
      "<f z=\"a&amp;b\" w='&#65;&lt;'/>"; "hello"; " "; "x y z"; "\t"; "\xc3\xa9t\xc3\xa9"; "]]>";
      ">"; "&lt;"; "&gt;"; "&amp;"; "&apos;"; "&quot;"; "&#65;"; "&#x42;"; "&#x1F600;"; "&#0;";
      "<![CDATA[a<b&c]]>"; "<!---->"; "<!-- c -->"; "<!-- a - b -->"; "<?xml version=\"1.0\"?>";
      "<?pi data?>"; "<!DOCTYPE a [ <!ELEMENT a (b)> ]>"; "<!DOCTYPE a SYSTEM \"x.dtd\">"; "\n";
      "\r\n"; "\n\n";
    ]
  in
  let malformed =
    [
      "<g q=\"<\"/>"; "<h q='"; "<1bad>"; "< a>"; "<a"; "</"; "<a x=1>"; "<a x>"; "&#xZZ;"; "&#;";
      "&#1114112;"; "&#xD800;"; "&#-5;"; "&nope;"; "&lt"; "&#65"; "&"; "&;"; "&#x"; "<![CDATA[x";
      "<!-- x -- y -->"; "<?pi"; "<!FOO>"; "<!DOCTYPE a [";
    ]
  in
  (* Mostly well-formed pieces, so errors sit anywhere, not only early. *)
  let fragment = frequency [ (8, oneofl well_formed); (1, oneofl malformed) ] in
  let newline = oneofl [ ""; ""; ""; "\n"; "\r\n" ] in
  map (String.concat "") (list_size (int_range 1 24) (map2 ( ^ ) newline fragment))

let lex_outcome lex s =
  match lex s with
  | events -> Ok events
  | exception Xml_lexer.Error { line; col; msg } -> Error (line, col, msg)
  | exception Oracle.Error { line; col; msg } -> Error (line, col, msg)

let same_as_oracle s = lex_outcome Xml_lexer.all s = lex_outcome Oracle.all s

let lexer_tests =
  let events s = Xml_lexer.all s in
  [
    Alcotest.test_case "element with text" `Quick (fun () ->
        match events "<a>hi</a>" with
        | [ Xml_event.Start_element { name = "a"; attrs = [] }; Text "hi"; End_element "a" ] -> ()
        | evs -> Alcotest.failf "unexpected events: %a" Fmt.(list Xml_event.pp) evs);
    Alcotest.test_case "attributes in both quote styles" `Quick (fun () ->
        match events {|<a x="1" y='two'/>|} with
        | [ Xml_event.Start_element { name = "a"; attrs = [ ("x", "1"); ("y", "two") ] };
            End_element "a" ] -> ()
        | evs -> Alcotest.failf "unexpected events: %a" Fmt.(list Xml_event.pp) evs);
    Alcotest.test_case "entities resolved" `Quick (fun () ->
        match events "<a>&lt;&amp;&gt;&quot;&apos;</a>" with
        | [ _; Xml_event.Text "<&>\"'"; _ ] -> ()
        | evs -> Alcotest.failf "unexpected events: %a" Fmt.(list Xml_event.pp) evs);
    Alcotest.test_case "numeric character references" `Quick (fun () ->
        match events "<a>&#65;&#x42;</a>" with
        | [ _; Xml_event.Text "AB"; _ ] -> ()
        | evs -> Alcotest.failf "unexpected events: %a" Fmt.(list Xml_event.pp) evs);
    Alcotest.test_case "comments, PIs and DOCTYPE are skipped" `Quick (fun () ->
        match
          events
            "<?xml version=\"1.0\"?><!DOCTYPE play [ <!ELEMENT a (b)> ]><!-- note --><a>x</a>"
        with
        | [ Xml_event.Start_element { name = "a"; _ }; Text "x"; End_element "a" ] -> ()
        | evs -> Alcotest.failf "unexpected events: %a" Fmt.(list Xml_event.pp) evs);
    Alcotest.test_case "CDATA passes through verbatim" `Quick (fun () ->
        match events "<a><![CDATA[<not> & markup]]></a>" with
        | [ _; Xml_event.Text "<not> & markup"; _ ] -> ()
        | evs -> Alcotest.failf "unexpected events: %a" Fmt.(list Xml_event.pp) evs);
    Alcotest.test_case "unknown entity is an error" `Quick (fun () ->
        match events "<a>&nope;</a>" with
        | exception Xml_lexer.Error _ -> ()
        | _ -> Alcotest.fail "expected a lexer error");
    Alcotest.test_case "error carries line numbers" `Quick (fun () ->
        List.iter
          (fun (input, expected) ->
            match events input with
            | exception Xml_lexer.Error { line; col; msg } ->
              Alcotest.(check (triple int int string)) input expected (line, col, msg)
            | _ -> Alcotest.failf "%S: expected a lexer error" input)
          [
            ("<a>\n\n  <1bad/></a>", (3, 4, "expected a name"));
            ("<a>\r\n&nope;</a>", (2, 7, "unknown entity &nope;"));
            ("<a>x&#xD800;y</a>", (1, 13, "character reference out of range"));
            ("<a b='x<'/>", (1, 9, "'<' in attribute value"));
            ("<a>\nab&amp", (2, 7, "unexpected end of input"));
          ]);
    qtest ~count:1000 "runs lex as the byte-at-a-time oracle, errors included"
      QCheck2.Gen.(pair gen_markup (float_bound_inclusive 1.0))
      ~print:(fun (s, cut) -> Printf.sprintf "%S cut at %.3f" s cut)
      (fun (s, cut) ->
        (* Also every input cut at a random byte. *)
        let k = int_of_float (cut *. float_of_int (String.length s)) in
        same_as_oracle s && same_as_oracle (String.sub s 0 k));
  ]

let parser_tests =
  [
    Alcotest.test_case "builds nested tree" `Quick (fun () ->
        let t = Xml_parser.parse "<a><b>x</b><c/></a>" in
        Alcotest.check tree "tree"
          (Xml_tree.element "a"
             [ Xml_tree.element "b" [ Xml_tree.text "x" ]; Xml_tree.element "c" [] ])
          t);
    Alcotest.test_case "whitespace-only text dropped by default" `Quick (fun () ->
        let t = Xml_parser.parse "<a>\n  <b/>\n</a>" in
        Alcotest.check tree "tree" (Xml_tree.element "a" [ Xml_tree.element "b" [] ]) t);
    Alcotest.test_case "keep_ws preserves whitespace" `Quick (fun () ->
        match Xml_parser.parse ~keep_ws:true "<a> <b/></a>" with
        | Xml_tree.Element { children = [ Xml_tree.Text " "; Xml_tree.Element _ ]; _ } -> ()
        | t -> Alcotest.failf "unexpected: %a" Xml_tree.pp t);
    Alcotest.test_case "mismatched tags rejected" `Quick (fun () ->
        match Xml_parser.parse "<a><b></a></b>" with
        | exception Xml_parser.Error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "unclosed element rejected" `Quick (fun () ->
        match Xml_parser.parse "<a><b>" with
        | exception Xml_parser.Error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "multiple roots rejected" `Quick (fun () ->
        match Xml_parser.parse "<a/><b/>" with
        | exception Xml_parser.Error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "empty input rejected" `Quick (fun () ->
        match Xml_parser.parse "   " with
        | exception Xml_parser.Error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
  ]

(* Random tree generator for roundtrip properties. *)
let gen_tree : Xml_tree.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c"; "item"; "node" ] in
  let text_str =
    map
      (fun parts -> String.concat " " parts)
      (list_size (int_range 1 5) (oneofl [ "hello"; "world"; "x<y"; "a&b"; "q\"q"; "tail" ]))
  in
  let attrs = list_size (int_bound 2) (pair (oneofl [ "id"; "kind" ]) text_str) in
  (* Attribute names must be unique within one element. *)
  let dedup l = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) l in
  fix
    (fun self depth ->
      if depth = 0 then map Xml_tree.text text_str
      else
        frequency
          [
            (1, map Xml_tree.text text_str);
            ( 3,
              map3
                (fun n a cs -> Xml_tree.element ~attrs:(dedup a) n cs)
                name attrs
                (list_size (int_bound 4) (self (depth - 1))) );
          ])
    3
  |> fun g ->
  (* Roots must be elements; force one. *)
  map2 (fun n cs -> Xml_tree.element n cs) name (list_size (int_bound 4) g)

let print_tests =
  [
    Alcotest.test_case "escaping" `Quick (fun () ->
        let t = Xml_tree.element ~attrs:[ ("q", "a\"b<c") ] "x" [ Xml_tree.text "1<2&3>0" ] in
        Alcotest.(check string) "escaped"
          {|<x q="a&quot;b&lt;c">1&lt;2&amp;3&gt;0</x>|}
          (Xml_print.to_string t));
    Alcotest.test_case "empty element self-closes" `Quick (fun () ->
        Alcotest.(check string) "self-closed" "<x/>" (Xml_print.to_string (Xml_tree.element "x" [])));
    qtest ~count:300 "print/parse roundtrip" gen_tree (fun t ->
        (* Adjacent text children merge in the textual form; normalise both
           sides before comparing. *)
        let rec normalize = function
          | Xml_tree.Text _ as t -> t
          | Xml_tree.Element e ->
            let rec merge = function
              | Xml_tree.Text a :: Xml_tree.Text b :: rest ->
                merge (Xml_tree.Text (a ^ b) :: rest)
              | c :: rest -> normalize c :: merge rest
              | [] -> []
            in
            Xml_tree.element ~attrs:e.attrs e.name (merge e.children)
        in
        Xml_tree.equal (normalize t) (Xml_parser.parse ~keep_ws:true (Xml_print.to_string t)));
    qtest ~count:100 "pretty print reparses to the same element structure" gen_tree (fun t ->
        (* Pretty-printing inserts whitespace, so compare with default
           whitespace dropping; texts with leading/trailing spaces may
           differ, so compare element structure only. *)
        let strip t =
          let rec go = function
            | Xml_tree.Text _ -> None
            | Xml_tree.Element e ->
              Some (Xml_tree.element e.name (List.filter_map go e.children))
          in
          Option.get (go t)
        in
        Xml_tree.equal (strip t) (strip (Xml_parser.parse (Xml_print.to_string_pretty t))));
  ]

let tree_tests =
  let sample =
    Xml_tree.element "PLAY"
      [
        Xml_tree.element "TITLE" [ Xml_tree.text "T" ];
        Xml_tree.element ~attrs:[ ("n", "1") ] "ACT"
          [ Xml_tree.element "SCENE" [ Xml_tree.text "body" ] ];
      ]
  in
  [
    Alcotest.test_case "node_count counts attributes" `Quick (fun () ->
        (* PLAY TITLE "T" ACT @n SCENE "body" = 7 *)
        Alcotest.(check int) "count" 7 (Xml_tree.node_count sample));
    Alcotest.test_case "element_count" `Quick (fun () ->
        Alcotest.(check int) "elements" 4 (Xml_tree.element_count sample));
    Alcotest.test_case "depth" `Quick (fun () ->
        Alcotest.(check int) "depth" 4 (Xml_tree.depth sample));
    Alcotest.test_case "text_content concatenates" `Quick (fun () ->
        Alcotest.(check string) "text" "Tbody" (Xml_tree.text_content sample));
    Alcotest.test_case "child_named / attr" `Quick (fun () ->
        Alcotest.(check bool) "found" true (Xml_tree.child_named sample "ACT" <> None);
        Alcotest.(check (option string)) "attr" (Some "1")
          (Xml_tree.attr (Option.get (Xml_tree.child_named sample "ACT")) "n"));
    Alcotest.test_case "names in first-occurrence order" `Quick (fun () ->
        Alcotest.(check (list string)) "names"
          [ "PLAY"; "TITLE"; "ACT"; "@n"; "SCENE" ]
          (Xml_tree.names sample));
  ]

let dtd_tests =
  let sample =
    Xml_parser.parse "<PLAY><TITLE>t</TITLE><ACT><TITLE>a</TITLE><SCENE>s</SCENE></ACT></PLAY>"
  in
  [
    Alcotest.test_case "infer accepts its own tree" `Quick (fun () ->
        let dtd = Dtd.infer ~name:"play" sample in
        (match Dtd.validate dtd sample with
        | Ok () -> ()
        | Error e -> Alcotest.failf "unexpected: %s" e);
        Alcotest.(check (list string)) "alphabet"
          [ "PLAY"; "TITLE"; "ACT"; "SCENE" ]
          (Dtd.alphabet dtd));
    Alcotest.test_case "validation rejects undeclared element" `Quick (fun () ->
        let dtd = Dtd.infer ~name:"play" sample in
        let bad = Xml_parser.parse "<PLAY><EPILOGUE/></PLAY>" in
        match Dtd.validate dtd bad with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected validation error");
    Alcotest.test_case "validation rejects wrong child" `Quick (fun () ->
        let dtd = Dtd.create ~name:"d" in
        Dtd.declare dtd "a" (Dtd.Children_of [ "b" ]);
        Dtd.declare dtd "b" Dtd.Pcdata_only;
        (match Dtd.validate dtd (Xml_parser.parse "<a><b>x</b></a>") with
        | Ok () -> ()
        | Error e -> Alcotest.failf "unexpected: %s" e);
        match Dtd.validate dtd (Xml_parser.parse "<a><a/></a>") with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected validation error");
    Alcotest.test_case "Empty and Mixed specs" `Quick (fun () ->
        let dtd = Dtd.create ~name:"d" in
        Dtd.declare dtd "hr" Dtd.Empty;
        Dtd.declare dtd "p" (Dtd.Mixed [ "hr" ]);
        (match Dtd.validate dtd (Xml_parser.parse "<p>text<hr/>more</p>") with
        | Ok () -> ()
        | Error e -> Alcotest.failf "unexpected: %s" e);
        match Dtd.validate dtd (Xml_parser.parse "<p><hr>x</hr></p>") with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "hr must be empty");
  ]

let suites =
  [
    ("xml.lexer", lexer_tests);
    ("xml.parser", parser_tests);
    ("xml.print", print_tests);
    ("xml.tree", tree_tests);
    ("xml.dtd", dtd_tests);
  ]
