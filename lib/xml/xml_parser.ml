exception Error of { line : int; col : int; msg : string }

let err ?(line = 0) ?(col = 0) msg = raise (Error { line; col; msg })

let parse ?(keep_ws = false) input =
  let lexer = Xml_lexer.of_string input in
  let next () =
    try Xml_lexer.next lexer
    with Xml_lexer.Error { line; col; msg } -> raise (Error { line; col; msg })
  in
  (* Stack of open elements: (name, attrs, reversed children). *)
  let rec loop stack roots =
    match next () with
    | None -> begin
      match stack with
      | [] -> begin
        match roots with
        | [ root ] -> root
        | [] -> err "empty document"
        | _ -> err "multiple root elements"
      end
      | (name, _, _) :: _ -> err (Printf.sprintf "unclosed element <%s>" name)
    end
    | Some (Xml_event.Start_element { name; attrs }) -> loop ((name, attrs, []) :: stack) roots
    | Some (Xml_event.End_element name) -> begin
      match stack with
      | [] -> err (Printf.sprintf "unexpected </%s>" name)
      | (open_name, attrs, rev_children) :: rest ->
        if not (String.equal open_name name) then
          err (Printf.sprintf "mismatched tags: <%s> closed by </%s>" open_name name);
        let node = Xml_tree.element ~attrs name (List.rev rev_children) in
        (match rest with
        | [] -> loop [] (node :: roots)
        | (pn, pa, pc) :: up -> loop ((pn, pa, node :: pc) :: up) roots)
    end
    | Some (Xml_event.Text s) -> begin
      match stack with
      | [] ->
        if Xml_lexer.is_blank s then loop stack roots
        else err "character data outside the root element"
      | (name, attrs, children) :: rest ->
        if (not keep_ws) && Xml_lexer.is_blank s then loop stack roots
        else loop ((name, attrs, Xml_tree.text s :: children) :: rest) roots
    end
  in
  loop [] []

let parse_file ?keep_ws path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse ?keep_ws content
