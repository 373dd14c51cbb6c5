let entity ~attr = function
  | '&' -> Some "&amp;"
  | '<' -> Some "&lt;"
  | '>' -> Some "&gt;"
  | '"' when attr -> Some "&quot;"
  | _ -> None

(* Runs without a special character go in with one blit each. *)
let escape_into buf ~attr s =
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    match entity ~attr s.[i] with
    | None -> ()
    | Some e ->
      Buffer.add_substring buf s !run (i - !run);
      Buffer.add_string buf e;
      run := i + 1
  done;
  Buffer.add_substring buf s !run (String.length s - !run)

let add_attrs buf attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      escape_into buf ~attr:true v;
      Buffer.add_char buf '"')
    attrs

let rec add_to_buffer buf = function
  | Xml_tree.Text s -> escape_into buf ~attr:false s
  | Xml_tree.Element e ->
    Buffer.add_char buf '<';
    Buffer.add_string buf e.name;
    add_attrs buf e.attrs;
    if e.children = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      List.iter (add_to_buffer buf) e.children;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.name;
      Buffer.add_char buf '>'
    end

let to_string ?(decl = false) t =
  let buf = Buffer.create 1024 in
  if decl then Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  add_to_buffer buf t;
  Buffer.contents buf

let to_string_pretty ?(indent = 2) t =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make (n * indent) ' ') in
  let rec go level node =
    match node with
    | Xml_tree.Text s ->
      pad level;
      escape_into buf ~attr:false s;
      Buffer.add_char buf '\n'
    | Xml_tree.Element e ->
      pad level;
      Buffer.add_char buf '<';
      Buffer.add_string buf e.name;
      add_attrs buf e.attrs;
      (match e.children with
      | [] -> Buffer.add_string buf "/>\n"
      | [ Xml_tree.Text s ] ->
        (* Single text child stays on one line. *)
        Buffer.add_char buf '>';
        escape_into buf ~attr:false s;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.name;
        Buffer.add_string buf ">\n"
      | children ->
        Buffer.add_string buf ">\n";
        List.iter (go (level + 1)) children;
        pad level;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.name;
        Buffer.add_string buf ">\n")
  in
  go 0 t;
  Buffer.contents buf
