exception Error of { line : int; col : int; msg : string }

(* The lexer scans by index and keeps no line or column: an error counts
   them from the input before [pos], the only time they are needed. *)
type t = {
  input : string;
  mutable pos : int;
  buf : Buffer.t;  (* scratch for text that holds references *)
  mutable pending_end : string option;  (* synthesised end of a self-closing tag *)
}

let of_string input = { input; pos = 0; buf = Buffer.create 256; pending_end = None }
let len t = String.length t.input
let eof t = t.pos >= len t

(* The line is one plus the newlines before [pos]; the column counts
   bytes from the one after the last of them. *)
let error t msg =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to t.pos - 1 do
    if String.unsafe_get t.input i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  raise (Error { line = !line; col = t.pos - !bol + 1; msg })

let peek t = if eof t then '\000' else String.unsafe_get t.input t.pos
let advance t = t.pos <- t.pos + 1

let next_char t =
  if eof t then error t "unexpected end of input";
  let c = String.unsafe_get t.input t.pos in
  advance t;
  c

let expect t c =
  let got = next_char t in
  if got <> c then error t (Printf.sprintf "expected %C, got %C" c got)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* Each [*_end s i] is the first index from [i] that ends a run of its
   kind, or the input's end; they allocate nothing. *)
let ws_end s i =
  let i = ref i in
  while !i < String.length s && is_ws (String.unsafe_get s !i) do
    incr i
  done;
  !i

let skip_ws t = t.pos <- ws_end t.input t.pos
let is_blank s = ws_end s 0 = String.length s

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c || match c with '0' .. '9' | '-' | '.' -> true | _ -> false

let name_end s i =
  let i = ref i in
  while !i < String.length s && is_name_char (String.unsafe_get s !i) do
    incr i
  done;
  !i

let name t =
  if not (is_name_start (peek t)) then error t "expected a name";
  let start = t.pos in
  t.pos <- name_end t.input (start + 1);
  String.sub t.input start (t.pos - start)

(* Resolve an entity or character reference into [t.buf]; the leading
   '&' is consumed. *)
let add_reference t =
  if peek t = '#' then begin
    advance t;
    let hex = peek t = 'x' in
    if hex then advance t;
    let start = t.pos in
    t.pos <- (match String.index_from_opt t.input start ';' with Some i -> i | None -> len t);
    let digits = String.sub t.input start (t.pos - start) in
    expect t ';';
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with Failure _ -> error t "malformed character reference"
    in
    (* Encode the code point as UTF-8. *)
    match Uchar.of_int code with
    | u -> Buffer.add_utf_8_uchar t.buf u
    | exception Invalid_argument _ -> error t "character reference out of range"
  end
  else begin
    let n = name t in
    expect t ';';
    match n with
    | "lt" -> Buffer.add_char t.buf '<'
    | "gt" -> Buffer.add_char t.buf '>'
    | "amp" -> Buffer.add_char t.buf '&'
    | "apos" -> Buffer.add_char t.buf '\''
    | "quot" -> Buffer.add_char t.buf '"'
    | other -> error t (Printf.sprintf "unknown entity &%s;" other)
  end

(* A run of literal text ends at '<', '&' or [quote] (character data
   passes '<'). *)
let literal_end s i quote =
  let i = ref i in
  while
    !i < String.length s
    &&
    let c = String.unsafe_get s !i in
    c <> quote && c <> '&' && c <> '<'
  do
    incr i
  done;
  !i

(* Literal runs are appended whole; the byte that ends one is consumed
   by [next_char], which reports the end of input. *)
let attr_value t =
  let quote = next_char t in
  if quote <> '"' && quote <> '\'' then error t "expected quoted attribute value";
  Buffer.clear t.buf;
  let rec loop () =
    let start = t.pos in
    t.pos <- literal_end t.input start quote;
    Buffer.add_substring t.buf t.input start (t.pos - start);
    let c = next_char t in
    if c = quote then Buffer.contents t.buf
    else if c = '&' then begin
      add_reference t;
      loop ()
    end
    else error t "'<' in attribute value"
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
      t.pos <- t.pos + 3;
      s
    end
    else begin
      advance t;
      find ()
    end
  in
  find ()

(* Character data up to the next '<'; resolves references.  A run that
   holds no reference is one [String.sub]; otherwise the runs between
   references are appended whole.  Returns [None] for empty runs. *)
let char_data t =
  let start = t.pos in
  let stop = literal_end t.input start '<' in
  t.pos <- stop;
  if stop >= len t || t.input.[stop] = '<' then
    if stop = start then None else Some (String.sub t.input start (stop - start))
  else begin
    Buffer.clear t.buf;
    Buffer.add_substring t.buf t.input start (stop - start);
    while (not (eof t)) && t.input.[t.pos] = '&' do
      advance t;
      add_reference t;
      let start = t.pos in
      t.pos <- literal_end t.input start '<';
      Buffer.add_substring t.buf t.input start (t.pos - start)
    done;
    Some (Buffer.contents t.buf)
  end

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
        t.pos <- t.pos + 2;
        skip_comment t;
        scan t
      end
      else if t.pos + 6 < len t && String.sub t.input t.pos 7 = "[CDATA[" then begin
        t.pos <- t.pos + 7;
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
