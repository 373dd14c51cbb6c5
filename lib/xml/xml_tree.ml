type t =
  | Element of { name : string; attrs : (string * string) list; children : t list }
  | Text of string

let element ?(attrs = []) name children = Element { name; attrs; children }
let text s = Text s

let rec node_count = function
  | Text _ -> 1
  | Element e -> 1 + List.length e.attrs + List.fold_left (fun n c -> n + node_count c) 0 e.children

let rec element_count = function
  | Text _ -> 0
  | Element e -> 1 + List.fold_left (fun n c -> n + element_count c) 0 e.children

let rec depth = function
  | Text _ -> 1
  | Element e -> 1 + List.fold_left (fun d c -> max d (depth c)) 0 e.children

let text_content t =
  let buf = Buffer.create 64 in
  let rec go = function
    | Text s -> Buffer.add_string buf s
    | Element e -> List.iter go e.children
  in
  go t;
  Buffer.contents buf

let children_named t name =
  match t with
  | Text _ -> []
  | Element e ->
    List.filter
      (function Element { name = n; _ } -> String.equal n name | Text _ -> false)
      e.children

let child_named t name =
  match children_named t name with
  | [] -> None
  | c :: _ -> Some c

let attr t name =
  match t with
  | Text _ -> None
  | Element e -> List.assoc_opt name e.attrs

let rec equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Element x, Element y ->
    String.equal x.name y.name
    && List.length x.attrs = List.length y.attrs
    && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && String.equal v v') x.attrs y.attrs
    && List.length x.children = List.length y.children
    && List.for_all2 equal x.children y.children
  | Text _, Element _ | Element _, Text _ -> false

let names t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      out := n :: !out
    end
  in
  let rec go = function
    | Text _ -> ()
    | Element e ->
      add e.name;
      List.iter (fun (k, _) -> add ("@" ^ k)) e.attrs;
      List.iter go e.children
  in
  go t;
  List.rev !out

let rec pp ppf = function
  | Text s -> Format.fprintf ppf "%S" s
  | Element e ->
    Format.fprintf ppf "@[<hv 2>%s%a(%a)@]" e.name
      (fun ppf attrs ->
        List.iter (fun (k, v) -> Format.fprintf ppf "[@%s=%S]" k v) attrs)
      e.attrs
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
      e.children
