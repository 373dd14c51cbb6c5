module Table = Intern_table.Make (struct
  type t = string
  type value = string

  let compare = String.compare
  let value name = name
  let name = "Name_pool"
  let limit = max_int
end)

type t = Table.t

let reserved = [| "#scaffold"; "#pcdata" |]

let create () =
  let t = Table.create () in
  Array.iter (fun name -> ignore (Table.intern t name)) reserved;
  t

let intern = Table.intern
let find = Table.find
let name = Table.get
let size = Table.size

let encode t =
  let buf = Buffer.create 256 in
  let names = Table.values t in
  for i = Array.length reserved to Array.length names - 1 do
    let s = names.(i) in
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  done;
  Buffer.contents buf

let decode s =
  let t = create () in
  let n = String.length s in
  let rec loop i =
    if i < n then begin
      let colon = String.index_from s i ':' in
      let len = int_of_string (String.sub s i (colon - i)) in
      let sym = String.sub s (colon + 1) len in
      ignore (intern t sym);
      loop (colon + 1 + len)
    end
  in
  loop 0;
  t
