open Natix_util

type content_tag =
  | Tag_aggregate
  | Tag_frag_aggregate
  | Tag_proxy
  | Tag_str
  | Tag_int8
  | Tag_int16
  | Tag_int32
  | Tag_int64
  | Tag_float
  | Tag_uri

let tag_to_int = function
  | Tag_aggregate -> 0
  | Tag_frag_aggregate -> 1
  | Tag_proxy -> 2
  | Tag_str -> 3
  | Tag_int8 -> 4
  | Tag_int16 -> 5
  | Tag_int32 -> 6
  | Tag_int64 -> 7
  | Tag_float -> 8
  | Tag_uri -> 9

let tag_of_int = function
  | 0 -> Tag_aggregate
  | 1 -> Tag_frag_aggregate
  | 2 -> Tag_proxy
  | 3 -> Tag_str
  | 4 -> Tag_int8
  | 5 -> Tag_int16
  | 6 -> Tag_int32
  | 7 -> Tag_int64
  | 8 -> Tag_float
  | 9 -> Tag_uri
  | n -> invalid_arg (Printf.sprintf "Node_type_table: bad content tag %d" n)

(* A key packs an entry into one int, [label lsl 4 lor tag], so that
   interning a known entry allocates nothing. *)
module Table = Natix_util.Intern_table.Make (struct
  type t = int
  type value = content_tag * Label.t

  let compare = Int.compare
  let value k = (tag_of_int (k land 0xf), k asr 4)
  let name = "Node_type_table"

  (* Object headers hold an index in 2 bytes, and the catalog holds the
     count in 2 bytes: at most 65,535 entries, indices 0..65,534. *)
  let limit = 0xffff
end)

type t = Table.t

let create = Table.create
let index t tag label = Table.intern t ((label lsl 4) lor tag_to_int tag)
let entry = Table.get
let size = Table.size

let encode t =
  let entries = Table.values t in
  let count = Array.length entries in
  let b = Bytes.create (2 + (count * 5)) in
  Bytes_util.set_u16 b 0 count;
  Array.iteri
    (fun i (tag, label) ->
      Bytes_util.set_u8 b (2 + (5 * i)) (tag_to_int tag);
      Bytes_util.set_u32 b (2 + (5 * i) + 1) label)
    entries;
  Bytes.unsafe_to_string b

let decode s =
  let b = Bytes.unsafe_of_string s in
  let count = Bytes_util.get_u16 b 0 in
  let t = create () in
  for i = 0 to count - 1 do
    let tag = tag_of_int (Bytes_util.get_u8 b (2 + (5 * i))) in
    let label = Bytes_util.get_u32 b (2 + (5 * i) + 1) in
    let idx = index t tag label in
    assert (idx = i)
  done;
  t
