open Natix_util

let parent_rid_offset = 2

let tag_of_node (n : Phys_node.t) : Node_type_table.content_tag =
  match n.kind with
  | Aggregate _ -> Tag_aggregate
  | Frag_aggregate _ -> Tag_frag_aggregate
  | Proxy _ -> Tag_proxy
  | Literal (Str _) -> Tag_str
  | Literal (Int8 _) -> Tag_int8
  | Literal (Int16 _) -> Tag_int16
  | Literal (Int32 _) -> Tag_int32
  | Literal (Int64 _) -> Tag_int64
  | Literal (Float _) -> Tag_float
  | Literal (Uri _) -> Tag_uri

let write_literal b off (v : Phys_node.literal) =
  match v with
  | Str s | Uri s -> Bytes.blit_string s 0 b off (String.length s)
  | Int8 v -> Bytes_util.set_u8 b off v
  | Int16 v -> Bytes_util.set_u16 b off v
  | Int32 v -> Bytes_util.set_u32 b off (Int32.to_int v land 0xffffffff)
  | Int64 v -> Bytes_util.set_i64 b off v
  | Float v -> Bytes_util.set_f64 b off v

let type_index tbl (n : Phys_node.t) = Node_type_table.index tbl (tag_of_node n) n.label

(* Write the embedded node [n] with its subtree at record offset [off] of
   the image starting at [b.(base)], its parent's header being at
   [parent_off]; returns the offset just past it. *)
let rec write_node tbl b ~base off parent_off (n : Phys_node.t) =
  Bytes_util.set_u16 b (base + off) (type_index tbl n);
  Bytes_util.set_u16 b (base + off + 2) n.size;
  Bytes_util.set_u16 b (base + off + 4) parent_off;
  let stop = write_payload tbl b ~base (off + Phys_node.embedded_header_size) off n in
  assert (stop = off + n.size);
  stop

(* The payload of [n], whose header is at [self_off], from offset [pos]. *)
and write_payload tbl b ~base pos self_off (n : Phys_node.t) =
  match n.kind with
  | Aggregate { children } | Frag_aggregate { children } ->
    List.fold_left (fun pos c -> write_node tbl b ~base pos self_off c) pos children
  | Literal v ->
    write_literal b (base + pos) v;
    pos + Phys_node.literal_size v
  | Proxy rid ->
    Rid.write b (base + pos) rid;
    pos + Rid.encoded_size

(* The whole record image of [root] at [b.(base)].  The root's header
   starts at offset 0; its children reference it. *)
let write_record tbl ~parent_rid (root : Phys_node.t) b base =
  (match root.kind with
  | Proxy _ -> invalid_arg "Node_codec.encode: proxy root"
  | Aggregate _ | Frag_aggregate _ | Literal _ -> ());
  Bytes_util.set_u16 b base (type_index tbl root);
  Rid.write b (base + parent_rid_offset) parent_rid;
  let stop = write_payload tbl b ~base Phys_node.standalone_header_size 0 root in
  assert (stop = Phys_node.record_size root)

let encode tbl ~parent_rid (root : Phys_node.t) =
  let b = Bytes.create (Phys_node.record_size root) in
  write_record tbl ~parent_rid root b 0;
  Bytes.unsafe_to_string b

let header_size (n : Phys_node.t) =
  match n.parent with
  | None -> Phys_node.standalone_header_size
  | Some _ -> Phys_node.embedded_header_size

(* [(n, header offset of n, siblings after n)] for [n] and each of its
   ancestors up to the record root, [n] first.  A child's header follows
   its parent's header and the subtrees of its earlier siblings; the walk
   that sums them stops at the child, where the siblings after it begin. *)
let rec path_offsets (n : Phys_node.t) =
  match n.parent with
  | None -> [ (n, 0, []) ]
  | Some p ->
    let up = path_offsets p in
    let _, p_off, _ = List.hd up in
    let rec before off = function
      | [] -> invalid_arg "Node_codec.splice: broken parent link"
      | (c : Phys_node.t) :: rest -> if c == n then (n, off, rest) else before (off + c.size) rest
    in
    before (p_off + header_size p) (Phys_node.children p) :: up

let splice tbl (node : Phys_node.t) ~old ~old_len dst at =
  let root = Phys_node.record_root node in
  let grow = node.size in
  if old_len + grow <> Phys_node.record_size root then
    (* The stored image is not the tree without [node]: an earlier
       insertion failed halfway in a store without a log.  Write the
       tree, as a full encode would. *)
    write_record tbl ~parent_rid:(Rid.read old parent_rid_offset) root dst at
  else begin
    let path = path_offsets node in
    let _, pos, _ = List.hd path in
    let parent_off = match path with _ :: (_, p, _) :: _ -> p | _ -> 0 in
    Bytes.blit old 0 dst at pos;
    ignore (write_node tbl dst ~base:at pos parent_off node);
    Bytes.blit old pos dst (at + pos + grow) (old_len - pos);
    (* Inside the subtree [n], at [n_off] past the gap, every parent
       moved by [grow]. *)
    let rec repoint (n : Phys_node.t) n_off =
      ignore
        (List.fold_left
           (fun c_off (c : Phys_node.t) ->
             Bytes_util.set_u16 dst (at + c_off + 4) n_off;
             repoint c c_off;
             c_off + c.size)
           (n_off + Phys_node.embedded_header_size)
           (Phys_node.children n))
    in
    (* At every level up to the root: the ancestor's size (the root has
       no size field), then the subtrees after the path child, which the
       offset walk already reached. *)
    let rec fix_level = function
      | ((child : Phys_node.t), child_off, after) :: (((anc : Phys_node.t), anc_off, _) :: _ as up)
        ->
        (match anc.parent with
        | Some _ -> Bytes_util.set_u16 dst (at + anc_off + 2) anc.size
        | None -> ());
        ignore
          (List.fold_left
             (fun off (c : Phys_node.t) ->
               repoint c off;
               off + c.size)
             (child_off + child.size) after);
        fix_level up
      | [ _ ] | [] -> ()
    in
    fix_level path
  end

let read_literal tag b off len : Phys_node.literal =
  match (tag : Node_type_table.content_tag) with
  | Tag_str -> Str (Bytes.sub_string b off len)
  | Tag_uri -> Uri (Bytes.sub_string b off len)
  | Tag_int8 -> Int8 (Bytes_util.get_u8 b off)
  | Tag_int16 -> Int16 (Bytes_util.get_u16 b off)
  | Tag_int32 -> Int32 (Int32.of_int (Bytes_util.get_u32 b off))
  | Tag_int64 -> Int64 (Bytes_util.get_i64 b off)
  | Tag_float -> Float (Bytes_util.get_f64 b off)
  | Tag_aggregate | Tag_frag_aggregate | Tag_proxy ->
    failwith "Node_codec: literal tag expected"

let decode_parent_rid body = Rid.read (Bytes.unsafe_of_string body) parent_rid_offset

let decode tbl body =
  let b = Bytes.unsafe_of_string body in
  let total = String.length body in
  if total < Phys_node.standalone_header_size then failwith "Node_codec: truncated record";
  let parent_rid = Rid.read b parent_rid_offset in
  (* Decode the embedded node whose header starts at [off]; checks that
     the recorded parent offset matches [expect_parent]. *)
  let rec node off expect_parent : Phys_node.t =
    if off + Phys_node.embedded_header_size > total then failwith "Node_codec: truncated node";
    let tag, label = Node_type_table.entry tbl (Bytes_util.get_u16 b off) in
    let size = Bytes_util.get_u16 b (off + 2) in
    let parent_off = Bytes_util.get_u16 b (off + 4) in
    if parent_off <> expect_parent then failwith "Node_codec: inconsistent parent offset";
    if off + size > total then failwith "Node_codec: node overruns record";
    let payload = off + Phys_node.embedded_header_size in
    let payload_len = size - Phys_node.embedded_header_size in
    match tag with
    | Tag_aggregate | Tag_frag_aggregate ->
      let cs = node_list payload (payload + payload_len) off in
      let n =
        if tag = Tag_aggregate then Phys_node.aggregate label cs
        else Phys_node.frag_aggregate ~label cs
      in
      if n.Phys_node.size <> size then failwith "Node_codec: aggregate size mismatch";
      n
    | Tag_proxy ->
      if payload_len <> Rid.encoded_size then failwith "Node_codec: bad proxy size";
      Phys_node.proxy (Rid.read b payload)
    | Tag_str | Tag_uri | Tag_int8 | Tag_int16 | Tag_int32 | Tag_int64 | Tag_float ->
      Phys_node.literal ~label (read_literal tag b payload payload_len)
  and node_list pos stop parent_off =
    if pos >= stop then []
    else begin
      let n = node pos parent_off in
      n :: node_list (pos + n.Phys_node.size) stop parent_off
    end
  in
  let root_tag, root_label = Node_type_table.entry tbl (Bytes_util.get_u16 b 0) in
  let payload = Phys_node.standalone_header_size in
  let root =
    match root_tag with
    | Tag_aggregate | Tag_frag_aggregate ->
      let cs = node_list payload total 0 in
      if root_tag = Tag_aggregate then Phys_node.aggregate root_label cs
      else Phys_node.frag_aggregate ~label:root_label cs
    | Tag_str | Tag_uri | Tag_int8 | Tag_int16 | Tag_int32 | Tag_int64 | Tag_float ->
      Phys_node.literal ~label:root_label (read_literal root_tag b payload (total - payload))
    | Tag_proxy -> failwith "Node_codec: proxy root"
  in
  if Phys_node.record_size root <> total then failwith "Node_codec: record size mismatch";
  (root, parent_rid)

let rec structural_equal (a : Phys_node.t) (b : Phys_node.t) =
  Label.equal a.label b.label
  &&
  match (a.kind, b.kind) with
  | Aggregate { children = x }, Aggregate { children = y }
  | Frag_aggregate { children = x }, Frag_aggregate { children = y } ->
    List.length x = List.length y && List.for_all2 structural_equal x y
  | Literal u, Literal v -> u = v
  | Proxy u, Proxy v -> Rid.equal u v
  | (Aggregate _ | Frag_aggregate _ | Literal _ | Proxy _), _ -> false
