open Natix_util

exception Corrupt of string

(* Node encoding (record body):
     leaf:     [0x00][u16 n][8B next leaf RID][(u16 klen)(key)(8B value)]*
     internal: [0x01][u16 n][8B child0]      [(u16 klen)(key)(8B child)]*
   In an internal node, keys separate children: child i holds keys
   < key i <= child i+1 (keys are copied up from leaf splits). *)

type node =
  | Leaf of { mutable next : Rid.t; mutable entries : (string * string) list }
  | Internal of { mutable child0 : Rid.t; mutable entries : (string * Rid.t) list }

type t = { rm : Record_manager.t; root : Rid.t; obs : Natix_obs.Obs.t option }

let value_size = 8

let max_node_bytes t =
  (* Leave room so a split's two halves always fit comfortably. *)
  Record_manager.max_len t.rm

let max_key_len t = max 16 (max_node_bytes t / 4)

(* ---- codec -------------------------------------------------------- *)

let encode node =
  let buf = Buffer.create 256 in
  let u16 v =
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))
  in
  let rid r =
    let b = Bytes.create Rid.encoded_size in
    Rid.write b 0 r;
    Buffer.add_bytes buf b
  in
  (match node with
  | Leaf l ->
    Buffer.add_char buf '\000';
    u16 (List.length l.entries);
    rid l.next;
    List.iter
      (fun (k, v) ->
        u16 (String.length k);
        Buffer.add_string buf k;
        assert (String.length v = value_size);
        Buffer.add_string buf v)
      l.entries
  | Internal n ->
    Buffer.add_char buf '\001';
    u16 (List.length n.entries);
    rid n.child0;
    List.iter
      (fun (k, c) ->
        u16 (String.length k);
        Buffer.add_string buf k;
        rid c)
      n.entries);
  Buffer.contents buf

let decode body =
  let b = Bytes.unsafe_of_string body in
  let pos = ref 3 in
  let n = Bytes_util.get_u16 b 1 in
  let rid () =
    let r = Rid.read b !pos in
    pos := !pos + Rid.encoded_size;
    r
  in
  let str len =
    let s = String.sub body !pos len in
    pos := !pos + len;
    s
  in
  let key () =
    let len = Bytes_util.get_u16 b !pos in
    pos := !pos + 2;
    str len
  in
  match body.[0] with
  | '\000' ->
    let next = rid () in
    let entries = List.init n (fun _ -> let k = key () in (k, str value_size)) in
    Leaf { next; entries }
  | '\001' ->
    let child0 = rid () in
    let entries = List.init n (fun _ -> let k = key () in (k, rid ())) in
    Internal { child0; entries }
  | c -> raise (Corrupt (Printf.sprintf "bad node tag %C" c))

let encoded_size node =
  (* Mirror [encode] without building the string. *)
  match node with
  | Leaf l ->
    3 + Rid.encoded_size
    + List.fold_left (fun a (k, _) -> a + 2 + String.length k + value_size) 0 l.entries
  | Internal n ->
    3 + Rid.encoded_size
    + List.fold_left (fun a (k, _) -> a + 2 + String.length k + Rid.encoded_size) 0 n.entries

let is_leaf_node = function Leaf _ -> true | Internal _ -> false

let note t rid op ~leaf =
  match t.obs with
  | None -> ()
  | Some obs -> Natix_obs.Obs.emit obs (Natix_obs.Event.Btree_node { rid; op; leaf })

let read_node t rid =
  let node = decode (Record_manager.read t.rm rid) in
  note t rid Natix_obs.Event.Bt_read ~leaf:(is_leaf_node node);
  node

let write_node t rid node =
  note t rid Natix_obs.Event.Bt_write ~leaf:(is_leaf_node node);
  Record_manager.update_string t.rm rid (encode node)

let alloc_node t ?near node =
  let rid = Record_manager.insert t.rm ?near (encode node) in
  note t rid Natix_obs.Event.Bt_alloc ~leaf:(is_leaf_node node);
  rid

(* ---- node images ---------------------------------------------------- *)

(* Searches read a node where it lies, inside its record's page fix, and
   copy out only what they return.  A search fixes each node it visits
   once, fixing the pages [read_node] fixes, and emits the node's read
   event after the fix. *)

let is_leaf_image b off =
  match Bytes.get b off with
  | '\000' -> true
  | '\001' -> false
  | c -> raise (Corrupt (Printf.sprintf "bad node tag %C" c))

let entry_count b off = Bytes_util.get_u16 b (off + 1)

(* Offset of the first entry's key length. *)
let first_entry off = off + 3 + Rid.encoded_size

(* [String.compare key k] for the [klen]-byte key [k] at [pos] of [b]. *)
let compare_key key b pos klen =
  let n = String.length key in
  let m = if n < klen then n else klen in
  let i = ref 0 in
  while !i < m && String.get key !i = Bytes.get b (pos + !i) do
    incr i
  done;
  if !i < m then Char.compare (String.get key !i) (Bytes.get b (pos + !i)) else Int.compare n klen

(* [route]'s choice in the internal node image at [off]. *)
let route_image key b off =
  let n = entry_count b off in
  let child = ref (off + 3) and pos = ref (first_entry off) and i = ref 0 in
  while !i < n && compare_key key b (!pos + 2) (Bytes_util.get_u16 b !pos) >= 0 do
    let key_end = !pos + 2 + Bytes_util.get_u16 b !pos in
    child := key_end;
    pos := key_end + Rid.encoded_size;
    incr i
  done;
  Rid.read b !child

(* ---- construction -------------------------------------------------- *)

let create rm =
  let root = Record_manager.insert rm (encode (Leaf { next = Rid.null; entries = [] })) in
  { rm; root; obs = Record_manager.obs rm }

let open_tree rm root = { rm; root; obs = Record_manager.obs rm }
let root t = t.root

(* ---- search --------------------------------------------------------- *)

(* Child of an internal node responsible for [key]: child i holds keys
   k with sep_{i} <= k < sep_{i+1} (child0 for keys below the first
   separator). *)
let route entries child0 key =
  let rec go prev = function
    | [] -> prev
    | (sep, child) :: rest -> if key < sep then prev else go child rest
  in
  go child0 entries

(* Descend from [rid] to the leaf responsible for [key] (the leftmost
   leaf for [None]) and return it with [leaf b ~off ~len], which runs on
   the leaf's image inside the fix that reached it. *)
let rec descend t rid key leaf =
  let r =
    Record_manager.with_record t.rm rid (fun b ~off ~len ->
        if is_leaf_image b off then Ok (leaf b ~off ~len)
        else
          Error (match key with Some key -> route_image key b off | None -> Rid.read b (off + 3)))
  in
  note t rid Natix_obs.Event.Bt_read ~leaf:(Result.is_ok r);
  match r with Ok v -> (rid, v) | Error child -> descend t child key leaf

(* The value bound to [key] in the leaf image at [off]. *)
let leaf_value key b off =
  let n = entry_count b off in
  let pos = ref (first_entry off) and i = ref 0 and found = ref None in
  while !i < n && Option.is_none !found do
    let klen = Bytes_util.get_u16 b !pos in
    let c = compare_key key b (!pos + 2) klen in
    if c = 0 then found := Some (Bytes.sub_string b (!pos + 2 + klen) value_size)
    else if c < 0 then i := n (* sorted: [key] is not further on *)
    else begin
      pos := !pos + 2 + klen + value_size;
      incr i
    end
  done;
  !found

let find t ~key = snd (descend t t.root (Some key) (fun b ~off ~len:_ -> leaf_value key b off))

let mem t ~key = find t ~key <> None

(* ---- insertion ------------------------------------------------------ *)

let insert_sorted key value entries =
  let rec go = function
    | [] -> [ (key, value) ]
    | (k, _) :: rest when k = key -> (key, value) :: rest
    | ((k, _) as e) :: rest -> if key < k then (key, value) :: e :: rest else e :: go rest
  in
  go entries

(* Split a sorted entry list in half; returns (left, sep, right) where
   every key in right is >= sep. *)
let halve entries =
  let n = List.length entries in
  let rec take i acc = function
    | rest when i = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | e :: rest -> take (i - 1) (e :: acc) rest
  in
  let left, right = take (n / 2) [] entries in
  match right with
  | (sep, _) :: _ -> (left, sep, right)
  | [] -> failwith "Btree: cannot split a tiny node"

(* Insert into the subtree at [rid]; returns [Some (sep, right_rid)] when
   the node split. *)
let rec insert_at t rid key value : (string * Rid.t) option =
  match read_node t rid with
  | Leaf l ->
    l.entries <- insert_sorted key value l.entries;
    if encoded_size (Leaf l) <= max_node_bytes t then begin
      write_node t rid (Leaf l);
      None
    end
    else begin
      let left, sep, right = halve l.entries in
      let right_rid =
        alloc_node t ~near:(Rid.page rid) (Leaf { next = l.next; entries = right })
      in
      l.entries <- left;
      l.next <- right_rid;
      write_node t rid (Leaf l);
      Some (sep, right_rid)
    end
  | Internal n -> (
    let child = route n.entries n.child0 key in
    match insert_at t child key value with
    | None -> None
    | Some (sep, right_rid) ->
      n.entries <- insert_sorted sep right_rid n.entries;
      if encoded_size (Internal n) <= max_node_bytes t then begin
        write_node t rid (Internal n);
        None
      end
      else begin
        let left, sep_up, right = halve n.entries in
        (* The separator moves up; the right node's child0 is the child
           the separator used to point at. *)
        match right with
        | (_, sep_child) :: right_rest ->
          let right_rid =
            alloc_node t ~near:(Rid.page rid)
              (Internal { child0 = sep_child; entries = right_rest })
          in
          n.entries <- left;
          write_node t rid (Internal n);
          Some (sep_up, right_rid)
        | [] -> assert false
      end)

let insert t ~key ~value =
  if String.length value <> value_size then invalid_arg "Btree.insert: value must be 8 bytes";
  if String.length key > max_key_len t then invalid_arg "Btree.insert: key too long";
  match insert_at t t.root key value with
  | None -> ()
  | Some (sep, right_rid) -> (
    (* Root split: keep the root RID stable by moving the old root's
       content into a fresh record and rewriting the root in place. *)
    match read_node t t.root with
    | Leaf l ->
      let left_rid = alloc_node t ~near:(Rid.page t.root) (Leaf l) in
      (* The left node keeps its chain link to the right node. *)
      write_node t t.root (Internal { child0 = left_rid; entries = [ (sep, right_rid) ] })
    | Internal n ->
      let left_rid = alloc_node t ~near:(Rid.page t.root) (Internal n) in
      write_node t t.root (Internal { child0 = left_rid; entries = [ (sep, right_rid) ] }))

(* ---- deletion (lazy) ------------------------------------------------ *)

let remove t ~key =
  match descend t t.root (Some key) (fun b ~off ~len -> decode (Bytes.sub_string b off len)) with
  | rid, Leaf l ->
    let n = List.length l.entries in
    l.entries <- List.filter (fun (k, _) -> k <> key) l.entries;
    if List.length l.entries <> n then write_node t rid (Leaf l)
  | _, Internal _ -> assert false

(* ---- scans ----------------------------------------------------------- *)

(* The bindings of the leaf image at [off] with [lo <= key < hi], copied
   out in key order, whether a key at or past [hi] ended the scan, and the
   next leaf. *)
let leaf_range ~lo ~hi b off =
  let n = entry_count b off in
  let pos = ref (first_entry off) and i = ref 0 and stop = ref false and acc = ref [] in
  while !i < n && not !stop do
    let klen = Bytes_util.get_u16 b !pos in
    let kpos = !pos + 2 in
    let above = match lo with Some lo -> compare_key lo b kpos klen <= 0 | None -> true in
    let below = match hi with Some hi -> compare_key hi b kpos klen > 0 | None -> true in
    if not below then stop := true
    else if above then
      acc := (Bytes.sub_string b kpos klen, Bytes.sub_string b (kpos + klen) value_size) :: !acc;
    pos := kpos + klen + value_size;
    incr i
  done;
  (List.rev !acc, !stop, Rid.read b (off + 3))

(* The first leaf's range is read in the fix that reached it; the walk
   then follows the leaf chain, one fix per leaf. *)
let iter_range t ~lo ~hi f =
  let range b ~off ~len:_ = leaf_range ~lo ~hi b off in
  let rec walk (bindings, stop, next) =
    List.iter (fun (k, v) -> f k v) bindings;
    if not (stop || Rid.is_null next) then walk (snd (descend t next None range))
  in
  walk (snd (descend t t.root lo range))

let iter t f = iter_range t ~lo:None ~hi:None f

let cardinal t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let height t =
  let rec go rid acc =
    match read_node t rid with
    | Leaf _ -> acc
    | Internal n -> go n.child0 (acc + 1)
  in
  go t.root 1

(* ---- bulk ------------------------------------------------------------ *)

let clear t =
  (* Delete every node record except the root, which is reset to an empty
     leaf so the tree's RID stays stable. *)
  let rec nodes rid acc =
    match read_node t rid with
    | Leaf _ -> rid :: acc
    | Internal n ->
      let acc = rid :: acc in
      List.fold_left (fun acc (_, c) -> nodes c acc) (nodes n.child0 acc) n.entries
  in
  List.iter
    (fun rid -> if not (Rid.equal rid t.root) then Record_manager.delete t.rm rid)
    (nodes t.root []);
  write_node t t.root (Leaf { next = Rid.null; entries = [] })

(* ---- invariants ------------------------------------------------------ *)

let check t =
  let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt in
  let rec sorted = function
    | a :: b :: rest -> if a >= b then fail "keys not strictly sorted" else sorted (b :: rest)
    | _ -> ()
  in
  (* Collect leaves in tree order and verify key ranges. *)
  let leaves_in_order = ref [] in
  let rec walk rid lo hi =
    match read_node t rid with
    | Leaf l ->
      leaves_in_order := rid :: !leaves_in_order;
      sorted (List.map fst l.entries);
      List.iter
        (fun (k, _) ->
          (match lo with Some lo when k < lo -> fail "key below range" | _ -> ());
          match hi with Some hi when k >= hi -> fail "key above range" | _ -> ())
        l.entries
    | Internal n ->
      sorted (List.map fst n.entries);
      let rec children prev_lo child = function
        | [] -> walk child prev_lo hi
        | (sep, next_child) :: rest ->
          walk child prev_lo (Some sep);
          children (Some sep) next_child rest
      in
      children lo n.child0 n.entries
  in
  walk t.root None None;
  (* The leaf chain must visit the same leaves in the same order. *)
  let in_order = List.rev !leaves_in_order in
  let rec chain rid acc =
    if Rid.is_null rid then List.rev acc
    else
      match read_node t rid with
      | Leaf l -> chain l.next (rid :: acc)
      | Internal _ -> fail "leaf chain reaches an internal node"
  in
  let chained = chain (fst (descend t t.root None (fun _ ~off:_ ~len:_ -> ()))) [] in
  if not (List.length chained = List.length in_order && List.for_all2 Rid.equal chained in_order)
  then fail "leaf chain disagrees with tree order"
