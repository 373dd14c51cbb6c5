type t = {
  store : Tree_store.t;
  node : Phys_node.t;
  (* Logical siblings to the right, when known (descending provides it;
     [of_node] does not). *)
  rest : Phys_node.t Seq.t;
  up : t option;
}

let of_node store node = { store; node; rest = Seq.empty; up = None }

let of_document store name =
  Option.map (of_node store) (Tree_store.open_document store name)

let store t = t.store
let node t = t.node
let is_element t = Tree_store.is_element t.node
let is_text t = Tree_store.is_literal t.node
let name t = Tree_store.label_name t.store t.node.Phys_node.label
let text t = Tree_store.text_of t.store t.node

let children t : t Seq.t =
  let rec wrap up seq () =
    match seq () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (n, rest) -> Seq.Cons ({ store = t.store; node = n; rest; up = Some up }, wrap up rest)
  in
  wrap t (Tree_store.logical_children t.store t.node)

let first_child t =
  match children t () with
  | Seq.Nil -> None
  | Seq.Cons (c, _) -> Some c

let next_sibling t =
  match t.rest () with
  | Seq.Cons (n, rest) -> Some { store = t.store; node = n; rest; up = t.up }
  | Seq.Nil -> (
    match t.up with
    | Some _ -> None
    | None -> (
      (* No sibling context: recompute from the logical parent. *)
      match Tree_store.logical_parent t.store t.node with
      | None -> None
      | Some p ->
        let rec find seq =
          match seq () with
          | Seq.Nil -> None
          | Seq.Cons (n, rest) ->
            if n == t.node then
              match rest () with
              | Seq.Nil -> None
              | Seq.Cons (n', rest') ->
                Some { store = t.store; node = n'; rest = rest'; up = None }
            else find rest
        in
        find (Tree_store.logical_children t.store p)))

let parent t =
  match t.up with
  | Some _ as up -> up
  | None -> Option.map (of_node t.store) (Tree_store.logical_parent t.store t.node)

let is_attribute t = Tree_store.is_attribute t.store t.node

let children_named t elem_name =
  Seq.filter (fun c -> is_element c && String.equal (name c) elem_name) (children t)

let attribute t attr_name =
  let key = "@" ^ attr_name in
  Seq.find_map
    (fun c -> if (not (is_element c)) && String.equal (name c) key then Some (text c) else None)
    (children t)

let rec descendants_or_self t () =
  Seq.Cons (t, Seq.concat_map descendants_or_self (children t))

(* A preorder walk over logical children that appends each text leaf as
   it reaches it: records are fetched in the order a walk over
   [descendants_or_self] fetches them, without a cursor or a [Seq] cell
   per node. *)
let text_content t =
  let buf = Buffer.create 128 in
  let rec walk (n : Phys_node.t) =
    if Tree_store.is_literal n then begin
      if not (Tree_store.is_attribute t.store n) then
        Buffer.add_string buf (Tree_store.text_of t.store n)
    end
    else Tree_store.iter_logical_children t.store n walk
  in
  walk t.node;
  Buffer.contents buf
