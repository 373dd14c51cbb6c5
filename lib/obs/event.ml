open Natix_util

type decision = Cluster | Standalone | Other

type btree_op = Bt_read | Bt_write | Bt_alloc

type ctx = { doc : string option; phase : string }

type kind =
  | Io of { page : int; write : bool; sequential : bool }
  | Page_fix of { page : int; hit : bool }
  | Page_evict of { page : int; dirty : bool }
  | Page_flush of { page : int }
  | Record_alloc of { rid : Rid.t; bytes : int }
  | Record_relocate of { rid : Rid.t; target : Rid.t; bytes : int }
  | Record_free of { rid : Rid.t }
  | Split of { rid : Rid.t; decision : decision; fill : float; record_bytes : int }
  | Merge of { rid : Rid.t; absorbed : Rid.t }
  | Proxy_hop of { rid : Rid.t; chain : int }
  | Btree_node of { rid : Rid.t; op : btree_op; leaf : bool }
  | Checksum_fail of { page : int }
  | Read_retry of { page : int; attempt : int }
  | Read_ahead of { first : int; pages : int }
  | Wal_append of { lsn : int; page : int; bytes : int }
  | Wal_fsync of { lsn : int; records : int }
  | Wal_torn of { offset : int; dropped : int }
  | Recovery_redo of { page : int }
  | Recovery_undo of { page : int }
  | Recovery_done of { undone : int; torn_bytes : int }

type t = { seq : int; at_ms : float; kind : kind; ctx : ctx option }

let decision_name = function
  | Cluster -> "cluster"
  | Standalone -> "standalone"
  | Other -> "other"

let btree_op_name = function
  | Bt_read -> "read"
  | Bt_write -> "write"
  | Bt_alloc -> "alloc"

(* One index per constructor, in declaration order: the position of the
   kind's names in [type_names] and its slot in a handle's counters. *)
let tag = function
  | Io _ -> 0
  | Page_fix _ -> 1
  | Page_evict _ -> 2
  | Page_flush _ -> 3
  | Record_alloc _ -> 4
  | Record_relocate _ -> 5
  | Record_free _ -> 6
  | Split _ -> 7
  | Merge _ -> 8
  | Proxy_hop _ -> 9
  | Btree_node _ -> 10
  | Checksum_fail _ -> 11
  | Read_retry _ -> 12
  | Read_ahead _ -> 13
  | Wal_append _ -> 14
  | Wal_fsync _ -> 15
  | Wal_torn _ -> 16
  | Recovery_redo _ -> 17
  | Recovery_undo _ -> 18
  | Recovery_done _ -> 19

let type_names =
  [|
    "io";
    "page_fix";
    "page_evict";
    "page_flush";
    "record_alloc";
    "record_relocate";
    "record_free";
    "split";
    "merge";
    "proxy_hop";
    "btree_node";
    "checksum_fail";
    "read_retry";
    "read_ahead";
    "wal_append";
    "wal_fsync";
    "wal_torn";
    "recovery_redo";
    "recovery_undo";
    "recovery_done";
  |]

let tag_count = Array.length type_names
let type_name k = type_names.(tag k)

(* ["ev." ^ type_name kind], built once: counting an event allocates
   nothing. *)
let counter_names = Array.map (fun n -> "ev." ^ n) type_names
let counter_name k = counter_names.(tag k)

let rid_json rid = Json.String (Rid.to_string rid)

let kind_fields = function
  | Io { page; write; sequential } ->
    [ ("page", Json.Int page); ("write", Json.Bool write); ("sequential", Json.Bool sequential) ]
  | Page_fix { page; hit } -> [ ("page", Json.Int page); ("hit", Json.Bool hit) ]
  | Page_evict { page; dirty } -> [ ("page", Json.Int page); ("dirty", Json.Bool dirty) ]
  | Page_flush { page } -> [ ("page", Json.Int page) ]
  | Record_alloc { rid; bytes } -> [ ("rid", rid_json rid); ("bytes", Json.Int bytes) ]
  | Record_relocate { rid; target; bytes } ->
    [ ("rid", rid_json rid); ("target", rid_json target); ("bytes", Json.Int bytes) ]
  | Record_free { rid } -> [ ("rid", rid_json rid) ]
  | Split { rid; decision; fill; record_bytes } ->
    [
      ("rid", rid_json rid);
      ("decision", Json.String (decision_name decision));
      ("fill", Json.Float fill);
      ("record_bytes", Json.Int record_bytes);
    ]
  | Merge { rid; absorbed } -> [ ("rid", rid_json rid); ("absorbed", rid_json absorbed) ]
  | Proxy_hop { rid; chain } -> [ ("rid", rid_json rid); ("chain", Json.Int chain) ]
  | Btree_node { rid; op; leaf } ->
    [ ("rid", rid_json rid); ("op", Json.String (btree_op_name op)); ("leaf", Json.Bool leaf) ]
  | Checksum_fail { page } -> [ ("page", Json.Int page) ]
  | Read_retry { page; attempt } -> [ ("page", Json.Int page); ("attempt", Json.Int attempt) ]
  | Read_ahead { first; pages } -> [ ("first", Json.Int first); ("pages", Json.Int pages) ]
  | Wal_append { lsn; page; bytes } ->
    [ ("lsn", Json.Int lsn); ("page", Json.Int page); ("bytes", Json.Int bytes) ]
  | Wal_fsync { lsn; records } -> [ ("lsn", Json.Int lsn); ("records", Json.Int records) ]
  | Wal_torn { offset; dropped } ->
    [ ("offset", Json.Int offset); ("dropped", Json.Int dropped) ]
  | Recovery_redo { page } -> [ ("page", Json.Int page) ]
  | Recovery_undo { page } -> [ ("page", Json.Int page) ]
  | Recovery_done { undone; torn_bytes } ->
    [ ("undone", Json.Int undone); ("torn_bytes", Json.Int torn_bytes) ]

let ctx_fields = function
  | None -> []
  | Some { doc; phase } -> (
    ("phase", Json.String phase)
    :: (match doc with None -> [] | Some d -> [ ("doc", Json.String d) ]))

let to_json t =
  Json.Obj
    (("seq", Json.Int t.seq)
    :: ("ms", Json.Float t.at_ms)
    :: ("type", Json.String (type_name t.kind))
    :: (kind_fields t.kind @ ctx_fields t.ctx))

let pp ppf t =
  Format.fprintf ppf "@[<h>#%-6d %9.2fms %-15s" t.seq t.at_ms (type_name t.kind);
  List.iter
    (fun (k, v) ->
      match v with
      | Json.String s -> Format.fprintf ppf " %s=%s" k s
      | v -> Format.fprintf ppf " %s=%s" k (Json.to_string v))
    (kind_fields t.kind @ ctx_fields t.ctx);
  Format.fprintf ppf "@]"
