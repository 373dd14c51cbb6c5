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
  | Budget_exceeded of { doc : string; resource : string; used : float; limit : float }

type t = { seq : int; at_ms : float; kind : kind; ctx : ctx option }

let decision_name = function
  | Cluster -> "cluster"
  | Standalone -> "standalone"
  | Other -> "other"

let btree_op_name = function
  | Bt_read -> "read"
  | Bt_write -> "write"
  | Bt_alloc -> "alloc"

let type_name = function
  | Io _ -> "io"
  | Page_fix _ -> "page_fix"
  | Page_evict _ -> "page_evict"
  | Page_flush _ -> "page_flush"
  | Record_alloc _ -> "record_alloc"
  | Record_relocate _ -> "record_relocate"
  | Record_free _ -> "record_free"
  | Split _ -> "split"
  | Merge _ -> "merge"
  | Proxy_hop _ -> "proxy_hop"
  | Btree_node _ -> "btree_node"
  | Checksum_fail _ -> "checksum_fail"
  | Read_retry _ -> "read_retry"
  | Read_ahead _ -> "read_ahead"
  | Wal_append _ -> "wal_append"
  | Wal_fsync _ -> "wal_fsync"
  | Wal_torn _ -> "wal_torn"
  | Recovery_redo _ -> "recovery_redo"
  | Recovery_undo _ -> "recovery_undo"
  | Recovery_done _ -> "recovery_done"
  | Budget_exceeded _ -> "budget_exceeded"

(* ["ev." ^ type_name kind], as constants: counting an event allocates
   nothing. *)
let counter_name = function
  | Io _ -> "ev.io"
  | Page_fix _ -> "ev.page_fix"
  | Page_evict _ -> "ev.page_evict"
  | Page_flush _ -> "ev.page_flush"
  | Record_alloc _ -> "ev.record_alloc"
  | Record_relocate _ -> "ev.record_relocate"
  | Record_free _ -> "ev.record_free"
  | Split _ -> "ev.split"
  | Merge _ -> "ev.merge"
  | Proxy_hop _ -> "ev.proxy_hop"
  | Btree_node _ -> "ev.btree_node"
  | Checksum_fail _ -> "ev.checksum_fail"
  | Read_retry _ -> "ev.read_retry"
  | Read_ahead _ -> "ev.read_ahead"
  | Wal_append _ -> "ev.wal_append"
  | Wal_fsync _ -> "ev.wal_fsync"
  | Wal_torn _ -> "ev.wal_torn"
  | Recovery_redo _ -> "ev.recovery_redo"
  | Recovery_undo _ -> "ev.recovery_undo"
  | Recovery_done _ -> "ev.recovery_done"
  | Budget_exceeded _ -> "ev.budget_exceeded"

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
  | Budget_exceeded { doc; resource; used; limit } ->
    [
      ("doc", Json.String doc);
      ("resource", Json.String resource);
      ("used", Json.Float used);
      ("limit", Json.Float limit);
    ]

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
