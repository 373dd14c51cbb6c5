open Natix_core

type request =
  | Ping
  | Load of { doc : string; xml : string; order : Loader.order }
  | Query of { doc : string; path : string; texts : bool }
  | Scan of { element : string; texts : bool }
  | Checkpoint
  | Stat of { doc : string option }
  | Server_stats

type doc_stat = { doc : string; records : int; pages : int; record_bytes : int }

(* Dispatcher counters, mirrored over the wire so a remote `natix top
   --serve` sees what an in-process [Server.stats] call sees. *)
type server_stats = {
  served : int;
  shed : int;
  max_queue : int;
  queued : int;
  running : int;
  jobs : int;
  max_inflight : int;
  queue_depth : int;
}

type response =
  | Pong
  | Loaded of { doc : string; nodes : int }
  | Hits of string list
  | Scanned of string list
  | Checkpointed
  | Stats of { docs : doc_stat list; disk_bytes : int }
  | Err of Error.t
  | Overloaded of { reason : string }
  | Server_statted of server_stats

let kind = function
  | Ping -> "ping"
  | Load _ -> "load"
  | Query _ -> "query"
  | Scan _ -> "scan"
  | Checkpoint -> "checkpoint"
  | Stat _ -> "stat"
  | Server_stats -> "server_stats"

(* ---- codec -------------------------------------------------------- *)

(* Fixed-width big-endian integers and length-prefixed strings into a
   Buffer; decoding tracks a cursor over the input string and raises
   [Malformed] internally — the public decoders catch it, so malformed
   bytes are an [Error], never an exception. *)

exception Malformed of string

let bad fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then bad "u32 out of range: %d" v;
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u48 b v =
  if v < 0 then bad "u48 out of range: %d" v;
  put_u8 b (v lsr 40);
  put_u8 b (v lsr 32);
  put_u32 b (v land 0xffff_ffff)

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_bool b v = put_u8 b (if v then 1 else 0)

type cursor = { s : string; mutable pos : int }

let take c n =
  if n < 0 || c.pos + n > String.length c.s then
    bad "truncated message (%d byte(s) needed at %d of %d)" n c.pos (String.length c.s);
  let off = c.pos in
  c.pos <- c.pos + n;
  off

let get_u8 c = Char.code c.s.[take c 1]
let get_u32 c =
  let off = take c 4 in
  (Char.code c.s.[off] lsl 24)
  lor (Char.code c.s.[off + 1] lsl 16)
  lor (Char.code c.s.[off + 2] lsl 8)
  lor Char.code c.s.[off + 3]

let get_u48 c =
  let hi = get_u8 c and mid = get_u8 c in
  (hi lsl 40) lor (mid lsl 32) lor get_u32 c

let get_str c =
  let len = get_u32 c in
  let off = take c len in
  String.sub c.s off len

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> bad "bad boolean byte %d" v

let get_list c get =
  let n = get_u32 c in
  List.init n (fun _ -> get c)

let put_list b put l =
  put_u32 b (List.length l);
  List.iter (put b) l

(* Decode drivers: one message per buffer, trailing bytes are an error. *)
let decode name f s =
  let c = { s; pos = 0 } in
  match f c with
  | v ->
    if c.pos <> String.length s then
      Error (Printf.sprintf "%s: %d trailing byte(s)" name (String.length s - c.pos))
    else Ok v
  | exception Malformed m -> Error (Printf.sprintf "%s: %s" name m)

(* ---- requests ----------------------------------------------------- *)

let order_tag = function Loader.Preorder -> 0 | Loader.Bfs_binary -> 1

let order_of_tag = function
  | 0 -> Loader.Preorder
  | 1 -> Loader.Bfs_binary
  | t -> bad "bad insertion-order tag %d" t

let encode_request r =
  let b = Buffer.create 64 in
  (match r with
  | Ping -> put_u8 b 1
  | Load { doc; xml; order } ->
    put_u8 b 2;
    put_str b doc;
    put_str b xml;
    put_u8 b (order_tag order)
  | Query { doc; path; texts } ->
    put_u8 b 3;
    put_str b doc;
    put_str b path;
    put_bool b texts
  | Scan { element; texts } ->
    put_u8 b 4;
    put_str b element;
    put_bool b texts
  | Checkpoint -> put_u8 b 5
  | Stat { doc } -> (
    put_u8 b 6;
    match doc with
    | None -> put_u8 b 0
    | Some d ->
      put_u8 b 1;
      put_str b d)
  | Server_stats -> put_u8 b 7);
  Buffer.contents b

let decode_request =
  decode "request" (fun c ->
      match get_u8 c with
      | 1 -> Ping
      | 2 ->
        let doc = get_str c in
        let xml = get_str c in
        Load { doc; xml; order = order_of_tag (get_u8 c) }
      | 3 ->
        let doc = get_str c in
        let path = get_str c in
        Query { doc; path; texts = get_bool c }
      | 4 ->
        let element = get_str c in
        Scan { element; texts = get_bool c }
      | 5 -> Checkpoint
      | 6 ->
        Stat
          {
            doc =
              (match get_u8 c with
              | 0 -> None
              | 1 -> Some (get_str c)
              | t -> bad "bad option tag %d" t);
          }
      | 7 -> Server_stats
      | t -> bad "bad request tag %d" t)

(* ---- errors ------------------------------------------------------- *)

let put_error b (e : Error.t) =
  match e with
  | Parse s ->
    put_u8 b 1;
    put_str b s
  | Validation { doc; detail } ->
    put_u8 b 2;
    put_str b doc;
    put_str b detail
  | Dtd { doc; detail } ->
    put_u8 b 3;
    put_str b doc;
    put_str b detail
  | Query s ->
    put_u8 b 4;
    put_str b s
  | Storage s ->
    put_u8 b 5;
    put_str b s

let get_error c : Error.t =
  match get_u8 c with
  | 1 -> Parse (get_str c)
  | 2 ->
    let doc = get_str c in
    Validation { doc; detail = get_str c }
  | 3 ->
    let doc = get_str c in
    Dtd { doc; detail = get_str c }
  | 4 -> Query (get_str c)
  | 5 -> Storage (get_str c)
  | t -> bad "bad error tag %d" t

(* ---- responses ---------------------------------------------------- *)

let put_stat b s =
  put_str b s.doc;
  put_u32 b s.records;
  put_u32 b s.pages;
  put_u48 b s.record_bytes

let get_stat c =
  let doc = get_str c in
  let records = get_u32 c in
  let pages = get_u32 c in
  { doc; records; pages; record_bytes = get_u48 c }

let encode_response r =
  let b = Buffer.create 256 in
  (match r with
  | Pong -> put_u8 b 1
  | Loaded { doc; nodes } ->
    put_u8 b 2;
    put_str b doc;
    put_u32 b nodes
  | Hits hits ->
    put_u8 b 3;
    put_list b put_str hits
  | Scanned hits ->
    put_u8 b 4;
    put_list b put_str hits
  | Checkpointed -> put_u8 b 5
  | Stats { docs; disk_bytes } ->
    put_u8 b 6;
    put_list b put_stat docs;
    put_u48 b disk_bytes
  | Err e ->
    put_u8 b 7;
    put_error b e
  | Overloaded { reason } ->
    put_u8 b 8;
    put_str b reason
  | Server_statted s ->
    put_u8 b 9;
    put_u48 b s.served;
    put_u48 b s.shed;
    put_u32 b s.max_queue;
    put_u32 b s.queued;
    put_u32 b s.running;
    put_u32 b s.jobs;
    put_u32 b s.max_inflight;
    put_u32 b s.queue_depth);
  Buffer.contents b

let decode_response =
  decode "response" (fun c ->
      match get_u8 c with
      | 1 -> Pong
      | 2 ->
        let doc = get_str c in
        Loaded { doc; nodes = get_u32 c }
      | 3 -> Hits (get_list c get_str)
      | 4 -> Scanned (get_list c get_str)
      | 5 -> Checkpointed
      | 6 ->
        let docs = get_list c get_stat in
        Stats { docs; disk_bytes = get_u48 c }
      | 7 -> Err (get_error c)
      | 8 -> Overloaded { reason = get_str c }
      | 9 ->
        let served = get_u48 c in
        let shed = get_u48 c in
        let max_queue = get_u32 c in
        let queued = get_u32 c in
        let running = get_u32 c in
        let jobs = get_u32 c in
        let max_inflight = get_u32 c in
        Server_statted
          { served; shed; max_queue; queued; running; jobs; max_inflight;
            queue_depth = get_u32 c }
      | t -> bad "bad response tag %d" t)

(* ---- printers ----------------------------------------------------- *)

let pp_request fmt = function
  | Ping -> Format.fprintf fmt "ping"
  | Load { doc; xml; _ } -> Format.fprintf fmt "load %s (%d bytes)" doc (String.length xml)
  | Query { doc; path; texts } ->
    Format.fprintf fmt "query %s %s%s" doc path (if texts then " --text" else "")
  | Scan { element; texts } ->
    Format.fprintf fmt "scan %s%s" element (if texts then " --text" else "")
  | Checkpoint -> Format.fprintf fmt "checkpoint"
  | Stat { doc } -> Format.fprintf fmt "stat %s" (Option.value doc ~default:"*")
  | Server_stats -> Format.fprintf fmt "server-stats"

let pp_response fmt = function
  | Pong -> Format.fprintf fmt "pong"
  | Loaded { doc; nodes } -> Format.fprintf fmt "loaded %s (%d nodes)" doc nodes
  | Hits hits -> Format.fprintf fmt "%d hit(s)" (List.length hits)
  | Scanned hits -> Format.fprintf fmt "%d scanned" (List.length hits)
  | Checkpointed -> Format.fprintf fmt "checkpointed"
  | Stats { docs; disk_bytes } ->
    Format.fprintf fmt "%d doc(s), %d bytes on disk" (List.length docs) disk_bytes
  | Err e -> Format.fprintf fmt "error: %a" Error.pp e
  | Overloaded { reason } -> Format.fprintf fmt "overloaded (%s)" reason
  | Server_statted s ->
    Format.fprintf fmt "server: served=%d shed=%d queued=%d running=%d max_queue=%d jobs=%d"
      s.served s.shed s.queued s.running s.max_queue s.jobs
