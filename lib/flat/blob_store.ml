open Natix_util
open Natix_store

type chunk = { rid : Rid.t; mutable len : int }

type blob = { mutable chunks : chunk list; mutable total : int }

type t = { rm : Record_manager.t; target : int }

let create rm =
  (* Fill chunks to ~3/4 of a page so nearby inserts usually fit without
     splitting the chain. *)
  { rm; target = max 64 (Record_manager.max_len rm * 3 / 4) }

let record_manager t = t.rm

(* Cut [data] into target-sized chunk records, near the previous chunk's
   page for sequential layout. *)
let store_pieces t ?near data =
  let n = String.length data in
  let rec go pos near acc =
    if pos >= n then List.rev acc
    else begin
      let len = min t.target (n - pos) in
      let rid = Record_manager.insert t.rm ?near (String.sub data pos len) in
      go (pos + len) (Some (Rid.page rid)) ({ rid; len } :: acc)
    end
  in
  go 0 near []

let put t data = { chunks = store_pieces t data; total = String.length data }
let empty _t = { chunks = []; total = 0 }
let length b = b.total
let chunk_count b = List.length b.chunks

(* Locate [off]: returns the chunks before, the chunk containing [off]
   (with the in-chunk offset), and the rest.  When [off] equals the blob
   length the "containing" chunk is [None]. *)
let locate b off =
  let rec go before rest off =
    match rest with
    | [] -> (before, None, [])
    | c :: tail -> if off < c.len then (before, Some (c, off), tail) else go (c :: before) tail (off - c.len)
  in
  go [] b.chunks off

let read t b ~off ~len =
  if off < 0 || len < 0 || off + len > b.total then invalid_arg "Blob_store.read: bad range";
  let buf = Buffer.create len in
  let rec go chunks off remaining =
    if remaining > 0 then begin
      match chunks with
      | [] -> invalid_arg "Blob_store.read: corrupt chunk index"
      | c :: rest ->
        if off >= c.len then go rest (off - c.len) remaining
        else begin
          let take = min (c.len - off) remaining in
          Record_manager.with_record t.rm c.rid (fun body ~off:roff ~len:_ ->
              Buffer.add_subbytes buf body (roff + off) take);
          go rest 0 (remaining - take)
        end
    end
  in
  go b.chunks off len;
  Buffer.contents buf

let read_all t b = read t b ~off:0 ~len:b.total

let insert_at t b ~off data =
  if off < 0 || off > b.total then invalid_arg "Blob_store.insert_at: bad offset";
  if String.length data = 0 then ()
  else begin
    let before, containing, after = locate b off in
    (match containing with
    | None ->
      (* Append at the very end: extend the last chunk if it has room. *)
      let near = match before with { rid; _ } :: _ -> Some (Rid.page rid) | [] -> None in
      (match before with
      | last :: _ when last.len + String.length data <= t.target ->
        let old = Record_manager.read t.rm last.rid in
        Record_manager.update_string t.rm last.rid (old ^ data);
        last.len <- last.len + String.length data;
        b.chunks <- List.rev_append before after
      | _ ->
        let pieces = store_pieces t ?near data in
        b.chunks <- List.rev_append before (pieces @ after))
    | Some (c, inner) ->
      let old = Record_manager.read t.rm c.rid in
      let combined = String.sub old 0 inner ^ data ^ String.sub old inner (c.len - inner) in
      if String.length combined <= Record_manager.max_len t.rm then begin
        Record_manager.update_string t.rm c.rid combined;
        c.len <- String.length combined;
        b.chunks <- List.rev_append before (c :: after)
      end
      else begin
        (* Split at an arbitrary byte position: rewrite this chunk with the
           first target-full and spill the rest into fresh records. *)
        let keep = min t.target (String.length combined) in
        Record_manager.update_string t.rm c.rid (String.sub combined 0 keep);
        c.len <- keep;
        let spill =
          store_pieces t ~near:(Rid.page c.rid)
            (String.sub combined keep (String.length combined - keep))
        in
        b.chunks <- List.rev_append before ((c :: spill) @ after)
      end);
    b.total <- b.total + String.length data
  end

let append t b data = insert_at t b ~off:b.total data

let delete_range t b ~off ~len =
  if off < 0 || len < 0 || off + len > b.total then invalid_arg "Blob_store.delete_range: bad range";
  let rec go acc chunks off remaining =
    match chunks with
    | [] -> List.rev acc
    | c :: rest ->
      if remaining = 0 then List.rev_append acc chunks
      else if off >= c.len then go (c :: acc) rest (off - c.len) remaining
      else begin
        let cut = min (c.len - off) remaining in
        if cut = c.len then begin
          (* whole chunk disappears *)
          Record_manager.delete t.rm c.rid;
          go acc rest 0 (remaining - cut)
        end
        else begin
          let old = Record_manager.read t.rm c.rid in
          let kept = String.sub old 0 off ^ String.sub old (off + cut) (c.len - off - cut) in
          Record_manager.update_string t.rm c.rid kept;
          c.len <- String.length kept;
          go (c :: acc) rest 0 (remaining - cut)
        end
      end
  in
  b.chunks <- go [] b.chunks off len;
  b.total <- b.total - len

let delete t b =
  List.iter (fun c -> Record_manager.delete t.rm c.rid) b.chunks;
  b.chunks <- [];
  b.total <- 0
