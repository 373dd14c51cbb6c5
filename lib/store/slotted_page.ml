open Natix_util

(* Header layout:
   0  u16  slot_count
   2  u16  data_start   (lowest offset occupied by record data)
   4  u16  gap_bytes    (free bytes trapped between records)
   6  u16  free_slots   (slot entries available for reuse)
   8  u32  user32       (reserved for upper layers)

   Slot entry (4 bytes): u16 offset | moved_flag in bit 15,
                         u16 length | forward_flag in bit 15.
   A free slot entry has offset = 0xffff and length = 0; records of length
   zero are forbidden so the encoding is unambiguous.

   A record's extent (the data bytes it owns) is its length, but never
   less than [min_extent], a forward tombstone's size: a record can then
   always be replaced in place by the tombstone that forwards it. *)

let header_size = 12
let slot_size = 4
let flag_bit = 0x8000
let flag_mask = 0x7fff
let free_sentinel = 0xffff
let max_record_len ~page_size = page_size - header_size - slot_size
let min_extent = 8
let extent len = max len min_extent

let slot_count b = Bytes_util.get_u16 b 0
let set_slot_count b v = Bytes_util.set_u16 b 0 v
let data_start b = Bytes_util.get_u16 b 2
let set_data_start b v = Bytes_util.set_u16 b 2 v
let gap_bytes b = Bytes_util.get_u16 b 4
let set_gap_bytes b v = Bytes_util.set_u16 b 4 v
let free_slots b = Bytes_util.get_u16 b 6
let set_free_slots b v = Bytes_util.set_u16 b 6 v
let get_user32 b = Bytes_util.get_u32 b 8
let set_user32 b v = Bytes_util.set_u32 b 8 v

type flags = { forward : bool; moved : bool }

let no_flags = { forward = false; moved = false }
let forward_flag = { forward = true; moved = false }
let moved_flag = { forward = false; moved = true }

let format b =
  Bytes.fill b 0 (Bytes.length b) '\000';
  set_data_start b (Bytes.length b)

let slot_pos i = header_size + (slot_size * i)
let slot_end b = slot_pos (slot_count b)

let raw_entry b i =
  let p = slot_pos i in
  (Bytes_util.get_u16 b p, Bytes_util.get_u16 b (p + 2))

let entry_is_free (off_f, len_f) = off_f = free_sentinel && len_f = 0

let set_entry b i ~off ~len ~flags =
  let p = slot_pos i in
  Bytes_util.set_u16 b p (off lor if flags.moved then flag_bit else 0);
  Bytes_util.set_u16 b (p + 2) (len lor if flags.forward then flag_bit else 0)

let set_free b i =
  Bytes_util.set_u16 b (slot_pos i) free_sentinel;
  Bytes_util.set_u16 b (slot_pos i + 2) 0

let is_live b i = i >= 0 && i < slot_count b && not (entry_is_free (raw_entry b i))

let entry b i =
  let ((off_f, len_f) as e) = raw_entry b i in
  if entry_is_free e then invalid_arg "Slotted_page: free slot";
  ( off_f land flag_mask,
    len_f land flag_mask,
    { forward = len_f land flag_bit <> 0; moved = off_f land flag_bit <> 0 } )

(* A live slot's entry position; the accessors below read its fields in
   place, so a record visit allocates nothing. *)
let live_slot b i =
  if i < 0 || i >= slot_count b then invalid_arg "Slotted_page: bad slot";
  let p = slot_pos i in
  if Bytes_util.get_u16 b p = free_sentinel && Bytes_util.get_u16 b (p + 2) = 0 then
    invalid_arg "Slotted_page: free slot";
  p

let offset b i = Bytes_util.get_u16 b (live_slot b i) land flag_mask
let length b i = Bytes_util.get_u16 b (live_slot b i + 2) land flag_mask
let forwarded b i = Bytes_util.get_u16 b (live_slot b i + 2) land flag_bit <> 0

let live_count b =
  let n = ref 0 in
  for i = 0 to slot_count b - 1 do
    if not (entry_is_free (raw_entry b i)) then incr n
  done;
  !n

let contiguous b = data_start b - slot_end b
let total_free b = contiguous b + gap_bytes b

let free_for_insert b =
  let slot_cost = if free_slots b > 0 then 0 else slot_size in
  max 0 (total_free b - slot_cost)

let iter b f =
  for i = 0 to slot_count b - 1 do
    if not (entry_is_free (raw_entry b i)) then begin
      let off, len, flags = entry b i in
      f i off len flags
    end
  done

let compact b =
  let live = ref [] in
  iter b (fun i off len flags -> live := (i, off, len, flags) :: !live);
  (* Highest offset first: each record moves towards the page end, to a
     destination at or beyond its current position, so in-page blits (which
     handle overlap) never clobber unmoved data. *)
  let sorted = List.sort (fun (_, o1, _, _) (_, o2, _, _) -> Int.compare o2 o1) !live in
  let dest = ref (Bytes.length b) in
  List.iter
    (fun (i, off, len, flags) ->
      dest := !dest - extent len;
      if off <> !dest then begin
        Bytes.blit b off b !dest len;
        set_entry b i ~off:!dest ~len ~flags
      end)
    sorted;
  set_data_start b !dest;
  set_gap_bytes b 0

let find_free_slot b =
  let n = slot_count b in
  let rec loop i =
    if i >= n then None
    else if entry_is_free (raw_entry b i) then Some i
    else loop (i + 1)
  in
  loop 0

(* Reserve a slot entry, growing the directory if needed.  Returns [None]
   when the directory cannot grow.  May compact. *)
let take_slot b =
  if free_slots b > 0 then begin
    match find_free_slot b with
    | Some i ->
      set_free_slots b (free_slots b - 1);
      Some i
    | None -> failwith "Slotted_page: free_slots count corrupt"
  end
  else if contiguous b < slot_size && total_free b >= slot_size then begin
    compact b;
    if contiguous b < slot_size then None
    else begin
      let i = slot_count b in
      set_slot_count b (i + 1);
      set_free b i;
      Some i
    end
  end
  else if contiguous b < slot_size then None
  else begin
    let i = slot_count b in
    set_slot_count b (i + 1);
    set_free b i;
    Some i
  end

let release_slot b i =
  set_free b i;
  if i = slot_count b - 1 then begin
    (* Trim trailing free entries so the directory can shrink. *)
    let rec trim j =
      if j >= 0 && entry_is_free (raw_entry b j) then begin
        if j < slot_count b - 1 then set_free_slots b (free_slots b - 1);
        trim (j - 1)
      end
      else set_slot_count b (j + 1)
    in
    trim i
  end
  else set_free_slots b (free_slots b + 1)

(* Place [len] bytes of record data, compacting if fragmentation hides the
   space.  Assumes the caller checked there is room.  Returns the offset. *)
let place b len =
  if contiguous b < len then compact b;
  assert (contiguous b >= len);
  let off = data_start b - len in
  set_data_start b off;
  off

let insert b data flags =
  let len = String.length data in
  assert (len > 0);
  if free_for_insert b < extent len then None
  else
    match take_slot b with
    | None -> None
    | Some i ->
      let off = place b (extent len) in
      Bytes.blit_string data 0 b off len;
      set_entry b i ~off ~len ~flags;
      Some i

(* Return a record's extent to the free pool. *)
let free_extent b off len =
  if off = data_start b then set_data_start b (off + len)
  else set_gap_bytes b (gap_bytes b + len)

let delete b i =
  free_extent b (offset b i) (extent (length b i));
  release_slot b i

let blit data dst off = Bytes.blit_string data 0 dst off (String.length data)

let write b i ~len:new_len fill flags =
  let off = offset b i and len = length b i in
  assert (new_len > 0);
  let old_ext = extent len and new_ext = extent new_len in
  if new_ext <= old_ext then begin
    (* Shrink in place; the tail becomes an interior gap. *)
    fill b off;
    if new_ext < old_ext then set_gap_bytes b (gap_bytes b + (old_ext - new_ext));
    set_entry b i ~off ~len:new_len ~flags;
    true
  end
  else if total_free b + old_ext < new_ext then false
  else begin
    (* Free the old extent first so compaction can reclaim it; mark the
       slot free meanwhile so [compact] skips the stale extent. *)
    free_extent b off old_ext;
    set_free b i;
    let new_off = place b new_ext in
    fill b new_off;
    set_entry b i ~off:new_off ~len:new_len ~flags;
    true
  end

let check b =
  let page_size = Bytes.length b in
  let fail fmt = Printf.ksprintf failwith fmt in
  if slot_end b > data_start b then fail "slot directory overlaps data area";
  let free_entries = ref 0 in
  let extents = ref [] in
  for i = 0 to slot_count b - 1 do
    let ((off_f, len_f) as e) = raw_entry b i in
    if entry_is_free e then incr free_entries
    else begin
      let off = off_f land flag_mask and len = len_f land flag_mask in
      if len = 0 then fail "slot %d has zero length" i;
      let ext = extent len in
      if off < data_start b || off + ext > page_size then
        fail "slot %d extent [%d,%d) outside data area [%d,%d)" i off (off + ext) (data_start b)
          page_size;
      extents := (off, ext) :: !extents
    end
  done;
  if !free_entries <> free_slots b then
    fail "free_slots=%d but %d free entries" (free_slots b) !free_entries;
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) !extents in
  let used = List.fold_left (fun acc (_, len) -> acc + len) 0 sorted in
  ignore
    (List.fold_left
       (fun prev_end (off, len) ->
         if off < prev_end then fail "overlapping extents at %d" off;
         off + len)
       (data_start b) sorted);
  let expected_gaps = page_size - data_start b - used in
  if expected_gaps <> gap_bytes b then fail "gap_bytes=%d but computed %d" (gap_bytes b) expected_gaps
