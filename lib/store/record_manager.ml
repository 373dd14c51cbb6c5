open Natix_util

exception Record_too_large of int

type t = { seg : Segment.t; obs : Natix_obs.Obs.t option }

let create seg = { seg; obs = Segment.obs seg }
let segment t = t.seg
let obs t = t.obs
let max_len t = Segment.max_record_len t.seg

let check_len t len = if len > max_len t then raise (Record_too_large len)

let tombstone_body rid =
  let b = Bytes.create Rid.encoded_size in
  Rid.write b 0 rid;
  Bytes.unsafe_to_string b

(* Insert [data] with [flags] on a page with room, preferring [near].
   [owner] pins the allocation arena (else it follows [near]'s page, else
   the shared arena — see {!Segment.find_space}).
   [Slotted_page.free_for_insert] (which the inventory tracks) already
   accounts for the slot entry, so the requirement is exactly the
   record's extent. *)
let place t ?owner ?near ?policy data flags =
  let need = Slotted_page.extent (String.length data) in
  let page = Segment.find_space t.seg ?owner ?near ?policy need in
  Segment.with_page_mut t.seg page (fun b ->
      match Slotted_page.insert b data flags with
      | Some slot -> Rid.make ~page ~slot
      | None -> failwith "Record_manager.place: inventory out of sync")

let insert t ?owner ?near ?policy data =
  check_len t (String.length data);
  let rid = place t ?owner ?near ?policy data Slotted_page.no_flags in
  (match t.obs with
  | None -> ()
  | Some obs ->
    let bytes = String.length data in
    Natix_obs.Obs.emit obs (Natix_obs.Event.Record_alloc { rid; bytes });
    Natix_obs.Obs.observe obs Natix_obs.Obs.record_size_hist (float_of_int bytes));
  rid

let with_record t rid f =
  Segment.with_page t.seg (Rid.page rid) (fun b ->
      let slot = Rid.slot rid in
      if not (Slotted_page.forwarded b slot) then
        f b ~off:(Slotted_page.offset b slot) ~len:(Slotted_page.length b slot)
      else begin
        let target = Rid.read b (Slotted_page.offset b slot) in
        Segment.with_page t.seg (Rid.page target) (fun tb ->
            let slot = Rid.slot target in
            f tb ~off:(Slotted_page.offset tb slot) ~len:(Slotted_page.length tb slot))
      end)

let read t rid = with_record t rid (fun b ~off ~len -> Bytes.sub_string b off len)
let length t rid = with_record t rid (fun _ ~off:_ ~len -> len)

let exists t rid =
  Rid.page rid < Segment.page_count t.seg
  && Segment.with_page t.seg (Rid.page rid) (fun b -> Slotted_page.is_live b (Rid.slot rid))

let forward_target t rid =
  Segment.with_page t.seg (Rid.page rid) (fun b ->
      let slot = Rid.slot rid in
      if Slotted_page.forwarded b slot then Some (Rid.read b (Slotted_page.offset b slot))
      else None)

let is_forwarded t rid = forward_target t rid <> None

let home_page t rid =
  match forward_target t rid with
  | None -> Rid.page rid
  | Some target -> Rid.page target

(* Write [data] into an existing slot if the page can hold it. *)
let try_write t page slot data flags =
  Segment.with_page_mut t.seg page (fun b ->
      Slotted_page.write b slot ~len:(String.length data) (Slotted_page.blit data) flags)

type fill = old:bytes -> old_len:int -> bytes -> int -> unit

(* The calling domain's copy of the image being replaced, reused across
   updates: concurrent writers share nothing, and an update allocates no
   image unless it relocates. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let scratch t len =
  let r = Domain.DLS.get scratch_key in
  if Bytes.length !r < len then r := Bytes.create (max len (max_len t));
  !r

(* The new image did not fit where the record lives.  Every record owns
   at least a tombstone's extent ({!Slotted_page.extent}), so the
   tombstone written in its place always fits.  A moved body stays in
   the home page's arena. *)
let relocate t rid ~target data =
  let home = Rid.page rid in
  let move () = place t ~owner:(Segment.owner_of t.seg home) data Slotted_page.moved_flag in
  let forward_to fresh =
    (match t.obs with
    | None -> ()
    | Some obs ->
      Natix_obs.Obs.emit obs
        (Natix_obs.Event.Record_relocate { rid; target = fresh; bytes = String.length data }));
    if not (try_write t home (Rid.slot rid) (tombstone_body fresh) Slotted_page.forward_flag) then
      failwith "Record_manager.update: cannot place tombstone"
  in
  match target with
  | None -> forward_to (move ())
  | Some target ->
    (* Does it fit back home (collapsing the forwarding)? *)
    let home_fits = try_write t home (Rid.slot rid) data Slotted_page.no_flags in
    Segment.with_page_mut t.seg (Rid.page target) (fun b ->
        Slotted_page.delete b (Rid.slot target));
    if not home_fits then forward_to (move ())

(* The first attempt writes in place, where the record's bytes live now:
   the home page, or the current out-of-home page of a forwarded record.
   Within that one page fix the old image is copied to scratch (the write
   may move or overwrite it before [fill] runs), and [fill] writes the new
   image straight into the page.  Any other outcome builds the image from
   the scratch copy and relocates, so placement depends on [len] alone. *)
let update t rid ~len fill =
  check_len t len;
  let target = forward_target t rid in
  let page, slot, flags =
    match target with
    | None -> (Rid.page rid, Rid.slot rid, Slotted_page.no_flags)
    | Some target -> (Rid.page target, Rid.slot target, Slotted_page.moved_flag)
  in
  let old_len = ref 0 in
  let written =
    Segment.with_page_mut t.seg page (fun b ->
        let off = Slotted_page.offset b slot and n = Slotted_page.length b slot in
        let old = scratch t n in
        Bytes.blit b off old 0 n;
        old_len := n;
        Slotted_page.write b slot ~len (fun dst at -> fill ~old ~old_len:n dst at) flags)
  in
  if not written then begin
    let image = Bytes.create len in
    fill ~old:(scratch t !old_len) ~old_len:!old_len image 0;
    relocate t rid ~target (Bytes.unsafe_to_string image)
  end

let update_string t rid data =
  update t rid ~len:(String.length data) (fun ~old:_ ~old_len:_ -> Slotted_page.blit data)

let patch t rid ~off data =
  let write_at page slot =
    Segment.with_page_mut t.seg page (fun b ->
        let roff = Slotted_page.offset b slot and rlen = Slotted_page.length b slot in
        if off < 0 || off + String.length data > rlen then
          invalid_arg "Record_manager.patch: range outside record";
        Bytes.blit_string data 0 b (roff + off) (String.length data))
  in
  match forward_target t rid with
  | None -> write_at (Rid.page rid) (Rid.slot rid)
  | Some target -> write_at (Rid.page target) (Rid.slot target)

let delete t rid =
  (match t.obs with
  | None -> ()
  | Some obs -> Natix_obs.Obs.emit obs (Natix_obs.Event.Record_free { rid }));
  (match forward_target t rid with
  | None -> ()
  | Some target ->
    Segment.with_page_mut t.seg (Rid.page target) (fun b ->
        Slotted_page.delete b (Rid.slot target)));
  Segment.with_page_mut t.seg (Rid.page rid) (fun b -> Slotted_page.delete b (Rid.slot rid))
