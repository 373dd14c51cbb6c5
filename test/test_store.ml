(* Tests for natix_util and natix_store: byte utilities, RIDs, the page
   store, buffer pool, slotted pages, free-space inventory and the record
   manager (including forwarding). *)

open Natix_util
open Natix_store

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Utilities                                                           *)

let bytes_util_tests =
  let roundtrip_u name set get bound =
    qtest name QCheck2.Gen.(pair (int_bound bound) (int_bound 100)) (fun (v, off) ->
        let b = Bytes.make 120 '\xaa' in
        set b off v;
        get b off = v)
  in
  [
    roundtrip_u "u8 roundtrip" Bytes_util.set_u8 Bytes_util.get_u8 0xff;
    roundtrip_u "u16 roundtrip" Bytes_util.set_u16 Bytes_util.get_u16 0xffff;
    roundtrip_u "u32 roundtrip" Bytes_util.set_u32 Bytes_util.get_u32 0xffffffff;
    roundtrip_u "u48 roundtrip" Bytes_util.set_u48 Bytes_util.get_u48 0xffffffffffff;
    qtest "f64 roundtrip" QCheck2.Gen.float (fun v ->
        let b = Bytes.create 8 in
        Bytes_util.set_f64 b 0 v;
        let v' = Bytes_util.get_f64 b 0 in
        (Float.is_nan v && Float.is_nan v') || v = v');
    Alcotest.test_case "u16 is little-endian" `Quick (fun () ->
        let b = Bytes.create 2 in
        Bytes_util.set_u16 b 0 0x1234;
        Alcotest.(check int) "low byte first" 0x34 (Char.code (Bytes.get b 0)));
  ]

let rid_tests =
  [
    qtest "rid roundtrip"
      QCheck2.Gen.(pair (int_bound 0xffffffffff) (int_bound 0xfffe))
      (fun (page, slot) ->
        let rid = Rid.make ~page ~slot in
        let b = Bytes.create Rid.encoded_size in
        Rid.write b 0 rid;
        Rid.equal (Rid.read b 0) rid);
    Alcotest.test_case "null rid" `Quick (fun () ->
        Alcotest.(check bool) "null is null" true (Rid.is_null Rid.null);
        Alcotest.(check bool) "ordinary is not null" false
          (Rid.is_null (Rid.make ~page:0 ~slot:0));
        let b = Bytes.create 8 in
        Rid.write b 0 Rid.null;
        Alcotest.(check bool) "null roundtrips" true (Rid.is_null (Rid.read b 0)));
    Alcotest.test_case "compare orders by page then slot" `Quick (fun () ->
        let a = Rid.make ~page:1 ~slot:9 and b = Rid.make ~page:2 ~slot:0 in
        Alcotest.(check bool) "page dominates" true (Rid.compare a b < 0);
        let c = Rid.make ~page:1 ~slot:10 in
        Alcotest.(check bool) "slot breaks ties" true (Rid.compare a c < 0));
  ]

let name_pool_tests =
  [
    Alcotest.test_case "reserved labels" `Quick (fun () ->
        let p = Name_pool.create () in
        Alcotest.(check string) "scaffold" "#scaffold" (Name_pool.name p Label.scaffold);
        Alcotest.(check string) "pcdata" "#pcdata" (Name_pool.name p Label.pcdata);
        Alcotest.(check int) "initial size" 2 (Name_pool.size p));
    Alcotest.test_case "intern is idempotent" `Quick (fun () ->
        let p = Name_pool.create () in
        let a = Name_pool.intern p "SPEECH" in
        let b = Name_pool.intern p "SPEECH" in
        Alcotest.(check int) "same label" a b;
        Alcotest.(check string) "resolves" "SPEECH" (Name_pool.name p a));
    Alcotest.test_case "find on unknown name" `Quick (fun () ->
        let p = Name_pool.create () in
        Alcotest.(check (option int)) "absent" None (Name_pool.find p "nope"));
    Alcotest.test_case "unknown label is rejected" `Quick (fun () ->
        let p = Name_pool.create () in
        let l = Name_pool.intern p "SPEECH" in
        List.iter
          (fun bad ->
            match Name_pool.name p bad with
            | exception Invalid_argument _ -> ()
            | s -> Alcotest.failf "label %d resolved to %S" bad s)
          [ -1; l + 1; max_int ]);
    qtest "labels follow first-intern order"
      QCheck2.Gen.(list_size (int_bound 80) (int_bound 30))
      (fun keys ->
        let p = Name_pool.create () in
        let first = Hashtbl.create 16 in
        List.for_all
          (fun k ->
            let name = "n" ^ string_of_int k in
            if not (Hashtbl.mem first name) then
              Hashtbl.add first name (Label.first_user + Hashtbl.length first);
            Name_pool.intern p name = Hashtbl.find first name)
          keys);
    qtest "encode/decode roundtrip"
      QCheck2.Gen.(list_size (int_bound 50) (string_size ~gen:printable (int_range 1 20)))
      (fun names ->
        let p = Name_pool.create () in
        let names = "xlink:href" :: names in
        let labels = List.map (Name_pool.intern p) names in
        let p' = Name_pool.decode (Name_pool.encode p) in
        Name_pool.size p = Name_pool.size p'
        && List.for_all2 (fun n l -> Name_pool.name p' l = n && Name_pool.find p' n = Some l)
             names labels);
  ]

let prng_tests =
  [
    Alcotest.test_case "deterministic for equal seeds" `Quick (fun () ->
        let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
        for _ = 1 to 100 do
          Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
        done);
    qtest "int stays in bounds"
      QCheck2.Gen.(pair (int_range 1 1_000_000) int)
      (fun (bound, seed) ->
        let g = Prng.create ~seed:(Int64.of_int seed) in
        let v = Prng.int g bound in
        v >= 0 && v < bound);
    qtest "range stays in bounds"
      QCheck2.Gen.(pair (pair (int_range 0 100) (int_range 0 100)) int)
      (fun ((a, b), seed) ->
        let lo = min a b and hi = max a b in
        let g = Prng.create ~seed:(Int64.of_int seed) in
        let v = Prng.range g lo hi in
        v >= lo && v <= hi);
    Alcotest.test_case "float in [0,1)" `Quick (fun () ->
        let g = Prng.create ~seed:7L in
        for _ = 1 to 1000 do
          let f = Prng.float g in
          if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Disk and buffer pool                                                *)

let io_model_tests =
  [
    Alcotest.test_case "sequential access is cheaper" `Quick (fun () ->
        let m = Io_model.dcas_34330w in
        let seq = Io_model.cost m ~page_size:8192 ~sequential:true in
        let rand = Io_model.cost m ~page_size:8192 ~sequential:false in
        Alcotest.(check bool) "seq < rand" true (seq < rand));
    Alcotest.test_case "bigger pages transfer longer" `Quick (fun () ->
        let m = Io_model.dcas_34330w in
        let small = Io_model.cost m ~page_size:2048 ~sequential:false in
        let large = Io_model.cost m ~page_size:32768 ~sequential:false in
        Alcotest.(check bool) "2K < 32K" true (small < large));
    Alcotest.test_case "free model costs nothing" `Quick (fun () ->
        Alcotest.(check (float 0.)) "zero" 0.
          (Io_model.cost Io_model.free ~page_size:32768 ~sequential:false));
  ]

let disk_tests =
  [
    Alcotest.test_case "memory disk roundtrip" `Quick (fun () ->
        let d = Disk.in_memory ~page_size:512 () in
        let ps = Disk.payload_size d in
        Alcotest.(check int) "payload excludes the trailer" (512 - Disk.trailer_size) ps;
        let p0 = Disk.allocate d and p1 = Disk.allocate d in
        Alcotest.(check int) "ids dense" 0 p0;
        Alcotest.(check int) "ids dense" 1 p1;
        let w = Bytes.make ps 'x' in
        Disk.write d p1 w;
        let r = Bytes.create ps in
        Disk.read d p1 r;
        Alcotest.(check bytes) "content" w r;
        Disk.read d p0 r;
        Alcotest.(check bytes) "fresh page zeroed" (Bytes.make ps '\000') r);
    Alcotest.test_case "stats count reads and writes" `Quick (fun () ->
        let d = Disk.in_memory ~page_size:512 () in
        let p = Disk.allocate d in
        let b = Bytes.create (Disk.payload_size d) in
        Disk.write d p b;
        Disk.read d p b;
        Disk.read d p b;
        let s = Disk.stats d in
        Alcotest.(check int) "reads" 2 s.Io_stats.reads;
        Alcotest.(check int) "writes" 1 s.Io_stats.writes;
        Alcotest.(check bool) "time advanced" true (s.Io_stats.sim_ms > 0.));
    Alcotest.test_case "sequential access detected" `Quick (fun () ->
        let d = Disk.in_memory ~page_size:512 () in
        for _ = 1 to 5 do
          ignore (Disk.allocate d)
        done;
        let b = Bytes.create (Disk.payload_size d) in
        for p = 0 to 4 do
          Disk.read d p b
        done;
        let s = Disk.stats d in
        (* First read of page 0 is random, the four others sequential. *)
        Alcotest.(check int) "sequential reads" 4 s.Io_stats.sequential_reads);
    Alcotest.test_case "out-of-bounds read rejected" `Quick (fun () ->
        let d = Disk.in_memory ~page_size:512 () in
        Alcotest.check_raises "invalid page"
          (Invalid_argument "Disk: page 3 out of bounds (count 0)") (fun () ->
            Disk.read d 3 (Bytes.create (Disk.payload_size d))));
    Alcotest.test_case "file disk persists across reopen" `Quick (fun () ->
        let path = Filename.temp_file "natix" ".db" in
        let d = Disk.on_file ~page_size:256 path in
        let ps = Disk.payload_size d in
        let p = Disk.allocate d in
        let w = Bytes.make ps 'z' in
        Disk.write d p w;
        Disk.close d;
        let d2 = Disk.on_file ~page_size:256 path in
        Alcotest.(check int) "page count" 1 (Disk.page_count d2);
        let r = Bytes.create ps in
        Disk.read d2 p r;
        Alcotest.(check bytes) "content survived" w r;
        Disk.close d2;
        Sys.remove path);
    Alcotest.test_case "file disk rejects wrong page size" `Quick (fun () ->
        let path = Filename.temp_file "natix" ".db" in
        let d = Disk.on_file ~page_size:256 path in
        Disk.close d;
        (match Disk.on_file ~page_size:512 path with
        | exception Disk.Bad_page { page = -1; _ } -> ()
        | _ -> Alcotest.fail "expected Bad_page");
        Sys.remove path);
  ]

let pool_tests =
  let make ?(pages = 4) ?(page_size = 256) () =
    let d = Disk.in_memory ~page_size () in
    let pool = Buffer_pool.create ~disk:d ~bytes:(pages * page_size) () in
    (d, pool)
  in
  [
    Alcotest.test_case "hits avoid disk reads" `Quick (fun () ->
        let d, pool = make () in
        let p = Disk.allocate d in
        Buffer_pool.with_page pool p (fun _ -> ());
        Buffer_pool.with_page pool p (fun _ -> ());
        Alcotest.(check int) "one miss" 1 (Buffer_pool.misses pool);
        Alcotest.(check int) "one disk read" 1 (Disk.stats d).Io_stats.reads);
    Alcotest.test_case "eviction writes dirty page back" `Quick (fun () ->
        let d, pool = make ~pages:2 () in
        let pids = List.init 4 (fun _ -> Disk.allocate d) in
        (match pids with
        | p0 :: _ ->
          Buffer_pool.with_page pool p0 (fun f ->
              Bytes.set f.Buffer_pool.data 0 '!';
              Buffer_pool.mark_dirty pool f)
        | [] -> assert false);
        (* Touch enough other pages to evict p0. *)
        List.iter (fun p -> Buffer_pool.with_page pool p (fun _ -> ())) (List.tl pids);
        let b = Bytes.create (Disk.payload_size d) in
        Disk.read d 0 b;
        Alcotest.(check char) "dirty byte reached disk" '!' (Bytes.get b 0));
    Alcotest.test_case "clear flushes and empties" `Quick (fun () ->
        let d, pool = make () in
        let p = Disk.allocate d in
        Buffer_pool.with_page pool p (fun f ->
            Bytes.set f.Buffer_pool.data 1 '?';
            Buffer_pool.mark_dirty pool f);
        Buffer_pool.clear pool;
        Alcotest.(check int) "empty" 0 (Buffer_pool.resident pool);
        let b = Bytes.create (Disk.payload_size d) in
        Disk.read d p b;
        Alcotest.(check char) "flushed" '?' (Bytes.get b 1));
    Alcotest.test_case "pinned frames cannot be evicted" `Quick (fun () ->
        let d, pool = make ~pages:2 () in
        let pids = List.init 3 (fun _ -> Disk.allocate d) in
        let frames = List.map (Buffer_pool.fix pool) (List.filteri (fun i _ -> i < 2) pids) in
        (match Buffer_pool.fix pool (List.nth pids 2) with
        | exception Buffer_pool.All_frames_pinned -> ()
        | _ -> Alcotest.fail "expected all-pinned failure");
        List.iter (Buffer_pool.unfix pool) frames);
    Alcotest.test_case "fix_new avoids the disk read" `Quick (fun () ->
        let d, pool = make () in
        (* Leave dead page-sized garbage on the heap: a fresh frame must
           not hand it back as the page's content (a transaction's undo
           image of a fresh page is that content). *)
        for _ = 1 to 64 do
          ignore (Sys.opaque_identity (Bytes.make (Disk.payload_size d) 'x'))
        done;
        let p = Disk.allocate d in
        let f = Buffer_pool.fix_new pool p in
        Alcotest.(check bool) "fresh frame is zeroed" true
          (Bytes.for_all (fun c -> c = '\000') f.Buffer_pool.data);
        Buffer_pool.unfix pool f;
        Alcotest.(check int) "no reads" 0 (Disk.stats d).Io_stats.reads);
    Alcotest.test_case "LRU evicts the coldest page" `Quick (fun () ->
        let d, pool = make ~pages:2 () in
        let pids = List.init 3 (fun _ -> Disk.allocate d) in
        let p0 = List.nth pids 0 and p1 = List.nth pids 1 and p2 = List.nth pids 2 in
        Buffer_pool.with_page pool p0 (fun _ -> ());
        Buffer_pool.with_page pool p1 (fun _ -> ());
        Buffer_pool.with_page pool p0 (fun _ -> ());
        (* p1 is now LRU; fixing p2 must evict p1, keeping p0 resident. *)
        Buffer_pool.with_page pool p2 (fun _ -> ());
        let misses = Buffer_pool.misses pool in
        Buffer_pool.with_page pool p0 (fun _ -> ());
        Alcotest.(check int) "p0 still resident" misses (Buffer_pool.misses pool));
    (* One domain against a reference LRU: a random run of fix, fix_new and
       unfix over more pages than frames evicts the model's pages in the
       model's order, and counts the model's fixes and misses.  A hit
       applied late, out of order or not at all changes the order the next
       eviction sees. *)
    (let frames = 4 and pages = 9 in
     qtest ~count:300 "one domain evicts exactly as a reference LRU"
       QCheck2.Gen.(list_size (int_range 1 150) (pair (int_bound 9) (int_bound (pages - 1))))
       (fun ops ->
         let evicted = ref [] in
         let obs =
           Natix_obs.Obs.create
             ~sink:
               (Natix_obs.Sink.callback (fun ev ->
                    match ev.Natix_obs.Event.kind with
                    | Natix_obs.Event.Page_evict { page; _ } -> evicted := page :: !evicted
                    | _ -> ()))
             ()
         in
         let d = Disk.in_memory ~obs ~page_size:256 () in
         let pids = Array.init pages (fun _ -> Disk.allocate d) in
         let pool = Buffer_pool.create ~disk:d ~bytes:(frames * 256) () in
         (* The model: resident pages, most recent first, and pin counts. *)
         let lru = ref [] and pins = Array.make pages 0 in
         let fixes = ref 0 and misses = ref 0 and model_evicted = ref [] in
         let admit p =
           if List.length !lru = frames then begin
             let victim = List.find (fun q -> pins.(q) = 0) (List.rev !lru) in
             model_evicted := pids.(victim) :: !model_evicted;
             lru := List.filter (( <> ) victim) !lru
           end;
           lru := p :: !lru
         in
         let model_fix p ~fresh =
           incr fixes;
           if List.mem p !lru then lru := p :: List.filter (( <> ) p) !lru
           else begin
             if not fresh then incr misses;
             admit p
           end;
           pins.(p) <- pins.(p) + 1
         in
         let held = Queue.create () in
         let unfix_oldest () =
           let p, f = Queue.pop held in
           Buffer_pool.unfix pool f;
           pins.(p) <- pins.(p) - 1
         in
         List.iter
           (fun (op, p) ->
             (* Keep one frame unpinned so every miss finds a victim. *)
             if (op >= 8 || Queue.length held >= frames - 1) && not (Queue.is_empty held) then
               unfix_oldest ()
             else if op >= 6 then begin
               model_fix p ~fresh:true;
               Queue.push (p, Buffer_pool.fix_new pool pids.(p)) held
             end
             else begin
               model_fix p ~fresh:false;
               Queue.push (p, Buffer_pool.fix pool pids.(p)) held
             end)
           ops;
         while not (Queue.is_empty held) do
           unfix_oldest ()
         done;
         List.rev !evicted = List.rev !model_evicted
         && Buffer_pool.fixes pool = !fixes
         && Buffer_pool.misses pool = !misses));
  ]

(* ------------------------------------------------------------------ *)
(* Slotted pages                                                       *)

let page_of_size n =
  let b = Bytes.create n in
  Slotted_page.format b;
  b

let write_string b slot data flags =
  Slotted_page.write b slot ~len:(String.length data) (Slotted_page.blit data) flags

let record_bytes b slot =
  Bytes.sub_string b (Slotted_page.offset b slot) (Slotted_page.length b slot)

(* Both flags of a live slot, as [Slotted_page.iter] reports them. *)
let slot_flags b slot =
  let found = ref None in
  Slotted_page.iter b (fun i _ _ flags -> if i = slot then found := Some flags);
  Option.get !found

let slotted_page_tests =
  [
    Alcotest.test_case "insert then read" `Quick (fun () ->
        let b = page_of_size 512 in
        let s = Option.get (Slotted_page.insert b "hello world" Slotted_page.no_flags) in
        Alcotest.(check string) "content" "hello world" (record_bytes b s);
        Alcotest.(check bool) "no flags" false (Slotted_page.forwarded b s);
        Slotted_page.check b);
    Alcotest.test_case "slot accessors reject bad and free slots" `Quick (fun () ->
        let b = page_of_size 512 in
        let s0 = Option.get (Slotted_page.insert b "aaaa" Slotted_page.no_flags) in
        let s1 = Option.get (Slotted_page.insert b "bbbbbb" Slotted_page.forward_flag) in
        Slotted_page.delete b s0;
        Alcotest.(check (pair int bool)) "live slot" (6, true)
          (Slotted_page.length b s1, Slotted_page.forwarded b s1);
        let rejects what f =
          match f () with
          | _ -> Alcotest.failf "%s: expected Invalid_argument" what
          | exception Invalid_argument _ -> ()
        in
        List.iter
          (fun (what, slot) ->
            rejects (what ^ " offset") (fun () -> Slotted_page.offset b slot);
            rejects (what ^ " length") (fun () -> Slotted_page.length b slot);
            rejects (what ^ " forwarded") (fun () -> Bool.to_int (Slotted_page.forwarded b slot)))
          [ ("free", s0); ("negative", -1); ("past the directory", 2) ]);
    Alcotest.test_case "delete frees space and slot" `Quick (fun () ->
        let b = page_of_size 512 in
        let s0 = Option.get (Slotted_page.insert b "aaaa" Slotted_page.no_flags) in
        let s1 = Option.get (Slotted_page.insert b "bbbb" Slotted_page.no_flags) in
        let free_before = Slotted_page.total_free b in
        Slotted_page.delete b s0;
        Alcotest.(check bool) "space reclaimed" true (Slotted_page.total_free b > free_before);
        Alcotest.(check bool) "s0 dead" false (Slotted_page.is_live b s0);
        Alcotest.(check bool) "s1 alive" true (Slotted_page.is_live b s1);
        Slotted_page.check b);
    Alcotest.test_case "slots are reused" `Quick (fun () ->
        let b = page_of_size 512 in
        let s0 = Option.get (Slotted_page.insert b "aaaa" Slotted_page.no_flags) in
        let _s1 = Option.get (Slotted_page.insert b "bbbb" Slotted_page.no_flags) in
        Slotted_page.delete b s0;
        let s2 = Option.get (Slotted_page.insert b "cccc" Slotted_page.no_flags) in
        Alcotest.(check int) "slot recycled" s0 s2;
        Slotted_page.check b);
    Alcotest.test_case "write grows a record via compaction" `Quick (fun () ->
        let b = page_of_size 128 in
        (* 128 - 12 header = 116; three records + slots. *)
        let s0 = Option.get (Slotted_page.insert b (String.make 30 'a') Slotted_page.no_flags) in
        let s1 = Option.get (Slotted_page.insert b (String.make 30 'b') Slotted_page.no_flags) in
        Slotted_page.delete b s0;
        (* Growing s1 to 60 requires reclaiming s0's extent. *)
        Alcotest.(check bool) "grow ok" true
          (write_string b s1 (String.make 60 'c') Slotted_page.no_flags);
        Alcotest.(check string) "content" (String.make 60 'c') (record_bytes b s1);
        Slotted_page.check b);
    Alcotest.test_case "write fails when page is full" `Quick (fun () ->
        let b = page_of_size 64 in
        let s = Option.get (Slotted_page.insert b (String.make 40 'x') Slotted_page.no_flags) in
        Alcotest.(check bool) "cannot grow" false
          (write_string b s (String.make 60 'y') Slotted_page.no_flags);
        Alcotest.(check string) "old intact" (String.make 40 'x') (record_bytes b s);
        Slotted_page.check b);
    Alcotest.test_case "max_record_len record fits empty page" `Quick (fun () ->
        let b = page_of_size 256 in
        let len = Slotted_page.max_record_len ~page_size:256 in
        (match Slotted_page.insert b (String.make len 'm') Slotted_page.no_flags with
        | Some _ -> ()
        | None -> Alcotest.fail "max record must fit");
        Slotted_page.check b);
    Alcotest.test_case "flags survive roundtrip" `Quick (fun () ->
        let b = page_of_size 256 in
        let s =
          Option.get (Slotted_page.insert b "12345678" Slotted_page.forward_flag)
        in
        let flags = slot_flags b s in
        Alcotest.(check bool) "forward" true flags.Slotted_page.forward;
        Alcotest.(check bool) "forwarded" true (Slotted_page.forwarded b s);
        Alcotest.(check bool) "not moved" false flags.Slotted_page.moved;
        Alcotest.(check bool) "rewrite as moved" true
          (write_string b s "12345678" Slotted_page.moved_flag);
        let flags = slot_flags b s in
        Alcotest.(check bool) "moved now" true flags.Slotted_page.moved;
        Alcotest.(check bool) "forward cleared" false flags.Slotted_page.forward;
        Alcotest.(check bool) "not forwarded" false (Slotted_page.forwarded b s));
    qtest ~count:300 "random op sequence keeps the page consistent"
      QCheck2.Gen.(list_size (int_bound 120) (pair (int_bound 2) (int_range 1 40)))
      (fun ops ->
        let b = page_of_size 512 in
        let live = ref [] in
        let reference = Hashtbl.create 16 in
        List.iteri
          (fun i (kind, len) ->
            let payload = String.make len (Char.chr (65 + (i mod 26))) in
            match kind with
            | 0 -> (
              match Slotted_page.insert b payload Slotted_page.no_flags with
              | Some s ->
                live := s :: !live;
                Hashtbl.replace reference s payload
              | None -> ())
            | 1 -> (
              match !live with
              | [] -> ()
              | s :: rest ->
                Slotted_page.delete b s;
                Hashtbl.remove reference s;
                live := rest)
            | _ -> (
              match !live with
              | [] -> ()
              | s :: _ ->
                if write_string b s payload Slotted_page.no_flags then
                  Hashtbl.replace reference s payload))
          ops;
        Slotted_page.check b;
        Hashtbl.fold
          (fun s payload ok ->
            ok
            &&
            record_bytes b s = payload)
          reference true);
  ]

let fsi_tests =
  [
    Alcotest.test_case "append and find" `Quick (fun () ->
        let f = Fsi.create () in
        List.iter (Fsi.append f) [ 10; 50; 30; 50 ];
        Alcotest.(check (option int)) "first >= 40" (Some 1) (Fsi.find_first f ~from:0 40);
        Alcotest.(check (option int)) "from 2" (Some 3) (Fsi.find_first f ~from:2 40);
        Alcotest.(check (option int)) "too big" None (Fsi.find_first f ~from:0 100));
    Alcotest.test_case "set updates queries" `Quick (fun () ->
        let f = Fsi.create () in
        List.iter (Fsi.append f) [ 10; 10; 10 ];
        Fsi.set f 1 99;
        Alcotest.(check (option int)) "found" (Some 1) (Fsi.find_first f ~from:0 50);
        Fsi.set f 1 0;
        Alcotest.(check (option int)) "gone" None (Fsi.find_first f ~from:0 50));
    qtest ~count:300 "agrees with naive reference"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 64) (int_bound 1000))
          (pair (int_bound 63) (int_bound 1000)))
      (fun (frees, (from, need)) ->
        let f = Fsi.create () in
        List.iter (Fsi.append f) frees;
        let arr = Array.of_list frees in
        let naive = ref None in
        for i = Array.length arr - 1 downto from do
          if arr.(i) >= need then naive := Some i
        done;
        Fsi.find_first f ~from need = !naive);
  ]

let segment_tests =
  let make_segment ?(page_size = 256) ?(pool_pages = 8) () =
    let d = Disk.in_memory ~model:Io_model.free ~page_size () in
    let pool = Buffer_pool.create ~disk:d ~bytes:(pool_pages * page_size) () in
    Segment.create pool
  in
  [
    Alcotest.test_case "fresh segment has page 0" `Quick (fun () ->
        let seg = make_segment () in
        Alcotest.(check int) "one page" 1 (Segment.page_count seg);
        Alcotest.(check bool) "page 0 formatted" true (Segment.free_bytes seg 0 > 0));
    Alcotest.test_case "find_space allocates when needed" `Quick (fun () ->
        let seg = make_segment () in
        let p = Segment.find_space seg 100 in
        Alcotest.(check bool) "page exists" true (p < Segment.page_count seg));
    Alcotest.test_case "find_space prefers the near page" `Quick (fun () ->
        let seg = make_segment () in
        let p1 = Segment.alloc_page seg in
        let chosen = Segment.find_space seg ~near:p1 50 in
        Alcotest.(check int) "near wins" p1 chosen);
    Alcotest.test_case "reopen rebuilds the inventory" `Quick (fun () ->
        let d = Disk.in_memory ~model:Io_model.free ~page_size:256 () in
        let pool = Buffer_pool.create ~disk:d ~bytes:2048 () in
        let seg = Segment.create pool in
        Segment.with_page_mut seg 0 (fun b ->
            ignore (Slotted_page.insert b (String.make 100 'x') Slotted_page.no_flags));
        Buffer_pool.clear pool;
        let pool2 = Buffer_pool.create ~disk:d ~bytes:2048 () in
        let seg2 = Segment.create pool2 in
        Alcotest.(check int) "inventory matches page state"
          (Segment.free_bytes seg 0) (Segment.free_bytes seg2 0));
  ]

let record_manager_tests =
  let make ?(page_size = 256) ?(pool_pages = 8) () =
    let d = Disk.in_memory ~model:Io_model.free ~page_size () in
    let pool = Buffer_pool.create ~disk:d ~bytes:(pool_pages * page_size) () in
    Record_manager.create (Segment.create pool)
  in
  [
    Alcotest.test_case "insert/read roundtrip" `Quick (fun () ->
        let rm = make () in
        let rid = Record_manager.insert rm "payload" in
        Alcotest.(check string) "read back" "payload" (Record_manager.read rm rid);
        Alcotest.(check int) "length" 7 (Record_manager.length rm rid));
    Alcotest.test_case "update in place" `Quick (fun () ->
        let rm = make () in
        let rid = Record_manager.insert rm "short" in
        Record_manager.update_string rm rid "a slightly longer payload";
        Alcotest.(check string) "new content" "a slightly longer payload"
          (Record_manager.read rm rid);
        Alcotest.(check bool) "not forwarded" false (Record_manager.is_forwarded rm rid));
    Alcotest.test_case "update moves and forwards when the page fills" `Quick (fun () ->
        let rm = make ~page_size:256 () in
        (* Fill one page with several records, then grow one beyond what the
           page can hold. *)
        let r0 = Record_manager.insert rm (String.make 60 'a') in
        let fillers = List.init 3 (fun _ -> Record_manager.insert rm (String.make 50 'f')) in
        let same_page = List.for_all (fun r -> Rid.page r = Rid.page r0) fillers in
        Alcotest.(check bool) "setup: records share a page" true same_page;
        Record_manager.update_string rm r0 (String.make 150 'A');
        Alcotest.(check bool) "forwarded" true (Record_manager.is_forwarded rm r0);
        Alcotest.(check string) "content via old rid" (String.make 150 'A')
          (Record_manager.read rm r0);
        Alcotest.(check bool) "lives elsewhere" true (Record_manager.home_page rm r0 <> Rid.page r0));
    Alcotest.test_case "forwarding collapses when shrinking back" `Quick (fun () ->
        let rm = make ~page_size:256 () in
        let r0 = Record_manager.insert rm (String.make 60 'a') in
        let _fill = List.init 3 (fun _ -> Record_manager.insert rm (String.make 50 'f')) in
        Record_manager.update_string rm r0 (String.make 150 'A');
        Alcotest.(check bool) "forwarded" true (Record_manager.is_forwarded rm r0);
        (* Grow even further so the moved body must relocate; it should
           first try to fall back home where only the tombstone sits. *)
        Record_manager.update_string rm r0 (String.make 20 'b');
        Alcotest.(check string) "content" (String.make 20 'b') (Record_manager.read rm r0));
    Alcotest.test_case "a fill sees the old image, in place and when the record moves" `Quick
      (fun () ->
        let rm = make ~page_size:256 () in
        let r0 = Record_manager.insert rm (String.make 60 'a') in
        let _fill = List.init 3 (fun _ -> Record_manager.insert rm (String.make 40 'f')) in
        let append n =
          Record_manager.update rm r0 ~len:(Record_manager.length rm r0 + n)
            (fun ~old ~old_len dst off ->
              Bytes.blit old 0 dst off old_len;
              Bytes.fill dst (off + old_len) n 'b')
        in
        append 10;
        Alcotest.(check bool) "grown at home" false (Record_manager.is_forwarded rm r0);
        append 80;
        Alcotest.(check bool) "moved out" true (Record_manager.is_forwarded rm r0);
        append 5;
        Alcotest.(check string) "content" (String.make 60 'a' ^ String.make 95 'b')
          (Record_manager.read rm r0));
    Alcotest.test_case "delete removes forwarded bodies too" `Quick (fun () ->
        let rm = make ~page_size:256 () in
        let r0 = Record_manager.insert rm (String.make 60 'a') in
        let _fill = List.init 3 (fun _ -> Record_manager.insert rm (String.make 50 'f')) in
        Record_manager.update_string rm r0 (String.make 150 'A');
        let body_page = Record_manager.home_page rm r0 in
        Record_manager.delete rm r0;
        Alcotest.(check bool) "gone" false (Record_manager.exists rm r0);
        (* The whole body page must be empty again. *)
        let seg = Record_manager.segment rm in
        Segment.with_page seg body_page (fun b ->
            Alcotest.(check int) "body page empty" 0 (Slotted_page.live_count b)));
    Alcotest.test_case "record too large is rejected" `Quick (fun () ->
        let rm = make ~page_size:256 () in
        Alcotest.check_raises "too large" (Record_manager.Record_too_large 1000) (fun () ->
            ignore (Record_manager.insert rm (String.make 1000 'x'))));
    Alcotest.test_case "near placement clusters records" `Quick (fun () ->
        let rm = make ~page_size:256 ~pool_pages:16 () in
        let r0 = Record_manager.insert rm (String.make 40 'p') in
        let child = Record_manager.insert rm ~near:(Rid.page r0) (String.make 40 'c') in
        Alcotest.(check int) "same page" (Rid.page r0) (Rid.page child));
    qtest ~count:100 "random workload matches a reference model"
      QCheck2.Gen.(list_size (int_bound 200) (pair (int_bound 3) (int_range 8 120)))
      (fun ops ->
        let rm = make ~page_size:512 ~pool_pages:64 () in
        let reference : (Rid.t, string) Hashtbl.t = Hashtbl.create 64 in
        let rids = ref [] in
        List.iteri
          (fun i (kind, len) ->
            let payload = String.init len (fun j -> Char.chr (33 + ((i + j) mod 90))) in
            match kind with
            | 0 | 1 ->
              let rid = Record_manager.insert rm payload in
              Hashtbl.replace reference rid payload;
              rids := rid :: !rids
            | 2 -> (
              match !rids with
              | [] -> ()
              | rid :: _ ->
                Record_manager.update_string rm rid payload;
                Hashtbl.replace reference rid payload)
            | _ -> (
              match !rids with
              | [] -> ()
              | rid :: rest ->
                Record_manager.delete rm rid;
                Hashtbl.remove reference rid;
                rids := rest))
          ops;
        Hashtbl.fold
          (fun rid payload ok -> ok && Record_manager.read rm rid = payload)
          reference true);
  ]

let suites =
  [
    ("util.bytes", bytes_util_tests);
    ("util.rid", rid_tests);
    ("util.name_pool", name_pool_tests);
    ("util.prng", prng_tests);
    ("store.io_model", io_model_tests);
    ("store.disk", disk_tests);
    ("store.buffer_pool", pool_tests);
    ("store.slotted_page", slotted_page_tests);
    ("store.fsi", fsi_tests);
    ("store.segment", segment_tests);
    ("store.record_manager", record_manager_tests);
  ]

(* Regression: a tombstone (8 bytes) must be placeable even when the
   record being moved was smaller than 8 bytes on a completely full page
   (every record owns at least a tombstone's extent). *)
let tombstone_tests =
  let make ?(page_size = 128) () =
    let d = Disk.in_memory ~model:Io_model.free ~page_size () in
    let pool = Buffer_pool.create ~disk:d ~bytes:(16 * page_size) () in
    Record_manager.create (Segment.create pool)
  in
  [
    Alcotest.test_case "tiny record grows off a full page" `Quick (fun () ->
        let rm = make () in
        (* Fill one page: one tiny record among larger ones, zero slack. *)
        let tiny = Record_manager.insert rm "abc" in
        let fillers = ref [] in
        (try
           while true do
             let r = Record_manager.insert rm ~near:(Rid.page tiny) (String.make 20 'f') in
             if Rid.page r <> Rid.page tiny then raise Exit;
             fillers := r :: !fillers
           done
         with Exit -> ());
        (* Consume the remaining slack in place. *)
        let seg = Record_manager.segment rm in
        let free = Natix_store.Segment.free_bytes seg (Rid.page tiny) in
        (match !fillers with
        | f :: _ when free > 0 -> Record_manager.update_string rm f (String.make (20 + free) 'F')
        | _ -> ());
        (* Now grow the tiny record beyond the page. *)
        Record_manager.update_string rm tiny (String.make 60 'T');
        Alcotest.(check string) "content" (String.make 60 'T') (Record_manager.read rm tiny);
        List.iter
          (fun r ->
            let body = Record_manager.read rm r in
            Alcotest.(check bool) "filler intact" true
              (String.length body >= 20 && body.[0] = 'f' || body.[0] = 'F'))
          !fillers);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"blob-style churn with tiny records"
         QCheck2.Gen.(list_size (int_bound 150) (pair (int_bound 3) (int_range 1 60)))
         (fun ops ->
           let rm = make ~page_size:128 () in
           let reference : (Rid.t, string) Hashtbl.t = Hashtbl.create 32 in
           let rids = ref [] in
           List.iteri
             (fun i (kind, len) ->
               let payload = String.make len (Char.chr (97 + (i mod 26))) in
               match (kind, !rids) with
               | 0, _ | _, [] ->
                 let rid = Record_manager.insert rm payload in
                 Hashtbl.replace reference rid payload;
                 rids := rid :: !rids
               | 1, rid :: _ | 2, rid :: _ ->
                 Record_manager.update_string rm rid payload;
                 Hashtbl.replace reference rid payload
               | _, rid :: rest ->
                 Record_manager.delete rm rid;
                 Hashtbl.remove reference rid;
                 rids := rest)
             ops;
           Hashtbl.fold (fun rid body ok -> ok && Record_manager.read rm rid = body) reference true));
  ]

let suites = suites @ [ ("store.tombstone", tombstone_tests) ]

(* ------------------------------------------------------------------ *)
(* Checksums (page trailers, WAL entries)                              *)

(* Byte-at-a-time CRC-32, the reference the sliced implementation must
   equal on every input. *)
let crc32_reference ?(init = 0) buf ~off ~len =
  let crc = ref (init lxor 0xffffffff) in
  for i = off to off + len - 1 do
    let c = ref ((!crc lxor Char.code (Bytes.get buf i)) land 0xff) in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    crc := !c lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let checksum_tests =
  [
    qtest ~count:500 "sliced equals byte-at-a-time at any offset and length"
      QCheck2.Gen.(
        triple (string_size (int_bound 300)) (pair nat nat) (int_bound 0xffffffff))
      (fun (s, (a, b), init) ->
        let buf = Bytes.of_string s in
        let n = Bytes.length buf in
        let off = a mod (n + 1) in
        let len = b mod (n - off + 1) in
        Checksum.crc32 buf ~off ~len = crc32_reference buf ~off ~len
        && Checksum.crc32 ~init buf ~off ~len = crc32_reference ~init buf ~off ~len);
    Alcotest.test_case "known test vector" `Quick (fun () ->
        (* The canonical CRC-32 check value. *)
        Alcotest.(check int) "123456789" 0xcbf43926 (Checksum.crc32_string "123456789"));
    Alcotest.test_case "empty input" `Quick (fun () ->
        Alcotest.(check int) "empty" 0 (Checksum.crc32_string ""));
    qtest "chaining equals concatenation"
      QCheck2.Gen.(pair (string_size (int_bound 64)) (string_size (int_bound 64)))
      (fun (a, b) ->
        Checksum.crc32_string ~init:(Checksum.crc32_string a) b = Checksum.crc32_string (a ^ b));
    qtest "every byte matters"
      QCheck2.Gen.(pair (string_size ~gen:printable (int_range 1 64)) (int_bound 1000))
      (fun (s, i) ->
        let i = i mod String.length s in
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
        Checksum.crc32_string (Bytes.to_string b) <> Checksum.crc32_string s);
  ]

let suites = suites @ [ ("store.checksum", checksum_tests) ]

(* ------------------------------------------------------------------ *)
(* Fault injection and read retries                                    *)

let fault_tests =
  [
    Alcotest.test_case "armed crash fires and the plan stays dead" `Quick (fun () ->
        let plan = Faulty_disk.create ~seed:7L () in
        let d = Disk.in_memory ~page_size:256 () in
        Disk.set_faults d (Some plan);
        let p = Disk.allocate d in
        let ps = Disk.payload_size d in
        Disk.write d p (Bytes.make ps 'A');
        Faulty_disk.arm_crash ~torn:false plan 0;
        (match Disk.write d p (Bytes.make ps 'B') with
        | exception Faulty_disk.Crash -> ()
        | () -> Alcotest.fail "expected Crash");
        Alcotest.(check bool) "crashed" true (Faulty_disk.crashed plan);
        (* Post-mortem: writes keep being dropped, reads fail. *)
        (match Disk.write d p (Bytes.make ps 'C') with
        | exception Faulty_disk.Crash -> ()
        | () -> Alcotest.fail "expected Crash on post-mortem write");
        (match Disk.read d p (Bytes.create ps) with
        | exception Faulty_disk.Read_error _ -> ()
        | () -> Alcotest.fail "expected Read_error on post-mortem read");
        (* The lost write must not have reached the platters. *)
        Disk.set_faults d None;
        let r = Bytes.create ps in
        Disk.read d p r;
        Alcotest.(check bytes) "lost write dropped" (Bytes.make ps 'A') r);
    Alcotest.test_case "crash on a file write never persists the new image" `Quick (fun () ->
        (* Whether the final write tears (checksum-invalid page) or is lost
           (old content intact), the new image must never be readable. *)
        let check_seed seed =
          let path = Filename.temp_file "natix_fault" ".db" in
          let plan = Faulty_disk.create ~seed () in
          let d = Disk.on_file ~page_size:256 path in
          let ps = Disk.payload_size d in
          Disk.set_faults d (Some plan);
          let p = Disk.allocate d in
          Disk.write d p (Bytes.make ps 'A');
          Faulty_disk.arm_crash plan 0;
          (match Disk.write d p (Bytes.make ps 'B') with
          | exception Faulty_disk.Crash -> ()
          | () -> Alcotest.fail "expected Crash");
          Disk.close d;
          let d2 = Disk.on_file ~page_size:256 path in
          (match Disk.read d2 p (Bytes.create ps) with
          | exception Disk.Bad_page _ -> () (* torn: trailer no longer matches *)
          | () -> (
            let r = Bytes.create ps in
            Disk.read d2 p r;
            Alcotest.(check bytes) "lost write left old content" (Bytes.make ps 'A') r));
          Disk.close d2;
          Sys.remove path
        in
        List.iter (fun s -> check_seed (Int64.of_int s)) [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
    Alcotest.test_case "transient read errors are retried by the pool" `Quick (fun () ->
        let plan = Faulty_disk.create ~seed:3L () in
        let d = Disk.in_memory ~page_size:256 () in
        Disk.set_faults d (Some plan);
        let pool = Buffer_pool.create ~disk:d ~bytes:(4 * 256) () in
        let p = Disk.allocate d in
        Disk.write d p (Bytes.make (Disk.payload_size d) 'x');
        Faulty_disk.fail_next_reads plan 2;
        Buffer_pool.with_page pool p (fun f ->
            Alcotest.(check char) "content after retries" 'x' (Bytes.get f.Buffer_pool.data 0));
        Alcotest.(check bool) "extra read attempts" true (Faulty_disk.reads_seen plan >= 3));
    Alcotest.test_case "read errors beyond the retry budget escape" `Quick (fun () ->
        let plan = Faulty_disk.create ~seed:3L () in
        let d = Disk.in_memory ~page_size:256 () in
        Disk.set_faults d (Some plan);
        let pool = Buffer_pool.create ~disk:d ~bytes:(4 * 256) () in
        let p = Disk.allocate d and q = Disk.allocate d in
        (* Every pool retries a failing read 3 times: 3 failures are
           absorbed, a 4th escapes. *)
        Faulty_disk.fail_next_reads plan 3;
        Buffer_pool.with_page pool p (fun _ -> ());
        Alcotest.(check int) "read attempts" 4 (Faulty_disk.reads_seen plan);
        Faulty_disk.fail_next_reads plan 4;
        (match Buffer_pool.with_page pool q (fun _ -> ()) with
        | exception Faulty_disk.Read_error _ -> ()
        | () -> Alcotest.fail "expected Read_error");
        Alcotest.(check int) "read attempts" 8 (Faulty_disk.reads_seen plan);
        Faulty_disk.disarm plan;
        (* The half-made frame must not linger: the next fix succeeds. *)
        Buffer_pool.with_page pool q (fun _ -> ()));
  ]

let suites = suites @ [ ("store.faults", fault_tests) ]

(* ------------------------------------------------------------------ *)
(* File-backed disk lifecycle                                          *)

let lifecycle_tests =
  [
    Alcotest.test_case "create, write, close, reopen, read" `Quick (fun () ->
        let path = Filename.temp_file "natix_life" ".db" in
        let d = Disk.on_file ~page_size:256 path in
        let ps = Disk.payload_size d in
        let p0 = Disk.allocate d and p1 = Disk.allocate d in
        Disk.write d p0 (Bytes.make ps 'a');
        Disk.write d p1 (Bytes.make ps 'b');
        Disk.close d;
        let d2 = Disk.on_file ~page_size:256 path in
        Alcotest.(check int) "page count" 2 (Disk.page_count d2);
        List.iter
          (fun p -> Alcotest.(check (result unit string)) "verify" (Ok ()) (Disk.verify d2 p))
          [ p0; p1 ];
        let r = Bytes.create ps in
        Disk.read d2 p1 r;
        Alcotest.(check bytes) "content" (Bytes.make ps 'b') r;
        Disk.close d2;
        Sys.remove path);
    Alcotest.test_case "detect_page_size is total" `Quick (fun () ->
        let path = Filename.temp_file "natix_life" ".db" in
        let d = Disk.on_file ~page_size:256 path in
        Disk.close d;
        Alcotest.(check (option int)) "valid file" (Some 256) (Disk.detect_page_size path);
        let oc = open_out path in
        output_string oc "not a natix file";
        close_out oc;
        Alcotest.(check (option int)) "bad magic" None (Disk.detect_page_size path);
        Sys.remove path;
        Alcotest.(check (option int)) "missing file" None (Disk.detect_page_size path));
    Alcotest.test_case "reopen after truncation mid-page" `Quick (fun () ->
        let path = Filename.temp_file "natix_life" ".db" in
        let d = Disk.on_file ~page_size:256 path in
        let ps = Disk.payload_size d in
        let p0 = Disk.allocate d and p1 = Disk.allocate d in
        Disk.write d p0 (Bytes.make ps 'a');
        Disk.write d p1 (Bytes.make ps 'b');
        Disk.close d;
        (* Cut the file in the middle of the last page. *)
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
        Unix.ftruncate fd ((3 * 256) - 128);
        Unix.close fd;
        let d2 = Disk.on_file ~page_size:256 path in
        Alcotest.(check int) "superblock still counts both pages" 2 (Disk.page_count d2);
        Alcotest.(check (result unit string)) "intact page verifies" (Ok ()) (Disk.verify d2 p0);
        Alcotest.(check bool) "truncated page fails verification" true
          (Result.is_error (Disk.verify d2 p1));
        (match Disk.read d2 p1 (Bytes.create ps) with
        | exception Disk.Bad_page { page; _ } -> Alcotest.(check int) "page id" p1 page
        | () -> Alcotest.fail "expected Bad_page");
        Disk.close d2;
        Sys.remove path);
  ]

let suites = suites @ [ ("store.lifecycle", lifecycle_tests) ]

(* ------------------------------------------------------------------ *)
(* Write-ahead log and recovery                                        *)

let wal_tests =
  let with_store_file f =
    let path = Filename.temp_file "natix_wal" ".db" in
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists path then Sys.remove path;
        let w = Recovery.wal_path path in
        if Sys.file_exists w then Sys.remove w)
      (fun () -> f path)
  in
  (* An uncommitted transaction's update of page [p], forced and then
     stolen: the page goes home before the commit that never comes. *)
  let steal wal d p ~before ~after =
    let b = Wal.log_begin wal ~txn:1 ~base:(Disk.page_count d) in
    let lsn = Wal.log_update wal ~txn:1 ~prev_lsn:b ~page:p ~before ~after in
    Wal.fsync wal;
    Disk.write ~lsn d p after;
    lsn
  in
  [
    Alcotest.test_case "uncommitted steal rolls back to pre-image" `Quick (fun () ->
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p = Disk.allocate d in
            Disk.write d p (Bytes.make ps 'A');
            let wal = Wal.create ~page_size:(Disk.page_size d) (Recovery.wal_path path) in
            let lsn = steal wal d p ~before:(Bytes.make ps 'A') ~after:(Bytes.make ps 'B') in
            Alcotest.(check bool) "record has an LSN" true (lsn > 0);
            Wal.close wal;
            Disk.close d;
            let d2 = Disk.on_file ~page_size:256 path in
            let rep = Recovery.run d2 in
            Alcotest.(check bool) "ran" true rep.Recovery.ran;
            Alcotest.(check int) "one page undone" 1 rep.Recovery.undone;
            Alcotest.(check int) "one loser" 1 rep.Recovery.losers;
            let r = Bytes.create ps in
            Disk.read d2 p r;
            Alcotest.(check bytes) "pre-image restored" (Bytes.make ps 'A') r;
            Disk.close d2));
    Alcotest.test_case "checkpointed commits are preserved" `Quick (fun () ->
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p = Disk.allocate d in
            Disk.write d p (Bytes.make ps 'A');
            let wal = Wal.create ~page_size:(Disk.page_size d) (Recovery.wal_path path) in
            let b = Wal.log_begin wal ~txn:1 ~base:(Disk.page_count d) in
            let u =
              Wal.log_update wal ~txn:1 ~prev_lsn:b ~page:p ~before:(Bytes.make ps 'A')
                ~after:(Bytes.make ps 'B')
            in
            ignore (Wal.log_commit wal ~txn:1 ~prev_lsn:u ~page_count:(Disk.page_count d));
            Wal.fsync wal;
            Disk.write ~lsn:u d p (Bytes.make ps 'B');
            Wal.checkpoint wal;
            Alcotest.(check int) "log truncated to its header" Wal.header_size
              (Unix.stat (Recovery.wal_path path)).Unix.st_size;
            Wal.close wal;
            Disk.close d;
            let d2 = Disk.on_file ~page_size:256 path in
            let rep = Recovery.run d2 in
            Alcotest.(check int) "nothing undone" 0 rep.Recovery.undone;
            Alcotest.(check bool) "clean" true rep.Recovery.clean;
            let r = Bytes.create ps in
            Disk.read d2 p r;
            Alcotest.(check bytes) "committed content kept" (Bytes.make ps 'B') r;
            Disk.close d2));
    Alcotest.test_case "committed transaction is redone (no-force)" `Quick (fun () ->
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p = Disk.allocate d in
            Disk.write d p (Bytes.make ps 'A');
            let wal =
              Wal.create ~first_lsn:10 ~page_size:(Disk.page_size d) (Recovery.wal_path path)
            in
            let before = Bytes.create ps in
            Disk.read d p before;
            let after = Bytes.make ps 'B' in
            let b = Wal.log_begin wal ~txn:1 ~base:(Disk.page_count d) in
            let u = Wal.log_update wal ~txn:1 ~prev_lsn:b ~page:p ~before ~after in
            let _ = Wal.log_commit wal ~txn:1 ~prev_lsn:u ~page_count:(Disk.page_count d) in
            Wal.fsync wal;
            (* Crash before the data page ever reaches disk: the page still
               holds 'A'; redo must replay the committed after-image. *)
            Wal.close wal;
            Disk.close d;
            let d2 = Disk.on_file ~page_size:256 path in
            let rep = Recovery.run d2 in
            Alcotest.(check int) "one page redone" 1 rep.Recovery.redone;
            Alcotest.(check int) "no losers" 0 rep.Recovery.losers;
            let r = Bytes.create ps in
            Disk.read d2 p r;
            Alcotest.(check bytes) "after-image replayed" (Bytes.make ps 'B') r;
            Disk.close d2));
    Alcotest.test_case "loser transaction is undone along its chain" `Quick (fun () ->
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p = Disk.allocate d in
            let q = Disk.allocate d in
            Disk.write d p (Bytes.make ps 'A');
            Disk.write d q (Bytes.make ps 'C');
            let wal =
              Wal.create ~first_lsn:10 ~page_size:(Disk.page_size d) (Recovery.wal_path path)
            in
            let img c = Bytes.make ps c in
            let b = Wal.log_begin wal ~txn:7 ~base:(Disk.page_count d) in
            let u1 =
              Wal.log_update wal ~txn:7 ~prev_lsn:b ~page:p ~before:(img 'A') ~after:(img 'B')
            in
            let u2 =
              Wal.log_update wal ~txn:7 ~prev_lsn:u1 ~page:q ~before:(img 'C') ~after:(img 'D')
            in
            Wal.fsync wal;
            (* Steal both dirty pages, then crash before commit. *)
            Disk.write ~lsn:u1 d p (img 'B');
            Disk.write ~lsn:u2 d q (img 'D');
            Wal.close wal;
            Disk.close d;
            let d2 = Disk.on_file ~page_size:256 path in
            let rep = Recovery.run d2 in
            Alcotest.(check int) "both pages undone" 2 rep.Recovery.undone;
            Alcotest.(check int) "one loser" 1 rep.Recovery.losers;
            let r = Bytes.create ps in
            Disk.read d2 p r;
            Alcotest.(check bytes) "first pre-image restored" (img 'A') r;
            Disk.read d2 q r;
            Alcotest.(check bytes) "second pre-image restored" (img 'C') r;
            Disk.close d2));
    Alcotest.test_case "uncommitted allocations are truncated" `Quick (fun () ->
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p0 = Disk.allocate d in
            Disk.write d p0 (Bytes.make ps 'A');
            let wal = Wal.create ~page_size:(Disk.page_size d) (Recovery.wal_path path) in
            (* The transaction begins at one page and allocates a second. *)
            let b = Wal.log_begin wal ~txn:1 ~base:(Disk.page_count d) in
            let p1 = Disk.allocate d in
            let u =
              Wal.log_update wal ~txn:1 ~prev_lsn:b ~page:p1 ~before:(Bytes.make ps '\000')
                ~after:(Bytes.make ps 'N')
            in
            Wal.fsync wal;
            Disk.write ~lsn:u d p1 (Bytes.make ps 'N');
            Wal.close wal;
            Disk.close d;
            let d2 = Disk.on_file ~page_size:256 path in
            let rep = Recovery.run d2 in
            Alcotest.(check int) "allocation rolled back" 1 rep.Recovery.page_count;
            Alcotest.(check int) "disk shrank" 1 (Disk.page_count d2);
            Disk.close d2));
    Alcotest.test_case "torn log tail is discarded" `Quick (fun () ->
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p = Disk.allocate d in
            Disk.write d p (Bytes.make ps 'A');
            let wal = Wal.create ~page_size:(Disk.page_size d) (Recovery.wal_path path) in
            ignore (steal wal d p ~before:(Bytes.make ps 'A') ~after:(Bytes.make ps 'B'));
            Wal.close wal;
            Disk.close d;
            (* A crash mid-append leaves a partial entry at the tail. *)
            let fd = Unix.openfile (Recovery.wal_path path) [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
            ignore (Unix.write_substring fd "torn tail" 0 9);
            Unix.close fd;
            let d2 = Disk.on_file ~page_size:256 path in
            let rep = Recovery.run d2 in
            Alcotest.(check bool) "torn bytes reported" true (rep.Recovery.torn_bytes > 0);
            Alcotest.(check int) "valid prefix still undone" 1 rep.Recovery.undone;
            let r = Bytes.create ps in
            Disk.read d2 p r;
            Alcotest.(check bytes) "pre-image restored" (Bytes.make ps 'A') r;
            Disk.close d2));
    Alcotest.test_case "recovery is idempotent and resets the log" `Quick (fun () ->
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p = Disk.allocate d in
            Disk.write d p (Bytes.make ps 'A');
            let wal = Wal.create ~page_size:(Disk.page_size d) (Recovery.wal_path path) in
            ignore (steal wal d p ~before:(Bytes.make ps 'A') ~after:(Bytes.make ps 'B'));
            Wal.close wal;
            Disk.close d;
            let d2 = Disk.on_file ~page_size:256 path in
            let rep1 = Recovery.run d2 in
            Alcotest.(check int) "first pass undoes" 1 rep1.Recovery.undone;
            let rep2 = Recovery.run d2 in
            Alcotest.(check int) "second pass is a no-op" 0 rep2.Recovery.undone;
            let r = Bytes.create ps in
            Disk.read d2 p r;
            Alcotest.(check bytes) "pre-image survives the second pass" (Bytes.make ps 'A') r;
            Disk.close d2));
    Alcotest.test_case "wal counters track appended bytes" `Quick (fun () ->
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let p = Disk.allocate d in
            let wal = Wal.create ~page_size:(Disk.page_size d) (Recovery.wal_path path) in
            Disk.write d p (Bytes.make ps 'A');
            let b = Wal.log_begin wal ~txn:1 ~base:(Disk.page_count d) in
            let lsn =
              Wal.log_update wal ~txn:1 ~prev_lsn:b ~page:p ~before:(Bytes.make ps 'A')
                ~after:(Bytes.make ps 'B')
            in
            Alcotest.(check int) "begin + one update" 2 (Wal.appends wal);
            Alcotest.(check bool) "bytes include both page images" true
              (Wal.bytes_logged wal > Disk.page_size d);
            (* Records stay pending until the caller forces the log. *)
            Alcotest.(check int) "no flush so far" 0 (Wal.flushes wal);
            Alcotest.(check int) "both records pending" 2 (Wal.pending_records wal);
            Alcotest.(check bool) "update not yet durable" true (Wal.durable_lsn wal < lsn);
            Wal.fsync wal;
            Alcotest.(check int) "one flush" 1 (Wal.flushes wal);
            Alcotest.(check int) "both records durable" 2 (Wal.flushed_records wal);
            Alcotest.(check int) "nothing pending" 0 (Wal.pending_records wal);
            Alcotest.(check int) "durable watermark at the update" lsn (Wal.durable_lsn wal);
            Wal.close wal;
            Disk.close d));
    (* A page its transaction already claimed is re-dirtied without the
       pool lock; a steal that evicts it must send the next write back
       through the locked path, or commit would not log it. *)
    Alcotest.test_case "a stolen page's next write is logged at commit" `Quick (fun () ->
        with_store_file (fun path ->
            let d = Disk.on_file ~page_size:256 path in
            let ps = Disk.payload_size d in
            let a = Disk.allocate d and b = Disk.allocate d and c = Disk.allocate d in
            let wal = Wal.create ~page_size:(Disk.page_size d) (Recovery.wal_path path) in
            let pool = Buffer_pool.create ~disk:d ~bytes:(2 * 256) ~wal () in
            let write f off ch =
              Buffer_pool.mark_dirty pool f;
              Bytes.set f.Buffer_pool.data off ch
            in
            Buffer_pool.txn_begin pool ~txn:1;
            Buffer_pool.with_page pool a (fun f ->
                write f 0 'x';
                write f 1 'w');
            (* Two other pages through a 2-frame pool: A is stolen. *)
            Buffer_pool.with_page pool b ignore;
            Buffer_pool.with_page pool c ignore;
            Alcotest.(check bool) "A evicted" false (Buffer_pool.is_resident pool a);
            let final =
              Buffer_pool.with_page pool a (fun f ->
                  write f 0 'y';
                  write f 2 'z';
                  Bytes.copy f.Buffer_pool.data)
            in
            ignore (Buffer_pool.txn_commit_prep pool : int);
            Wal.fsync wal;
            let log =
              In_channel.with_open_bin (Recovery.wal_path path) In_channel.input_all
              |> Bytes.of_string
            in
            let rec records off acc =
              match Wal.decode log ~off with
              | Some r -> records r.Wal.next (r :: acc)
              | None -> List.rev acc
            in
            let updates_of_a =
              List.filter
                (fun r -> r.Wal.kind = Wal.kind_update && r.Wal.arg = a)
                (records Wal.header_size [])
            in
            let after r = Bytes.sub r.Wal.payload ps ps in
            (match updates_of_a with
            | [ steal; commit ] ->
              Alcotest.(check string) "the steal logs the first writes" "xw\000"
                (Bytes.sub_string (after steal) 0 3);
              Alcotest.(check bytes) "commit logs the final image" final (after commit)
            | l -> Alcotest.failf "expected 2 update records for A, got %d" (List.length l));
            Wal.close wal;
            Disk.close d));
  ]

let suites = suites @ [ ("store.wal", wal_tests) ]
