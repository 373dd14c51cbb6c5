(* Tests for the disk-resident B+-tree index substrate. *)

open Natix_util
open Natix_store

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let make ?(page_size = 512) () =
  let disk = Disk.in_memory ~model:Io_model.free ~page_size () in
  let pool = Buffer_pool.create ~disk ~bytes:(128 * page_size) () in
  let rm = Record_manager.create (Segment.create pool) in
  (rm, Btree.create rm)

let v_of_int i =
  let b = Bytes.create 8 in
  Bytes_util.set_u48 b 0 i;
  Bytes_util.set_u16 b 6 0;
  Bytes.to_string b

let btree_tests =
  [
    Alcotest.test_case "empty tree finds nothing" `Quick (fun () ->
        let _, t = make () in
        Alcotest.(check (option string)) "absent" None (Btree.find t ~key:"x");
        Alcotest.(check int) "empty" 0 (Btree.cardinal t);
        Btree.check t);
    Alcotest.test_case "insert then find" `Quick (fun () ->
        let _, t = make () in
        Btree.insert t ~key:"hello" ~value:(v_of_int 1);
        Btree.insert t ~key:"world" ~value:(v_of_int 2);
        Alcotest.(check (option string)) "hello" (Some (v_of_int 1)) (Btree.find t ~key:"hello");
        Alcotest.(check (option string)) "world" (Some (v_of_int 2)) (Btree.find t ~key:"world");
        Alcotest.(check (option string)) "missing" None (Btree.find t ~key:"nope");
        Btree.check t);
    Alcotest.test_case "insert replaces existing bindings" `Quick (fun () ->
        let _, t = make () in
        Btree.insert t ~key:"k" ~value:(v_of_int 1);
        Btree.insert t ~key:"k" ~value:(v_of_int 2);
        Alcotest.(check (option string)) "replaced" (Some (v_of_int 2)) (Btree.find t ~key:"k");
        Alcotest.(check int) "one binding" 1 (Btree.cardinal t));
    Alcotest.test_case "many inserts split nodes; root RID stays stable" `Quick (fun () ->
        let _, t = make ~page_size:512 () in
        let root_before = Btree.root t in
        for i = 0 to 999 do
          Btree.insert t ~key:(Printf.sprintf "key-%04d" i) ~value:(v_of_int i)
        done;
        Alcotest.(check bool) "root unchanged" true (Rid.equal root_before (Btree.root t));
        Alcotest.(check bool) "tree grew" true (Btree.height t > 1);
        Alcotest.(check int) "cardinal" 1000 (Btree.cardinal t);
        for i = 0 to 999 do
          Alcotest.(check (option string))
            (Printf.sprintf "key %d" i)
            (Some (v_of_int i))
            (Btree.find t ~key:(Printf.sprintf "key-%04d" i))
        done;
        Btree.check t);
    Alcotest.test_case "iter yields keys in order" `Quick (fun () ->
        let _, t = make () in
        List.iter
          (fun k -> Btree.insert t ~key:k ~value:(v_of_int 0))
          [ "pear"; "apple"; "fig"; "cherry"; "banana" ];
        let keys = ref [] in
        Btree.iter t (fun k _ -> keys := k :: !keys);
        Alcotest.(check (list string)) "sorted"
          [ "apple"; "banana"; "cherry"; "fig"; "pear" ]
          (List.rev !keys));
    Alcotest.test_case "range scans respect bounds" `Quick (fun () ->
        let _, t = make () in
        for i = 0 to 99 do
          Btree.insert t ~key:(Printf.sprintf "%03d" i) ~value:(v_of_int i)
        done;
        let collect lo hi =
          let acc = ref [] in
          Btree.iter_range t ~lo ~hi (fun k _ -> acc := k :: !acc);
          List.rev !acc
        in
        Alcotest.(check int) "closed-open" 10 (List.length (collect (Some "020") (Some "030")));
        Alcotest.(check (list string)) "exact window" [ "020" ] (collect (Some "020") (Some "021"));
        Alcotest.(check int) "unbounded low" 20 (List.length (collect None (Some "020")));
        Alcotest.(check int) "unbounded high" 20 (List.length (collect (Some "080") None)));
    Alcotest.test_case "remove deletes bindings" `Quick (fun () ->
        let _, t = make () in
        for i = 0 to 199 do
          Btree.insert t ~key:(Printf.sprintf "%03d" i) ~value:(v_of_int i)
        done;
        for i = 0 to 199 do
          if i mod 2 = 0 then Btree.remove t ~key:(Printf.sprintf "%03d" i)
        done;
        Alcotest.(check int) "half left" 100 (Btree.cardinal t);
        Alcotest.(check (option string)) "odd stays" (Some (v_of_int 1)) (Btree.find t ~key:"001");
        Alcotest.(check (option string)) "even gone" None (Btree.find t ~key:"002");
        Btree.check t);
    Alcotest.test_case "oversized keys and bad values rejected" `Quick (fun () ->
        let _, t = make ~page_size:512 () in
        (match Btree.insert t ~key:(String.make 400 'k') ~value:(v_of_int 0) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected key rejection");
        match Btree.insert t ~key:"k" ~value:"short" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected value rejection");
    Alcotest.test_case "open_tree re-attaches to the same index" `Quick (fun () ->
        let rm, t = make () in
        Btree.insert t ~key:"persisted" ~value:(v_of_int 42);
        let t2 = Btree.open_tree rm (Btree.root t) in
        Alcotest.(check (option string)) "visible" (Some (v_of_int 42))
          (Btree.find t2 ~key:"persisted"));
    qtest ~count:60 "random operations match a Map reference"
      QCheck2.Gen.(
        list_size (int_bound 400)
          (pair (int_bound 3) (string_size ~gen:(char_range 'a' 'f') (int_range 1 6))))
      (fun ops ->
        let _, t = make ~page_size:512 () in
        let reference = Hashtbl.create 64 in
        List.iteri
          (fun i (kind, key) ->
            match kind with
            | 0 | 1 | 2 ->
              Btree.insert t ~key ~value:(v_of_int i);
              Hashtbl.replace reference key (v_of_int i)
            | _ ->
              Btree.remove t ~key;
              Hashtbl.remove reference key)
          ops;
        Btree.check t;
        Btree.cardinal t = Hashtbl.length reference
        && Hashtbl.fold (fun k v ok -> ok && Btree.find t ~key:k = Some v) reference true);
  ]

let suites = [ ("store.btree", btree_tests) ]

let range_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100 ~name:"random range scans match a reference"
         QCheck2.Gen.(
           triple
             (list_size (int_bound 300) (string_size ~gen:(char_range 'a' 'e') (int_range 1 5)))
             (option (string_size ~gen:(char_range 'a' 'f') (int_range 0 4)))
             (option (string_size ~gen:(char_range 'a' 'f') (int_range 0 4))))
         (fun (keys, lo, hi) ->
           let _, t = make ~page_size:512 () in
           let uniq = List.sort_uniq String.compare keys in
           List.iter (fun k -> Btree.insert t ~key:k ~value:(v_of_int 0)) uniq;
           let got = ref [] in
           Btree.iter_range t ~lo ~hi (fun k _ -> got := k :: !got);
           let expected =
             List.filter
               (fun k ->
                 (match lo with Some lo -> k >= lo | None -> true)
                 && match hi with Some hi -> k < hi | None -> true)
               uniq
           in
           List.rev !got = expected));
  ]

let suites = suites @ [ ("store.btree_ranges", range_property_tests) ]

(* ---- in-place searches against a decoded walk ---------------------- *)

(* Searches read node images in place.  The oracle here decodes each
   node's record (the layout documented in [Btree]) and replays the
   search over decoded nodes, counting the nodes it reads: each call must
   return the sorted-list model's answer and emit one [Btree_node] read
   event, and fix the same pages, per node that walk reads. *)

type ref_node =
  | R_leaf of Rid.t * (string * string) list
  | R_internal of Rid.t * (string * Rid.t) list

let decode_ref rm rid =
  let b = Bytes.of_string (Record_manager.read rm rid) in
  let pos = ref 3 in
  let take len =
    let s = Bytes.sub_string b !pos len in
    pos := !pos + len;
    s
  in
  let rid () = Rid.read (Bytes.unsafe_of_string (take Rid.encoded_size)) 0 in
  let key () =
    let len = Bytes_util.get_u16 b !pos in
    pos := !pos + 2;
    take len
  in
  let n = Bytes_util.get_u16 b 1 in
  let entries value = List.init n (fun _ -> let k = key () in (k, value ())) in
  match Bytes.get b 0 with
  | '\000' ->
    let next = rid () in
    R_leaf (next, entries (fun () -> take 8))
  | _ ->
    let child0 = rid () in
    R_internal (child0, entries rid)

(* The decoded walk: results and the number of nodes it reads.  It reads
   each node on its path once, the leaf included. *)
let ref_walk rm root =
  let reads = ref 0 in
  let read rid =
    incr reads;
    decode_ref rm rid
  in
  (* The leaf for [key] as its chain link and entries; [None] sorts
     below every separator, so it finds the leftmost leaf. *)
  let rec leaf_for key rid =
    match read rid with
    | R_leaf (next, entries) -> (next, entries)
    | R_internal (child0, entries) ->
      let rec pick prev = function
        | [] -> prev
        | (sep, c) :: rest -> if key < Some sep then prev else pick c rest
      in
      leaf_for key (pick child0 entries)
  in
  let find key = List.assoc_opt key (snd (leaf_for (Some key) root)) in
  let range lo hi =
    let rec walk (next, entries) acc =
      let acc = ref acc and stop = ref false in
      List.iter
        (fun (k, v) ->
          let above = match lo with Some lo -> k >= lo | None -> true in
          let below = match hi with Some hi -> k < hi | None -> true in
          if above && below then acc := (k, v) :: !acc else if not below then stop := true)
        entries;
      if !stop || Rid.is_null next then !acc
      else
        match read next with
        | R_internal _ -> assert false
        | R_leaf (next, entries) -> walk (next, entries) !acc
    in
    List.rev (walk (leaf_for lo root) [])
  in
  (reads, find, range)

(* Shared prefixes, NUL and 0xff bytes, the empty key, and keys that are
   prefixes of others. *)
let gen_key =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ '\000'; '\001'; 'a'; 'b'; '\xfe'; '\xff' ]) (int_range 0 7))

let gen_bound =
  QCheck2.Gen.(
    oneof
      [
        return None;
        map Option.some gen_key;
        map (fun k -> Some (k ^ "\000")) gen_key;
        map (fun k -> Some (k ^ "\xff")) gen_key;
      ])

let in_place_tests =
  [
    qtest ~count:40 "in-place find, mem and iter_range match a sorted list and the decoded walk"
      QCheck2.Gen.(
        triple
          (list_size (int_range 50 400) gen_key)
          (list_size (int_bound 20) gen_key)
          (list_size (int_bound 20) (pair gen_bound gen_bound)))
      (fun (keys, probes, ranges) ->
        let obs = Natix_obs.Obs.create () in
        let reads = ref 0 in
        Natix_obs.Obs.subscribe obs ~kinds:[ "btree_node" ] (fun ev ->
            match ev.Natix_obs.Event.kind with
            | Natix_obs.Event.Btree_node { op = Natix_obs.Event.Bt_read; _ } -> incr reads
            | _ -> ());
        let disk = Disk.in_memory ~model:Io_model.free ~obs ~page_size:512 () in
        let pool = Buffer_pool.create ~disk ~bytes:(128 * 512) () in
        let rm = Record_manager.create (Segment.create pool) in
        let t = Btree.create rm in
        (* Every key made distinct by its index, and the first half of
           each as a prefix; then every third one removed again, which
           leaves sparse and empty leaves. *)
        let all =
          List.concat
            (List.mapi
               (fun i k ->
                 let k = k ^ string_of_int i in
                 [ k; String.sub k 0 (String.length k / 2) ])
               keys)
        in
        List.iteri (fun i k -> Btree.insert t ~key:k ~value:(v_of_int i)) all;
        let removed = List.filteri (fun i _ -> i mod 3 = 0) (List.sort_uniq String.compare all) in
        List.iter (fun k -> Btree.remove t ~key:k) removed;
        let model =
          let last = Hashtbl.create 64 in
          List.iteri (fun i k -> Hashtbl.replace last k (v_of_int i)) all;
          List.iter (Hashtbl.remove last) removed;
          List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) last [])
        in
        let ok = ref (Btree.height t > 1) in
        (* One call: its answer against the model's, and its answer, read
           events and page fixes against the decoded walk's. *)
        let same call walk expected =
          let reads0 = !reads and fixes0 = Buffer_pool.fixes pool in
          let got = call () in
          let got_reads = !reads - reads0 and got_fixes = Buffer_pool.fixes pool - fixes0 in
          let walked, find, range = ref_walk rm (Btree.root t) in
          let fixes1 = Buffer_pool.fixes pool in
          let replayed = walk find range in
          got = expected && got = replayed && got_reads = !walked
          && got_fixes = Buffer_pool.fixes pool - fixes1
        in
        List.iter
          (fun k ->
            let expected = List.assoc_opt k model in
            ok :=
              !ok
              && same (fun () -> Btree.find t ~key:k) (fun find _ -> find k) expected
              && same
                   (fun () -> Btree.mem t ~key:k)
                   (fun find _ -> find k <> None)
                   (expected <> None))
          (probes @ List.filteri (fun i _ -> i mod 7 = 0) (List.map fst model));
        let scan lo hi () =
          let acc = ref [] in
          Btree.iter_range t ~lo ~hi (fun k v -> acc := (k, v) :: !acc);
          List.rev !acc
        in
        let model_range lo hi =
          List.filter
            (fun (k, _) ->
              (match lo with Some lo -> k >= lo | None -> true)
              && match hi with Some hi -> k < hi | None -> true)
            model
        in
        (* Generated ranges, plus an empty one, a one-key one and both
           open-ended ones around a stored key. *)
        let fixed =
          match model with
          | [] -> []
          | _ ->
            let k, _ = List.nth model (List.length model / 2) in
            [
              (Some k, Some k);
              (Some k, Some (k ^ "\000"));
              (Some k, None);
              (None, Some k);
              (None, None);
            ]
        in
        List.iter
          (fun (lo, hi) ->
            ok := !ok && same (scan lo hi) (fun _ range -> range lo hi) (model_range lo hi))
          (ranges @ fixed);
        !ok);
  ]

let suites = suites @ [ ("store.btree_in_place", in_place_tests) ]
