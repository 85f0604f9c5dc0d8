open Mp_multiview

let page = 4096

let test_minipage_geometry () =
  let mp = Minipage.make ~id:0 ~view:2 ~offset:4000 ~length:200 in
  Alcotest.(check int) "first vpage" 0 (Minipage.first_vpage mp ~page_size:page);
  Alcotest.(check int) "last vpage" 1 (Minipage.last_vpage mp ~page_size:page);
  Alcotest.(check bool) "contains start" true (Minipage.contains mp 4000);
  Alcotest.(check bool) "contains last" true (Minipage.contains mp 4199);
  Alcotest.(check bool) "excludes end" false (Minipage.contains mp 4200);
  Alcotest.(check int) "end offset" 4200 (Minipage.end_offset mp)

let test_mpt_find () =
  let mpt = Mpt.create () in
  Mpt.add mpt (Minipage.make ~id:0 ~view:0 ~offset:0 ~length:100);
  Mpt.add mpt (Minipage.make ~id:1 ~view:1 ~offset:100 ~length:50);
  Mpt.add mpt (Minipage.make ~id:2 ~view:0 ~offset:8192 ~length:4096);
  let find off = Option.map (fun (mp : Minipage.t) -> mp.id) (Mpt.find mpt off) in
  Alcotest.(check (option int)) "first byte" (Some 0) (find 0);
  Alcotest.(check (option int)) "inside first" (Some 0) (find 99);
  Alcotest.(check (option int)) "second" (Some 1) (find 100);
  Alcotest.(check (option int)) "gap" None (find 200);
  Alcotest.(check (option int)) "big" (Some 2) (find 10000);
  Alcotest.(check int) "count" 3 (Mpt.count mpt);
  Alcotest.(check int) "bytes" (100 + 50 + 4096) (Mpt.total_bytes mpt)

let test_mpt_rejects_overlap () =
  let mpt = Mpt.create () in
  Mpt.add mpt (Minipage.make ~id:0 ~view:0 ~offset:50 ~length:100);
  let overlapping = Minipage.make ~id:1 ~view:1 ~offset:100 ~length:10 in
  Alcotest.(check bool) "overlap rejected" true
    (try
       Mpt.add mpt overlapping;
       false
     with Invalid_argument _ -> true);
  let containing = Minipage.make ~id:2 ~view:1 ~offset:0 ~length:60 in
  Alcotest.(check bool) "containing rejected" true
    (try
       Mpt.add mpt containing;
       false
     with Invalid_argument _ -> true)

(* A lookup bisects the table and allocates nothing. *)
let test_mpt_find_allocation () =
  let mpt = Mpt.create () in
  for i = 0 to 999 do
    Mpt.add mpt (Minipage.make ~id:i ~view:(i land 3) ~offset:(i * 128) ~length:128)
  done;
  let offset i = i * 7919 mod 128_000 in
  let found = ref 0 and expected = ref 0 in
  let words =
    Test_memsim.allocated_words (fun () ->
        for i = 0 to 9_999 do
          found := !found + (Mpt.find_exn mpt (offset i)).Minipage.id
        done)
  in
  for i = 0 to 9_999 do
    expected := !expected + (offset i / 128)
  done;
  Alcotest.(check int) "found" !expected !found;
  Alcotest.(check (float 0.0)) "words per 10,000 lookups" 0.0 words

(* Out-of-order adds keep the table sorted. *)
let test_mpt_out_of_order () =
  let mpt = Mpt.create () in
  List.iter
    (fun (id, offset) -> Mpt.add mpt (Minipage.make ~id ~view:0 ~offset ~length:10))
    [ (0, 100); (1, 0); (2, 50); (3, 200); (4, 20) ];
  let offsets = ref [] in
  Mpt.iter mpt (fun mp -> offsets := mp.Minipage.offset :: !offsets);
  Alcotest.(check (list int)) "offset order" [ 0; 20; 50; 100; 200 ] (List.rev !offsets);
  let find off = Option.map (fun (mp : Minipage.t) -> mp.id) (Mpt.find mpt off) in
  Alcotest.(check (list (option int))) "lookups"
    [ Some 1; None; Some 4; Some 2; Some 0; Some 3; None ]
    (List.map find [ 5; 15; 29; 55; 109; 205; 210 ]);
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Mpt.add: minipage#5[view=0 off=45 len=10] overlaps an existing minipage")
    (fun () -> Mpt.add mpt (Minipage.make ~id:5 ~view:0 ~offset:45 ~length:10))

let mk_alloc ?chunking ?(views = 32) ?(size = 64 * page) () =
  Allocator.create ?chunking ~page_size:page ~object_size:size ~views ()

let test_alloc_basic () =
  let a = mk_alloc () in
  let mp1, off1 = Allocator.malloc a 100 in
  let mp2, off2 = Allocator.malloc a 100 in
  Alcotest.(check int) "first at 0" 0 off1;
  Alcotest.(check int) "4-byte aligned" 100 off2;
  Alcotest.(check bool) "distinct minipages" true (mp1.Minipage.id <> mp2.Minipage.id);
  Alcotest.(check bool) "distinct views on same page" true
    (mp1.Minipage.view <> mp2.Minipage.view);
  Alcotest.(check int) "views used" 2 (Allocator.views_used a)

let test_alloc_same_view_on_different_pages () =
  let a = mk_alloc () in
  let mp1, _ = Allocator.malloc a page in
  (* second allocation starts on a fresh page: view 0 is free there *)
  let mp2, _ = Allocator.malloc a page in
  Alcotest.(check int) "view reused across pages" mp1.Minipage.view mp2.Minipage.view

let test_alloc_view_exhaustion () =
  let a = mk_alloc ~views:4 () in
  for _ = 1 to 4 do
    ignore (Allocator.malloc a 8)
  done;
  Alcotest.check_raises "fifth on same page" Allocator.Out_of_views (fun () ->
      ignore (Allocator.malloc a 8))

let test_alloc_out_of_memory () =
  let a = mk_alloc ~size:page () in
  ignore (Allocator.malloc a 4000);
  Alcotest.check_raises "oom" Allocator.Out_of_memory (fun () ->
      ignore (Allocator.malloc a 4000))

let test_alloc_large_spans_pages () =
  let a = mk_alloc () in
  (* 2.5 pages: covers pages 0-2, last one partially *)
  let mp, off = Allocator.malloc a (page * 5 / 2) in
  Alcotest.(check int) "offset" 0 off;
  Alcotest.(check int) "length" (page * 5 / 2) mp.Minipage.length;
  Alcotest.(check int) "covers 3 pages" 2 (Minipage.last_vpage mp ~page_size:page);
  (* a small allocation following it lands on its last page: distinct view *)
  let mp2, off2 = Allocator.malloc a 64 in
  Alcotest.(check int) "packs after large" (page * 5 / 2) off2;
  Alcotest.(check bool) "view conflict avoided" true
    (mp2.Minipage.view <> mp.Minipage.view)

let test_alloc_no_straddle () =
  let a = mk_alloc () in
  ignore (Allocator.malloc a 4000);
  (* 200 bytes don't fit in the 96 remaining: bumped to the next page *)
  let mp, off = Allocator.malloc a 200 in
  Alcotest.(check int) "next page" page off;
  Alcotest.(check int) "view 0 free there" 0 mp.Minipage.view

let test_chunking_aggregates () =
  let a = mk_alloc ~chunking:(Allocator.Fine 3) () in
  let mp1, _ = Allocator.malloc a 100 in
  let mp2, _ = Allocator.malloc a 100 in
  let mp3, _ = Allocator.malloc a 100 in
  let mp4, _ = Allocator.malloc a 100 in
  Alcotest.(check int) "1&2 same" mp1.Minipage.id mp2.Minipage.id;
  Alcotest.(check int) "1&3 same" mp1.Minipage.id mp3.Minipage.id;
  Alcotest.(check bool) "4 fresh" true (mp4.Minipage.id <> mp1.Minipage.id);
  Alcotest.(check bool) "chunk grew" true (mp1.Minipage.length >= 300);
  Alcotest.(check int) "mpt has 2" 2 (Mpt.count (Allocator.mpt a))

let test_chunking_reduces_views () =
  (* WATER-style: many equal allocations; chunk level k means ceil(per-page
     minipages) shrinks by ~k *)
  let alloc_with level =
    let a = mk_alloc ~chunking:(Allocator.Fine level) ~views:32 () in
    for _ = 1 to 64 do
      ignore (Allocator.malloc a 672)
    done;
    Allocator.views_used a
  in
  let v1 = alloc_with 1 and v4 = alloc_with 4 in
  Alcotest.(check bool) "chunking needs fewer views" true (v4 < v1);
  (* 672 bytes -> floor(4096/672) = 6 per page -> the paper's WATER row *)
  Alcotest.(check int) "water views" 6 v1

let test_table2_view_counts () =
  (* Table 2: sharing granularity -> number of views *)
  let views_for ~alloc_size ~count =
    let a =
      Allocator.create ~page_size:page ~object_size:(16 * 1024 * 1024) ~views:64 ()
    in
    for _ = 1 to count do
      ignore (Allocator.malloc a alloc_size)
    done;
    Allocator.views_used a
  in
  Alcotest.(check int) "SOR: 256B rows -> 16 views" 16 (views_for ~alloc_size:256 ~count:256);
  Alcotest.(check int) "IS: 8 x 256B regions -> 8 views" 8 (views_for ~alloc_size:256 ~count:8);
  Alcotest.(check int) "WATER: 672B molecules -> 6 views" 6 (views_for ~alloc_size:672 ~count:512);
  Alcotest.(check int) "LU: 4KB blocks -> 1 view" 1 (views_for ~alloc_size:4096 ~count:64);
  Alcotest.(check int) "TSP: 148B tours -> 27 views" 27 (views_for ~alloc_size:148 ~count:256)

let test_page_grain_layout () =
  let a = mk_alloc ~chunking:Allocator.Page_grain () in
  let mp1, off1 = Allocator.malloc a 100 in
  let mp2, off2 = Allocator.malloc a 100 in
  Alcotest.(check int) "same page minipage" mp1.Minipage.id mp2.Minipage.id;
  Alcotest.(check int) "page length" page mp1.Minipage.length;
  Alcotest.(check int) "view 0" 0 mp1.Minipage.view;
  Alcotest.(check bool) "offsets distinct" true (off1 <> off2);
  (* a multi-page allocation creates one minipage per covered page *)
  let _, _ = Allocator.malloc a (2 * page) in
  Alcotest.(check bool) "several page minipages" true (Mpt.count (Allocator.mpt a) >= 3)

let test_max_views_on_a_page () =
  let a = mk_alloc () in
  for _ = 1 to 5 do
    ignore (Allocator.malloc a 16)
  done;
  Alcotest.(check int) "5 views on page 0" 5
    (Mpt.max_views_on_a_page (Allocator.mpt a) ~page_size:page)

let test_static_layout () =
  let mpt = Layout.static ~page_size:page ~object_size:(2 * page) ~minipages_per_page:4 in
  Alcotest.(check int) "count" 8 (Mpt.count mpt);
  let mp = Mpt.find_exn mpt 1024 in
  Alcotest.(check int) "view" 1 mp.Minipage.view;
  Alcotest.(check int) "offset" 1024 mp.Minipage.offset;
  Alcotest.(check int) "length" 1024 mp.Minipage.length

let test_static_arith_agrees_with_table () =
  let mpt = Layout.static ~page_size:page ~object_size:(4 * page) ~minipages_per_page:8 in
  let check_off off =
    let view, mp_off, mp_len =
      Layout.static_minipage_of_offset ~page_size:page ~minipages_per_page:8 off
    in
    let mp = Mpt.find_exn mpt off in
    Alcotest.(check int) "view" mp.Minipage.view view;
    Alcotest.(check int) "offset" mp.Minipage.offset mp_off;
    Alcotest.(check int) "length" mp.Minipage.length mp_len
  in
  List.iter check_off [ 0; 511; 512; 4095; 4096; 10000; 16383 ]

let qcheck_allocator_invariants =
  QCheck.Test.make ~name:"allocator: same-page minipages never share a view" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 1 2000))
    (fun sizes ->
      let a =
        Allocator.create ~page_size:page ~object_size:(256 * page) ~views:64 ()
      in
      (try List.iter (fun size -> ignore (Allocator.malloc a size)) sizes
       with Allocator.Out_of_views -> ());
      (* gather (page, view) pairs of distinct minipages; no duplicates *)
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      Mpt.iter (Allocator.mpt a) (fun mp ->
          for p = Minipage.first_vpage mp ~page_size:page
              to Minipage.last_vpage mp ~page_size:page do
            if Hashtbl.mem seen (p, mp.Minipage.view) then ok := false
            else Hashtbl.add seen (p, mp.Minipage.view) mp.Minipage.id
          done);
      !ok)

let qcheck_allocations_disjoint =
  QCheck.Test.make ~name:"allocator: allocations are disjoint and inside minipages"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 1 2000))
    (fun sizes ->
      let a =
        Allocator.create ~chunking:(Allocator.Fine 3) ~page_size:page
          ~object_size:(256 * page) ~views:64 ()
      in
      let allocs = ref [] in
      (try
         List.iter
           (fun size ->
             let mp, off = Allocator.malloc a size in
             allocs := (off, size, mp) :: !allocs)
           sizes
       with Allocator.Out_of_views -> ());
      List.for_all
        (fun (off, size, (mp : Minipage.t)) ->
          Minipage.contains mp off
          && Minipage.contains mp (off + size - 1)
          && List.for_all
               (fun (off', size', _) ->
                 off == off' || off + size <= off' || off' + size' <= off)
               !allocs)
        !allocs)

let suite =
  [
    Alcotest.test_case "minipage geometry" `Quick test_minipage_geometry;
    Alcotest.test_case "mpt find" `Quick test_mpt_find;
    Alcotest.test_case "mpt rejects overlap" `Quick test_mpt_rejects_overlap;
    Alcotest.test_case "alloc basic" `Quick test_alloc_basic;
    Alcotest.test_case "alloc view reuse across pages" `Quick test_alloc_same_view_on_different_pages;
    Alcotest.test_case "alloc view exhaustion" `Quick test_alloc_view_exhaustion;
    Alcotest.test_case "alloc oom" `Quick test_alloc_out_of_memory;
    Alcotest.test_case "alloc large spans pages" `Quick test_alloc_large_spans_pages;
    Alcotest.test_case "alloc no straddle" `Quick test_alloc_no_straddle;
    Alcotest.test_case "table 2 view counts" `Quick test_table2_view_counts;
    Alcotest.test_case "chunking aggregates" `Quick test_chunking_aggregates;
    Alcotest.test_case "chunking reduces views" `Quick test_chunking_reduces_views;
    Alcotest.test_case "page grain layout" `Quick test_page_grain_layout;
    Alcotest.test_case "max views on a page" `Quick test_max_views_on_a_page;
    Alcotest.test_case "static layout" `Quick test_static_layout;
    Alcotest.test_case "static arithmetic" `Quick test_static_arith_agrees_with_table;
    Alcotest.test_case "mpt find allocation" `Quick test_mpt_find_allocation;
    Alcotest.test_case "mpt out-of-order adds" `Quick test_mpt_out_of_order;
    QCheck_alcotest.to_alcotest qcheck_allocator_invariants;
    QCheck_alcotest.to_alcotest qcheck_allocations_disjoint;
  ]
