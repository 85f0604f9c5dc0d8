open Mp_memsim

let check_prot = Alcotest.testable Prot.pp Prot.equal

let test_prot_allows () =
  Alcotest.(check bool) "rw read" true (Prot.allows Read_write Read);
  Alcotest.(check bool) "rw write" true (Prot.allows Read_write Write);
  Alcotest.(check bool) "ro read" true (Prot.allows Read_only Read);
  Alcotest.(check bool) "ro write" false (Prot.allows Read_only Write);
  Alcotest.(check bool) "na read" false (Prot.allows No_access Read);
  Alcotest.(check bool) "na write" false (Prot.allows No_access Write)

let test_phys_mem_typed_roundtrip () =
  let m = Phys_mem.create 64 in
  Phys_mem.set_u8 m 0 0xAB;
  Alcotest.(check int) "u8" 0xAB (Phys_mem.get_u8 m 0);
  Phys_mem.set_i32 m 4 0xDEADBEEFl;
  Alcotest.(check int32) "i32" 0xDEADBEEFl (Phys_mem.get_i32 m 4);
  Phys_mem.set_i64 m 8 0x0123456789ABCDEFL;
  Alcotest.(check int64) "i64" 0x0123456789ABCDEFL (Phys_mem.get_i64 m 8);
  Phys_mem.set_f64 m 16 3.14159;
  Alcotest.(check (float 0.0)) "f64" 3.14159 (Phys_mem.get_f64 m 16);
  Phys_mem.set_int m 24 (-42);
  Alcotest.(check int) "int" (-42) (Phys_mem.get_int m 24)

let test_phys_mem_bounds () =
  let m = Phys_mem.create 8 in
  Alcotest.(check bool) "oob raises" true
    (try
       ignore (Phys_mem.get_i64 m 1);
       false
     with Invalid_argument _ -> true)

let granule = 4096

let test_phys_mem_bytes_roundtrip () =
  let m = Phys_mem.create (3 * granule) in
  (* spans the end of granule 0, all of granule 1 and the start of 2 *)
  let data = Bytes.init (granule + 40) (fun i -> Char.chr (i land 0xFF)) in
  Phys_mem.write_bytes m ~off:(granule - 20) data;
  Alcotest.(check bytes) "roundtrip" data
    (Phys_mem.read_bytes m ~off:(granule - 20) ~len:(Bytes.length data));
  let into = Bytes.create (Bytes.length data) in
  Phys_mem.read_into m ~off:(granule - 20) into;
  Alcotest.(check bytes) "read_into" data into;
  Alcotest.(check bytes) "untouched prefix" (Bytes.make 8 '\000')
    (Phys_mem.read_bytes m ~off:(granule - 28) ~len:8)

(* Words allocated by [f ()], net of what measuring allocates.  Emptying
   the minor heap first makes [Gc.counters] exact: OCaml 5.1 miscounts the
   words allocated since the last minor collection. *)
let allocated_words f =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let measure f =
    let w0 = words () in
    f ();
    words () -. w0
  in
  measure f -. measure ignore

(* Random typed stores, loads and byte copies, biased towards granule
   boundaries, must match a flat [Bytes] reference. *)
type op =
  | Set_u8 of int * int
  | Set_i32 of int * int32
  | Set_i64 of int * int64
  | Set_f64 of int * float
  | Set_int of int * int
  | Write of int * string
  | Load of int
  | Read of int * int

let model_size = (3 * granule) + 100

let qcheck_phys_mem_model =
  let open QCheck in
  let offset w =
    Gen.(
      oneof
        [
          int_range 0 (model_size - w);
          map2
            (fun g d -> max 0 (min (model_size - w) ((g * granule) + d)))
            (int_range 1 3) (int_range (-10) 10);
        ])
  in
  let op =
    Gen.(
      frequency
        [
          (1, map2 (fun o v -> Set_u8 (o, v)) (offset 1) (int_range 0 255));
          (1, map2 (fun o v -> Set_i32 (o, v)) (offset 4) ui32);
          (1, map2 (fun o v -> Set_i64 (o, v)) (offset 8) ui64);
          (1, map2 (fun o v -> Set_f64 (o, v)) (offset 8) float);
          (1, map2 (fun o v -> Set_int (o, v)) (offset 8) int);
          ( 1,
            int_range 0 40 >>= fun len ->
            map2 (fun o s -> Write (o, s)) (offset len) (string_size (return len)) );
          (3, map (fun o -> Load o) (offset 8));
          ( 1,
            int_range 0 (granule + 16) >>= fun len ->
            map (fun o -> Read (o, len)) (offset len) );
        ])
  in
  Test.make ~name:"phys mem: random accesses match a flat reference" ~count:200
    (make Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let m = Phys_mem.create model_size and r = Bytes.make model_size '\000' in
      let same_load o =
        Phys_mem.get_u8 m o = Bytes.get_uint8 r o
        && Phys_mem.get_i32 m o = Bytes.get_int32_le r o
        && Phys_mem.get_i64 m o = Bytes.get_int64_le r o
        && Int64.bits_of_float (Phys_mem.get_f64 m o) = Bytes.get_int64_le r o
        && Phys_mem.get_int m o = Int64.to_int (Bytes.get_int64_le r o)
      in
      List.for_all
        (function
          | Set_u8 (o, v) ->
            Phys_mem.set_u8 m o v;
            Bytes.set_uint8 r o v;
            true
          | Set_i32 (o, v) ->
            Phys_mem.set_i32 m o v;
            Bytes.set_int32_le r o v;
            true
          | Set_i64 (o, v) ->
            Phys_mem.set_i64 m o v;
            Bytes.set_int64_le r o v;
            true
          | Set_f64 (o, v) ->
            Phys_mem.set_f64 m o v;
            Bytes.set_int64_le r o (Int64.bits_of_float v);
            true
          | Set_int (o, v) ->
            Phys_mem.set_int m o v;
            Bytes.set_int64_le r o (Int64.of_int v);
            true
          | Write (o, s) ->
            Phys_mem.write_bytes m ~off:o (Bytes.of_string s);
            Bytes.blit_string s 0 r o (String.length s);
            true
          | Load o -> same_load o
          | Read (o, len) -> Bytes.equal (Phys_mem.read_bytes m ~off:o ~len) (Bytes.sub r o len))
        ops
      && Bytes.equal (Phys_mem.read_bytes m ~off:0 ~len:model_size) r)

(* Guards the shared zero granule: a store must land in the region's own
   granule, never in the one fresh regions alias. *)
let test_phys_mem_fresh_is_zero () =
  let a = Phys_mem.create (4 * granule) in
  Phys_mem.set_int a 8 (-1);
  Phys_mem.set_f64 a (granule - 4) 1.5;
  Phys_mem.set_u8 a (2 * granule) 7;
  Phys_mem.write_bytes a ~off:((3 * granule) - 3) (Bytes.of_string "abcdef");
  let b = Phys_mem.create (4 * granule) in
  Alcotest.(check bytes) "fresh region reads zero" (Bytes.make (4 * granule) '\000')
    (Phys_mem.read_bytes b ~off:0 ~len:(4 * granule));
  Alcotest.(check int) "first region kept its store" (-1) (Phys_mem.get_int a 8)

let test_untouched_read_allocates_nothing () =
  let size = 16 lsl 20 in
  let m = ref None in
  let create = allocated_words (fun () -> m := Some (Phys_mem.create size)) in
  let m = Option.get !m in
  let reads =
    allocated_words (fun () ->
        for i = 0 to 9_999 do
          ignore (Sys.opaque_identity (Phys_mem.get_int m ((i * 4104) land (size - 8))))
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "create: %.0f words, at most two per granule" create)
    true
    (create <= float_of_int (2 * size / granule));
  Alcotest.(check (float 0.0)) "reads" 0.0 reads

let test_memobject_rounding () =
  let o = Memobject.create ~size:5000 () in
  Alcotest.(check int) "pages" 2 (Memobject.pages o);
  Alcotest.(check int) "size" 8192 (Memobject.size o);
  Alcotest.(check int) "page of 4096" 1 (Memobject.page_of_offset o 4096)

let mk_vm ?(size = 4 * 4096) () =
  let o = Memobject.create ~size () in
  Vm.create o

let test_views_disjoint_bases () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  let v1 = Vm.map_view vm Prot.Read_write in
  let b0 = Vm.view_base vm v0 and b1 = Vm.view_base vm v1 in
  Alcotest.(check bool) "disjoint" true (abs (b1 - b0) >= Vm.view_size vm)

let test_views_alias_same_memory () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  let v1 = Vm.map_view vm Prot.Read_write in
  Vm.write_i32 vm (Vm.address vm ~view:v0 100) 7777l;
  Alcotest.(check int32) "aliased" 7777l (Vm.read_i32 vm (Vm.address vm ~view:v1 100))

let test_translate_roundtrip () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  let v1 = Vm.map_view vm Prot.Read_write in
  let addr = Vm.address vm ~view:v1 5000 in
  let view, vpage, phys_off = Vm.translate vm addr in
  Alcotest.(check int) "view" v1 view;
  Alcotest.(check int) "vpage" 1 vpage;
  Alcotest.(check int) "off" 5000 phys_off;
  ignore v0

let test_bad_address () =
  let vm = mk_vm () in
  let _ = Vm.map_view vm Prot.Read_write in
  Alcotest.(check bool) "below first view" true
    (try
       ignore (Vm.translate vm 0);
       false
     with Vm.Bad_address _ -> true);
  (* the guard gap between view end and next stride *)
  let guard = Vm.view_base vm 0 + Vm.view_size vm in
  Alcotest.(check bool) "guard page" true
    (try
       ignore (Vm.read_u8 vm guard);
       false
     with Vm.Bad_address _ -> true)

(* Each address resolves to its own view; a guard page, a straddle of a
   view's end and an address outside every view raise. *)
let test_view_lookup () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  let v1 = Vm.map_view vm Prot.Read_write in
  Vm.write_int vm (Vm.address vm ~view:v1 4096) 7;
  let bad f =
    try
      f ();
      false
    with Vm.Bad_address _ -> true
  in
  let v1_end = Vm.view_base vm v1 + Vm.view_size vm in
  Alcotest.(check bool) "guard after a view" true
    (bad (fun () -> ignore (Vm.read_u8 vm v1_end)));
  Alcotest.(check bool) "past every view" true
    (bad (fun () -> ignore (Vm.read_u8 vm (v1_end + (4 * Vm.view_size vm)))));
  Alcotest.(check bool) "straddling the view's end" true
    (bad (fun () -> ignore (Vm.read_int vm (v1_end - 4))));
  Alcotest.(check bool) "guard between views" true
    (bad (fun () -> ignore (Vm.read_u8 vm (Vm.view_base vm v0 + Vm.view_size vm))));
  Alcotest.(check bool) "below the first view" true
    (bad (fun () -> ignore (Vm.read_u8 vm (Vm.view_base vm v0 - 1))));
  (* views alias one memory, so each sees the other's writes *)
  Alcotest.(check int) "other view" 7 (Vm.read_int vm (Vm.address vm ~view:v0 4096));
  Vm.write_int vm (Vm.address vm ~view:v0 8) 9;
  Alcotest.(check int) "back again" 9 (Vm.read_int vm (Vm.address vm ~view:v1 8));
  let view, vpage, off = Vm.translate vm (Vm.address vm ~view:v1 ((3 * 4096) + 5)) in
  Alcotest.(check (list int)) "translate" [ v1; 3; (3 * 4096) + 5 ] [ view; vpage; off ]

let test_independent_protection () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  let v1 = Vm.map_view vm Prot.Read_write in
  Vm.protect vm ~view:v0 ~vpage:0 Prot.No_access;
  (* v1 still accessible on the same physical page *)
  Vm.write_u8 vm (Vm.address vm ~view:v1 10) 5;
  Alcotest.(check int) "via v1" 5 (Vm.read_u8 vm (Vm.address vm ~view:v1 10));
  (* v0 faults *)
  Alcotest.(check bool) "v0 faults" true
    (try
       ignore (Vm.read_u8 vm (Vm.address vm ~view:v0 10));
       false
     with Vm.Access_violation f -> f.view = v0 && f.vpage = 0)

let test_fault_handler_fixes_access () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.No_access in
  let faults = ref [] in
  Vm.set_fault_handler vm (fun f ->
      faults := (f.view, f.vpage, f.access) :: !faults;
      Vm.protect vm ~view:f.view ~vpage:f.vpage
        (match f.access with Prot.Read -> Prot.Read_only | Prot.Write -> Prot.Read_write));
  let addr = Vm.address vm ~view:v0 0 in
  Alcotest.(check int) "read ok after handler" 0 (Vm.read_u8 vm addr);
  Alcotest.(check int) "one read fault" 1 (List.length !faults);
  Vm.write_u8 vm addr 9;
  Alcotest.(check int) "write fault too" 2 (List.length !faults);
  (match !faults with
  | (_, _, Prot.Write) :: (_, _, Prot.Read) :: [] -> ()
  | _ -> Alcotest.fail "unexpected fault sequence");
  Alcotest.(check int) "counter read" 1 (Vm.read_faults vm);
  Alcotest.(check int) "counter write" 1 (Vm.write_faults vm)

let test_fault_storm () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.No_access in
  Vm.set_fault_handler vm (fun _ -> ());
  Alcotest.(check bool) "storm" true
    (try
       ignore (Vm.read_u8 vm (Vm.address vm ~view:v0 0));
       false
     with Vm.Fault_storm _ -> true)

let test_access_spanning_vpages () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  Vm.protect vm ~view:v0 ~vpage:1 Prot.No_access;
  (* an 8-byte read straddling pages 0-1 must fault on page 1 *)
  let addr = Vm.address vm ~view:v0 (4096 - 4) in
  Alcotest.(check bool) "straddle faults" true
    (try
       ignore (Vm.read_int vm addr);
       false
     with Vm.Access_violation f -> f.vpage = 1)

let test_privileged_view_fixed () =
  let vm = mk_vm () in
  let pv = Vm.map_privileged_view vm in
  Alcotest.(check check_prot) "rw" Prot.Read_write (Vm.protection vm ~view:pv ~vpage:0);
  Alcotest.(check bool) "protect rejected" true
    (try
       Vm.protect vm ~view:pv ~vpage:0 Prot.No_access;
       false
     with Invalid_argument _ -> true)

let test_privileged_access_bypasses_protection () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.No_access in
  let _pv = Vm.map_privileged_view vm in
  (* server thread updates memory while the application view is blocked *)
  Vm.priv_write_bytes vm ~off:100 (Bytes.of_string "abc");
  Alcotest.(check string) "priv read" "abc"
    (Bytes.to_string (Vm.priv_read_bytes vm ~off:100 ~len:3));
  (* application still cannot see it *)
  Alcotest.(check bool) "app still blocked" true
    (try
       ignore (Vm.read_u8 vm (Vm.address vm ~view:v0 100));
       false
     with Vm.Access_violation _ -> true)

(* Views mapped with one initial protection share a table until a view's
   first protect copies it. *)
let test_protect_copies_shared_table () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.No_access in
  let v1 = Vm.map_view vm Prot.No_access in
  let pv = Vm.map_privileged_view vm in
  let v2 = Vm.map_view vm Prot.Read_write in
  Vm.protect vm ~view:v0 ~vpage:1 Prot.Read_write;
  Vm.protect vm ~view:v2 ~vpage:2 Prot.No_access;
  let v3 = Vm.map_view vm Prot.No_access in
  Alcotest.(check check_prot) "v0 changed" Prot.Read_write (Vm.protection vm ~view:v0 ~vpage:1);
  Alcotest.(check check_prot) "v2 changed" Prot.No_access (Vm.protection vm ~view:v2 ~vpage:2);
  for vpage = 0 to Vm.vpages_per_view vm - 1 do
    Alcotest.(check check_prot) "v1 unchanged" Prot.No_access (Vm.protection vm ~view:v1 ~vpage);
    Alcotest.(check check_prot) "later view unchanged" Prot.No_access
      (Vm.protection vm ~view:v3 ~vpage);
    Alcotest.(check check_prot) "privileged stays rw" Prot.Read_write
      (Vm.protection vm ~view:pv ~vpage)
  done;
  Alcotest.(check bool) "v1 still faults" true
    (try
       ignore (Vm.read_u8 vm (Vm.address vm ~view:v1 4096));
       false
     with Vm.Access_violation f -> f.view = v1)

let test_vm_hits_allocate_nothing () =
  let vm = mk_vm () in
  let v = Vm.map_view vm Prot.Read_write in
  let addr i = Vm.address vm ~view:v ((i land 1023) * 8) in
  (* the first accesses materialize the granules and create the access
     counters; only later hits count *)
  for i = 0 to 1023 do
    Vm.write_f64 vm (addr i) 0.5;
    ignore (Vm.read_int vm (addr i))
  done;
  let writes =
    allocated_words (fun () ->
        for i = 0 to 9_999 do
          Vm.write_f64 vm (addr i) 1.0
        done)
  in
  let reads =
    allocated_words (fun () ->
        for i = 0 to 9_999 do
          ignore (Sys.opaque_identity (Vm.read_int vm (addr i)))
        done)
  in
  Alcotest.(check (float 0.0)) "write_f64 hits" 0.0 writes;
  Alcotest.(check (float 0.0)) "read_int hits" 0.0 reads;
  (* a server thread's copy of a 672-byte minipage into a reused reply
     buffer, across a granule boundary *)
  let buf = Bytes.create 672 in
  let copies =
    allocated_words (fun () ->
        for _ = 1 to 1_000 do
          Vm.priv_read_into vm ~off:(4096 - 100) buf
        done)
  in
  Alcotest.(check (float 0.0)) "priv_read_into" 0.0 copies;
  (* a 4-byte read allocates only its boxed result: a float is 2 words, an
     int32 3 *)
  let per_hit access =
    allocated_words (fun () ->
        for i = 0 to 9_999 do
          access (addr i)
        done)
    /. 10_000.0
  in
  let check name words access = Alcotest.(check (float 0.0)) name words (per_hit access) in
  check "read_f32 hit" 2.0 (fun a -> ignore (Sys.opaque_identity (Vm.read_f32 vm a)));
  check "write_f32 hit" 0.0 (fun a -> Vm.write_f32 vm a 1.5);
  check "read_i32 hit" 3.0 (fun a -> ignore (Sys.opaque_identity (Vm.read_i32 vm a)));
  check "write_i32 hit" 0.0 (fun a -> Vm.write_i32 vm a 7l)

let test_protect_range () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.No_access in
  Vm.protect_range vm ~view:v0 ~phys_off:4000 ~len:200 Prot.Read_only;
  Alcotest.(check check_prot) "page0" Prot.Read_only (Vm.protection vm ~view:v0 ~vpage:0);
  Alcotest.(check check_prot) "page1" Prot.Read_only (Vm.protection vm ~view:v0 ~vpage:1);
  Alcotest.(check check_prot) "page2 untouched" Prot.No_access (Vm.protection vm ~view:v0 ~vpage:2)

let suite_cache () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0);
  Alcotest.(check bool) "second hits" true (Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache.access c 31);
  Alcotest.(check bool) "next line misses" false (Cache.access c 32);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 2-way, 16 sets of 32B lines: addresses 0, 1024, 2048 map to set 0 *)
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 1024);
  ignore (Cache.access c 0);
  (* inserting a third line in set 0 evicts LRU = 1024 *)
  ignore (Cache.access c 2048);
  Alcotest.(check bool) "0 still resident" true (Cache.probe c 0);
  Alcotest.(check bool) "1024 evicted" false (Cache.probe c 1024);
  Alcotest.(check bool) "2048 resident" true (Cache.probe c 2048)

let test_cache_capacity () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  (* fill the whole cache, touch again: all hits *)
  for i = 0 to 31 do
    ignore (Cache.access c (i * 32))
  done;
  let h0 = Cache.hits c in
  for i = 0 to 31 do
    ignore (Cache.access c (i * 32))
  done;
  Alcotest.(check int) "all hit" (h0 + 32) (Cache.hits c)

(* The TLB shape: one set of 1-byte lines, indexed by vpn. *)
let one_set ~ways = Cache.create ~size_bytes:ways ~line_bytes:1 ~assoc:ways

let test_tlb_lru () =
  let tlb = one_set ~ways:2 in
  Alcotest.(check bool) "miss" false (Cache.access tlb 1);
  Alcotest.(check bool) "miss" false (Cache.access tlb 2);
  Alcotest.(check bool) "hit" true (Cache.access tlb 1);
  (* inserting 3 evicts LRU = 2 *)
  Alcotest.(check bool) "miss" false (Cache.access tlb 3);
  Alcotest.(check bool) "2 evicted" false (Cache.access tlb 2)

(* A one-set cache is fully associative: it must hit exactly when a
   most-recent-first list of its last [ways] distinct vpns holds the vpn. *)
let qcheck_one_set_cache_is_lru =
  let open QCheck in
  let stream =
    Gen.(
      int_range 1 64 >>= fun ways ->
      pair (return ways) (list_size (int_range 1 300) (int_range 0 (2 * ways))))
  in
  Test.make ~name:"one-set cache: hits match a list LRU" ~count:1000
    (make ~print:Print.(pair int (list int)) stream)
    (fun (ways, vpns) ->
      let c = one_set ~ways in
      let recent = ref [] in
      List.for_all
        (fun vpn ->
          let hit = List.mem vpn !recent in
          recent := List.filteri (fun i _ -> i < ways) (vpn :: List.filter (( <> ) vpn) !recent);
          Cache.access c vpn = hit)
        vpns)

let test_cache_access_allocates_nothing () =
  let check name c ~line =
    let n = 10_000 in
    ignore (Cache.access c 0);
    let hits =
      allocated_words (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (Cache.access c 0))
          done)
    in
    (* every [i * line] is a new line of set 0, so each access misses *)
    let misses =
      allocated_words (fun () ->
          for i = 1 to n do
            ignore (Sys.opaque_identity (Cache.access c (i * line)))
          done)
    in
    Alcotest.(check (pair int int)) (name ^ " counted") (n, n + 1) (Cache.hits c, Cache.misses c);
    Alcotest.(check (float 0.0)) (name ^ " hit words") 0.0 hits;
    Alcotest.(check (float 0.0)) (name ^ " miss words") 0.0 misses
  in
  (* 4,096 sets of 4 ways: a multiple of 4,096 lines stays in set 0 *)
  check "4-way L2" (Cache.create ~size_bytes:(512 * 1024) ~line_bytes:32 ~assoc:4)
    ~line:(4096 * 32);
  check "64-entry TLB" (one_set ~ways:64) ~line:1

let test_mmu_pte_surcharge_gating () =
  let mmu = Mmu.create () in
  (* touch few vpages: walks are cheap (no OS surcharge) *)
  let c1 = Mmu.touch_vpage mmu ~vpn:0 in
  Alcotest.(check bool) "cold walk below budget" true (c1 < 100.0)

let test_overhead_model_breaking_point () =
  let mb = 1024 * 1024 in
  let baseline = Overhead_model.run ~array_bytes:(2 * mb) ~views:1 () in
  let below = Overhead_model.run ~array_bytes:(2 * mb) ~views:32 () in
  let above = Overhead_model.run ~array_bytes:(2 * mb) ~views:512 () in
  let s_below = Overhead_model.slowdown ~baseline below in
  let s_above = Overhead_model.slowdown ~baseline above in
  Alcotest.(check bool) "small overhead below break (n=32)" true (s_below < 1.05);
  Alcotest.(check bool) "substantial above break" true (s_above > 5.0)

let test_overhead_model_same_slope () =
  let mb = 1024 * 1024 in
  let slope n_mb views_over =
    let array_bytes = n_mb * mb in
    let break = 512 / n_mb in
    let baseline = Overhead_model.run ~array_bytes ~views:1 () in
    let r = Overhead_model.run ~array_bytes ~views:(break * views_over) () in
    (Overhead_model.slowdown ~baseline r -. 1.0) /. float_of_int ((break * views_over) - break)
  in
  let s2 = slope 2 2 and s4 = slope 4 2 in
  Alcotest.(check bool) "same slope across N" true (Float.abs (s2 -. s4) /. s2 < 0.2)

let test_view_major_order_blunts_break () =
  let mb = 1024 * 1024 in
  let array_bytes = 2 * mb in
  let baseline = Overhead_model.run ~array_bytes ~views:1 () in
  let inter = Overhead_model.run ~array_bytes ~views:512 () in
  let major = Overhead_model.run ~order:`View_major ~array_bytes ~views:512 () in
  let s_inter = Overhead_model.slowdown ~baseline inter in
  let s_major = Overhead_model.slowdown ~baseline major in
  Alcotest.(check bool)
    (Printf.sprintf "view-major (%.1f) well below interleaved (%.1f)" s_major s_inter)
    true
    (s_major *. 2.0 < s_inter)

let test_unused_allocation_moves_break_earlier () =
  (* §4.1 observation 4: allocate 4 MB, touch 1 MB — the breaking point
     appears earlier than when only the accessed fraction is allocated *)
  let mb = 1024 * 1024 in
  let baseline = Overhead_model.run ~array_bytes:mb ~views:256 () in
  let overalloc =
    Overhead_model.run ~array_bytes:mb ~allocated_bytes:(4 * mb) ~views:256 ()
  in
  (* 256 views x 1MB touched = below the break; with 4 MB committed the PTE
     set is 4x bigger and the surcharge kicks in *)
  Alcotest.(check bool)
    (Printf.sprintf "overallocated (%.0f us) slower than exact (%.0f us)"
       overalloc.Overhead_model.us_per_iter baseline.Overhead_model.us_per_iter)
    true
    (overalloc.Overhead_model.us_per_iter > 1.5 *. baseline.Overhead_model.us_per_iter)

let test_max_views_va_limit () =
  let n = Overhead_model.max_views_for ~array_bytes:(16 * 1024 * 1024) () in
  Alcotest.(check bool) "~104 views for 16MB" true (n >= 90 && n <= 110)

let suite =
  [
    Alcotest.test_case "prot allows" `Quick test_prot_allows;
    Alcotest.test_case "phys mem roundtrip" `Quick test_phys_mem_typed_roundtrip;
    Alcotest.test_case "phys mem bounds" `Quick test_phys_mem_bounds;
    Alcotest.test_case "phys mem bytes roundtrip" `Quick test_phys_mem_bytes_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_phys_mem_model;
    Alcotest.test_case "phys mem fresh is zero" `Quick test_phys_mem_fresh_is_zero;
    Alcotest.test_case "untouched read allocates nothing" `Quick
      test_untouched_read_allocates_nothing;
    Alcotest.test_case "memobject rounding" `Quick test_memobject_rounding;
    Alcotest.test_case "views disjoint" `Quick test_views_disjoint_bases;
    Alcotest.test_case "views alias memory" `Quick test_views_alias_same_memory;
    Alcotest.test_case "translate roundtrip" `Quick test_translate_roundtrip;
    Alcotest.test_case "bad address" `Quick test_bad_address;
    Alcotest.test_case "independent protection" `Quick test_independent_protection;
    Alcotest.test_case "fault handler retry" `Quick test_fault_handler_fixes_access;
    Alcotest.test_case "fault storm" `Quick test_fault_storm;
    Alcotest.test_case "privileged view fixed" `Quick test_privileged_view_fixed;
    Alcotest.test_case "privileged bypass" `Quick test_privileged_access_bypasses_protection;
    Alcotest.test_case "protect range" `Quick test_protect_range;
    Alcotest.test_case "protect copies shared table" `Quick test_protect_copies_shared_table;
    Alcotest.test_case "vm hits allocate nothing" `Quick test_vm_hits_allocate_nothing;
    Alcotest.test_case "cache basic" `Quick suite_cache;
    Alcotest.test_case "cache lru" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
    Alcotest.test_case "tlb lru" `Quick test_tlb_lru;
    QCheck_alcotest.to_alcotest qcheck_one_set_cache_is_lru;
    Alcotest.test_case "cache access allocates nothing" `Quick
      test_cache_access_allocates_nothing;
    Alcotest.test_case "mmu cheap walk" `Quick test_mmu_pte_surcharge_gating;
    Alcotest.test_case "fig5 breaking point" `Slow test_overhead_model_breaking_point;
    Alcotest.test_case "fig5 same slope" `Slow test_overhead_model_same_slope;
    Alcotest.test_case "view-major locality" `Slow test_view_major_order_blunts_break;
    Alcotest.test_case "overallocation moves break" `Slow
      test_unused_allocation_moves_break_earlier;
    Alcotest.test_case "va view limit" `Quick test_max_views_va_limit;
    Alcotest.test_case "view lookup" `Quick test_view_lookup;
  ]
