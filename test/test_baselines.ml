open Mp_sim
open Mp_baselines
module Twin_diff = Mp_millipage.Twin_diff

(* ---------------- Twin_diff ---------------- *)

let test_diff_empty () =
  let page = Bytes.make 256 'a' in
  let d = Twin_diff.diff ~twin:(Twin_diff.twin page) ~current:page in
  Alcotest.(check bool) "empty" true (Twin_diff.is_empty d);
  Alcotest.(check int) "no bytes" 0 (Twin_diff.encoded_bytes d)

let test_diff_roundtrip () =
  let twin = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let current = Bytes.of_string "the quick BROWN fox jumps OVER the lazy doG" in
  let d = Twin_diff.diff ~twin ~current in
  Alcotest.(check int) "three runs" 3 (Twin_diff.run_count d);
  let target = Bytes.copy twin in
  Twin_diff.apply d target;
  Alcotest.(check string) "patched" (Bytes.to_string current) (Bytes.to_string target)

let test_diff_cost_calibration () =
  (* §4.2: 250 µs for a 4 KB page, linear *)
  Alcotest.(check (float 1e-9)) "4KB" 250.0 (Twin_diff.creation_cost_us ~page_bytes:4096);
  Alcotest.(check (float 1e-9)) "1KB" 62.5 (Twin_diff.creation_cost_us ~page_bytes:1024)

let qcheck_diff_roundtrip =
  QCheck.Test.make ~name:"twin diff: apply(diff) reconstructs current" ~count:300
    QCheck.(pair (list (int_range 0 63)) small_int)
    (fun (touch, seed) ->
      let rng = Mp_util.Prng.create ~seed in
      let twin = Bytes.init 64 (fun i -> Char.chr (i land 0xFF)) in
      let current = Bytes.copy twin in
      List.iter
        (fun i -> Bytes.set current i (Char.chr (Mp_util.Prng.int rng 256)))
        touch;
      let d = Twin_diff.diff ~twin ~current in
      let target = Bytes.copy twin in
      Twin_diff.apply d target;
      Bytes.equal target current)

let qcheck_diff_minimal =
  QCheck.Test.make ~name:"twin diff: runs only cover changed regions" ~count:300
    QCheck.(list (int_range 0 63))
    (fun touch ->
      let twin = Bytes.make 64 'x' in
      let current = Bytes.copy twin in
      List.iter (fun i -> Bytes.set current i 'y') touch;
      let d = Twin_diff.diff ~twin ~current in
      let changed = List.sort_uniq compare touch in
      (* encoded payload counts each changed byte exactly once *)
      Twin_diff.encoded_bytes d = (8 * Twin_diff.run_count d) + List.length changed)

(* ---------------- LRC ---------------- *)

let lrc_scenario ?(hosts = 2) setup =
  let e = Engine.create () in
  let t = Lrc.create e ~hosts ~polling:Mp_net.Polling.Fast () in
  setup t;
  Lrc.run t;
  t

let test_lrc_read_from_home () =
  let seen = ref 0.0 in
  let t =
    lrc_scenario ~hosts:3 (fun t ->
        let x = Lrc.malloc t 64 in
        Lrc.init_write_f64 t x 3.5;
        Lrc.spawn t ~host:1 (fun ctx -> seen := Lrc.read_f64 ctx x))
  in
  Alcotest.(check (float 0.0)) "home copy read" 3.5 !seen;
  Alcotest.(check int) "one read fault" 1 (Lrc.read_faults t)

let test_lrc_write_is_local_after_fetch () =
  let t =
    lrc_scenario (fun t ->
        let x = Lrc.malloc t 64 in
        Lrc.spawn t ~host:1 (fun ctx ->
            (* write to an invalid page: one fetch, one twin, no protocol
               write traffic *)
            for i = 1 to 100 do
              Lrc.write_f64 ctx x (float_of_int i)
            done))
  in
  Alcotest.(check int) "one twin" 1 (Lrc.twins_created t);
  Alcotest.(check int) "no diffs without release" 0 (Lrc.diffs_created t)

let test_lrc_barrier_propagates_writes () =
  let final = ref 0.0 in
  let t =
    lrc_scenario ~hosts:2 (fun t ->
        let x = Lrc.malloc t 64 in
        Lrc.init_write_f64 t x 1.0;
        Lrc.spawn t ~host:1 (fun ctx ->
            Lrc.write_f64 ctx x 9.0;
            Lrc.barrier ctx);
        Lrc.spawn t ~host:0 (fun ctx ->
            ignore (Lrc.read_f64 ctx x);
            Lrc.barrier ctx;
            final := Lrc.read_f64 ctx x))
  in
  Alcotest.(check (float 0.0)) "write visible after barrier" 9.0 !final;
  Alcotest.(check bool) "diff shipped" true (Lrc.diffs_created t >= 1)

let test_lrc_multiple_writers_same_page () =
  (* the relaxed-consistency selling point: two hosts write disjoint halves
     of one page concurrently; diffs merge at the home *)
  let a = ref 0.0 and b = ref 0.0 in
  let t =
    lrc_scenario ~hosts:3 (fun t ->
        let x = Lrc.malloc t 16 in
        let y = Lrc.malloc t 16 in
        (* same page by construction *)
        Lrc.spawn t ~host:1 (fun ctx ->
            Lrc.write_f64 ctx x 1.5;
            Lrc.barrier ctx;
            Lrc.barrier ctx;
            a := Lrc.read_f64 ctx x;
            b := Lrc.read_f64 ctx y);
        Lrc.spawn t ~host:2 (fun ctx ->
            Lrc.write_f64 ctx y 2.5;
            Lrc.barrier ctx;
            Lrc.barrier ctx))
  in
  Alcotest.(check (float 0.0)) "own write" 1.5 !a;
  Alcotest.(check (float 0.0)) "merged write" 2.5 !b;
  Alcotest.(check bool) "two diffs merged" true (Lrc.diffs_created t >= 2)

let test_lrc_lock_counter () =
  let hosts = 3 and per_host = 10 in
  let final = ref 0 in
  let _t =
    lrc_scenario ~hosts (fun t ->
        let c = Lrc.malloc t 64 in
        Lrc.init_write_int t c 0;
        for h = 0 to hosts - 1 do
          Lrc.spawn t ~host:h (fun ctx ->
              for _ = 1 to per_host do
                Lrc.lock ctx 0;
                Lrc.write_int ctx c (Lrc.read_int ctx c + 1);
                Lrc.unlock ctx 0
              done;
              Lrc.barrier ctx;
              if Lrc.host ctx = 0 then final := Lrc.read_int ctx c)
        done)
  in
  Alcotest.(check int) "no lost updates" (hosts * per_host) !final

let test_lrc_diff_wire_cost () =
  (* diffs ship only changed bytes: writing 8 bytes of a 4 KB page must not
     cost a 4 KB message *)
  let t =
    lrc_scenario (fun t ->
        let x = Lrc.malloc t 4096 in
        Lrc.spawn t ~host:1 (fun ctx ->
            Lrc.write_f64 ctx x 5.0;
            Lrc.barrier ctx);
        Lrc.spawn t ~host:0 (fun ctx -> Lrc.barrier ctx))
  in
  Alcotest.(check bool) "small diff" true (Lrc.diff_bytes t < 64)

let test_lrc_prefetch () =
  let v = ref 0.0 in
  let _t =
    lrc_scenario (fun t ->
        let x = Lrc.malloc t 64 in
        Lrc.init_write_f64 t x 4.0;
        Lrc.spawn t ~host:1 (fun ctx ->
            Lrc.prefetch ctx x Mp_memsim.Prot.Read;
            Lrc.compute ctx 2000.0;
            v := Lrc.read_f64 ctx x))
  in
  Alcotest.(check (float 0.0)) "prefetched value" 4.0 !v

(* ---------------- Ivy ---------------- *)

let test_ivy_page_granularity () =
  let e = Engine.create () in
  let t = Ivy.create e ~hosts:2 ~polling:Mp_net.Polling.Fast () in
  let x = Ivy.malloc t 64 in
  let y = Ivy.malloc t 64 in
  let seen = ref 0.0 in
  Ivy.init_write_f64 t x 1.0;
  Ivy.init_write_f64 t y 2.0;
  Ivy.spawn t ~host:1 (fun ctx ->
      (* x and y share a page: one fault brings both in *)
      ignore (Ivy.read_f64 ctx x);
      seen := Ivy.read_f64 ctx y);
  Ivy.run t;
  Alcotest.(check (float 0.0)) "second var present" 2.0 !seen;
  Alcotest.(check int) "single page fault" 1 (Ivy.read_faults t)

let test_ivy_central_homes () =
  (* Ivy is Millipage under central homes: every allocation homes at host 0 *)
  let e = Engine.create () in
  let t = Ivy.create e ~hosts:4 () in
  List.iter
    (fun size ->
      let addr = Ivy.malloc t size in
      Alcotest.(check int) (Printf.sprintf "%d-byte block" size) 0 (Ivy.home_of t ~addr))
    [ 8; 4096; 100; 3 * 4096; 64 ]

let suite =
  [
    Alcotest.test_case "diff empty" `Quick test_diff_empty;
    Alcotest.test_case "diff roundtrip" `Quick test_diff_roundtrip;
    Alcotest.test_case "diff cost calibration" `Quick test_diff_cost_calibration;
    QCheck_alcotest.to_alcotest qcheck_diff_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_diff_minimal;
    Alcotest.test_case "lrc read from home" `Quick test_lrc_read_from_home;
    Alcotest.test_case "lrc local writes" `Quick test_lrc_write_is_local_after_fetch;
    Alcotest.test_case "lrc barrier propagates" `Quick test_lrc_barrier_propagates_writes;
    Alcotest.test_case "lrc multi-writer page" `Quick test_lrc_multiple_writers_same_page;
    Alcotest.test_case "lrc lock counter" `Quick test_lrc_lock_counter;
    Alcotest.test_case "lrc diff wire cost" `Quick test_lrc_diff_wire_cost;
    Alcotest.test_case "lrc prefetch" `Quick test_lrc_prefetch;
    Alcotest.test_case "ivy page granularity" `Quick test_ivy_page_granularity;
    Alcotest.test_case "ivy central homes" `Quick test_ivy_central_homes;
  ]
