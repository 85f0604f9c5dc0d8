(* Deeper protocol coverage: queued operations, multi-vpage minipages,
   multiple threads per host, lock fairness, push serialization. *)

open Mp_millipage
open Fixture

let test_large_minipage_spans_vpages () =
  (* a 2.5-page minipage: one fault brings the whole region, protection is
     set on all covered vpages *)
  let config = { fast_config with views = 4 } in
  let sum = ref 0.0 in
  let dsm =
    scenario ~config (fun dsm ->
        let size = 4096 * 5 / 2 in
        let x = Dsm.malloc dsm size in
        for i = 0 to 9 do
          Dsm.init_write_f64 dsm (x + (i * 1024)) (float_of_int i)
        done;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            sum := 0.0;
            for i = 0 to 9 do
              sum := !sum +. Dsm.read_f64 ctx (x + (i * 1024))
            done))
  in
  Alcotest.(check (float 0.0)) "all pages transferred" 45.0 !sum;
  Alcotest.(check int) "single fault" 1 (Dsm.read_faults dsm)

let test_two_threads_one_host_share_fault () =
  (* both threads fault on the same minipage: the second joins the first's
     in-flight request instead of sending its own *)
  let dsm =
    scenario (fun dsm ->
        let x = Dsm.malloc dsm 128 in
        Dsm.init_write_f64 dsm x 3.0;
        for _ = 1 to 2 do
          Dsm.spawn dsm ~host:1 (fun ctx ->
              ignore (Dsm.read_f64 ctx x);
              Dsm.barrier ctx)
        done;
        Dsm.spawn dsm ~host:0 (fun ctx -> Dsm.barrier ctx))
  in
  Alcotest.(check int) "two faults recorded" 2 (Dsm.read_faults dsm);
  (* but only one read request reached the manager *)
  Alcotest.(check int) "one data reply" 1
    (Dsm.stats dsm).data_replies

let test_queued_write_after_reads () =
  (* reads in flight; a write on the same minipage must wait for them, then
     proceed with invalidations *)
  let final = ref 0.0 in
  let dsm =
    scenario ~hosts:4 (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.init_write_f64 dsm x 1.0;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            ignore (Dsm.read_f64 ctx x);
            Dsm.barrier ctx);
        Dsm.spawn dsm ~host:2 (fun ctx ->
            ignore (Dsm.read_f64 ctx x);
            Dsm.barrier ctx);
        Dsm.spawn dsm ~host:3 (fun ctx ->
            Dsm.write_f64 ctx x 9.0;
            Dsm.barrier ctx);
        Dsm.spawn dsm ~host:0 (fun ctx ->
            Dsm.barrier ctx;
            final := Dsm.read_f64 ctx x))
  in
  Alcotest.(check (float 0.0)) "write lands" 9.0 !final;
  ignore dsm

let test_lock_fifo_fairness () =
  let order = ref [] in
  let _dsm =
    scenario ~hosts:4 (fun dsm ->
        for h = 0 to 3 do
          Dsm.spawn dsm ~host:h (fun ctx ->
              (* stagger arrival: h arrives at t = h*10 *)
              Dsm.compute ctx (float_of_int (h * 10));
              Dsm.lock ctx 0;
              order := h :: !order;
              Dsm.compute ctx 500.0;
              Dsm.unlock ctx 0)
        done)
  in
  Alcotest.(check (list int)) "grants in request order" [ 0; 1; 2; 3 ] (List.rev !order)

let test_push_queued_behind_write () =
  (* a push submitted while a write is in flight queues and completes *)
  let seen = ref 0.0 in
  let _dsm =
    scenario ~hosts:3 (fun dsm ->
        let x = Dsm.malloc dsm 148 in
        Dsm.init_write_f64 dsm x 0.0;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.write_f64 ctx x 5.0;
            Dsm.push_to_all ctx x;
            Dsm.barrier ctx);
        Dsm.spawn dsm ~host:2 (fun ctx ->
            Dsm.barrier ctx;
            seen := Dsm.read_f64 ctx x);
        Dsm.spawn dsm ~host:0 (fun ctx -> Dsm.barrier ctx))
  in
  Alcotest.(check (float 0.0)) "pushed value visible" 5.0 !seen

let test_pusher_retains_read_copy () =
  let v = ref 0.0 in
  let dsm =
    scenario ~hosts:2 (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.write_f64 ctx x 7.0;
            Dsm.push_to_all ctx x;
            (* reading our own pushed data must not fault *)
            v := Dsm.read_f64 ctx x))
  in
  Alcotest.(check (float 0.0)) "value" 7.0 !v;
  Alcotest.(check int) "no read fault for pusher" 0 (Dsm.read_faults dsm)

let test_write_after_push_invalidates_everyone () =
  let v = ref 0.0 in
  let dsm =
    scenario ~hosts:3 (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.write_f64 ctx x 1.0;
            Dsm.push_to_all ctx x;
            Dsm.barrier ctx;
            (* writing again must invalidate all the pushed copies *)
            Dsm.write_f64 ctx x 2.0;
            Dsm.barrier ctx);
        Dsm.spawn dsm ~host:2 (fun ctx ->
            Dsm.barrier ctx;
            Dsm.barrier ctx;
            v := Dsm.read_f64 ctx x);
        Dsm.spawn dsm ~host:0 (fun ctx ->
            Dsm.barrier ctx;
            Dsm.barrier ctx))
  in
  Alcotest.(check (float 0.0)) "fresh value after push+write" 2.0 !v;
  Alcotest.(check bool) "invalidation count reflects push copies" true
    ((Dsm.stats dsm).invalidations >= 2)

let test_prefetch_write_upgrades () =
  (* prefetch-for-write then read and write without any further faults *)
  let dsm =
    scenario (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.init_write_f64 dsm x 1.0;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.prefetch ctx x Proto.Write;
            Dsm.compute ctx 2000.0;
            Dsm.write_f64 ctx x (Dsm.read_f64 ctx x +. 1.0)))
  in
  Alcotest.(check int) "no read faults" 0 (Dsm.read_faults dsm);
  Alcotest.(check int) "no write faults" 0 (Dsm.write_faults dsm)

let test_chunked_minipage_single_fault () =
  (* chunk of 4 allocations: one fault brings the whole chunk *)
  let config = { fast_config with chunking = Mp_multiview.Allocator.Fine 4 } in
  let total = ref 0.0 in
  let dsm =
    scenario ~config (fun dsm ->
        let addrs = Dsm.malloc_array dsm ~count:4 ~size:100 in
        Array.iteri (fun i a -> Dsm.init_write_f64 dsm a (float_of_int i)) addrs;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            total := 0.0;
            Array.iter (fun a -> total := !total +. Dsm.read_f64 ctx a) addrs))
  in
  Alcotest.(check (float 0.0)) "all values" 6.0 !total;
  Alcotest.(check int) "single fault for the chunk" 1 (Dsm.read_faults dsm)

let test_barrier_with_unequal_thread_counts () =
  (* two threads on host 0, one on host 1: barriers count threads *)
  let passed = ref 0 in
  let _dsm =
    scenario (fun dsm ->
        for _ = 1 to 2 do
          Dsm.spawn dsm ~host:0 (fun ctx ->
              Dsm.barrier ctx;
              incr passed)
        done;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.compute ctx 1000.0;
            Dsm.barrier ctx;
            incr passed))
  in
  Alcotest.(check int) "all three passed" 3 !passed

let test_sc_no_stale_read_after_write () =
  (* sequential consistency: once a reader observes the new value, it can
     never observe the old one again, and a third host reading later also
     sees the new value *)
  let ok = ref true in
  let _dsm =
    scenario ~hosts:3 (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.init_write_f64 dsm x 0.0;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.compute ctx 500.0;
            Dsm.write_f64 ctx x 1.0);
        Dsm.spawn dsm ~host:2 (fun ctx ->
            let seen_new = ref false in
            for _ = 1 to 50 do
              let v = Dsm.read_f64 ctx x in
              if v = 1.0 then seen_new := true
              else if !seen_new && v = 0.0 then ok := false;
              Dsm.compute ctx 50.0
            done))
  in
  Alcotest.(check bool) "no stale read after new value" true !ok

let suite =
  [
    Alcotest.test_case "large minipage spans vpages" `Quick test_large_minipage_spans_vpages;
    Alcotest.test_case "threads share in-flight fault" `Quick
      test_two_threads_one_host_share_fault;
    Alcotest.test_case "queued write after reads" `Quick test_queued_write_after_reads;
    Alcotest.test_case "lock FIFO fairness" `Quick test_lock_fifo_fairness;
    Alcotest.test_case "push queued behind write" `Quick test_push_queued_behind_write;
    Alcotest.test_case "pusher retains read copy" `Quick test_pusher_retains_read_copy;
    Alcotest.test_case "write after push invalidates" `Quick
      test_write_after_push_invalidates_everyone;
    Alcotest.test_case "prefetch write upgrades" `Quick test_prefetch_write_upgrades;
    Alcotest.test_case "chunked minipage single fault" `Quick
      test_chunked_minipage_single_fault;
    Alcotest.test_case "barrier unequal threads" `Quick test_barrier_with_unequal_thread_counts;
    Alcotest.test_case "SC no stale reads" `Quick test_sc_no_stale_read_after_write;
  ]
