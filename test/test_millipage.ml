open Mp_sim
open Mp_millipage
open Fixture

let test_read_sharing () =
  let seen = ref 0.0 in
  let dsm =
    scenario (fun dsm ->
        let x = Dsm.malloc dsm 128 in
        Dsm.init_write_f64 dsm x 42.5;
        Dsm.spawn dsm ~host:1 (fun ctx -> seen := Dsm.read_f64 ctx x))
  in
  Alcotest.(check (float 0.0)) "value transferred" 42.5 !seen;
  Alcotest.(check int) "one read fault" 1 (Dsm.read_faults dsm);
  Alcotest.(check int) "no write faults" 0 (Dsm.write_faults dsm)

let test_second_read_hits () =
  let dsm =
    scenario (fun dsm ->
        let x = Dsm.malloc dsm 128 in
        Dsm.init_write_f64 dsm x 1.0;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            ignore (Dsm.read_f64 ctx x);
            ignore (Dsm.read_f64 ctx x);
            ignore (Dsm.read_f64 ctx (x + 8))))
  in
  Alcotest.(check int) "only the first read faults" 1 (Dsm.read_faults dsm)

let test_write_invalidates_readers () =
  let final = ref 0.0 in
  let dsm =
    scenario ~hosts:3 (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.init_write_f64 dsm x 1.0;
        (* h1 and h2 read, then h1 writes, then h2 re-reads *)
        Dsm.spawn dsm ~host:1 (fun ctx ->
            ignore (Dsm.read_f64 ctx x);
            Dsm.barrier ctx;
            Dsm.write_f64 ctx x 2.0;
            Dsm.barrier ctx);
        Dsm.spawn dsm ~host:2 (fun ctx ->
            ignore (Dsm.read_f64 ctx x);
            Dsm.barrier ctx;
            Dsm.barrier ctx;
            final := Dsm.read_f64 ctx x))
  in
  Alcotest.(check (float 0.0)) "reader sees the write" 2.0 !final;
  Alcotest.(check bool) "invalidations happened" true
    ((Dsm.stats dsm).invalidations >= 1)

let test_write_upgrade_no_data () =
  (* single reader upgrading to writer: grant without data transfer *)
  let dsm =
    scenario (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            ignore (Dsm.read_f64 ctx x);
            Dsm.write_f64 ctx x 5.0))
  in
  Alcotest.(check int) "one upgrade grant" 1
    (Dsm.stats dsm).grant_upgrades

let test_no_false_sharing () =
  (* two variables on the same physical page, each written by its own host:
     exactly one write fault per host, no ping-pong *)
  let iterations = 50 in
  let dsm =
    scenario ~hosts:3 (fun dsm ->
        let x = Dsm.malloc dsm 256 in
        let y = Dsm.malloc dsm 256 in
        let worker addr host =
          Dsm.spawn dsm ~host (fun ctx ->
              for i = 1 to iterations do
                Dsm.write_f64 ctx addr (float_of_int i);
                Dsm.compute ctx 10.0
              done)
        in
        worker x 1;
        worker y 2)
  in
  Alcotest.(check int) "one write fault each" 2 (Dsm.write_faults dsm)

let test_page_grain_false_sharing_ping_pong () =
  (* same workload under page-grain chunking: the page bounces between the
     two writers *)
  let iterations = 50 in
  let config =
    { fast_config with chunking = Mp_multiview.Allocator.Page_grain }
  in
  let dsm =
    scenario ~hosts:3 ~config (fun dsm ->
        let x = Dsm.malloc dsm 256 in
        let y = Dsm.malloc dsm 256 in
        let worker addr host =
          Dsm.spawn dsm ~host (fun ctx ->
              for i = 1 to iterations do
                Dsm.write_f64 ctx addr (float_of_int i);
                Dsm.compute ctx 10.0
              done)
        in
        worker x 1;
        worker y 2)
  in
  (* each holder sneaks in a few iterations before the next invalidation
     lands, so the fault count is well below 2x50 but far above the
     fine-grain case's 2 *)
  Alcotest.(check bool) "ping-pong write faults" true (Dsm.write_faults dsm >= 10)

let test_sequential_consistency_lock_counter () =
  let hosts = 4 and per_host = 25 in
  let final = ref 0 in
  let dsm =
    scenario ~hosts (fun dsm ->
        let c = Dsm.malloc dsm 64 in
        Dsm.init_write_int dsm c 0;
        for h = 0 to hosts - 1 do
          Dsm.spawn dsm ~host:h (fun ctx ->
              for _ = 1 to per_host do
                Dsm.lock ctx 0;
                Dsm.write_int ctx c (Dsm.read_int ctx c + 1);
                Dsm.unlock ctx 0
              done;
              Dsm.barrier ctx;
              if Dsm.host ctx = 0 then final := Dsm.read_int ctx c)
        done)
  in
  Alcotest.(check int) "no lost updates" (hosts * per_host) !final;
  ignore dsm

let test_barrier_synchronizes () =
  let order = ref [] in
  let _dsm =
    scenario ~hosts:3 (fun dsm ->
        for h = 0 to 2 do
          Dsm.spawn dsm ~host:h (fun ctx ->
              Dsm.compute ctx (float_of_int (100 * (3 - h)));
              order := (`Before, h) :: !order;
              Dsm.barrier ctx;
              order := (`After, h) :: !order)
        done)
  in
  let events = List.rev !order in
  let first_after =
    List.mapi (fun i (k, _) -> (i, k)) events
    |> List.find (fun (_, k) -> k = `After)
    |> fst
  in
  Alcotest.(check int) "all befores precede afters" 3 first_after

let test_lock_mutual_exclusion_timing () =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:2 ~config:fast_config () in
  let in_section = ref 0 and overlapped = ref false in
  for h = 0 to 1 do
    Dsm.spawn dsm ~host:h (fun ctx ->
        for _ = 1 to 10 do
          Dsm.lock ctx 7;
          incr in_section;
          if !in_section > 1 then overlapped := true;
          Dsm.compute ctx 30.0;
          decr in_section;
          Dsm.unlock ctx 7
        done)
  done;
  Dsm.run dsm;
  Alcotest.(check bool) "mutual exclusion" false !overlapped

let test_read_fault_cost_128 () =
  (* §4.2: bringing in a 128-byte minipage for reading costs ≈ 204 µs *)
  let cost = ref 0.0 in
  let _dsm =
    scenario (fun dsm ->
        let x = Dsm.malloc dsm 128 in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            let t0 = Engine.now (Dsm.engine dsm) in
            ignore (Dsm.read_f64 ctx x);
            cost := Engine.now (Dsm.engine dsm) -. t0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "read 128B in [180,230] (got %.0f)" !cost)
    true
    (!cost > 180.0 && !cost < 230.0)

let test_read_fault_cost_4k () =
  (* §4.2: ≈ 314 µs for a 4 KB minipage *)
  let config = { fast_config with views = 4; chunking = Mp_multiview.Allocator.Fine 1 } in
  let cost = ref 0.0 in
  let _dsm =
    scenario ~config (fun dsm ->
        let x = Dsm.malloc dsm 4096 in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            let t0 = Engine.now (Dsm.engine dsm) in
            ignore (Dsm.read_f64 ctx x);
            cost := Engine.now (Dsm.engine dsm) -. t0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "read 4KB in [280,350] (got %.0f)" !cost)
    true
    (!cost > 280.0 && !cost < 350.0)

let test_write_fault_cost_range () =
  (* §4.2: writes cost 212-366 µs for 128 B depending on invalidations *)
  let no_inval = ref 0.0 and with_invals = ref 0.0 in
  let _dsm =
    scenario ~hosts:5 (fun dsm ->
        let x = Dsm.malloc dsm 128 in
        let y = Dsm.malloc dsm 128 in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            (* y has a single foreign copy: write transfers, no invals *)
            let t0 = Engine.now (Dsm.engine dsm) in
            Dsm.write_f64 ctx y 1.0;
            no_inval := Engine.now (Dsm.engine dsm) -. t0;
            Dsm.barrier ctx;
            Dsm.barrier ctx;
            (* now x has 3 read copies: write must invalidate them *)
            let t0 = Engine.now (Dsm.engine dsm) in
            Dsm.write_f64 ctx x 1.0;
            with_invals := Engine.now (Dsm.engine dsm) -. t0);
        for h = 2 to 4 do
          Dsm.spawn dsm ~host:h (fun ctx ->
              Dsm.barrier ctx;
              ignore (Dsm.read_f64 ctx x);
              Dsm.barrier ctx)
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "no-inval write in [190,260] (got %.0f)" !no_inval)
    true
    (!no_inval > 190.0 && !no_inval < 260.0);
  Alcotest.(check bool)
    (Printf.sprintf "3-inval write in [260,420] (got %.0f)" !with_invals)
    true
    (!with_invals > 260.0 && !with_invals < 420.0);
  Alcotest.(check bool) "invals cost more" true (!with_invals > !no_inval +. 30.0)

let test_competing_requests_counted () =
  let dsm =
    scenario ~hosts:3 (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        (* both hosts write-fault on x at the same instant: writes conflict,
           so the second queues *)
        Dsm.spawn dsm ~host:1 (fun ctx -> Dsm.write_f64 ctx x 1.0);
        Dsm.spawn dsm ~host:2 (fun ctx -> Dsm.write_f64 ctx x 2.0))
  in
  Alcotest.(check int) "one competing request" 1 (Dsm.competing_requests dsm)

let test_concurrent_reads_do_not_compete () =
  let dsm =
    scenario ~hosts:3 (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.spawn dsm ~host:1 (fun ctx -> ignore (Dsm.read_f64 ctx x));
        Dsm.spawn dsm ~host:2 (fun ctx -> ignore (Dsm.read_f64 ctx x)))
  in
  (* the manager forwards concurrent reads without queuing *)
  Alcotest.(check int) "no competing requests" 0 (Dsm.competing_requests dsm)

let test_prefetch_hides_latency () =
  let cold = ref 0.0 and prefetched = ref 0.0 in
  let _dsm =
    scenario (fun dsm ->
        let x = Dsm.malloc dsm 128 in
        let y = Dsm.malloc dsm 128 in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            let t0 = Engine.now (Dsm.engine dsm) in
            ignore (Dsm.read_f64 ctx x);
            cold := Engine.now (Dsm.engine dsm) -. t0;
            Dsm.prefetch ctx y Proto.Read;
            Dsm.compute ctx 1000.0;
            let t0 = Engine.now (Dsm.engine dsm) in
            ignore (Dsm.read_f64 ctx y);
            prefetched := Engine.now (Dsm.engine dsm) -. t0))
  in
  Alcotest.(check bool) "prefetched access is free" true (!prefetched < 1.0);
  Alcotest.(check bool) "cold access is not" true (!cold > 100.0)

let test_prefetch_fault_waits_correctly () =
  (* faulting on an in-flight prefetch blocks until the copy lands *)
  let v = ref 0.0 in
  let _dsm =
    scenario (fun dsm ->
        let x = Dsm.malloc dsm 128 in
        Dsm.init_write_f64 dsm x 9.0;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.prefetch ctx x Proto.Read;
            v := Dsm.read_f64 ctx x))
  in
  Alcotest.(check (float 0.0)) "value correct" 9.0 !v

let test_push_to_all () =
  let seen = Array.make 4 0.0 in
  let dsm =
    scenario ~hosts:4 (fun dsm ->
        let m = Dsm.malloc dsm 148 in
        Dsm.init_write_f64 dsm m 0.0;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.write_f64 ctx m 7.7;
            Dsm.push_to_all ctx m;
            Dsm.barrier ctx;
            seen.(1) <- Dsm.read_f64 ctx m);
        List.iter
          (fun h ->
            Dsm.spawn dsm ~host:h (fun ctx ->
                Dsm.barrier ctx;
                seen.(h) <- Dsm.read_f64 ctx m))
          [ 0; 2; 3 ])
  in
  Array.iteri
    (fun h v -> Alcotest.(check (float 0.0)) (Printf.sprintf "host %d" h) 7.7 v)
    seen;
  (* pushes mean the post-barrier reads fault nowhere *)
  Alcotest.(check int) "no read faults after push" 0 (Dsm.read_faults dsm)

let test_deadlock_detection () =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:2 ~config:fast_config () in
  Dsm.spawn dsm ~host:1 (fun ctx -> Dsm.lock ctx 3 (* never granted back *));
  Dsm.spawn dsm ~host:0 (fun ctx ->
      Dsm.lock ctx 3;
      (* holds forever: never unlocks, h1 starves *)
      ignore ctx);
  Alcotest.(check bool) "run reports stuck threads" true
    (try
       Dsm.run dsm;
       false
     with Dsm.Deadlock msg ->
       String.length msg > 0)

let test_breakdown_accounted () =
  let dsm =
    scenario (fun dsm ->
        let x = Dsm.malloc dsm 128 in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.compute ctx 500.0;
            ignore (Dsm.read_f64 ctx x);
            Dsm.write_f64 ctx x 1.0;
            Dsm.barrier ctx);
        Dsm.spawn dsm ~host:0 (fun ctx -> Dsm.barrier ctx))
  in
  let bd = Dsm.breakdown dsm ~host:1 in
  Alcotest.(check (float 1e-9)) "compute" 500.0 bd.Breakdown.compute;
  Alcotest.(check bool) "read fault time" true (bd.Breakdown.read_fault > 100.0);
  Alcotest.(check bool) "write fault time" true (bd.Breakdown.write_fault > 50.0);
  Alcotest.(check bool) "synch time" true (bd.Breakdown.synch > 10.0)

let test_wrong_view_access_rejected () =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:2 ~config:fast_config () in
  let x = Dsm.malloc dsm 64 in
  let _y = Dsm.malloc dsm 64 in
  (* y lives in view 1; accessing x's offset through view 1 is an
     application bug that the manager rejects *)
  let view_stride = 16 * 1024 * 1024 + 4096 in
  Dsm.spawn dsm ~host:1 (fun ctx -> ignore (Dsm.read_f64 ctx (x + view_stride)));
  Alcotest.(check bool) "manager detects wrong view" true
    (try
       Dsm.run dsm;
       false
     with Failure _ -> true)

let test_many_minipages_stress () =
  let n = 100 in
  let sum = ref 0.0 in
  let dsm =
    scenario ~hosts:4 (fun dsm ->
        let addrs = Dsm.malloc_array dsm ~count:n ~size:256 in
        Array.iteri (fun i a -> Dsm.init_write_f64 dsm a (float_of_int i)) addrs;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Array.iter (fun a -> Dsm.write_f64 ctx a (Dsm.read_f64 ctx a +. 1.0)) addrs;
            Dsm.barrier ctx);
        Dsm.spawn dsm ~host:2 (fun ctx ->
            Dsm.barrier ctx;
            sum := 0.0;
            Array.iter (fun a -> sum := !sum +. Dsm.read_f64 ctx a) addrs);
        Dsm.spawn dsm ~host:0 (fun ctx -> Dsm.barrier ctx);
        Dsm.spawn dsm ~host:3 (fun ctx -> Dsm.barrier ctx))
  in
  let expected = float_of_int (n * (n - 1) / 2 + n) in
  Alcotest.(check (float 0.001)) "sum correct" expected !sum;
  Alcotest.(check bool) "views bounded" true (Dsm.views_used dsm <= 32)

(* Memory objects are demand-zero and views share protection tables, so
   building a DSM costs kilowords, not the 16 MB object per host it maps.
   Its recorder's 4096-event ring is a bound that costs nothing until
   events land. *)
let test_create_allocation () =
  let words =
    Test_memsim.allocated_words (fun () ->
        let e = Engine.create () in
        ignore (Sys.opaque_identity (Dsm.create e ~hosts:4 ~config:Dsm.Config.default ())))
  in
  Alcotest.(check (float 609.0)) "words" 59_367.0 words

(* Words [Dsm.run] allocates while host 1 reads one f64 from each of [n]
   fresh 672-byte minipages, one SC read fault apiece. *)
let read_fault_run_words n =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:2 ~config:Dsm.Config.default () in
  let addrs = Array.init n (fun _ -> Dsm.malloc dsm 672) in
  Array.iteri (fun i a -> Dsm.init_write_f64 dsm a (float_of_int i)) addrs;
  let sum = ref 0.0 in
  Dsm.spawn dsm ~host:1 (fun ctx ->
      Array.iter (fun a -> sum := !sum +. Dsm.read_f64 ctx a) addrs);
  let words = Test_memsim.allocated_words (fun () -> Dsm.run dsm) in
  Alcotest.(check int) "one read fault each" n (Dsm.read_faults dsm);
  Alcotest.(check (float 0.0)) "values" (float_of_int (n * (n - 1) / 2)) !sum;
  words

(* The marginal cost of one SC read fault's round trip: fault, request,
   forward, reply and ack, five messages.  The reply's buffer and the
   fault's in-flight record and event are reused, so none of its words
   is a copy of the minipage; its in-flight key is an int, and the home's
   idempotence tables and read flight allocate nothing per request. *)
let test_read_fault_allocation () =
  let per_fault = (read_fault_run_words 2_000 -. read_fault_run_words 1_000) /. 1_000.0 in
  Alcotest.(check (float 0.5)) "words per read fault" 160.86 per_fault

(* Words [Dsm.run] allocates while host 1 takes and releases lock 3, homed
   at host 0, [n] times. *)
let lock_cycle_run_words n =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:2 ~config:Dsm.Config.default () in
  Dsm.spawn dsm ~host:1 (fun ctx ->
      for _ = 1 to n do
        Dsm.lock ctx 3;
        Dsm.unlock ctx 3
      done);
  let words = Test_memsim.allocated_words (fun () -> Dsm.run dsm) in
  Alcotest.(check int) "locks" n (Dsm.stats dsm).locks_acquired;
  words

(* The marginal lock/unlock cycle: three messages and their dispatches,
   the wait and its wake-up.  The thread reuses its one lock event, the
   home's lock state holds plain ints, and the breakdown charge reads the
   clock unboxed. *)
let test_lock_cycle_allocation () =
  let per_cycle = (lock_cycle_run_words 2_000 -. lock_cycle_run_words 1_000) /. 1_000.0 in
  Alcotest.(check (float 0.5)) "words per lock/unlock cycle" 49.0 per_cycle

(* Words [Dsm.run] allocates while host 2 reads each of [n] fresh 672-byte
   minipages and then, past a barrier and when [write], host 1 writes each
   of them: an SC write fault whose data comes from host 0 and which
   invalidates one reader, host 2. *)
let write_fault_run_words ~write n =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:3 ~config:Dsm.Config.default () in
  let addrs = Array.init n (fun _ -> Dsm.malloc dsm 672) in
  Array.iteri (fun i a -> Dsm.init_write_f64 dsm a (float_of_int i)) addrs;
  Dsm.spawn dsm ~host:0 (fun ctx -> Dsm.barrier ctx);
  Dsm.spawn dsm ~host:2 (fun ctx ->
      Array.iter (fun a -> ignore (Sys.opaque_identity (Dsm.read_f64 ctx a))) addrs;
      Dsm.barrier ctx);
  Dsm.spawn dsm ~host:1 (fun ctx ->
      Dsm.barrier ctx;
      if write then Array.iter (fun a -> Dsm.write_f64 ctx a 1.0) addrs);
  let words = Test_memsim.allocated_words (fun () -> Dsm.run dsm) in
  Alcotest.(check int) "one read fault each" n (Dsm.read_faults dsm);
  Alcotest.(check int) "one write fault each" (if write then n else 0) (Dsm.write_faults dsm);
  words

(* The marginal cost of one SC write fault that invalidates one reader:
   fault, request, invalidation and its reply, forward, reply and ack,
   seven messages.  The marginal words of a read-then-write pair, less
   those of the read alone. *)
let test_write_fault_allocation () =
  let marginal write =
    (write_fault_run_words ~write 2_000 -. write_fault_run_words ~write 1_000) /. 1_000.0
  in
  let per_fault = marginal true -. marginal false in
  Alcotest.(check (float 0.5)) "words per write fault" 190.86 per_fault

(* The spans of [obs]'s FORWARD events and of its ACK events, in order, and
   the minipage the forwards name. *)
let forwards_and_acks obs =
  let events = Mp_obs.Recorder.events obs in
  let spans pick = List.filter_map (fun (ev : Mp_obs.Event.t) -> pick ev) events in
  ( spans (fun ev ->
        match ev.kind with Mp_obs.Event.Forward _ -> Some ev.span | _ -> None),
    spans (fun ev -> match ev.kind with Mp_obs.Event.Ack _ -> Some ev.span | _ -> None),
    List.fold_left
      (fun acc (ev : Mp_obs.Event.t) ->
        match ev.kind with Mp_obs.Event.Forward { mp_id; _ } -> mp_id | _ -> acc)
      (-1) events )

(* Hosts 1, 2 and 3 read one minipage homed at host 0, which forwards each
   read to its owner in arrival order.  Host 1 asks first, but a second
   thread of it computes while its reply lands, so under NT polling it
   picks the reply up late and acks last.  With [stray], host 3 then sends
   an ACK for a request nobody made while host 1's read is still in
   flight. *)
let ack_order_run ~stray =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:4 ~config:Dsm.Config.default () in
  let obs = Dsm.obs dsm in
  Mp_obs.Recorder.set_capacity obs 4096;
  Mp_obs.Recorder.set_enabled obs true;
  let a = Dsm.malloc dsm 672 in
  Dsm.init_write_f64 dsm a 7.0;
  let got = Array.make 4 0.0 in
  Dsm.spawn dsm ~host:1 (fun ctx -> got.(1) <- Dsm.read_f64 ctx a);
  Dsm.spawn dsm ~host:1 (fun ctx -> Dsm.compute ctx 5_000.0);
  for h = 2 to 3 do
    Dsm.spawn dsm ~host:h (fun ctx ->
        Dsm.compute ctx (float_of_int (10 * h));
        got.(h) <- Dsm.read_f64 ctx a;
        if stray && h = 3 then begin
          let _, _, mp_id = forwards_and_acks obs in
          Dsm.Testonly.inject dsm ~src:3 ~dst:0
            (Proto.Ack { req_id = 1_000_000; mp_id; from = 3 })
        end)
  done;
  Dsm.run dsm;
  (got, obs)

(* Each ACK removes its own read flight, whatever order the acks come in,
   and a stray ACK still fails the run. *)
let test_acks_out_of_serve_order () =
  let got, obs = ack_order_run ~stray:false in
  Alcotest.(check (array (float 0.0))) "every reader saw the value" [| 0.0; 7.0; 7.0; 7.0 |] got;
  let forwards, acks, _ = forwards_and_acks obs in
  Alcotest.(check int) "three reads served" 3 (List.length forwards);
  Alcotest.(check (list int)) "each serve acked once" (List.sort compare forwards)
    (List.sort compare acks);
  Alcotest.(check bool) "acks arrive out of serve order" true (acks <> forwards);
  Alcotest.(check int) "the first served acks last" (List.hd forwards) (List.nth acks 2);
  Alcotest.(check (list string)) "no invariant violations" []
    (Mp_obs.Invariants.check (Mp_obs.Recorder.events obs));
  match ack_order_run ~stray:true with
  | _ -> Alcotest.fail "a stray ACK was accepted"
  | exception Failure msg -> Alcotest.(check string) "stray ACK" "millipage: unexpected ACK" msg

(* Faults that join one in flight share its record, which is reused only
   once its last waiter has read it.  Two threads of host 1 read each of [n]
   minipages together, so each fault has two waiters.  After each read the
   first thread prefetches the next minipage, so every later fault joins a
   prefetch; that prefetch takes its record while the other thread has yet
   to read the record of the fault just served. *)
let test_joined_faults () =
  let n = 30 in
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:2 ~config:Dsm.Config.default () in
  let addrs = Array.init n (fun _ -> Dsm.malloc dsm 672) in
  Array.iteri (fun i a -> Dsm.init_write_f64 dsm a (float_of_int i)) addrs;
  let sums = Array.make 2 0.0 and first_fault = ref 0.0 in
  for k = 0 to 1 do
    Dsm.spawn dsm ~host:1 (fun ctx ->
        for i = 0 to n - 1 do
          let t0 = Engine.now e in
          sums.(k) <- sums.(k) +. Dsm.read_f64 ctx addrs.(i);
          if k = 0 then begin
            if i = 0 then first_fault := Engine.now e -. t0;
            if i + 1 < n then Dsm.prefetch ctx addrs.(i + 1) Proto.Read
          end
        done)
  done;
  Dsm.run dsm;
  let expected = float_of_int (n * (n - 1) / 2) in
  Alcotest.(check (float 0.0)) "values, first thread" expected sums.(0);
  Alcotest.(check (float 0.0)) "values, second thread" expected sums.(1);
  Alcotest.(check int) "read faults" (2 * n) (Dsm.read_faults dsm);
  (* the first minipage's two faults are the only ones that joined no
     prefetch, and both lasted [!first_fault] *)
  Alcotest.(check (float 0.0)) "read-fault time" (2.0 *. !first_fault)
    (Dsm.breakdown dsm ~host:1).Breakdown.read_fault

(* One label per body constructor, [Tack], and every log record inside a
   [Log_append]: the strings the profiler and exporters have always seen. *)
let label_table =
  let open Proto in
  let info = { mp_id = 17; base_off = 4096; length = 672; mp_view = 3 } in
  let data = Bytes.make 40 'x' in
  let diff =
    let twin = Bytes.make 64 '\000' in
    let current = Bytes.copy twin in
    Bytes.set current 3 'a';
    Bytes.set current 40 'b';
    Bytes.set current 41 'c';
    Twin_diff.diff ~twin ~current
  in
  let data_packet body = Data { seq = 3; body } in
  let log lseq record = data_packet (Log_append { primary = 1; lseq; record }) in
  [
    (data_packet (Request { req_id = 5; from = 1; access = Read; addr = 1234567 }),
     "REQUEST(read @1234567)");
    (data_packet (Request { req_id = 6; from = 2; access = Write; addr = 0 }),
     "REQUEST(write @0)");
    (data_packet (Forward { req_id = 5; from = 1; access = Write; info }), "FORWARD(write mp17)");
    (data_packet (Reply_header { req_id = 5; access = Read; info }), "REPLY_HDR(mp17)");
    (data_packet (Reply_data { req_id = 5; access = Read; info; data }), "REPLY_DATA(mp17)");
    (data_packet (Write_grant { req_id = 7; info }), "WRITE_GRANT(mp17)");
    (data_packet (Invalidate { req_id = 7; info }), "INVALIDATE(mp17)");
    (data_packet (Invalidate_reply { req_id = 7; mp_id = 9; from = 2 }), "INVALIDATE_REPLY(mp9)");
    (data_packet (Ack { req_id = 7; mp_id = 123; from = 3 }), "ACK(mp123)");
    (data_packet (Home_redirect { req_id = 8; mp_id = 4; home = 6 }), "HOME_REDIRECT(mp4 -> h6)");
    (data_packet (Barrier_enter { from = 2; tid = 11; phase = 10 }), "BARRIER_ENTER(h2 p10)");
    (data_packet (Barrier_release { phase = 10 }), "BARRIER_RELEASE(p10)");
    (data_packet (Lock_acquire { req_id = 9; from = 3; tid = 4; lock = 21 }), "LOCK_ACQ(l21 h3)");
    (data_packet (Lock_grant { lock = 21; tid = 4 }), "LOCK_GRANT(l21)");
    (data_packet (Lock_release { from = 3; lock = 21 }), "LOCK_REL(l21 h3)");
    (data_packet (Push { req_id = 12; from = 0; info; data }), "PUSH(mp17)");
    (data_packet (Push_update { info; data }), "PUSH_UPDATE(mp17)");
    (data_packet (Push_update_ack { mp_id = 17; from = 5 }), "PUSH_UPDATE_ACK(mp17)");
    (data_packet (Push_complete { req_id = 12 }), "PUSH_COMPLETE");
    (data_packet (Group_fetch { req_id = 13; from = 1; group_id = 2 }), "GROUP_FETCH(g2 h1)");
    (data_packet (Group_plan { req_id = 13; batches = 3 }), "GROUP_PLAN(3 batches)");
    (data_packet (Forward_group { req_id = 13; from = 1; members = [ info; info ] }),
     "FORWARD_GROUP(2 minipages)");
    (data_packet (Group_data { req_id = 13; members = [ (info, data) ] }),
     "GROUP_DATA(1 minipages)");
    (data_packet (Group_ack { req_id = 13; from = 1; mp_ids = [ 1; 2; 3; 4 ] }),
     "GROUP_ACK(4 minipages)");
    (data_packet (Group_replan { req_id = 13; drop = 2 }), "GROUP_REPLAN(-2 batches)");
    (data_packet (Rc_data { req_id = 14; access = Write; info; epoch = 2; data }),
     "REPLY_RC(mp17)");
    (data_packet (Rc_diff { req_id = 15; from = 2; mp_id = 17; epoch = 2; diff }),
     "DIFF_DATA(mp17)");
    (data_packet (Rc_diff_ack { req_id = 15; mp_id = 17 }), "DIFF_ACK(mp17)");
    (data_packet (Mode_switch { mp_id = 17; epoch = 3; mode = Rc; info }),
     "MODE_SWITCH(mp17 rc e3)");
    (data_packet (Mode_switch { mp_id = 17; epoch = 4; mode = Sc; info }),
     "MODE_SWITCH(mp17 sc e4)");
    (data_packet (Mode_ack { mp_id = 17; epoch = 3; from = 2; data = Some data }),
     "MODE_ACK(mp17 e3 +data)");
    (data_packet (Mode_ack { mp_id = 17; epoch = 4; from = 2; data = None }), "MODE_ACK(mp17 e4)");
    (data_packet (Heartbeat { from = 3; beat = 250 }), "HEARTBEAT(h3 b250)");
    (data_packet (Dead_notice { dead = -1 }), "DEAD_NOTICE(h-1)");
    (log 1 (L_admit { req_id = 5; mp_id = 17 }), "LOG_APPEND(h1 #1 admit r5 mp17)");
    (log 2 (L_complete { req_id = 5; at = 812.5 }), "LOG_APPEND(h1 #2 complete r5)");
    (log 3 (L_state { mp_id = 17; owner = 2; copyset = [ 0; 2 ] }),
     "LOG_APPEND(h1 #3 state mp17 o2 c2)");
    (log 4 (L_shadow { mp_id = 17; data }), "LOG_APPEND(h1 #4 shadow mp17 40B)");
    (log 5 (L_mode { mp_id = 17; mode = Rc; epoch = 3 }), "LOG_APPEND(h1 #5 mode mp17 rc e3)");
    (log 6 (L_diff { mp_id = 17; diff }), "LOG_APPEND(h1 #6 diff mp17 19B)");
    (Tack { seq = 42 }, "TACK(s42)");
  ]

let test_protocol_labels () =
  List.iter
    (fun (packet, label) ->
      Alcotest.(check string) label label (Proto.describe packet))
    label_table

(* A label is formatted for every recorded message, so it costs the few
   strings it concatenates, not a [Printf] interpretation. *)
let test_label_allocation () =
  let body = Proto.Request { req_id = 5; from = 1; access = Proto.Read; addr = 1234567 } in
  let words =
    Test_memsim.allocated_words (fun () ->
        ignore (Sys.opaque_identity (Proto.describe body)))
  in
  Alcotest.(check bool) (Printf.sprintf "%.0f words <= 16" words) true (words <= 16.0)

let suite =
  [
    Alcotest.test_case "read sharing" `Quick test_read_sharing;
    Alcotest.test_case "second read hits" `Quick test_second_read_hits;
    Alcotest.test_case "write invalidates readers" `Quick test_write_invalidates_readers;
    Alcotest.test_case "write upgrade without data" `Quick test_write_upgrade_no_data;
    Alcotest.test_case "no false sharing" `Quick test_no_false_sharing;
    Alcotest.test_case "page grain ping-pong" `Quick test_page_grain_false_sharing_ping_pong;
    Alcotest.test_case "SC lock counter" `Quick test_sequential_consistency_lock_counter;
    Alcotest.test_case "barrier synchronizes" `Quick test_barrier_synchronizes;
    Alcotest.test_case "lock mutual exclusion" `Quick test_lock_mutual_exclusion_timing;
    Alcotest.test_case "read fault cost 128B" `Quick test_read_fault_cost_128;
    Alcotest.test_case "read fault cost 4KB" `Quick test_read_fault_cost_4k;
    Alcotest.test_case "write fault cost range" `Quick test_write_fault_cost_range;
    Alcotest.test_case "competing requests" `Quick test_competing_requests_counted;
    Alcotest.test_case "concurrent reads don't compete" `Quick
      test_concurrent_reads_do_not_compete;
    Alcotest.test_case "prefetch hides latency" `Quick test_prefetch_hides_latency;
    Alcotest.test_case "prefetch fault waits" `Quick test_prefetch_fault_waits_correctly;
    Alcotest.test_case "push to all" `Quick test_push_to_all;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "breakdown accounting" `Quick test_breakdown_accounted;
    Alcotest.test_case "wrong view rejected" `Quick test_wrong_view_access_rejected;
    Alcotest.test_case "many minipages stress" `Quick test_many_minipages_stress;
    Alcotest.test_case "create allocation" `Quick test_create_allocation;
    Alcotest.test_case "read fault allocation" `Quick test_read_fault_allocation;
    Alcotest.test_case "joined faults and a prefetch" `Quick test_joined_faults;
    Alcotest.test_case "protocol labels" `Quick test_protocol_labels;
    Alcotest.test_case "label allocation" `Quick test_label_allocation;
    Alcotest.test_case "lock cycle allocation" `Quick test_lock_cycle_allocation;
    Alcotest.test_case "write fault allocation" `Quick test_write_fault_allocation;
    Alcotest.test_case "acks out of serve order" `Quick test_acks_out_of_serve_order;
  ]
