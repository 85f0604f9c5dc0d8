(* Fault injection and the reliable transport: fabric-level drop/dup/reorder
   units, the stale-poll and crashing-process engine regressions, and
   end-to-end properties that the Millipage protocol survives an unreliable
   network with the invariant checker clean. *)

open Mp_sim
open Mp_net
open Mp_millipage

(* ---------------- fabric fault injection ---------------- *)

let with_faulty_fabric ?(hosts = 2) ?(polling = Polling.Fast) ?faults ?fault_seed f =
  let e = Engine.create () in
  let fab = Fabric.create e ~hosts ~polling ?faults ?fault_seed () in
  f e fab;
  Engine.run e;
  fab

(* Spaced sends of indexed bodies; returns delivered indices in handling
   order. *)
let delivered_indices ?faults ?fault_seed n =
  let got = ref [] in
  let _fab =
    with_faulty_fabric ?faults ?fault_seed (fun e fab ->
        Fabric.set_handler fab ~host:1 (fun m -> got := m.Fabric.body :: !got);
        Engine.spawn e (fun () ->
            for i = 0 to n - 1 do
              Fabric.send fab ~src:0 ~dst:1 ~bytes:32 i;
              Engine.delay 50.0
            done))
  in
  List.rev !got

let test_no_faults_is_off () =
  Alcotest.(check bool) "no_faults inactive" false (Fabric.faults_active Fabric.no_faults);
  let fab = with_faulty_fabric (fun _ _ -> ()) in
  Alcotest.(check bool) "fabric not faulty" false (Fabric.faulty fab)

let test_drop_rate_and_determinism () =
  let faults = { Fabric.no_faults with drop = 0.3 } in
  let a = delivered_indices ~faults ~fault_seed:11 500 in
  let b = delivered_indices ~faults ~fault_seed:11 500 in
  let c = delivered_indices ~faults ~fault_seed:12 500 in
  let n = List.length a in
  Alcotest.(check bool) "some dropped" true (n < 500);
  Alcotest.(check bool) "most survive" true (n > 250);
  Alcotest.(check (list int)) "same seed, same schedule" a b;
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_duplicates_counted () =
  let faults = { Fabric.no_faults with duplicate = 0.5 } in
  let got = delivered_indices ~faults ~fault_seed:3 200 in
  let fab =
    with_faulty_fabric ~faults ~fault_seed:3 (fun e fab ->
        Fabric.set_handler fab ~host:1 (fun _ -> ());
        Engine.spawn e (fun () ->
            for i = 0 to 199 do
              Fabric.send fab ~src:0 ~dst:1 ~bytes:32 i;
              Engine.delay 50.0
            done))
  in
  let dups = (Fabric.stats fab).duplicated in
  Alcotest.(check bool) "some duplicated" true (dups > 0);
  Alcotest.(check int) "every copy delivered" (200 + dups) (List.length got)

let test_reorder_overtakes () =
  (* a big message followed by a small one: FIFO forbids overtaking, a
     reordered copy escapes the clamp and lands first on raw latency *)
  let faults = { Fabric.no_faults with reorder = 1.0 } in
  let got = ref [] in
  let fab =
    with_faulty_fabric ~faults (fun e fab ->
        Fabric.set_handler fab ~host:1 (fun m -> got := m.Fabric.body :: !got);
        Engine.spawn e (fun () ->
            Fabric.send fab ~src:0 ~dst:1 ~bytes:4096 1;
            Fabric.send fab ~src:0 ~dst:1 ~bytes:32 2))
  in
  Alcotest.(check (list int)) "small overtook big" [ 2; 1 ] (List.rev !got);
  Alcotest.(check int) "counted" 1 (Fabric.stats fab).reordered

let test_jitter_delays_but_keeps_all () =
  let faults = { Fabric.no_faults with jitter_us = 500.0 } in
  let delays = ref [] in
  let _fab =
    with_faulty_fabric ~faults ~fault_seed:4 (fun e fab ->
        Fabric.set_handler fab ~host:1 (fun m ->
            delays := (Engine.now e -. float_of_int m.Fabric.body) :: !delays);
        Engine.spawn e (fun () ->
            for _ = 1 to 20 do
              Fabric.send fab ~src:0 ~dst:1 ~bytes:32 (int_of_float (Engine.now e));
              Engine.delay 1000.0
            done))
  in
  Alcotest.(check int) "lossless" 20 (List.length !delays);
  List.iter
    (fun d ->
      if d < Fabric.default_latency ~bytes:32 -. 0.01 then
        Alcotest.failf "delivered faster than the wire: %.2f" d)
    !delays;
  Alcotest.(check bool) "some jitter materialized" true
    (List.exists (fun d -> d > 100.0) !delays)

let test_bad_rates_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "drop >= 1"
    (Invalid_argument "Fabric.create: faults")
    (fun () ->
      ignore
        (Fabric.create e ~hosts:2 ~faults:{ Fabric.no_faults with drop = 1.0 } ()))

(* ---------------- stale-poll regression (satellite 1) ---------------- *)

(* Deterministic sweeper: a tick exactly every 1000 µs. *)
let det_nt =
  Polling.Nt_timer
    { p_short = 0.0; short_lo = 0.0; short_hi = 0.0; long_lo = 1000.0; long_hi = 1000.0 }

let test_stale_poll_timer_is_noop () =
  let e = Engine.create () in
  let fab = Fabric.create e ~hosts:2 ~polling:det_nt () in
  let obs = Mp_obs.Recorder.create () in
  Mp_obs.Recorder.set_enabled obs true;
  Fabric.attach_obs fab ~obs ~describe:(fun _ -> "msg");
  let handled = ref [] in
  Fabric.set_handler fab ~host:1 (fun _ -> handled := Engine.now e :: !handled);
  Fabric.set_busy fab ~host:1 true;
  Engine.spawn e (fun () ->
      (* message arrives ~12 µs; the busy host arms a sweeper wake at 1000 *)
      Fabric.send fab ~src:0 ~dst:1 ~bytes:32 ();
      (* going idle at 50 arms an earlier poll (~52) that supersedes it *)
      Engine.delay 50.0;
      Fabric.set_busy fab ~host:1 false;
      Engine.delay 10.0;
      Fabric.set_busy fab ~host:1 true;
      (* second message while busy: picked up at the 2000 µs tick *)
      Engine.delay 1440.0;
      Fabric.send fab ~src:0 ~dst:1 ~bytes:32 ());
  Engine.run e;
  let times = List.rev !handled in
  (match times with
  | [ t1; t2 ] ->
    Alcotest.(check bool) "first picked up right after idle" true
      (t1 > 50.0 && t1 < 80.0);
    Alcotest.(check bool) "second waits for the real tick" true
      (Float.abs (t2 -. 2000.0) < 10.0)
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l));
  (* the superseded 1000 µs timer must not fire a busy sweeper wake: exactly
     one wake (the 2000 µs tick that picked up the second message) *)
  let wakes =
    List.filter
      (fun ev -> ev.Mp_obs.Event.kind = Mp_obs.Event.Sweeper_wake)
      (Mp_obs.Recorder.events obs)
  in
  Alcotest.(check int) "no spurious sweeper wake" 1 (List.length wakes)

(* ---------------- crashing process keeps live balanced (satellite 2) --- *)

let test_crashing_process_releases_live () =
  let e = Engine.create () in
  Alcotest.(check int) "starts at zero" 0 (Engine.live e);
  Engine.spawn e ~name:"crasher" (fun () ->
      Engine.delay 10.0;
      failwith "boom");
  (match Engine.run e with
  | () -> Alcotest.fail "expected the crash to propagate"
  | exception Failure msg -> Alcotest.(check string) "the crash" "boom" msg);
  Alcotest.(check int) "live back to pre-run value" 0 (Engine.live e)

(* ---------------- directory idempotence ---------------- *)

let test_directory_dedupes_requests () =
  let d = Directory.create ~initial_owner:0 in
  Alcotest.(check bool) "first sighting" true (Directory.note_request d ~req_id:7);
  Alcotest.(check bool) "duplicate" false (Directory.note_request d ~req_id:7);
  Alcotest.(check bool) "other requests unaffected" true
    (Directory.note_request d ~req_id:8);
  Alcotest.(check bool) "not completed yet" false (Directory.completed d ~req_id:7);
  Directory.mark_completed d ~req_id:7 ~now:0.0;
  Alcotest.(check bool) "completed" true (Directory.completed d ~req_id:7)

(* ---------------- end-to-end: millipage over a faulty fabric ---------- *)

let run_sor ~hosts ~faults ~net_seed ~polling =
  let e = Engine.create () in
  let config =
    {
      Dsm.Config.default with
      polling;
      net = { Dsm.Config.Net.default with faults; seed = net_seed };
      seed = 2;
    }
  in
  let dsm = Dsm.create e ~hosts ~config () in
  let obs = Dsm.obs dsm in
  Mp_obs.Recorder.set_capacity obs (1 lsl 20);
  Mp_obs.Recorder.set_enabled obs true;
  let module A = Mp_apps.Sor.Make (Mp_dsm.Millipage_impl) in
  let h = A.setup dsm { Mp_apps.Sor.default_params with rows = 32; iterations = 3 } in
  Dsm.run dsm;
  (dsm, A.verify h, Mp_obs.Invariants.check (Mp_obs.Recorder.events obs))

let test_sor_survives_loss () =
  let faults = { Fabric.no_faults with drop = 0.1 } in
  let dsm, ok, violations = run_sor ~hosts:2 ~faults ~net_seed:5 ~polling:Polling.Fast in
  Alcotest.(check bool) "verified" true ok;
  Alcotest.(check (list string)) "invariants clean" [] violations;
  Alcotest.(check bool) "losses actually happened" true (Dsm.net_dropped dsm > 0);
  Alcotest.(check bool) "recovered by retransmission" true ((Dsm.stats dsm).retransmits > 0)

let test_sor_survives_duplication () =
  let faults = { Fabric.no_faults with duplicate = 0.2 } in
  let dsm, ok, violations = run_sor ~hosts:2 ~faults ~net_seed:5 ~polling:Polling.Fast in
  Alcotest.(check bool) "verified" true ok;
  Alcotest.(check (list string)) "invariants clean" [] violations;
  Alcotest.(check bool) "duplicates suppressed" true ((Dsm.stats dsm).dups_suppressed > 0)

(* Every message is duplicated, and some are dropped or reordered, so
   replies are retransmitted and duplicated while their buffers carry later
   replies.  Three threads per host keep several replies in flight both
   ways: in turn [g], host [h]'s threads check every f64 of their share of
   group [(g + h) mod 2] and overwrite it, and every value read must be the
   last one written. *)
let test_reply_buffers_under_dup_and_loss () =
  let faults = { Fabric.no_faults with drop = 0.05; duplicate = 1.0; reorder = 0.1 } in
  let e = Engine.create () in
  let config =
    {
      Dsm.Config.default with
      polling = Polling.Fast;
      net = { Dsm.Config.Net.default with faults; seed = 7 };
    }
  in
  let dsm = Dsm.create e ~hosts:2 ~config () in
  let threads = 3 and per_thread = 4 and slots = 84 and turns = 6 in
  let group = threads * per_thread in
  let mps = Array.init (2 * group) (fun _ -> Dsm.malloc dsm (8 * slots)) in
  let value gen i j = float_of_int ((gen * 100_000) + (i * 100) + j) in
  Array.iteri
    (fun i a ->
      for j = 0 to slots - 1 do
        Dsm.init_write_f64 dsm (a + (8 * j)) (value 0 i j)
      done)
    mps;
  let reads = ref 0 and bad = ref 0 in
  for host = 0 to 1 do
    for k = 0 to threads - 1 do
      Dsm.spawn dsm ~host (fun ctx ->
          for g = 0 to turns - 1 do
            let first = ((g + host) mod 2 * group) + (k * per_thread) in
            for i = first to first + per_thread - 1 do
              for j = 0 to slots - 1 do
                incr reads;
                if Dsm.read_f64 ctx (mps.(i) + (8 * j)) <> value g i j then incr bad
              done;
              for j = 0 to slots - 1 do
                Dsm.write_f64 ctx (mps.(i) + (8 * j)) (value (g + 1) i j)
              done
            done;
            Dsm.barrier ctx
          done)
    done
  done;
  Dsm.run dsm;
  Alcotest.(check int) "values read" (turns * 2 * group * slots) !reads;
  Alcotest.(check int) "stale values" 0 !bad;
  Alcotest.(check bool) "duplicates suppressed" true ((Dsm.stats dsm).dups_suppressed > 0);
  Alcotest.(check bool) "losses retransmitted" true ((Dsm.stats dsm).retransmits > 0)

(* ---------------- qcheck properties ---------------- *)

(* Fault-free delivery is per-channel FIFO and lossless, for any message
   sizes and send spacing. *)
let qcheck_fault_free_fifo_lossless =
  QCheck.Test.make ~count:50 ~name:"fault-free fabric is FIFO and lossless"
    QCheck.(
      list_of_size Gen.(1 -- 40) (pair (int_range 32 4096) (int_range 0 100)))
    (fun plan ->
      let e = Engine.create () in
      let fab = Fabric.create e ~hosts:2 ~polling:Polling.Fast () in
      let got = ref [] in
      Fabric.set_handler fab ~host:1 (fun m -> got := m.Fabric.body :: !got);
      Engine.spawn e (fun () ->
          List.iteri
            (fun i (bytes, gap) ->
              Fabric.send fab ~src:0 ~dst:1 ~bytes i;
              Engine.delay (float_of_int gap))
            plan);
      Engine.run e;
      List.rev !got = List.init (List.length plan) Fun.id)

(* Under loss/dup/reorder up to 20 %, a traced SOR run still verifies and
   the invariant checker stays clean. *)
let qcheck_invariants_clean_under_faults =
  QCheck.Test.make ~count:15 ~name:"invariant checker clean at rates up to 20%"
    QCheck.(
      quad (float_bound_inclusive 0.2) (float_bound_inclusive 0.2)
        (float_bound_inclusive 0.2) (int_bound 1000))
    (fun (drop, duplicate, reorder, net_seed) ->
      let faults = { Fabric.no_faults with drop; duplicate; reorder } in
      let _dsm, ok, violations =
        run_sor ~hosts:2 ~faults ~net_seed ~polling:Polling.Fast
      in
      ok && violations = [])

(* ---------------- soak sweep: hosts × fault rates ---------------- *)

let test_soak_sweep () =
  let rates =
    [
      ("loss", { Fabric.no_faults with drop = 0.05 });
      ("dup", { Fabric.no_faults with duplicate = 0.05 });
      ("reorder", { Fabric.no_faults with reorder = 0.2 });
      ("mixed", { Fabric.no_faults with drop = 0.1; duplicate = 0.05; reorder = 0.1 });
    ]
  in
  List.iter
    (fun hosts ->
      List.iter
        (fun (name, faults) ->
          (* NT polling: the retransmission timeout has to coexist with slow
             sweeper pickup on busy hosts *)
          let _dsm, ok, violations =
            run_sor ~hosts ~faults ~net_seed:42 ~polling:Polling.nt_mode
          in
          if not ok then Alcotest.failf "%s @ %d hosts: result mismatch" name hosts;
          match violations with
          | [] -> ()
          | v :: _ ->
            Alcotest.failf "%s @ %d hosts: %d violation(s), first: %s" name hosts
              (List.length violations) v)
        rates)
    [ 2; 4; 8 ]

let suite =
  [
    Alcotest.test_case "no faults is off" `Quick test_no_faults_is_off;
    Alcotest.test_case "drop rate + determinism" `Quick test_drop_rate_and_determinism;
    Alcotest.test_case "duplicates counted" `Quick test_duplicates_counted;
    Alcotest.test_case "reorder overtakes" `Quick test_reorder_overtakes;
    Alcotest.test_case "jitter" `Quick test_jitter_delays_but_keeps_all;
    Alcotest.test_case "bad rates rejected" `Quick test_bad_rates_rejected;
    Alcotest.test_case "stale poll timer is no-op" `Quick test_stale_poll_timer_is_noop;
    Alcotest.test_case "crashing process releases live" `Quick
      test_crashing_process_releases_live;
    Alcotest.test_case "directory request dedupe" `Quick test_directory_dedupes_requests;
    Alcotest.test_case "sor survives loss" `Quick test_sor_survives_loss;
    Alcotest.test_case "sor survives duplication" `Quick test_sor_survives_duplication;
    Alcotest.test_case "reply buffers under dup + loss" `Quick
      test_reply_buffers_under_dup_and_loss;
    QCheck_alcotest.to_alcotest qcheck_fault_free_fifo_lossless;
    QCheck_alcotest.to_alcotest qcheck_invariants_clean_under_faults;
    Alcotest.test_case "soak sweep 2-8 hosts" `Slow test_soak_sweep;
  ]
