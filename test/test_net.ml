open Mp_sim
open Mp_net

let test_latency_calibration () =
  (* Table 1: 32 B ≈ 12 µs, 0.5 KB ≈ 22 µs, 1 KB ≈ 34 µs, 4 KB ≈ 90 µs *)
  let l bytes = Fabric.default_latency ~bytes in
  Alcotest.(check bool) "32B" true (Float.abs (l 32 -. 12.0) < 1.0);
  Alcotest.(check bool) "512B" true (Float.abs (l 512 -. 22.0) < 2.0);
  Alcotest.(check bool) "1KB" true (Float.abs (l 1024 -. 34.0) < 3.0);
  Alcotest.(check bool) "4KB" true (Float.abs (l 4096 -. 90.0) < 5.0)

let with_fabric ?polling ?(hosts = 2) f =
  let e = Engine.create () in
  let fab = Fabric.create e ~hosts ?polling () in
  f e fab;
  Engine.run e

let test_message_delivery () =
  with_fabric ~polling:Polling.Fast (fun e fab ->
      let got = ref None in
      Fabric.set_handler fab ~host:1 (fun m -> got := Some (m.Fabric.body, Engine.now e));
      Engine.spawn e (fun () -> Fabric.send fab ~src:0 ~dst:1 ~bytes:32 "hello");
      Engine.schedule e ~at:1000.0 (fun () ->
          match !got with
          | Some ("hello", at) ->
            (* wire ≈ 12 µs + 2 µs idle poll *)
            if Float.abs (at -. 14.0) > 1.5 then
              Alcotest.failf "delivered at %.1f, expected ~14" at
          | Some _ | None -> Alcotest.fail "message not delivered"))

let test_fifo_per_channel () =
  with_fabric ~polling:Polling.Fast (fun e fab ->
      let got = ref [] in
      Fabric.set_handler fab ~host:1 (fun m -> got := m.Fabric.body :: !got);
      Engine.spawn e (fun () ->
          (* big then small: the small one must NOT overtake *)
          Fabric.send fab ~src:0 ~dst:1 ~bytes:4096 1;
          Fabric.send fab ~src:0 ~dst:1 ~bytes:32 2;
          Fabric.send fab ~src:0 ~dst:1 ~bytes:32 3);
      Engine.schedule e ~at:10000.0 (fun () ->
          Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)))

let test_sequential_handling () =
  with_fabric ~polling:Polling.Fast (fun e fab ->
      let active = ref 0 and overlap = ref false and handled = ref 0 in
      Fabric.set_handler fab ~host:1 (fun _ ->
          incr active;
          if !active > 1 then overlap := true;
          Engine.delay 50.0;
          decr active;
          incr handled);
      Engine.spawn e (fun () ->
          for i = 1 to 5 do
            Fabric.send fab ~src:0 ~dst:1 ~bytes:32 i
          done);
      Engine.schedule e ~at:100000.0 (fun () ->
          Alcotest.(check int) "all handled" 5 !handled;
          Alcotest.(check bool) "no overlap" false !overlap))

let test_busy_host_waits_for_sweeper () =
  with_fabric (fun e fab ->
      let delays = ref [] in
      Fabric.set_handler fab ~host:1 (fun m ->
          delays := (Engine.now e -. float_of_int m.Fabric.body) :: !delays);
      Fabric.set_busy fab ~host:1 true;
      Engine.spawn e (fun () ->
          for _ = 1 to 200 do
            Fabric.send fab ~src:0 ~dst:1 ~bytes:32 (int_of_float (Engine.now e));
            Engine.delay 5000.0
          done);
      Engine.schedule e ~at:2_000_000.0 (fun () ->
          let n = List.length !delays in
          Alcotest.(check bool) "handled most" true (n > 150);
          let mean = List.fold_left ( +. ) 0.0 !delays /. float_of_int n in
          (* wire 12 + busy wait ≈ 500 µs on average *)
          if mean < 200.0 || mean > 900.0 then
            Alcotest.failf "mean busy service delay %.0f outside [200,900]" mean))

let test_idle_host_fast_pickup () =
  with_fabric (fun e fab ->
      let at = ref 0.0 in
      Fabric.set_handler fab ~host:1 (fun _ -> at := Engine.now e);
      Engine.spawn e (fun () ->
          Engine.delay 100.0;
          Fabric.send fab ~src:0 ~dst:1 ~bytes:32 ());
      Engine.schedule e ~at:10_000.0 (fun () ->
          Alcotest.(check bool) "fast pickup when idle" true (!at -. 100.0 < 20.0)))

let test_set_idle_rearms_poller () =
  with_fabric (fun e fab ->
      let at = ref infinity in
      Fabric.set_handler fab ~host:1 (fun _ -> at := Engine.now e);
      Fabric.set_busy fab ~host:1 true;
      Engine.spawn e (fun () ->
          Fabric.send fab ~src:0 ~dst:1 ~bytes:32 ();
          (* before any sweeper tick at ~600+µs, host goes idle at 50 µs *)
          Engine.delay 50.0;
          Fabric.set_busy fab ~host:1 false);
      Engine.schedule e ~at:100_000.0 (fun () ->
          Alcotest.(check bool) "picked up shortly after idle" true (!at < 80.0)))

let test_counters () =
  with_fabric ~polling:Polling.Fast (fun e fab ->
      let handled = ref 0 in
      Fabric.set_handler fab ~host:1 (fun _ -> incr handled);
      Engine.spawn e (fun () ->
          Fabric.send fab ~src:0 ~dst:1 ~bytes:100 ();
          Fabric.send fab ~src:0 ~dst:1 ~bytes:200 ());
      Engine.schedule e ~at:10_000.0 (fun () ->
          let c = Fabric.stats fab in
          Alcotest.(check int) "count" 2 c.sent;
          Alcotest.(check int) "bytes" 300 c.bytes;
          Alcotest.(check int) "handled" 2 !handled))

let test_mean_busy_wait_analytic_vs_empirical () =
  let p = Polling.default_nt in
  let analytic = Polling.mean_busy_wait p in
  Alcotest.(check bool) "calibrated near 500us" true (analytic > 350.0 && analytic < 700.0);
  (* empirical check of the tick-stream sampler *)
  let rng = Mp_util.Prng.create ~seed:99 in
  let t = Polling.create (Polling.Nt_timer p) ~poll_idle_us:2.0 ~rng in
  let total = ref 0.0 and n = 20_000 in
  let arrival_rng = Mp_util.Prng.create ~seed:7 in
  let now = ref 0.0 and slot = Float.Array.make 1 0.0 in
  for _ = 1 to n do
    now := !now +. Mp_util.Prng.float arrival_rng 3000.0;
    Float.Array.set slot 0 !now;
    Polling.next_poll_time t ~busy:true slot 0;
    total := !total +. (Float.Array.get slot 0 -. !now)
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "empirical matches analytic" true
    (Float.abs (mean -. analytic) /. analytic < 0.1)

let test_handler_can_reply () =
  with_fabric ~polling:Polling.Fast (fun e fab ->
      let done_at = ref 0.0 in
      Fabric.set_handler fab ~host:1 (fun m ->
          Fabric.send fab ~src:1 ~dst:m.Fabric.src ~bytes:32 "reply");
      Fabric.set_handler fab ~host:0 (fun _ -> done_at := Engine.now e);
      Engine.spawn e (fun () -> Fabric.send fab ~src:0 ~dst:1 ~bytes:32 "req");
      Engine.schedule e ~at:10_000.0 (fun () ->
          (* roundtrip of two 32 B messages ≈ 25 µs (the paper's figure) *)
          Alcotest.(check bool) "roundtrip ~25-30us" true
            (!done_at > 24.0 && !done_at < 35.0)))

(* A [describe] that counts its calls, as a DSM's protocol renderer would be
   counted. *)
let counting_describe () =
  let calls = ref 0 in
  ( calls,
    fun b ->
      incr calls;
      Printf.sprintf "MSG(%d)" b )

(* Batches of sends from host 0 to host 1, each batch delivered before the
   next. *)
let send_batches e fab ~batches ~batch =
  Engine.spawn e (fun () ->
      for b = 0 to batches - 1 do
        for i = 0 to batch - 1 do
          Fabric.send fab ~src:0 ~dst:1 ~bytes:32 ((b * batch) + i)
        done;
        Engine.delay 1e6
      done)

(* Words allocated while [n] messages are sent in batches of [batch], with
   a recorder attached but off: no trace label is rendered. *)
let message_run_words ~n ~batch =
  let got = ref 0 in
  let obs = Mp_obs.Recorder.create () in
  let calls, describe = counting_describe () in
  let words =
    Test_memsim.allocated_words (fun () ->
        let e = Engine.create () in
        let fab = Fabric.create e ~hosts:2 () in
        Fabric.attach_obs fab ~obs ~describe;
        Fabric.set_handler fab ~host:1 (fun _ -> incr got);
        send_batches e fab ~batches:(n / batch) ~batch;
        Engine.run e)
  in
  Alcotest.(check int) "delivered" n !got;
  Alcotest.(check int) "describe never called" 0 !calls;
  words

(* The marginal words per message: [2n] messages less [n], so the engine's
   and the fabric's set-up, and the carriers' one-off growth, cancel. *)
let words_per_message ~n ~batch =
  (message_run_words ~n:(2 * n) ~batch -. message_run_words ~n ~batch) /. float_of_int n

(* A batched message reuses a carrier, a message record and its delivery
   event, and its arrival and poll times stay in float arrays, so once the
   first batch has grown the 1,000 carriers a batch keeps in flight, a
   message allocates nothing: nor do the receive ring, the poll timers and
   the latency coefficients.  What is left is each batch's delay. *)
let test_disabled_recorder_allocation () =
  let per_msg = words_per_message ~n:10_000 ~batch:1_000 in
  Alcotest.(check (float 0.05)) "words per batched message" 0.004 per_msg

(* One message at a time allocates the continuations of the server's wait
   and of the sender's delay, 2 words each. *)
let test_single_message_allocation () =
  let per_msg = words_per_message ~n:2_000 ~batch:1 in
  Alcotest.(check (float 0.05)) "words per single message" 4.0 per_msg

(* Arming a poll when no timer is queued takes a fired timer from the free
   stack and posts it from the host's float slot: no word.  Host 1's server
   is held in its first message's handler, so the second stays queued, and
   every 10 µs a callback marks the host busy and idle again, which arms a
   poll 2 µs later; that poll fires before the next arm. *)
let test_poll_arm_allocation () =
  let e = Engine.create () in
  let fab = Fabric.create e ~hosts:2 ~polling:Polling.Fast () in
  Fabric.set_handler fab ~host:1 (fun _ -> Engine.delay 1e9);
  Engine.spawn e (fun () ->
      Fabric.send fab ~src:0 ~dst:1 ~bytes:32 ();
      Fabric.send fab ~src:0 ~dst:1 ~bytes:32 ());
  let slot = Float.Array.make 1 100.0 and arms = ref 0 in
  let self = ref None in
  let tick =
    Engine.event ~label:"tick" (fun () ->
        Fabric.set_busy fab ~host:1 true;
        Fabric.set_busy fab ~host:1 false;
        incr arms;
        Float.Array.set slot 0 (Float.Array.get slot 0 +. 10.0);
        Engine.post_slot e (Option.get !self) slot 0)
  in
  self := Some tick;
  Engine.post_slot e tick slot 0;
  Engine.run_until e 1_000.0;
  Alcotest.(check int) "second message queued" 1 (Fabric.queue_depth fab ~host:1);
  let before = !arms in
  let words = Test_memsim.allocated_words (fun () -> Engine.run_until e 101_000.0) in
  Alcotest.(check int) "arms" 10_000 (!arms - before);
  Alcotest.(check (float 0.05)) "words per poll arm" 0.0 (words /. 10_000.0)

(* When host 1 handles the one message sent at 0 µs, on a fabric whose
   idle poll fires 50 µs after an arrival. *)
let handled_at ~at_20us =
  let e = Engine.create () in
  let fab = Fabric.create e ~hosts:2 ~polling:Polling.Fast ~poll_idle_us:50.0 () in
  let obs = Mp_obs.Recorder.create () in
  Mp_obs.Recorder.set_enabled obs true;
  Fabric.attach_obs fab ~obs ~describe:string_of_int;
  Fabric.set_busy fab ~host:1 true;
  let handled = ref None in
  Fabric.set_handler fab ~host:1 (fun _ -> handled := Some (Engine.now e));
  Engine.schedule e ~at:0.0 (fun () -> Fabric.send fab ~src:0 ~dst:1 ~bytes:32 0);
  Engine.schedule e ~at:20.0 (fun () -> at_20us fab);
  Engine.run e;
  let wakes =
    List.filter
      (fun (ev : Mp_obs.Event.t) ->
        match ev.kind with Mp_obs.Event.Sweeper_wake -> true | _ -> false)
      (Mp_obs.Recorder.events obs)
  in
  (!handled, List.length wakes)

(* A stall disarms the poll armed at the arrival (12 µs + 50 µs): the
   message waits for the thaw at 1000 µs plus a fresh 50 µs poll. *)
let test_stall_disarms_poll () =
  let handled, wakes = handled_at ~at_20us:(fun fab -> Fabric.stall fab ~host:1 ~until:1000.) in
  Alcotest.(check (option (float 1e-9))) "handled after the thaw" (Some 1050.0) handled;
  Alcotest.(check int) "one poll wakes the server" 1 wakes

(* A crash disarms it too: the armed poll never wakes the dead node's
   server. *)
let test_crash_disarms_poll () =
  let handled, wakes = handled_at ~at_20us:(fun fab -> Fabric.crash fab ~host:1) in
  Alcotest.(check (option (float 0.0))) "never handled" None handled;
  Alcotest.(check int) "no poll wakes the server" 0 wakes

let test_enabled_recorder_labels () =
  let obs = Mp_obs.Recorder.create () in
  Mp_obs.Recorder.set_enabled obs true;
  let calls, describe = counting_describe () in
  with_fabric (fun e fab ->
      Fabric.attach_obs fab ~obs ~describe;
      Fabric.set_handler fab ~host:1 ignore;
      send_batches e fab ~batches:2 ~batch:50);
  Alcotest.(check int) "describe twice per message" 200 !calls;
  let labels pick = List.filter_map pick (Mp_obs.Recorder.events obs) in
  let expected = List.init 100 (Printf.sprintf "MSG(%d)") in
  Alcotest.(check (list string))
    "send labels" expected
    (labels (fun (ev : Mp_obs.Event.t) ->
         match ev.kind with Mp_obs.Event.Msg_send { label; _ } -> Some label | _ -> None));
  Alcotest.(check (list string))
    "recv labels" expected
    (labels (fun (ev : Mp_obs.Event.t) ->
         match ev.kind with Mp_obs.Event.Msg_recv { label; _ } -> Some label | _ -> None))

(* The labels of a delivery and a poll, as a chooser sees them in tie groups
   and at send time; [Mp_mc.Sched.independent] parses their host ids. *)
let test_chooser_labels () =
  let e = Engine.create () in
  let ties = ref [] and perturbed = ref [] in
  Engine.set_chooser e
    (Some
       {
         Engine.choose =
           (fun ~time:_ ~labels ->
             ties := Array.to_list labels :: !ties;
             0);
         perturb_latency =
           (fun ~label ~now:_ ->
             perturbed := label :: !perturbed;
             0.0);
       });
  let fab =
    Fabric.create e ~hosts:2 ~latency:{ Fabric.base_us = 10.0; per_byte_us = 0.0 }
      ~poll_idle_us:0.0
      ~polling:Polling.Fast ()
  in
  Fabric.set_handler fab ~host:1 ignore;
  (* "x" ties with the arrival and queues "y", which ties with the poll *)
  Engine.schedule e ~at:10.0 ~label:"x" (fun () ->
      Engine.schedule e ~at:10.0 ~label:"y" ignore);
  Engine.schedule e ~at:0.0 ~label:"send" (fun () ->
      Fabric.send fab ~src:0 ~dst:1 ~bytes:32 ());
  Engine.run e;
  Alcotest.(check (list string)) "perturbed" [ "net:h0>h1" ] !perturbed;
  Alcotest.(check (list (list string)))
    "tie groups"
    [
      [ "start:fabric.server.h0"; "start:fabric.server.h1"; "send" ];
      [ "start:fabric.server.h1"; "send" ];
      [ "x"; "net:h0>h1" ];
      [ "net:h0>h1"; "y" ];
      [ "y"; "poll:h1" ];
    ]
    (List.rev !ties)

(* A [hosts]-host fabric on which every host spends [handle_us] handling a
   message and records its index on its channel, after checking that the
   record it was handed still holds the same message: the fabric reuses a
   message record only once its handler returns. *)
let recording_fabric ?faults ~hosts ~handle_us () =
  let e = Engine.create () in
  let fab = Fabric.create e ~hosts ~polling:Polling.Fast ?faults () in
  let got = Array.make (hosts * hosts) [] in
  for h = 0 to hosts - 1 do
    Fabric.set_handler fab ~host:h (fun m ->
        let src = m.Fabric.src and body = m.Fabric.body in
        Engine.delay handle_us;
        if m.Fabric.src <> src || m.Fabric.body != body then
          Alcotest.fail "message changed under its handler";
        let s, d, i = body in
        if s <> src || d <> h then Alcotest.failf "host %d got h%d>h%d's message from h%d" h s d src;
        let c = (src * hosts) + h in
        got.(c) <- i :: got.(c))
  done;
  (e, fab, got)

(* Messages [first] to [first + n - 1] of every channel, sent at [at] and
   interleaved across the channels. *)
let send_wave e fab ~hosts ~at ~first ~n =
  Engine.schedule e ~at (fun () ->
      for i = first to first + n - 1 do
        for s = 0 to hosts - 1 do
          for d = 0 to hosts - 1 do
            Fabric.send fab ~src:s ~dst:d ~bytes:32 (s, d, i)
          done
        done
      done)

let chan_name ~hosts c = Printf.sprintf "h%d>h%d" (c / hosts) (c mod hosts)
let upto n = List.init n Fun.id

(* 1,000 messages in flight on each channel of 4 hosts, then 1,000 more
   sent while most of the first wave is still queued: the second wave
   reuses the carriers of the messages handled so far. *)
let test_carrier_reuse () =
  let hosts = 4 and n = 1_000 in
  let e, fab, got = recording_fabric ~hosts ~handle_us:1.0 () in
  send_wave e fab ~hosts ~at:0.0 ~first:0 ~n;
  send_wave e fab ~hosts ~at:500.0 ~first:n ~n;
  Engine.run e;
  Array.iteri
    (fun c l -> Alcotest.(check (list int)) (chan_name ~hosts c) (upto (2 * n)) (List.rev l))
    got

(* Under drops, duplicates and reordering, every delivered message was sent
   on its channel, at most twice, and the deliveries are what the
   counters account for. *)
let test_carrier_reuse_under_faults () =
  let hosts = 4 and n = 1_000 in
  let faults = { Fabric.drop = 0.1; duplicate = 0.1; reorder = 0.1; jitter_us = 20.0 } in
  let e, fab, got = recording_fabric ~faults ~hosts ~handle_us:1.0 () in
  send_wave e fab ~hosts ~at:0.0 ~first:0 ~n;
  send_wave e fab ~hosts ~at:500.0 ~first:n ~n;
  Engine.run e;
  let c = Fabric.stats fab in
  List.iter
    (fun (k, n) -> Alcotest.(check bool) (k ^ " happened") true (n > 0))
    [ ("drops", c.dropped); ("duplicates", c.duplicated); ("reorders", c.reordered) ];
  let copies = Array.make (2 * n) 0 in
  Array.iteri
    (fun c l ->
      Array.fill copies 0 (2 * n) 0;
      List.iter
        (fun i ->
          if i < 0 || i >= 2 * n then Alcotest.failf "%s: message %d never sent" (chan_name ~hosts c) i;
          copies.(i) <- copies.(i) + 1;
          if copies.(i) > 2 then Alcotest.failf "%s: message %d thrice" (chan_name ~hosts c) i)
        l)
    got;
  Alcotest.(check int) "deliveries"
    (c.sent - c.dropped + c.duplicated)
    (Array.fold_left (fun acc l -> acc + List.length l) 0 got)

(* Host 3 crashes at 500 µs with most of the first wave queued and the
   second in flight, and its server dies mid-handler.  Its channels stop,
   and the third wave, twice as large, reuses every carrier that its queue
   and the later arrivals at it freed: every other channel still delivers
   its own messages, all in order. *)
let test_carrier_reuse_across_crash () =
  let hosts = 4 and n = 1_000 and dead = 3 in
  let e, fab, got = recording_fabric ~hosts ~handle_us:1.0 () in
  send_wave e fab ~hosts ~at:0.0 ~first:0 ~n;
  send_wave e fab ~hosts ~at:495.0 ~first:n ~n;
  Engine.schedule e ~at:500.0 (fun () ->
      Alcotest.(check bool) "queued at the crash" true (Fabric.queue_depth fab ~host:dead > 0);
      Fabric.crash fab ~host:dead;
      ignore (Engine.kill_group e dead));
  send_wave e fab ~hosts ~at:600.0 ~first:(2 * n) ~n:(2 * n);
  Engine.run e;
  Array.iteri
    (fun c l ->
      let l = List.rev l and name = chan_name ~hosts c in
      if c mod hosts = dead then begin
        Alcotest.(check bool) (name ^ " stopped in the first wave") true (List.length l < n);
        Alcotest.(check (list int)) name (upto (List.length l)) l
      end
      else if c / hosts = dead then Alcotest.(check (list int)) name (upto (2 * n)) l
      else Alcotest.(check (list int)) name (upto (4 * n)) l)
    got

let suite =
  [
    Alcotest.test_case "latency calibration" `Quick test_latency_calibration;
    Alcotest.test_case "delivery" `Quick test_message_delivery;
    Alcotest.test_case "fifo per channel" `Quick test_fifo_per_channel;
    Alcotest.test_case "sequential handling" `Quick test_sequential_handling;
    Alcotest.test_case "busy waits for sweeper" `Quick test_busy_host_waits_for_sweeper;
    Alcotest.test_case "idle fast pickup" `Quick test_idle_host_fast_pickup;
    Alcotest.test_case "idle rearms poller" `Quick test_set_idle_rearms_poller;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "nt wait calibration" `Quick test_mean_busy_wait_analytic_vs_empirical;
    Alcotest.test_case "roundtrip" `Quick test_handler_can_reply;
    Alcotest.test_case "disabled recorder allocation" `Quick
      test_disabled_recorder_allocation;
    Alcotest.test_case "single message allocation" `Quick test_single_message_allocation;
    Alcotest.test_case "poll arm allocation" `Quick test_poll_arm_allocation;
    Alcotest.test_case "stall disarms poll" `Quick test_stall_disarms_poll;
    Alcotest.test_case "crash disarms poll" `Quick test_crash_disarms_poll;
    Alcotest.test_case "enabled recorder labels" `Quick test_enabled_recorder_labels;
    Alcotest.test_case "chooser labels" `Quick test_chooser_labels;
    Alcotest.test_case "carrier reuse" `Quick test_carrier_reuse;
    Alcotest.test_case "carrier reuse under faults" `Quick test_carrier_reuse_under_faults;
    Alcotest.test_case "carrier reuse across a crash" `Quick test_carrier_reuse_across_crash;
  ]
