open Mp_sim

(* The engine's event queue is a heap keyed by (time, seq): posts at
   distinct times fire in time order, and posts at one time in posting
   order. *)
let fire_order posts =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun (time, name) ->
      Engine.post e
        (Engine.event ~label:name (fun () -> fired := (name, Engine.now e) :: !fired))
        ~at:time)
    posts;
  Engine.run e;
  List.rev !fired

let test_pqueue_orders_by_time () =
  Alcotest.(check (list (pair string (float 0.0))))
    "sorted"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (fire_order [ (3.0, "c"); (1.0, "a"); (2.0, "b") ]);
  let e = Engine.create () in
  Engine.run e;
  Alcotest.(check (float 0.0)) "empty run keeps the clock" 0.0 (Engine.now e)

let test_pqueue_fifo_at_equal_time () =
  let names = List.init 10 (fun i -> string_of_int (i + 1)) in
  Alcotest.(check (list string))
    "fifo" names
    (List.map fst (fire_order (List.map (fun n -> (1.0, n)) names)))

(* Events fire in (time, seq) order, and a chooser is shown each tie group
   whole: n events at one instant make n - 1 choice points, of n, n - 1, ...,
   2 labels. *)
let qcheck_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing time order" ~count:200
    QCheck.(list (int_range 0 20))
    (fun times ->
      let posts = List.mapi (fun i time -> (float_of_int time, string_of_int i)) times in
      let expected = List.stable_sort (fun (a, _) (b, _) -> compare a b) posts in
      let sorted = fire_order posts = List.map (fun (t, n) -> (n, t)) expected in
      let e = Engine.create () and shown = ref [] in
      Engine.set_chooser e
        (Some
           {
             Engine.choose =
               (fun ~time ~labels ->
                 shown := (time, Array.length labels) :: !shown;
                 0);
             perturb_latency = (fun ~label:_ ~now:_ -> 0.0);
           });
      List.iter (fun (time, n) -> Engine.post e (Engine.event ~label:n ignore) ~at:time) posts;
      Engine.run e;
      let want =
        List.concat_map
          (fun time ->
            let k = List.length (List.filter (fun (t, _) -> t = time) posts) in
            List.init (max 0 (k - 1)) (fun j -> (time, k - j)))
          (List.sort_uniq compare (List.map fst posts))
      in
      sorted && List.rev !shown = want)

let test_delay_advances_clock () =
  let e = Engine.create () in
  let final = ref 0.0 in
  Engine.spawn e (fun () ->
      Engine.delay 10.0;
      Engine.delay 5.0;
      final := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clock" 15.0 !final

let test_interleaving_is_deterministic () =
  let e = Engine.create () in
  let log = ref [] in
  let emit tag = log := (tag, Engine.now e) :: !log in
  Engine.spawn e ~name:"a" (fun () ->
      emit "a0";
      Engine.delay 10.0;
      emit "a1");
  Engine.spawn e ~name:"b" (fun () ->
      emit "b0";
      Engine.delay 5.0;
      emit "b1";
      Engine.delay 5.0;
      emit "b2");
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "order"
    [ ("a0", 0.0); ("b0", 0.0); ("b1", 5.0); ("a1", 10.0); ("b2", 10.0) ]
    (List.rev !log)

let test_schedule_callback () =
  let e = Engine.create () in
  let fired = ref (-1.0) in
  Engine.schedule e ~at:42.0 (fun () -> fired := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "fired at 42" 42.0 !fired

let test_spawn_inherits_current_time () =
  let e = Engine.create () in
  let child_start = ref (-1.0) in
  Engine.spawn e (fun () ->
      Engine.delay 7.0;
      Engine.spawn e (fun () -> child_start := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "child starts at 7" 7.0 !child_start

let test_yield_lets_peers_run () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      log := "a-before" :: !log;
      Engine.yield ();
      log := "a-after" :: !log);
  Engine.spawn e (fun () -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "yield order" [ "a-before"; "b"; "a-after" ] (List.rev !log)

let test_not_in_process () =
  Alcotest.check_raises "delay outside" Engine.Not_in_process (fun () -> Engine.delay 1.0)

let test_event_auto_reset () =
  let e = Engine.create () in
  let ev = Sync.Event.create () in
  let got = ref [] in
  Engine.spawn e ~name:"waiter1" (fun () ->
      Sync.Event.wait ev;
      got := ("w1", Engine.now e) :: !got);
  Engine.spawn e ~name:"waiter2" (fun () ->
      Sync.Event.wait ev;
      got := ("w2", Engine.now e) :: !got);
  Engine.spawn e ~name:"setter" (fun () ->
      Engine.delay 3.0;
      Sync.Event.set ev;
      Engine.delay 3.0;
      Sync.Event.set ev);
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "one waiter per set"
    [ ("w1", 3.0); ("w2", 6.0) ]
    (List.rev !got)

let test_event_manual_reset_wakes_all () =
  let e = Engine.create () in
  let ev = Sync.Event.create ~auto_reset:false () in
  let woke = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn e (fun () ->
        Sync.Event.wait ev;
        incr woke)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Sync.Event.set ev);
  Engine.run e;
  Alcotest.(check int) "all woke" 5 !woke;
  Alcotest.(check bool) "stays signaled" true (Sync.Event.is_set ev)

let test_event_latched_signal () =
  let e = Engine.create () in
  let ev = Sync.Event.create () in
  let woke_at = ref (-1.0) in
  Engine.spawn e (fun () ->
      Sync.Event.set ev;
      Engine.delay 10.0);
  Engine.spawn e (fun () ->
      Engine.delay 5.0;
      Sync.Event.wait ev;
      woke_at := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "latched wait returns immediately" 5.0 !woke_at

let test_mutex_mutual_exclusion () =
  let e = Engine.create () in
  let m = Sync.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 and done_count = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        Sync.Mutex.lock m;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Engine.delay 2.0;
        decr inside;
        Sync.Mutex.unlock m;
        incr done_count)
  done;
  Engine.run e;
  Alcotest.(check int) "all finished" 4 !done_count;
  Alcotest.(check int) "never concurrent" 1 !max_inside;
  Alcotest.(check (float 1e-9)) "serialized time" 8.0 (Engine.now e)

let test_mutex_unlock_not_held () =
  let m = Sync.Mutex.create () in
  Alcotest.check_raises "unlock unheld"
    (Invalid_argument "Sync.Mutex.unlock: not locked") (fun () -> Sync.Mutex.unlock m)

let test_semaphore_limits_concurrency () =
  let e = Engine.create () in
  let s = Sync.Semaphore.create 2 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 6 do
    Engine.spawn e (fun () ->
        Sync.Semaphore.acquire s;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Engine.delay 1.0;
        decr inside;
        Sync.Semaphore.release s)
  done;
  Engine.run e;
  Alcotest.(check int) "max 2 inside" 2 !max_inside;
  Alcotest.(check (float 1e-9)) "three rounds" 3.0 (Engine.now e)

let test_blocked_reports_deadlock () =
  let e = Engine.create () in
  let ev = Sync.Event.create ~name:"never" () in
  Engine.spawn e ~name:"stuck" (fun () -> Sync.Event.wait ev);
  Engine.run e;
  Alcotest.(check int) "one live" 1 (Engine.live e);
  match Engine.blocked e with
  | [ (proc, susp) ] ->
    Alcotest.(check string) "proc" "stuck" proc;
    Alcotest.(check string) "susp" "never" susp
  | other -> Alcotest.failf "unexpected blocked set: %d entries" (List.length other)

let test_run_until () =
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 100 do
        Engine.delay 10.0;
        incr ticks
      done);
  Engine.run_until e 55.0;
  Alcotest.(check int) "five ticks" 5 !ticks;
  Alcotest.(check (float 1e-9)) "clock at limit" 55.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "completes" 100 !ticks

let test_stop () =
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.spawn e (fun () ->
      while true do
        Engine.delay 1.0;
        incr ticks;
        if !ticks = 10 then Engine.stop e
      done);
  Engine.run e;
  Alcotest.(check int) "stopped at 10" 10 !ticks

(* Each process's wake-up events and effect handlers are built at spawn,
   it parks in a slot made at its first park, and its wake-up time goes
   straight into the event queue's float array, so a delay allocates only
   its continuation. *)
let test_delay_allocation () =
  let n = 10_000 in
  let words =
    Test_memsim.allocated_words (fun () ->
        let e = Engine.create () in
        Engine.spawn e ~name:"p" (fun () ->
            for _ = 1 to n do
              Engine.delay 1.0
            done);
        Engine.run e)
  in
  Alcotest.(check (float 0.05)) "words per delay" 2.0 (words /. float_of_int n)

(* A delay whose cost is a per-unit cost times a count, as a protection
   change or a DMA is charged, is computed inside the engine: it too
   allocates only its continuation, and lands where [delay] of the product
   would. *)
let test_delay_n_allocation () =
  let n = 10_000 in
  let per = Sys.opaque_identity 0.3 in
  let at_n = ref 0.0 and at_product = ref 0.0 in
  let words =
    Test_memsim.allocated_words (fun () ->
        let e = Engine.create () in
        Engine.spawn e ~name:"p" (fun () ->
            for i = 1 to n do
              Engine.delay_n per (i land 7)
            done);
        Engine.run e;
        at_n := Engine.now e)
  in
  Alcotest.(check (float 0.05)) "words per delay" 2.0 (words /. float_of_int n);
  let e = Engine.create () in
  Engine.spawn e ~name:"p" (fun () ->
      for i = 1 to n do
        Engine.delay (per *. float_of_int (i land 7))
      done);
  Engine.run e;
  at_product := Engine.now e;
  Alcotest.(check (float 0.0)) "same clock as delay" !at_product !at_n

(* A wait/set cycle on an auto-reset event allocates the waiter's
   continuation and the setter's: the waiter parks as an entry in the
   event's ring, and its wake-up is an event built at spawn. *)
let test_wait_set_allocation () =
  let n = 10_000 in
  let words =
    Test_memsim.allocated_words (fun () ->
        let e = Engine.create () in
        let ev = Sync.Event.create () in
        Engine.spawn e ~name:"waiter" (fun () ->
            for _ = 1 to n do
              Sync.Event.wait ev
            done);
        Engine.spawn e ~name:"setter" (fun () ->
            for _ = 1 to n do
              Engine.delay 1.0;
              Sync.Event.set ev
            done);
        Engine.run e)
  in
  Alcotest.(check (float 0.05)) "words per wait/set cycle" 4.0 (words /. float_of_int n)

(* An event is posted again only once it has fired: posting it while it is
   queued raises, and its own callback may post it again. *)
let test_event_reuse () =
  let e = Engine.create () in
  let fired = ref [] and self = ref None in
  let tick =
    Engine.event ~label:"tick" (fun () ->
        fired := Engine.now e :: !fired;
        if List.length !fired < 3 then
          Engine.post e (Option.get !self) ~at:(Engine.now e +. 10.0))
  in
  self := Some tick;
  Engine.post e tick ~at:5.0;
  Alcotest.check_raises "posted while queued"
    (Invalid_argument "Engine.post: event already queued") (fun () ->
      Engine.post e tick ~at:7.0);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "fired" [ 5.0; 15.0; 25.0 ] (List.rev !fired)

(* The events of a tie group that a chooser passes over stay queued. *)
let test_event_reuse_chosen () =
  let e = Engine.create () in
  Engine.set_chooser e
    (Some
       {
         Engine.choose = (fun ~time:_ ~labels:_ -> 1);
         perturb_latency = (fun ~label:_ ~now:_ -> 0.0);
       });
  let fired = ref [] in
  let note name = fired := (name, Engine.now e) :: !fired in
  let a = Engine.event ~label:"a" (fun () -> note "a") in
  let b =
    Engine.event ~label:"b" (fun () ->
        note "b";
        match Engine.post e a ~at:2.0 with
        | () -> Alcotest.fail "posted a queued event"
        | exception Invalid_argument _ -> ())
  in
  Engine.post e a ~at:1.0;
  Engine.post e b ~at:1.0;
  Engine.run e;
  Engine.post e a ~at:3.0;
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0))))
    "fired"
    [ ("b", 1.0); ("a", 1.0); ("a", 3.0) ]
    (List.rev !fired)

(* A chooser that always keeps the default order, recording every tie group
   it is shown. *)
let recording_chooser () =
  let ties = ref [] in
  ( {
      Engine.choose =
        (fun ~time:_ ~labels ->
          ties := Array.to_list labels :: !ties;
          0);
      perturb_latency = (fun ~label:_ ~now:_ -> 0.0);
    },
    fun () -> List.rev !ties )

(* The labels of a process's start, delay and resumption events, which
   [Mp_mc.Sched.independent] parses. *)
let test_chooser_labels () =
  let e = Engine.create () in
  let chooser, ties = recording_chooser () in
  Engine.set_chooser e (Some chooser);
  let ev = Sync.Event.create () in
  Engine.spawn e ~name:"p" (fun () ->
      Engine.delay 5.0;
      Sync.Event.wait ev);
  Engine.spawn e ~name:"q" (fun () ->
      Engine.delay 5.0;
      Sync.Event.set ev);
  Engine.spawn e ~name:"r" (fun () -> Engine.delay 5.0);
  Engine.run e;
  Alcotest.(check (list (list string)))
    "tie groups"
    [
      [ "start:p"; "start:q"; "start:r" ];
      [ "start:q"; "start:r" ];
      [ "delay:p"; "delay:q"; "delay:r" ];
      [ "delay:q"; "delay:r" ];
      [ "delay:r"; "resume:p" ];
    ]
    (ties ());
  Alcotest.(check int) "all finished" 0 (Engine.live e)

(* A process woken and killed at one instant runs no more user code: its
   resumption is queued when the kill lands, and unwinds when it fires. *)
let test_kill_after_wake () =
  let e = Engine.create () in
  let ev = Sync.Event.create () and log = ref [] in
  Engine.spawn e ~name:"w" ~group:1 (fun () ->
      Sync.Event.wait ev;
      log := Printf.sprintf "ran user code at %g" (Engine.now e) :: !log);
  Engine.schedule e ~at:5.0 (fun () ->
      Sync.Event.set ev;
      Alcotest.(check int) "killed" 1 (Engine.kill_group e 1));
  Engine.run e;
  Alcotest.(check (list string)) "no user code after the kill" [] !log;
  Alcotest.(check int) "finished" 0 (Engine.live e)

(* A NaN time is rejected, so the clock never goes back. *)
let test_nan_time () =
  let e = Engine.create () in
  let log = ref [] in
  let note name = log := (name, Engine.now e) :: !log in
  Engine.spawn e ~name:"a" (fun () ->
      (match Engine.delay nan with
      | () -> note "delayed by nan"
      | exception Invalid_argument _ -> note "a");
      Engine.delay (-1.0);
      note "a");
  Engine.schedule e ~at:5.0 (fun () -> note "b");
  Engine.schedule e ~at:3.0 (fun () -> note "c");
  Alcotest.check_raises "post at nan" (Invalid_argument "Engine.post: NaN time") (fun () ->
      Engine.schedule e ~at:nan ignore);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0))))
    "order"
    [ ("a", 0.0); ("a", 0.0); ("c", 3.0); ("b", 5.0) ]
    (List.rev !log)

(* [spawn_waiter e ev log name] starts a process that waits on [ev] and
   logs its name and wake time. *)
let spawn_waiter ?group e ev log name =
  Engine.spawn e ~name ?group (fun () ->
      Sync.Event.wait ev;
      log := (name, Engine.now e) :: !log)

(* A waiter killed at the head of an auto-reset event's ring absorbs the
   next [set]; the one after wakes the next waiter. *)
let test_killed_head_absorbs_set () =
  let e = Engine.create () in
  let ev = Sync.Event.create () and log = ref [] in
  spawn_waiter ~group:1 e ev log "killed";
  spawn_waiter e ev log "next";
  Engine.schedule e ~at:1.0 (fun () -> ignore (Engine.kill_group e 1));
  Engine.schedule e ~at:2.0 (fun () -> Sync.Event.set ev);
  Engine.schedule e ~at:3.0 (fun () -> Sync.Event.set ev);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0)))) "woken" [ ("next", 3.0) ] !log;
  Alcotest.(check bool) "not latched" false (Sync.Event.is_set ev);
  Alcotest.(check int) "ring empty" 0 (Sync.Event.waiters ev)

(* Waiters wake in FIFO order while the ring grows from 4 to 8 to 16 slots
   with its head moved and its entries wrapped around. *)
let test_ring_fifo () =
  let e = Engine.create () in
  let ev = Sync.Event.create () and log = ref [] in
  let name i = Printf.sprintf "w%02d" i in
  for i = 0 to 5 do
    spawn_waiter e ev log (name i)
  done;
  Engine.spawn e ~name:"driver" (fun () ->
      Engine.delay 1.0;
      Sync.Event.set ev;
      Sync.Event.set ev;
      for i = 6 to 13 do
        spawn_waiter e ev log (name i)
      done;
      Engine.delay 1.0;
      for _ = 1 to 3 do
        Sync.Event.set ev;
        Engine.delay 1.0
      done;
      for i = 14 to 17 do
        spawn_waiter e ev log (name i)
      done;
      Engine.delay 1.0;
      while Sync.Event.waiters ev > 0 do
        Sync.Event.set ev;
        Engine.delay 1.0
      done);
  Engine.run e;
  Alcotest.(check (list string)) "fifo" (List.init 18 name) (List.rev_map fst !log);
  Alcotest.(check int) "all finished" 0 (Engine.live e)

(* A manual-reset [set] wakes every waiter at the setter's instant, in the
   order they waited. *)
let test_manual_reset_fifo () =
  let e = Engine.create () in
  let ev = Sync.Event.create ~auto_reset:false () and log = ref [] in
  let names = List.init 6 (Printf.sprintf "w%d") in
  List.iter (spawn_waiter e ev log) names;
  Engine.schedule e ~at:4.0 (fun () -> Sync.Event.set ev);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0))))
    "all at 4, in order"
    (List.map (fun n -> (n, 4.0)) names)
    (List.rev !log)

(* [blocked] lists each parked process once, in spawn order: not a killed
   one, and a woken one only where it waits again. *)
let test_blocked_after_kills_and_wakes () =
  let e = Engine.create () in
  let ev = Sync.Event.create ~name:"ev" () and other = Sync.Event.create ~name:"other" () in
  Engine.spawn e ~name:"killed" ~group:1 (fun () -> Sync.Event.wait ev);
  Engine.spawn e ~name:"rewaits" (fun () ->
      Sync.Event.wait ev;
      Sync.Event.wait ev);
  Engine.spawn e ~name:"waits" (fun () -> Sync.Event.wait ev);
  Engine.spawn e ~name:"elsewhere" (fun () -> Sync.Event.wait other);
  Engine.schedule e ~at:1.0 (fun () -> ignore (Engine.kill_group e 1));
  Engine.schedule e ~at:2.0 (fun () -> Sync.Event.set ev);
  Engine.schedule e ~at:3.0 (fun () -> Sync.Event.set ev);
  Engine.run e;
  Alcotest.(check (list (pair string string)))
    "blocked"
    [ ("rewaits", "ev"); ("waits", "ev"); ("elsewhere", "other") ]
    (Engine.blocked e)

(* [suspend]'s [resume] wakes its own suspension once: inside [register],
   again later, or after the process has suspended anew, it does nothing. *)
let test_suspend_resume_one_shot () =
  let e = Engine.create () in
  let log = ref [] and saved = ref ignore in
  Engine.spawn e ~name:"p" (fun () ->
      Engine.suspend ~name:"inside" (fun resume ->
          resume ();
          resume ();
          saved := resume);
      log := ("after inside", Engine.now e) :: !log;
      Engine.suspend ~name:"later" (fun resume ->
          Engine.schedule e ~at:5.0 (fun () ->
              !saved ();
              resume ();
              resume ()));
      log := ("after later", Engine.now e) :: !log;
      Engine.suspend ~name:"never" (fun _ -> ()));
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0))))
    "log"
    [ ("after inside", 0.0); ("after later", 5.0) ]
    (List.rev !log);
  Alcotest.(check (list (pair string string))) "blocked" [ ("p", "never") ] (Engine.blocked e)

let suite =
  [
    Alcotest.test_case "pqueue time order" `Quick test_pqueue_orders_by_time;
    Alcotest.test_case "pqueue fifo ties" `Quick test_pqueue_fifo_at_equal_time;
    QCheck_alcotest.to_alcotest qcheck_pqueue_sorted;
    Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
    Alcotest.test_case "deterministic interleaving" `Quick test_interleaving_is_deterministic;
    Alcotest.test_case "schedule callback" `Quick test_schedule_callback;
    Alcotest.test_case "nested spawn time" `Quick test_spawn_inherits_current_time;
    Alcotest.test_case "yield" `Quick test_yield_lets_peers_run;
    Alcotest.test_case "not in process" `Quick test_not_in_process;
    Alcotest.test_case "event auto-reset" `Quick test_event_auto_reset;
    Alcotest.test_case "event manual-reset" `Quick test_event_manual_reset_wakes_all;
    Alcotest.test_case "event latched" `Quick test_event_latched_signal;
    Alcotest.test_case "mutex exclusion" `Quick test_mutex_mutual_exclusion;
    Alcotest.test_case "mutex unlock unheld" `Quick test_mutex_unlock_not_held;
    Alcotest.test_case "semaphore concurrency" `Quick test_semaphore_limits_concurrency;
    Alcotest.test_case "deadlock report" `Quick test_blocked_reports_deadlock;
    Alcotest.test_case "run_until" `Quick test_run_until;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "delay allocation" `Quick test_delay_allocation;
    Alcotest.test_case "chooser labels" `Quick test_chooser_labels;
    Alcotest.test_case "wait/set allocation" `Quick test_wait_set_allocation;
    Alcotest.test_case "event reuse" `Quick test_event_reuse;
    Alcotest.test_case "event reuse under a chooser" `Quick test_event_reuse_chosen;
    Alcotest.test_case "kill after a wake" `Quick test_kill_after_wake;
    Alcotest.test_case "nan time" `Quick test_nan_time;
    Alcotest.test_case "killed head absorbs a set" `Quick test_killed_head_absorbs_set;
    Alcotest.test_case "ring fifo across growth" `Quick test_ring_fifo;
    Alcotest.test_case "manual-reset wakes in order" `Quick test_manual_reset_fifo;
    Alcotest.test_case "blocked after kills and wakes" `Quick
      test_blocked_after_kills_and_wakes;
    Alcotest.test_case "suspend resume is one-shot" `Quick test_suspend_resume_one_shot;
    Alcotest.test_case "computed delay allocation" `Quick test_delay_n_allocation;
  ]
