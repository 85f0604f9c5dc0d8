open Mp_sim

let test_pqueue_orders_by_time () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:3.0 ~seq:1 "c";
  Pqueue.push q ~time:1.0 ~seq:2 "a";
  Pqueue.push q ~time:2.0 ~seq:3 "b";
  let first = Pqueue.pop q in
  let second = Pqueue.pop q in
  let third = Pqueue.pop q in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ];
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q);
  Alcotest.(check (float 0.0)) "empty min" infinity (Pqueue.min_time q);
  Alcotest.check_raises "pop empty" (Invalid_argument "Pqueue.pop: empty") (fun () ->
      ignore (Pqueue.pop q))

let test_pqueue_fifo_at_equal_time () =
  let q = Pqueue.create () in
  for i = 1 to 10 do
    Pqueue.push q ~time:1.0 ~seq:i i
  done;
  let out = ref [] in
  while not (Pqueue.is_empty q) do
    out := Pqueue.pop q :: !out
  done;
  Alcotest.(check (list int)) "fifo" (List.init 10 (fun i -> i + 1)) (List.rev !out)

(* Pops follow (time, seq) order; [min_tied] and [pop_min_group] agree on
   the minimal-time group. *)
let qcheck_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing time order" ~count:200
    QCheck.(list (int_range 0 20))
    (fun times ->
      let q = Pqueue.create () and sorted = Pqueue.create () in
      List.iteri
        (fun i time ->
          Pqueue.push q ~time:(float_of_int time) ~seq:i i;
          Pqueue.push sorted ~time:(float_of_int time) ~seq:i i)
        times;
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.mapi (fun i t -> (t, i)) times)
      in
      let rec drain = function
        | [] -> Pqueue.is_empty q
        | (time, i) :: rest ->
          Pqueue.min_time q = float_of_int time && Pqueue.pop q = i && drain rest
      in
      let rec groups () =
        if Pqueue.is_empty sorted then true
        else begin
          let tied = Pqueue.min_tied sorted in
          match Pqueue.pop_min_group sorted with
          | Some (_, group) -> tied = (List.length group > 1) && groups ()
          | None -> false
        end
      in
      drain expected && groups ())

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
        Sync.Mutex.with_lock m (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Engine.delay 2.0;
            decr inside);
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
   and it parks in a slot made at its first park, so a delay allocates only
   its continuation and its boxed wake-up time. *)
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
  Alcotest.(check (float 0.05)) "words per delay" 4.0 (words /. float_of_int n)

(* A wait/set cycle on an auto-reset event allocates the waiter's
   suspension (its continuation, one-shot [resume], deadlock-report entry
   and queue cell) and the setter's delay: parking and waking the waiter
   allocate no option. *)
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
  Alcotest.(check (float 0.05)) "words per wait/set cycle" 18.0 (words /. float_of_int n)

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
  ]
