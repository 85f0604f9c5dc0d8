(* Crash-fault tolerance: injection, the heartbeat failure detector,
   recovery (shadow copies, lock leases, degraded barriers, backup
   promotion of a dead home's shard), the deadlock watchdog, and the
   bounded idempotence tables. *)

open Mp_sim
open Mp_millipage
open Fixture
module Fabric = Mp_net.Fabric

let ft_config ?(crashes = []) ?(stalls = []) ?(deadlock_ticks = 500)
    ?(homes = Dsm.Config.Homes.default) () =
  {
    Dsm.Config.default with
    polling = Mp_net.Polling.Fast;
    ft = Some { fast_ft with crashes; stalls; deadlock_ticks };
    homes;
  }

(* ---------------- fault-free runs with the subsystem armed ------------- *)

let test_ft_fault_free () =
  (* heartbeats flow, nobody is suspected, results are untouched *)
  let seen = ref 0.0 in
  let dsm =
    traced_scenario ~config:(ft_config ()) (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.init_write_f64 dsm x 7.25;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.compute ctx 3000.0;
            seen := Dsm.read_f64 ctx x);
        Dsm.spawn dsm ~host:2 (fun ctx -> Dsm.compute ctx 3000.0))
  in
  Alcotest.(check (float 0.0)) "value intact" 7.25 !seen;
  Alcotest.(check bool) "heartbeats sent" true ((Dsm.stats dsm).heartbeats_sent > 0);
  Alcotest.(check int) "no suspects" 0 (Dsm.stats dsm).suspects;
  Alcotest.(check (list int)) "nobody declared" [] (Dsm.declared_dead dsm)

(* ---------------- failure detector timing ------------------------------ *)

let busy_pair ~us dsm =
  Dsm.spawn dsm ~host:1 (fun ctx -> Dsm.compute ctx us);
  Dsm.spawn dsm ~host:2 (fun ctx -> Dsm.compute ctx us)

let test_short_stall_unnoticed () =
  (* a 400 µs stall keeps silence under the 700 µs suspicion threshold *)
  let dsm =
    traced_scenario
      ~config:(ft_config ~stalls:[ (1, 500.0, 400.0) ] ())
      (busy_pair ~us:4000.0)
  in
  Alcotest.(check int) "never suspected" 0 (Dsm.stats dsm).suspects;
  Alcotest.(check (list int)) "nobody declared" [] (Dsm.declared_dead dsm)

let test_stall_suspected_then_recovers () =
  (* an 800 µs stall crosses the suspicion threshold but resumes well before
     the 1600 µs declaration deadline: suspicion must be retracted *)
  let dsm =
    traced_scenario
      ~config:(ft_config ~stalls:[ (1, 500.0, 800.0) ] ())
      (busy_pair ~us:5000.0)
  in
  Alcotest.(check bool) "was suspected" true ((Dsm.stats dsm).suspects > 0);
  Alcotest.(check bool) "suspicion retracted" true
    ((Dsm.stats dsm).suspect_recoveries > 0);
  Alcotest.(check (list int)) "nobody declared" [] (Dsm.declared_dead dsm)

let test_crash_declared_dead () =
  let dsm =
    traced_scenario
      ~config:(ft_config ~crashes:[ (1, 500.0) ] ())
      (busy_pair ~us:6000.0)
  in
  Alcotest.(check (list int)) "crashed" [ 1 ] (Dsm.crashed_hosts dsm);
  Alcotest.(check (list int)) "declared dead" [ 1 ] (Dsm.declared_dead dsm);
  (* declaration needs one silent declare_after window, detected on a
     heartbeat-interval grid: 500 + 1600 ≤ t ≤ 500 + 1600 + a few ticks *)
  let declares =
    List.filter
      (fun ev -> ev.Mp_obs.Event.kind = Mp_obs.Event.Declare_dead)
      (Mp_obs.Recorder.events (Dsm.obs dsm))
  in
  match declares with
  | [ ev ] ->
    Alcotest.(check bool)
      (Printf.sprintf "declared in window (t=%.0f)" ev.Mp_obs.Event.time)
      true
      (ev.Mp_obs.Event.time >= 2100.0 && ev.Mp_obs.Event.time <= 3500.0)
  | l -> Alcotest.failf "expected exactly 1 DECLARE_DEAD, got %d" (List.length l)

(* ---------------- lock lease revocation -------------------------------- *)

let test_lease_revoked_to_next_waiter () =
  let survivor_got_lock = ref false in
  let dsm =
    traced_scenario
      ~config:(ft_config ~crashes:[ (2, 1000.0) ] ())
      (fun dsm ->
        Dsm.spawn dsm ~host:2 (fun ctx ->
            Dsm.lock ctx 0;
            Dsm.compute ctx 50000.0;
            (* unreachable: crashed at t=1000 holding the lock *)
            Dsm.unlock ctx 0);
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.compute ctx 300.0;
            Dsm.lock ctx 0;
            survivor_got_lock := true;
            Dsm.unlock ctx 0))
  in
  Alcotest.(check bool) "survivor acquired the lock" true !survivor_got_lock;
  Alcotest.(check int) "one lease revoked" 1 (Dsm.stats dsm).leases_revoked;
  Alcotest.(check (list int)) "holder declared dead" [ 2 ] (Dsm.declared_dead dsm)

(* ---------------- shadow-copy recovery --------------------------------- *)

let test_shadow_recovery_after_barrier () =
  (* the dead host's write was captured by the barrier-entry shadow sync,
     so the survivor reads the exact last value *)
  let seen = ref 0.0 in
  let dsm =
    traced_scenario
      ~config:(ft_config ~crashes:[ (2, 1500.0) ] ())
      (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.init_write_f64 dsm x 1.0;
        Dsm.spawn dsm ~host:2 (fun ctx ->
            Dsm.write_f64 ctx x 42.0;
            Dsm.barrier ctx;
            Dsm.compute ctx 100.0;
            Dsm.barrier ctx (* parked here when the crash lands *));
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.compute ctx 400.0;
            Dsm.barrier ctx;
            Dsm.compute ctx 6000.0;
            seen := Dsm.read_f64 ctx x;
            Dsm.barrier ctx))
  in
  Alcotest.(check (float 0.0)) "survivor reads the last synced value" 42.0 !seen;
  Alcotest.(check bool) "minipage recovered from shadow" true
    ((Dsm.stats dsm).recovered_minipages >= 1);
  Alcotest.(check (list int)) "nothing lost" [] (Dsm.lost_minipages dsm);
  Alcotest.(check bool) "shadow synced at barrier entry" true
    ((Dsm.stats dsm).shadow_syncs >= 1);
  Alcotest.(check bool) "parked barrier reconfigured" true
    ((Dsm.stats dsm).barrier_reconfigs >= 1)

(* ---------------- degraded barriers ------------------------------------ *)

let test_barriers_degrade_to_survivors () =
  let phases = Array.make 4 0 in
  let dsm =
    traced_scenario ~hosts:4
      ~config:(ft_config ~crashes:[ (3, 2000.0) ] ())
      (fun dsm ->
        for h = 1 to 3 do
          Dsm.spawn dsm ~host:h (fun ctx ->
              for _ = 1 to 8 do
                Dsm.compute ctx (if h = 3 then 100.0 else 600.0);
                Dsm.barrier ctx;
                phases.(h) <- phases.(h) + 1
              done)
        done)
  in
  Alcotest.(check (list int)) "declared dead" [ 3 ] (Dsm.declared_dead dsm);
  Alcotest.(check int) "survivor 1 finished all phases" 8 phases.(1);
  Alcotest.(check int) "survivor 2 finished all phases" 8 phases.(2);
  Alcotest.(check bool) "victim did not" true (phases.(3) < 8);
  Alcotest.(check bool) "a barrier was reconfigured" true
    ((Dsm.stats dsm).barrier_reconfigs >= 1)

(* ---------------- deadlock watchdog ------------------------------------ *)

let test_watchdog_reports_deadlock () =
  (* h1 exits still holding the lock (no lease revocation: it never
     crashed); h2 blocks forever.  With heartbeats keeping the event queue
     alive the engine would spin — the watchdog must convert the stall into
     a diagnostic. *)
  let e = Engine.create () in
  let config = ft_config ~deadlock_ticks:50 () in
  let dsm = Dsm.create e ~hosts:3 ~config () in
  Dsm.spawn dsm ~host:1 (fun ctx -> Dsm.lock ctx 0);
  Dsm.spawn dsm ~host:2 (fun ctx ->
      Dsm.compute ctx 500.0;
      Dsm.lock ctx 0);
  match Dsm.run dsm with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Dsm.Deadlock msg ->
    Alcotest.(check bool)
      (Printf.sprintf "report lists blocked threads (%s)" msg)
      true
      (String.length msg > 0 && String.sub msg 0 9 = "millipage")

(* ---------------- bounded idempotence tables --------------------------- *)

let test_directory_pruning () =
  let d = Directory.create ~initial_owner:0 in
  for r = 1 to 10 do
    ignore (Directory.note_request d ~req_id:r);
    Directory.mark_completed d ~req_id:r ~now:(float_of_int r)
  done;
  Alcotest.(check int) "both tables populated" 20 (Directory.idempotence_size d);
  Alcotest.(check int) "stale half pruned" 5
    (Directory.prune_completed d ~before:6.0);
  Alcotest.(check int) "tables shrunk" 10 (Directory.idempotence_size d);
  Alcotest.(check bool) "pruned id forgotten" true
    (Directory.note_request d ~req_id:2);
  Alcotest.(check bool) "recent id still deduped" false
    (Directory.note_request d ~req_id:9)

(* The directory's idempotence tables against the pair of [Hashtbl]s they
   replaced, as a model: random request ids are seen, completed at the step
   number and pruned, ids collide and tables grow and shrink, and after
   every step the answers, the sizes and [completed_stamps] (in its order,
   which crash recovery's trace records) agree. *)
let test_idempotence_tables_match_hashtbl () =
  let d = Directory.create ~initial_owner:0 in
  let seen = Hashtbl.create 64 and completed = Hashtbl.create 64 in
  let rng = Mp_util.Prng.create ~seed:7 in
  for step = 1 to 20_000 do
    let req_id = 1 + Mp_util.Prng.int rng 3_000 in
    let now = float_of_int step in
    (match Mp_util.Prng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let fresh = not (Hashtbl.mem seen req_id) in
      if fresh then Hashtbl.add seen req_id ();
      Alcotest.(check bool) "note_request" fresh (Directory.note_request d ~req_id)
    | 4 | 5 | 6 ->
      Hashtbl.replace completed req_id now;
      Directory.mark_completed d ~req_id ~now
    | 7 | 8 ->
      Alcotest.(check bool) "completed" (Hashtbl.mem completed req_id)
        (Directory.completed d ~req_id)
    | _ ->
      let before = now -. float_of_int (Mp_util.Prng.int rng 3_000) in
      let pruned = ref 0 in
      Hashtbl.filter_map_inplace
        (fun req_id at ->
          if at < before then begin
            Hashtbl.remove seen req_id;
            incr pruned;
            None
          end
          else Some at)
        completed;
      Alcotest.(check int) "pruned" !pruned (Directory.prune_completed d ~before));
    Alcotest.(check int) "sizes" (Hashtbl.length seen + Hashtbl.length completed)
      (Directory.idempotence_size d);
    if step mod 500 = 0 then
      Alcotest.(check (list (pair int (float 0.0))))
        "completed_stamps"
        (Hashtbl.fold (fun req_id at acc -> (req_id, at) :: acc) completed [])
        (Directory.completed_stamps d)
  done

let test_idempotence_bounded_end_to_end () =
  (* long faulty run with a short retransmission window: the manager's
     tables must stay far below the total request count *)
  let e = Engine.create () in
  let config =
    {
      Dsm.Config.default with
      polling = Mp_net.Polling.Fast;
      net =
        {
          Dsm.Config.Net.faults = { Fabric.no_faults with drop = 0.02 };
          seed = 11;
          rto_us = 100.0;
          rto_backoff = 1.2;
          max_retries = 6;
        };
    }
  in
  let dsm = Dsm.create e ~hosts:2 ~config () in
  let x = Dsm.malloc dsm 64 in
  Dsm.init_write_f64 dsm x 0.0;
  Dsm.spawn dsm ~host:0 (fun ctx ->
      for i = 1 to 800 do
        Dsm.write_f64 ctx x (float_of_int i);
        Dsm.barrier ctx
      done);
  Dsm.spawn dsm ~host:1 (fun ctx ->
      for _ = 1 to 800 do
        Dsm.barrier ctx;
        ignore (Dsm.read_f64 ctx x)
      done);
  Dsm.run dsm;
  (* each request occupies two table slots until pruned, so < total proves
     the pruning removed well over half of the history *)
  let total = Dsm.read_faults dsm + Dsm.write_faults dsm in
  Alcotest.(check bool) "enough traffic to trigger pruning" true (total > 512);
  Alcotest.(check bool)
    (Printf.sprintf "tables bounded (%d entries for %d requests)"
       (Dsm.idempotence_size dsm) total)
    true
    (Dsm.idempotence_size dsm < total)

(* ---------------- acceptance: crash mid-run on a 4-host stencil -------- *)

(* Three workers each own one cell; every phase each worker rewrites its
   cell with (1000·h + phase), survivors then read the victim's cell.  A
   second barrier separates reads from the next phase's writes, so the
   value observed in phase p is deterministic: 3000 + p until the victim
   dies, then frozen at the last barrier-synced phase forever after. *)
let test_acceptance_stencil_survives_crash () =
  let phases = 6 in
  let victim = 3 in
  let observed = Array.make 4 [] (* per-survivor reads of the victim cell *)
  and final_own = Array.make 4 0.0 in
  let dsm =
    traced_scenario ~hosts:4
      (* t=4500 is mid-compute for the survivors in phase 2: the victim has
         written its phase-2 value, invalidated the survivors' copies, and
         is parked at the barrier — the exclusive-owner recovery path *)
      ~config:(ft_config ~crashes:[ (victim, 4500.0) ] ())
      (fun dsm ->
        let cells = Dsm.malloc_array dsm ~count:4 ~size:64 in
        for h = 1 to 3 do
          Dsm.init_write_f64 dsm cells.(h) (float_of_int (1000 * h))
        done;
        for h = 1 to 3 do
          Dsm.spawn dsm ~host:h (fun ctx ->
              for p = 1 to phases do
                Dsm.write_f64 ctx cells.(h) (float_of_int ((1000 * h) + p));
                Dsm.compute ctx (if h = victim then 100.0 else 2500.0);
                Dsm.barrier ctx;
                (if h <> victim then
                   let v = Dsm.read_f64 ctx cells.(victim) in
                   observed.(h) <- v :: observed.(h)
                 else ignore (Dsm.read_f64 ctx cells.(1)));
                ignore p;
                Dsm.barrier ctx
              done;
              final_own.(h) <- Dsm.read_f64 ctx cells.(h))
        done)
  in
  Alcotest.(check (list int)) "victim declared dead" [ victim ]
    (Dsm.declared_dead dsm);
  Alcotest.(check (list int)) "no data lost" [] (Dsm.lost_minipages dsm);
  Alcotest.(check bool) "victim cell recovered" true
    ((Dsm.stats dsm).recovered_minipages >= 1);
  (* survivors completed every phase with their own data intact *)
  List.iter
    (fun h ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "survivor %d finished all phases" h)
        (float_of_int ((1000 * h) + phases))
        final_own.(h))
    [ 1; 2 ];
  (* the victim-cell reads follow the freeze pattern: 3001, 3002, ... up to
     the last barrier-synced phase, then constant *)
  List.iter
    (fun h ->
      let reads = List.rev observed.(h) in
      Alcotest.(check int)
        (Printf.sprintf "survivor %d read every phase" h)
        phases (List.length reads);
      let frozen = List.nth reads (phases - 1) -. float_of_int (1000 * victim) in
      let fp = int_of_float frozen in
      Alcotest.(check bool)
        (Printf.sprintf "freeze phase %d is mid-run" fp)
        true
        (fp >= 1 && fp < phases);
      List.iteri
        (fun i v ->
          let expect = float_of_int ((1000 * victim) + min (i + 1) fp) in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "survivor %d, phase %d read" h (i + 1))
            expect v)
        reads)
    [ 1; 2 ]

(* ---------------- sharded homes: crash of a home host ------------------ *)

(* Under round-robin homes on 3 hosts, minipages 2 and 5 are homed at host
   2.  Host 2 runs a compute-only thread (it never owns data) and crashes
   mid-run; its backup, host 0, must take over the shard and the survivors
   must keep read/write sharing those minipages to completion. *)
let test_rehoming_after_home_crash () =
  let final = Array.make 2 0.0 in
  let dsm =
    traced_scenario
      ~config:
        (ft_config ~homes:Dsm.Config.Homes.round_robin ~crashes:[ (2, 3000.0) ] ())
      (fun dsm ->
        let cells = Dsm.malloc_array dsm ~count:6 ~size:64 in
        Array.iter (fun c -> Dsm.init_write_f64 dsm c 0.0) cells;
        for h = 0 to 1 do
          Dsm.spawn dsm ~host:h (fun ctx ->
              for p = 1 to 6 do
                Array.iteri
                  (fun i c -> if i mod 2 = h then Dsm.write_f64 ctx c (float_of_int p))
                  cells;
                Dsm.compute ctx 2500.0;
                Dsm.barrier ctx;
                Array.iter (fun c -> ignore (Dsm.read_f64 ctx c)) cells;
                Dsm.barrier ctx
              done;
              final.(h) <- Dsm.read_f64 ctx cells.(2 + h))
        done;
        Dsm.spawn dsm ~host:2 (fun ctx -> Dsm.compute ctx 60000.0))
  in
  Alcotest.(check (list int)) "home host declared dead" [ 2 ] (Dsm.declared_dead dsm);
  Alcotest.(check (list int)) "host 2's shard promoted" [ 2 ] (Dsm.promoted_homes dsm);
  Alcotest.(check (list int)) "no data lost" [] (Dsm.lost_minipages dsm);
  (* every minipage formerly homed at 2 now answers at its backup, 0 *)
  let homes = Dsm.homes dsm in
  Alcotest.(check (array int)) "mod-3 homes collapsed onto 0"
    [| 0; 1; 0; 0; 1; 0 |] homes;
  Array.iteri
    (fun h v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "survivor %d finished all phases" h)
        6.0 v)
    final

let test_rehoming_under_first_toucher () =
  (* a first-toucher migration moves a minipage to host 2; host 2 then dies
     and the minipage must move to its backup, host 0, reachable by
     survivors whose hints still name the dead host *)
  let seen = ref 0.0 and x_addr = ref 0 in
  let dsm =
    traced_scenario
      ~config:
        (ft_config ~homes:Dsm.Config.Homes.first_toucher ~crashes:[ (2, 3000.0) ] ())
      (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        x_addr := x;
        Dsm.init_write_f64 dsm x 1.0;
        Dsm.spawn dsm ~host:2 (fun ctx -> ignore (Dsm.read_f64 ctx x));
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.compute ctx 500.0;
            Dsm.write_f64 ctx x 5.0;
            Dsm.compute ctx 8000.0;
            seen := Dsm.read_f64 ctx x);
        Dsm.spawn dsm ~host:0 (fun ctx -> Dsm.compute ctx 10000.0))
  in
  Alcotest.(check (list int)) "first toucher declared dead" [ 2 ]
    (Dsm.declared_dead dsm);
  Alcotest.(check int) "migration happened before the crash" 1
    (Dsm.stats dsm).home_migrations;
  Alcotest.(check (list int)) "migrated shard promoted" [ 2 ] (Dsm.promoted_homes dsm);
  Alcotest.(check int) "minipage served at the backup" 0
    (Dsm.home_of dsm ~addr:!x_addr);
  Alcotest.(check (float 0.0)) "survivor's data intact" 5.0 !seen

(* ---------------- property: random crash schedules never hang ---------- *)

(* One crash, or two crashes of distinct hosts.  A single crash always
   leaves the victim's backup alive; a second one may kill a home together
   with its backup, the one case where recovery is designed to fail fast. *)
let crash_schedule =
  let show (h, at) = Printf.sprintf "h%d@%.0fus" h at in
  QCheck.(
    make
      ~print:(fun (rr, first, second) ->
        Printf.sprintf "%s homes, crash %s%s"
          (if rr then "rr" else "central")
          (show first)
          (match second with Some c -> ", " ^ show c | None -> ""))
      Gen.(
        let crash = pair (int_range 1 3) (float_range 200.0 9000.0) in
        crash >>= fun ((h, _) as first) ->
        triple bool (return first)
          (opt
             (map2
                (fun d at -> ((h - 1 + d) mod 3 + 1, at))
                (int_range 1 2) (float_range 200.0 9000.0)))))

let prop_random_crash_never_hangs =
  (* Every run either completes with nothing lost and no invariant violation
     (which includes the log invariant that every completion a dead primary
     acked reached its promoted backup), or fails fast with the typed error
     naming a crashed home and its crashed backup.  It never deadlocks. *)
  QCheck.Test.make ~count:60 ~name:"random crash: completes or fails fast"
    crash_schedule (fun (rr, first, second) ->
      let crashes = first :: Option.to_list second in
      let homes = if rr then Dsm.Config.Homes.round_robin else Dsm.Config.Homes.central in
      let e = Engine.create () in
      let config = ft_config ~homes ~crashes ~deadlock_ticks:100 () in
      let dsm = Dsm.create e ~hosts:4 ~config () in
      let obs = Dsm.obs dsm in
      Mp_obs.Recorder.set_capacity obs (1 lsl 20);
      Mp_obs.Recorder.set_enabled obs true;
      let cells = Dsm.malloc_array dsm ~count:4 ~size:64 in
      for i = 1 to 3 do
        Dsm.init_write_f64 dsm cells.(i) 0.0
      done;
      for i = 1 to 3 do
        Dsm.spawn dsm ~host:i (fun ctx ->
            for p = 1 to 4 do
              Dsm.write_f64 ctx cells.(i) (float_of_int p);
              Dsm.compute ctx 400.0;
              Dsm.barrier ctx;
              ignore (Dsm.read_f64 ctx cells.((i mod 3) + 1));
              Dsm.barrier ctx
            done)
      done;
      match Dsm.run dsm with
      | () -> (
        match Mp_obs.Invariants.check (Mp_obs.Recorder.events obs) with
        | [] when Dsm.lost_minipages dsm = [] -> true
        | [] -> QCheck.Test.fail_reportf "minipages lost despite completing"
        | violations -> QCheck.Test.fail_reportf "%s" (String.concat "; " violations))
      | exception Dsm.Crash_unrecoverable msg ->
        let both_died (h, _) =
          let b = Dsm.Config.Homes.backup_of ~hosts:4 h in
          List.mem_assoc b crashes
          && msg = Printf.sprintf "millipage: home %d and its backup %d both died" h b
        in
        List.exists both_died crashes
        || QCheck.Test.fail_reportf "fail-stop without a dead home and backup: %s" msg
      | exception Dsm.Deadlock msg -> QCheck.Test.fail_reportf "deadlock: %s" msg)

let suite =
  [
    Alcotest.test_case "ft on, fault-free" `Quick test_ft_fault_free;
    Alcotest.test_case "short stall unnoticed" `Quick test_short_stall_unnoticed;
    Alcotest.test_case "stall suspected then recovers" `Quick
      test_stall_suspected_then_recovers;
    Alcotest.test_case "crash declared dead in window" `Quick
      test_crash_declared_dead;
    Alcotest.test_case "lease revoked to next waiter" `Quick
      test_lease_revoked_to_next_waiter;
    Alcotest.test_case "shadow recovery after barrier" `Quick
      test_shadow_recovery_after_barrier;
    Alcotest.test_case "barriers degrade to survivors" `Quick
      test_barriers_degrade_to_survivors;
    Alcotest.test_case "watchdog reports deadlock" `Quick
      test_watchdog_reports_deadlock;
    Alcotest.test_case "directory pruning" `Quick test_directory_pruning;
    Alcotest.test_case "idempotence bounded end-to-end" `Quick
      test_idempotence_bounded_end_to_end;
    Alcotest.test_case "acceptance: stencil survives crash" `Quick
      test_acceptance_stencil_survives_crash;
    Alcotest.test_case "re-homing after home crash" `Quick
      test_rehoming_after_home_crash;
    Alcotest.test_case "re-homing under first toucher" `Quick
      test_rehoming_under_first_toucher;
    QCheck_alcotest.to_alcotest prop_random_crash_never_hangs;
    Alcotest.test_case "idempotence tables match a Hashtbl model" `Quick
      test_idempotence_tables_match_hashtbl;
  ]
