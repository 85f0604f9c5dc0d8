(* Sharded home-based management: policy assignment, the home_of/homes API,
   the first-toucher migration + redirect path, queue-depth and barrier-
   latency improvements over the central manager, and the policy-equivalence
   property (every policy computes the same application results). *)

open Mp_sim
open Mp_millipage
module Homes = Dsm.Config.Homes

let mk ?(hosts = 4) homes =
  let e = Engine.create () in
  let config = { Dsm.Config.default with homes } in
  (e, Dsm.create e ~hosts ~config ())

(* ---------------- assignment policies and the accessor API ------------- *)

let test_policy_assignment () =
  let check_homes label homes expect =
    let _, dsm = mk ~hosts:4 homes in
    let xs = Dsm.malloc_array dsm ~count:12 ~size:64 in
    ignore xs;
    Alcotest.(check (array int)) label expect (Dsm.homes dsm)
  in
  check_homes "central homes everything at 0" Homes.central (Array.make 12 0);
  check_homes "round-robin homes id mod hosts" Homes.round_robin
    (Array.init 12 (fun id -> id mod 4));
  check_homes "block homes runs of 3" (Homes.block 3)
    (Array.init 12 (fun id -> id / 3 mod 4));
  (* first-toucher parks everything at 0 until first touch *)
  check_homes "first-toucher starts at 0" Homes.first_toucher (Array.make 12 0)

let test_home_of_addr () =
  let _, dsm = mk ~hosts:4 Homes.round_robin in
  let xs = Dsm.malloc_array dsm ~count:8 ~size:64 in
  Array.iteri
    (fun id addr ->
      Alcotest.(check int)
        (Printf.sprintf "home_of mp%d" id)
        (id mod 4)
        (Dsm.home_of dsm ~addr))
    xs

(* [home_of] answers from the same table as [homes] under every policy. *)
let test_home_of_agrees_with_homes () =
  List.iter
    (fun homes ->
      let _, dsm = mk ~hosts:4 homes in
      let xs = Dsm.malloc_array dsm ~count:12 ~size:64 in
      let table = Dsm.homes dsm in
      Array.iteri
        (fun id addr ->
          Alcotest.(check int)
            (Printf.sprintf "%s mp%d" (Homes.policy_name homes.Homes.policy) id)
            table.(id) (Dsm.home_of dsm ~addr))
        xs)
    [ Homes.central; Homes.round_robin; Homes.block 3; Homes.first_toucher ]

let test_policy_of_string () =
  List.iter
    (fun (s, p) ->
      Alcotest.(check bool) s true (Homes.policy_of_string s = Some p))
    [
      ("central", Homes.Central);
      ("rr", Homes.Round_robin);
      ("round-robin", Homes.Round_robin);
      ("block", Homes.Block);
      ("ft", Homes.First_toucher);
      ("first-toucher", Homes.First_toucher);
    ];
  Alcotest.(check bool) "junk rejected" true (Homes.policy_of_string "junk" = None);
  List.iter
    (fun p ->
      Alcotest.(check bool) "name round-trips" true
        (Homes.policy_of_string (Homes.policy_name p) = Some p))
    [ Homes.Central; Homes.Round_robin; Homes.Block; Homes.First_toucher ]

(* ---------------- first-toucher migration and stale hints -------------- *)

let test_first_toucher_migrates () =
  let e, dsm = mk Homes.first_toucher in
  let x = Dsm.malloc dsm 64 in
  Dsm.init_write_f64 dsm x 4.5;
  let seen1 = ref 0.0 and seen2 = ref 0.0 in
  (* host 2 touches first: the minipage migrates to it.  Host 1 touches
     later through its stale hint (still host 0) and must be redirected. *)
  Dsm.spawn dsm ~host:2 (fun ctx -> seen2 := Dsm.read_f64 ctx x);
  Dsm.spawn dsm ~host:1 (fun ctx ->
      Dsm.compute ctx 5000.0;
      seen1 := Dsm.read_f64 ctx x);
  Dsm.run dsm;
  ignore (Engine.now e);
  Alcotest.(check (float 0.0)) "first toucher reads" 4.5 !seen2;
  Alcotest.(check (float 0.0)) "late reader reads" 4.5 !seen1;
  Alcotest.(check int) "migrated to its first toucher" 2 (Dsm.home_of dsm ~addr:x);
  Alcotest.(check int) "one migration" 1 (Dsm.stats dsm).home_migrations;
  Alcotest.(check bool) "stale hint redirected" true ((Dsm.stats dsm).home_redirects >= 1)

let test_first_toucher_stays_home_for_manager () =
  (* a protocol-visible touch by host 0 (its push) fixes the minipage at
     home 0 in place: later remote readers do not steal it.  (Host 0's own
     loads/stores never fault — it owns fresh minipages read-write from
     init — so only pushes and remote requests count as touches.) *)
  let _, dsm = mk Homes.first_toucher in
  let x = Dsm.malloc dsm 64 in
  Dsm.init_write_f64 dsm x 1.0;
  let seen = ref 0.0 in
  Dsm.spawn dsm ~host:0 (fun ctx ->
      Dsm.write_f64 ctx x 2.0;
      Dsm.push_to_all ctx x);
  Dsm.spawn dsm ~host:1 (fun ctx ->
      Dsm.compute ctx 5000.0;
      seen := Dsm.read_f64 ctx x);
  Dsm.run dsm;
  Alcotest.(check (float 0.0)) "value flows" 2.0 !seen;
  Alcotest.(check int) "still homed at 0" 0 (Dsm.home_of dsm ~addr:x);
  Alcotest.(check int) "no migration" 0 (Dsm.stats dsm).home_migrations

(* ---------------- queue depth: sharding beats the central manager ------ *)

(* Three groups of writers, each convoying over its own four minipages.
   Under the central policy every group's queue lands in host 0's shard at
   once; under rr/block the queues spread, so the worst per-home high-water
   mark must come out strictly below the central figure. *)
let contended_run homes =
  let e, dsm = mk ~hosts:8 homes in
  let sets = Array.init 3 (fun _ -> Dsm.malloc_array dsm ~count:4 ~size:64) in
  Array.iter (Array.iter (fun x -> Dsm.init_write_f64 dsm x 0.0)) sets;
  Dsm.spawn dsm ~host:0 (fun ctx ->
      for _ = 1 to 20 do
        Dsm.compute ctx 50.0;
        Dsm.barrier ctx
      done);
  for h = 1 to 7 do
    let set = sets.((h - 1) mod 3) in
    Dsm.spawn dsm ~host:h (fun ctx ->
        for i = 1 to 20 do
          for r = 1 to 3 do
            Array.iter (fun x -> Dsm.write_f64 ctx x (float_of_int (i + r + h))) set
          done;
          Dsm.barrier ctx
        done)
  done;
  Dsm.run dsm;
  let max_home_depth =
    Array.fold_left max 0 (Dsm.max_queue_depth_by_home dsm)
  in
  let h0_barrier_wait = (Dsm.breakdown dsm ~host:0).Breakdown.synch in
  (Engine.now e, max_home_depth, h0_barrier_wait)

let test_sharding_spreads_queues () =
  let _, central_depth, _ = contended_run Homes.central in
  let _, rr_depth, _ = contended_run Homes.round_robin in
  let _, block_depth, _ = contended_run (Homes.block 4) in
  Alcotest.(check bool) "central manager actually queues" true (central_depth >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "rr per-home depth %d < central %d" rr_depth central_depth)
    true (rr_depth < central_depth);
  Alcotest.(check bool)
    (Printf.sprintf "block per-home depth %d < central %d" block_depth central_depth)
    true (block_depth < central_depth)

let test_barrier_latency_off_manager () =
  (* satellite bugfix: barriers are homed per phase, so a probe thread's
     barrier wait no longer degrades behind the manager's directory load *)
  let central_end, _, central_wait = contended_run Homes.central in
  let rr_end, _, rr_wait = contended_run Homes.round_robin in
  Alcotest.(check bool)
    (Printf.sprintf "barrier wait %.0f < central %.0f" rr_wait central_wait)
    true (rr_wait < central_wait);
  Alcotest.(check bool)
    (Printf.sprintf "end %.0f <= central %.0f" rr_end central_end)
    true (rr_end <= central_end)

(* ---------------- policy equivalence on the real applications ---------- *)

let run_app_with ~app ~hosts homes =
  let dsm, ok = Small_apps.run ~hosts { Dsm.Config.default with homes } app in
  (ok, Dsm.read_faults dsm, Dsm.write_faults dsm)

let qcheck_policy_equivalence =
  QCheck.Test.make ~name:"any home policy computes central's results"
    ~count:12
    QCheck.(
      pair
        (oneofl
           [ Homes.round_robin; Homes.block 2; Homes.block 5; Homes.first_toucher ])
        (pair (oneofl Small_apps.all) (int_range 2 6)))
    (fun (homes, (app, hosts)) ->
      let c_ok, c_rf, c_wf = run_app_with ~app ~hosts Homes.central in
      let ok, rf, wf = run_app_with ~app ~hosts homes in
      if not (c_ok && ok) then QCheck.Test.fail_report "verification failed";
      (* sharding relocates directory work but must not change the coherence
         transitions the application provokes.  First_toucher is exempt:
         migrating a home mid-run adds redirect hops for stale hints, which
         shifts message timing and can move a racy access across a fault.
         TSP is exempt for the same reason from the application side: which
         host steals which tour-pool task depends on lock-grant timing, so
         the access pattern itself shifts between policies. *)
      if
        homes.Homes.policy <> Homes.First_toucher
        && (match app with Mp_apps.App.Tsp _ -> false | _ -> true)
        && (rf <> c_rf || wf <> c_wf)
      then
        QCheck.Test.fail_reportf "fault counts diverged: %d/%d vs central %d/%d"
          rf wf c_rf c_wf;
      true)

let suite =
  [
    Alcotest.test_case "policy assignment" `Quick test_policy_assignment;
    Alcotest.test_case "home_of by address" `Quick test_home_of_addr;
    Alcotest.test_case "home_of agrees with homes" `Quick test_home_of_agrees_with_homes;
    Alcotest.test_case "policy names" `Quick test_policy_of_string;
    Alcotest.test_case "first-toucher migrates" `Quick test_first_toucher_migrates;
    Alcotest.test_case "first touch by host 0 stays" `Quick
      test_first_toucher_stays_home_for_manager;
    Alcotest.test_case "sharding spreads queues" `Quick test_sharding_spreads_queues;
    Alcotest.test_case "barrier latency off manager" `Quick
      test_barrier_latency_off_manager;
    QCheck_alcotest.to_alcotest qcheck_policy_equivalence;
  ]
