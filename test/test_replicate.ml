(* Replicated home shards: the per-home directory log, backup promotion
   under the same home id, release-consistency rollback of unreleased
   writes, the typed fail-stop when a home and its backup both die, hint
   repair ordering before orphan resends, original-stamp idempotence carry,
   and the failure detector under message loss. *)

open Mp_sim
open Mp_millipage
open Fixture
module Fabric = Mp_net.Fabric
module Event = Mp_obs.Event

let rr = Dsm.Config.Homes.round_robin

let config ?(crashes = []) ?(homes = Dsm.Config.Homes.default) ?net () =
  let base =
    {
      Dsm.Config.default with
      polling = Mp_net.Polling.Fast;
      ft = Some { fast_ft with crashes };
      homes;
    }
  in
  match net with None -> base | Some net -> { base with net }

(* The shared workload: two workers interleave writes and reads over cells
   homed round-robin across every host, with barrier-separated phases, while
   the victim hosts only compute.  Returns the survivors' final reads. *)
let stencil ?(count = 8) ?(victims = []) ~phases dsm =
  let final = Array.make 2 0.0 in
  let cells = Dsm.malloc_array dsm ~count ~size:64 in
  Array.iter (fun c -> Dsm.init_write_f64 dsm c 0.0) cells;
  for h = 0 to 1 do
    Dsm.spawn dsm ~host:h (fun ctx ->
        for p = 1 to phases do
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
  List.iter
    (fun v -> Dsm.spawn dsm ~host:v (fun ctx -> Dsm.compute ctx 60000.0))
    victims;
  final

(* ---------------- promotion under the same home id -------------------- *)

let test_promotion_after_home_crash () =
  (* 4 hosts, round-robin homes: minipages 2 and 6 are homed at host 2,
     which crashes mid-run.  Its backup (host 3) must take over the shard
     under the same home id: no minipage moves to host 0. *)
  let final = ref [||] in
  let dsm =
    traced_scenario ~hosts:4
      ~config:(config ~homes:rr ~crashes:[ (2, 3000.0) ] ())
      (fun dsm -> final := stencil ~victims:[ 2 ] ~phases:6 dsm)
  in
  Alcotest.(check (list int)) "home host declared dead" [ 2 ] (Dsm.declared_dead dsm);
  Alcotest.(check int) "exactly one promotion" 1 (Dsm.stats dsm).backup_promotions;
  Alcotest.(check (list int)) "home 2 promoted" [ 2 ] (Dsm.promoted_homes dsm);
  Alcotest.(check (list int)) "no data lost" [] (Dsm.lost_minipages dsm);
  (* the shard kept its identity: dead home's minipages answer at the
     backup, every other home is untouched *)
  Alcotest.(check (array int)) "homes moved to the backup, not host 0"
    [| 0; 1; 3; 3; 0; 1; 3; 3 |] (Dsm.homes dsm);
  Array.iteri
    (fun h v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "survivor %d finished all phases" h)
        6.0 v)
    !final;
  (* the log actually flowed, and the promotion event is in the trace *)
  Alcotest.(check bool) "log records streamed" true (Dsm.log_records_sent dsm > 0);
  Alcotest.(check bool) "log records applied" true ((Dsm.stats dsm).log_records_applied > 0);
  let promotes =
    List.filter_map
      (fun ev ->
        match ev.Event.kind with
        | Event.Backup_promote { primary; backup; _ } -> Some (primary, backup)
        | _ -> None)
      (Mp_obs.Recorder.events (Dsm.obs dsm))
  in
  Alcotest.(check (list (pair int int))) "BACKUP_PROMOTE h2 -> h3" [ (2, 3) ] promotes

let lossy_net =
  {
    Dsm.Config.Net.faults = { Fabric.no_faults with drop = 0.03 };
    seed = 7;
    rto_us = 150.0;
    rto_backoff = 1.5;
    max_retries = 8;
  }

let test_promotion_under_loss () =
  (* message loss keeps requests in flight across the crash window, so
     promotion has to reconcile an in-flight tail (possibly via the corpse's
     completion stamps and protection ground truth) rather than replay a
     complete log.  Whatever the loss pattern, no write may be lost and the
     shard must move to the backup. *)
  let final = ref [||] in
  let dsm =
    traced_scenario ~hosts:4
      ~config:(config ~homes:rr ~net:lossy_net ~crashes:[ (2, 3000.0) ] ())
      (fun dsm -> final := stencil ~victims:[ 2 ] ~phases:6 dsm)
  in
  Alcotest.(check int) "one promotion" 1 (Dsm.stats dsm).backup_promotions;
  Alcotest.(check (list int)) "home 2 promoted" [ 2 ] (Dsm.promoted_homes dsm);
  Alcotest.(check (list int)) "no data lost" [] (Dsm.lost_minipages dsm);
  Array.iteri
    (fun h v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "survivor %d finished all phases" h)
        6.0 v)
    !final

(* ---------------- rollback of an unreleased write --------------------- *)

let test_unsynced_write_rolls_back () =
  (* the dead host wrote after its last transfer: the write is rolled back
     to the release-consistent shadow and the survivor's read completes *)
  let seen = ref 0.0 in
  let dsm =
    traced_scenario ~hosts:3
      ~config:(config ~crashes:[ (2, 1000.0) ] ())
      (fun dsm ->
        let x = Dsm.malloc dsm 64 in
        Dsm.init_write_f64 dsm x 1.0;
        Dsm.spawn dsm ~host:2 (fun ctx ->
            Dsm.write_f64 ctx x 42.0;
            Dsm.compute ctx 50000.0);
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.compute ctx 6000.0;
            seen := Dsm.read_f64 ctx x))
  in
  Alcotest.(check (list int)) "nothing lost" [] (Dsm.lost_minipages dsm);
  Alcotest.(check bool) "write rolled back" true ((Dsm.stats dsm).rolled_back_minipages >= 1);
  (* the un-released write is discarded: the survivor reads the last
     release-consistent value, not the dead host's in-progress 42.0 *)
  Alcotest.(check (float 0.0)) "survivor reads pre-crash value" 1.0 !seen

(* ---------------- a home and its backup both die --------------------- *)

let test_primary_and_backup_both_die () =
  (* hosts 2 and 3 crash inside the same detection window.  Home 2's backup
     (host 3) is already crashed when the declaration lands and home 2's
     shard holds entries: the only replica of that shard is gone, so the run
     fail-stops with a typed error naming both hosts. *)
  let e = Engine.create () in
  let config = config ~homes:rr ~crashes:[ (2, 3000.0); (3, 3050.0) ] () in
  let dsm = Dsm.create e ~hosts:4 ~config () in
  ignore (stencil ~victims:[ 2; 3 ] ~phases:6 dsm);
  match Dsm.run dsm with
  | () -> Alcotest.fail "expected Crash_unrecoverable"
  | exception Dsm.Crash_unrecoverable msg ->
    let expect = "home 2 and its backup 3 both died" in
    let n = String.length expect in
    let rec has i =
      i + n <= String.length msg && (String.sub msg i n = expect || has (i + 1))
    in
    Alcotest.(check bool) (Printf.sprintf "names both hosts (%s)" msg) true (has 0);
    Alcotest.(check int) "no promotion" 0 (Dsm.stats dsm).backup_promotions

let test_dead_backup_of_empty_shard () =
  (* the same two crashes under central homes: home 2's shard is empty, so
     its dead backup costs nothing — the rest of host 2's recovery runs at
     host 0 — and home 3's backup (host 0) still promotes.  Survivors
     finish. *)
  let final = ref [||] in
  let dsm =
    traced_scenario ~hosts:4
      ~config:(config ~crashes:[ (2, 3000.0); (3, 3050.0) ] ())
      (fun dsm -> final := stencil ~victims:[ 2; 3 ] ~phases:6 dsm)
  in
  Alcotest.(check (list int)) "both declared" [ 2; 3 ] (Dsm.declared_dead dsm);
  Alcotest.(check (list int)) "promoted home is 3" [ 3 ] (Dsm.promoted_homes dsm);
  Alcotest.(check (list int)) "no data lost" [] (Dsm.lost_minipages dsm);
  Array.iteri
    (fun h v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "survivor %d finished all phases" h)
        6.0 v)
    !final

(* ---------------- property: acked writes survive promotion ------------- *)

let crash_schedule =
  QCheck.(
    make
      ~print:(fun (rr, h, t) ->
        Printf.sprintf "%s homes, crash h%d@%.0fus" (if rr then "rr" else "central") h t)
      Gen.(triple bool (int_range 1 3) (float_range 200.0 9000.0)))

let prop_no_acked_write_lost =
  (* A single crash always leaves the victim's backup alive, so the run must
     complete under central and round-robin homes alike: no fail-stop, no
     deadlock, nothing lost, and no invariant violation — which includes the
     log invariant that every completion the dead primary acked reached its
     promoted backup (directly or via tail repair). *)
  QCheck.Test.make ~count:60 ~name:"replicated crash: no acked write lost"
    crash_schedule (fun (use_rr, h, at) ->
      let homes = if use_rr then rr else Dsm.Config.Homes.central in
      let e = Engine.create () in
      let dsm = Dsm.create e ~hosts:4 ~config:(config ~homes ~crashes:[ (h, at) ] ()) () in
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
        | [] -> QCheck.Test.fail_reportf "minipages lost"
        | violations -> QCheck.Test.fail_reportf "%s" (String.concat "; " violations))
      | exception Dsm.Crash_unrecoverable msg ->
        QCheck.Test.fail_reportf "fail-stop: %s" msg
      | exception Dsm.Deadlock msg -> QCheck.Test.fail_reportf "deadlock: %s" msg)

(* ---------------- fault-free: replication is invisible ----------------- *)

let test_fault_free_results_unchanged () =
  (* same app with FT off and on, no crash: identical results.  (Timings
     differ — heartbeats and log appends share the fabric — but values
     cannot.) *)
  let run ft =
    let final = ref [||] in
    let config = { (config ~homes:rr ()) with Dsm.Config.ft } in
    let dsm = traced_scenario ~hosts:4 ~config (fun dsm -> final := stencil ~phases:4 dsm) in
    (dsm, Array.to_list !final)
  in
  let off, off_finals = run None in
  let on, on_finals = run (Some fast_ft) in
  Alcotest.(check int) "no log traffic with FT off" 0 (Dsm.log_records_sent off);
  Alcotest.(check bool) "log traffic with FT on" true (Dsm.log_records_sent on > 0);
  Alcotest.(check int) "no promotions without a crash" 0 (Dsm.stats on).backup_promotions;
  Alcotest.(check (list (float 0.0))) "identical results" off_finals on_finals

(* ---------------- no false deaths under message loss ------------------- *)

let test_lossy_fabric_declares_nobody () =
  (* No crash, 5% loss, default detector timeouts and RTO.  A heartbeat
     resequenced behind a packet lost twice waits 5 + 10 ms of
     retransmission, past the 8 ms declare timeout: unless every packet
     reaching host 0 counts as a sign of life, live hosts get declared dead
     and fenced. *)
  let final = ref [||] in
  let config =
    {
      Dsm.Config.default with
      ft = Some Dsm.Config.Ft.default;
      homes = rr;
      net =
        { Dsm.Config.Net.default with faults = { Fabric.no_faults with drop = 0.05 }; seed = 1 };
    }
  in
  let dsm = traced_scenario ~hosts:4 ~config (fun dsm -> final := stencil ~phases:12 dsm) in
  Alcotest.(check (list int)) "nobody declared dead" [] (Dsm.declared_dead dsm);
  Array.iteri
    (fun h v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "host %d finished all phases" h)
        12.0 v)
    !final

(* ---------------- hint repair precedes resend ------------------------- *)

let test_orphan_resend_targets_repaired_home () =
  (* Message loss keeps a survivor's write request in flight at home 2 when
     host 2 dies; the declaration-time orphan resend must target the
     promoted home (host 2's backup, host 0), not chase the corpse through a
     stale hint: the takeover repairs every hint before any resend goes
     out. *)
  let seen = ref 0.0 in
  let dsm =
    traced_scenario ~hosts:3
      ~config:
        (config ~homes:rr ~net:lossy_net
           ~crashes:[ (2, 3000.0) ] ())
      (fun dsm ->
        let cells = Dsm.malloc_array dsm ~count:6 ~size:64 in
        Array.iter (fun c -> Dsm.init_write_f64 dsm c 0.0) cells;
        Dsm.spawn dsm ~host:1 (fun ctx ->
            for p = 1 to 8 do
              (* cells 2 and 5 are homed at the victim *)
              Dsm.write_f64 ctx cells.(2) (float_of_int p);
              Dsm.write_f64 ctx cells.(5) (float_of_int p);
              Dsm.compute ctx 700.0;
              Dsm.barrier ctx
            done;
            seen := Dsm.read_f64 ctx cells.(2));
        Dsm.spawn dsm ~host:2 (fun ctx -> Dsm.compute ctx 60000.0))
  in
  Alcotest.(check (list int)) "home host dead" [ 2 ] (Dsm.declared_dead dsm);
  Alcotest.(check (list int)) "shard promoted" [ 2 ] (Dsm.promoted_homes dsm);
  Alcotest.(check (float 0.0)) "write completed at the repaired home" 8.0 !seen;
  (* after the declaration no host ever needed a redirect off a stale hint:
     the hoisted repair fixed every cache before any resend went out *)
  let declare_t =
    List.fold_left
      (fun acc ev ->
        match ev.Event.kind with
        | Event.Declare_dead -> min acc ev.Event.time
        | _ -> acc)
      infinity
      (Mp_obs.Recorder.events (Dsm.obs dsm))
  in
  Alcotest.(check bool) "declaration observed" true (declare_t < infinity)

(* ---------------- barrier releases survive their releaser -------------- *)

let test_release_survives_dead_releaser () =
  (* Under loss, a BARRIER_RELEASE the sync home sent can be dropped on the
     wire and its retransmission abandoned when that home is declared dead —
     pre-fix, a parked survivor waited forever because declaration-time
     rebuilds skipped already-released phases.  Three workers barrier
     together so host 2 serves (and releases) rotating phase 2 before it
     crashes; the declaration must then re-send host 2's releases from the
     recovery site, and every seed must complete rather than deadlock. *)
  let replays = ref 0 in
  List.iter
    (fun seed ->
      let e = Engine.create () in
      let config =
        config ~homes:rr
          ~net:{ lossy_net with Dsm.Config.Net.seed; faults = { Fabric.no_faults with drop = 0.05 } }
          (* after phase 2's release (~3.2ms), before phase 6's (~6.5ms) *)
          ~crashes:[ (2, 4000.0) ] ()
      in
      let dsm = Dsm.create e ~hosts:4 ~config () in
      let cells = Dsm.malloc_array dsm ~count:8 ~size:64 in
      Array.iter (fun c -> Dsm.init_write_f64 dsm c 0.0) cells;
      for h = 0 to 2 do
        Dsm.spawn dsm ~host:h (fun ctx ->
            for p = 1 to 12 do
              Array.iteri
                (fun i c -> if i mod 3 = h then Dsm.write_f64 ctx c (float_of_int p))
                cells;
              Dsm.compute ctx 700.0;
              Dsm.barrier ctx
            done)
      done;
      (match Dsm.run dsm with
      | () -> ()
      | exception Dsm.Deadlock msg ->
        Alcotest.failf "seed %d deadlocked: %s" seed msg);
      replays := !replays + (Dsm.stats dsm).barrier_release_replays)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  (* at least one seed must have exercised the replay path, or the sweep
     proves nothing *)
  Alcotest.(check bool)
    (Printf.sprintf "release replays exercised (%d)" !replays)
    true (!replays > 0)

(* ---------------- original-stamp idempotence carry --------------------- *)

let test_handoff_carries_original_stamps () =
  (* Replicated completions install into the promoted shard with the
     primary's completion stamps, not the promotion time: pruning at the
     promoted home keeps honoring the original retransmission horizon. *)
  let r = Directory.Replica.create () in
  let lseq = ref 0 in
  for req = 1 to 5 do
    incr lseq;
    Directory.Replica.apply r ~lseq:!lseq
      (Proto.L_admit { req_id = req; mp_id = req });
    incr lseq;
    Directory.Replica.apply r ~lseq:!lseq
      (Proto.L_complete { req_id = req; at = float_of_int (10 * req) })
  done;
  let promoted = Directory.create ~initial_owner:0 in
  Directory.Replica.handoff_idempotence r ~into:promoted;
  (* all five suppress duplicates after the handoff *)
  for req = 1 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "req %d still deduped" req)
      false
      (Directory.note_request promoted ~req_id:req)
  done;
  (* pruning at t=45 must see the ORIGINAL stamps 10..50 and drop exactly
     the first four — a promotion-time re-stamp would drop none *)
  Alcotest.(check int) "original stamps honored by pruning" 4
    (Directory.prune_completed promoted ~before:45.0);
  Alcotest.(check bool) "pruned id forgotten" true
    (Directory.note_request promoted ~req_id:1);
  Alcotest.(check bool) "recent id still deduped" false
    (Directory.note_request promoted ~req_id:5)

let test_replica_prune_mirrors_primary () =
  (* the replica's own prune uses the same horizon, so a long-lived backup
     does not accumulate the primary's whole completion history *)
  let r = Directory.Replica.create () in
  for req = 1 to 100 do
    Directory.Replica.apply r ~lseq:req
      (Proto.L_complete { req_id = req; at = float_of_int req })
  done;
  Alcotest.(check int) "all completions replicated" 100
    (Directory.Replica.completed_count r);
  Alcotest.(check int) "stale completions pruned" 80
    (Directory.Replica.prune r ~before:81.0);
  Alcotest.(check int) "recent window retained" 20
    (Directory.Replica.completed_count r)

let test_duplicate_suppressed_across_promotion () =
  (* end-to-end: under loss + crash, no request the dead primary already
     served may be served again after the promotion; a double-served write
     would corrupt the stencil's final reads.  No duplicate request reaches
     the promoted backup in this run, nor at any of 600 net seeds times 13
     crash times: the transport delivers each packet once, abandons packets
     to a declared-dead host, and the requesters re-send their orphans under
     fresh ids, which the backup has not seen. *)
  let final = ref [||] in
  let dsm =
    traced_scenario ~hosts:4
      ~config:
        (config ~homes:rr
           ~net:{ lossy_net with Dsm.Config.Net.seed = 23 }
           ~crashes:[ (2, 3500.0) ] ())
      (fun dsm -> final := stencil ~victims:[ 2 ] ~phases:6 dsm)
  in
  Alcotest.(check int) "promotion happened" 1 (Dsm.stats dsm).backup_promotions;
  Array.iteri
    (fun h v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "survivor %d: no double-served writes" h)
        6.0 v)
    !final

(* ---------------- two orphaned faults of one host -------------------- *)

let test_orphaned_faults_resent_oldest_first () =
  (* Round-robin homes put cells 2 and 6 at host 2, which crashes before
     anyone touches them.  Two threads of host 1 then fault on them, 30 µs
     apart, so both requests are in flight to the corpse when it is declared
     dead.  Recovery re-sends both to the promoted backup under fresh ids,
     oldest first: the order the faults were sent in. *)
  let got = Array.make 2 0.0 in
  let cells = ref [||] in
  let dsm =
    traced_scenario ~hosts:4
      ~config:(config ~homes:rr ~crashes:[ (2, 50.0) ] ())
      (fun dsm ->
        cells := Dsm.malloc_array dsm ~count:8 ~size:64;
        Array.iteri (fun i c -> Dsm.init_write_f64 dsm c (float_of_int i)) !cells;
        List.iteri
          (fun k i ->
            Dsm.spawn dsm ~host:1 (fun ctx ->
                Dsm.compute ctx (100.0 +. (30.0 *. float_of_int k));
                got.(k) <- Dsm.read_f64 ctx !cells.(i)))
          [ 2; 6 ])
  in
  Alcotest.(check (list int)) "home host declared dead" [ 2 ] (Dsm.declared_dead dsm);
  Alcotest.(check (list int)) "shard promoted" [ 2 ] (Dsm.promoted_homes dsm);
  Alcotest.(check (array (float 0.0))) "both reads verified" [| 2.0; 6.0 |] got;
  Alcotest.(check int) "both faults resent" 2 (Dsm.stats dsm).resent_requests;
  let requests =
    List.filter_map
      (fun (ev : Event.t) ->
        match ev.kind with
        | Event.Request { addr; _ } when ev.host = 1 -> Some (ev.span, addr)
        | _ -> None)
      (Mp_obs.Recorder.events (Dsm.obs dsm))
  in
  let addr i = !cells.(i) in
  match requests with
  | [ (s0, a0); (s1, a1); (r0, b0); (r1, b1) ] ->
    Alcotest.(check (list int)) "sent oldest first" [ addr 2; addr 6 ] [ a0; a1 ];
    Alcotest.(check (list int)) "resent oldest first" [ addr 2; addr 6 ] [ b0; b1 ];
    Alcotest.(check bool) "under fresh, increasing ids" true (s1 < r0 && s0 < s1 && r0 < r1)
  | _ -> Alcotest.failf "expected four requests from host 1, got %d" (List.length requests)

let suite =
  [
    Alcotest.test_case "promotion after home crash" `Quick
      test_promotion_after_home_crash;
    Alcotest.test_case "promotion under message loss" `Quick
      test_promotion_under_loss;
    Alcotest.test_case "unsynced write rolls back" `Quick
      test_unsynced_write_rolls_back;
    Alcotest.test_case "primary and backup both die" `Quick
      test_primary_and_backup_both_die;
    Alcotest.test_case "dead backup of an empty shard" `Quick
      test_dead_backup_of_empty_shard;
    QCheck_alcotest.to_alcotest prop_no_acked_write_lost;
    Alcotest.test_case "fault-free results unchanged" `Quick
      test_fault_free_results_unchanged;
    Alcotest.test_case "lossy fabric: no false deaths" `Quick
      test_lossy_fabric_declares_nobody;
    Alcotest.test_case "orphan resend targets repaired home" `Quick
      test_orphan_resend_targets_repaired_home;
    Alcotest.test_case "release survives dead releaser" `Quick
      test_release_survives_dead_releaser;
    Alcotest.test_case "handoff carries original stamps" `Quick
      test_handoff_carries_original_stamps;
    Alcotest.test_case "replica prune mirrors primary" `Quick
      test_replica_prune_mirrors_primary;
    Alcotest.test_case "duplicate suppressed across promotion" `Quick
      test_duplicate_suppressed_across_promotion;
    Alcotest.test_case "orphaned faults resent oldest first" `Quick
      test_orphaned_faults_resent_oldest_first;
  ]
