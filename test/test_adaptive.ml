(* Adaptive per-minipage consistency: the Config.Consistency API, the pure
   multi-writer RC path (twin on write fault, release-time diffs, acquire
   invalidation), the governor's promote/demote cycle with its
   switch-only-at-sync-points rule, diff-merge determinism, crash recovery
   under replication, and result equivalence with SC on the applications. *)

open Mp_sim
open Mp_millipage
module Consistency = Dsm.Config.Consistency
module Homes = Dsm.Config.Homes

let mk ?(hosts = 2) ?(homes = Homes.default) consistency =
  let e = Engine.create () in
  let config = { Dsm.Config.default with consistency; homes } in
  (e, Dsm.create e ~hosts ~config ())

(* ---------------- the Config.Consistency API --------------------------- *)

let test_config_api () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "mode name round-trips" true
        (Consistency.mode_of_string (Consistency.mode_name m) = Some m))
    [ `Sc; `Rc; `Adaptive ];
  Alcotest.(check bool) "junk rejected" true
    (Consistency.mode_of_string "release" = None);
  Alcotest.(check bool) "default is sc" true (Consistency.default.mode = `Sc);
  Alcotest.(check bool) "config default carries sc" true
    (Dsm.Config.default.consistency = Consistency.sc);
  Alcotest.check_raises "interval below 1 rejected"
    (Invalid_argument "Consistency.with_adapt_interval") (fun () ->
      ignore (Consistency.with_adapt_interval Consistency.adaptive 0));
  let c =
    Consistency.with_hysteresis
      (Consistency.with_adapt_interval Consistency.adaptive 3)
      ~promote_after:5 ~demote_after:7 ()
  in
  Alcotest.(check int) "interval kept" 3 c.adapt_interval;
  Alcotest.(check int) "promote_after kept" 5 c.promote_after;
  Alcotest.(check int) "demote_after kept" 7 c.demote_after;
  Alcotest.(check bool) "mode kept" true (c.mode = `Adaptive)

(* ---------------- shared workload helpers ------------------------------ *)

(* Two hosts falsely share one 64-byte minipage: each phase both write the
   four slots of their own half, interleaved by small computes, cross a
   barrier, and read the other's half.  Under SC the minipage ping-pongs on
   every interleaved write; under RC each host pays one fetch-and-twin and
   one release-time diff per phase. *)
let slot x ~half ~i = x + (32 * half) + (8 * i)
let slot_value ~phase ~half ~i = float_of_int ((100 * phase) + (10 * half) + i)

let false_sharing_run ?(hosts = 2) ?(phases = 6) consistency =
  let e, dsm = mk ~hosts consistency in
  let x = Dsm.malloc dsm 64 in
  Dsm.init_write_f64 dsm x 0.0;
  let bad = ref [] in
  for h = 0 to 1 do
    Dsm.spawn dsm ~host:h (fun ctx ->
        for p = 1 to phases do
          for i = 0 to 3 do
            Dsm.write_f64 ctx (slot x ~half:h ~i) (slot_value ~phase:p ~half:h ~i);
            Dsm.compute ctx 300.0
          done;
          Dsm.barrier ctx;
          for i = 0 to 3 do
            let got = Dsm.read_f64 ctx (slot x ~half:(1 - h) ~i) in
            let want = slot_value ~phase:p ~half:(1 - h) ~i in
            if got <> want then bad := (h, p, got, want) :: !bad
          done;
          Dsm.barrier ctx
        done)
  done;
  Dsm.run dsm;
  List.iter
    (fun (h, p, got, want) ->
      Alcotest.failf "host %d phase %d read %g, wanted %g" h p got want)
    !bad;
  (e, dsm, x)

let test_rc_multi_writer () =
  let _, dsm, x = false_sharing_run Consistency.rc in
  Alcotest.(check bool) "minipage runs rc" true (Dsm.mode_of dsm ~addr:x = Proto.Rc);
  Alcotest.(check bool) "twins were made" true ((Dsm.stats dsm).rc_twins > 0);
  Alcotest.(check bool) "diffs were flushed" true ((Dsm.stats dsm).rc_diffs > 0);
  Alcotest.(check bool) "diff bytes counted" true ((Dsm.stats dsm).rc_diff_bytes > 0);
  let sc_n = List.assoc Proto.Sc (Dsm.modes dsm)
  and rc_n = List.assoc Proto.Rc (Dsm.modes dsm) in
  Alcotest.(check int) "census: nothing left sc" 0 sc_n;
  Alcotest.(check bool) "census: everything rc" true (rc_n > 0);
  (* pure-mode runs never switch, so the log stays empty *)
  Alcotest.(check int) "no switches in pure rc" 0 (Dsm.mode_switches dsm);
  Alcotest.(check bool) "log empty" true (Dsm.mode_switch_log dsm = [])

let test_rc_beats_sc_on_false_sharing () =
  let _, sc_dsm, _ = false_sharing_run ~phases:10 Consistency.sc in
  let _, rc_dsm, _ = false_sharing_run ~phases:10 Consistency.rc in
  let sc_msgs = Dsm.messages_sent sc_dsm and rc_msgs = Dsm.messages_sent rc_dsm in
  Alcotest.(check bool)
    (Printf.sprintf "rc %d msgs < sc %d msgs" rc_msgs sc_msgs)
    true (rc_msgs < sc_msgs)

(* ---------------- the governor ----------------------------------------- *)

let eager =
  Consistency.with_hysteresis
    (Consistency.with_adapt_interval Consistency.adaptive 1)
    ~promote_after:1 ~demote_after:2 ()

let test_switch_only_at_sync_points () =
  (* the same falsely-shared write pattern, but with no barrier or lock in
     the run: the governor never gets a sync point, so nothing may switch *)
  let _, dsm = mk eager in
  let x = Dsm.malloc dsm 64 in
  Dsm.init_write_f64 dsm x 0.0;
  for h = 0 to 1 do
    Dsm.spawn dsm ~host:h (fun ctx ->
        for p = 1 to 8 do
          Dsm.write_f64 ctx (x + (8 * h)) (float_of_int p);
          Dsm.compute ctx 50.0
        done)
  done;
  Dsm.run dsm;
  Alcotest.(check int) "no switches without sync points" 0 (Dsm.mode_switches dsm);
  Alcotest.(check bool) "still sc" true (Dsm.mode_of dsm ~addr:x = Proto.Sc)

let test_adaptive_promotes_then_demotes () =
  (* window of two phases: the read-only phases yield one refetch per host
     per phase, so a one-phase window would sit below the signature's
     min-accesses floor and classify as (neutral) low traffic.  Two
     consecutive write-shared windows to promote, so the decayed write
     residue right after the demotion cannot flap the minipage back. *)
  let gov =
    Consistency.with_hysteresis
      (Consistency.with_adapt_interval Consistency.adaptive 2)
      ~promote_after:2 ~demote_after:2 ()
  in
  let _, dsm = mk gov in
  let x = Dsm.malloc dsm 64 in
  Dsm.init_write_f64 dsm x 0.0;
  let phases = 10 in
  for h = 0 to 1 do
    Dsm.spawn dsm ~host:h (fun ctx ->
        (* write-shared phases: both hosts write their half every phase *)
        for p = 1 to phases do
          for i = 0 to 3 do
            Dsm.write_f64 ctx (slot x ~half:h ~i) (float_of_int (p + i));
            Dsm.compute ctx 300.0
          done;
          Dsm.barrier ctx
        done;
        (* read-only phases: the signature turns read-mostly *)
        for _ = 1 to 8 do
          for i = 0 to 7 do
            ignore (Dsm.read_f64 ctx (x + (8 * i)))
          done;
          Dsm.barrier ctx
        done)
  done;
  Dsm.run dsm;
  Alcotest.(check bool) "promoted at least once" true
    ((Dsm.stats dsm).rc_promotes >= 1);
  Alcotest.(check bool) "demoted at least once" true
    ((Dsm.stats dsm).rc_demotes >= 1);
  (match Dsm.mode_switch_log dsm with
  | (_, mp0, first) :: _ ->
    Alcotest.(check int) "first switch is the hot minipage" 0 mp0;
    Alcotest.(check bool) "first switch promotes" true (first = Proto.Rc)
  | [] -> Alcotest.fail "empty switch log");
  Alcotest.(check bool) "back to sc at the end" true
    (Dsm.mode_of dsm ~addr:x = Proto.Sc);
  (* the log is the full history: it must alternate per minipage and end Sc *)
  let final = Hashtbl.create 8 in
  List.iter
    (fun (_, mp, m) -> Hashtbl.replace final mp m)
    (Dsm.mode_switch_log dsm);
  Hashtbl.iter
    (fun mp m ->
      Alcotest.(check bool) (Printf.sprintf "mp%d settled sc" mp) true
        (m = Proto.Sc))
    final

(* ---------------- determinism ------------------------------------------ *)

let test_rc_runs_are_deterministic () =
  let run () =
    let e, dsm, _ = false_sharing_run ~phases:8 Consistency.rc in
    ( Engine.now e,
      Dsm.messages_sent dsm,
      (Dsm.stats dsm).rc_diffs,
      (Dsm.stats dsm).rc_diff_bytes,
      Dsm.read_faults dsm,
      Dsm.write_faults dsm )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two rc runs are bit-equal" true (a = b)

let test_explicit_sc_matches_default () =
  let run consistency =
    let e, dsm, _ = false_sharing_run ~phases:8 consistency in
    ( Engine.now e,
      Dsm.messages_sent dsm,
      Dsm.read_faults dsm,
      Dsm.write_faults dsm )
  in
  Alcotest.(check bool) "explicit sc equals the default config" true
    (run Consistency.sc = run Consistency.default)

(* ---------------- crash recovery under rc ------------------------------ *)

let test_rc_crash_with_replication () =
  (* 4 hosts, round-robin homes, pure rc.  Host 2 (a home) dies
     mid-run; its backup must adopt the shard and force the orphaned rc
     minipages back to sc before serving them again.  The workload's values
     must still come out right on the survivors. *)
  let fast_ft = { Fixture.fast_ft with crashes = [ (2, 9000.0) ] } in
  let config =
    {
      Dsm.Config.default with
      consistency = Consistency.rc;
      homes = Homes.round_robin;
      polling = Mp_net.Polling.Fast;
      ft = Some fast_ft;
    }
  in
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:4 ~config () in
  let cells = Dsm.malloc_array dsm ~count:8 ~size:64 in
  Array.iter (fun c -> Dsm.init_write_f64 dsm c 0.0) cells;
  let bad = ref [] in
  for h = 0 to 1 do
    Dsm.spawn dsm ~host:h (fun ctx ->
        for p = 1 to 10 do
          Array.iteri
            (fun i c -> if i mod 2 = h then Dsm.write_f64 ctx c (float_of_int p))
            cells;
          Dsm.compute ctx 1500.0;
          Dsm.barrier ctx;
          Array.iteri
            (fun i c ->
              let v = Dsm.read_f64 ctx c in
              if v <> float_of_int p then bad := (h, p, i, v) :: !bad)
            cells;
          Dsm.barrier ctx
        done)
  done;
  (* the victim computes only: its thread leaves the barrier population when
     the crash is declared; host 3 (the backup) runs no application thread *)
  Dsm.spawn dsm ~host:2 (fun ctx -> Dsm.compute ctx 60000.0);
  Dsm.run dsm;
  List.iter
    (fun (h, p, i, v) ->
      Alcotest.failf "host %d phase %d cell %d read %g, wanted %d" h p i v p)
    !bad;
  Alcotest.(check bool) "host 2 was declared dead" true
    (List.mem 2 (Dsm.crashed_hosts dsm));
  (* recovery demotes every rc minipage the dead home owned *)
  Alcotest.(check bool) "recovery forced demotions" true
    ((Dsm.stats dsm).rc_demotes >= 1)

(* A recovery fence that finds a twin: host 2, the home of [x], dies at
   500 µs while host 1 holds an unreleased write to [x].  The backup's
   promotion demotes [x] to sc, and the fence that reaches host 1's copy
   must send its diff before dropping the twin, or the write is lost. *)
let test_recovery_fence_flushes_twin () =
  let config =
    {
      Dsm.Config.default with
      consistency = Consistency.rc;
      homes = Homes.round_robin;
      polling = Mp_net.Polling.Fast;
      ft = Some { Fixture.fast_ft with crashes = [ (2, 500.0) ] };
    }
  in
  let dsm = Dsm.create (Engine.create ()) ~hosts:3 ~config () in
  let cells = Dsm.malloc_array dsm ~count:3 ~size:64 in
  let x = cells.(2) in
  Alcotest.(check int) "x is homed at host 2" 2 (Dsm.home_of dsm ~addr:x);
  let seen = ref nan in
  Dsm.spawn dsm ~host:1 (fun ctx ->
      Dsm.write_f64 ctx x 42.0;
      Dsm.compute ctx 20_000.0;
      Dsm.barrier ctx;
      seen := Dsm.read_f64 ctx x);
  Dsm.spawn dsm ~host:0 (fun ctx -> Dsm.barrier ctx);
  Dsm.spawn dsm ~host:2 (fun ctx -> Dsm.compute ctx 60_000.0);
  Dsm.run dsm;
  Alcotest.(check (float 0.0)) "host 1's write survives the fence" 42.0 !seen;
  let s = Dsm.stats dsm in
  Alcotest.(check int) "one twin" 1 s.rc_twins;
  Alcotest.(check int) "the fence sent its diff" 1 s.rc_diffs;
  Alcotest.(check (list int)) "host 2 declared dead" [ 2 ] (Dsm.declared_dead dsm);
  Alcotest.(check int) "one promotion" 1 s.backup_promotions

(* ---------------- equivalence on the applications ---------------------- *)

let qcheck_mode_equivalence =
  QCheck.Test.make ~name:"rc and adaptive compute sc's results" ~count:10
    QCheck.(
      triple
        (oneofl [ Consistency.rc; Consistency.adaptive; eager ])
        (oneofl Small_apps.all)
        (pair (int_range 2 6) (oneofl [ Homes.central; Homes.round_robin ])))
    (fun (consistency, app, (hosts, homes)) ->
      let config = { Dsm.Config.default with consistency; homes } in
      if not (snd (Small_apps.run ~hosts config app)) then
        QCheck.Test.fail_report "verification failed";
      true)

let suite =
  [
    Alcotest.test_case "consistency config api" `Quick test_config_api;
    Alcotest.test_case "rc multi-writer path" `Quick test_rc_multi_writer;
    Alcotest.test_case "rc beats sc on false sharing" `Quick
      test_rc_beats_sc_on_false_sharing;
    Alcotest.test_case "switches only at sync points" `Quick
      test_switch_only_at_sync_points;
    Alcotest.test_case "adaptive promotes then demotes" `Quick
      test_adaptive_promotes_then_demotes;
    Alcotest.test_case "rc runs are deterministic" `Quick
      test_rc_runs_are_deterministic;
    Alcotest.test_case "explicit sc equals default" `Quick
      test_explicit_sc_matches_default;
    Alcotest.test_case "rc crash with replication" `Quick
      test_rc_crash_with_replication;
    QCheck_alcotest.to_alcotest qcheck_mode_equivalence;
    Alcotest.test_case "recovery fence flushes a twin" `Quick
      test_recovery_fence_flushes_twin;
  ]
