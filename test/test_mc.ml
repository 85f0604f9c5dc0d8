(* mpcheck: the controlled scheduler (tie-break + delivery-perturbation
   choice points), bounded exploration, shrinking, replayable artifacts —
   and the checker-checks-the-checker mutations that prove the coherence
   and invariant checkers actually catch what they claim to. *)

open Mp_sim
open Mp_millipage
open Mp_mc
module Event = Mp_obs.Event
module Invariants = Mp_obs.Invariants

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let any_contains needle = List.exists (fun s -> contains s needle)

(* ---------------- plans and scenario encoding ---------------- *)

let test_plan_roundtrip () =
  let p = Plan.(set (set (set empty ~pos:7 ~pick:2) ~pos:3 ~pick:1) ~pos:12 ~pick:3) in
  Alcotest.(check string) "sorted encoding" "3=1 7=2 12=3" (Plan.to_string p);
  Alcotest.(check bool) "parse round-trips" true (Plan.of_string (Plan.to_string p) = p);
  Alcotest.(check bool) "empty round-trips" true (Plan.of_string "-" = Plan.empty);
  Alcotest.(check string) "pick 0 deletes" "3=1 12=3"
    (Plan.to_string (Plan.set p ~pos:7 ~pick:0));
  Alcotest.(check int) "max_pos" 12 (Plan.max_pos p);
  Alcotest.(check int) "deviations" 3 (Plan.deviations p)

let test_scenario_roundtrip () =
  let check s =
    Alcotest.(check string) "k=v round-trips" (Scenario.to_string s)
      (Scenario.to_string (Scenario.of_string (Scenario.to_string s)))
  in
  check Scenario.default;
  check
    {
      Scenario.default with
      hosts = 5;
      homes = Dsm.Config.Homes.block 2;
      faults =
        { Mp_net.Fabric.drop = 0.05; duplicate = 0.01; reorder = 0.1; jitter_us = 3.5 };
      crashes = [ (4, 1234.5) ];
      mutation = Some (Dsm.Testonly.Stale_reply_data { nth = 7 });
    };
  check { Scenario.default with workload = Scenario.App "sor"; hosts = 2 };
  check
    {
      Scenario.default with
      mutation = Some (Dsm.Testonly.Drop_inval_ack { nth = 2 });
    }

let test_label_independence () =
  Alcotest.(check bool) "net target" true (Sched.target_host "net:h0>h2" = Some 2);
  Alcotest.(check bool) "poll target" true (Sched.target_host "poll:h1" = Some 1);
  Alcotest.(check bool) "resume target" true (Sched.target_host "resume:app.h3" = Some 3);
  Alcotest.(check bool) "no host" true (Sched.target_host "delay:sweeper" = None);
  Alcotest.(check bool) "different hosts commute" true
    (Sched.independent "poll:h1" "net:h0>h2");
  Alcotest.(check bool) "same host depends" false
    (Sched.independent "poll:h1" "net:h0>h1");
  Alcotest.(check bool) "unknown is conservative" false
    (Sched.independent "delay:sweeper" "poll:h1")

(* ---------------- the engine chooser ---------------- *)

(* Three same-instant events: with no chooser (or an all-default plan) they
   run in schedule order; a plan can reorder them, and the scheduler logs
   one choice point per pick (a group of n yields n-1 of them). *)
let tie_order plan =
  let e = Engine.create () in
  let sched =
    Sched.create ~quantum_us:1.0 ~max_delay_steps:3 ~mode:Sched.Follow ~plan ()
  in
  Sched.install sched e;
  let order = ref [] in
  List.iter
    (fun name ->
      Engine.schedule e ~at:5.0 ~label:name (fun () -> order := name :: !order))
    [ "a"; "b"; "c" ];
  Engine.run e;
  (List.rev !order, sched)

let test_chooser_default_is_neutral () =
  let bare = ref [] in
  let e = Engine.create () in
  List.iter
    (fun name -> Engine.schedule e ~at:5.0 (fun () -> bare := name :: !bare))
    [ "a"; "b"; "c" ];
  Engine.run e;
  let order, sched = tie_order Plan.empty in
  Alcotest.(check (list string)) "empty plan = default schedule" (List.rev !bare) order;
  Alcotest.(check int) "two choice points for a group of 3" 2
    (Sched.choice_points sched);
  Alcotest.(check bool) "no deviations taken" true (Sched.taken sched = Plan.empty)

let test_chooser_plan_reorders () =
  let order, sched = tie_order (Plan.of_string "0=2 1=1") in
  Alcotest.(check (list string)) "picks select the run order" [ "c"; "b"; "a" ] order;
  Alcotest.(check bool) "taken = plan" true
    (Sched.taken sched = Plan.of_string "0=2 1=1");
  match Sched.steps sched with
  | [| Sched.Tie { n = 3; pick = 2; _ }; Sched.Tie { n = 2; pick = 1; _ } |] -> ()
  | _ -> Alcotest.fail "unexpected step log"

let test_perturbation_clamped () =
  let e = Engine.create () in
  Engine.set_chooser e
    (Some
       {
         Engine.choose = (fun ~time:_ ~labels:_ -> 0);
         perturb_latency = (fun ~label:_ ~now:_ -> -5.0);
       });
  Alcotest.(check (float 0.0)) "negative perturbation clamped" 0.0
    (Engine.perturb_latency e ~label:"net:h0>h1")

(* [steps] returns the log in encounter order, and builds its array without
   a minor collection even past 256 choice points, where the array is made
   in the major heap and a young filler would force one. *)
let test_steps_no_minor_collection () =
  let e = Engine.create () in
  let sched =
    Sched.create ~quantum_us:1.0 ~max_delay_steps:3 ~mode:Sched.Follow ~plan:Plan.empty ()
  in
  Sched.install sched e;
  let n = 300 in
  let labels = Array.init n (fun i -> "net:h0>h" ^ string_of_int i) in
  (* the steps are logged into an empty minor heap, so they are still
     young when [steps] reads them *)
  Gc.minor ();
  Array.iter (fun label -> ignore (Engine.perturb_latency e ~label)) labels;
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let steps = Sched.steps sched in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "minor collections" 0 (after - before);
  Alcotest.(check int) "one step per choice point" n (Array.length steps);
  Array.iteri
    (fun i step ->
      match step with
      | Sched.Net { label; _ } -> Alcotest.(check string) "logging order" labels.(i) label
      | Sched.Tie _ -> Alcotest.fail "unexpected tie step")
    steps

(* ---------------- replay determinism ---------------- *)

let racer20 =
  Scenario.
    {
      default with
      workload = Racer { locs = 4; ops_per_host = 20; wseed = 7; barrier_every = 0 };
    }

let test_follow_reproduces_random () =
  let r = Scenario.run_random racer20 ~seed:3 ~prob:0.1 in
  let a = Scenario.run_plan racer20 r.Scenario.taken in
  let b = Scenario.run_plan racer20 r.Scenario.taken in
  Alcotest.(check (float 0.0)) "replay end = random end" r.Scenario.end_us a.Scenario.end_us;
  Alcotest.(check bool) "replay state = random state" true
    (a.Scenario.state_sig = r.Scenario.state_sig);
  Alcotest.(check bool) "replay trace = random trace" true
    (a.Scenario.trace_sig = r.Scenario.trace_sig);
  Alcotest.(check bool) "replay is reproducible" true
    (a.Scenario.state_sig = b.Scenario.state_sig
    && a.Scenario.end_us = b.Scenario.end_us
    && a.Scenario.trace_sig = b.Scenario.trace_sig)

(* ---------------- exploration ---------------- *)

(* The headline guarantee: a thousand distinct schedules of the racer, every
   one passing coherence + invariants on the unmutated protocol. *)
let test_exploration_clean_1000 () =
  let budget = Explore.budget ~max_schedules:1100 ~max_wall_s:300.0 () in
  let r = Explore.random_walk racer20 ~seed:11 budget in
  (match r.Explore.failure with
  | None -> ()
  | Some (plan, o) ->
    Alcotest.failf "violating schedule %s: %s" (Plan.to_string plan)
      (String.concat "; " o.Scenario.violations));
  Alcotest.(check bool)
    (Printf.sprintf "distinct traces %d >= 1000" r.Explore.distinct_traces)
    true
    (r.Explore.distinct_traces >= 1000);
  Alcotest.(check bool) "choice points seen" true (r.Explore.max_choice_points > 50)

let test_delay_bounded_prunes () =
  let budget = Explore.budget ~max_schedules:40 ~max_wall_s:60.0 () in
  let r = Explore.delay_bounded Scenario.default ~bound:1 budget in
  Alcotest.(check int) "budget honored" 40 r.Explore.schedules;
  Alcotest.(check bool) "independent ties pruned" true (r.Explore.pruned > 0);
  Alcotest.(check bool) "protocol clean under delay bounding" true
    (r.Explore.failure = None)

(* The walk is defined by seed-indexed runs, not by which domain executes
   them: for any seed, -j 1 and -j N must dedup to identical trace- and
   state-fingerprint sets.  A delay-bounded search that empties its
   frontier drains it in a different order on two workers, but every plan
   has one parent, so both pool sizes run the same plans; it runs once,
   beside the first seed. *)
let small_racer =
  Scenario.
    {
      default with
      workload = Racer { locs = 2; ops_per_host = 3; wseed = 7; barrier_every = 0 };
    }

let delay_bounded_pools_agree =
  lazy
    (let barriers =
       Scenario.of_string "app=racer locs=2 ops=3 wseed=7 hosts=3 barrier=2"
     in
     let budget = Explore.budget ~max_schedules:10_000 ~max_wall_s:60.0 () in
     let a = Explore.delay_bounded barriers ~bound:1 budget in
     let b = Explore.delay_bounded ~jobs:2 barriers ~bound:1 budget in
     a.Explore.schedules < 10_000
     && a.Explore.schedules = b.Explore.schedules
     && a.Explore.trace_sigs = b.Explore.trace_sigs
     && a.Explore.state_sigs = b.Explore.state_sigs)

(* The budget caps the schedules a pool claims, not the ones it has
   finished: a worker that finds the count one short must not start a run
   beside one still in flight.  The barrier racer's complete search is 139
   schedules, so a budget of 50 cuts it short. *)
let test_delay_bounded_budget_on_two_workers () =
  let barriers = Scenario.of_string "app=racer locs=2 ops=3 wseed=7 hosts=3 barrier=2" in
  let budget = Explore.budget ~max_schedules:50 ~max_wall_s:60.0 () in
  let r = Explore.delay_bounded ~jobs:2 barriers ~bound:1 budget in
  Alcotest.(check int) "schedules" 50 r.Explore.schedules

let qcheck_parallel_walk_equivalence =
  QCheck.Test.make ~name:"explore: -j1 and -j2 reach identical fingerprint sets"
    ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let budget = Explore.budget ~max_schedules:30 ~max_wall_s:60.0 () in
      let a = Explore.random_walk small_racer ~seed budget in
      let b = Explore.random_walk ~jobs:2 small_racer ~seed budget in
      a.Explore.trace_sigs = b.Explore.trace_sigs
      && a.Explore.state_sigs = b.Explore.state_sigs
      && Lazy.force delay_bounded_pools_agree)

(* Sleep-set soundness: on a racer small enough to search exhaustively, the
   DPOR-pruned search must reach exactly the protocol states the unpruned
   search reaches — sleep sets may only drop redundant interleavings. *)
let test_sleep_sets_sound () =
  let tiny =
    Scenario.
      {
        default with
        hosts = 2;
        workload = Racer { locs = 2; ops_per_host = 3; wseed = 7; barrier_every = 2 };
      }
  in
  let budget = Explore.budget ~max_schedules:50_000 ~max_wall_s:240.0 () in
  let on = Explore.delay_bounded ~sleep_sets:true tiny ~bound:2 budget in
  let off = Explore.delay_bounded ~sleep_sets:false tiny ~bound:2 budget in
  Alcotest.(check bool) "both searches completed" true
    (on.Explore.schedules < 50_000 && off.Explore.schedules < 50_000);
  Alcotest.(check bool) "sleep sets pruned something" true
    (on.Explore.sleep_pruned > 0);
  Alcotest.(check bool) "pruned search runs no more schedules" true
    (on.Explore.schedules <= off.Explore.schedules);
  Alcotest.(check bool) "identical protocol-state coverage" true
    (on.Explore.state_sigs = off.Explore.state_sigs)

(* ---------------- seeded protocol mutations ---------------- *)

(* Stale_reply_data 10 survives the default schedule: only exploration finds
   an interleaving where the zeroed snapshot reaches a host that already
   observed newer writes.  The failing schedule must shrink small and
   round-trip through an artifact bit-identically. *)
let test_mutation_caught_and_shrunk () =
  let scenario =
    { racer20 with mutation = Some (Dsm.Testonly.Stale_reply_data { nth = 10 }) }
  in
  let baseline = Scenario.run_plan scenario Plan.empty in
  Alcotest.(check (list string)) "default schedule misses the bug" []
    baseline.Scenario.violations;
  let budget = Explore.budget ~max_schedules:400 ~max_wall_s:300.0 () in
  let r = Explore.random_walk ~prob:0.1 scenario ~seed:1 budget in
  match r.Explore.failure with
  | None -> Alcotest.fail "exploration missed the seeded mutation"
  | Some (plan, o) ->
    Alcotest.(check bool) "mutation fired" true o.Scenario.mutation_fired;
    Alcotest.(check bool) "coherence checker flagged it" true
      (any_contains "coherence" o.Scenario.violations);
    let shrunk, so = Explore.shrink scenario plan in
    Alcotest.(check bool) "still failing after shrink" true
      (so.Scenario.violations <> []);
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to %d deviations (<= 25)" (Plan.deviations shrunk))
      true
      (Plan.deviations shrunk <= 25);
    Alcotest.(check bool) "shrink never grows" true
      (Plan.deviations shrunk <= Plan.deviations plan);
    let artifact = Artifact.of_outcome scenario shrunk so in
    let artifact' = Artifact.of_string (Artifact.to_string artifact) in
    let replayed = Artifact.replay artifact' in
    Alcotest.(check (list string)) "artifact replays bit-identically" []
      (Artifact.check artifact' replayed)

let test_drop_inval_ack_caught () =
  let scenario =
    { racer20 with mutation = Some (Dsm.Testonly.Drop_inval_ack { nth = 3 }) }
  in
  let o = Scenario.run_plan scenario Plan.empty in
  Alcotest.(check bool) "mutation fired" true o.Scenario.mutation_fired;
  Alcotest.(check bool) "invariant checker flagged the lost ack" true
    (any_contains "invariant" o.Scenario.violations)

(* A lost release diff under RC is invisible to the coherence check and the
   invariant checker on the default schedule — the dropped value is simply
   never observed.  Only the refinement spec's happens-before floor (the
   acquirer of the same lock reading below what the release published)
   catches it; the failure must then shrink and replay like any other. *)
let test_lost_diff_refinement_caught () =
  let rc_racer =
    {
      racer20 with
      consistency = Dsm.Config.Consistency.rc;
      lockread = true;
      mutation = Some (Dsm.Testonly.Lost_diff { nth = 6 });
    }
  in
  let blind = Scenario.run_plan { rc_racer with refine = false } Plan.empty in
  Alcotest.(check bool) "mutation fired" true blind.Scenario.mutation_fired;
  Alcotest.(check (list string)) "coherence + invariants miss the lost diff" []
    blind.Scenario.violations;
  let budget = Explore.budget ~max_schedules:200 ~max_wall_s:300.0 () in
  let r = Explore.random_walk ~prob:0.1 { rc_racer with refine = true } ~seed:1 budget in
  match r.Explore.failure with
  | None -> Alcotest.fail "refinement missed the lost diff"
  | Some (plan, o) ->
    Alcotest.(check bool) "refinement oracle flagged it" true
      (any_contains "refinement" o.Scenario.violations);
    let shrunk, so = Explore.shrink { rc_racer with refine = true } plan in
    Alcotest.(check bool) "still failing after shrink" true
      (so.Scenario.violations <> []);
    Alcotest.(check bool) "shrink never grows" true
      (Plan.deviations shrunk <= Plan.deviations plan);
    let artifact = Artifact.of_outcome { rc_racer with refine = true } shrunk so in
    let artifact' = Artifact.of_string (Artifact.to_string artifact) in
    Alcotest.(check (list string)) "artifact replays bit-identically" []
      (Artifact.check artifact' (Artifact.replay artifact'))

(* ---------------- the refinement spec itself ---------------- *)

let w host loc value = Spec.Write { time = 0.0; host; loc; value }
let rd host loc value = Spec.Read { time = 0.0; host; loc; value }

let test_spec_sc () =
  let ok = Spec.check ~mode:Spec.Sc [ w 0 0 1; rd 1 0 1; w 1 0 2; rd 0 0 2 ] in
  Alcotest.(check bool) "alternating history passes" true ok.Spec.passed;
  Alcotest.(check int) "both reads checked" 2 ok.Spec.reads_checked;
  Alcotest.(check bool) "initial value readable" true
    (Spec.check ~mode:Spec.Sc [ rd 1 0 0 ]).Spec.passed;
  let stale = [ w 0 0 1; w 0 0 2; rd 1 0 1 ] in
  Alcotest.(check bool) "SC rejects a stale read" false
    (Spec.check ~mode:Spec.Sc stale).Spec.passed;
  Alcotest.(check bool) "weak (no HB yet) permits the same lag" true
    (Spec.check ~mode:Spec.Weak stale).Spec.passed;
  Alcotest.(check bool) "value from nowhere rejected in every mode" false
    (Spec.check ~mode:Spec.Weak [ w 0 0 1; rd 1 0 9 ]).Spec.passed

let test_spec_weak_hb () =
  let handoff later =
    [ w 0 0 1; w 0 0 2; Spec.Release { host = 0; key = 5 };
      Spec.Acquire { host = 1; key = 5 }; rd 1 0 later ]
  in
  Alcotest.(check bool) "acquirer may read what the release published" true
    (Spec.check ~mode:Spec.Weak (handoff 2)).Spec.passed;
  Alcotest.(check bool) "acquirer below the HB floor rejected" false
    (Spec.check ~mode:Spec.Weak (handoff 1)).Spec.passed;
  Alcotest.(check bool) "crash rule (hb off) tolerates the regression" true
    (Spec.check ~mode:Spec.Weak ~hb:false (handoff 1)).Spec.passed;
  let barrier later =
    [ w 0 0 1; w 0 0 2; Spec.Barrier { host = 0 }; Spec.Barrier { host = 1 };
      rd 1 0 later ]
  in
  Alcotest.(check bool) "barrier publishes into the global channel" true
    (Spec.check ~mode:Spec.Weak (barrier 2)).Spec.passed;
  Alcotest.(check bool) "post-barrier read below the floor rejected" false
    (Spec.check ~mode:Spec.Weak (barrier 1)).Spec.passed;
  let own =
    [ w 0 0 1; w 1 0 2; rd 1 0 2; rd 1 0 1 ]
  in
  Alcotest.(check bool) "host never regresses its own front" false
    (Spec.check ~mode:Spec.Weak own).Spec.passed

(* Clean explorations must pass refinement end-to-end: strict SC on the SC
   protocol, the weak relation on RC (diffs linearize at sync points). *)
let test_refinement_end_to_end () =
  let budget = Explore.budget ~max_schedules:60 ~max_wall_s:120.0 () in
  List.iter
    (fun consistency ->
      let s = { racer20 with consistency; refine = true; lockread = true } in
      let r = Explore.random_walk s ~seed:5 budget in
      Alcotest.(check bool) "no refinement failures" true (r.Explore.failure = None))
    [
      Dsm.Config.Consistency.sc;
      Dsm.Config.Consistency.rc;
      Dsm.Config.Consistency.adaptive;
    ];
  let o = Scenario.run_plan { racer20 with refine = true; lockread = true } Plan.empty in
  match o.Scenario.refinement with
  | Some v ->
    Alcotest.(check bool) "verdict passed" true v.Spec.passed;
    Alcotest.(check bool) "reads actually simulated" true (v.Spec.reads_checked > 0)
  | None -> Alcotest.fail "refine=1 produced no verdict"

(* ---------------- checker-checks-the-checker ---------------- *)

(* A legal interleaved history over two locations; every mutation below
   injects one specific protocol symptom into it and the checkers must
   report each. *)
let legal_history =
  let w time host loc value = Spec.Write { time; host; loc; value } in
  let r time host loc value = Spec.Read { time; host; loc; value } in
  [
    w 1.0 0 0 1; r 2.0 1 0 1; w 3.0 1 0 2; r 4.0 0 0 2;
    w 5.0 0 1 3; r 6.0 2 1 3; r 7.0 2 0 2;
  ]

let test_legal_history_is_clean () =
  Alcotest.(check (list string)) "base history passes" []
    (Spec.coherence legal_history)

let test_checker_catches_stale_read () =
  let stale =
    legal_history
    @ [ Spec.Read { time = 8.0; host = 2; loc = 0; value = 1 } ]
  in
  let violations = Spec.coherence stale in
  Alcotest.(check bool) "stale read reported" true (any_contains "stale read" violations)

let test_checker_catches_double_completed_write () =
  let doubled =
    legal_history
    @ [ Spec.Write { time = 8.0; host = 1; loc = 0; value = 2 } ]
  in
  let violations = Spec.coherence doubled in
  Alcotest.(check bool) "double-completed write reported" true
    (any_contains "not unique" violations)

(* Lost invalidation ack, injected into a *real* recorded event history: a
   2-host run whose write provokes an invalidation round; deleting the
   Inval_ack event from the trace must trip the invariant checker. *)
let test_checker_catches_lost_inval_ack () =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:2 () in
  let obs = Dsm.obs dsm in
  Mp_obs.Recorder.set_capacity obs (1 lsl 16);
  Mp_obs.Recorder.set_enabled obs true;
  let x = Dsm.malloc dsm 64 in
  Dsm.init_write_int dsm x 1;
  Dsm.spawn dsm ~host:1 (fun ctx ->
      ignore (Dsm.read_int ctx x);
      Dsm.barrier ctx);
  Dsm.spawn dsm ~host:0 (fun ctx ->
      Dsm.barrier ctx;
      Dsm.write_int ctx x 2);
  Dsm.run dsm;
  let events = Mp_obs.Recorder.events obs in
  Alcotest.(check bool) "run produced an invalidation" true
    (List.exists (fun ev -> match ev.Event.kind with Event.Inval _ -> true | _ -> false) events);
  Alcotest.(check (list string)) "real trace passes" [] (Invariants.check events);
  let dropped_one = ref false in
  let mutated =
    List.filter
      (fun ev ->
        match ev.Event.kind with
        | Event.Inval_ack _ when not !dropped_one ->
          dropped_one := true;
          false
        | _ -> true)
      events
  in
  Alcotest.(check bool) "an ack was dropped" true !dropped_one;
  Alcotest.(check bool) "lost ack reported" true
    (any_contains "acknowledged" (Invariants.check mutated))

(* ---------------- the write-value allocator ---------------- *)

let test_fresh_value_allocator () =
  let hist = Spec.hist () in
  let v1 = Spec.fresh_value hist in
  Alcotest.(check bool) "never the initial value" true (v1 <> 0);
  Spec.record hist (Spec.Write { time = 1.0; host = 0; loc = 0; value = 10 });
  let v2 = Spec.fresh_value hist in
  Alcotest.(check bool) "jumps past manual write values" true (v2 > 10);
  Spec.record hist (Spec.Read { time = 2.0; host = 1; loc = 0; value = 10 });
  let v3 = Spec.fresh_value hist in
  Alcotest.(check bool) "reads do not consume values" true (v3 = v2 + 1);
  Alcotest.(check bool) "strictly increasing" true (v1 < v2 && v2 < v3)

(* ---------------- golden artifact replay ---------------- *)

(* cwd is test/ under `dune runtest`, the project root under `dune exec` *)
let golden_path =
  if Sys.file_exists "golden/stale_reply.mpc" then "golden/stale_reply.mpc"
  else "test/golden/stale_reply.mpc"

let test_golden_replay () =
  let artifact = Artifact.load ~file:golden_path in
  let a = Artifact.replay artifact in
  Alcotest.(check (list string)) "golden replay matches its recording" []
    (Artifact.check artifact a);
  Alcotest.(check bool) "the recorded bug still reproduces" true
    (a.Scenario.violations <> []);
  let b = Artifact.replay artifact in
  Alcotest.(check bool) "replay is identical across runs" true
    (a.Scenario.state_sig = b.Scenario.state_sig
    && a.Scenario.trace_sig = b.Scenario.trace_sig
    && a.Scenario.end_us = b.Scenario.end_us
    && a.Scenario.violations = b.Scenario.violations)

let lost_diff_golden_path =
  if Sys.file_exists "golden/lost_diff.mpc" then "golden/lost_diff.mpc"
  else "test/golden/lost_diff.mpc"

let test_golden_lost_diff_replay () =
  let artifact = Artifact.load ~file:lost_diff_golden_path in
  let a = Artifact.replay artifact in
  Alcotest.(check (list string)) "golden replay matches its recording" []
    (Artifact.check artifact a);
  Alcotest.(check bool) "the lost diff still reproduces" true
    (any_contains "refinement" a.Scenario.violations)

(* What one mpcheck schedule of the adaptive racer allocates, end to end:
   DSM set-up, the run with its recorder on, and every check.  The
   recorder's ring and latency histograms grow with what the run records,
   so their bounds (a 2^18-event ring, 4096 buckets per series) cost
   nothing up front.  Measured after a warm-up run, so lazily built
   globals are not counted. *)
let test_schedule_allocation () =
  let racer =
    Scenario.of_string
      "app=racer hosts=4 homes=rr consistency=adaptive barrier=3 lockread=1 refine=1"
  in
  let run () = ignore (Sys.opaque_identity (Scenario.run_plan racer Plan.empty)) in
  run ();
  let words = Test_memsim.allocated_words run in
  Alcotest.(check (float 17.0)) "words per schedule" 172_931.0 words

let suite =
  [
    Alcotest.test_case "plan round-trip" `Quick test_plan_roundtrip;
    Alcotest.test_case "scenario round-trip" `Quick test_scenario_roundtrip;
    Alcotest.test_case "label independence" `Quick test_label_independence;
    Alcotest.test_case "chooser default is neutral" `Quick test_chooser_default_is_neutral;
    Alcotest.test_case "chooser plan reorders ties" `Quick test_chooser_plan_reorders;
    Alcotest.test_case "perturbation clamped" `Quick test_perturbation_clamped;
    Alcotest.test_case "follow reproduces a random walk" `Quick test_follow_reproduces_random;
    Alcotest.test_case "1000 distinct schedules, all clean" `Slow test_exploration_clean_1000;
    Alcotest.test_case "delay bounding prunes commuting ties" `Quick test_delay_bounded_prunes;
    Alcotest.test_case "seeded mutation caught, shrunk, replayed" `Slow
      test_mutation_caught_and_shrunk;
    Alcotest.test_case "dropped inval ack caught" `Quick test_drop_inval_ack_caught;
    Alcotest.test_case "legal history is clean" `Quick test_legal_history_is_clean;
    Alcotest.test_case "checker catches stale read" `Quick test_checker_catches_stale_read;
    Alcotest.test_case "checker catches double-completed write" `Quick
      test_checker_catches_double_completed_write;
    Alcotest.test_case "checker catches lost inval ack" `Quick
      test_checker_catches_lost_inval_ack;
    Alcotest.test_case "fresh_value allocator" `Quick test_fresh_value_allocator;
    Alcotest.test_case "golden artifact replay" `Quick test_golden_replay;
    QCheck_alcotest.to_alcotest qcheck_parallel_walk_equivalence;
    Alcotest.test_case "sleep sets are sound on a complete search" `Slow
      test_sleep_sets_sound;
    Alcotest.test_case "lost diff caught only by refinement" `Quick
      test_lost_diff_refinement_caught;
    Alcotest.test_case "spec: SC relation" `Quick test_spec_sc;
    Alcotest.test_case "spec: weak relation and HB floors" `Quick test_spec_weak_hb;
    Alcotest.test_case "refinement end-to-end on sc/rc/adaptive" `Quick
      test_refinement_end_to_end;
    Alcotest.test_case "golden lost-diff artifact replay" `Quick
      test_golden_lost_diff_replay;
    Alcotest.test_case "schedule allocation" `Quick test_schedule_allocation;
    Alcotest.test_case "steps: logging order, no minor collection" `Quick
      test_steps_no_minor_collection;
    Alcotest.test_case "delay bounding keeps its budget on two workers" `Quick
      test_delay_bounded_budget_on_two_workers;
  ]
