(** mpcheck — systematic schedule exploration for the Millipage protocol.

    Explores many distinct schedules of one scenario (or a whole scenario
    matrix), checking every execution for coherence violations, invariant
    breaks, deadlocks and wrong results; failing schedules are shrunk and
    written as replayable artifacts.

    {v
    mpcheck explore --budget 1000
    mpcheck explore --scenario "app=racer hosts=4 homes=rr drop=0.03" --mode delay
    mpcheck matrix --hosts 2,4,8 --budget 200 --wall 120
    mpcheck replay failure.mpc
    v} *)

open Cmdliner
open Mp_mc

let pr fmt = Printf.printf fmt

let print_result name (r : Explore.result) =
  let rate = if r.wall_s > 0.0 then float_of_int r.schedules /. r.wall_s else 0.0 in
  pr
    "%-32s %5d sched (%5.0f/s)  %5d traces  %5d states  cps avg %4d max %4d  \
     pruned %d  sleep %d\n%!"
    name r.schedules rate r.distinct_traces r.distinct_states
    (if r.schedules = 0 then 0 else r.total_choice_points / r.schedules)
    r.max_choice_points r.pruned r.sleep_pruned

(* Shrink a failing schedule and persist it for replay. *)
let handle_failure scenario ~out (plan, (o : Scenario.outcome)) =
  pr "violation (plan had %d deviations):\n" (Plan.deviations plan);
  List.iter (fun v -> pr "  %s\n" v) o.violations;
  let plan, o = Explore.shrink scenario plan in
  pr "shrunk to %d deviations: %s\n" (Plan.deviations plan) (Plan.to_string plan);
  Artifact.save ~file:out (Artifact.of_outcome scenario plan o);
  pr "artifact written to %s — reproduce with: mpcheck replay %s\n%!" out out

let run_one scenario ~mode ~seed ~prob ~bound ~jobs ~sleep_sets budget =
  match mode with
  | `Random -> Explore.random_walk ~prob ~jobs scenario ~seed budget
  | `Delay -> Explore.delay_bounded ~sleep_sets ~jobs scenario ~bound budget

(* [--refine]/[--lockread] layer the corresponding scenario fields over
   whatever the -s string specified, without being able to turn them off. *)
let with_flags scenario ~refine ~lockread =
  {
    scenario with
    Scenario.refine = refine || scenario.Scenario.refine;
    lockread = lockread || scenario.Scenario.lockread;
  }

(* ------------------------------- explore ------------------------------- *)

let explore scenario_str mode seed prob bound jobs no_sleep refine lockread
    max_schedules max_wall out =
  match
    try Ok (Scenario.of_string scenario_str) with Failure m -> Error m
  with
  | Error m ->
    prerr_endline m;
    2
  | Ok scenario ->
    let scenario = with_flags scenario ~refine ~lockread in
    let budget = Explore.budget ~max_schedules ~max_wall_s:max_wall () in
    let r =
      run_one scenario ~mode ~seed ~prob ~bound ~jobs
        ~sleep_sets:(not no_sleep) budget
    in
    print_result (Scenario.name scenario) r;
    (match r.failure with
    | None -> 0
    | Some failure ->
      handle_failure scenario ~out failure;
      1)

(* ------------------------------- matrix -------------------------------- *)

let loss_faults =
  { Mp_net.Fabric.drop = 0.03; duplicate = 0.02; reorder = 0.05; jitter_us = 4.0 }

let policies =
  [ Scenario.(default.homes); Mp_millipage.Dsm.Config.Homes.round_robin;
    Mp_millipage.Dsm.Config.Homes.block 2;
    Mp_millipage.Dsm.Config.Homes.first_toucher ]

(* One matrix cell per {hosts × homes × consistency × faults × crash}.
   Crash cells pick the crash instant from the cell's own fault-free
   baseline schedule so it lands mid-run at every host count, and need a
   surviving majority.  The victim is host [hosts-1], whose backup is host 0,
   so its shard is always promoted: the checker treats any
   Crash_unrecoverable there as a violation, pinning the no-lost-writes
   claim across every explored schedule.  The consistency column crosses
   every homes policy — block and first-toucher placement shard rc/adaptive
   twin and directory state differently from central/rr, which is exactly
   the coverage the refinement spec wants. *)
let consistency_modes _homes =
  let open Mp_millipage.Dsm.Config in
  [ Consistency.sc; Consistency.rc; Consistency.adaptive ]

let matrix_cells hosts_list =
  List.concat_map
    (fun hosts ->
      List.concat_map
        (fun homes ->
          List.concat_map
            (fun consistency ->
              List.concat_map
                (fun faults ->
                  let base =
                    { Scenario.default with hosts; homes; consistency; faults }
                  in
                  if hosts < 3 then [ base ]
                  else
                    let baseline =
                      Scenario.run_plan { base with faults = Mp_net.Fabric.no_faults } Plan.empty
                    in
                    let at = Float.max 50.0 (baseline.Scenario.end_us *. 0.4) in
                    [ base; { base with crashes = [ (hosts - 1, at) ] } ])
                [ Mp_net.Fabric.no_faults; loss_faults ])
            (consistency_modes homes))
        policies)
    hosts_list

let matrix hosts_list mode seed prob bound jobs no_sleep refine lockread
    max_schedules max_wall out =
  let cells =
    List.map
      (fun c -> with_flags c ~refine ~lockread)
      (matrix_cells hosts_list)
  in
  let t0 = Unix.gettimeofday () in
  let failed = ref 0 and total_sched = ref 0 in
  List.iter
    (fun scenario ->
      let left = max_wall -. (Unix.gettimeofday () -. t0) in
      if left > 0.5 then begin
        let budget =
          Explore.budget ~max_schedules
            ~max_wall_s:(Float.min left (max_wall /. float_of_int (List.length cells) *. 2.0))
            ()
        in
        let r =
          run_one scenario ~mode ~seed ~prob ~bound ~jobs
            ~sleep_sets:(not no_sleep) budget
        in
        total_sched := !total_sched + r.schedules;
        print_result (Scenario.name scenario) r;
        match r.failure with
        | None -> ()
        | Some failure ->
          incr failed;
          handle_failure scenario ~out failure
      end
      else pr "%-32s skipped (wall budget exhausted)\n" (Scenario.name scenario))
    cells;
  pr "matrix: %d cells, %d schedules, %d failing, %.1fs\n%!" (List.length cells)
    !total_sched !failed
    (Unix.gettimeofday () -. t0);
  if !failed > 0 then 1 else 0

(* ------------------------------- replay -------------------------------- *)

let replay file verbose =
  match (try Ok (Artifact.load ~file) with Failure m | Sys_error m -> Error m) with
  | Error m ->
    prerr_endline m;
    2
  | Ok artifact ->
    pr "scenario: %s\n" (Scenario.to_string artifact.Artifact.scenario);
    pr "plan:     %s\n" (Plan.to_string artifact.Artifact.plan);
    let o = Artifact.replay artifact in
    pr "end %.3f us, %d choice points, %d coherence ops, %d obs events\n"
      o.Scenario.end_us o.Scenario.choice_points o.Scenario.ops o.Scenario.obs_events;
    List.iter (fun v -> pr "  %s\n" v) o.Scenario.violations;
    if verbose then
      Array.iteri
        (fun pos step ->
          match step with
          | Sched.Net { pick; _ } when pick = 0 -> ()
          | Sched.Tie { pick; _ } when pick = 0 -> ()
          | Sched.Tie { n; pick; labels; _ } ->
            pr "  @%d tie/%d pick %d = %s\n" pos n pick labels.(pick)
          | Sched.Net { n; pick; label; _ } ->
            pr "  @%d net/%d delay %d on %s\n" pos n pick label)
        o.Scenario.steps;
    let mismatches = Artifact.check artifact o in
    List.iter (fun m -> pr "MISMATCH %s\n" m) mismatches;
    if mismatches = [] then begin
      pr "replay reproduced the recorded outcome exactly\n%!";
      0
    end
    else 1

(* ----------------------------- cmdliner ------------------------------- *)

let scenario_arg =
  Arg.(
    value & opt string ""
    & info [ "s"; "scenario" ] ~docv:"KV"
        ~doc:
          "Scenario as space-separated k=v pairs: app=racer|sor|lu|water|is|tsp, \
           barrier=K (racer: global barrier every K ops), hosts=N, \
           homes=central|rr|block|ft, drop/dup/reorder/jitter, crash=H@T, \
           mutation=stale-reply:N|drop-inval-ack:N|lost-diff:N, lockread=1, \
           refine=1, seed, netseed, quantum, maxdelay.  Empty string is the \
           default racer scenario.")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("random", `Random); ("delay", `Delay) ]) `Random
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Search mode: seeded random walks, or delay-bounded BFS.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Exploration seed.")

let prob_arg =
  Arg.(
    value & opt float 0.05
    & info [ "prob" ] ~docv:"P" ~doc:"Per-choice-point deviation probability (random mode).")

let bound_arg =
  Arg.(
    value & opt int 2
    & info [ "bound" ] ~docv:"K" ~doc:"Max deviations per schedule (delay mode).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains exploring in parallel.  Each worker replays \
           scenarios on a private engine; fingerprints dedupe through \
           domain-safe tables, and a random walk's fingerprint sets are \
           identical for every N.")

let no_sleep_arg =
  Arg.(
    value & flag
    & info [ "no-sleep" ]
        ~doc:
          "Disable DPOR sleep sets in delay-bounded mode (persistent-set \
           promotion pruning stays on).")

let refine_arg =
  Arg.(
    value & flag
    & info [ "refine" ]
        ~doc:
          "Check every explored schedule's read/write/sync history against \
           the executable memory spec by refinement: strict \
           atomic-memory simulation under sc, sync-point linearization \
           (happens-before floors) under rc/adaptive.")

let lockread_arg =
  Arg.(
    value & flag
    & info [ "lockread" ]
        ~doc:
          "Racer reads its location inside each critical section, placing \
           an observation above the lock's happens-before floor (catches \
           lost release diffs; changes the schedule).")

let budget_arg =
  Arg.(
    value & opt int 1000
    & info [ "budget" ] ~docv:"N" ~doc:"Max schedules to explore.")

let wall_arg =
  Arg.(
    value & opt float 60.0
    & info [ "wall" ] ~docv:"SEC" ~doc:"Wall-clock budget, seconds.")

let out_arg =
  Arg.(
    value & opt string "mpcheck-failure.mpc"
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write a failure artifact.")

let hosts_list_arg =
  Arg.(
    value
    & opt (list ~sep:',' int) [ 2; 4; 8 ]
    & info [ "hosts" ] ~docv:"N,.." ~doc:"Host counts to cross into the matrix.")

let explore_cmd =
  let term =
    Term.(
      const explore $ scenario_arg $ mode_arg $ seed_arg $ prob_arg $ bound_arg
      $ jobs_arg $ no_sleep_arg $ refine_arg $ lockread_arg $ budget_arg
      $ wall_arg $ out_arg)
  in
  Cmd.v (Cmd.info "explore" ~doc:"Explore schedules of one scenario") term

let matrix_cmd =
  let term =
    Term.(
      const matrix $ hosts_list_arg $ mode_arg $ seed_arg $ prob_arg $ bound_arg
      $ jobs_arg $ no_sleep_arg $ refine_arg $ lockread_arg $ budget_arg
      $ wall_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"Explore the hosts x homes x faults x crash scenario matrix")
    term

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Artifact written by a failing exploration.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every deviated choice point.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Re-run a failure artifact and check it reproduces")
    Term.(const replay $ file_arg $ verbose_arg)

let () =
  let info =
    Cmd.info "mpcheck"
      ~doc:"Systematic schedule exploration with sequential-consistency checking"
  in
  exit (Cmd.eval' (Cmd.group info [ explore_cmd; matrix_cmd; replay_cmd ]))
