(** Benchmark harness regenerating every table and figure of the paper's
    evaluation (§4).  Run without arguments for the full set; see
    [--help] for individual experiments. *)

open Cmdliner

let all_experiments ~full ~fast () =
  Exp_table1.run ();
  Exp_costs.run ();
  Exp_fig5.run ~full ();
  Exp_table2.run ();
  Exp_fig6.run ~fast ();
  Exp_fig7.run ();
  Exp_ablation.run ();
  Exp_gms.run ();
  Exp_soak.run ();
  Exp_crash.run ();
  Exp_shard.run ();
  Exp_mc.run ();
  Exp_scale.run ~max_hosts:16 ()

let full_flag =
  Arg.(value & flag & info [ "full" ] ~doc:"Run Figure 5 over the full size grid.")

let fast_flag =
  Arg.(
    value & flag
    & info [ "fast-polling" ]
        ~doc:"Run Figure 6 with idealized fast polling instead of NT timers.")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let table1 = cmd "table1" "Table 1: basic operation costs" Term.(const Exp_table1.run $ const ())
let costs = cmd "costs" "§4.2 in-text costs" Term.(const Exp_costs.run $ const ())

let fig5 =
  cmd "fig5" "Figure 5: MultiView overhead"
    Term.(const (fun full -> Exp_fig5.run ~full ()) $ full_flag)

let table2 = cmd "table2" "Table 2: application suite" Term.(const Exp_table2.run $ const ())

let fig6 =
  cmd "fig6" "Figure 6: speedups and breakdown"
    Term.(const (fun fast -> Exp_fig6.run ~fast ()) $ fast_flag)

let fig7 =
  cmd "fig7" "Figure 7: chunking in WATER"
    Term.(const (fun () -> Exp_fig7.run ()) $ const ())
let ablation = cmd "ablation" "Design ablations" Term.(const Exp_ablation.run $ const ())

let gms =
  cmd "gms" "Subpages in a global memory system (§5 extension)"
    Term.(const Exp_gms.run $ const ())

let soak =
  cmd "soak" "Fault-injection soak: SOR under loss/duplication/reordering"
    Term.(const Exp_soak.run $ const ())

let crash =
  cmd "crash" "Crash-fault sweep: recovery latency, degradation, heartbeat cost"
    Term.(const Exp_crash.run $ const ())

let shard =
  cmd "shard" "Sharded-home sweep: per-home queue depth and end time vs central"
    Term.(const Exp_shard.run $ const ())

let mc_jobs_arg =
  Arg.(
    value & opt int (-1)
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel deep-dive (default: min 8 \
           available cores).")

let mc_check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Compare the deterministic lines of the trajectory (everything but \
           wall-clock rates and the speedup) against the committed \
           BENCH_mc.json instead of rewriting it; exit non-zero on drift.")

let mc =
  cmd "mc" "mpcheck sweep: schedule-exploration throughput and coverage"
    Term.(
      const (fun jobs check -> Exp_mc.run ~jobs ~check ())
      $ mc_jobs_arg $ mc_check_arg)

let max_hosts_arg =
  Arg.(
    value & opt int 64
    & info [ "max-hosts" ] ~docv:"N"
        ~doc:"Cap the scale sweep's host counts at $(docv) (of 8/16/32/64).")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Compare the deterministic lines of the trajectory (everything but \
           wall-clock throughput) against the committed BENCH_scale.json \
           instead of rewriting it; exit non-zero on drift.")

let scale =
  cmd "scale" "Scale trajectory: profiler throughput and per-host cost vs hosts"
    Term.(
      const (fun max_hosts check -> Exp_scale.run ~max_hosts ~check ())
      $ max_hosts_arg $ check_arg)

let sims_check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Compare every run's line against the committed \
           test/golden/sims.txt instead of printing the lines; name each run \
           that moved and exit non-zero.")

let sims =
  cmd "sims" "Simulated results of the CI runs, one line per run"
    Term.(const (fun check -> Exp_sims.run ~check ()) $ sims_check_arg)

let all_cmd =
  cmd "all" "Run every experiment"
    Term.(const (fun full fast -> all_experiments ~full ~fast ()) $ full_flag $ fast_flag)

let default = Term.(const (fun () -> all_experiments ~full:false ~fast:false ()) $ const ())

let () =
  let info =
    Cmd.info "millipage-bench"
      ~doc:"Reproduce the tables and figures of 'MultiView and Millipage' (OSDI '99)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ table1; costs; fig5; table2; fig6; fig7; ablation; gms; soak; crash;
            shard; mc; scale; sims; all_cmd ]))
