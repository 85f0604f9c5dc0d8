(** mpcheck budgeted sweep: schedule-exploration throughput and coverage.

    Runs bounded exploration over a representative slice of the scenario
    matrix (hosts x homes x faults x crash, random-walk and delay-bounded)
    under a fixed per-cell budget — every cell with refinement checking on —
    and reports schedules/sec, distinct-trace and distinct-state coverage,
    both pruning counters and the choice-point histogram, all routed
    through the observability metrics registry.

    A parallel deep-dive then runs one racer scenario under [-j 1] and
    [-j N] (N = min 8 available cores), asserts the two walks reach
    identical deduped fingerprint sets, and records schedules/sec and the
    speedup.  The whole trajectory lands in [BENCH_mc.json]; [--check]
    re-runs the sweep and diffs the deterministic lines against the
    committed baseline with the checker [bench scale --check] uses
    ({!Harness.trajectory}).  Machine-speed lines (wall, rates, speedup,
    jobs) sit on their own lines and are excluded from the diff. *)

open Mp_mc
module Metrics = Mp_obs.Metrics
module Tab = Mp_util.Tab

let budget_schedules = 150
let cell_wall_s = 30.0

let loss =
  { Mp_net.Fabric.drop = 0.03; duplicate = 0.02; reorder = 0.05; jitter_us = 4.0 }

(* Every cell checks refinement: the sweep doubles as a standing assertion
   that all explored schedules of these protocol corners simulate against
   the memory spec.  Refinement reads the history the coherence check and
   the state fingerprint read anyway, so coverage numbers are unchanged
   by it. *)
let cells =
  let open Scenario in
  let refine t = { t with refine = true } in
  let homes = Mp_millipage.Dsm.Config.Homes.round_robin in
  List.map
    (fun (l, m, t) -> (l, m, refine t))
    [
      ("h2 central", `Random, { default with hosts = 2 });
      ("h3 central", `Random, default);
      ("h3 central delay-2", `Delay, default);
      ( "h3 barrier delay-2",
        `Delay,
        {
          default with
          workload =
            Racer { locs = 2; ops_per_host = 3; wseed = 7; barrier_every = 2 };
        } );
      ("h4 rr", `Random, { default with hosts = 4; homes });
      ("h4 rr faulty", `Random, { default with hosts = 4; homes; faults = loss });
      ( "h4 rr crash",
        `Random,
        { default with hosts = 4; homes; crashes = [ (3, 1200.0) ] } );
      ( "h4 rr faulty crash",
        `Random,
        { default with hosts = 4; homes; faults = loss; crashes = [ (3, 1200.0) ] }
      );
    ]

(* ------------------------- parallel deep-dive -------------------------- *)

let deep_budget = 400

let deep_scenario =
  Scenario.
    {
      default with
      hosts = 4;
      homes = Mp_millipage.Dsm.Config.Homes.round_robin;
      faults = loss;
      refine = true;
    }

type deep = {
  d_jobs : int;
  d_schedules : int;
  d_traces : int;
  d_states : int;
  d_sets_equal : bool;
  d_rate_j1 : float;
  d_rate_jn : float;
  d_speedup : float;
}

let deep_dive ~jobs =
  let b = Explore.budget ~max_schedules:deep_budget ~max_wall_s:600.0 () in
  let r1 = Explore.random_walk deep_scenario ~seed:11 b in
  let rn =
    if jobs > 1 then Explore.random_walk ~jobs deep_scenario ~seed:11 b else r1
  in
  let rate (r : Explore.result) =
    float_of_int r.Explore.schedules /. Float.max 1e-9 r.Explore.wall_s
  in
  {
    d_jobs = jobs;
    d_schedules = r1.Explore.schedules;
    d_traces = r1.Explore.distinct_traces;
    d_states = r1.Explore.distinct_states;
    d_sets_equal =
      r1.Explore.trace_sigs = rn.Explore.trace_sigs
      && r1.Explore.state_sigs = rn.Explore.state_sigs;
    d_rate_j1 = rate r1;
    d_rate_jn = rate rn;
    d_speedup = rate rn /. Float.max 1e-9 (rate r1);
  }

(* ------------------------------- JSON ---------------------------------- *)

type cell_result = {
  c_label : string;
  c_mode : string;
  c_r : Explore.result;
}

(* Volatile (machine-speed) fields sit on their own lines so the --check
   drift diff can drop exactly those lines and compare the rest verbatim. *)
let render_json cells_r deep =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"bench\": \"mc\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"budget\": %d,\n  \"cells\": [\n" budget_schedules);
  let n = List.length cells_r in
  List.iteri
    (fun i c ->
      let r = c.c_r in
      Buffer.add_string b
        (Printf.sprintf
           "    { \"cell\": %S, \"mode\": %S, \"schedules\": %d, \"traces\": \
            %d, \"states\": %d,\n\
            \      \"cps\": %d, \"max_cps\": %d, \"pruned\": %d, \
            \"sleep_pruned\": %d, \"verdict\": %S,\n\
            \      \"wall_s\": %.3f,\n\
            \      \"rate\": %.0f }%s\n"
           c.c_label c.c_mode r.Explore.schedules r.Explore.distinct_traces
           r.Explore.distinct_states r.Explore.total_choice_points
           r.Explore.max_choice_points r.Explore.pruned r.Explore.sleep_pruned
           (match r.Explore.failure with None -> "clean" | Some _ -> "violation")
           r.Explore.wall_s
           (float_of_int r.Explore.schedules /. Float.max 1e-9 r.Explore.wall_s)
           (if i = n - 1 then "" else ",")))
    cells_r;
  Buffer.add_string b "  ],\n  \"deep_dive\": {\n";
  Buffer.add_string b
    (Printf.sprintf
       "    \"scenario\": %S,\n\
        \    \"budget\": %d,\n\
        \    \"schedules\": %d, \"traces\": %d, \"states\": %d, \
        \"sets_equal\": %b,\n\
        \    \"jobs\": %d,\n\
        \    \"rate_j1\": %.0f,\n\
        \    \"rate_jn\": %.0f,\n\
        \    \"speedup\": %.2f\n"
       (Scenario.to_string deep_scenario)
       deep_budget deep.d_schedules deep.d_traces deep.d_states
       deep.d_sets_equal deep.d_jobs deep.d_rate_j1 deep.d_rate_jn
       deep.d_speedup);
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

(* The lines of the trajectory that depend on the machine's speed; every
   other line is deterministic and [--check] compares it. *)
let volatile line =
  List.exists (Harness.contains line)
    [ {|"wall_s"|}; {|"rate"|}; {|"rate_j1"|}; {|"rate_jn"|}; {|"speedup"|}; {|"jobs"|} ]

(* -------------------------------- sweep -------------------------------- *)

let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))

let run ?(jobs = -1) ?(check = false) () =
  let jobs = if jobs <= 0 then default_jobs () else jobs in
  Harness.section
    (Printf.sprintf
       "mpcheck exploration sweep: %d schedules or %.0fs per cell, refinement \
        on, deep-dive at -j %d"
       budget_schedules cell_wall_s jobs);
  let m = Metrics.create () in
  let budget =
    Explore.budget ~max_schedules:budget_schedules ~max_wall_s:cell_wall_s ()
  in
  let failures = ref 0 in
  let cells_r =
    List.map
      (fun (label, mode, scenario) ->
        let r =
          match mode with
          | `Random -> Explore.random_walk ~metrics:m scenario ~seed:1 budget
          | `Delay -> Explore.delay_bounded ~metrics:m scenario ~bound:2 budget
        in
        if r.Explore.failure <> None then incr failures;
        Metrics.observe m ~bucket_width:0.05 "mc.cell_wall_s" r.Explore.wall_s;
        Metrics.gauge_set m
          ("mc.rate." ^ String.map (fun c -> if c = ' ' then '_' else c) label)
          (float_of_int r.Explore.schedules /. Float.max 1e-9 r.Explore.wall_s);
        {
          c_label = label;
          c_mode = (match mode with `Random -> "random" | `Delay -> "delay-2");
          c_r = r;
        })
      cells
  in
  let rows =
    List.map
      (fun c ->
        let r = c.c_r in
        [
          c.c_label;
          c.c_mode;
          string_of_int r.Explore.schedules;
          Printf.sprintf "%.0f"
            (float_of_int r.Explore.schedules /. Float.max 1e-9 r.Explore.wall_s);
          string_of_int r.Explore.distinct_traces;
          string_of_int r.Explore.distinct_states;
          string_of_int
            (if r.Explore.schedules = 0 then 0
             else r.Explore.total_choice_points / r.Explore.schedules);
          string_of_int r.Explore.max_choice_points;
          string_of_int r.Explore.pruned;
          string_of_int r.Explore.sleep_pruned;
          (match r.Explore.failure with None -> "clean" | Some _ -> "VIOLATION");
        ])
      cells_r
  in
  Tab.print
    ~header:
      [ "cell"; "mode"; "sched"; "/s"; "traces"; "states"; "cps"; "max";
        "pruned"; "sleep"; "verdict" ]
    rows;
  let deep = deep_dive ~jobs in
  Tab.print
    ~header:[ "deep-dive"; "sched"; "/s -j1"; Printf.sprintf "/s -j%d" deep.d_jobs;
              "speedup"; "sets" ]
    [
      [
        "racer h4 rr faulty spec";
        string_of_int deep.d_schedules;
        Printf.sprintf "%.0f" deep.d_rate_j1;
        Printf.sprintf "%.0f" deep.d_rate_jn;
        Printf.sprintf "%.2fx" deep.d_speedup;
        (if deep.d_sets_equal then "identical" else "DIVERGED");
      ];
    ]
  ;
  Harness.note "choice-point histogram (all cells, bucket width 32):";
  print_string (Metrics.latency_table m);
  print_string (Metrics.counters_table m);
  Harness.trajectory ~bench:"mc" ~check
    ~keep:(List.filter (fun l -> not (volatile l)))
    (render_json cells_r deep);
  if !failures > 0 then
    failwith
      (Printf.sprintf "exp_mc: %d cell(s) found violating schedules" !failures)
  else
    Harness.note "all %d cells clean (%d schedules, refinement on)"
      (List.length cells)
      (Mp_util.Stats.Counters.get (Metrics.counters m) "mc.schedules");
  if not deep.d_sets_equal then
    failwith
      "exp_mc: -j1 and -jN random walks reached different fingerprint sets";
  (* the parallel-scaling claim is only assertable when the machine can
     actually run the workers concurrently: on a starved runner the deep
     dive still records the (volatile) speedup, but does not gate *)
  if jobs >= 8 && Domain.recommended_domain_count () >= 8 && deep.d_speedup < 3.0
  then
    failwith
      (Printf.sprintf
         "exp_mc: -j%d speedup %.2fx is below the 3x floor this machine's %d \
          cores should sustain"
         jobs deep.d_speedup
         (Domain.recommended_domain_count ()))
