(* perfbench: measure one workload of the simulator end to end (--trace 0)
   or layer by layer (--trace 1).

     main.exe --workload water-protocol|mc-racer --seed N
              --seconds S --trace 0|1 [--spans FILE]

   Prints a human-readable report, then as its last line one JSON object
   {correct, attempted, failed, metrics}.  Exits 1 when a run failed, a
   seed did not reproduce its simulated results, or WATER's traced runs'
   simulated results differ from its untraced runs'. *)

open Perfbench
module W = Workloads

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let spans_file = ref ""

let specs =
  [
    ("--workload", Arg.Set_string workload, "NAME water-protocol or mc-racer");
    ("--seed", Arg.Set_int seed, "N DSM config seed (water-protocol) or walk seed (mc-racer)");
    ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
    ("--spans", Arg.Set_string spans_file, "FILE write the traced run's spans here (JSON lines)");
  ]

type result = { correct : bool; attempted : int; failed : int; metrics : Metric.t list }

let median f l = Sample.median (Sample.of_list (List.map f l))

let print_metric ?tail ?n (m : Metric.t) =
  Printf.printf "  %-32s %18.6f %-7s" m.name m.value m.unit_;
  (match tail with
  | Some (Some (p, v)) -> Printf.printf "  tail p%.1f %.6f" p v
  | Some None -> Printf.printf "  tail -"
  | None -> ());
  Option.iter (Printf.printf "  n=%d") n;
  print_newline ()

(* A timing: the median is the metric; the tail and the sample count go on
   the human-readable line. *)
let timing name unit_ xs =
  let s = Sample.of_list xs in
  let m = Metric.v name unit_ (Sample.median s) in
  print_metric ~tail:(Sample.tail s) ~n:(Sample.count s) m;
  m

let shown m =
  print_metric m;
  m

let heap_peak_mb () =
  Metric.v "heap_peak_mb" "MB" (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8e-6)

let report_failures ~attempted failures =
  let failed = List.length failures in
  Printf.printf "  %-32s %18.6f %-7s  (%d of %d)\n" "fail_ratio"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "ratio" failed attempted;
  List.iteri (fun i f -> if i < 5 then Printf.printf "    failure: %s\n" f) failures

let print_sim label (s : W.sim) =
  Printf.printf
    "  %s: sim_us=%.0f sim_msgs=%d read_faults=%d write_faults=%d competing=%d \
     max_queue_depth=%d\n"
    label s.sim_us s.msgs s.read_faults s.write_faults s.competing s.max_queue_depth

let check_recorded (s : W.sim) =
  if !seed = 1 then
    if s = W.recorded then print_endline "  simulated results match those recorded at seed 1"
    else print_sim "DIFFERS from those recorded at seed 1" W.recorded

(* Layer metrics of a boundary this workload does not cross read 0. *)
let absent pred =
  List.filter_map
    (fun (n, u) -> if pred n then Some (Metric.v n u 0.0) else None)
    Metric.per_layer

let gc_metrics minor major =
  [
    Metric.v "gc.minor_collections" "count" (Sample.median (Sample.of_list minor));
    Metric.v "gc.major_collections" "count" (Sample.median (Sample.of_list major));
  ]

(* --------------------------- water-protocol --------------------------- *)

let app_failures runs = List.filter_map (fun (r : W.run) -> r.failure) runs

(* Every run of one seed must reproduce the same simulated results. *)
let same_sim (runs : W.run list) =
  let base = (List.hd runs).sim in
  List.for_all (fun (r : W.run) -> r.sim = base) runs

let water_end_to_end () =
  let runs = W.repeat ~seconds:!seconds (fun _ -> W.Plain.once ~seed:!seed) in
  let failures = app_failures runs in
  let first = (List.hd runs).sim in
  ignore (timing "wall_s" "s" (List.map (fun (r : W.run) -> r.wall_s) runs));
  let setup = timing "setup_s" "s" (List.map (fun (r : W.run) -> r.setup_s) runs) in
  let alloc = shown (Metric.v "alloc_mw" "Mw" (median (fun (r : W.run) -> r.words *. 1e-6) runs)) in
  let heap = shown (heap_peak_mb ()) in
  let sim = shown (Metric.v "sim_us" "sim_us" first.sim_us) in
  let metrics = [ setup; alloc; heap; sim ] in
  print_metric (Metric.v "sim_msgs" "count" (float_of_int first.msgs));
  report_failures ~attempted:(List.length runs) failures;
  print_sim "simulated" first;
  check_recorded first;
  let repeatable = same_sim runs in
  if not repeatable then print_endline "  NOT REPEATABLE: runs of one seed gave different results";
  { correct = repeatable && failures = []; attempted = List.length runs;
    failed = List.length failures; metrics }

(* The traced per-layer run pairs an untraced and a traced run of WATER
   for two thirds of the time, swapping which goes first from one
   pair to the next, so neither drift in the host's speed nor the position
   in a pair favours one side; the layer micro-loops take the rest. *)
let alternate f =
  List.split
    (W.repeat ~min:2 ~seconds:(!seconds *. 2.0 /. 3.0) (fun i ->
         if i land 1 = 0 then
           let untraced = f false in
           (untraced, f true)
         else
           let traced = f true in
           (f false, traced)))

let water_per_layer () =
  let plain, traced =
    alternate (fun traced ->
        if not traced then W.Plain.once ~seed:!seed
        else begin
          (* the spans kept are the last traced run's *)
          Trace.reset ~enabled:false;
          Trace.traced (fun () -> W.Traced.once ~seed:!seed)
        end)
  in
  if !spans_file <> "" then Trace.write !spans_file;
  let n_spans = List.length (Trace.spans ()) in
  let runs = plain @ traced in
  let failures = app_failures runs in
  let base = (List.hd plain).sim in
  let passive = same_sim runs in
  print_sim "untraced" base;
  print_sim "traced" (List.hd traced).sim;
  Printf.printf "  passivity: %s (%d untraced, %d traced runs; %d spans)\n"
    (if passive then "traced = untraced" else "MISMATCH")
    (List.length plain) (List.length traced) n_spans;
  let st = Option.get (List.hd (List.rev traced)).timed in
  let per x n = if n = 0 then 0.0 else x /. float_of_int n in
  let fault_tail =
    match Sample.tail st.fault_us with Some (_, v) -> v | None -> Sample.median st.fault_us
  in
  let wall = median (fun (r : W.run) -> r.wall_s) plain in
  let count name n = Metric.v name "count" (float_of_int n) in
  let metrics =
    [
      count "dsm.access.calls" st.calls;
      Metric.v "dsm.access.hit_ns" "ns" (per (float_of_int st.hit_ns) st.hits_sampled);
      Metric.v "dsm.access.hit_words" "words" (per st.hit_words st.hits_sampled);
      Metric.v "dsm.access.block_ratio" "ratio" (per (float_of_int st.blocked) st.calls);
      Metric.v "dsm.fault.sim_us_p50" "sim_us" (Sample.median st.fault_us);
      Metric.v "dsm.fault.sim_us_tail" "sim_us" fault_tail;
      Metric.v "dsm.sync.sim_us_p50" "sim_us" (Sample.median st.sync_us);
      count "dsm.read_faults" base.read_faults;
      count "dsm.write_faults" base.write_faults;
      count "dsm.messages" base.msgs;
      Metric.v "dsm.run.ns_per_msg" "ns" (wall *. 1e9 /. float_of_int base.msgs);
      Metric.v "trace.overhead_ratio" "ratio" (median (fun (r : W.run) -> r.wall_s) traced /. wall);
      Metric.v "trace.untraced_wall_s" "s" wall;
    ]
    @ gc_metrics
        (List.map (fun (r : W.run) -> float_of_int r.minor_gcs) plain)
        (List.map (fun (r : W.run) -> float_of_int r.major_gcs) plain)
    @ absent (String.starts_with ~prefix:"mc.")
  in
  { correct = passive && failures = []; attempted = List.length runs;
    failed = List.length failures; metrics }

(* ------------------------------ mc-racer ------------------------------ *)

let outcomes ss = List.filter_map (fun (s : W.schedule) -> s.outcome) ss
let schedule_failures ss = List.filter_map (fun (s : W.schedule) -> s.s_failure) ss
let walls ss = List.map (fun (s : W.schedule) -> s.s_wall_s) ss
let creates () = List.init 30 (fun _ -> W.racer_create ())

(* The outcomes of the first [W.mc_budget] schedules, which the seed alone
   fixes: how many more schedules fit in the run depends on the host. *)
let budget_outcomes ss = outcomes (List.filteri (fun i _ -> i < W.mc_budget) ss)

let run_schedules ~seconds = W.repeat ~min:W.mc_budget ~seconds (fun i -> W.schedule ~seed:!seed i)

let mc_end_to_end () =
  let setups = creates () in
  let t0 = Clock.now_ns () in
  let ss = run_schedules ~seconds:!seconds in
  let elapsed = Clock.seconds_since t0 in
  let failures = schedule_failures ss in
  let attempted = List.length ss in
  let fixed = budget_outcomes ss in
  ignore (timing "wall_s" "s" (walls ss));
  let setup = timing "setup_s" "s" setups in
  let alloc =
    shown (Metric.v "alloc_mw" "Mw" (median (fun (s : W.schedule) -> s.s_words *. 1e-6) ss))
  in
  let heap = shown (heap_peak_mb ()) in
  let sim = shown (Metric.v "sim_us" "sim_us" (median (fun (o : W.summary) -> o.end_us) fixed)) in
  let metrics = [ setup; alloc; heap; sim ] in
  let states = Hashtbl.create 256 in
  List.iter (fun (o : W.summary) -> Hashtbl.replace states o.state_sig ()) fixed;
  print_metric (Metric.v "schedules_per_s" "1/s" (float_of_int attempted /. elapsed));
  let ms = Sample.of_list (List.map (fun w -> w *. 1e3) (walls ss)) in
  print_metric ~n:(Sample.count ms) (Metric.v "schedule_ms_p50" "ms" (Sample.median ms));
  Option.iter
    (fun (p, v) -> Printf.printf "  %-32s %18.6f %-7s  p%.1f\n" "schedule_ms_tail" v "ms" p)
    (Sample.tail ms);
  let mc_states = Hashtbl.length states in
  print_metric (Metric.v "mc_states" "count" (float_of_int mc_states));
  Printf.printf "    (sim_us and mc_states over the first %d schedules)\n" W.mc_budget;
  if !seed = 1 then
    Printf.printf "  mc_states %s the %d recorded at seed 1\n"
      (if mc_states = W.recorded_mc_states then "matches" else "DIFFERS from")
      W.recorded_mc_states;
  report_failures ~attempted failures;
  { correct = failures = []; attempted; failed = List.length failures; metrics }

(* [Scenario.run_random] builds its own DSM, so no wrapped boundary lies on
   mc-racer's path: its only span is one [mc.schedule] per schedule, and
   there is no traced run to compare with an untraced one.  The dsm
   wrapper's metrics and [trace.overhead_ratio] read 0 here. *)
let mc_per_layer () =
  let setups = creates () in
  let ss = Trace.traced (fun () -> run_schedules ~seconds:(!seconds *. 2.0 /. 3.0)) in
  if !spans_file <> "" then Trace.write !spans_file;
  Printf.printf "  %d schedules, one mc.schedule span each; no wrapped boundary to trace\n"
    (List.length ss);
  let failures = schedule_failures ss in
  let fixed = budget_outcomes ss in
  let wall = Sample.median (Sample.of_list (walls ss)) in
  let metrics =
    [
      Metric.v "mc.schedule.choice_points" "count"
        (median (fun (o : W.summary) -> float_of_int o.choice_points) fixed);
      Metric.v "mc.schedule.obs_events" "count"
        (median (fun (o : W.summary) -> float_of_int o.obs_events) fixed);
      Metric.v "mc.create_share" "ratio" (Sample.median (Sample.of_list setups) /. wall);
      Metric.v "trace.untraced_wall_s" "s" wall;
    ]
    @ gc_metrics
        (List.map (fun (s : W.schedule) -> float_of_int s.s_minor_gcs) ss)
        (List.map (fun (s : W.schedule) -> float_of_int s.s_major_gcs) ss)
    @ absent (fun n ->
          n = "trace.overhead_ratio"
          || (String.starts_with ~prefix:"dsm." n && not (String.starts_with ~prefix:"dsm.create" n)))
  in
  { correct = failures = []; attempted = List.length ss; failed = List.length failures; metrics }

(* -------------------------------- main -------------------------------- *)

let describe = function
  | "water-protocol" ->
    Printf.sprintf "WATER %d molecules unchunked (Fine 1), %d hosts, central homes, SC, NT polling"
      Mp_apps.Water.default_params.molecules W.hosts
  | _ ->
    Printf.sprintf "mpcheck random walk, jobs=1, prob %.2f: %s" W.walk_prob
      (Mp_mc.Scenario.to_string W.racer)

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  if !workload <> "water-protocol" && !workload <> "mc-racer" then begin
    prerr_endline "perfbench: --workload must be water-protocol or mc-racer";
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  Printf.printf "== %s  seed=%d  seconds=%g  trace=%d\n   %s\n%!" !workload !seed !seconds !trace
    (describe !workload);
  let r =
    match (!workload, !trace) with
    | "water-protocol", 0 -> water_end_to_end ()
    | "water-protocol", _ -> water_per_layer ()
    | _, 0 -> mc_end_to_end ()
    | _, _ -> mc_per_layer ()
  in
  let declared, metrics =
    if !trace = 0 then (Metric.end_to_end, r.metrics)
    else begin
      let ms = r.metrics @ Layers.all () in
      List.iter print_metric ms;
      (Metric.per_layer, ms)
    end
  in
  print_endline
    (Metric.result_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed
       (Metric.conform declared metrics));
  if not r.correct then exit 1
