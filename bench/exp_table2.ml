(** Table 2: application-suite characteristics, paper vs. measured.

    The paper numbers are for the full input sets; our defaults are scaled
    down (the simulator executes every shared access), so shared-memory sizes
    and lock totals scale with the input while the structural numbers —
    views, sharing granularity, barrier formulas — should match. *)

open Mp_apps
module Tab = Mp_util.Tab

let run () =
  Harness.section "Table 2: application suite (8 hosts, scaled default inputs)";
  let rows =
    List.map
      (fun (row : Workloads.row) ->
        let o =
          (* Table 2 describes the natural (unchunked) layout, so WATER runs
             at chunking level 1 here, unlike the Figure 6 runs *)
          if row.name = "WATER" then
            Apps_runner.run ~chunking:(Mp_multiview.Allocator.Fine 1)
              (App.of_name "water") 8
          else Apps_runner.by_name row.name 8
        in
        [
          row.name;
          row.granularity;
          string_of_int row.views;
          string_of_int o.views;
          string_of_int row.barriers;
          string_of_int o.barriers_per_thread;
          (if row.locks < 0 then "-" else string_of_int row.locks);
          (if o.locks_total = 0 then "-" else string_of_int o.locks_total);
          (if o.verified then "ok" else "FAIL");
        ])
      Workloads.table2
  in
  Tab.print
    ~header:
      [
        "app";
        "sharing granularity";
        "views(paper)";
        "views(ours)";
        "barr(paper)";
        "barr(ours)";
        "locks(paper)";
        "locks(ours)";
        "result";
      ]
    rows;
  Harness.note
    "barrier/lock totals depend on the input size; ours are for the scaled defaults";
  Harness.note
    "(SOR: 2*iters+1 barriers = 21 at the paper's 10 iterations; IS: 9*iters+1 = 91).";
  Harness.section "Table 2: allocation sizes drive the view counts";
  Tab.print
    ~header:[ "app"; "alloc size"; "views = floor(4096/size) capped by allocations" ]
    (List.map
       (fun (row : Workloads.row) ->
         let size = Workloads.alloc_size row.name in
         [ row.name; string_of_int size; string_of_int row.views ])
       Workloads.table2)
