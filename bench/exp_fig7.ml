(** Figure 7: the effect of chunking in WATER.

    Sweeps the chunking level 1-6 plus "none" (page-grain allocation,
    disregarding minipage boundaries) on 4 and 8 hosts, reporting competing
    requests, read+write faults and efficiency relative to the best level —
    the tradeoff between false sharing (rising competing requests) and
    aggregation (falling fault counts). *)

open Mp_apps
module Tab = Mp_util.Tab

let levels =
  [
    ("1", Mp_multiview.Allocator.Fine 1);
    ("2", Mp_multiview.Allocator.Fine 2);
    ("3", Mp_multiview.Allocator.Fine 3);
    ("4", Mp_multiview.Allocator.Fine 4);
    ("5", Mp_multiview.Allocator.Fine 5);
    ("6", Mp_multiview.Allocator.Fine 6);
    ("none", Mp_multiview.Allocator.Page_grain);
  ]

let run ?(molecules = 512) ?(iterations = 3) () =
  let p = { Water.default_params with molecules; iterations } in
  let chart_series = ref [] in
  List.iter
    (fun hosts ->
      Harness.section
        (Printf.sprintf "Figure 7: chunking in WATER (%d hosts, %d molecules)" hosts
           molecules);
      let outcomes =
        List.map
          (fun (label, chunking) ->
            (label, Apps_runner.run ~chunking (App.Water p) hosts))
          levels
      in
      let best =
        List.fold_left
          (fun acc (_, (o : Apps_runner.outcome)) -> Float.min acc o.time_us)
          infinity outcomes
      in
      Tab.print
        ~header:
          [ "chunking"; "compete req."; "r/w faults"; "efficiency"; "views"; "result" ]
        (List.map
           (fun (label, (o : Apps_runner.outcome)) ->
             [
               label;
               string_of_int o.competing;
               string_of_int (o.read_faults + o.write_faults);
               Tab.fx (best /. o.time_us);
               string_of_int o.views;
               (if o.verified then "ok" else "FAIL");
             ])
           outcomes);
      chart_series :=
        ( Printf.sprintf "%d hosts" hosts,
          List.mapi
            (fun i (_, (o : Apps_runner.outcome)) ->
              (float_of_int (i + 1), best /. o.time_us))
            outcomes )
        :: !chart_series)
    [ 4; 8 ];
  print_newline ();
  Tab.print_chart ~y_label:"efficiency (x = chunking level; 7 = none)"
    ~series:(List.rev !chart_series) ();
  Harness.note
    "paper: competing requests grow with the chunking level (21 unchunked -> 601 at 'none'),";
  Harness.note
    "faults fall, and the best efficiency sits at level 4 (4 hosts) / 5 (8 hosts)."
