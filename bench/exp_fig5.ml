(** Figure 5: overheads of MultiView — traversal slowdown as a function of
    the number of views, for shared-array sizes 512 KB to 16 MB.

    Expected shape (all reproduced by the model): negligible overhead (<4%)
    up to 32 views; breaking points where views x size(MB) ≈ 512 (the PTE
    working set overflowing the 512 KB L2); linear growth beyond, with the
    same slope for every size. *)

open Mp_memsim
module Tab = Mp_util.Tab

let mb = 1024 * 1024

let run ?(full = false) () =
  Harness.section "Figure 5: MultiView overhead (slowdown vs. 1 view)";
  let sizes =
    if full then [ mb / 2; mb; 2 * mb; 4 * mb; 8 * mb; 16 * mb ]
    else [ mb / 2; mb; 2 * mb; 4 * mb; 8 * mb ]
  in
  let view_counts = [ 16; 32; 64; 128; 256; 512 ] in
  let iterations = if full then 3 else 2 in
  (* The chart and the sections after the table re-read the table's
     configurations, so each distinct one runs once. *)
  let runs = Hashtbl.create 64 in
  let model ?(order = `Interleaved) ~array_bytes ?(allocated_bytes = array_bytes) views =
    let key = (order, array_bytes, allocated_bytes, views) in
    match Hashtbl.find_opt runs key with
    | Some r -> r
    | None ->
      let r = Overhead_model.run ~iterations ~order ~allocated_bytes ~array_bytes ~views () in
      Hashtbl.add runs key r;
      r
  in
  let slowdown ?order ~array_bytes ?allocated_bytes views =
    Overhead_model.slowdown ~baseline:(model ~array_bytes 1)
      (model ?order ~array_bytes ?allocated_bytes views)
  in
  let header =
    "array"
    :: List.map (fun v -> Printf.sprintf "%dv" v) view_counts
    @ [ "break@" ]
  in
  let rows =
    List.map
      (fun array_bytes ->
        let cells =
          List.map
            (fun views ->
              if views > Overhead_model.max_views_for ~array_bytes () then "-"
              else Tab.fx (slowdown ~array_bytes views))
            view_counts
        in
        let predicted_break = 512 * mb / array_bytes in
        (Printf.sprintf "%d KB" (array_bytes / 1024) :: cells)
        @ [ string_of_int predicted_break ])
      sizes
  in
  Tab.print ~header rows;
  print_newline ();
  Tab.print_chart ~y_label:"slowdown vs 1 view"
    ~series:
      (List.filteri
         (fun i _ -> i < 4)
         (List.map
            (fun array_bytes ->
              let label =
                (* distinct first letters: a=512K, b=1M, c=2M, d=4M *)
                match array_bytes / 1024 with
                | 512 -> "a 512KB"
                | 1024 -> "b 1MB"
                | 2048 -> "c 2MB"
                | n -> Printf.sprintf "d %dKB" n
              in
              ( label,
                List.filter_map
                  (fun views ->
                    if views > Overhead_model.max_views_for ~array_bytes () then None
                    else Some (float_of_int views, slowdown ~array_bytes views))
                  view_counts ))
            sizes))
    ();
  Harness.note
    "break@ = predicted breaking point (views x MB = 512, i.e. PTE set = L2 size);";
  Harness.note
    "paper shape: <4%% overhead for <=32 views, linear growth past the break, same slope for all sizes.";
  (* §5's access-locality observation: PTE locality is preserved across
     views, so visiting one view at a time instead of interleaving blunts
     the post-break overhead *)
  Harness.section "§5: PT access locality — interleaved vs. view-major traversal";
  let rows =
    List.map
      (fun (array_bytes, views) ->
        [
          Printf.sprintf "%d KB x %d views" (array_bytes / 1024) views;
          Tab.fx (slowdown ~array_bytes views);
          Tab.fx (slowdown ~order:`View_major ~array_bytes views);
        ])
      [ (2 * mb, 512); (4 * mb, 256); (8 * mb, 128) ]
  in
  Tab.print ~header:[ "configuration"; "interleaved"; "view-major" ] rows;
  Harness.note
    "\"locality is not completely lost, but is preserved across views\" — visiting one";
  Harness.note "view at a time consumes each PTE cache line whole and blunts the breakdown.";
  (* §4.1 observation 4 *)
  Harness.section "§4.1 obs. 4: allocating more than is accessed moves the break earlier";
  let touched = mb in
  Tab.print
    ~header:[ "allocated"; "touched"; "views"; "slowdown vs 1 view" ]
    (List.map
       (fun allocated ->
         [
           Printf.sprintf "%d MB" (allocated / mb);
           "1 MB";
           "256";
           Tab.fx (slowdown ~array_bytes:touched ~allocated_bytes:allocated 256);
         ])
       [ mb; 2 * mb; 4 * mb ])
