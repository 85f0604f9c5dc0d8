open Mp_util

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  Alcotest.(check bool) "mean" true (feq (Stats.Summary.mean s) 2.5);
  Alcotest.(check bool) "total" true (feq (Stats.Summary.total s) 10.0);
  Alcotest.(check bool) "min" true (feq (Stats.Summary.min s) 1.0);
  Alcotest.(check bool) "max" true (feq (Stats.Summary.max s) 4.0);
  (* sample stddev of 1,2,3,4 is sqrt(5/3) *)
  Alcotest.(check bool) "stddev" true
    (feq ~eps:1e-6 (Stats.Summary.stddev s) (sqrt (5.0 /. 3.0)))

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check bool) "mean 0" true (feq (Stats.Summary.mean s) 0.0);
  Alcotest.(check bool) "stddev 0" true (feq (Stats.Summary.stddev s) 0.0);
  Alcotest.check_raises "min raises" (Invalid_argument "Summary.min: empty") (fun () ->
      ignore (Stats.Summary.min s))

let test_summary_merge_equals_union () =
  let rng = Prng.create ~seed:5 in
  let a = Stats.Summary.create ()
  and b = Stats.Summary.create ()
  and u = Stats.Summary.create () in
  for i = 1 to 1000 do
    let x = Prng.gaussian rng ~mu:3.0 ~sigma:2.0 in
    Stats.Summary.add (if i mod 3 = 0 then a else b) x;
    Stats.Summary.add u x
  done;
  let m = Stats.Summary.merge a b in
  Alcotest.(check int) "count" (Stats.Summary.count u) (Stats.Summary.count m);
  Alcotest.(check bool) "mean" true
    (feq ~eps:1e-6 (Stats.Summary.mean u) (Stats.Summary.mean m));
  Alcotest.(check bool) "stddev" true
    (feq ~eps:1e-6 (Stats.Summary.stddev u) (Stats.Summary.stddev m));
  Alcotest.(check bool) "min" true (feq (Stats.Summary.min u) (Stats.Summary.min m));
  Alcotest.(check bool) "max" true (feq (Stats.Summary.max u) (Stats.Summary.max m))

let test_counters () =
  let c = Stats.Counters.create () in
  Stats.Counters.incr c "faults";
  Stats.Counters.add c "faults" 2;
  Stats.Counters.add c "msgs" 10;
  Alcotest.(check int) "faults" 3 (Stats.Counters.get c "faults");
  Alcotest.(check int) "msgs" 10 (Stats.Counters.get c "msgs");
  Alcotest.(check int) "missing" 0 (Stats.Counters.get c "nope");
  Alcotest.(check (list (pair string int)))
    "to_list sorted"
    [ ("faults", 3); ("msgs", 10) ]
    (Stats.Counters.to_list c)

let test_counters_merge_reset () =
  let a = Stats.Counters.create () and b = Stats.Counters.create () in
  Stats.Counters.add a "x" 1;
  Stats.Counters.add b "x" 2;
  Stats.Counters.add b "y" 5;
  Stats.Counters.merge_into ~dst:a b;
  Alcotest.(check int) "x merged" 3 (Stats.Counters.get a "x");
  Alcotest.(check int) "y merged" 5 (Stats.Counters.get a "y");
  Stats.Counters.reset a;
  Alcotest.(check int) "reset" 0 (Stats.Counters.get a "x")

let test_histogram () =
  let h = Stats.Histogram.create ~bucket_width:10.0 ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ 1.0; 5.0; 15.0; 95.0; 1000.0 ];
  Alcotest.(check int) "count" 5 (Stats.Histogram.count h);
  let counts = Stats.Histogram.bucket_counts h in
  Alcotest.(check int) "bucket0" 2 counts.(0);
  Alcotest.(check int) "bucket1" 1 counts.(1);
  Alcotest.(check int) "bucket9 incl overflow" 2 counts.(9)

let test_histogram_pathological_inputs () =
  let h = Stats.Histogram.create ~bucket_width:10.0 ~buckets:4 in
  (* NaN, +inf and overflowing values clamp into the last bucket; negatives
     and -inf into the first — and every one of them is counted *)
  List.iter (Stats.Histogram.add h)
    [ Float.nan; Float.infinity; 1e300; 4.0e18 (* x/width > max_int *);
      Float.neg_infinity; -5.0; 0.0 ];
  Alcotest.(check int) "all counted" 7 (Stats.Histogram.count h);
  let counts = Stats.Histogram.bucket_counts h in
  Alcotest.(check int) "first bucket" 3 counts.(0);
  Alcotest.(check int) "mid buckets empty" 0 (counts.(1) + counts.(2));
  Alcotest.(check int) "last bucket" 4 counts.(3);
  (* percentile stays well-defined on a histogram full of garbage *)
  Alcotest.(check bool) "percentile defined" true
    (Stats.Histogram.percentile h 0.99 <= 40.0)

let test_histogram_boundary_values () =
  let h = Stats.Histogram.create ~bucket_width:10.0 ~buckets:4 in
  List.iter (Stats.Histogram.add h) [ 10.0; 29.999; 30.0; 39.0; 40.0 ];
  let counts = Stats.Histogram.bucket_counts h in
  Alcotest.(check int) "bucket1 gets exactly-on-edge 10.0" 1 counts.(1);
  Alcotest.(check int) "bucket2" 1 counts.(2);
  Alcotest.(check int) "last holds its edge and overflow" 3 counts.(3)

let test_histogram_percentile () =
  let h = Stats.Histogram.create ~bucket_width:1.0 ~buckets:100 in
  for i = 0 to 99 do
    Stats.Histogram.add h (float_of_int i +. 0.5)
  done;
  Alcotest.(check bool) "p50" true (feq (Stats.Histogram.percentile h 0.5) 50.0);
  Alcotest.(check bool) "p99" true (feq (Stats.Histogram.percentile h 0.99) 99.0)

(* An eager model: every declared bucket allocated up front, the clamping
   rule of [Histogram.add], and the percentile walk over all of them. *)
let model_counts ~width ~buckets xs =
  let counts = Array.make buckets 0 in
  let last = buckets - 1 in
  List.iter
    (fun x ->
      let q = x /. width in
      let i =
        if Float.is_nan q then last
        else if q < 0.0 then 0
        else if q >= float_of_int last then last
        else int_of_float q
      in
      counts.(i) <- counts.(i) + 1)
    xs;
  counts

let model_percentile ~width counts n p =
  let target = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  let rec go i seen =
    let seen = seen + counts.(i) in
    if seen >= target || i = Array.length counts - 1 then float_of_int (i + 1) *. width
    else go (i + 1) seen
  in
  go 0 0

let qcheck_histogram_matches_eager_model =
  let gen =
    QCheck.Gen.(
      let* width = float_range 0.01 100.0 in
      let* buckets = int_range 1 4096 in
      let edge = width *. float_of_int buckets in
      let sample =
        frequency
          [
            (6, float_range 0.0 edge);
            (2, float_range (-.edge) (2.0 *. edge));
            (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -1.0; edge; 1e300 ]);
          ]
      in
      let* xs = list_size (int_range 0 200) sample in
      return (width, buckets, xs))
  in
  let print (width, buckets, xs) =
    Printf.sprintf "width=%g buckets=%d samples=[%s]" width buckets
      (String.concat "; " (List.map string_of_float xs))
  in
  QCheck.Test.make ~name:"histogram matches an eager model" ~count:300
    (QCheck.make ~print gen)
    (fun (width, buckets, xs) ->
      let h = Stats.Histogram.create ~bucket_width:width ~buckets in
      List.iter (Stats.Histogram.add h) xs;
      let model = model_counts ~width ~buckets xs in
      let n = List.length xs in
      Stats.Histogram.count h = n
      && Stats.Histogram.bucket_counts h = model
      && (n = 0
         || List.for_all
              (fun p ->
                Stats.Histogram.percentile h p = model_percentile ~width model n p)
              [ 0.0; 0.5; 0.95; 0.99; 1.0 ]))

(* Buckets are allocated as samples reach them: 100 samples under 64 in a
   4096-bucket histogram cost a 64-entry array, not 4096 entries. *)
let test_histogram_grows_on_demand () =
  (* boxed up front, so the measurement counts only the histogram *)
  let xs = List.init 100 (fun i -> float_of_int (i * 37 mod 64) +. 0.5) in
  let words =
    Test_memsim.allocated_words (fun () ->
        let h = Stats.Histogram.create ~bucket_width:1.0 ~buckets:4096 in
        List.iter (Stats.Histogram.add h) xs;
        ignore (Sys.opaque_identity h))
  in
  Alcotest.(check bool) (Printf.sprintf "%.0f words < 100" words) true (words < 100.0)

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"summary merge commutative" ~count:200
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let mk zs =
        let s = Stats.Summary.create () in
        List.iter (Stats.Summary.add s) zs;
        s
      in
      let m1 = Stats.Summary.merge (mk xs) (mk ys) in
      let m2 = Stats.Summary.merge (mk ys) (mk xs) in
      Stats.Summary.count m1 = Stats.Summary.count m2
      && Float.abs (Stats.Summary.mean m1 -. Stats.Summary.mean m2) < 1e-6)

let test_tab_render () =
  let out =
    Tab.render ~header:[ "op"; "us" ] [ [ "fault"; "26" ]; [ "set prot"; "12" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    List.length lines >= 4);
  (* right-aligned numeric column *)
  let lines = String.split_on_char '\n' out in
  let row = List.nth lines 2 in
  Alcotest.(check bool) "right aligned" true (String.length row >= 2)

let suite =
  [
    Alcotest.test_case "summary basic" `Quick test_summary_basic;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "summary merge" `Quick test_summary_merge_equals_union;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "counters merge/reset" `Quick test_counters_merge_reset;
    Alcotest.test_case "histogram buckets" `Quick test_histogram;
    Alcotest.test_case "histogram pathological inputs" `Quick
      test_histogram_pathological_inputs;
    Alcotest.test_case "histogram boundary values" `Quick test_histogram_boundary_values;
    Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
    Alcotest.test_case "histogram grows on demand" `Quick test_histogram_grows_on_demand;
    QCheck_alcotest.to_alcotest qcheck_histogram_matches_eager_model;
    QCheck_alcotest.to_alcotest qcheck_merge_commutative;
    Alcotest.test_case "tab render" `Quick test_tab_render;
  ]
