(* Tests of the benchmark itself: the timing wrapper is passive, metric
   names are well formed, and the tail statistic is the one reported. *)

open Perfbench
open Mp_sim
open Mp_apps
module Dsm = Mp_millipage.Dsm
module M = Mp_dsm.Millipage_impl
module T = Timed.Make (M)

type sim = {
  time : float;
  msgs : int;
  bytes : int;
  rf : int;
  wf : int;
  breakdown : (string * float) list;
}

let sim (type d) (module D : Mp_dsm.Dsm_intf.S with type t = d) (d : d) =
  {
    time = Engine.now (D.engine d);
    msgs = D.messages_sent d;
    bytes = D.bytes_sent d;
    rf = D.read_faults d;
    wf = D.write_faults d;
    breakdown = D.breakdown d;
  }

let fresh hosts =
  Dsm.create (Engine.create ()) ~hosts ~config:(Dsm.Config.with_seed Dsm.Config.default 3) ()

let sor_p = { Sor.default_params with rows = 64; iterations = 4 }
let water_p = { Water.default_params with molecules = 24; iterations = 2 }

let sor_plain () =
  let module A = Sor.Make (M) in
  let d = fresh 4 in
  let h = A.setup d sor_p in
  M.run d;
  Alcotest.(check bool) "sor verifies" true (A.verify h);
  sim (module M) d

let sor_wrapped () =
  let module A = Sor.Make (T) in
  let d = T.wrap (fresh 4) in
  let h = A.setup d sor_p in
  T.run d;
  Alcotest.(check bool) "wrapped sor verifies" true (A.verify h);
  Alcotest.(check bool) "accesses counted" true ((T.stats d).calls > 0);
  sim (module T) d

let water_plain () =
  let module A = Water.Make (M) in
  let d = fresh 4 in
  let h = A.setup d water_p in
  M.run d;
  Alcotest.(check bool) "water verifies" true (A.verify h);
  sim (module M) d

let water_wrapped () =
  let module A = Water.Make (T) in
  let d = T.wrap (fresh 4) in
  let h = A.setup d water_p in
  Trace.reset ~enabled:false;
  Trace.traced (fun () -> T.run d);
  Alcotest.(check bool) "wrapped water verifies" true (A.verify h);
  let st = T.stats d in
  Alcotest.(check int) "one span per blocking access and sync call"
    (st.blocked + Sample.count st.sync_us)
    (List.length (Trace.spans ()));
  sim (module T) d

let same_sim name a b =
  Alcotest.(check (float 0.0)) (name ^ " time") a.time b.time;
  Alcotest.(check int) (name ^ " messages") a.msgs b.msgs;
  Alcotest.(check int) (name ^ " bytes") a.bytes b.bytes;
  Alcotest.(check int) (name ^ " read faults") a.rf b.rf;
  Alcotest.(check int) (name ^ " write faults") a.wf b.wf;
  Alcotest.(check bool) (name ^ " breakdown") true (a.breakdown = b.breakdown)

let test_sor_passive () = same_sim "sor" (sor_plain ()) (sor_wrapped ())
let test_water_passive () = same_sim "water" (water_plain ()) (water_wrapped ())

let test_metric_names () =
  let names = List.map fst (Metric.end_to_end @ Metric.per_layer) in
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (Metric.valid_name n)) names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "a space is not allowed" false (Metric.valid_name "mc states");
  Alcotest.(check bool) "empty is not allowed" false (Metric.valid_name "")

let test_conform () =
  let ms = List.map (fun (n, u) -> Metric.v n u 1.0) Metric.end_to_end in
  Alcotest.(check int) "declared set conforms" (List.length ms)
    (List.length (Metric.conform Metric.end_to_end (List.rev ms)));
  let raises ms =
    match Metric.conform Metric.end_to_end ms with _ -> false | exception Failure _ -> true
  in
  Alcotest.(check bool) "missing metric rejected" true (raises (List.tl ms));
  Alcotest.(check bool) "extra metric rejected" true (raises (Metric.v "extra" "s" 1.0 :: ms));
  Alcotest.(check bool) "nan rejected" true
    (raises (List.map (fun (m : Metric.t) -> { m with value = nan }) ms))

let test_tail () =
  let of_range n = Sample.of_list (List.init n (fun i -> float_of_int (n - i))) in
  Alcotest.(check bool) "no tail below 11 samples" true (Sample.tail (of_range 10) = None);
  List.iter
    (fun n ->
      match Sample.tail (of_range n) with
      | None -> Alcotest.fail "tail expected"
      | Some (p, v) ->
        let samples = List.init n (fun i -> float_of_int (i + 1)) in
        let beyond = List.length (List.filter (fun x -> x > v) samples) in
        Alcotest.(check int) (Printf.sprintf "n=%d: ten samples beyond the tail" n) 10 beyond;
        Alcotest.(check (float 1e-9)) (Printf.sprintf "n=%d: percentile" n)
          (100.0 *. float_of_int (n - 10) /. float_of_int n) p)
    [ 11; 20; 100; 1000 ];
  (* with 1000 samples the highest percentile with ten beyond it is p99 *)
  Alcotest.(check bool) "p99 of 1..1000" true (Sample.tail (of_range 1000) = Some (99.0, 990.0));
  Alcotest.(check (float 0.0)) "median of 1..4" 2.5 (Sample.median (of_range 4))

let () =
  Alcotest.run "perfbench"
    [
      ( "wrapper",
        [
          Alcotest.test_case "sor wrapped = unwrapped" `Quick test_sor_passive;
          Alcotest.test_case "water wrapped = unwrapped" `Quick test_water_passive;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names" `Quick test_metric_names;
          Alcotest.test_case "conform" `Quick test_conform;
          Alcotest.test_case "tail percentile" `Quick test_tail;
        ] );
    ]
