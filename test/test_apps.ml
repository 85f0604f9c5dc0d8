open Mp_sim
open Mp_millipage
open Mp_apps
module M = Mp_dsm.Millipage_impl

let fast_config ?(views = 32) ?(object_size = 16 * 1024 * 1024) ?chunking
    ?(polling = Mp_net.Polling.Fast) () =
  {
    Dsm.Config.default with
    polling;
    views;
    object_size;
    chunking = Option.value ~default:Mp_multiview.Allocator.(Fine 1) chunking;
  }

let mk ?views ?object_size ?chunking ?polling hosts =
  let e = Engine.create () in
  (e, Dsm.create e ~hosts ~config:(fast_config ?views ?object_size ?chunking ?polling ()) ())

(* ---------------- partition ---------------- *)

let test_block_range () =
  let check items parts =
    let covered = Array.make items 0 in
    for part = 0 to parts - 1 do
      let first, past = Partition.block_range ~items ~parts ~part in
      for i = first to past - 1 do
        covered.(i) <- covered.(i) + 1
      done
    done;
    Alcotest.(check bool)
      (Printf.sprintf "%d/%d exact cover" items parts)
      true
      (Array.for_all (fun c -> c = 1) covered)
  in
  check 10 3;
  check 7 8;
  check 64 8;
  check 1 1

let test_owner_of () =
  for i = 0 to 9 do
    let o = Partition.owner_of ~items:10 ~parts:3 i in
    let first, past = Partition.block_range ~items:10 ~parts:3 ~part:o in
    Alcotest.(check bool) "consistent" true (i >= first && i < past)
  done

(* ---------------- SOR ---------------- *)

module Sor_m = Sor.Make (M)

let run_sor ?(hosts = 4) ?(p = Sor.default_params) () =
  let _e, dsm = mk hosts in
  let h = Sor_m.setup dsm p in
  Dsm.run dsm;
  (dsm, h)

let test_sor_correct_1host () =
  let _, h = run_sor ~hosts:1 ~p:{ Sor.default_params with rows = 32; iterations = 3 } () in
  Alcotest.(check bool) "matches reference" true (Sor_m.verify h)

let test_sor_correct_4hosts () =
  let _, h = run_sor ~hosts:4 ~p:{ Sor.default_params with rows = 64; iterations = 4 } () in
  Alcotest.(check bool) "matches reference" true (Sor_m.verify h)

let test_sor_speedup () =
  let p = { Sor.default_params with rows = 128; iterations = 4 } in
  let time hosts =
    let e, dsm = mk hosts in
    let _h = Sor_m.setup dsm p in
    Dsm.run dsm;
    Engine.now e
  in
  let t1 = time 1 and t4 = time 4 in
  let speedup = t1 /. t4 in
  (* tiny test input: most of the parallel run is the one-time initial data
     distribution, so just require clear parallel gain *)
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f > 1.8" speedup)
    true (speedup > 1.8)

(* ---------------- IS ---------------- *)

module Is_m = Is.Make (M)

let test_is_correct () =
  let hosts = 4 in
  let _e, dsm = mk hosts in
  let p = { Is.default_params with keys = 4096; iterations = 3; max_key = 64 } in
  let h = Is_m.setup dsm p in
  Dsm.run dsm;
  Alcotest.(check bool) "histogram matches" true (Is_m.verify h)

let test_is_barrier_count () =
  let hosts = 8 in
  let _e, dsm = mk hosts in
  let p = { Is.default_params with keys = 4096; iterations = 10; max_key = 64 } in
  let _h = Is_m.setup dsm p in
  Dsm.run dsm;
  (* Table 2: 90 barriers for 10 iterations on 8 hosts (plus the final one) *)
  let per_thread = (Dsm.stats dsm).barriers_entered / hosts in
  Alcotest.(check int) "90 barriers + final gather" 91 per_thread

(* ---------------- WATER ---------------- *)

module Water_m = Water.Make (M)

let test_water_correct () =
  let _e, dsm = mk 4 in
  let p = { Water.default_params with molecules = 24; iterations = 2 } in
  let h = Water_m.setup dsm p in
  Dsm.run dsm;
  Alcotest.(check bool) "positions and energy match" true (Water_m.verify h)

let test_water_views_six () =
  let _e, dsm = mk 2 in
  let p = { Water.default_params with molecules = 24; iterations = 1 } in
  let _h = Water_m.setup dsm p in
  Dsm.run dsm;
  (* 672-byte molecules -> 6 views (Table 2) *)
  Alcotest.(check int) "views" 6 (Dsm.views_used dsm)

let test_water_chunking_reduces_read_faults () =
  let p = { Water.default_params with molecules = 48; iterations = 2 } in
  let faults chunking =
    let _e, dsm = mk ~chunking 4 in
    let _h = Water_m.setup dsm p in
    Dsm.run dsm;
    Dsm.read_faults dsm
  in
  let f1 = faults (Mp_multiview.Allocator.Fine 1) in
  let f4 = faults (Mp_multiview.Allocator.Fine 4) in
  Alcotest.(check bool)
    (Printf.sprintf "chunk4 (%d) < chunk1 (%d)" f4 f1)
    true (f4 < f1)

let test_water_chunking_increases_competing () =
  (* Figure 7's tradeoff needs the realistic NT polling: its wide service
     windows are what make false-sharing write requests collide at the
     manager *)
  (* 66 molecules over 8 hosts misaligns owner boundaries with minipage
     boundaries, which is where chunked false sharing lives *)
  let p = { Water.default_params with molecules = 66; iterations = 3 } in
  let competing chunking =
    let _e, dsm = mk ~chunking ~polling:Mp_net.Polling.nt_mode 8 in
    let _h = Water_m.setup dsm p in
    Dsm.run dsm;
    Dsm.competing_requests dsm
  in
  let c1 = competing (Mp_multiview.Allocator.Fine 1) in
  let cn = competing Mp_multiview.Allocator.Page_grain in
  Alcotest.(check bool)
    (Printf.sprintf "page-grain (%d) > fine (%d)" cn c1)
    true (cn > c1)

(* ---------------- LU ---------------- *)

module Lu_m = Lu.Make (M)

let test_lu_correct () =
  let _e, dsm = mk ~views:4 4 in
  let p = { Lu.default_params with n = 96; block = 32 } in
  let h = Lu_m.setup dsm p in
  Dsm.run dsm;
  Alcotest.(check bool) "factorization matches" true (Lu_m.verify h)

let test_lu_single_view () =
  let _e, dsm = mk ~views:4 2 in
  let p = { Lu.default_params with n = 64; block = 32 } in
  let _h = Lu_m.setup dsm p in
  Dsm.run dsm;
  (* 4 KB page-sized blocks need exactly one view (Table 2) *)
  Alcotest.(check int) "one view" 1 (Dsm.views_used dsm)

let test_lu_prefetch_helps () =
  let p = { Lu.default_params with n = 128; block = 32 } in
  let time use_prefetch =
    let e, dsm = mk ~views:4 4 in
    let _h = Lu_m.setup dsm { p with use_prefetch } in
    Dsm.run dsm;
    Engine.now e
  in
  let with_pf = time true and without_pf = time false in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch %.0f <= no-prefetch %.0f" with_pf without_pf)
    true (with_pf <= without_pf)

(* ---------------- TSP ---------------- *)

module Tsp_m = Tsp.Make (M)

let test_tsp_correct () =
  let _e, dsm = mk 4 in
  let p = { Tsp.default_params with cities = 9; level = 3 } in
  let h = Tsp_m.setup dsm p in
  Dsm.run dsm;
  Alcotest.(check bool) "optimal tour found" true (Tsp_m.verify h)

let test_tsp_views_27 () =
  let _e, dsm = mk 2 in
  let p = { Tsp.default_params with cities = 8; level = 3 } in
  let _h = Tsp_m.setup dsm p in
  Dsm.run dsm;
  (* 148-byte tours -> up to 27 views (Table 2); smaller runs may use fewer
     but never more *)
  Alcotest.(check bool) "within 27 views" true (Dsm.views_used dsm <= 27)

let test_tsp_pushes_happen () =
  let _e, dsm = mk 4 in
  let p = { Tsp.default_params with cities = 9; level = 3 } in
  let _h = Tsp_m.setup dsm p in
  Dsm.run dsm;
  Alcotest.(check bool) "min improvements pushed" true
    ((Dsm.stats dsm).pushes >= 1)

(* ---------------- Apps on the baselines ---------------- *)

module Sor_lrc = Sor.Make (Mp_baselines.Lrc)
module Sor_ivy = Sor.Make (Mp_baselines.Ivy)

let test_sor_on_lrc () =
  let e = Engine.create () in
  let t = Mp_baselines.Lrc.create e ~hosts:4 ~polling:Mp_net.Polling.Fast () in
  let h = Sor_lrc.setup t { Sor.default_params with rows = 64; iterations = 3 } in
  Mp_baselines.Lrc.run t;
  Alcotest.(check bool) "lrc sor matches reference" true (Sor_lrc.verify h)

let test_sor_on_ivy () =
  let e = Engine.create () in
  let t = Mp_baselines.Ivy.create e ~hosts:4 ~polling:Mp_net.Polling.Fast () in
  let h = Sor_ivy.setup t { Sor.default_params with rows = 64; iterations = 3 } in
  Mp_baselines.Ivy.run t;
  Alcotest.(check bool) "ivy sor matches reference" true (Sor_ivy.verify h)

module Tsp_lrc = Tsp.Make (Mp_baselines.Lrc)

let test_tsp_on_lrc () =
  let e = Engine.create () in
  let t = Mp_baselines.Lrc.create e ~hosts:3 ~polling:Mp_net.Polling.Fast () in
  let h = Tsp_lrc.setup t { Tsp.default_params with cities = 8; level = 3 } in
  Mp_baselines.Lrc.run t;
  Alcotest.(check bool) "lrc tsp optimal" true (Tsp_lrc.verify h)

let suite =
  [
    Alcotest.test_case "partition block range" `Quick test_block_range;
    Alcotest.test_case "partition owner" `Quick test_owner_of;
    Alcotest.test_case "sor 1 host" `Quick test_sor_correct_1host;
    Alcotest.test_case "sor 4 hosts" `Quick test_sor_correct_4hosts;
    Alcotest.test_case "sor speedup" `Slow test_sor_speedup;
    Alcotest.test_case "is correct" `Quick test_is_correct;
    Alcotest.test_case "is barrier count" `Quick test_is_barrier_count;
    Alcotest.test_case "water correct" `Quick test_water_correct;
    Alcotest.test_case "water 6 views" `Quick test_water_views_six;
    Alcotest.test_case "water chunking faults" `Slow test_water_chunking_reduces_read_faults;
    Alcotest.test_case "water chunking competing" `Slow test_water_chunking_increases_competing;
    Alcotest.test_case "lu correct" `Quick test_lu_correct;
    Alcotest.test_case "lu single view" `Quick test_lu_single_view;
    Alcotest.test_case "lu prefetch helps" `Slow test_lu_prefetch_helps;
    Alcotest.test_case "tsp correct" `Quick test_tsp_correct;
    Alcotest.test_case "tsp views" `Quick test_tsp_views_27;
    Alcotest.test_case "tsp pushes" `Quick test_tsp_pushes_happen;
    Alcotest.test_case "sor on lrc" `Quick test_sor_on_lrc;
    Alcotest.test_case "sor on ivy" `Quick test_sor_on_ivy;
    Alcotest.test_case "tsp on lrc" `Quick test_tsp_on_lrc;
  ]
