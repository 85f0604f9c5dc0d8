(* Cross-cutting property tests: network ordering, GMS data integrity under
   random workloads, and the application x system compatibility matrix. *)

open Mp_sim

(* ---------------- fabric FIFO under random sizes ---------------- *)

let qcheck_fabric_fifo =
  QCheck.Test.make ~name:"fabric: per-channel FIFO for any message size mix" ~count:100
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 30) (int_range 0 8192)))
    (fun (seed, sizes) ->
      let e = Engine.create () in
      let fab = Mp_net.Fabric.create e ~hosts:2 ~polling:Mp_net.Polling.Fast ~seed:(seed + 1) () in
      let got = ref [] in
      Mp_net.Fabric.set_handler fab ~host:1 (fun m -> got := m.Mp_net.Fabric.body :: !got);
      Engine.spawn e (fun () ->
          List.iteri
            (fun i bytes ->
              Mp_net.Fabric.send fab ~src:0 ~dst:1 ~bytes i;
              if i mod 3 = 0 then Engine.delay 1.0)
            sizes);
      Engine.run e;
      List.rev !got = List.init (List.length sizes) Fun.id)

(* ---------------- engine: callbacks fire in time order ---------------- *)

let qcheck_engine_time_order =
  QCheck.Test.make ~name:"engine: scheduled callbacks fire in time order" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 40) (float_range 0. 1000.))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter (fun at -> Engine.schedule e ~at (fun () -> fired := at :: !fired)) times;
      Engine.run e;
      let fired = List.rev !fired in
      List.sort compare times = fired
      || (* equal keys keep submission order; compare as multiset + sortedness *)
      (List.sort compare fired = List.sort compare times
      && List.for_all2 ( <= )
           (List.filteri (fun i _ -> i < List.length fired - 1) fired)
           (List.tl fired)))

(* ---------------- GMS: random workload matches a shadow array ------- *)

let qcheck_gms_integrity =
  QCheck.Test.make ~name:"gms: random paging workload preserves data" ~count:40
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, resident_pages) ->
      let rng = Mp_util.Prng.create ~seed in
      let pages = 24 in
      let shadow = Array.make (pages * 8) 0 in
      let e = Engine.create () in
      let config =
        {
          Mp_gms.Gms.Config.default with
          subpage_bytes = 512;
          resident_pages;
          address_space = pages * 4096;
        }
      in
      let t = Mp_gms.Gms.create e ~config ~servers:2 () in
      let ok = ref true in
      Mp_gms.Gms.spawn_client t (fun () ->
          for _ = 1 to 200 do
            let slot = Mp_util.Prng.int rng (pages * 8) in
            let addr = slot * 512 in
            if Mp_util.Prng.bool rng then begin
              let v = Mp_util.Prng.int rng 1_000_000 in
              Mp_gms.Gms.write_int t addr v;
              shadow.(slot) <- v
            end
            else if Mp_gms.Gms.read_int t addr <> shadow.(slot) then ok := false
          done);
      Mp_gms.Gms.run t;
      !ok)

(* ---------------- app x system matrix ---------------- *)

module type DSM = Mp_dsm.Dsm_intf.S

let check_app name ok = Alcotest.(check bool) name true ok

let test_is_on_all_systems () =
  let p = { Mp_apps.Is.default_params with keys = 2048; iterations = 2; max_key = 64 } in
  let hosts = 4 in
  (let e = Engine.create () in
   let t = Mp_baselines.Lrc.create e ~hosts ~polling:Mp_net.Polling.Fast () in
   let module A = Mp_apps.Is.Make (Mp_baselines.Lrc) in
   let h = A.setup t p in
   Mp_baselines.Lrc.run t;
   check_app "is on lrc" (A.verify h));
  (let e = Engine.create () in
   let t = Mp_baselines.Mrc.create e ~hosts ~polling:Mp_net.Polling.Fast () in
   let module A = Mp_apps.Is.Make (Mp_baselines.Mrc) in
   let h = A.setup t p in
   Mp_baselines.Mrc.run t;
   check_app "is on mrc" (A.verify h));
  let e = Engine.create () in
  let t = Mp_baselines.Ivy.create e ~hosts ~polling:Mp_net.Polling.Fast () in
  let module A = Mp_apps.Is.Make (Mp_baselines.Ivy) in
  let h = A.setup t p in
  Mp_baselines.Ivy.run t;
  check_app "is on ivy" (A.verify h)

let test_tsp_on_mrc_and_ivy () =
  let p = { Mp_apps.Tsp.default_params with cities = 8; level = 3 } in
  (let e = Engine.create () in
   let t = Mp_baselines.Mrc.create e ~hosts:3 ~polling:Mp_net.Polling.Fast () in
   let module A = Mp_apps.Tsp.Make (Mp_baselines.Mrc) in
   let h = A.setup t p in
   Mp_baselines.Mrc.run t;
   check_app "tsp on mrc" (A.verify h));
  let e = Engine.create () in
  let t = Mp_baselines.Ivy.create e ~hosts:3 ~polling:Mp_net.Polling.Fast () in
  let module A = Mp_apps.Tsp.Make (Mp_baselines.Ivy) in
  let h = A.setup t p in
  Mp_baselines.Ivy.run t;
  check_app "tsp on ivy" (A.verify h)

let test_lu_on_lrc () =
  let e = Engine.create () in
  let t = Mp_baselines.Lrc.create e ~hosts:4 ~polling:Mp_net.Polling.Fast () in
  let module A = Mp_apps.Lu.Make (Mp_baselines.Lrc) in
  let h = A.setup t { Mp_apps.Lu.default_params with n = 64; block = 32 } in
  Mp_baselines.Lrc.run t;
  check_app "lu on lrc" (A.verify h)

let test_water_composed_on_millipage () =
  let e = Engine.create () in
  let config = { Mp_millipage.Dsm.Config.default with polling = Mp_net.Polling.Fast } in
  let t = Mp_millipage.Dsm.create e ~hosts:4 ~config () in
  let module A = Mp_apps.Water.Make (Mp_dsm.Millipage_impl) in
  let p =
    {
      Mp_apps.Water.default_params with
      molecules = 30;
      iterations = 2;
      composed_read_phase = true;
    }
  in
  let h = A.setup t p in
  Mp_millipage.Dsm.run t;
  check_app "water with composed read phase" (A.verify h)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_fabric_fifo;
    QCheck_alcotest.to_alcotest qcheck_engine_time_order;
    QCheck_alcotest.to_alcotest qcheck_gms_integrity;
    Alcotest.test_case "is on lrc/mrc/ivy" `Quick test_is_on_all_systems;
    Alcotest.test_case "tsp on mrc/ivy" `Quick test_tsp_on_mrc_and_ivy;
    Alcotest.test_case "lu on lrc" `Quick test_lu_on_lrc;
    Alcotest.test_case "water composed on millipage" `Quick test_water_composed_on_millipage;
  ]
