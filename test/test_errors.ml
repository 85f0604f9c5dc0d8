(* API-contract and error-path coverage across the libraries. *)

open Mp_sim
open Mp_millipage

let fast_config = { Dsm.Config.default with polling = Mp_net.Polling.Fast }

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_malloc_after_start_rejected () =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:1 ~config:fast_config () in
  Dsm.spawn dsm ~host:0 (fun ctx -> Dsm.compute ctx 1.0);
  Dsm.run dsm;
  Alcotest.(check bool) "malloc after run" true
    (raises_invalid (fun () -> ignore (Dsm.malloc dsm 64)))

let test_bad_host_rejected () =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:2 ~config:fast_config () in
  Alcotest.(check bool) "spawn bad host" true
    (raises_invalid (fun () -> Dsm.spawn dsm ~host:7 (fun _ -> ())))

let test_negative_compute_rejected () =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:1 ~config:fast_config () in
  let failed = ref false in
  Dsm.spawn dsm ~host:0 (fun ctx ->
      failed := raises_invalid (fun () -> Dsm.compute ctx (-5.0)));
  Dsm.run dsm;
  Alcotest.(check bool) "negative compute" true !failed

let test_push_without_write_copy_rejected () =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:2 ~config:fast_config () in
  let x = Dsm.malloc dsm 64 in
  let failed = ref false in
  Dsm.spawn dsm ~host:1 (fun ctx ->
      ignore (Dsm.read_f64 ctx x);
      (* read copy only: push must be rejected *)
      failed := raises_invalid (fun () -> Dsm.push_to_all ctx x));
  Dsm.run dsm;
  Alcotest.(check bool) "push without RW" true !failed

let test_fetch_unknown_group_rejected () =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:1 ~config:fast_config () in
  let failed = ref false in
  Dsm.spawn dsm ~host:0 (fun ctx ->
      failed := raises_invalid (fun () -> Dsm.fetch_group ctx 999));
  Dsm.run dsm;
  Alcotest.(check bool) "unknown group" true !failed

let test_allocator_bad_args () =
  let open Mp_multiview in
  Alcotest.(check bool) "chunking 0" true
    (raises_invalid (fun () ->
         ignore
           (Allocator.create ~chunking:(Allocator.Fine 0) ~page_size:4096
              ~object_size:8192 ~views:4 ())));
  Alcotest.(check bool) "views 0" true
    (raises_invalid (fun () ->
         ignore (Allocator.create ~page_size:4096 ~object_size:8192 ~views:0 ())));
  let a = Allocator.create ~page_size:4096 ~object_size:8192 ~views:4 () in
  Alcotest.(check bool) "size 0" true (raises_invalid (fun () -> ignore (Allocator.malloc a 0)))

let test_layout_bad_args () =
  let open Mp_multiview in
  Alcotest.(check bool) "non-dividing minipages" true
    (raises_invalid (fun () ->
         ignore (Layout.static ~page_size:4096 ~object_size:8192 ~minipages_per_page:3)))

let test_memsim_bad_args () =
  let open Mp_memsim in
  Alcotest.(check bool) "page size power of two" true
    (raises_invalid (fun () -> ignore (Memobject.create ~page_size:3000 ~size:8192 ())));
  Alcotest.(check bool) "cache bad assoc" true
    (raises_invalid (fun () ->
         ignore (Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:0)));
  Alcotest.(check bool) "overhead model: views must divide page" true
    (raises_invalid (fun () ->
         ignore (Overhead_model.run ~array_bytes:(1 lsl 20) ~views:3 ())))

let test_gms_bad_config () =
  let e = Engine.create () in
  Alcotest.(check bool) "subpage must divide page" true
    (raises_invalid (fun () ->
         ignore
           (Mp_gms.Gms.create e
              ~config:{ Mp_gms.Gms.Config.default with subpage_bytes = 3000 }
              ~servers:1 ())))

let test_fabric_bad_host () =
  let e = Engine.create () in
  let fab : unit Mp_net.Fabric.t = Mp_net.Fabric.create e ~hosts:2 () in
  Alcotest.(check bool) "send to bad host" true
    (raises_invalid (fun () -> Mp_net.Fabric.send fab ~src:0 ~dst:5 ~bytes:10 ()))

let test_single_host_runs_without_network_faults () =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:1 ~config:fast_config () in
  let x = Dsm.malloc dsm 64 in
  Dsm.init_write_f64 dsm x 3.0;
  let v = ref 0.0 in
  Dsm.spawn dsm ~host:0 (fun ctx ->
      Dsm.write_f64 ctx x (Dsm.read_f64 ctx x +. 1.0);
      Dsm.barrier ctx;
      Dsm.lock ctx 0;
      Dsm.unlock ctx 0;
      v := Dsm.read_f64 ctx x);
  Dsm.run dsm;
  Alcotest.(check (float 0.0)) "value" 4.0 !v;
  Alcotest.(check int) "owner never faults" 0 (Dsm.read_faults dsm + Dsm.write_faults dsm)

let test_engine_schedule_in_past_clamped () =
  let e = Engine.create () in
  let at = ref (-1.0) in
  Engine.spawn e (fun () ->
      Engine.delay 50.0;
      Engine.schedule e ~at:10.0 (fun () -> at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clamped to now" 50.0 !at

let test_summary_merge_with_empty () =
  let open Mp_util.Stats in
  let a = Summary.create () in
  Summary.add a 5.0;
  let m = Summary.merge a (Summary.create ()) in
  Alcotest.(check int) "count" 1 (Summary.count m);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Summary.mean m)

(* mprun's term answers each bad argument set with a Cmdliner usage
   message, never an exception; [parse] lets an exception through. *)
let test_mprun_usage_errors () =
  (match Mp_run.parse [ "--app"; "sor"; "--hosts"; "4" ] with
  | Ok o -> Alcotest.(check int) "--app sor --hosts 4 parses" 4 o.hosts
  | Error msg -> Alcotest.failf "--app sor --hosts 4: %s" msg);
  List.iter
    (fun args ->
      match Mp_run.parse ("--app" :: "sor" :: String.split_on_char ' ' args) with
      | Ok _ -> Alcotest.failf "%s parsed" args
      | Error msg ->
        Alcotest.(check bool) (args ^ " is a usage error") true
          (String.starts_with ~prefix:"mprun: " msg))
    [
      "--adapt-interval 0";
      "--crash 3x";
      "--crash rand:2";
      "--stall 2@1";
      "--system ivy --consistency rc";
      "--system lrc --homes rr";
      "--system mrc --loss 0.1";
      "--system ivy --ft";
      "--hosts 4 --crash 0@100";
      "--hosts 4 --crash 9@100";
      "--hosts 4 --stall 0@10+5";
      "--hosts 0";
      "--homes block --home-block 0";
      "--loss 1.5";
    ]

let suite =
  [
    Alcotest.test_case "malloc after start" `Quick test_malloc_after_start_rejected;
    Alcotest.test_case "bad host" `Quick test_bad_host_rejected;
    Alcotest.test_case "negative compute" `Quick test_negative_compute_rejected;
    Alcotest.test_case "push without RW" `Quick test_push_without_write_copy_rejected;
    Alcotest.test_case "unknown group" `Quick test_fetch_unknown_group_rejected;
    Alcotest.test_case "allocator bad args" `Quick test_allocator_bad_args;
    Alcotest.test_case "layout bad args" `Quick test_layout_bad_args;
    Alcotest.test_case "memsim bad args" `Quick test_memsim_bad_args;
    Alcotest.test_case "gms bad config" `Quick test_gms_bad_config;
    Alcotest.test_case "fabric bad host" `Quick test_fabric_bad_host;
    Alcotest.test_case "single host clean" `Quick test_single_host_runs_without_network_faults;
    Alcotest.test_case "schedule clamped" `Quick test_engine_schedule_in_past_clamped;
    Alcotest.test_case "summary merge empty" `Quick test_summary_merge_with_empty;
    Alcotest.test_case "mprun usage errors" `Quick test_mprun_usage_errors;
  ]
