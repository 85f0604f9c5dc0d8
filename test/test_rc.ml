(* The twin/diff release-consistency core behind Lrc (pages) and Mrc
   (minipages): one protocol, so where the two grains coincide the two
   systems must give the same run, and both must keep writes made while a
   release is in flight. *)

open Mp_sim
open Mp_baselines

module type SYS = sig
  include Mp_dsm.Dsm_intf.S

  val make : Engine.t -> hosts:int -> t
  val diffs_created : t -> int
  val twins_created : t -> int
end

module Lrc_sys = struct
  include Lrc

  let make e ~hosts = create e ~hosts ~polling:Mp_net.Polling.Fast ()
end

module Mrc_sys = struct
  include Mrc

  let make e ~hosts = create e ~hosts ~polling:Mp_net.Polling.Fast ()
end

module Runs (D : SYS) = struct
  module A = Mp_apps.App.Make (D)

  (* Run an app to completion: whether it verified, and the run's
     fingerprint. *)
  let run ~hosts app =
    let e = Engine.create () in
    let t = D.make e ~hosts in
    let verify = A.setup t app in
    D.run t;
    ( verify (),
      Printf.sprintf "%.3f us, %d msgs, %d bytes, %d/%d faults, %d diffs, %d twins"
        (Engine.now e) (D.messages_sent t) (D.bytes_sent t) (D.read_faults t)
        (D.write_faults t) (D.diffs_created t) (D.twins_created t) )

  let apps () =
    List.map
      (fun (name, hosts, app) -> (name, run ~hosts app))
      Mp_apps.
        [
          ("sor", 4, App.Sor { Sor.default_params with rows = 64; iterations = 3 });
          ( "is",
            4,
            App.Is { Is.default_params with keys = 2048; iterations = 2; max_key = 64 } );
          ("water", 4, App.Water { Water.default_params with molecules = 36; iterations = 2 });
          ("lu", 4, App.Lu { Lu.default_params with n = 64; block = 32 });
          (* 3 hosts: from 4 on, Lrc answers 221 for 207, because an acquire
             keeps a dirty page that also holds the bound, so a host can read
             a stale bound *)
          ("tsp", 3, App.Tsp { Tsp.default_params with cities = 8; level = 3 });
        ]
end

module Lrc_runs = Runs (Lrc_sys)
module Mrc_runs = Runs (Mrc_sys)

(* A 32x32 block of f32 is exactly one 4 KB page, and LU allocates its
   blocks in page order, so pages and minipages coincide: the two grains must
   give the same run to the last message and fault. *)
let test_lu_same_run () =
  List.iter
    (fun hosts ->
      let p = { Mp_apps.Lu.default_params with n = 128; block = 32 } in
      let ok_l, lrc = Lrc_runs.run ~hosts (Mp_apps.App.Lu p)
      and ok_m, mrc = Mrc_runs.run ~hosts (Mp_apps.App.Lu p) in
      Alcotest.(check bool) "lrc verifies" true ok_l;
      Alcotest.(check bool) "mrc verifies" true ok_m;
      Alcotest.(check string) (Printf.sprintf "%d hosts" hosts) lrc mrc)
    [ 2; 4 ]

(* Exact small-size runs of the five apps on both grains, in
   [Runs.apps] order. *)
let test_fingerprints name runs expected () =
  List.iter2
    (fun (app, (ok, got)) want ->
      Alcotest.(check bool) (Printf.sprintf "%s %s verifies" name app) true ok;
      Alcotest.(check string) (Printf.sprintf "%s %s" name app) want got)
    (runs ()) expected

let lrc_fingerprints =
  [
    "64425.846 us, 122 msgs, 90208 bytes, 21/24 faults, 24 diffs, 24 twins";
    "6328.453 us, 216 msgs, 108800 bytes, 32/32 faults, 32 diffs, 32 twins";
    "38305.229 us, 1344 msgs, 382487 bytes, 97/208 faults, 208 diffs, 208 twins";
    "5880.595 us, 79 msgs, 55836 bytes, 7/5 faults, 5 diffs, 5 twins";
    "10162.484 us, 106 msgs, 40759 bytes, 13/22 faults, 22 diffs, 22 twins";
  ]

let mrc_fingerprints =
  [
    "71961.415 us, 560 msgs, 62427 bytes, 112/186 faults, 186 diffs, 186 twins";
    "3250.164 us, 220 msgs, 12544 bytes, 31/32 faults, 32 diffs, 32 twins";
    "37133.889 us, 1922 msgs, 305739 bytes, 431/264 faults, 264 diffs, 264 twins";
    "5880.595 us, 79 msgs, 55836 bytes, 7/5 faults, 5 diffs, 5 twins";
    "8344.182 us, 207 msgs, 12115 bytes, 42/53 faults, 53 diffs, 53 twins";
  ]

(* Thread A on host 1 writes x under lock 0 and releases it; thread B, on the
   same host, writes x+8 10 µs into A's release, while A's flush is paying
   for the set-protection call.  B's write must fault and be twinned, so its
   own release ships it: host 0 reads it under the lock afterwards. *)
module Release_window (D : SYS) = struct
  let run () =
    let e = Engine.create () in
    let t = D.make e ~hosts:2 in
    let x = D.malloc t 64 in
    let released = ref infinity and seen = ref nan in
    D.spawn t ~host:1 ~name:"a" (fun ctx ->
        D.lock ctx 0;
        D.write_f64 ctx x 1.0;
        released := Engine.now e;
        D.unlock ctx 0);
    D.spawn t ~host:1 ~name:"b" (fun ctx ->
        while Engine.now e < !released +. 10.0 do
          D.compute ctx 1.0
        done;
        D.write_f64 ctx (x + 8) 2.0;
        D.lock ctx 0;
        D.unlock ctx 0);
    D.spawn t ~host:0 (fun ctx ->
        D.compute ctx 20_000.0;
        D.lock ctx 0;
        seen := D.read_f64 ctx (x + 8);
        D.unlock ctx 0);
    D.run t;
    Alcotest.(check (float 0.0)) (D.name ^ ": write in the release window") 2.0 !seen
end

module Lrc_window = Release_window (Lrc_sys)
module Mrc_window = Release_window (Mrc_sys)

(* A thread parked at a barrier its peer never reaches is a typed deadlock. *)
module Stuck (D : SYS) = struct
  let run () =
    let e = Engine.create () in
    let t = D.make e ~hosts:2 in
    D.spawn t ~host:0 (fun ctx -> D.barrier ctx);
    D.spawn t ~host:1 (fun _ -> ());
    match D.run t with
    | () -> Alcotest.fail "expected Deadlock"
    | exception Mp_millipage.Dsm.Deadlock msg ->
      Alcotest.(check string) "report" (D.name ^ ": 1/2 application threads did not finish") msg
end

module Lrc_stuck = Stuck (Lrc_sys)
module Mrc_stuck = Stuck (Mrc_sys)

let suite =
  [
    Alcotest.test_case "lrc and mrc agree on lu" `Quick test_lu_same_run;
    Alcotest.test_case "lrc fingerprints" `Quick
      (test_fingerprints "lrc" Lrc_runs.apps lrc_fingerprints);
    Alcotest.test_case "mrc fingerprints" `Quick
      (test_fingerprints "mrc" Mrc_runs.apps mrc_fingerprints);
    Alcotest.test_case "lrc release-window write" `Quick Lrc_window.run;
    Alcotest.test_case "mrc release-window write" `Quick Mrc_window.run;
    Alcotest.test_case "lrc deadlock is typed" `Quick Lrc_stuck.run;
    Alcotest.test_case "mrc deadlock is typed" `Quick Mrc_stuck.run;
  ]
