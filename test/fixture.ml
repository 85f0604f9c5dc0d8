(* The Millipage clusters the protocol tests build: fast polling, and
   failure-detector timeouts small enough for microsecond-scale
   scenarios. *)

open Mp_millipage

let fast_config = { Dsm.Config.default with polling = Mp_net.Polling.Fast }

(* Build a cluster, let [setup] allocate and spawn, and run it to the end. *)
let scenario ?(hosts = 2) ?(config = fast_config) setup =
  let e = Mp_sim.Engine.create () in
  let dsm = Dsm.create e ~hosts ~config () in
  setup dsm;
  Dsm.run dsm;
  dsm

(* 200 µs heartbeats, suspect after 700 µs of silence, declare after
   1600 µs.  Tests add their crashes and stalls. *)
let fast_ft =
  {
    Dsm.Config.Ft.default with
    hb_interval_us = 200.0;
    suspect_after_us = 700.0;
    declare_after_us = 1600.0;
  }

(* [scenario] with the recorder on, failing on any invariant violation in
   the trace. *)
let traced_scenario ?(hosts = 3) ~config setup =
  let e = Mp_sim.Engine.create () in
  let dsm = Dsm.create e ~hosts ~config () in
  let obs = Dsm.obs dsm in
  Mp_obs.Recorder.set_capacity obs (1 lsl 20);
  Mp_obs.Recorder.set_enabled obs true;
  setup dsm;
  Dsm.run dsm;
  Alcotest.(check (list string))
    "no invariant violations" []
    (Mp_obs.Invariants.check (Mp_obs.Recorder.events obs));
  dsm
