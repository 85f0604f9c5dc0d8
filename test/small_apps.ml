(* The five applications at sizes that run in milliseconds, for the
   properties that compare configurations on them.  Prefetch is off:
   whether an asynchronous prefetch lands before the demand access is
   latency-dependent, so fault counts would only be comparable between
   configurations without it.  WATER's composed-view fetch is off for the
   same reason. *)

open Mp_apps
module A = App.Make (Mp_dsm.Millipage_impl)

let all =
  [
    App.Sor { Sor.default_params with rows = 32; iterations = 2 };
    App.Lu { Lu.default_params with n = 64; block = 16; use_prefetch = false };
    App.Water
      {
        Water.default_params with
        molecules = 24;
        iterations = 2;
        composed_read_phase = false;
      };
    App.Is
      { Is.default_params with keys = 512; max_key = 64; iterations = 2; key_us = 0.05 };
    App.Tsp { Tsp.default_params with cities = 9; level = 3; batch = 4 };
  ]

(* Run [app] on a fresh Millipage cluster: the DSM after the run, and
   whether the result verified. *)
let run ~hosts config app =
  let dsm = Mp_millipage.Dsm.create (Mp_sim.Engine.create ()) ~hosts ~config () in
  let verify = A.setup dsm app in
  Mp_millipage.Dsm.run dsm;
  (dsm, verify ())
