(** Sharded-home sweep: SOR, LU and WATER under each home-assignment policy
    at 2-16 hosts.  Reports the quantities the sharding redesign is judged
    on:

    - end time against the central-manager baseline (the win comes from
      directory work and queueing spreading over the hosts);
    - the per-home high-water queue depth: under central every competing
      request queues at host 0, under rr/block the maximum over all homes
      must not exceed it;
    - competing requests (they should not grow: sharding moves queues, it
      does not create conflicts);
    - invariant-checker verdict over the typed trace (skipped when the event
      ring overflows). *)

open Mp_sim
open Mp_millipage
module App = Mp_apps.App
module A = App.Make (Mp_dsm.Millipage_impl)
module Tab = Mp_util.Tab

let sor_params = { Mp_apps.Sor.default_params with rows = 128; iterations = 3 }
let lu_params = { Mp_apps.Lu.default_params with n = 256; block = 32 }

let water_params =
  { Mp_apps.Water.default_params with molecules = 128; iterations = 2 }

let apps =
  [
    ("sor", App.Sor sor_params);
    ("lu", App.Lu lu_params);
    ("water", App.Water water_params);
  ]

let policies =
  [
    ("central", Dsm.Config.Homes.central);
    ("rr", Dsm.Config.Homes.round_robin);
    ("block", Dsm.Config.Homes.block 8);
  ]

let host_counts = [ 2; 4; 8; 16 ]

type outcome = {
  time : float;
  messages : int;
  competing : int;
  max_home_depth : int;
  verified : bool;
  violations : string list;
}

let run_one ~app ~hosts ~homes =
  let e = Engine.create () in
  let config = { Dsm.Config.default with homes } in
  let dsm = Dsm.create e ~hosts ~config () in
  let obs = Dsm.obs dsm in
  Mp_obs.Recorder.set_capacity obs (1 lsl 21);
  Mp_obs.Recorder.set_enabled obs true;
  let verify = A.setup dsm (List.assoc app apps) in
  Dsm.run dsm;
  let by_home = Dsm.max_queue_depth_by_home dsm in
  {
    time = Engine.now e;
    messages = Dsm.messages_sent dsm;
    competing = Dsm.competing_requests dsm;
    max_home_depth = Array.fold_left max 0 by_home;
    verified = verify ();
    violations =
      (if Mp_obs.Recorder.dropped obs > 0 then [ "(event ring overflow)" ]
       else Mp_obs.Invariants.check (Mp_obs.Recorder.events obs));
  }

let run () =
  Harness.section
    (Printf.sprintf
       "Sharded homes: SOR %dx%d, LU %d/%d, WATER %d mol — policies %s, 2-16 \
        hosts"
       sor_params.rows sor_params.cols lu_params.n lu_params.block
       water_params.molecules
       (String.concat "/" (List.map fst policies)));
  let all_clean = ref true in
  let rows =
    List.concat_map
      (fun (app, _) ->
        List.concat_map
          (fun hosts ->
            let base = run_one ~app ~hosts ~homes:Dsm.Config.Homes.central in
            List.map
              (fun (pname, homes) ->
                let o = if pname = "central" then base else run_one ~app ~hosts ~homes in
                List.iter
                  (fun v ->
                    all_clean := false;
                    Harness.note "  VIOLATION (%s %s %dh): %s" app pname hosts v)
                  o.violations;
                if not o.verified then begin
                  all_clean := false;
                  Harness.note "  MISMATCH (%s %s %dh)" app pname hosts
                end;
                if o.max_home_depth > base.max_home_depth then begin
                  all_clean := false;
                  Harness.note
                    "  QUEUE REGRESSION (%s %s %dh): per-home depth %d > central %d"
                    app pname hosts o.max_home_depth base.max_home_depth
                end;
                [
                  app;
                  string_of_int hosts;
                  pname;
                  Tab.fu o.time;
                  Printf.sprintf "%+.1f%%" (100.0 *. (o.time -. base.time) /. base.time);
                  string_of_int o.messages;
                  string_of_int o.competing;
                  string_of_int o.max_home_depth;
                  (if o.violations = [] then "clean" else "DIRTY");
                ])
              policies)
          host_counts)
      apps
  in
  Tab.print
    ~header:
      [ "app"; "hosts"; "policy"; "time us"; "vs central"; "msgs"; "competing";
        "max home depth"; "trace" ]
    rows;
  Harness.note
    "'max home depth' is the worst per-home request queue high-water mark; \
     under central everything queues at host 0, and a sharded policy must \
     never exceed the central figure.";
  if not !all_clean then failwith "exp_shard: a run regressed"
