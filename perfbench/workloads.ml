(** The benchmark's workloads and one measured iteration of each.

    - [water-protocol]: unchunked WATER, protocol-bound.  Hundreds of
      thousands of messages and tens of thousands of blocking accesses, so
      host time goes to engine events, fabric sends and the fault path.
      Unchunked WATER never queues at the directory: its competing
      requests and queue depth are 0.
    - [mc-racer]: an mpcheck random walk over the adaptive racer, set-up
      bound.  Each schedule builds a fresh 4-host DSM, runs a short
      multi-writer race with the recorder on, and checks it.

    The seed given on the command line is the DSM config seed of WATER
    (it drives NT-polling delays) and the walk seed of mc-racer; the
    programs receive only the configuration built from it. *)

open Mp_sim
open Mp_apps
module Dsm = Mp_millipage.Dsm
module M = Mp_dsm.Millipage_impl
module T = Timed.Make (M)
module Scenario = Mp_mc.Scenario

(* --------------------------- water-protocol --------------------------- *)

let hosts = 8

(** As [mprun --app water] (views and chunking at their defaults): central
    homes, SC, NT polling. *)
let config ~seed = Dsm.Config.with_seed Dsm.Config.default seed

(** The simulated results of one run, which must repeat exactly for a
    seed. *)
type sim = {
  sim_us : float;
  msgs : int;
  read_faults : int;
  write_faults : int;
  competing : int;
  max_queue_depth : int;
}

type run = {
  setup_s : float;  (** [Engine.create] through app setup *)
  wall_s : float;  (** [Dsm.run] *)
  words : float;  (** allocated during [Dsm.run] *)
  minor_gcs : int;
  major_gcs : int;
  sim : sim;
  failure : string option;  (** [None]: ran to completion and verified *)
  timed : Timed.stats option;  (** the wrapper's counts, on a traced run *)
}

let guard f =
  match f () with
  | () -> None
  | exception Dsm.Deadlock m -> Some ("deadlock: " ^ m)
  | exception Dsm.Crash_unrecoverable m -> Some ("unrecoverable: " ^ m)
  | exception Mp_memsim.Vm.Fault_storm _ -> Some "fault storm"

module Runner
    (D : Mp_dsm.Dsm_intf.S)
    (W : sig
      val wrap : Dsm.t -> D.t
      val stats : D.t -> Timed.stats option
    end) =
struct
  module Water_d = Water.Make (D)

  let once ~seed =
    Gc.full_major ();
    let root = Trace.start "workload" ~sim_us:0.0 in
    let t0 = Clock.now_ns () in
    let e = Engine.create () in
    let dsm = Dsm.create e ~hosts ~config:(config ~seed) () in
    let t_created = Clock.now_ns () in
    let d = W.wrap dsm in
    let h = Water_d.setup d Water.default_params in
    let t1 = Clock.now_ns () in
    ignore
      (Trace.record "dsm.create" ~parent:root ~t0_ns:t0 ~t1_ns:t_created ~s0_us:0.0 ~s1_us:0.0);
    ignore (Trace.record "app.setup" ~parent:root ~t0_ns:t_created ~t1_ns:t1 ~s0_us:0.0 ~s1_us:0.0);
    let run_span = Trace.start "dsm.run" ~parent:root ~sim_us:0.0 in
    let stats = W.stats d in
    Option.iter (fun (st : Timed.stats) -> st.run_span <- run_span) stats;
    let g0 = Gc.quick_stat () in
    let w0 = Clock.words () in
    let t2 = Clock.now_ns () in
    let failure = guard (fun () -> D.run d) in
    let t3 = Clock.now_ns () in
    let w1 = Clock.words () in
    let g1 = Gc.quick_stat () in
    Trace.finish run_span ~sim_us:(Engine.now e);
    Trace.finish root ~sim_us:(Engine.now e);
    let failure =
      match failure with
      | None when not (Water_d.verify h) -> Some "verify: result differs from the sequential reference"
      | f -> f
    in
    {
      setup_s = float_of_int (t1 - t0) *. 1e-9;
      wall_s = float_of_int (t3 - t2) *. 1e-9;
      words = w1 -. w0;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      sim =
        {
          sim_us = Engine.now e;
          msgs = Dsm.messages_sent dsm;
          read_faults = Dsm.read_faults dsm;
          write_faults = Dsm.write_faults dsm;
          competing = Dsm.competing_requests dsm;
          max_queue_depth = Dsm.max_queue_depth dsm;
        };
      failure;
      timed = stats;
    }
end

module Plain =
  Runner
    (M)
    (struct
      let wrap d = d
      let stats _ = None
    end)

module Traced =
  Runner
    (T)
    (struct
      let wrap = T.wrap
      let stats d = Some (T.stats d)
    end)

(* ------------------------------ mc-racer ------------------------------ *)

let racer =
  Scenario.of_string "app=racer hosts=4 homes=rr consistency=adaptive barrier=3 lockread=1 refine=1"

(** [mc_states] counts distinct end states over the first [mc_budget]
    schedules of the walk, so a faster walk that covers less shows. *)
let mc_budget = 200

let walk_prob = 0.05

(** The scenario's DSM configuration, as [Scenario.run] builds it. *)
let racer_config () =
  let c =
    {
      Dsm.Config.default with
      seed = racer.seed;
      homes = racer.homes;
      consistency = racer.consistency;
    }
  in
  Dsm.Config.with_net_seed (Dsm.Config.with_faults c racer.faults) racer.net_seed

(** What the benchmark keeps of a schedule's outcome.  Keeping whole
    outcomes (choice-point logs, plans) would grow the live heap over a run
    and slow the later schedules. *)
type summary = { end_us : float; state_sig : int; choice_points : int; obs_events : int }

type schedule = {
  s_wall_s : float;
  s_words : float;
  s_minor_gcs : int;
  s_major_gcs : int;
  outcome : summary option;  (** [None] when the run raised *)
  s_failure : string option;  (** a raised exception or any violation *)
}

(** Run [i] of the walk seeded [seed], as [Explore.random_walk] numbers
    them: run 0 is the default schedule, run [i] the random schedule
    seeded [seed * 1_000_000 + i]. *)
let schedule ~seed i =
  let span = Trace.start "mc.schedule" ~sim_us:0.0 in
  let g0 = Gc.quick_stat () in
  let w0 = Clock.words () in
  let t0 = Clock.now_ns () in
  let outcome = ref None in
  let failure =
    guard (fun () ->
        outcome :=
          Some
            (if i = 0 then Scenario.run_plan racer Mp_mc.Plan.empty
             else Scenario.run_random racer ~seed:((seed * 1_000_000) + i) ~prob:walk_prob))
  in
  let t1 = Clock.now_ns () in
  let w1 = Clock.words () in
  let g1 = Gc.quick_stat () in
  let failure =
    match (failure, !outcome) with
    | None, Some { violations = v :: _; _ } -> Some v
    | f, _ -> f
  in
  Trace.finish span ~sim_us:(match !outcome with Some o -> o.end_us | None -> 0.0);
  {
    s_wall_s = float_of_int (t1 - t0) *. 1e-9;
    s_words = w1 -. w0;
    s_minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    s_major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    outcome =
      Option.map
        (fun (o : Scenario.outcome) ->
          { end_us = o.end_us; state_sig = o.state_sig; choice_points = o.choice_points;
            obs_events = o.obs_events })
        !outcome;
    s_failure = failure;
  }

(** One [Dsm.create] at the scenario's configuration: mc-racer's set-up. *)
let racer_create () =
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let config = racer_config () in
  ignore (Sys.opaque_identity (Dsm.create (Engine.create ()) ~hosts:racer.hosts ~config ()));
  Clock.seconds_since t0

(* ------------------------- measurement loops -------------------------- *)

(** Repeat [f] until [seconds] of host time have passed, at least [min]
    times. *)
let repeat ?(min = 1) ~seconds f =
  let t0 = Clock.now_ns () in
  let rec go n acc =
    let acc = f n :: acc in
    if n + 1 >= min && Clock.seconds_since t0 >= seconds then List.rev acc else go (n + 1) acc
  in
  go 0 []

(** WATER's simulated results at seed 1 when this benchmark was defined.  A
    run at seed 1 prints whether they still match, so a change that moves
    simulated results shows by name. *)
let recorded =
  { sim_us = 4025764.0934813395; msgs = 299477; read_faults = 30964; write_faults = 15154;
    competing = 0; max_queue_depth = 0 }

let recorded_mc_states = 168
