(* mprun's command line as a library: its flags, the run they describe, the
   run itself and the report mprun prints.  See mp_run.mli. *)

open Cmdliner
open Mp_sim
open Mp_apps
module Dsm = Mp_millipage.Dsm
module Config = Dsm.Config
module Recorder = Mp_obs.Recorder

(* ---------------- the systems ---------------------------------------- *)

module type SYSTEM = sig
  type t

  val name : string
  val create : Engine.t -> hosts:int -> Config.t -> t
  val setup : t -> App.t -> unit -> bool
  val run : t -> unit
  val engine : t -> Engine.t
  val read_faults : t -> int
  val write_faults : t -> int
  val messages_sent : t -> int
  val bytes_sent : t -> int
  val breakdown : t -> (string * float) list
  val obs : t -> Recorder.t
  val profile : t -> Mp_obs.Profile.t option
  val degraded : t -> bool
  val report : Buffer.t -> Config.t -> t -> unit
  val report_ft : Buffer.t -> t -> unit
end

let ids l = String.concat "," (List.map string_of_int l)

let report_ft b t =
  let s = Dsm.stats t in
  Printf.bprintf b "crash-ft:     %d heartbeat(s); crashed %s; declared dead %s\n"
    s.heartbeats_sent
    (match Dsm.crashed_hosts t with [] -> "none" | l -> ids l)
    (match Dsm.declared_dead t with [] -> "none" | l -> ids l);
  if Dsm.declared_dead t <> [] then
    Printf.bprintf b
      "recovery:     %d minipage(s) from shadows, %d lost, %d lease(s) revoked, \
       %d barrier reconfig(s)\n"
      s.recovered_minipages
      (List.length (Dsm.lost_minipages t))
      s.leases_revoked s.barrier_reconfigs;
  if Dsm.hosts t > 1 then begin
    Printf.bprintf b "replication:  %d log record(s) sent, %d applied; %d promotion(s)%s\n"
      (Dsm.log_records_sent t) s.log_records_applied s.backup_promotions
      (match Dsm.promoted_homes t with [] -> "" | l -> Printf.sprintf " (home %s)" (ids l));
    if s.backup_promotions > 0 then
      Printf.bprintf b "promotion:    %d tail repair(s), %d minipage(s) rolled back\n"
        s.tail_repairs s.rolled_back_minipages
  end

(* Each system is packed, and its app functors applied, once at start-up:
   doing either per run allocates (coercing a module to [SYSTEM] copies
   it). *)
module Millipage = struct
  include Mp_dsm.Millipage_impl

  let create engine ~hosts config = Dsm.create engine ~hosts ~config ()
  let setup = let module A = App.Make (Mp_dsm.Millipage_impl) in A.setup
  let degraded t = Dsm.declared_dead t <> []

  let report b (config : Config.t) t =
    let stats = Dsm.stats t in
    Printf.bprintf b "views used:   %d, competing requests: %d\n" (Dsm.views_used t)
      (Dsm.competing_requests t);
    (let module H = Config.Homes in
     if config.homes.policy <> H.Central then
       Printf.bprintf b "homes:        policy %s; %d redirect(s); queue depth by home [%s]\n"
         (H.policy_name config.homes.policy)
         stats.home_redirects
         (ids (Array.to_list (Dsm.max_queue_depth_by_home t))));
    (let module C = Config.Consistency in
     if config.consistency.mode <> `Sc then
       Printf.bprintf b
         "consistency:  %s (%s); %d switch(es), %d twin(s), %d diff(s) (%d bytes)\n"
         (C.mode_name config.consistency.mode)
         (Dsm.modes t
         |> List.map (fun (m, n) ->
                Printf.sprintf "%s %d" (Mp_millipage.Proto.mode_to_string m) n)
         |> String.concat ", ")
         (Dsm.mode_switches t) stats.rc_twins stats.rc_diffs stats.rc_diff_bytes);
    if Dsm.faulty t then
      Printf.bprintf b
        "net faults:   %d dropped, %d duplicated, %d reordered; %d retransmits, %d \
         dups suppressed\n"
        (Dsm.net_dropped t) (Dsm.net_duplicated t) (Dsm.net_reordered t)
        stats.retransmits stats.dups_suppressed;
    if config.ft <> None then report_ft b t

  let report_ft = report_ft
end

module Ivy = struct
  include Mp_baselines.Ivy

  let create engine ~hosts (config : Config.t) =
    create engine ~hosts ~polling:config.polling ()

  let setup = let module A = App.Make (Mp_baselines.Ivy) in A.setup
  let degraded _ = false
  let report _ _ _ = ()
  let report_ft _ _ = ()
end

module Lrc = struct
  include Mp_baselines.Lrc

  let create engine ~hosts (config : Config.t) =
    create engine ~hosts ~polling:config.polling ()

  let setup = let module A = App.Make (Mp_baselines.Lrc) in A.setup
  let degraded _ = false

  let report b _ t =
    Printf.bprintf b "diffs:        %d (%d bytes), twins: %d\n" (diffs_created t)
      (diff_bytes t) (twins_created t)

  let report_ft _ _ = ()
end

module Mrc = struct
  include Mp_baselines.Mrc

  let create engine ~hosts (config : Config.t) =
    create engine ~hosts ~chunking:config.chunking ~polling:config.polling ()

  let setup = let module A = App.Make (Mp_baselines.Mrc) in A.setup
  let degraded _ = false

  let report b _ t =
    Printf.bprintf b "diffs:        %d (%d bytes), twins: %d, views: %d\n"
      (diffs_created t) (diff_bytes t) (twins_created t) (views_used t)

  let report_ft _ _ = ()
end

let systems : (string * (module SYSTEM)) list =
  [
    ("millipage", (module Millipage));
    ("ivy", (module Ivy));
    ("lrc", (module Lrc));
    ("mrc", (module Mrc));
  ]

(* ---------------- parse ---------------------------------------------- *)

type crash = At of int * float | Rand of float

type options = {
  app : string;
  system : string;
  hosts : int;
  chunking : string * Mp_multiview.Allocator.chunking;
  polling : string * Mp_net.Polling.mode;
  paper : bool;
  trace_out : string option;
  perfetto : string option;
  metrics : bool;
  profile : bool;
  profile_out : string option;
  loss : float;
  dup : float;
  reorder : float;
  net_seed : int;
  ft : bool;
  crash : crash list;
  stall : (int * float * float) list;
  crash_seed : int;
  crash_horizon : float;
  homes : string * Config.Homes.policy;
  home_block : int;
  consistency : string * Config.Consistency.mode;
  adapt_interval : int;
}

let profiling o = o.profile || o.profile_out <> None
let tracing o = o.trace_out <> None || o.perfetto <> None
let active o = o.metrics || tracing o || profiling o

let faults o =
  { Mp_net.Fabric.no_faults with drop = o.loss; duplicate = o.dup; reorder = o.reorder }

(* The (host, time) crashes [--crash] asks for: [rand:p] draws each
   non-manager host with probability p at a seeded time before the
   horizon. *)
let crashes o =
  let rng = Mp_util.Prng.create ~seed:o.crash_seed in
  List.concat_map
    (function
      | At (h, t) -> [ (h, t) ]
      | Rand p ->
        List.filter_map
          (fun h ->
            if Mp_util.Prng.float rng 1.0 < p then
              Some (h, Mp_util.Prng.float rng o.crash_horizon)
            else None)
          (List.init (o.hosts - 1) (fun i -> i + 1)))
    o.crash

(* The flag checks that span flags; each value is checked by its
   converter. *)
let usage_error o =
  let millipage_only what why =
    if o.system = "millipage" then None
    else Some (Printf.sprintf "%s --system millipage; %s %s" what o.system why)
  in
  let crash_host h = h < 1 || h >= o.hosts in
  let first = List.find_map Fun.id in
  first
    [
      (if snd o.consistency <> `Sc then
         millipage_only "protocol modes (--consistency) require" "has a single fixed protocol"
       else None);
      (if snd o.homes <> Config.Homes.Central then
         millipage_only "home sharding (--homes) requires" "has a single manager"
       else None);
      (if Mp_net.Fabric.faults_active (faults o) then
         millipage_only "fault injection (--loss/--dup/--reorder) requires"
           "has no reliable transport"
       else None);
      (if List.exists (function At (h, _) -> crash_host h | Rand _ -> false) o.crash then
         Some
           (Printf.sprintf "--crash may name hosts 1..%d only (the manager cannot crash)"
              (o.hosts - 1))
       else None);
      (if List.exists (fun (h, _, _) -> crash_host h) o.stall then
         Some (Printf.sprintf "--stall may name hosts 1..%d only" (o.hosts - 1))
       else None);
      (if o.ft || crashes o <> [] || o.stall <> [] then
         millipage_only "crash-fault tolerance (--ft/--crash/--stall) requires"
           "has no failure detector"
       else None);
    ]

let invalid s expected =
  Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))

(* [base]'s values that [ok] accepts, printed as [base] prints them. *)
let checked base ok expected =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> invalid s expected
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let at_least n = checked Arg.int (fun v -> v >= n) (Printf.sprintf "an integer >= %d" n)
let probability = checked Arg.float (fun p -> p >= 0.0 && p <= 1.0) "a probability in [0, 1]"
let loss_probability = checked Arg.float (fun p -> p >= 0.0 && p < 1.0) "a probability in [0, 1)"
let non_negative = checked Arg.float (fun t -> t >= 0.0) "a time >= 0"

let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ h; t ] -> (
      match (int_of_string_opt h, float_of_string_opt t) with
      | Some h, Some t when t >= 0.0 -> Ok (At (h, t))
      | _ -> invalid s "HOST@TIME with TIME >= 0, or rand:P")
    | [ r ] when String.starts_with ~prefix:"rand:" r -> (
      match float_of_string_opt (String.sub r 5 (String.length r - 5)) with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Rand p)
      | _ -> invalid s "rand:P with 0 <= P <= 1")
    | _ -> invalid s "HOST@TIME or rand:P"
  in
  let print ppf = function
    | At (h, t) -> Format.fprintf ppf "%d@@%g" h t
    | Rand p -> Format.fprintf ppf "rand:%g" p
  in
  Arg.conv (parse, print)

let stall_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ h; rest ] -> (
      match String.split_on_char '+' rest with
      | [ t; d ] -> (
        match (int_of_string_opt h, float_of_string_opt t, float_of_string_opt d) with
        | Some h, Some t, Some d when t >= 0.0 && d > 0.0 -> Ok (h, t, d)
        | _ -> invalid s "HOST@TIME+DUR with TIME >= 0 and DUR > 0")
      | _ -> invalid s "HOST@TIME+DUR")
    | _ -> invalid s "HOST@TIME+DUR"
  in
  let print ppf (h, t, d) = Format.fprintf ppf "%d@@%g+%g" h t d in
  Arg.conv (parse, print)

(* An enumerated flag: a value outside [choices] is a usage error.  The
   flag's value keeps its spelling, which [meta] records. *)
let named choices = Arg.enum (List.map (fun ((name, _) as c) -> (name, c)) choices)

let app_arg =
  Arg.(
    required
    & opt (some (enum (List.map (fun a -> (a, a)) App.names))) None
    & info [ "a"; "app" ] ~docv:"APP" ~doc:"Application: sor, is, water, lu or tsp.")

let system_arg =
  Arg.(
    value
    & opt (enum (List.map (fun (name, _) -> (name, name)) systems)) "millipage"
    & info
        [ "s"; "system"; "dsm" ]
        ~docv:"SYS"
        ~doc:"DSM system: millipage, ivy, lrc, or mrc (relaxed consistency on minipages).")

let hosts_arg =
  Arg.(value & opt (at_least 1) 8 & info [ "n"; "hosts" ] ~docv:"N" ~doc:"Number of hosts (1-8+).")

let chunking_arg =
  let parse = function
    | "none" -> Ok ("none", Mp_multiview.Allocator.Page_grain)
    | s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok (s, Mp_multiview.Allocator.Fine n)
      | _ -> invalid s "'none' or an integer >= 1")
  in
  let print ppf (name, _) = Format.pp_print_string ppf name in
  Arg.(
    value
    & opt (conv (parse, print)) ("1", Mp_multiview.Allocator.Fine 1)
    & info [ "c"; "chunking" ] ~docv:"LEVEL"
        ~doc:"Chunking level (integer) or 'none' for page-grain (millipage only).")

let polling_arg =
  let pollings = [ ("nt", Mp_net.Polling.nt_mode); ("fast", Mp_net.Polling.Fast) ] in
  Arg.(
    value
    & opt (named pollings) (List.hd pollings)
    & info [ "p"; "polling" ] ~docv:"MODE" ~doc:"Polling model: nt or fast.")

let paper_arg =
  Arg.(
    value & flag
    & info [ "paper-size" ] ~doc:"Use the paper's full input sets (slow).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the typed protocol event trace as JSON-lines to $(docv).")

let perfetto_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "perfetto" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON trace to $(docv); open it at \
           https://ui.perfetto.dev or chrome://tracing.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the metrics registry after the run: per-phase fault-service \
           latency percentiles, protocol counters and gauges.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Stream the event trace through the sharing-pattern profiler and \
           print per-minipage classifications (read-mostly, migratory, \
           producer-consumer, write-shared, falsely-shared), false-sharing \
           attribution, the access heatmap and per-host/per-home protocol \
           cost.")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Write the profiler's deterministic JSON report (with run \
           metadata) to $(docv); implies --profile.")

let loss_arg =
  Arg.(
    value & opt loss_probability 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:"Probability each message copy is dropped on the wire (millipage only).")

let dup_arg =
  Arg.(
    value & opt probability 0.0
    & info [ "dup" ] ~docv:"P"
        ~doc:"Probability a message is delivered twice (millipage only).")

let reorder_arg =
  Arg.(
    value & opt probability 0.0
    & info [ "reorder" ] ~docv:"P"
        ~doc:
          "Probability a message escapes per-channel FIFO ordering and may \
           overtake earlier traffic (millipage only).")

let net_seed_arg =
  Arg.(
    value & opt int 9
    & info [ "net-seed" ] ~docv:"SEED"
        ~doc:"Seed of the fault-injection schedule (deterministic per seed).")

let ft_arg =
  Arg.(
    value & flag
    & info [ "ft" ]
        ~doc:
          "Enable crash-fault tolerance (heartbeats, failure detector, \
           recovery) even without injected faults; implied by --crash/--stall \
           (millipage only).  Every home shard streams its directory log to a \
           backup host ((home+1) mod hosts), which is promoted under the same \
           home id when the home is declared dead; a home and its backup both \
           dying is a typed fail-stop.")

let crash_arg =
  Arg.(
    value & opt_all crash_conv []
    & info [ "crash" ] ~docv:"SPEC"
        ~doc:
          "Fail-stop a host: HOST@TIME (µs) crashes that host at that time; \
           rand:P crashes each non-manager host with probability P at a \
           seeded random time before --crash-horizon.  Repeatable.")

let stall_arg =
  Arg.(
    value & opt_all stall_conv []
    & info [ "stall" ] ~docv:"SPEC"
        ~doc:
          "Freeze a host's network endpoint: HOST@TIME+DUR (µs).  A stall \
           shorter than the declaration timeout survives.  Repeatable.")

let crash_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "crash-seed" ] ~docv:"SEED"
        ~doc:"Seed of the rand:P crash schedule (deterministic per seed).")

let crash_horizon_arg =
  Arg.(
    value & opt non_negative 50000.0
    & info [ "crash-horizon" ] ~docv:"US"
        ~doc:"Latest time (µs) a rand:P crash may fire.")

let homes_arg =
  let policies =
    List.map
      (fun name -> (name, Option.get (Config.Homes.policy_of_string name)))
      [ "central"; "rr"; "round-robin"; "block"; "ft"; "first-toucher" ]
  in
  Arg.(
    value
    & opt (named policies) (List.hd policies)
    & info [ "homes" ] ~docv:"POLICY"
        ~doc:
          "Home-assignment policy for minipage directory shards: central \
           (single manager, the default), rr (round-robin by minipage id), \
           block (contiguous runs, see --home-block), or ft (first-toucher \
           migration).  Millipage only.")

let home_block_arg =
  Arg.(
    value & opt (at_least 1) 8
    & info [ "home-block" ] ~docv:"N"
        ~doc:"Run length of consecutive minipage ids per home under --homes block.")

let consistency_arg =
  let modes =
    List.map (fun m -> (Config.Consistency.mode_name m, m)) [ `Sc; `Rc; `Adaptive ]
  in
  Arg.(
    value
    & opt (named modes) (List.hd modes)
    & info [ "consistency" ] ~docv:"MODE"
        ~doc:
          "Per-minipage consistency protocol: sc (the paper's Figure-3 \
           single-writer machine, the default), rc (every minipage on the \
           multi-writer twin/diff release-consistent path), or adaptive \
           (start under sc and let the online governor promote write-shared \
           and falsely-shared minipages to rc at sync points, demoting them \
           when the pattern fades).  Millipage only.")

let adapt_interval_arg =
  Arg.(
    value & opt (at_least 1) 2
    & info [ "adapt-interval" ] ~docv:"N"
        ~doc:
          "Evaluate the adaptation governor every $(docv) barrier phases \
           (with --consistency adaptive).")

let term =
  let make app system hosts chunking polling paper trace_out perfetto metrics profile
      profile_out loss dup reorder net_seed ft crash stall crash_seed crash_horizon homes
      home_block consistency adapt_interval =
    let o =
      {
        app; system; hosts; chunking; polling; paper; trace_out; perfetto; metrics;
        profile; profile_out; loss; dup; reorder; net_seed; ft; crash; stall;
        crash_seed; crash_horizon; homes; home_block; consistency; adapt_interval;
      }
    in
    match usage_error o with None -> `Ok o | Some msg -> `Error (true, msg)
  in
  Term.(
    ret
      (const make $ app_arg $ system_arg $ hosts_arg $ chunking_arg $ polling_arg
     $ paper_arg $ trace_out_arg $ perfetto_arg $ metrics_arg $ profile_arg
     $ profile_out_arg $ loss_arg $ dup_arg $ reorder_arg $ net_seed_arg $ ft_arg
     $ crash_arg $ stall_arg $ crash_seed_arg $ crash_horizon_arg $ homes_arg
     $ home_block_arg $ consistency_arg $ adapt_interval_arg))

let info =
  Cmd.info "mprun" ~doc:"Run a Millipage benchmark application on a simulated cluster"

let parse args =
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  let result =
    Cmd.eval_value ~catch:false ~help:ppf ~err:ppf
      ~argv:(Array.of_list ("mprun" :: args))
      (Cmd.v info term)
  in
  Format.pp_print_flush ppf ();
  match result with Ok (`Ok o) -> Ok o | Ok (`Help | `Version) | Error _ -> Error (Buffer.contents b)

(* ---------------- map ------------------------------------------------ *)

type setup = { app : App.t; hosts : int; system : (module SYSTEM); config : Config.t }

let setup (o : options) =
  let crashes = crashes o in
  let config =
    {
      Config.default with
      polling = snd o.polling;
      chunking = snd o.chunking;
      net = { Config.Net.default with faults = faults o; seed = o.net_seed };
      ft =
        (if o.ft || crashes <> [] || o.stall <> [] then
           Some { Config.Ft.default with crashes; stalls = o.stall }
         else None);
      homes =
        (let module H = Config.Homes in
         match snd o.homes with
         | H.Block -> H.block o.home_block
         | policy -> { H.default with policy });
      consistency =
        (let module C = Config.Consistency in
         C.with_adapt_interval { C.default with mode = snd o.consistency } o.adapt_interval);
    }
  in
  {
    app = App.of_name ~paper:o.paper o.app;
    hosts = o.hosts;
    system = List.assoc o.system systems;
    config;
  }

(* ---------------- run ------------------------------------------------ *)

type outcome = Verified | Degraded | Mismatch | Deadlock of string | Unrecoverable of string

type run =
  | Run : {
      sys : (module SYSTEM with type t = 'a);
      dsm : 'a;
      config : Config.t;
      outcome : outcome;
    }
      -> run

let run ?(trace = false) o (s : setup) =
  let (module S : SYSTEM) = s.system in
  let t = S.create (Engine.create ()) ~hosts:s.hosts s.config in
  if trace || active o then begin
    let obs = S.obs t in
    if trace || tracing o then Recorder.set_capacity obs (1 lsl 22);
    Recorder.set_enabled obs true;
    if profiling o then ignore (Mp_obs.Profile.attach obs)
  end;
  let outcome =
    match
      let verify = S.setup t s.app in
      S.run t;
      verify ()
    with
    | true -> Verified
    | false -> if S.degraded t then Degraded else Mismatch
    | exception Dsm.Deadlock msg -> Deadlock msg
    | exception Dsm.Crash_unrecoverable msg -> Unrecoverable msg
  in
  Run { sys = (module S); dsm = t; config = s.config; outcome }

(* ---------------- report --------------------------------------------- *)

(* The Figure 6 execution-time breakdown, the same table for every system. *)
let report_breakdown b bd =
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 bd in
  if total > 0.0 then begin
    let rows =
      List.map
        (fun (label, v) ->
          [ label; Mp_util.Tab.fu v; Printf.sprintf "%.1f%%" (100.0 *. v /. total) ])
        bd
    in
    Buffer.add_char b '\n';
    Buffer.add_string b (Mp_util.Tab.render ~header:[ "breakdown"; "us"; "share" ] rows)
  end

(* Run metadata for the profiler's JSON export. *)
let meta (o : options) =
  [
    ("app", o.app);
    ("system", o.system);
    ("hosts", string_of_int o.hosts);
    ("homes", fst o.homes);
    ("chunking", fst o.chunking);
    ("polling", fst o.polling);
    ("net_seed", string_of_int o.net_seed);
    ("crash_seed", string_of_int o.crash_seed);
  ]
  @ if fst o.consistency = "sc" then [] else [ ("consistency", fst o.consistency) ]

exception Failed

let report_obs b (o : options) obs prof =
  let events = Recorder.events obs in
  let try_write what writer file events =
    try writer file events
    with Sys_error msg ->
      Printf.eprintf "mprun: cannot write %s: %s\n" what msg;
      raise Failed
  in
  Option.iter
    (fun file ->
      try_write "trace" Mp_obs.Export.write_jsonl file events;
      Printf.bprintf b "trace:        %s (%d events, %d dropped)\n" file
        (List.length events) (Recorder.dropped obs))
    o.trace_out;
  Option.iter
    (fun file ->
      let extra =
        match prof with Some p -> Mp_obs.Profile.perfetto_counters p | None -> []
      in
      try_write "perfetto trace" (Mp_obs.Export.write_perfetto ~extra) file events;
      Printf.bprintf b "perfetto:     %s (open at https://ui.perfetto.dev)\n" file)
    o.perfetto;
  Option.iter
    (fun p ->
      Printf.bprintf b "\nprofile (%d events streamed):\n%s\n"
        (Mp_obs.Profile.event_count p) (Mp_obs.Profile.report p);
      Option.iter
        (fun file ->
          try_write "profile"
            (fun file () ->
              Out_channel.with_open_text file (fun oc ->
                  output_string oc (Mp_obs.Profile.to_json ~meta:(meta o) p)))
            file ();
          Printf.bprintf b "profile json: %s\n" file)
        o.profile_out)
    prof;
  if o.metrics then begin
    let r = Mp_obs.Metrics.report (Recorder.metrics obs) in
    if r <> "" then Printf.bprintf b "\n%s" r
  end;
  (* The invariant checker needs the lossless stream. *)
  let dropped = Recorder.dropped obs in
  if tracing o then
    if dropped > 0 then
      Printf.bprintf b "invariants:   skipped (%d events dropped; ring too small)\n" dropped
    else
      match Mp_obs.Invariants.check events with
      | [] -> Printf.bprintf b "invariants:   ok (%d events)\n" (List.length events)
      | violations ->
        Printf.bprintf b "invariants:   %d VIOLATION(S)\n" (List.length violations);
        List.iter (fun v -> Printf.bprintf b "  %s\n" v) violations;
        raise Failed

let report b (o : options) (Run { sys = (module S); dsm = t; config; outcome }) =
  match outcome with
  | Deadlock msg ->
    Printf.eprintf "mprun: %s\n" msg;
    2
  | Unrecoverable msg ->
    Printf.bprintf b "result:       unrecoverable — %s\n" msg;
    S.report_ft b t;
    (* a home and its backup both dying under injected crashes is a
       designed fail-stop, not a harness failure *)
    if Option.fold ~none:false ~some:(fun ft -> ft.Config.Ft.crashes <> []) config.ft
    then 0
    else 3
  | Verified | Degraded | Mismatch ->
    Printf.bprintf b "system:       %s\n" S.name;
    Printf.bprintf b "time:         %.0f us (simulated)\n" (Engine.now (S.engine t));
    Printf.bprintf b "read faults:  %d\n" (S.read_faults t);
    Printf.bprintf b "write faults: %d\n" (S.write_faults t);
    Printf.bprintf b "messages:     %d (%d bytes)\n" (S.messages_sent t) (S.bytes_sent t);
    Printf.bprintf b "result:       %s\n"
      (match outcome with
      | Verified -> "verified"
      | Degraded -> "degraded (host crashed mid-run; full verification skipped)"
      | _ -> "MISMATCH");
    if outcome = Mismatch then 1
    else begin
      S.report b config t;
      report_breakdown b (S.breakdown t);
      match if active o then report_obs b o (S.obs t) (S.profile t) with
      | () -> 0
      | exception Failed -> 1
    end
