(** mprun — run one benchmark application on one DSM system.

    Examples:
    {v
    mprun --app sor --hosts 8
    mprun --app water --hosts 4 --chunking 5
    mprun --app is --system ivy --hosts 8 --polling fast
    mprun --app tsp --system lrc --hosts 4
    mprun --app sor --dsm millipage --hosts 4 --perfetto /tmp/t.json --metrics
    v} *)

open Cmdliner
open Mp_sim
open Mp_apps

(** Observability options shared by every system branch. *)
module Obs_opts = struct
  type t = {
    trace_out : string option;
    perfetto : string option;
    metrics : bool;
    profile : bool;
    profile_out : string option;
    meta : (string * string) list;  (* run metadata for JSON exports *)
  }

  let profiling o = o.profile || o.profile_out <> None
  let active o = o.metrics || o.trace_out <> None || o.perfetto <> None || profiling o
  let tracing o = o.trace_out <> None || o.perfetto <> None
end

module Runner (D : Mp_dsm.Dsm_intf.S) = struct
  module A = App.Make (D)

  let report (t : D.t) engine verified ~degraded =
    Printf.printf "system:       %s\n" D.name;
    Printf.printf "time:         %.0f us (simulated)\n" (Engine.now engine);
    Printf.printf "read faults:  %d\n" (D.read_faults t);
    Printf.printf "write faults: %d\n" (D.write_faults t);
    Printf.printf "messages:     %d (%d bytes)\n" (D.messages_sent t) (D.bytes_sent t);
    Printf.printf "result:       %s\n"
      (if verified then "verified"
       else if degraded then
         "degraded (host crashed mid-run; full verification skipped)"
       else "MISMATCH");
    if not (verified || degraded) then exit 1

  (* The Figure 6 execution-time breakdown, the same table for every system. *)
  let report_breakdown (t : D.t) =
    let bd = D.breakdown t in
    let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 bd in
    if total > 0.0 then begin
      let rows =
        List.map
          (fun (label, v) ->
            [ label; Mp_util.Tab.fu v; Printf.sprintf "%.1f%%" (100.0 *. v /. total) ])
          bd
      in
      print_newline ();
      Mp_util.Tab.print ~header:[ "breakdown"; "us"; "share" ] rows
    end

  let try_write what writer file events =
    try writer file events
    with Sys_error msg ->
      Printf.eprintf "mprun: cannot write %s: %s\n" what msg;
      exit 1

  let report_obs (t : D.t) (o : Obs_opts.t) =
    let obs = D.obs t in
    let events = Mp_obs.Recorder.events obs in
    let prof = D.profile t in
    Option.iter
      (fun file ->
        try_write "trace" Mp_obs.Export.write_jsonl file events;
        Printf.printf "trace:        %s (%d events, %d dropped)\n" file
          (List.length events) (Mp_obs.Recorder.dropped obs))
      o.Obs_opts.trace_out;
    Option.iter
      (fun file ->
        let extra =
          match prof with
          | Some p -> Mp_obs.Profile.perfetto_counters p
          | None -> []
        in
        try_write "perfetto trace"
          (Mp_obs.Export.write_perfetto ~extra)
          file events;
        Printf.printf "perfetto:     %s (open at https://ui.perfetto.dev)\n" file)
      o.Obs_opts.perfetto;
    Option.iter
      (fun p ->
        Printf.printf "\nprofile (%d events streamed):\n%s\n"
          (Mp_obs.Profile.event_count p)
          (Mp_obs.Profile.report p);
        Option.iter
          (fun file ->
            try_write "profile"
              (fun file () ->
                let oc = open_out file in
                Fun.protect
                  ~finally:(fun () -> close_out oc)
                  (fun () ->
                    output_string oc
                      (Mp_obs.Profile.to_json ~meta:o.Obs_opts.meta p)))
              file ();
            Printf.printf "profile json: %s\n" file)
          o.Obs_opts.profile_out)
      prof;
    if o.Obs_opts.metrics then begin
      let r = Mp_obs.Metrics.report (Mp_obs.Recorder.metrics obs) in
      if r <> "" then Printf.printf "\n%s" r
    end;
    (* The invariant checker needs the lossless stream. *)
    let dropped = Mp_obs.Recorder.dropped obs in
    if Obs_opts.tracing o then
      if dropped > 0 then
        Printf.printf "invariants:   skipped (%d events dropped; ring too small)\n" dropped
      else
        match Mp_obs.Invariants.check events with
        | [] -> Printf.printf "invariants:   ok (%d events)\n" (List.length events)
        | violations ->
          Printf.printf "invariants:   %d VIOLATION(S)\n" (List.length violations);
          List.iter (fun v -> Printf.printf "  %s\n" v) violations;
          exit 1

  (* Full pipeline: arm the recorder, run the app, print every report. *)
  let exec (t : D.t) engine app (o : Obs_opts.t) ?(extra = fun () -> ())
      ?(degraded = fun () -> false) () =
    if Obs_opts.active o then begin
      let obs = D.obs t in
      if Obs_opts.tracing o then Mp_obs.Recorder.set_capacity obs (1 lsl 22);
      Mp_obs.Recorder.set_enabled obs true;
      if Obs_opts.profiling o then ignore (Mp_obs.Profile.attach obs)
    end;
    let verify = A.setup t app in
    D.run t;
    report t engine (verify ()) ~degraded:(degraded ());
    extra ();
    report_breakdown t;
    if Obs_opts.active o then report_obs t o
end

(* ---------------- crash-fault flags (millipage only) ------------------- *)

let parse_crash_specs specs ~hosts ~seed ~horizon =
  let rng = Mp_util.Prng.create ~seed in
  List.concat_map
    (fun spec ->
      match String.split_on_char '@' spec with
      | [ h; t ] -> (
        match (int_of_string_opt h, float_of_string_opt t) with
        | Some h, Some t -> [ (h, t) ]
        | _ -> invalid_arg (Printf.sprintf "bad --crash %S (host@time or rand:p)" spec))
      | [ r ] when String.length r > 5 && String.sub r 0 5 = "rand:" -> (
        match float_of_string_opt (String.sub r 5 (String.length r - 5)) with
        | Some p when p >= 0.0 && p <= 1.0 ->
          List.filter_map
            (fun h ->
              if Mp_util.Prng.float rng 1.0 < p then
                Some (h, Mp_util.Prng.float rng horizon)
              else None)
            (List.init (hosts - 1) (fun i -> i + 1))
        | _ -> invalid_arg (Printf.sprintf "bad --crash %S (rand:p with 0<=p<=1)" spec))
      | _ -> invalid_arg (Printf.sprintf "bad --crash %S (host@time or rand:p)" spec))
    specs

let parse_stall_specs specs =
  List.map
    (fun spec ->
      match String.split_on_char '@' spec with
      | [ h; rest ] -> (
        match String.split_on_char '+' rest with
        | [ t; d ] -> (
          match
            (int_of_string_opt h, float_of_string_opt t, float_of_string_opt d)
          with
          | Some h, Some t, Some d -> (h, t, d)
          | _ -> invalid_arg (Printf.sprintf "bad --stall %S (host@time+dur)" spec))
        | _ -> invalid_arg (Printf.sprintf "bad --stall %S (host@time+dur)" spec))
      | _ -> invalid_arg (Printf.sprintf "bad --stall %S (host@time+dur)" spec))
    specs

let report_ft (t : Mp_millipage.Dsm.t) =
  let module D = Mp_millipage.Dsm in
  let s = D.stats t in
  Printf.printf
    "crash-ft:     %d heartbeat(s); crashed %s; declared dead %s\n"
    s.heartbeats_sent
    (match D.crashed_hosts t with
    | [] -> "none"
    | l -> String.concat "," (List.map string_of_int l))
    (match D.declared_dead t with
    | [] -> "none"
    | l -> String.concat "," (List.map string_of_int l));
  if D.declared_dead t <> [] then
    Printf.printf
      "recovery:     %d minipage(s) from shadows, %d lost, %d lease(s) \
       revoked, %d barrier reconfig(s)\n"
      s.recovered_minipages
      (List.length (D.lost_minipages t))
      s.leases_revoked s.barrier_reconfigs;
  if D.hosts t > 1 then begin
    Printf.printf
      "replication:  %d log record(s) sent, %d applied; %d promotion(s)%s\n"
      (D.log_records_sent t)
      s.log_records_applied s.backup_promotions
      (match D.promoted_homes t with
      | [] -> ""
      | l ->
        Printf.sprintf " (home %s)" (String.concat "," (List.map string_of_int l)));
    if s.backup_promotions > 0 then
      Printf.printf "promotion:    %d tail repair(s), %d minipage(s) rolled back\n"
        s.tail_repairs s.rolled_back_minipages
  end

let execute app (system, sys) hosts (chunking, chunking_mode)
    (polling, polling_mode) paper trace_out perfetto metrics profile profile_out
    loss dup reorder net_seed ft crash stall crash_seed crash_horizon
    (homes, policy) home_block (consistency, mode) adapt_interval =
  let meta =
    [
      ("app", app);
      ("system", system);
      ("hosts", string_of_int hosts);
      ("homes", homes);
      ("chunking", chunking);
      ("polling", polling);
      ("net_seed", string_of_int net_seed);
      ("crash_seed", string_of_int crash_seed);
    ]
    @ (if consistency = "sc" then [] else [ ("consistency", consistency) ])
  in
  let obs_opts =
    { Obs_opts.trace_out; perfetto; metrics; profile; profile_out; meta }
  in
  let homes_config =
    let module H = Mp_millipage.Dsm.Config.Homes in
    if policy = H.Block then H.block home_block else { H.default with policy }
  in
  let consistency_config =
    let module C = Mp_millipage.Dsm.Config.Consistency in
    C.with_adapt_interval { C.default with mode } adapt_interval
  in
  if consistency <> "sc" && system <> "millipage" then
    invalid_arg
      (Printf.sprintf
         "protocol modes (--consistency) require --system millipage; %s has a \
          single fixed protocol"
         system);
  if homes_config.Mp_millipage.Dsm.Config.Homes.policy <> Mp_millipage.Dsm.Config.Homes.Central
     && system <> "millipage"
  then
    invalid_arg
      (Printf.sprintf
         "home sharding (--homes) requires --system millipage; %s has a single manager"
         system);
  let faults =
    { Mp_net.Fabric.no_faults with drop = loss; duplicate = dup; reorder }
  in
  if Mp_net.Fabric.faults_active faults && system <> "millipage" then
    invalid_arg
      (Printf.sprintf
         "fault injection (--loss/--dup/--reorder) requires --system millipage; %s \
          has no reliable transport"
         system);
  let crashes =
    parse_crash_specs crash ~hosts ~seed:crash_seed ~horizon:crash_horizon
  in
  let stalls = parse_stall_specs stall in
  let ft_config =
    if ft || crashes <> [] || stalls <> [] then
      Some { Mp_millipage.Dsm.Config.Ft.default with crashes; stalls }
    else None
  in
  if ft_config <> None && system <> "millipage" then
    invalid_arg
      (Printf.sprintf
         "crash-fault tolerance (--ft/--crash/--stall) requires --system \
          millipage; %s has no failure detector"
         system);
  let app = App.of_name ~paper app in
  let engine = Engine.create () in
  match sys with
  | `Millipage -> (
    let config =
      {
        Mp_millipage.Dsm.Config.default with
        polling = polling_mode;
        chunking = chunking_mode;
        net =
          { Mp_millipage.Dsm.Config.Net.default with faults; seed = net_seed };
        ft = ft_config;
        homes = homes_config;
        consistency = consistency_config;
      }
    in
    let t = Mp_millipage.Dsm.create engine ~hosts ~config () in
    let module R = Runner (Mp_dsm.Millipage_impl) in
    let exec () =
      R.exec t engine app obs_opts
        ~extra:(fun () ->
          let stats = Mp_millipage.Dsm.stats t in
          Printf.printf "views used:   %d, competing requests: %d\n"
            (Mp_millipage.Dsm.views_used t)
            (Mp_millipage.Dsm.competing_requests t);
          (let module H = Mp_millipage.Dsm.Config.Homes in
           if homes_config.H.policy <> H.Central then
             Printf.printf
               "homes:        policy %s; %d redirect(s); queue depth by home \
                [%s]\n"
               (H.policy_name homes_config.H.policy)
               stats.home_redirects
               (String.concat ","
                  (Array.to_list
                     (Array.map string_of_int
                        (Mp_millipage.Dsm.max_queue_depth_by_home t)))));
          (let module C = Mp_millipage.Dsm.Config.Consistency in
           if consistency_config.C.mode <> `Sc then begin
             let census =
               Mp_millipage.Dsm.modes t
               |> List.map (fun (m, n) ->
                      Printf.sprintf "%s %d" (Mp_millipage.Proto.mode_to_string m) n)
               |> String.concat ", "
             in
             Printf.printf
               "consistency:  %s (%s); %d switch(es), %d twin(s), %d diff(s) \
                (%d bytes)\n"
               (C.mode_name consistency_config.C.mode)
               census
               (Mp_millipage.Dsm.mode_switches t)
               stats.rc_twins stats.rc_diffs stats.rc_diff_bytes
           end);
          if Mp_millipage.Dsm.faulty t then
            Printf.printf
              "net faults:   %d dropped, %d duplicated, %d reordered; %d \
               retransmits, %d dups suppressed\n"
              (Mp_millipage.Dsm.net_dropped t)
              (Mp_millipage.Dsm.net_duplicated t)
              (Mp_millipage.Dsm.net_reordered t)
              stats.retransmits stats.dups_suppressed;
          if ft_config <> None then report_ft t)
        ~degraded:(fun () -> Mp_millipage.Dsm.declared_dead t <> [])
        ()
    in
    match exec () with
    | () -> ()
    | exception Mp_millipage.Dsm.Deadlock msg ->
      Printf.eprintf "mprun: %s\n" msg;
      exit 2
    | exception Mp_millipage.Dsm.Crash_unrecoverable msg ->
      Printf.printf "result:       unrecoverable — %s\n" msg;
      report_ft t;
      (* a home and its backup both dying under injected crashes is a
         designed fail-stop, not a harness failure *)
      exit (if crashes <> [] then 0 else 3))
  | `Ivy ->
    let t = Mp_baselines.Ivy.create engine ~hosts ~polling:polling_mode () in
    let module R = Runner (Mp_baselines.Ivy) in
    R.exec t engine app obs_opts ()
  | `Lrc ->
    let t = Mp_baselines.Lrc.create engine ~hosts ~polling:polling_mode () in
    let module R = Runner (Mp_baselines.Lrc) in
    R.exec t engine app obs_opts
      ~extra:(fun () ->
        Printf.printf "diffs:        %d (%d bytes), twins: %d\n"
          (Mp_baselines.Lrc.diffs_created t)
          (Mp_baselines.Lrc.diff_bytes t)
          (Mp_baselines.Lrc.twins_created t))
      ()
  | `Mrc ->
    let t =
      Mp_baselines.Mrc.create engine ~hosts ~chunking:chunking_mode
        ~polling:polling_mode ()
    in
    let module R = Runner (Mp_baselines.Mrc) in
    R.exec t engine app obs_opts
      ~extra:(fun () ->
        Printf.printf "diffs:        %d (%d bytes), twins: %d, views: %d\n"
          (Mp_baselines.Mrc.diffs_created t)
          (Mp_baselines.Mrc.diff_bytes t)
          (Mp_baselines.Mrc.twins_created t)
          (Mp_baselines.Mrc.views_used t))
      ()

(* An enumerated flag: a value outside [choices] is a usage error.  The
   flag's value keeps its spelling, which [meta] records. *)
let named choices = Arg.enum (List.map (fun ((name, _) as c) -> (name, c)) choices)

let app_arg =
  Arg.(
    required
    & opt (some (enum (List.map (fun a -> (a, a)) App.names))) None
    & info [ "a"; "app" ] ~docv:"APP" ~doc:"Application: sor, is, water, lu or tsp.")

let system_arg =
  let systems =
    [ ("millipage", `Millipage); ("ivy", `Ivy); ("lrc", `Lrc); ("mrc", `Mrc) ]
  in
  Arg.(
    value
    & opt (named systems) (List.hd systems)
    & info
        [ "s"; "system"; "dsm" ]
        ~docv:"SYS"
        ~doc:"DSM system: millipage, ivy, lrc, or mrc (relaxed consistency on minipages).")

let hosts_arg =
  Arg.(value & opt int 8 & info [ "n"; "hosts" ] ~docv:"N" ~doc:"Number of hosts (1-8+).")

let chunking_arg =
  let parse = function
    | "none" -> Ok ("none", Mp_multiview.Allocator.Page_grain)
    | s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok (s, Mp_multiview.Allocator.Fine n)
      | _ ->
        Error
          (`Msg
            (Printf.sprintf "invalid value '%s', expected 'none' or an integer >= 1" s)))
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
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:"Probability each message copy is dropped on the wire (millipage only).")

let dup_arg =
  Arg.(
    value & opt float 0.0
    & info [ "dup" ] ~docv:"P"
        ~doc:"Probability a message is delivered twice (millipage only).")

let reorder_arg =
  Arg.(
    value & opt float 0.0
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
    value & opt_all string []
    & info [ "crash" ] ~docv:"SPEC"
        ~doc:
          "Fail-stop a host: HOST@TIME (µs) crashes that host at that time; \
           rand:P crashes each non-manager host with probability P at a \
           seeded random time before --crash-horizon.  Repeatable.")

let stall_arg =
  Arg.(
    value & opt_all string []
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
    value & opt float 50000.0
    & info [ "crash-horizon" ] ~docv:"US"
        ~doc:"Latest time (µs) a rand:P crash may fire.")

let homes_arg =
  let policies =
    let module H = Mp_millipage.Dsm.Config.Homes in
    List.map
      (fun name -> (name, Option.get (H.policy_of_string name)))
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
    value & opt int 8
    & info [ "home-block" ] ~docv:"N"
        ~doc:"Run length of consecutive minipage ids per home under --homes block.")

let consistency_arg =
  let modes =
    List.map
      (fun m -> (Mp_millipage.Dsm.Config.Consistency.mode_name m, m))
      [ `Sc; `Rc; `Adaptive ]
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
    value & opt int 2
    & info [ "adapt-interval" ] ~docv:"N"
        ~doc:
          "Evaluate the adaptation governor every $(docv) barrier phases \
           (with --consistency adaptive).")

let () =
  let term =
    Term.(const execute $ app_arg $ system_arg $ hosts_arg $ chunking_arg $ polling_arg
          $ paper_arg $ trace_out_arg $ perfetto_arg $ metrics_arg $ profile_arg
          $ profile_out_arg $ loss_arg $ dup_arg $ reorder_arg $ net_seed_arg
          $ ft_arg $ crash_arg $ stall_arg $ crash_seed_arg $ crash_horizon_arg
          $ homes_arg $ home_block_arg $ consistency_arg
          $ adapt_interval_arg)
  in
  let info =
    Cmd.info "mprun" ~doc:"Run a Millipage benchmark application on a simulated cluster"
  in
  exit (Cmd.eval (Cmd.v info term))
