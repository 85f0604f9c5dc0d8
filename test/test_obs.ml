(* Observability layer: recorder gating, metrics percentiles, exporters
   (golden Perfetto file from a deterministic 2-host run), and the
   trace-driven invariant checker (unit + qcheck properties). *)

open Mp_sim
open Mp_millipage
module Obs = Mp_obs.Recorder
module Event = Mp_obs.Event
module Invariants = Mp_obs.Invariants

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ---------------- recorder basics ---------------- *)

let test_disabled_records_nothing () =
  let r = Obs.create () in
  Obs.msg_send r ~time:1.0 ~host:0 ~dst:1 ~bytes:32 ~label:"X";
  Obs.incr r "c";
  Alcotest.(check int) "no events while disabled" 0 (List.length (Obs.events r));
  Alcotest.(check int) "no counters while disabled" 0
    (Mp_util.Stats.Counters.get (Mp_obs.Metrics.counters (Obs.metrics r)) "c")

let test_ring_drops_oldest () =
  let r = Obs.create ~capacity:4 () in
  Obs.set_enabled r true;
  for i = 1 to 6 do
    Obs.msg_send r ~time:(float_of_int i) ~host:0 ~dst:1 ~bytes:i ~label:"m"
  done;
  let evs = Obs.events r in
  Alcotest.(check int) "capacity bounds the ring" 4 (List.length evs);
  Alcotest.(check int) "dropped counted" 2 (Obs.dropped r);
  Alcotest.(check (float 0.0)) "oldest surviving event" 3.0 (List.hd evs).Event.time;
  (* The ring grows by doubling up to its capacity, then wraps.  At every
     fill level it holds the newest [min n cap] events, oldest first, and a
     cleared or re-capacitated ring reads back exactly what follows. *)
  let fill r ~cap n =
    for i = 1 to n do
      Obs.msg_send r ~time:(float_of_int i) ~host:0 ~dst:1 ~bytes:i ~label:"m"
    done;
    let kept = min n cap in
    let what = Printf.sprintf "cap %d, %d events" cap n in
    Alcotest.(check (list (float 0.0)))
      what
      (List.init kept (fun j -> float_of_int (n - kept + 1 + j)))
      (List.map (fun e -> e.Event.time) (Obs.events r));
    Alcotest.(check int) (what ^ ": dropped") (max 0 (n - cap)) (Obs.dropped r)
  in
  List.iter
    (fun cap ->
      let counts = [ 0; 1; cap - 1; cap; cap + 1; (3 * cap) + 2 ] in
      List.iter
        (fun n ->
          List.iter
            (fun m ->
              let r = Obs.create ~capacity:cap () in
              Obs.set_enabled r true;
              fill r ~cap n;
              Obs.clear r;
              fill r ~cap m;
              Obs.set_capacity r cap;
              fill r ~cap n)
            counts)
        counts)
    [ 1; 4; 5 ]

(* The capacity is a bound, not an allocation: a 2^18-event ring holding
   100 events costs their records and a few small doublings. *)
let test_ring_allocates_what_it_holds () =
  let r = Obs.create () in
  Obs.set_enabled r true;
  let words =
    Test_memsim.allocated_words (fun () ->
        Obs.set_capacity r (1 lsl 18);
        for _ = 1 to 100 do
          Obs.record r ~time:1.0 ~host:0 Event.Sweeper_wake
        done)
  in
  Alcotest.(check bool) (Printf.sprintf "%.0f words < 2000" words) true (words < 2000.0);
  Alcotest.(check int) "all kept" 100 (List.length (Obs.events r))

(* The per-home gauge name is formatted only while recording. *)
let test_home_queue_depth_off_allocates_nothing () =
  let r = Obs.create () in
  let words =
    Test_memsim.allocated_words (fun () ->
        for i = 1 to 10_000 do
          Obs.home_queue_depth r ~home:(i land 7) ~depth:i
        done)
  in
  Alcotest.(check (float 0.0)) "words" 0.0 words

let test_metrics_percentiles () =
  let r = Obs.create () in
  Obs.set_enabled r true;
  for i = 1 to 100 do
    Obs.observe r "lat" (float_of_int i)
  done;
  let m = Obs.metrics r in
  let p50 = Option.get (Mp_obs.Metrics.percentile m "lat" 0.50) in
  let p99 = Option.get (Mp_obs.Metrics.percentile m "lat" 0.99) in
  Alcotest.(check bool) "p50 near the median" true (p50 >= 40.0 && p50 <= 60.0);
  Alcotest.(check bool) "p99 near the top" true (p99 >= 90.0);
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99)

(* ---------------- deterministic 2-host run ---------------- *)

let deterministic_2host () =
  let e = Engine.create () in
  let config = { Dsm.Config.default with seed = 11 } in
  let dsm = Dsm.create e ~hosts:2 ~config () in
  let obs = Dsm.obs dsm in
  Obs.set_capacity obs (1 lsl 16);
  Obs.set_enabled obs true;
  let x = Dsm.malloc dsm 256 in
  Dsm.init_write_f64 dsm x 1.0;
  Dsm.init_write_f64 dsm (x + 8) 2.0;
  Dsm.spawn dsm ~host:0 (fun ctx ->
      ignore (Dsm.read_f64 ctx x);
      Dsm.write_f64 ctx x 3.0;
      Dsm.barrier ctx;
      Dsm.lock ctx 0;
      Dsm.write_f64 ctx (x + 8) 4.0;
      Dsm.unlock ctx 0;
      Dsm.barrier ctx);
  Dsm.spawn dsm ~host:1 (fun ctx ->
      ignore (Dsm.read_f64 ctx x);
      Dsm.barrier ctx;
      Dsm.lock ctx 0;
      Dsm.write_f64 ctx (x + 8) 5.0;
      Dsm.unlock ctx 0;
      Dsm.barrier ctx;
      ignore (Dsm.read_f64 ctx x));
  Dsm.run dsm;
  obs

(* cwd is test/ under `dune runtest`, the project root under `dune exec` *)
let golden_path =
  if Sys.file_exists "golden/perfetto_2host.json" then "golden/perfetto_2host.json"
  else "test/golden/perfetto_2host.json"

let test_perfetto_golden () =
  let obs = deterministic_2host () in
  Alcotest.(check int) "lossless trace" 0 (Obs.dropped obs);
  let events = Obs.events obs in
  let json = Mp_obs.Export.perfetto_json events in
  match Sys.getenv_opt "MP_UPDATE_GOLDEN" with
  | Some path ->
    let oc = open_out path in
    output_string oc json;
    close_out oc;
    Printf.printf "golden updated: %s (%d bytes)\n" path (String.length json)
  | None ->
    let ic = open_in_bin golden_path in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Alcotest.(check string) "perfetto export matches the golden file" expected json

let test_perfetto_shape () =
  let obs = deterministic_2host () in
  let json = Mp_obs.Export.perfetto_json (Obs.events obs) in
  Alcotest.(check bool) "chrome trace envelope" true
    (String.length json > 2 && json.[0] = '{' && contains json {|"traceEvents":[|});
  let count needle =
    let n = String.length needle and total = ref 0 in
    for i = 0 to String.length json - n do
      if String.sub json i n = needle then incr total
    done;
    !total
  in
  Alcotest.(check bool) "has duration slices" true (count {|"ph":"X"|} > 0);
  Alcotest.(check bool) "has a track per host" true
    (count {|"name":"process_name"|} >= 2)

let test_deterministic_run_invariants () =
  let obs = deterministic_2host () in
  Alcotest.(check (list string)) "protocol invariants hold" []
    (Invariants.check (Obs.events obs))

let test_jsonl_roundtrip_size () =
  let obs = deterministic_2host () in
  let events = Obs.events obs in
  let file = Filename.temp_file "trace" ".jsonl" in
  let lines =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Mp_obs.Export.write_jsonl file events;
        In_channel.with_open_text file In_channel.input_all)
    |> String.trim |> String.split_on_char '\n'
  in
  Alcotest.(check int) "one JSON line per event" (List.length events)
    (List.length lines);
  Alcotest.(check (list string)) "the lines are the events, in order"
    (List.map Event.to_json events) lines

(* ---------------- invariant checker: unit ---------------- *)

let ev time host span kind = { Event.time; host; span; kind }

let test_checker_flags_unfinished_fault () =
  let trace =
    [ ev 1.0 1 7 (Event.Fault { access = Event.Read; addr = 0; view = 0; vpage = 0 }) ]
  in
  Alcotest.(check bool) "unfinished fault flagged" false (Invariants.ok trace)

let test_checker_flags_orphan_reply () =
  let trace =
    [ ev 1.0 1 7 (Event.Reply { access = Event.Read; mp_id = 0; bytes = 64 }) ]
  in
  Alcotest.(check bool) "reply without request flagged" false (Invariants.ok trace)

let test_checker_flags_unbalanced_queue () =
  let trace = [ ev 1.0 0 7 (Event.Queued { mp_id = 0; depth = 1 }) ] in
  Alcotest.(check bool) "stuck queue entry flagged" false (Invariants.ok trace)

(* ---------------- invariant checker: properties ---------------- *)

(* A well-formed fault service: fault -> request -> queue -> (invalidation
   round) -> forward -> reply -> done -> ack, all on one span. *)
let service ~t0 ~span ~host ~mp ~write ~readers =
  let t = ref t0 in
  let step k h =
    t := !t +. 2.0;
    ev !t h span k
  in
  let access = if write then Event.Write else Event.Read in
  List.concat
    [
      [
        step (Event.Fault { access; addr = mp * 64; view = 0; vpage = mp }) host;
        step (Event.Request { access; addr = mp * 64; prefetch = false }) host;
        step (Event.Queued { mp_id = mp; depth = 1 }) 0;
        step (Event.Dequeued { mp_id = mp; waited_us = 2.0 }) 0;
      ];
      (if write then
         List.concat_map
           (fun r ->
             [
               step (Event.Inval { mp_id = mp; target = r; writer = host }) 0;
               step (Event.Inval_ack { mp_id = mp; from = r }) r;
             ])
           readers
       else []);
      [
        step (Event.Forward { access; mp_id = mp; supplier = -1 }) 0;
        step (Event.Reply { access; mp_id = mp; bytes = 64 }) host;
        step (Event.Fault_done { access }) host;
        step (Event.Ack { mp_id = mp; from = host }) 0;
      ];
    ]

let build_program specs =
  List.concat
    (List.mapi
       (fun i (write, host, mp, readers) ->
         service ~t0:(float_of_int (i * 100)) ~span:(i + 1) ~host ~mp ~write ~readers)
       specs)

let program_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 30)
      (quad bool (int_range 1 3) (int_range 0 7)
         (list_of_size (Gen.int_range 0 2) (int_range 1 3))))

let qcheck_valid_programs_accepted =
  QCheck.Test.make ~count:200
    ~name:"invariants: random well-formed coherence programs are accepted"
    program_gen
    (fun specs -> Invariants.check (build_program specs) = [])

let qcheck_second_writer_rejected =
  QCheck.Test.make ~count:200
    ~name:"invariants: an injected second concurrent writer is rejected"
    program_gen
    (fun specs ->
      (* guarantee at least one write grant, then inject a conflicting write
         Forward right after it — inside the open write interval *)
      let specs = (true, 1, 0, [ 2 ]) :: specs in
      let trace = build_program specs in
      let rec inject = function
        | [] -> []
        | ({ Event.kind = Event.Forward { access = Event.Write; mp_id; _ }; time; _ }
           as e)
          :: rest ->
          e
          :: ev (time +. 0.5) 0 99999
               (Event.Forward { access = Event.Write; mp_id; supplier = -1 })
          :: rest
        | e :: rest -> e :: inject rest
      in
      match Invariants.check (inject trace) with
      | [] -> false
      | violations -> List.exists (fun v -> contains v "concurrent writers") violations)

(* ---------------- the recorder is passive ---------------- *)

(* What a run decided, compared exactly between a run with the recorder off
   and one with it on.  The idempotence tables are stamped and pruned by
   simulated time, so a recorder-only clock reaching them shows here. *)
type outcome = {
  end_us : float;
  msgs : int;
  bytes : int;
  read_faults : int;
  write_faults : int;
  locks : int;
  barriers : int;
  idempotence : int;
}

let outcome_list o =
  [
    ("messages", o.msgs);
    ("bytes", o.bytes);
    ("read faults", o.read_faults);
    ("write faults", o.write_faults);
    ("locks", o.locks);
    ("barriers", o.barriers);
    ("idempotence size", o.idempotence);
  ]

(* Runs [setup]'s app on a fresh DSM, recording every event when
   [recording]; [setup] returns the app's verdict. *)
let passive_run ~recording ~hosts ~config setup =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts ~config () in
  let obs = Dsm.obs dsm in
  if recording then begin
    Obs.set_capacity obs (1 lsl 22);
    Obs.set_enabled obs true
  end;
  let verify = setup dsm in
  Dsm.run dsm;
  if recording then begin
    Alcotest.(check int) "no event dropped" 0 (Obs.dropped obs);
    Alcotest.(check bool) "events recorded" true (Obs.events obs <> [])
  end;
  ( dsm,
    verify (),
    {
      end_us = Engine.now e;
      msgs = Dsm.messages_sent dsm;
      bytes = Dsm.bytes_sent dsm;
      read_faults = Dsm.read_faults dsm;
      write_faults = Dsm.write_faults dsm;
      locks = (Dsm.stats dsm).locks_acquired;
      barriers = (Dsm.stats dsm).barriers_entered;
      idempotence = Dsm.idempotence_size dsm;
    } )

let check_passive name ~hosts ~config setup =
  let _, verdict_off, off = passive_run ~recording:false ~hosts ~config setup in
  let dsm, verdict_on, on = passive_run ~recording:true ~hosts ~config setup in
  Alcotest.(check bool) (name ^ ": verdict") verdict_off verdict_on;
  Alcotest.(check (float 0.0)) (name ^ ": end_us") off.end_us on.end_us;
  List.iter2
    (fun (what, a) (_, b) -> Alcotest.(check int) (name ^ ": " ^ what) a b)
    (outcome_list off) (outcome_list on);
  (dsm, verdict_on, on)

module M = Mp_dsm.Millipage_impl
module Water_m = Mp_apps.Water.Make (M)
module Lu_m = Mp_apps.Lu.Make (M)
module Sor_m = Mp_apps.Sor.Make (M)

let water dsm =
  let h = Water_m.setup dsm { Mp_apps.Water.default_params with molecules = 48; iterations = 2 } in
  fun () -> Water_m.verify h

let sor rows dsm =
  let h = Sor_m.setup dsm { Mp_apps.Sor.default_params with rows; iterations = 4 } in
  fun () -> Sor_m.verify h

let test_recorder_passive () =
  let config = Dsm.Config.default in
  let _, ok, o = check_passive "water" ~hosts:4 ~config water in
  Alcotest.(check bool) "water verified" true ok;
  Alcotest.(check bool) "water takes locks" true (o.locks > 0);
  let _, ok, o =
    check_passive "lu+prefetch" ~hosts:4 ~config (fun dsm ->
        let h =
          Lu_m.setup dsm { Mp_apps.Lu.default_params with n = 128; block = 32; use_prefetch = true }
        in
        fun () -> Lu_m.verify h)
  in
  Alcotest.(check bool) "lu verified" true ok;
  Alcotest.(check bool) "lu faults" true (o.read_faults > 0);
  (* a lossy wire: the reliable transport retransmits, and the home prunes
     its idempotence tables by completion stamp *)
  let faults =
    { Mp_net.Fabric.no_faults with drop = 0.1; duplicate = 0.05; reorder = 0.1 }
  in
  let config =
    { Dsm.Config.default with net = { Dsm.Config.Net.default with faults; seed = 42 } }
  in
  let dsm, ok, o = check_passive "sor, faulty fabric" ~hosts:4 ~config (sor 256) in
  Alcotest.(check bool) "faulty sor verified" true ok;
  Alcotest.(check bool) "retransmitted" true ((Dsm.stats dsm).retransmits > 0);
  Alcotest.(check bool) "idempotence tables in use" true (o.idempotence > 0);
  (* a crash whose home shard its backup takes over *)
  let config =
    {
      Dsm.Config.default with
      polling = Mp_net.Polling.Fast;
      homes = Dsm.Config.Homes.round_robin;
      ft =
        Some
          { Fixture.fast_ft with crashes = [ (3, 20_000.0) ] };
    }
  in
  let dsm, _, _ = check_passive "crash" ~hosts:4 ~config (sor 64) in
  Alcotest.(check int) "backup promoted" 1 (Dsm.stats dsm).backup_promotions

(* Each layer counts its events always; the recorder counts the same
   events again, by name, while it records.  Two traced SOR runs as [mprun]
   makes them (default parameters, 4 hosts): a lossy fabric, and a crash of
   home 2 under round-robin homes.  Every compared count must be positive,
   so a mistyped recorder key cannot pass as 0 = 0. *)
let traced_sor ?(faults = Mp_net.Fabric.no_faults) ?(net_seed = 9)
    ?(homes = Dsm.Config.Homes.default) ?(crashes = []) () =
  let config =
    {
      Dsm.Config.default with
      chunking = Mp_multiview.Allocator.Fine 1;
      net = { Dsm.Config.Net.default with faults; seed = net_seed };
      ft = (if crashes = [] then None else Some { Dsm.Config.Ft.default with crashes });
      homes;
    }
  in
  let dsm = Dsm.create (Engine.create ()) ~hosts:4 ~config () in
  let obs = Dsm.obs dsm in
  Obs.set_capacity obs (1 lsl 22);
  Obs.set_enabled obs true;
  ignore (Sor_m.setup dsm Mp_apps.Sor.default_params);
  Dsm.run dsm;
  let recorded key = Mp_util.Stats.Counters.get (Mp_obs.Metrics.counters (Obs.metrics obs)) key in
  (dsm, recorded)

let check_counts name recorded pairs =
  List.iter
    (fun (key, count) ->
      Alcotest.(check bool) (Printf.sprintf "%s: %s counted" name key) true (count > 0);
      Alcotest.(check int) (Printf.sprintf "%s: %s" name key) count (recorded key))
    pairs

let test_layer_counts_match_recorder () =
  let faults = { Mp_net.Fabric.no_faults with drop = 0.1; duplicate = 0.05; reorder = 0.1 } in
  let dsm, recorded = traced_sor ~faults ~net_seed:42 () in
  let s = Dsm.stats dsm in
  check_counts "lossy" recorded
    [
      ("fault.read", Dsm.read_faults dsm);
      ("fault.write", Dsm.write_faults dsm);
      ("inval.sent", s.invalidations);
      ("barrier.enter", s.barriers_entered);
      ("net.drops", Dsm.net_dropped dsm);
      ("net.dups", Dsm.net_duplicated dsm);
      ("net.reorders", Dsm.net_reordered dsm);
      ("transport.retransmits", s.retransmits);
      ("transport.dups_suppressed", s.dups_suppressed);
    ];
  let dsm, recorded =
    traced_sor ~homes:Dsm.Config.Homes.round_robin ~crashes:[ (2, 150_000.0) ] ()
  in
  let s = Dsm.stats dsm in
  check_counts "crash" recorded
    [
      ("ft.suspects", s.suspects);
      ("ft.recovered_minipages", s.recovered_minipages);
      ("ft.barrier_reconfigs", s.barrier_reconfigs);
      ("ft.shadow_syncs", s.shadow_syncs);
      ("replicate.promotions", s.backup_promotions);
      ("replicate.tail_repairs", s.tail_repairs);
    ]

let suite =
  [
    Alcotest.test_case "recorder: disabled is a no-op" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "recorder: bounded ring drops oldest" `Quick
      test_ring_drops_oldest;
    Alcotest.test_case "recorder: ring allocates what it holds" `Quick
      test_ring_allocates_what_it_holds;
    Alcotest.test_case "recorder: home queue depth off allocates nothing" `Quick
      test_home_queue_depth_off_allocates_nothing;
    Alcotest.test_case "metrics: percentiles" `Quick test_metrics_percentiles;
    Alcotest.test_case "export: perfetto golden file" `Quick test_perfetto_golden;
    Alcotest.test_case "export: perfetto shape" `Quick test_perfetto_shape;
    Alcotest.test_case "export: jsonl one line per event" `Quick
      test_jsonl_roundtrip_size;
    Alcotest.test_case "invariants: deterministic run is clean" `Quick
      test_deterministic_run_invariants;
    Alcotest.test_case "invariants: unfinished fault" `Quick
      test_checker_flags_unfinished_fault;
    Alcotest.test_case "invariants: orphan reply" `Quick test_checker_flags_orphan_reply;
    Alcotest.test_case "invariants: stuck queue entry" `Quick
      test_checker_flags_unbalanced_queue;
    QCheck_alcotest.to_alcotest qcheck_valid_programs_accepted;
    QCheck_alcotest.to_alcotest qcheck_second_writer_rejected;
    Alcotest.test_case "recorder: passive in Dsm" `Quick test_recorder_passive;
    Alcotest.test_case "metrics: layer counts match the recorder's" `Quick
      test_layer_counts_match_recorder;
  ]
