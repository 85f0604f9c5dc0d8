(** Crash-fault sweep: SOR with an injected host crash at several points in
    the run.  Reports three quantities the subsystem is judged on:

    - recovery latency: DECLARE_DEAD to the first post-recovery grant,
      measured from the protocol trace;
    - throughput degradation: survivor completion time against the
      crash-free run;
    - armed cost: the fault-free overhead of running with the failure
      detector armed, which also streams every home's directory log to its
      backup (extra messages and end-time delta).

    The victim's backup is host 0, so every crash must end in promotion
    (DECLARE_DEAD to BACKUP_PROMOTE is the promotion latency) with nothing
    lost: writes the victim never released roll back to the last shadow. *)

open Mp_sim
open Mp_millipage
module M = Mp_dsm.Millipage_impl
module Sor_m = Mp_apps.Sor.Make (M)
module Tab = Mp_util.Tab
module Event = Mp_obs.Event

let sor_params = { Mp_apps.Sor.default_params with rows = 128; iterations = 5 }
let hosts = 4
let victim = 3

type outcome = {
  time : float;
  events : Event.t list;
  declared : int list;
  recovered : int;
  lost : int;
  heartbeats : int;
  messages : int;
  promotions : int;
  log_sent : int;
  violations : string list;
  failure : string option; (* Crash_unrecoverable message *)
}

let run_one ?(homes = Dsm.Config.Homes.default) ~ft () =
  let e = Engine.create () in
  let config = { Dsm.Config.default with ft; homes } in
  let dsm = Dsm.create e ~hosts ~config () in
  let obs = Dsm.obs dsm in
  Mp_obs.Recorder.set_capacity obs (1 lsl 21);
  Mp_obs.Recorder.set_enabled obs true;
  let h = Sor_m.setup dsm sor_params in
  let failure =
    match Dsm.run dsm with
    | () ->
      if Dsm.declared_dead dsm = [] && not (Sor_m.verify h) then
        Some "verification failed"
      else None
    | exception Dsm.Crash_unrecoverable msg -> Some msg
  in
  let events = Mp_obs.Recorder.events obs in
  {
    time = Engine.now e;
    events;
    declared = Dsm.declared_dead dsm;
    recovered = (Dsm.stats dsm).recovered_minipages;
    lost = List.length (Dsm.lost_minipages dsm);
    heartbeats = (Dsm.stats dsm).heartbeats_sent;
    messages = Dsm.messages_sent dsm;
    promotions = (Dsm.stats dsm).backup_promotions;
    log_sent = Dsm.log_records_sent dsm;
    violations =
      (* an aborted run legitimately strands in-flight survivor faults;
         completion obligations only bind runs that ran to completion *)
      (if failure <> None then []
       else if Mp_obs.Recorder.dropped obs > 0 then [ "(event ring overflow)" ]
       else Mp_obs.Invariants.check events);
    failure;
  }

(* DECLARE_DEAD to the first data grant the manager issues afterwards. *)
let recovery_latency o =
  let declare =
    List.find_opt (fun ev -> ev.Event.kind = Event.Declare_dead) o.events
  in
  Option.bind declare (fun d ->
      List.find_map
        (fun ev ->
          match ev.Event.kind with
          | Event.Forward _ when ev.Event.time > d.Event.time ->
            Some (ev.Event.time -. d.Event.time)
          | _ -> None)
        o.events)

(* DECLARE_DEAD to the backup finishing its take-over of the dead shard. *)
let promotion_latency o =
  let declare =
    List.find_opt (fun ev -> ev.Event.kind = Event.Declare_dead) o.events
  in
  Option.bind declare (fun d ->
      List.find_map
        (fun ev ->
          match ev.Event.kind with
          | Event.Backup_promote _ -> Some (ev.Event.time -. d.Event.time)
          | _ -> None)
        o.events)

(* A crash is recoverable when it lands while the victim is parked at a
   barrier (its shadow was synced on entry and it has written nothing
   since).  Mine the fault-free trace for the victim's widest parked
   window and return its midpoint. *)
let parked_crash_time o =
  let enters = Hashtbl.create 16 in (* bphase -> (victim enter, latest enter) *)
  List.iter
    (fun ev ->
      match ev.Event.kind with
      | Event.Barrier_enter { bphase } ->
        let mine, latest =
          Option.value ~default:(None, 0.0) (Hashtbl.find_opt enters bphase)
        in
        let mine = if ev.Event.host = victim then Some ev.Event.time else mine in
        Hashtbl.replace enters bphase (mine, Float.max latest ev.Event.time)
      | _ -> ())
    o.events;
  Hashtbl.fold
    (fun _ window best ->
      match window with
      | Some entered, released when released -. entered > snd best ->
        ((entered +. released) /. 2.0, released -. entered)
      | _ -> best)
    enters (0.0, 0.0)
  |> fst

let ft_with_crash at = Some { Dsm.Config.Ft.default with crashes = [ (victim, at) ] }

let run () =
  Harness.section
    (Printf.sprintf "Crash-fault sweep: SOR %dx%d, %d iterations, %d hosts"
       sor_params.rows sor_params.cols sor_params.iterations hosts);
  let base = run_one ~ft:None () in
  let armed = run_one ~ft:(Some Dsm.Config.Ft.default) () in
  let parked_at = parked_crash_time armed in
  let scenarios =
    [
      ("ft off", None, Dsm.Config.Homes.default);
      ("ft on, fault-free", Some Dsm.Config.Ft.default, Dsm.Config.Homes.default);
      ("crash @25%", ft_with_crash (0.25 *. base.time), Dsm.Config.Homes.default);
      ("crash @50%", ft_with_crash (0.5 *. base.time), Dsm.Config.Homes.default);
      ("crash @barrier park", ft_with_crash parked_at, Dsm.Config.Homes.default);
      ( "crash @50%, rr homes",
        ft_with_crash (0.5 *. base.time),
        Dsm.Config.Homes.round_robin );
    ]
  in
  let all_clean = ref true in
  let rows =
    List.map
      (fun (label, ft, homes) ->
        let o =
          match label with
          | "ft off" -> base
          | "ft on, fault-free" -> armed
          | _ -> run_one ~homes ~ft ()
        in
        List.iter
          (fun v ->
            all_clean := false;
            Harness.note "  VIOLATION (%s): %s" label v)
          o.violations;
        (* the victim's backup survives, so nothing may fail *)
        (match o.failure with
        | Some msg ->
          all_clean := false;
          Harness.note "  FAIL (%s): %s" label msg
        | None -> ());
        if o.declared <> [] && (o.promotions = 0 || o.lost > 0) then begin
          all_clean := false;
          Harness.note "  FAIL (%s): %d promotion(s), %d minipage(s) lost" label
            o.promotions o.lost
        end;
        let outcome =
          match o.failure with
          | Some _ -> "unrecoverable"
          | None when o.promotions > 0 -> "promoted ok"
          | None when o.declared <> [] -> "degraded ok"
          | None -> "ok"
        in
        [
          label;
          Tab.fu o.time;
          Printf.sprintf "%+.1f%%" (100.0 *. (o.time -. base.time) /. base.time);
          string_of_int o.messages;
          string_of_int o.heartbeats;
          (match o.declared with
          | [] -> "-"
          | l -> String.concat "," (List.map string_of_int l));
          Printf.sprintf "%d/%d" o.recovered o.lost;
          string_of_int o.promotions;
          string_of_int o.log_sent;
          (match recovery_latency o with
          | Some us when o.declared <> [] -> Tab.fu us
          | _ -> "-");
          (match promotion_latency o with
          | Some us -> Tab.fu us
          | None -> "-");
          outcome;
          (if o.failure <> None then "aborted"
           else if o.violations = [] then "clean"
           else "DIRTY");
        ])
      scenarios
  in
  Tab.print
    ~header:
      [
        "scenario"; "time us"; "vs base"; "msgs"; "hbeats"; "dead";
        "recov/lost"; "promo"; "log recs"; "recov lat us"; "promo lat us";
        "outcome"; "trace";
      ]
    rows;
  Harness.note
    "'recov lat us' is DECLARE_DEAD to the first post-recovery grant and \
     'promo lat us' DECLARE_DEAD to BACKUP_PROMOTE; every crash must \
     promote the victim's backup with zero lost minipages, and the armed \
     fault-free run prices heartbeats plus the directory log.";
  if not !all_clean then failwith "exp_crash: a crash run failed or lost data"
