(* Replays a typed event stream and asserts protocol invariants of the
   single-writer / multiple-reader protocol.  The stream must be complete
   (check Recorder.dropped before calling) and chronologically ordered, which
   is how the recorder hands it out.

   Crash-aware: a host that crashed (HOST_CRASH) or was declared dead
   (DECLARE_DEAD) is excused from completion obligations — its open faults,
   unacknowledged invalidations and held write grants died with it.  In
   exchange the checker enforces the recovery contract: once a host *knows*
   a peer is dead (its own DEAD_NOTICE event; the manager's is emitted at
   declaration), it must never again send that peer protocol traffic —
   transport acks aside, the dead are not spoken to. *)

let check (events : Event.t list) =
  let violations = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* -- fault completion: every Fault is eventually Fault_done'd ---------- *)
  let faults = Hashtbl.create 64 in (* (span, host) -> open count *)
  let bump tbl key d =
    let v = d + Option.value ~default:0 (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key v;
    v
  in
  (* -- request/reply matching ------------------------------------------- *)
  let requested = Hashtbl.create 64 in (* span -> requesting host *)
  let replied = Hashtbl.create 64 in (* (span, host) -> unit *)
  let forwards = Hashtbl.create 64 in (* span -> forward count *)
  (* -- manager queue conservation --------------------------------------- *)
  let queued = ref 0 and dequeued = ref 0 in
  let queue_open = Hashtbl.create 16 in (* span -> unit *)
  (* -- single writer per minipage --------------------------------------- *)
  let write_open = Hashtbl.create 16 in (* mp_id -> (span, time) *)
  (* -- invalidation conservation ---------------------------------------- *)
  let inval_open = Hashtbl.create 16 in (* span -> outstanding target list ref *)
  (* -- home routing: serialization happens at one home per minipage ----- *)
  let homes = Hashtbl.create 64 in (* mp_id -> current home host *)
  let at_home what mp_id (e : Event.t) =
    (* Under Central no HOME_ASSIGN is emitted; the first managing host seen
       (host 0) calibrates the expectation.  Under sharded policies the
       assignment/redirect/promotion events keep the map current, so a queue or
       grant at any other host is a routing violation — SW/MR serialization
       would be split across two managers. *)
    match Hashtbl.find_opt homes mp_id with
    | None -> Hashtbl.replace homes mp_id e.host
    | Some home when home <> e.host ->
      flag "mp %d: %s at h%d at t=%.1f but its home is h%d" mp_id what e.host
        e.time home
    | Some _ -> ()
  in
  (* -- replicated home shards -------------------------------------------
     A promoted backup must observe every completion its primary acked: each
     completion the primary appended to its log (LOG_APPEND record
     "complete") must, by the time of BACKUP_PROMOTE, have been applied at
     the backup (LOG_APPLY) or closed during promotion (LOG_REPLAY with the
     request id in span). *)
  let log_acked = Hashtbl.create 16 in (* (primary, span) -> unit *)
  let log_seen = Hashtbl.create 16 in (* (primary, span) -> unit: applied/closed *)
  (* -- crash bookkeeping ------------------------------------------------- *)
  let crashed = Hashtbl.create 4 in (* host -> crash/declare time *)
  let knows_dead = Hashtbl.create 8 in (* (host, dead peer) -> unit *)
  let is_crashed h = Hashtbl.mem crashed h in
  let drop_dead_writer h =
    (* a write grant in flight to (or held by) a dead requester dies with
       it; recovery may re-grant the minipage to someone else *)
    Hashtbl.fold
      (fun mp (span, t0) acc ->
        match Hashtbl.find_opt requested span with
        | Some req_host when req_host = h -> (mp, span, t0) :: acc
        | _ -> acc)
      write_open []
    |> List.iter (fun (mp, _, _) -> Hashtbl.remove write_open mp)
  in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Fault _ -> ignore (bump faults (e.span, e.host) 1)
      | Event.Fault_done _ ->
        if bump faults (e.span, e.host) (-1) < 0 then
          flag "span %d: FAULT_DONE at h%d without a preceding FAULT" e.span e.host
      | Event.Request _ -> Hashtbl.replace requested e.span e.host
      | Event.Forward _ -> (
        ignore (bump forwards e.span 1);
        (match e.kind with
        | Event.Forward { mp_id; _ } -> at_home "FORWARD" mp_id e
        | _ -> ());
        match e.kind with
        | Event.Forward { access = Event.Write; mp_id; _ } -> (
          match Hashtbl.find_opt write_open mp_id with
          | Some (other, t0) when other <> e.span ->
            flag
              "mp %d: concurrent writers — span %d granted at t=%.1f while span %d \
               (granted t=%.1f) still holds the write"
              mp_id e.span e.time other t0
          | Some _ | None -> Hashtbl.replace write_open mp_id (e.span, e.time))
        | _ -> ())
      | Event.Reply _ ->
        if not (Hashtbl.mem requested e.span) then
          flag "span %d: REPLY at t=%.1f without a matching REQUEST" e.span e.time;
        (* exactly-once: a retransmitted request must not be served twice.
           A span the manager re-forwarded (crash recovery re-aims flights
           whose supplier died) may legitimately see a second reply. *)
        if Hashtbl.mem replied (e.span, e.host) then begin
          if Option.value ~default:0 (Hashtbl.find_opt forwards e.span) < 2 then
            flag "span %d: duplicate REPLY at h%d t=%.1f (request served twice)"
              e.span e.host e.time
        end
        else Hashtbl.replace replied (e.span, e.host) ()
      | Event.Queued { mp_id; _ } ->
        at_home "QUEUE" mp_id e;
        incr queued;
        if Hashtbl.mem queue_open e.span then
          flag "span %d: queued twice at the manager" e.span;
        Hashtbl.replace queue_open e.span ()
      | Event.Dequeued _ ->
        incr dequeued;
        if not (Hashtbl.mem queue_open e.span) then
          flag "span %d: dequeued at t=%.1f but never queued" e.span e.time
        else Hashtbl.remove queue_open e.span
      | Event.Ack { mp_id; _ } -> (
        match Hashtbl.find_opt write_open mp_id with
        | Some (span, _) when span = e.span -> Hashtbl.remove write_open mp_id
        | Some _ | None -> ())
      | Event.Inval { target; _ } ->
        let l =
          match Hashtbl.find_opt inval_open e.span with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add inval_open e.span l;
            l
        in
        l := target :: !l
      | Event.Inval_ack { from; _ } -> (
        let rec remove_first = function
          | [] -> None
          | t :: rest when t = from -> Some rest
          | t :: rest -> Option.map (fun r -> t :: r) (remove_first rest)
        in
        match Hashtbl.find_opt inval_open e.span with
        | Some l when List.mem from !l ->
          l := Option.value ~default:!l (remove_first !l)
        | _ ->
          flag "span %d: INVAL_ACK from h%d at t=%.1f without a matching INVAL"
            e.span from e.time)
      | Event.Host_crash | Event.Declare_dead ->
        if not (is_crashed e.host) then Hashtbl.add crashed e.host e.time;
        drop_dead_writer e.host
      | Event.Dead_notice { dead } -> Hashtbl.replace knows_dead (e.host, dead) ()
      | Event.Home_assign { mp_id; home } -> Hashtbl.replace homes mp_id home
      | Event.Home_redirect { mp_id; new_home; _ } ->
        Hashtbl.replace homes mp_id new_home
      | Event.Log_append { primary; record; _ } ->
        if record = "complete" && e.span <> Event.no_span then
          Hashtbl.replace log_acked (primary, e.span) ()
      | Event.Log_apply { primary; record; _ } ->
        if record = "complete" && e.span <> Event.no_span then
          Hashtbl.replace log_seen (primary, e.span) ()
      | Event.Log_replay { primary; _ } ->
        if e.span <> Event.no_span then Hashtbl.replace log_seen (primary, e.span) ()
      | Event.Backup_promote { primary; backup; _ } ->
        (* takeover keeps the home id: every minipage homed at the dead
           primary is now served by the backup *)
        Hashtbl.iter
          (fun mp_id home -> if home = primary then Hashtbl.replace homes mp_id backup)
          (Hashtbl.copy homes);
        Hashtbl.iter
          (fun (p, span) () ->
            if p = primary && not (Hashtbl.mem log_seen (p, span)) then
              flag
                "span %d: completion acked by dead primary h%d never reached its \
                 promoted backup h%d"
                span primary backup)
          log_acked
      | Event.Msg_send { dst; label; _ } ->
        (* never speak to the known dead (transport acks excepted: the
           receive path acks before it can know anything about the body) *)
        if
          Hashtbl.mem knows_dead (e.host, dst)
          && not (String.length label >= 4 && String.sub label 0 4 = "TACK")
        then
          flag "h%d sent %s to h%d at t=%.1f after learning it was declared dead"
            e.host label dst e.time
      | _ -> ())
    events;
  Hashtbl.iter
    (fun (span, host) n ->
      if n > 0 && not (is_crashed host) then
        flag "span %d: fault at h%d never completed (%d outstanding)" span host n)
    faults;
  Hashtbl.iter
    (fun span () -> flag "span %d: still queued at the manager at end of run" span)
    queue_open;
  if !queued <> !dequeued then
    flag "manager queue not conserved: %d queued vs %d dequeued" !queued !dequeued;
  Hashtbl.iter
    (fun span l ->
      (* invalidations aimed at a host that died before acking are excused —
         death is the ultimate invalidation *)
      let live_missing = List.filter (fun t -> not (is_crashed t)) !l in
      match live_missing with
      | [] -> ()
      | _ ->
        flag "span %d: %d invalidation(s) never acknowledged" span
          (List.length live_missing))
    inval_open;
  List.rev !violations

let ok events = check events = []
