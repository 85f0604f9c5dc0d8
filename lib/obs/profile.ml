(* mpprof: the online sharing-pattern profiler.

   A purely passive stream consumer: it hangs off a Recorder tap (or is fed
   an event list after the fact), maintains a per-minipage sharing signature
   plus per-host / per-home protocol-cost accounts, and classifies each
   sharing unit with Sharing.classify.  It never touches the simulation —
   no Engine interaction, no messages, no randomness — so profiler-on runs
   are bit-identical to profiler-off runs.

   Unit resolution: Mp_map events (emitted at allocation) index minipages by
   view; fault addresses resolve to the covering minipage.  Accesses that
   match no minipage (page-grain baselines without maps) fall back to a
   pseudo-unit per (view, vpage), with ids from [pseudo_base] upward.

   False-sharing attribution (the paper's Figure-5 effect):
   - intra-unit: an invalidation whose writer and target have *disjoint*
     byte footprints inside the unit was not required by the data — only by
     the co-location of unrelated data in one protection unit.
   - cross-unit: an invalidation targeting a host that never touched the
     unit, when a co-located unit (same view, overlapping vpages) *was*
     touched by that host — the victim unit records the false invalidation
     and the writer's unit is blamed as the culprit. *)

let pseudo_base = 1_000_000

(* ------------------------------------------------------------------ *)
(* Cost accounts                                                       *)
(* ------------------------------------------------------------------ *)

type host_cost = {
  mutable msgs : int;
  mutable bytes : int;
  mutable retransmits : int;
  mutable redirects : int;
  mutable data_msgs : int;
  mutable data_bytes : int;
  mutable heartbeat_msgs : int;
  mutable recovery_msgs : int;
  mutable control_msgs : int;
}

type home_cost = {
  mutable forwards : int;
  mutable invals_sent : int;
  mutable queued : int;
  mutable redirect_repairs : int;
}

let fresh_host_cost () =
  {
    msgs = 0;
    bytes = 0;
    retransmits = 0;
    redirects = 0;
    data_msgs = 0;
    data_bytes = 0;
    heartbeat_msgs = 0;
    recovery_msgs = 0;
    control_msgs = 0;
  }

let fresh_home_cost () =
  { forwards = 0; invals_sent = 0; queued = 0; redirect_repairs = 0 }

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* message-label taxonomy for the cause split; labels come from
   Proto.describe and the transport.  Substrings are chosen against
   those labels: "REPLY_" (not "REPLY") so INVALIDATE_REPLY stays control,
   "LEASE_" (not "LEASE") so BARRIER_RELEASE / LOCK_REL stay control. *)
type msg_cause = Data | Heartbeat | Recovery | Control

let cause_of_label label =
  if contains label "HEARTBEAT" then Heartbeat
  else if
    contains label "SHADOW" || contains label "DEAD" || contains label "RECOVER"
    || contains label "LEASE_"
  then Recovery
  else if
    contains label "DATA" || contains label "REPLY_" || contains label "GRANT"
    || contains label "PUSH"
  then Data
  else Control

(* ------------------------------------------------------------------ *)
(* Sharing units                                                       *)
(* ------------------------------------------------------------------ *)

type unit_info = {
  uid : int;
  mutable view : int;  (* -1 when unknown *)
  mutable base_addr : int;
  mutable length : int;
  mutable first_vpage : int;
  mutable last_vpage : int;
  sg : Sharing.signature_;
  mutable last_inval_span : int;
  acc_by_host : (int, int) Hashtbl.t;
  culprits : (int, int) Hashtbl.t;  (* culprit uid -> false invals blamed *)
}

type t = {
  thresholds : Sharing.thresholds;
  bucket_us : float;
  units : (int, unit_info) Hashtbl.t;
  by_view : (int, int list ref) Hashtbl.t;  (* view -> unit ids, newest first *)
  pseudo : (int * int, int) Hashtbl.t;  (* (view, vpage) -> pseudo uid *)
  mutable next_pseudo : int;
  host_costs : (int, host_cost) Hashtbl.t;
  home_costs : (int, home_cost) Hashtbl.t;
  timeline : (int, int * int * int) Hashtbl.t;
      (* bucket -> (events, invals, replies) *)
  mutable events : int;
  mutable last_time : float;
}

let create ?(thresholds = Sharing.default_thresholds) ?(bucket_us = 1000.0) () =
  {
    thresholds;
    bucket_us;
    units = Hashtbl.create 256;
    by_view = Hashtbl.create 64;
    pseudo = Hashtbl.create 32;
    next_pseudo = pseudo_base;
    host_costs = Hashtbl.create 16;
    home_costs = Hashtbl.create 16;
    timeline = Hashtbl.create 256;
    events = 0;
    last_time = 0.0;
  }

let unit_by_id t uid =
  match Hashtbl.find_opt t.units uid with
  | Some u -> u
  | None ->
    let u =
      {
        uid;
        view = -1;
        base_addr = -1;
        length = 0;
        first_vpage = -1;
        last_vpage = -1;
        sg = Sharing.fresh ();
        last_inval_span = -1;
        acc_by_host = Hashtbl.create 8;
        culprits = Hashtbl.create 4;
      }
    in
    Hashtbl.add t.units uid u;
    u

let view_units t view =
  match Hashtbl.find_opt t.by_view view with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.by_view view l;
    l

let host_cost t host =
  match Hashtbl.find_opt t.host_costs host with
  | Some c -> c
  | None ->
    let c = fresh_host_cost () in
    Hashtbl.add t.host_costs host c;
    c

let home_cost t home =
  match Hashtbl.find_opt t.home_costs home with
  | Some c -> c
  | None ->
    let c = fresh_home_cost () in
    Hashtbl.add t.home_costs home c;
    c

(* resolve a faulting address to its sharing unit *)
let resolve t ~view ~vpage ~addr =
  let covering =
    List.fold_left
      (fun acc uid ->
        match acc with
        | Some _ -> acc
        | None -> (
          match Hashtbl.find_opt t.units uid with
          | Some u
            when u.base_addr >= 0 && addr >= u.base_addr
                 && addr < u.base_addr + u.length ->
            Some u
          | _ -> None))
      None
      !(view_units t view)
  in
  match covering with
  | Some u -> u
  | None ->
    let uid =
      match Hashtbl.find_opt t.pseudo (view, vpage) with
      | Some uid -> uid
      | None ->
        let uid = t.next_pseudo in
        t.next_pseudo <- t.next_pseudo + 1;
        Hashtbl.add t.pseudo (view, vpage) uid;
        uid
    in
    let u = unit_by_id t uid in
    if u.view < 0 then begin
      u.view <- view;
      u.first_vpage <- vpage;
      u.last_vpage <- vpage;
      let l = view_units t view in
      l := uid :: !l
    end;
    u

let bump_access u host =
  let n = Option.value ~default:0 (Hashtbl.find_opt u.acc_by_host host) in
  Hashtbl.replace u.acc_by_host host (n + 1)

(* co-located units: same view, vpage ranges overlap *)
let co_located t u =
  List.filter_map
    (fun uid ->
      if uid = u.uid then None
      else
        match Hashtbl.find_opt t.units uid with
        | Some v
          when v.first_vpage >= 0 && u.first_vpage >= 0
               && v.first_vpage <= u.last_vpage && u.first_vpage <= v.last_vpage
          ->
          Some v
        | _ -> None)
    !(view_units t u.view)
  |> List.sort (fun a b -> compare a.uid b.uid)

let bucket_bump t ~time ~inval ~reply =
  let b = int_of_float (time /. t.bucket_us) in
  let ev, iv, rp =
    Option.value ~default:(0, 0, 0) (Hashtbl.find_opt t.timeline b)
  in
  Hashtbl.replace t.timeline b
    (ev + 1, iv + (if inval then 1 else 0), rp + if reply then 1 else 0)

(* ------------------------------------------------------------------ *)
(* The stream consumer                                                 *)
(* ------------------------------------------------------------------ *)

let feed t (e : Event.t) =
  t.events <- t.events + 1;
  if e.time > t.last_time then t.last_time <- e.time;
  let inval = match e.kind with Event.Inval _ -> true | _ -> false in
  let reply = match e.kind with Event.Reply _ -> true | _ -> false in
  bucket_bump t ~time:e.time ~inval ~reply;
  match e.kind with
  | Event.Mp_map { mp_id; view; base_addr; length; first_vpage; last_vpage } ->
    let u = unit_by_id t mp_id in
    let fresh_in_view = u.view <> view in
    u.view <- view;
    u.base_addr <- base_addr;
    u.length <- length;
    u.first_vpage <- first_vpage;
    u.last_vpage <- last_vpage;
    if fresh_in_view then begin
      let l = view_units t view in
      if not (List.mem mp_id !l) then l := mp_id :: !l
    end
  | Event.Fault { access; addr; view; vpage } ->
    let u = resolve t ~view ~vpage ~addr in
    bump_access u e.host;
    Sharing.note_access u.sg e.host
      ~write:(match access with Event.Write -> true | Event.Read -> false)
      ~addr
  | Event.Reply { access = _; mp_id; bytes } ->
    let sg = (unit_by_id t mp_id).sg in
    sg.Sharing.transfers <- sg.Sharing.transfers + 1;
    sg.Sharing.bytes_in <- sg.Sharing.bytes_in + bytes
  | Event.Inval { mp_id; target; writer } ->
    let u = unit_by_id t mp_id in
    let sg = u.sg in
    sg.Sharing.invals <- sg.Sharing.invals + 1;
    sg.Sharing.inval_targets <- sg.Sharing.inval_targets + 1;
    if e.span <> u.last_inval_span then begin
      u.last_inval_span <- e.span;
      sg.Sharing.inval_rounds <- sg.Sharing.inval_rounds + 1
    end;
    let target_touched_u = Hashtbl.mem u.acc_by_host target in
    if target_touched_u then begin
      (* intra-unit: did the writer and the invalidated host actually share
         bytes, or just the protection unit? *)
      if writer >= 0 then begin
        let fw = Sharing.footprint sg writer
        and ft = Sharing.footprint sg target in
        if
          fw <> Sharing.Footprint.empty
          && ft <> Sharing.Footprint.empty
          && not (Sharing.Footprint.overlaps fw ft)
        then sg.Sharing.false_invals <- sg.Sharing.false_invals + 1
      end
    end
    else begin
      (* cross-unit: the target never touched this minipage; blame the
         co-located unit it did touch (lowest uid for determinism) *)
      match
        List.find_opt
          (fun v -> Hashtbl.mem v.acc_by_host target)
          (co_located t u)
      with
      | Some victim ->
        victim.sg.Sharing.false_invals <- victim.sg.Sharing.false_invals + 1;
        sg.Sharing.false_caused <- sg.Sharing.false_caused + 1;
        let n =
          Option.value ~default:0 (Hashtbl.find_opt victim.culprits u.uid)
        in
        Hashtbl.replace victim.culprits u.uid (n + 1)
      | None -> ()
    end
  | Event.Msg_send { dst = _; bytes; label } ->
    let c = host_cost t e.host in
    c.msgs <- c.msgs + 1;
    c.bytes <- c.bytes + bytes;
    (match cause_of_label label with
    | Data ->
      c.data_msgs <- c.data_msgs + 1;
      c.data_bytes <- c.data_bytes + bytes
    | Heartbeat -> c.heartbeat_msgs <- c.heartbeat_msgs + 1
    | Recovery -> c.recovery_msgs <- c.recovery_msgs + 1
    | Control -> c.control_msgs <- c.control_msgs + 1)
  | Event.Retransmit _ ->
    let c = host_cost t e.host in
    c.retransmits <- c.retransmits + 1
  | Event.Home_redirect { old_home; _ } ->
    (host_cost t e.host).redirects <- (host_cost t e.host).redirects + 1;
    let hc = home_cost t old_home in
    hc.redirect_repairs <- hc.redirect_repairs + 1
  | Event.Forward _ ->
    let hc = home_cost t e.host in
    hc.forwards <- hc.forwards + 1
  | Event.Queued _ ->
    let hc = home_cost t e.host in
    hc.queued <- hc.queued + 1
  | Event.Inval_ack _ -> ()
  | _ -> ()

let feed_all t events = List.iter (feed t) events

(* ------------------------------------------------------------------ *)
(* Recorder attachment                                                 *)
(* ------------------------------------------------------------------ *)

(* mutex-guarded: parallel mpcheck workers may attach one profiler per
   per-domain recorder, and the registry list is the only shared state *)
let registry : (Recorder.t * t) list ref = ref []
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let attached r = with_registry (fun () -> List.assq_opt r !registry)

let detach r =
  with_registry (fun () ->
      if List.mem_assq r !registry then begin
        Recorder.set_tap r None;
        registry := List.filter (fun (r', _) -> r' != r) !registry
      end)

let attach ?thresholds ?bucket_us r =
  detach r;
  let t = create ?thresholds ?bucket_us () in
  with_registry (fun () ->
      Recorder.set_tap r (Some (feed t));
      registry := (r, t) :: !registry);
  t

(* ------------------------------------------------------------------ *)
(* Read-out                                                            *)
(* ------------------------------------------------------------------ *)

let event_count t = t.events

let classify t u = Sharing.classify ~thresholds:t.thresholds u.sg

let sorted_units t =
  Hashtbl.fold (fun _ u acc -> u :: acc) t.units []
  |> List.sort (fun a b -> compare a.uid b.uid)

let sorted_hosts t =
  Hashtbl.fold (fun h c acc -> (h, c) :: acc) t.host_costs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sorted_homes t =
  Hashtbl.fold (fun h c acc -> (h, c) :: acc) t.home_costs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

type unit_stat = {
  s_uid : int;
  s_view : int;
  s_pattern : Sharing.pattern;
  s_sg : Sharing.signature_;
  s_culprits : (int * int) list;  (* co-located culprit uid, blamed invals *)
}

let units t =
  List.map
    (fun u ->
      {
        s_uid = u.uid;
        s_view = u.view;
        s_pattern = classify t u;
        s_sg = u.sg;
        s_culprits =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) u.culprits []
          |> List.sort (fun (a, _) (b, _) -> compare a b);
      })
    (sorted_units t)

let all_patterns =
  [
    Sharing.Private;
    Sharing.Read_mostly;
    Sharing.Migratory;
    Sharing.Producer_consumer;
    Sharing.Write_shared;
    Sharing.Falsely_shared;
    Sharing.Low_traffic;
  ]

let summary t =
  let us = sorted_units t in
  List.map
    (fun p ->
      ( Sharing.pattern_name p,
        List.length (List.filter (fun u -> classify t u = p) us) ))
    all_patterns

let hosts t = sorted_hosts t
let homes t = sorted_homes t

let host_msgs c = c.msgs
let host_bytes c = c.bytes

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let heat_char n =
  if n <= 0 then '.'
  else if n < 4 then ':'
  else if n < 16 then '+'
  else if n < 64 then '#'
  else '@'

let unit_label u =
  if u.uid >= pseudo_base then
    Printf.sprintf "v%d/p%d" u.view u.first_vpage
  else Printf.sprintf "mp%d" u.uid

let heatmap t =
  let us =
    sorted_units t
    |> List.filter (fun u -> Sharing.accesses u.sg > 0)
    |> List.sort (fun a b ->
           compare (Sharing.accesses b.sg, a.uid) (Sharing.accesses a.sg, b.uid))
  in
  let us = List.filteri (fun i _ -> i < 16) us in
  let hs = List.map fst (sorted_hosts t) |> List.filter (fun h -> h >= 0) in
  if us = [] || hs = [] then ""
  else begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "access heatmap (units x hosts):\n";
    Buffer.add_string buf (Printf.sprintf "  %10s " "");
    List.iter (fun h -> Buffer.add_string buf (Printf.sprintf "%2d " (h mod 100))) hs;
    Buffer.add_char buf '\n';
    List.iter
      (fun u ->
        Buffer.add_string buf (Printf.sprintf "  %10s " (unit_label u));
        List.iter
          (fun h ->
            let n =
              Option.value ~default:0 (Hashtbl.find_opt u.acc_by_host h)
            in
            Buffer.add_string buf (Printf.sprintf " %c " (heat_char n)))
          hs;
        Buffer.add_string buf
          (Printf.sprintf " %s\n" (Sharing.pattern_name (classify t u))))
      us;
    Buffer.contents buf
  end

let report t =
  let open Mp_util in
  let sections = ref [] in
  let push s = if s <> "" then sections := s :: !sections in
  (* pattern summary *)
  push
    (Tab.render ~header:[ "pattern"; "units" ]
       (List.filter_map
          (fun (name, n) ->
            if n = 0 then None else Some [ name; string_of_int n ])
          (summary t)));
  (* top units *)
  let us =
    sorted_units t
    |> List.filter (fun u -> Sharing.accesses u.sg > 0)
    |> List.sort (fun a b ->
           compare (Sharing.accesses b.sg, a.uid) (Sharing.accesses a.sg, b.uid))
  in
  let top = List.filteri (fun i _ -> i < 12) us in
  if top <> [] then
    push
      (Tab.render
         ~header:
           [ "unit"; "pattern"; "rd"; "wr"; "hosts"; "xfers"; "inv"; "false" ]
         (List.map
            (fun u ->
              let sg = u.sg in
              [
                unit_label u;
                Sharing.pattern_name (classify t u);
                string_of_int sg.Sharing.reads;
                string_of_int sg.Sharing.writes;
                string_of_int
                  (Mp_util.Host_set.cardinal sg.Sharing.readers
                  + Mp_util.Host_set.cardinal sg.Sharing.writers);
                string_of_int sg.Sharing.transfers;
                string_of_int sg.Sharing.invals;
                string_of_int (sg.Sharing.false_invals + sg.Sharing.false_caused);
              ])
            top));
  (* false-sharing blame lines *)
  List.iter
    (fun u ->
      Hashtbl.fold (fun culprit n acc -> (culprit, n) :: acc) u.culprits []
      |> List.sort compare
      |> List.iter (fun (culprit, n) ->
             push
               (Printf.sprintf
                  "  %s: %d false invalidation(s) caused by co-located mp%d"
                  (unit_label u) n culprit)))
    us;
  push (heatmap t);
  (* per-host cost *)
  (match sorted_hosts t with
  | [] -> ()
  | hs ->
    push
      (Tab.render
         ~header:
           [ "host"; "msgs"; "bytes"; "data"; "hb"; "recov"; "ctl"; "rexmit"; "redir" ]
         (List.map
            (fun (h, c) ->
              [
                (if h < 0 then "sim" else string_of_int h);
                string_of_int c.msgs;
                string_of_int c.bytes;
                string_of_int c.data_msgs;
                string_of_int c.heartbeat_msgs;
                string_of_int c.recovery_msgs;
                string_of_int c.control_msgs;
                string_of_int c.retransmits;
                string_of_int c.redirects;
              ])
            hs)));
  (* per-home cost *)
  (match sorted_homes t with
  | [] -> ()
  | hs ->
    push
      (Tab.render
         ~header:[ "home"; "forwards"; "invals"; "queued"; "redirs" ]
         (List.map
            (fun (h, c) ->
              [
                string_of_int h;
                string_of_int c.forwards;
                string_of_int c.invals_sent;
                string_of_int c.queued;
                string_of_int c.redirect_repairs;
              ])
            hs)));
  String.concat "\n" (List.rev !sections)

(* ------------------------------------------------------------------ *)
(* JSON / Perfetto export                                              *)
(* ------------------------------------------------------------------ *)

let to_json ?(meta = []) t =
  let buf = Buffer.create 2048 in
  let esc = Event.json_escape in
  Buffer.add_char buf '{';
  if meta <> [] then begin
    Buffer.add_string buf "\"meta\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc v)))
      meta;
    Buffer.add_string buf "},"
  end;
  Buffer.add_string buf (Printf.sprintf "\"events\":%d," t.events);
  Buffer.add_string buf "\"summary\":{";
  List.iteri
    (fun i (name, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" name n))
    (summary t);
  Buffer.add_string buf "},\"units\":[";
  List.iteri
    (fun i u ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"uid\":%d,\"label\":\"%s\",\"view\":%d,\"pattern\":\"%s\",\"sig\":%s"
           u.uid (esc (unit_label u)) u.view
           (Sharing.pattern_name (classify t u))
           (Sharing.to_json u.sg));
      let culprits =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) u.culprits []
        |> List.sort compare
      in
      if culprits <> [] then begin
        Buffer.add_string buf ",\"culprits\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (Printf.sprintf "\"mp%d\":%d" k v))
          culprits;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    (sorted_units t);
  Buffer.add_string buf "],\"hosts\":[";
  List.iteri
    (fun i (h, c) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"host\":%d,\"msgs\":%d,\"bytes\":%d,\"data_msgs\":%d,\"data_bytes\":%d,\"heartbeat_msgs\":%d,\"recovery_msgs\":%d,\"control_msgs\":%d,\"retransmits\":%d,\"redirects\":%d}"
           h c.msgs c.bytes c.data_msgs c.data_bytes c.heartbeat_msgs
           c.recovery_msgs c.control_msgs c.retransmits c.redirects))
    (sorted_hosts t);
  Buffer.add_string buf "],\"homes\":[";
  List.iteri
    (fun i (h, c) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"home\":%d,\"forwards\":%d,\"invals\":%d,\"queued\":%d,\"redirects\":%d}"
           h c.forwards c.invals_sent c.queued c.redirect_repairs))
    (sorted_homes t);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let perfetto_counters t =
  Hashtbl.fold (fun b v acc -> (b, v) :: acc) t.timeline []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.concat_map (fun (b, (ev, iv, rp)) ->
         let ts = float_of_int b *. t.bucket_us in
         [
           Export.counter ~name:"profile: events" ~ts ~pid:0 ~value:ev;
           Export.counter ~name:"profile: invalidations" ~ts ~pid:0 ~value:iv;
           Export.counter ~name:"profile: data transfers" ~ts ~pid:0 ~value:rp;
         ])
