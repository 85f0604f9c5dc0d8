(* Chrome trace-event JSON (the format ui.perfetto.dev and chrome://tracing
   open directly).  Layout: one process per host ("host N"), pid = host + 1
   (pid 0 is reserved for simulator-level events); fault services are "X"
   duration slices on each host's track, manager-side queue-wait and
   invalidation rounds are slices on the manager's track, messages and
   sweeper wakes are instant events, and the manager queue depth is a "C"
   counter series. *)

let buf_add_event buf ~first json =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  Buffer.add_string buf json

let esc = Event.json_escape

let pid_of_host host = host + 1 (* host -1 (simulator) lands on pid 0 *)

let slice ~name ~cat ~ts ~dur ~pid ~tid ~args =
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d%s}"
    (esc name) cat ts dur pid tid
    (if args = "" then "" else Printf.sprintf ",\"args\":{%s}" args)

let instant ~name ~cat ~ts ~pid ~tid ~args =
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d%s}"
    (esc name) cat ts pid tid
    (if args = "" then "" else Printf.sprintf ",\"args\":{%s}" args)

let counter ~name ~ts ~pid ~value =
  Printf.sprintf
    "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"args\":{\"depth\":%d}}"
    (esc name) ts pid value

let metadata ~name ~pid ~label =
  Printf.sprintf
    "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}" name pid
    (esc label)

let perfetto_json ?(extra = []) (events : Event.t list) =
  let buf = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let add = buf_add_event buf ~first in
  (* process metadata: one per host seen, plus the simulator track *)
  let hosts = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      if not (Hashtbl.mem hosts e.host) then Hashtbl.add hosts e.host ())
    events;
  Hashtbl.fold (fun h () acc -> h :: acc) hosts []
  |> List.sort compare
  |> List.iter (fun h ->
         let label = if h < 0 then "simulator" else Printf.sprintf "host %d" h in
         add (metadata ~name:"process_name" ~pid:(pid_of_host h) ~label));
  (* pass 1: collect span-open state to pair begin/end events *)
  let fault_open = Hashtbl.create 64 in (* (span, host) -> Fault event *)
  let queue_open = Hashtbl.create 16 in (* span -> Queued event *)
  let inval_open = Hashtbl.create 16 in (* span -> (time, host, mp_id) *)
  let depth = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      let pid = pid_of_host e.host in
      match e.kind with
      | Event.Fault _ -> Hashtbl.replace fault_open (e.span, e.host) e
      | Event.Fault_done { access } -> (
        match Hashtbl.find_opt fault_open (e.span, e.host) with
        | Some f ->
          Hashtbl.remove fault_open (e.span, e.host);
          let name = Printf.sprintf "%s fault" (Event.access_to_string access) in
          add
            (slice ~name ~cat:"fault" ~ts:f.time ~dur:(e.time -. f.time) ~pid ~tid:0
               ~args:
                 (Printf.sprintf "\"span\":%d,\"detail\":\"%s\"" e.span
                    (esc (Event.detail f.kind))))
        | None -> ())
      | Event.Queued { mp_id = _; depth = d } ->
        Hashtbl.replace queue_open e.span e;
        depth := d;
        add (counter ~name:"manager queue depth" ~ts:e.time ~pid ~value:d)
      | Event.Dequeued { mp_id; waited_us = _ } -> (
        depth := max 0 (!depth - 1);
        add (counter ~name:"manager queue depth" ~ts:e.time ~pid ~value:!depth);
        match Hashtbl.find_opt queue_open e.span with
        | Some q ->
          Hashtbl.remove queue_open e.span;
          add
            (slice ~name:"queue wait" ~cat:"phase" ~ts:q.time ~dur:(e.time -. q.time)
               ~pid ~tid:1
               ~args:(Printf.sprintf "\"span\":%d,\"mp\":%d" e.span mp_id))
        | None -> ())
      | Event.Inval { mp_id; _ } ->
        if not (Hashtbl.mem inval_open e.span) then
          Hashtbl.add inval_open e.span (e.time, e.host, mp_id)
      | Event.Inval_ack { mp_id = _; from = _ } -> ()
      | Event.Ack _ -> (
        (* the span's invalidation round, if any, is closed by its reply;
           draw it when the span completes at the manager *)
        match Hashtbl.find_opt inval_open e.span with
        | Some _ -> ()
        | None -> ())
      | _ -> ())
    events;
  (* invalidation rounds: first Inval to last Inval_ack per span *)
  let inval_last = Hashtbl.create 16 in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Inval_ack _ -> Hashtbl.replace inval_last e.span e.time
      | _ -> ())
    events;
  Hashtbl.iter
    (fun span (t0, host, mp_id) ->
      match Hashtbl.find_opt inval_last span with
      | Some t1 when t1 > t0 ->
        add
          (slice ~name:"invalidation" ~cat:"phase" ~ts:t0 ~dur:(t1 -. t0)
             ~pid:(pid_of_host host) ~tid:1
             ~args:(Printf.sprintf "\"span\":%d,\"mp\":%d" span mp_id))
      | Some _ | None -> ())
    inval_open;
  (* instants: messages, synchronization, sweeper *)
  List.iter
    (fun (e : Event.t) ->
      let pid = pid_of_host e.host in
      let name = Event.kind_name e.kind and det = Event.detail e.kind in
      let args =
        if det = "" then Printf.sprintf "\"span\":%d" e.span
        else Printf.sprintf "\"span\":%d,\"detail\":\"%s\"" e.span (esc det)
      in
      match e.kind with
      | Event.Msg_send _ | Event.Msg_recv _ ->
        add (instant ~name ~cat:"net" ~ts:e.time ~pid ~tid:2 ~args)
      | Event.Sweeper_wake ->
        add (instant ~name ~cat:"net" ~ts:e.time ~pid ~tid:2 ~args)
      | Event.Net_drop _ | Event.Net_dup _ | Event.Net_reorder _
      | Event.Retransmit _ | Event.Dup_suppressed _ ->
        add (instant ~name ~cat:"net" ~ts:e.time ~pid ~tid:2 ~args)
      | Event.Barrier_enter _ | Event.Barrier_exit _ | Event.Lock_acquire _
      | Event.Lock_grant _ | Event.Lock_release _ ->
        add (instant ~name ~cat:"sync" ~ts:e.time ~pid ~tid:0 ~args)
      | Event.Request _ | Event.Forward _ | Event.Reply _ | Event.Prefetch _
      | Event.Ack _ | Event.Inval _ | Event.Inval_ack _ ->
        add (instant ~name ~cat:"proto" ~ts:e.time ~pid ~tid:1 ~args)
      | Event.Host_crash | Event.Host_stall _ | Event.Heartbeat_miss _
      | Event.Suspect | Event.Declare_dead | Event.Dead_notice _
      | Event.Shadow_refresh _ | Event.Shadow_sync _ | Event.Recover_minipage _
      | Event.Lease_revoke _ | Event.Barrier_reconfig _ | Event.Log_append _
      | Event.Log_apply _ | Event.Backup_promote _ | Event.Log_replay _ ->
        add (instant ~name ~cat:"crash" ~ts:e.time ~pid ~tid:0 ~args)
      | Event.Home_assign _ | Event.Home_redirect _ | Event.Mp_map _ ->
        add (instant ~name ~cat:"proto" ~ts:e.time ~pid ~tid:1 ~args)
      | Event.Mark _ -> add (instant ~name ~cat:"mark" ~ts:e.time ~pid ~tid:0 ~args)
      | Event.Fault _ | Event.Fault_done _ | Event.Queued _ | Event.Dequeued _ -> ())
    events;
  List.iter add extra;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let with_file path write =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)

let write_perfetto ?extra path events =
  with_file path (fun oc -> output_string oc (perfetto_json ?extra events))

(* Streamed line by line: a long trace never becomes one string. *)
let write_jsonl path (events : Event.t list) =
  with_file path (fun oc ->
      List.iter
        (fun e ->
          output_string oc (Event.to_json e);
          output_char oc '\n')
        events)
