(* An event is built once, with its label and callback, and posted again and
   again.  [at] repeats its queue time as a boxed float, so firing it sets the
   clock without boxing one; it is [idle] while the event is not queued. *)
type event = { run : unit -> unit; label : string; mutable at : float }

let idle = neg_infinity

(* A process has at most one pending event at a time, its delay timer or
   its resumption, so it needs one slot for the continuation it is parked
   on, made at its first park, and its two wake-up events are built once,
   at spawn. *)
type proc = {
  name : string;
  mutable cancelled : bool;
  mutable finished : bool;
  mutable parked : (unit, unit) Effect.Deep.continuation array;
  mutable susp : int;  (* id of the live suspension; 0 when none *)
  mutable on : string;  (* name of the live suspension *)
}

type chooser = {
  choose : time:float -> labels:string array -> int;
  perturb_latency : label:string -> now:float -> float;
}

type t = {
  mutable now : float;
  queue : event Pqueue.t;
  mutable seq : int;
  mutable live : int;
  mutable stopped : bool;
  blocked_tbl : (int, proc) Hashtbl.t;  (* live suspensions by id *)
  mutable susp_id : int;
  mutable chooser : chooser option;
  groups : (int, proc list ref) Hashtbl.t;
  (* Arguments of the effect being performed.  The handler reads them at
     once, so performing an effect allocates no payload. *)
  mutable arg_delay : float;
  mutable arg_label : string;
  mutable arg_register : (unit -> unit) -> unit;
}

exception Not_in_process
exception Stopped
exception Killed

type _ Effect.t += Delay : unit Effect.t | Suspend : unit Effect.t | Self_name : string Effect.t

let no_register (_ : unit -> unit) = ()

let create () =
  {
    now = 0.0;
    queue = Pqueue.create ();
    seq = 0;
    live = 0;
    stopped = false;
    blocked_tbl = Hashtbl.create 32;
    susp_id = 0;
    chooser = None;
    groups = Hashtbl.create 8;
    arg_delay = 0.0;
    arg_label = "";
    arg_register = no_register;
  }

let now t = t.now

let set_chooser t c = t.chooser <- c
let chooser_active t = t.chooser <> None

let perturb_latency t ~label =
  match t.chooser with
  | None -> 0.0
  | Some c -> Float.max 0.0 (c.perturb_latency ~label ~now:t.now)

let event ~label run = { run; label; at = idle }

(* A queued event's time is never below the clock, so never [idle]. *)
let post t ev ~at =
  if ev.at <> idle then invalid_arg "Engine.post: event already queued";
  ev.at <- at;
  if at < t.now then ev.at <- t.now;
  t.seq <- t.seq + 1;
  Pqueue.push t.queue ~time:ev.at ~seq:t.seq ev

let schedule t ~at ?(label = "cb") run = post t (event ~label run) ~at

let park st k = if Array.length st.parked = 0 then st.parked <- [| k |] else st.parked.(0) <- k

(* A continuation left in the slot has been resumed, and resuming it again
   raises. *)
let take_parked st =
  if Array.length st.parked = 0 then invalid_arg "Engine: no parked continuation";
  st.parked.(0)

let spawn t ?(name = "proc") ?group f =
  t.live <- t.live + 1;
  let st = { name; cancelled = false; finished = false; parked = [||]; susp = 0; on = "" } in
  (match group with
  | None -> ()
  | Some g ->
    let l =
      match Hashtbl.find_opt t.groups g with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add t.groups g l;
        l
    in
    l := st :: !l);
  let finish () =
    st.finished <- true;
    t.live <- t.live - 1
  in
  let delay_ev =
    event ~label:("delay:" ^ name) (fun () ->
        let k = take_parked st in
        if st.cancelled then Effect.Deep.discontinue k Killed else Effect.Deep.continue k ())
  in
  let resume_ev =
    event ~label:("resume:" ^ name) (fun () -> Effect.Deep.continue (take_parked st) ())
  in
  (* the one-shot [resume] handed out by suspension [id] *)
  let resume id () =
    if st.susp = id then begin
      st.susp <- 0;
      Hashtbl.remove t.blocked_tbl id;
      if t.stopped then
        (* Unwind the fiber so daemon loops exit cleanly. *)
        Effect.Deep.discontinue (take_parked st) Stopped
      else if st.cancelled then Effect.Deep.discontinue (take_parked st) Killed
      else post t resume_ev ~at:t.now
    end
  in
  let on_delay =
    Some
      (fun k ->
        park st k;
        let d = if t.arg_delay < 0.0 then 0.0 else t.arg_delay in
        post t delay_ev ~at:(t.now +. d))
  in
  let on_suspend =
    Some
      (fun k ->
        let register = t.arg_register in
        t.arg_register <- no_register;
        t.susp_id <- t.susp_id + 1;
        let id = t.susp_id in
        Hashtbl.replace t.blocked_tbl id st;
        park st k;
        st.susp <- id;
        st.on <- t.arg_label;
        register (resume id))
  in
  let handler =
    {
      Effect.Deep.retc = (fun () -> finish ());
      exnc =
        (function
        | Stopped | Killed -> finish ()
        | e ->
          (* a crashing process is still an exit: keep [live] balanced *)
          finish ();
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Delay -> on_delay
          | Suspend -> on_suspend
          | Self_name -> Some (fun k -> Effect.Deep.continue k name)
          | _ -> None);
    }
  in
  post t
    (event ~label:("start:" ^ name) (fun () ->
         if st.cancelled then finish () else Effect.Deep.match_with f () handler))
    ~at:t.now

(* A process finds its engine through a domain-local "current engine", set
   for the length of each [run]/[run_until].  Domain-local storage (not a
   plain ref) so that several domains — the parallel mpcheck explorer runs
   one engine per worker — never observe each other's current engine. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let the_engine () =
  match Domain.DLS.get current with Some t -> t | None -> raise Not_in_process

let perform (type a) (eff : a Effect.t) : a =
  try Effect.perform eff with Effect.Unhandled _ -> raise Not_in_process

let delay d =
  let t = the_engine () in
  t.arg_delay <- d;
  perform Delay

let yield () = delay 0.0

let suspend ~name register =
  let t = the_engine () in
  t.arg_label <- name;
  t.arg_register <- register;
  perform Suspend

let self_name () = perform Self_name

(* A fired event is no longer queued, so its callback may post it again. *)
let fire t e =
  t.now <- e.at;
  e.at <- idle;
  e.run ()

(* Exploration path: pop the whole same-instant group, let the chooser pick
   one, and push the rest back with their seqs intact — so a chooser that
   always answers 0 reproduces the deterministic order exactly, and a group
   of n events yields n-1 successive choice points.  The events pushed back
   keep their time, so they stay marked queued. *)
let run_chosen t c =
  match Pqueue.pop_min_group t.queue with
  | None -> ()
  | Some (time, group) ->
    let group = Array.of_list group in
    let labels = Array.map (fun (_, e) -> e.label) group in
    let pick = c.choose ~time ~labels in
    let pick = if pick < 0 || pick >= Array.length group then 0 else pick in
    Array.iteri (fun i (seq, e) -> if i <> pick then Pqueue.push t.queue ~time ~seq e) group;
    fire t (snd group.(pick))

let step t =
  if Pqueue.is_empty t.queue then false
  else begin
    (match t.chooser with
    | Some c when Pqueue.min_tied t.queue -> run_chosen t c
    | Some _ | None -> fire t (Pqueue.pop t.queue));
    true
  end

let with_current t thunk =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) thunk

(* [run] leaves [Pqueue.min_time] out of its loop: the float it returns is
   boxed when the call is not inlined. *)
let run t =
  t.stopped <- false;
  with_current t (fun () -> while (not t.stopped) && step t do () done)

let run_until t limit =
  t.stopped <- false;
  with_current t (fun () ->
      while (not t.stopped) && Pqueue.min_time t.queue <= limit && step t do () done);
  if t.now < limit then t.now <- limit

let stop t = t.stopped <- true
let live t = t.live
let blocked t = Hashtbl.fold (fun _ st acc -> (st.name, st.on) :: acc) t.blocked_tbl []

let kill_group t g =
  match Hashtbl.find_opt t.groups g with
  | None -> 0
  | Some l ->
    let killed = ref 0 in
    List.iter
      (fun st ->
        if not (st.finished || st.cancelled) then begin
          st.cancelled <- true;
          incr killed;
          (* Suspended processes unwind immediately; processes waiting on a
             Delay unwind when their timer fires (sim time still advances
             past the crash, but no further user code runs). *)
          if st.susp <> 0 then begin
            Hashtbl.remove t.blocked_tbl st.susp;
            st.susp <- 0;
            Effect.Deep.discontinue (take_parked st) Killed
          end
        end)
      !l;
    !killed
