(* An event is built once, with its label and callback, and posted again and
   again; [queued] is set while it sits in the heap. *)
type event = { run : unit -> unit; label : string; mutable queued : bool }

type chooser = {
  choose : time:float -> labels:string array -> int;
  perturb_latency : label:string -> now:float -> float;
}

(* Every float the hot path moves lives in a [Float.Array] slot: the dev
   profile compiles each module with [-opaque], so a float passed to or
   returned from a function that is not inlined is boxed.  The heap is three
   parallel arrays, ordered by (time, seq), and a post takes its time from
   the one-slot [at].  The clock is [clock.(0)]; [now_box] caches it boxed,
   and is refreshed by the first [now] of each instant. *)
type t = {
  clock : Float.Array.t;
  mutable now_box : float;
  at : Float.Array.t;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable evs : event array;
  mutable size : int;
  mutable seq : int;
  mutable live : int;
  mutable stopped : bool;
  mutable procs : proc list;  (* every spawned process, latest first *)
  mutable susp_id : int;
  mutable chooser : chooser option;
  groups : (int, proc list ref) Hashtbl.t;
  (* Arguments of the effect being performed.  The handler reads them at
     once, so performing an effect allocates no payload; the delay is a
     slot, so a delay computed inside the engine is not boxed. *)
  arg_delay : Float.Array.t;
  mutable arg_ring : ring;
  mutable arg_label : string;
  mutable arg_then : unit -> unit;
}

(* A process has at most one pending event at a time, its delay timer or
   its resumption, so it needs one slot for the continuation it is parked
   on, made at its first park, and its two wake-up events are built once,
   at spawn. *)
and proc = {
  name : string;
  eng : t;
  mutable cancelled : bool;
  mutable finished : bool;
  mutable cont : (unit, unit) Effect.Deep.continuation array;
  mutable susp : int;  (* id of the live suspension; 0 when none *)
  mutable on : string;  (* name of the live suspension *)
  mutable resume_ev : event;
}

(* Parked processes, oldest first: the [len] entries from [head] of two
   parallel arrays whose length is a power of two.  An entry is a process
   and the id of the suspension it parked with; it is stale once that
   suspension has ended. *)
and ring = {
  mutable waiting : proc array;
  mutable ids : int array;
  mutable head : int;
  mutable len : int;
}

exception Not_in_process
exception Stopped
exception Killed

type _ Effect.t += Delay : unit Effect.t | Park : unit Effect.t

let no_then () = ()
let ring () = { waiting = [||]; ids = [||]; head = 0; len = 0 }
let parked r = r.len
let no_ring = ring ()
let no_event = { run = ignore; label = ""; queued = false }

let create () =
  {
    clock = Float.Array.make 1 0.0;
    now_box = 0.0;
    at = Float.Array.make 1 0.0;
    times = Float.Array.create 0;
    seqs = [||];
    evs = [||];
    size = 0;
    seq = 0;
    live = 0;
    stopped = false;
    procs = [];
    susp_id = 0;
    chooser = None;
    groups = Hashtbl.create 8;
    arg_delay = Float.Array.make 1 0.0;
    arg_ring = no_ring;
    arg_label = "";
    arg_then = no_then;
  }

let now t =
  let c = Float.Array.get t.clock 0 in
  if c <> t.now_box then t.now_box <- c;
  t.now_box

let now_into t a i = Float.Array.set a i (Float.Array.get t.clock 0)

let set_chooser t c = t.chooser <- c
let chooser_active t = t.chooser <> None

let perturb_latency t ~label =
  match t.chooser with
  | None -> 0.0
  | Some c -> Float.max 0.0 (c.perturb_latency ~label ~now:(now t))

let event ~label run = { run; label; queued = false }

(* ---- the heap ---- *)

let less t i j =
  let a = Float.Array.get t.times i and b = Float.Array.get t.times j in
  a < b || (a = b && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = Float.Array.get t.times i in
  Float.Array.set t.times i (Float.Array.get t.times j);
  Float.Array.set t.times j time;
  let seq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- seq;
  let ev = t.evs.(i) in
  t.evs.(i) <- t.evs.(j);
  t.evs.(j) <- ev

let grow t =
  let ncap = max 16 (2 * Array.length t.evs) in
  let times = Float.Array.make ncap 0.0 in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let evs = Array.make ncap no_event in
  Array.blit t.evs 0 evs 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.evs <- evs

(* Inserts [ev] at the time in [at.(0)] with the given seq. *)
let push t ~seq ev =
  if t.size = Array.length t.evs then grow t;
  let i = ref t.size in
  Float.Array.set t.times !i (Float.Array.get t.at 0);
  t.seqs.(!i) <- seq;
  t.evs.(!i) <- ev;
  t.size <- t.size + 1;
  while !i > 0 && less t !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    swap t !i p;
    i := p
  done

(* Removes the root; read its time and event first. *)
let pop t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    swap t 0 n;
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = if l < n && less t l !i then l else !i in
      let smallest = if r < n && less t r smallest then r else smallest in
      if smallest = !i then sifting := false
      else begin
        swap t smallest !i;
        i := smallest
      end
    done
  end

(* Every entry sharing the root's time has an ancestor chain of equal
   times, so a tie at the minimum always shows at a child of the root. *)
let min_tied t =
  (t.size > 1 && Float.Array.get t.times 1 = Float.Array.get t.times 0)
  || (t.size > 2 && Float.Array.get t.times 2 = Float.Array.get t.times 0)

(* ---- posting ---- *)

(* Queues [ev] at the time in [at.(0)], clamped to now.  A NaN time would
   compare false against every other and break the clock's order. *)
let enqueue t ev =
  if ev.queued then invalid_arg "Engine.post: event already queued";
  let at = Float.Array.get t.at 0 in
  if at <> at then invalid_arg "Engine.post: NaN time";
  if at < Float.Array.get t.clock 0 then Float.Array.set t.at 0 (Float.Array.get t.clock 0);
  ev.queued <- true;
  t.seq <- t.seq + 1;
  push t ~seq:t.seq ev

let post t ev ~at =
  Float.Array.set t.at 0 at;
  enqueue t ev

let post_slot t ev a i =
  Float.Array.set t.at 0 (Float.Array.get a i);
  enqueue t ev

let post_now t ev =
  Float.Array.set t.at 0 (Float.Array.get t.clock 0);
  enqueue t ev

let schedule t ~at ?(label = "cb") run = post t (event ~label run) ~at

(* ---- processes ---- *)

let keep st k = if Array.length st.cont = 0 then st.cont <- [| k |] else st.cont.(0) <- k

(* A continuation left in the slot has been resumed, and resuming it again
   raises. *)
let take_cont st =
  if Array.length st.cont = 0 then invalid_arg "Engine: no parked continuation";
  st.cont.(0)

(* [a] with twice its slots, or 4 slots of [x] when it has none.  Doubling
   a full ring copies it into both halves, so its entries stay in order from
   [head]. *)
let grown a x = if Array.length a = 0 then Array.make 4 x else Array.append a a

let ring_push r st id =
  if r.len = Array.length r.ids then begin
    r.waiting <- grown r.waiting st;
    r.ids <- grown r.ids id
  end;
  let i = (r.head + r.len) land (Array.length r.ids - 1) in
  r.waiting.(i) <- st;
  r.ids.(i) <- id;
  r.len <- r.len + 1

(* Ends suspension [id] of [st] unless it has already ended: the process
   continues at the current instant, or unwinds at once after {!stop} or
   when it was cancelled while it ran and parked after. *)
let resume st id =
  if st.susp = id then begin
    st.susp <- 0;
    let t = st.eng in
    if t.stopped then
      (* Unwind the fiber so daemon loops exit cleanly. *)
      Effect.Deep.discontinue (take_cont st) Stopped
    else if st.cancelled then Effect.Deep.discontinue (take_cont st) Killed
    else post_now t st.resume_ev
  end

let wake r =
  if r.len > 0 then begin
    let st = r.waiting.(r.head) and id = r.ids.(r.head) in
    r.head <- (r.head + 1) land (Array.length r.ids - 1);
    r.len <- r.len - 1;
    resume st id
  end

let spawn t ?(name = "proc") ?group f =
  t.live <- t.live + 1;
  let st =
    {
      name;
      eng = t;
      cancelled = false;
      finished = false;
      cont = [||];
      susp = 0;
      on = "";
      resume_ev = no_event;
    }
  in
  t.procs <- st :: t.procs;
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
  (* A process killed while its wake-up event was queued unwinds when it
     fires, and runs no more user code. *)
  let continue_parked () =
    let k = take_cont st in
    if st.cancelled then Effect.Deep.discontinue k Killed else Effect.Deep.continue k ()
  in
  let delay_ev = event ~label:("delay:" ^ name) continue_parked in
  st.resume_ev <- event ~label:("resume:" ^ name) continue_parked;
  let on_delay =
    Some
      (fun k ->
        keep st k;
        let d = Float.Array.get t.arg_delay 0 in
        Float.Array.set t.at 0 (Float.Array.get t.clock 0 +. if d < 0.0 then 0.0 else d);
        enqueue t delay_ev)
  in
  let on_park =
    Some
      (fun k ->
        t.susp_id <- t.susp_id + 1;
        keep st k;
        st.susp <- t.susp_id;
        st.on <- t.arg_label;
        ring_push t.arg_ring st t.susp_id;
        let after = t.arg_then in
        if after != no_then then begin
          t.arg_then <- no_then;
          after ()
        end)
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
          | Park -> on_park
          | _ -> None);
    }
  in
  post_now t
    (event ~label:("start:" ^ name) (fun () ->
         if st.cancelled then finish () else Effect.Deep.match_with f () handler))

(* A process finds its engine through a domain-local "current engine", set
   for the length of each [run]/[run_until].  Domain-local storage (not a
   plain ref) so that several domains — the parallel mpcheck explorer runs
   one engine per worker — never observe each other's current engine. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let the_engine () =
  match Domain.DLS.get current with Some t -> t | None -> raise Not_in_process

let perform (type a) (eff : a Effect.t) : a =
  try Effect.perform eff with Effect.Unhandled _ -> raise Not_in_process

(* Inlined, so a delay formed by its caller here reaches the slot unboxed. *)
let[@inline] delay_by (d : float) =
  if d <> d then invalid_arg "Engine.delay: NaN";
  let t = the_engine () in
  Float.Array.set t.arg_delay 0 d;
  perform Delay

let delay d = delay_by d
let delay_n per n = delay_by (per *. float_of_int n)

let yield () = delay 0.0

let park_on t r ~name after =
  t.arg_ring <- r;
  t.arg_label <- name;
  t.arg_then <- after;
  perform Park

let park r ~name = park_on (the_engine ()) r ~name no_then

(* A ring of its own holds the one suspension, so [resume] wakes it once
   and finds the ring empty after. *)
let suspend ~name register =
  let t = the_engine () in
  let r = ring () in
  park_on t r ~name (fun () -> register (fun () -> wake r))

(* A fired event is no longer queued, so its callback may post it again. *)
let fire_root t =
  let ev = t.evs.(0) in
  Float.Array.set t.clock 0 (Float.Array.get t.times 0);
  pop t;
  ev.queued <- false;
  ev.run ()

(* Exploration path: pop the whole same-instant group, let the chooser pick
   one, and push the rest back with their seqs intact — so a chooser that
   always answers 0 reproduces the deterministic order exactly, and a group
   of n events yields n-1 successive choice points.  The events pushed back
   stay marked queued. *)
let run_chosen t c =
  let time = Float.Array.get t.times 0 in
  (* pops come out (time, seq)-ordered, so the group is already seq-sorted *)
  let rec drain acc =
    if t.size > 0 && Float.Array.get t.times 0 = time then begin
      let entry = (t.seqs.(0), t.evs.(0)) in
      pop t;
      drain (entry :: acc)
    end
    else Array.of_list (List.rev acc)
  in
  let group = drain [] in
  let pick = c.choose ~time ~labels:(Array.map (fun (_, e) -> e.label) group) in
  let pick = if pick < 0 || pick >= Array.length group then 0 else pick in
  Float.Array.set t.at 0 time;
  Array.iteri (fun i (seq, e) -> if i <> pick then push t ~seq e) group;
  let e = snd group.(pick) in
  Float.Array.set t.clock 0 time;
  e.queued <- false;
  e.run ()

let step t =
  if t.size = 0 then false
  else begin
    (match t.chooser with
    | Some c when min_tied t -> run_chosen t c
    | Some _ | None -> fire_root t);
    true
  end

let with_current t thunk =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) thunk

let run t =
  t.stopped <- false;
  with_current t (fun () -> while (not t.stopped) && step t do () done)

let run_until t limit =
  t.stopped <- false;
  with_current t (fun () ->
      while
        (not t.stopped) && t.size > 0 && Float.Array.get t.times 0 <= limit && step t
      do
        ()
      done);
  if Float.Array.get t.clock 0 < limit then Float.Array.set t.clock 0 limit

let stop t = t.stopped <- true
let live t = t.live

let blocked t =
  List.fold_left (fun acc st -> if st.susp <> 0 then (st.name, st.on) :: acc else acc) [] t.procs

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
          (* Suspended processes unwind immediately, and leave a stale entry
             in their ring that absorbs one wake; a process waiting on its
             delay timer or its resumption unwinds when that fires (sim time
             still advances past the crash, but no further user code runs). *)
          if st.susp <> 0 then begin
            st.susp <- 0;
            Effect.Deep.discontinue (take_cont st) Killed
          end
        end)
      !l;
    !killed
