type budget = { max_schedules : int; max_wall_s : float }

let budget ?(max_schedules = 1000) ?(max_wall_s = 60.0) () =
  { max_schedules; max_wall_s }

type result = {
  schedules : int;
  distinct_traces : int;
  distinct_states : int;
  total_choice_points : int;
  max_choice_points : int;
  pruned : int;
  sleep_pruned : int;
  wall_s : float;
  trace_sigs : int list;
  state_sigs : int list;
  failure : (Plan.t * Scenario.outcome) option;
}

let now_s () = Unix.gettimeofday ()

(* Shared accounting across both search modes.  All mutation funnels
   through [note]/[prune], which take the lock: one run costs milliseconds,
   so a worker pool never contends here measurably.  The fingerprint tables
   are sharded so that [note] holds the scalar lock only for the counters. *)
type acc = {
  metrics : Mp_obs.Metrics.t option;
  t0 : float;
  traces : (int, unit) Mp_util.Shardtbl.t;
  states : (int, unit) Mp_util.Shardtbl.t;
  lock : Mutex.t;
  mutable n : int;
  mutable cps : int;
  mutable max_cps : int;
  mutable pruned : int;
  mutable sleep_pruned : int;
}

let acc metrics =
  {
    metrics;
    t0 = now_s ();
    traces = Mp_util.Shardtbl.create ~size:64 ();
    states = Mp_util.Shardtbl.create ~size:64 ();
    lock = Mutex.create ();
    n = 0;
    cps = 0;
    max_cps = 0;
    pruned = 0;
    sleep_pruned = 0;
  }

let note a (o : Scenario.outcome) =
  Mp_util.Shardtbl.replace a.traces o.trace_sig ();
  Mp_util.Shardtbl.replace a.states o.state_sig ();
  Mutex.protect a.lock (fun () ->
      a.n <- a.n + 1;
      a.cps <- a.cps + o.choice_points;
      a.max_cps <- max a.max_cps o.choice_points;
      Option.iter
        (fun m ->
          Mp_obs.Metrics.incr m "mc.schedules";
          if o.violations <> [] then Mp_obs.Metrics.incr m "mc.violations";
          Mp_obs.Metrics.observe m ~bucket_width:32.0 "mc.choice_points"
            (float_of_int o.choice_points))
        a.metrics)

let prune a ~sleep k =
  Mutex.protect a.lock (fun () ->
      if sleep then a.sleep_pruned <- a.sleep_pruned + k
      else a.pruned <- a.pruned + k;
      Option.iter
        (fun m ->
          Mp_obs.Metrics.add m
            (if sleep then "mc.pruned.sleep" else "mc.pruned.persistent")
            k)
        a.metrics)

let finish a failure =
  {
    schedules = a.n;
    distinct_traces = Mp_util.Shardtbl.length a.traces;
    distinct_states = Mp_util.Shardtbl.length a.states;
    total_choice_points = a.cps;
    max_choice_points = a.max_cps;
    pruned = a.pruned;
    sleep_pruned = a.sleep_pruned;
    wall_s = now_s () -. a.t0;
    trace_sigs = List.sort compare (Mp_util.Shardtbl.keys a.traces);
    state_sigs = List.sort compare (Mp_util.Shardtbl.keys a.states);
    failure;
  }

(* ---------------------------- random walk ------------------------------ *)

(* Run index [i] of the walk: index 0 is always the unperturbed default
   schedule, index i > 0 the random schedule seeded [seed + i].  Each index
   is deterministic in isolation, so the walk's fingerprint sets do not
   depend on [jobs]: the index space is partitioned dynamically but every
   index computes the same run. *)
let walk_run scenario ~seed ~prob i =
  if i = 0 then Scenario.run_plan scenario Plan.empty
  else Scenario.run_random scenario ~seed:(seed + i) ~prob

(* [jobs] workers — the calling domain and [jobs - 1] spawned ones — claim
   run indices from a shared counter.  With one worker the indices run in
   order and the first failure ends the walk. *)
let random_walk ?metrics ?(prob = 0.05) ?(jobs = 1) scenario ~seed b =
  let a = acc metrics in
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  (* the failure reported is the one with the smallest run index, whichever
     worker finds it *)
  let fail = Atomic.make None in
  let record_fail i (o : Scenario.outcome) =
    let rec cas () =
      match Atomic.get fail with
      | Some (j, _, _) when j <= i -> ()
      | cur ->
        if not (Atomic.compare_and_set fail cur (Some (i, o.taken, o))) then
          cas ()
    in
    cas ();
    Atomic.set stop true
  in
  let worker () =
    let rec loop () =
      if not (Atomic.get stop) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < b.max_schedules && now_s () -. a.t0 <= b.max_wall_s then begin
          let o = walk_run scenario ~seed ~prob i in
          note a o;
          if o.violations <> [] then record_fail i o;
          loop ()
        end
      end
    in
    loop ()
  in
  let doms = List.init (max 1 jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join doms;
  finish a
    (match Atomic.get fail with
    | Some (_, plan, o) -> Some (plan, o)
    | None -> None)

(* ------------------- delay-bounded search with DPOR -------------------- *)

(* Promoting alternative [a] of a tie group runs it before events 0..a-1.
   If it commutes with all of them the swap cannot reach a new state. *)
let worth_promoting labels a =
  let la = labels.(a) in
  let rec dep j = j < a && ((not (Sched.independent la labels.(j))) || dep (j + 1)) in
  dep 0

(* A sleeping event: explored from a sibling branch of some ancestor node,
   and not yet woken by a dependent event.  Promoting it again anywhere in
   this subtree replays a Mazurkiewicz-equivalent schedule.  Events are
   identified by (instant, label): tie promotion reorders events within one
   instant, so an event's timestamp is stable across every plan that can
   encounter it, and labels are unique within an instant group. *)
type sleeper = { at : float; label : string }

type node = {
  plan : Plan.t;
  sleep : sleeper list;
  from : int; (* first position this node's expansion may deviate at *)
}

let max_sleepers = 32
let max_frontier = 200_000

let sleeping sleep ~time ~label =
  List.exists (fun s -> s.at = time && s.label = label) sleep

(* An executed event wakes every sleeper it is dependent with: after it
   runs, re-promoting the sleeper is no longer a commuting replay. *)
let wake sleep ~label =
  List.filter (fun s -> Sched.independent s.label label) sleep

let child_sleep sleep ~time ~labels ~alt =
  let chosen = labels.(alt) in
  let inherited = wake sleep ~label:chosen in
  let rec sibs j acc =
    if j >= alt then List.rev acc
    else
      sibs (j + 1)
        (if Sched.independent labels.(j) chosen then
           { at = time; label = labels.(j) } :: acc
         else acc)
  in
  let s = sibs 0 [] @ inherited in
  if List.length s > max_sleepers then [] else s

(* Expand one explored node: enqueue a child plan for every non-default
   alternative at every position past the node's own deviations, unless the
   alternative is pruned.  Two pruning layers, checked in order:

   - sleep sets (DPOR): the alternative is asleep — an equivalent schedule
     beginning with it was already explored from a sibling branch;
   - persistent-set promotion: the alternative commutes with every earlier
     event of its tie group, so the swap cannot reach a new state.

   The node's sleep set is walked forward position by position: expansion
   at a position uses the set as of that instant, then the event actually
   executed there wakes its dependents. *)
let expand ~sleep_sets ~bound a (node : node) (o : Scenario.outcome)
    ~(enqueue : node -> unit) =
  if Plan.deviations node.plan < bound then begin
    let steps = o.steps in
    let sleep = ref (if sleep_sets then node.sleep else []) in
    for pos = node.from to Array.length steps - 1 do
      (match steps.(pos) with
      | Sched.Tie { n; time; labels; _ } ->
        for alt = 1 to n - 1 do
          if sleep_sets && sleeping !sleep ~time ~label:labels.(alt) then
            prune a ~sleep:true 1
          else if not (worth_promoting labels alt) then prune a ~sleep:false 1
          else
            enqueue
              {
                plan = Plan.set node.plan ~pos ~pick:alt;
                sleep =
                  (if sleep_sets then child_sleep !sleep ~time ~labels ~alt
                   else []);
                from = pos + 1;
              }
        done
      | Sched.Net { n; _ } ->
        for alt = 1 to n - 1 do
          enqueue
            { plan = Plan.set node.plan ~pos ~pick:alt; sleep = []; from = pos + 1 }
        done);
      if sleep_sets then
        match steps.(pos) with
        | Sched.Tie { pick; labels; _ } -> sleep := wake !sleep ~label:labels.(pick)
        | Sched.Net { label; _ } -> sleep := wake !sleep ~label
    done
  end

let root = { plan = Plan.empty; sleep = []; from = 0 }

(* [jobs] workers — the calling domain and [jobs - 1] spawned ones — drain
   one shared frontier: claim a plan, replay it on a private engine, publish
   the children.  The pool is quiescent — search over — when the frontier
   is empty and every worker is idle.  A plan is marked seen only when it
   is enqueued, so a plan turned away by a full frontier can still be
   enqueued once there is room.  The budget counts plans as they are
   claimed, not as their runs finish, so no pool size runs more than
   [max_schedules].  With one worker the frontier drains in breadth-first
   order and the first failure ends the search. *)
let delay_bounded ?metrics ?(sleep_sets = true) ?(jobs = 1) scenario ~bound b =
  let jobs = max 1 jobs in
  let a = acc metrics in
  let m = Mutex.create () in
  let nonempty = Condition.create () in
  let frontier = Queue.create () in
  Queue.add root frontier;
  let idle = ref 0 in
  let claimed = ref 0 in
  let stop = ref false in
  let fail = ref None in
  let seen = Hashtbl.create 257 in
  Hashtbl.replace seen (Plan.to_string Plan.empty) ();
  let enqueue node =
    let key = Plan.to_string node.plan in
    Mutex.protect m (fun () ->
        if (not (Hashtbl.mem seen key)) && Queue.length frontier < max_frontier
        then begin
          Hashtbl.replace seen key ();
          Queue.add node frontier;
          Condition.signal nonempty
        end)
  in
  let take () =
    Mutex.lock m;
    let rec wait () =
      if !stop || !claimed >= b.max_schedules || now_s () -. a.t0 > b.max_wall_s
      then None
      else
        match Queue.take_opt frontier with
        | Some node ->
          incr claimed;
          Some node
        | None ->
          incr idle;
          if !idle = jobs then begin
            (* quiescent: nobody holds work that could refill the queue *)
            stop := true;
            Condition.broadcast nonempty;
            None
          end
          else begin
            Condition.wait nonempty m;
            decr idle;
            wait ()
          end
    in
    let r = wait () in
    if r = None then begin
      stop := true;
      Condition.broadcast nonempty
    end;
    Mutex.unlock m;
    r
  in
  let record_fail plan o =
    Mutex.protect m (fun () ->
        if !fail = None then fail := Some (plan, o);
        stop := true;
        Condition.broadcast nonempty)
  in
  let worker () =
    let rec loop () =
      match take () with
      | None -> ()
      | Some node ->
        let o = Scenario.run_plan scenario node.plan in
        note a o;
        if o.violations <> [] then record_fail o.taken o
        else expand ~sleep_sets ~bound a node o ~enqueue;
        loop ()
    in
    loop ()
  in
  let doms = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join doms;
  finish a !fail

(* ------------------------------ shrinking ------------------------------ *)

let shrink scenario plan0 =
  let failing (o : Scenario.outcome) = o.violations <> [] in
  let o0 = Scenario.run_plan scenario plan0 in
  if not (failing o0) then (plan0, o0)
  else
    let rec fixpoint plan o =
      let improved = ref false in
      let plan, o =
        List.fold_left
          (fun (p, ob) (pos, _) ->
            if Plan.find p ~pos = None then (p, ob)
            else
              let candidate = Plan.remove p ~pos in
              let oc = Scenario.run_plan scenario candidate in
              if failing oc then begin
                improved := true;
                (candidate, oc)
              end
              else (p, ob))
          (plan, o) plan
      in
      if !improved then fixpoint plan o else (plan, o)
    in
    fixpoint plan0 o0
