open Mp_sim
open Mp_millipage
module Homes = Dsm.Config.Homes

type workload =
  | Racer of {
      locs : int;
      ops_per_host : int;
      wseed : int;
      barrier_every : int;
    }
  | App of string

type t = {
  workload : workload;
  hosts : int;
  homes : Homes.t;
  consistency : Dsm.Config.Consistency.t;
  faults : Mp_net.Fabric.faults;
  net_seed : int;
  crashes : (int * float) list;
  mutation : Dsm.Testonly.mutation option;
  seed : int;
  quantum_us : float;
  max_delay_steps : int;
  refine : bool;
  lockread : bool;
}

let default =
  {
    workload = Racer { locs = 4; ops_per_host = 10; wseed = 7; barrier_every = 0 };
    hosts = 3;
    homes = Homes.central;
    consistency = Dsm.Config.Consistency.sc;
    faults = Mp_net.Fabric.no_faults;
    net_seed = 9;
    crashes = [];
    mutation = None;
    seed = 1;
    quantum_us = 2.0;
    max_delay_steps = 3;
    refine = false;
    lockread = false;
  }

let name t =
  let workload =
    match t.workload with Racer _ -> "racer" | App a -> a
  in
  Printf.sprintf "%s h%d %s%s%s%s%s" workload t.hosts
    (Homes.policy_name t.homes.Homes.policy)
    (match t.consistency.Dsm.Config.Consistency.mode with
    | `Sc -> ""
    | m -> " " ^ Dsm.Config.Consistency.mode_name m)
    (if Mp_net.Fabric.faults_active t.faults then " faulty" else "")
    (if t.crashes <> [] then " crash" else "")
    (match t.mutation with
    | None -> ""
    | Some (Dsm.Testonly.Stale_reply_data _) -> " mut:stale"
    | Some (Dsm.Testonly.Drop_inval_ack _) -> " mut:dropack"
    | Some (Dsm.Testonly.Lost_diff _) -> " mut:lostdiff")
    ^ if t.refine then " spec" else ""

(* ------------------------------ encoding ------------------------------- *)

let to_string t =
  let b = Buffer.create 128 in
  let kv fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
  (match t.workload with
  | Racer { locs; ops_per_host; wseed; barrier_every } ->
    kv "app=racer locs=%d ops=%d wseed=%d" locs ops_per_host wseed;
    (* omitted when 0, so barrier-free racer artifacts round-trip unchanged *)
    if barrier_every > 0 then kv " barrier=%d" barrier_every
  | App a -> kv "app=%s" a);
  kv " hosts=%d homes=%s" t.hosts (Homes.policy_name t.homes.Homes.policy);
  if t.homes.Homes.policy = Homes.Block then kv " block=%d" t.homes.Homes.block;
  (* omitted when sc, so pre-adaptive fingerprints stay stable *)
  (let c = t.consistency in
   if c.Dsm.Config.Consistency.mode <> `Sc then begin
     kv " consistency=%s" (Dsm.Config.Consistency.mode_name c.mode);
     if c.adapt_interval <> Dsm.Config.Consistency.default.adapt_interval then
       kv " adapt=%d" c.adapt_interval
   end);
  let f = t.faults in
  if Mp_net.Fabric.faults_active f then
    kv " drop=%g dup=%g reorder=%g jitter=%g" f.Mp_net.Fabric.drop
      f.Mp_net.Fabric.duplicate f.Mp_net.Fabric.reorder f.Mp_net.Fabric.jitter_us;
  if t.crashes <> [] then
    kv " crash=%s"
      (String.concat ","
         (List.map (fun (h, at) -> Printf.sprintf "%d@%g" h at) t.crashes));
  (match t.mutation with
  | None -> ()
  | Some (Dsm.Testonly.Stale_reply_data { nth }) -> kv " mutation=stale-reply:%d" nth
  | Some (Dsm.Testonly.Drop_inval_ack { nth }) -> kv " mutation=drop-inval-ack:%d" nth
  | Some (Dsm.Testonly.Lost_diff { nth }) -> kv " mutation=lost-diff:%d" nth);
  (* both omitted when off, so pre-refinement artifacts round-trip unchanged *)
  if t.lockread then kv " lockread=1";
  if t.refine then kv " refine=1";
  kv " seed=%d netseed=%d quantum=%g maxdelay=%d" t.seed t.net_seed t.quantum_us
    t.max_delay_steps;
  Buffer.contents b

let of_string s =
  let fail fmt = Printf.ksprintf failwith fmt in
  let tokens =
    String.split_on_char ' ' s |> List.filter (fun tok -> tok <> "")
  in
  let assoc =
    List.map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
          ( String.sub tok 0 i,
            String.sub tok (i + 1) (String.length tok - i - 1) )
        | None -> fail "Scenario.of_string: bad token %S" tok)
      tokens
  in
  let get k = List.assoc_opt k assoc in
  let int k d =
    match get k with
    | None -> d
    | Some v -> (
      match int_of_string_opt v with
      | Some i -> i
      | None -> fail "Scenario.of_string: %s=%S not an int" k v)
  in
  let flt k d =
    match get k with
    | None -> d
    | Some v -> (
      match float_of_string_opt v with
      | Some f -> f
      | None -> fail "Scenario.of_string: %s=%S not a float" k v)
  in
  List.iter
    (fun (k, _) ->
      if
        not
          (List.mem k
             [ "app"; "locs"; "ops"; "wseed"; "barrier"; "hosts"; "homes"; "block";
               "consistency"; "adapt"; "drop"; "dup"; "reorder"; "jitter";
               "crash"; "mutation"; "seed"; "netseed"; "quantum"; "maxdelay";
               "lockread"; "refine" ])
      then fail "Scenario.of_string: unknown key %S" k)
    assoc;
  let workload =
    match get "app" with
    | None | Some "racer" ->
      Racer
        {
          locs = int "locs" 4;
          ops_per_host = int "ops" 10;
          wseed = int "wseed" 7;
          barrier_every = int "barrier" 0;
        }
    | Some a when List.mem a Mp_apps.App.names -> App a
    | Some a -> fail "Scenario.of_string: unknown app %S" a
  in
  let homes =
    match get "homes" with
    | None -> default.homes
    | Some p -> (
      match Homes.policy_of_string p with
      | Some policy -> { Homes.policy; block = int "block" Homes.default.Homes.block }
      | None -> fail "Scenario.of_string: unknown homes policy %S" p)
  in
  let consistency =
    let base =
      match get "consistency" with
      | None -> Dsm.Config.Consistency.sc
      | Some m -> (
        match Dsm.Config.Consistency.mode_of_string m with
        | Some mode -> { Dsm.Config.Consistency.default with mode }
        | None -> fail "Scenario.of_string: unknown consistency mode %S" m)
    in
    Dsm.Config.Consistency.with_adapt_interval base
      (int "adapt" base.Dsm.Config.Consistency.adapt_interval)
  in
  let faults =
    {
      Mp_net.Fabric.drop = flt "drop" 0.0;
      duplicate = flt "dup" 0.0;
      reorder = flt "reorder" 0.0;
      jitter_us = flt "jitter" 0.0;
    }
  in
  let crashes =
    match get "crash" with
    | None -> []
    | Some spec ->
      String.split_on_char ',' spec
      |> List.map (fun part ->
             match String.index_opt part '@' with
             | Some i -> (
               let h = String.sub part 0 i in
               let at = String.sub part (i + 1) (String.length part - i - 1) in
               match (int_of_string_opt h, float_of_string_opt at) with
               | Some h, Some at -> (h, at)
               | _ -> fail "Scenario.of_string: bad crash %S" part)
             | None -> fail "Scenario.of_string: bad crash %S" part)
  in
  let mutation =
    match get "mutation" with
    | None -> None
    | Some spec -> (
      match String.index_opt spec ':' with
      | Some i -> (
        let kind = String.sub spec 0 i in
        let nth = String.sub spec (i + 1) (String.length spec - i - 1) in
        match (kind, int_of_string_opt nth) with
        | "stale-reply", Some nth -> Some (Dsm.Testonly.Stale_reply_data { nth })
        | "drop-inval-ack", Some nth -> Some (Dsm.Testonly.Drop_inval_ack { nth })
        | "lost-diff", Some nth -> Some (Dsm.Testonly.Lost_diff { nth })
        | _ -> fail "Scenario.of_string: bad mutation %S" spec)
      | None -> fail "Scenario.of_string: bad mutation %S" spec)
  in
  {
    workload;
    hosts = int "hosts" default.hosts;
    homes;
    consistency;
    faults;
    net_seed = int "netseed" default.net_seed;
    crashes;
    mutation;
    seed = int "seed" default.seed;
    quantum_us = flt "quantum" default.quantum_us;
    max_delay_steps = int "maxdelay" default.max_delay_steps;
    refine = int "refine" 0 <> 0;
    lockread = int "lockread" 0 <> 0;
  }

(* ------------------------------ workloads ------------------------------ *)

(* The racer draws each host's operation plan from a per-host generator
   derived before the run starts, so the operation sequences are a function
   of [wseed] alone — never of the schedule under exploration.

   Every read and write is recorded once, with its completion time, into
   the schedule's history, which also sees the acquire/release sync points;
   the coherence check, the refinement spec and the state fingerprint all
   read it.  With [lockread] on, each critical section reads its location
   before writing: that read sits above the lock's happens-before floor,
   so a release whose diff the home lost is observable — the next acquirer
   reads below the floor the release published.  [lockread] changes the
   schedule (an extra protocol access per critical section), so it is off
   by default and pre-existing scenarios keep their fingerprints. *)
let setup_racer e dsm hist ~locs ~ops_per_host ~wseed ~barrier_every
    ~lockread =
  let hosts = Dsm.hosts dsm in
  let xs = Dsm.malloc_array dsm ~count:locs ~size:64 in
  Array.iter (fun x -> Dsm.init_write_int dsm x 0) xs;
  let root = Mp_util.Prng.create ~seed:wseed in
  for host = 0 to hosts - 1 do
    let hr = Mp_util.Prng.split root in
    (* named like the app threads ("sor.h0"), so engine labels mentioning
       this thread carry a parseable host: Sched.independent then sees
       racer resumes/starts, which is what lets both partial-order
       reductions reason about them.  Fingerprints don't hash labels, so
       pre-existing artifacts replay bit-identically. *)
    Dsm.spawn dsm ~host ~name:(Printf.sprintf "racer.h%d" host) (fun ctx ->
        for op = 1 to ops_per_host do
          (* every host barriers at the same op indices, so arrival counts
             always agree.  Barriers give the racer same-instant resumption
             groups that span hosts — the tie shape DPOR sleep sets prune —
             and exercise the spec's global barrier channel. *)
          if barrier_every > 0 && op mod barrier_every = 0 then begin
            Dsm.barrier ctx;
            Spec.record hist (Spec.Barrier { host })
          end;
          let l = Mp_util.Prng.int hr locs in
          match Mp_util.Prng.int hr 3 with
          | 0 ->
            Dsm.lock ctx l;
            Spec.record hist (Spec.Acquire { host; key = l });
            if lockread then begin
              let v = Dsm.read_int ctx xs.(l) in
              Spec.record hist
                (Spec.Read { time = Engine.now e; host; loc = l; value = v })
            end;
            let v = Spec.fresh_value hist in
            Dsm.write_int ctx xs.(l) v;
            Spec.record hist
              (Spec.Write { time = Engine.now e; host; loc = l; value = v });
            (* recorded at release entry: the unlock below blocks until the
               flushed diffs are acknowledged, so no one acquires this lock
               before the publication is protocol-complete *)
            Spec.record hist (Spec.Release { host; key = l });
            Dsm.unlock ctx l
          | 1 ->
            let v = Dsm.read_int ctx xs.(l) in
            Spec.record hist
              (Spec.Read { time = Engine.now e; host; loc = l; value = v })
          | _ -> Dsm.compute ctx (1.0 +. Mp_util.Prng.float hr 20.0)
        done)
  done;
  fun () -> None

module Apps = Mp_apps.App.Make (Mp_dsm.Millipage_impl)

(* The benchmark named [app] at miniature scale. *)
let miniature app =
  let open Mp_apps in
  match App.of_name app with
  | App.Sor p -> App.Sor { p with rows = 16; iterations = 2 }
  | App.Lu p -> App.Lu { p with n = 32; block = 8; use_prefetch = false }
  | App.Water p ->
    App.Water { p with molecules = 8; iterations = 2; composed_read_phase = false }
  | App.Is p -> App.Is { p with keys = 256; max_key = 64; iterations = 2; key_us = 0.05 }
  | App.Tsp p -> App.Tsp { p with cities = 8; level = 2; batch = 4 }

(* ------------------------------ running -------------------------------- *)

type outcome = {
  violations : string list;
  end_us : float;
  steps : Sched.step array;
  taken : Plan.t;
  choice_points : int;
  state_sig : int;
  trace_sig : int;
  ops : int;
  obs_events : int;
  mutation_fired : bool;
  crashed : int list;
  profile : Mp_obs.Profile.t option;
  refinement : Spec.verdict option;
}

(* splitmix64-style finalizer, truncated to OCaml's native int. *)
let mix h x =
  let h = h lxor (x * 0x9E3779B97F4A7C1 land max_int) in
  let h = h lxor (h lsr 30) in
  let h = h * 0xBF58476D1CE4E5B land max_int in
  h lxor (h lsr 27)

let config t =
  {
    Dsm.Config.default with
    seed = t.seed;
    net = { Dsm.Config.Net.default with faults = t.faults; seed = t.net_seed };
    ft =
      (if t.crashes = [] then None
       else Some { Dsm.Config.Ft.default with crashes = t.crashes });
    homes = t.homes;
    consistency = t.consistency;
  }

let run ?(profile = false) t ~sched =
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:t.hosts ~config:(config t) () in
  Dsm.Testonly.set_mutation dsm t.mutation;
  let obs = Dsm.obs dsm in
  Mp_obs.Recorder.set_capacity obs (1 lsl 18);
  Mp_obs.Recorder.set_enabled obs true;
  (* the profiler is a passive tap: attaching it must not perturb schedules,
     choice points, or timing — exploration results stay bit-identical *)
  let prof = if profile then Some (Mp_obs.Profile.attach obs) else None in
  let hist = Spec.hist () in
  let verify =
    match t.workload with
    | Racer { locs; ops_per_host; wseed; barrier_every } ->
      setup_racer e dsm hist ~locs ~ops_per_host ~wseed ~barrier_every
        ~lockread:t.lockread
    | App a ->
      let verify = Apps.setup dsm (miniature a) in
      fun () -> Some (verify ())
  in
  Sched.install sched e;
  let failure =
    try
      Dsm.run dsm;
      None
    with
    | Dsm.Deadlock m -> Some ("deadlock: " ^ m)
    | Dsm.Crash_unrecoverable m ->
      (* The one designed fail-stop is a home dying together with its
         backup.  Any other unrecoverable run is a write lost to a crash
         that backup promotion exists to survive: a violation. *)
      let crashes_with_backup =
        List.exists
          (fun (h, _) ->
            List.mem_assoc (Homes.backup_of ~hosts:t.hosts h) t.crashes)
          t.crashes
      in
      if crashes_with_backup then None else Some ("unrecoverable: " ^ m)
    | Failure m -> Some ("transport: " ^ m)
  in
  let end_us = Engine.now e in
  let crashed = Dsm.declared_dead dsm in
  let history = Spec.entries hist in
  let coherence = List.map (fun v -> "coherence: " ^ v) (Spec.coherence history) in
  let events = Mp_obs.Recorder.events obs in
  let invariants =
    (* The invariant checker models the crash-free protocol: a host that
       dies mid-span leaves legitimately unmatched events. *)
    if t.crashes <> [] || Mp_obs.Recorder.dropped obs > 0 then []
    else List.map (fun v -> "invariant: " ^ v) (Mp_obs.Invariants.check events)
  in
  let result =
    (* Results are only meaningful when every thread ran to completion. *)
    if failure <> None || crashed <> [] then []
    else
      match verify () with
      | Some false -> [ "result: verification failed" ]
      | _ -> []
  in
  let refinement =
    (* Only histories from completed runs refine: a deadlocked or crashed
       thread's half-recorded critical section is not a spec execution.
       Crash scenarios use the Weak relation even under sc — rollback
       legitimately un-does writes the strict map would still hold. *)
    if not t.refine then None
    else if failure <> None then
      Some { Spec.passed = true; reads_checked = 0; violations = [] }
    else
      let hb = t.crashes = [] in
      let mode =
        if t.crashes <> [] then Spec.Weak
        else
          match t.consistency.Dsm.Config.Consistency.mode with
          | `Sc -> Spec.Sc
          | _ -> Spec.Weak
      in
      Some (Spec.check ~mode ~hb history)
  in
  let refine_violations =
    match refinement with Some v -> v.Spec.violations | None -> []
  in
  let violations =
    (match failure with Some f -> [ f ] | None -> [])
    @ coherence @ invariants @ refine_violations @ result
  in
  let state_sig =
    let h = ref 0x2545F49 in
    let op ~host ~loc ~kind ~value =
      h := mix (mix (mix (mix !h host) loc) kind) value
    in
    List.iter
      (function
        | Spec.Read { host; loc; value; _ } -> op ~host ~loc ~kind:0 ~value
        | Spec.Write { host; loc; value; _ } -> op ~host ~loc ~kind:1 ~value
        | Spec.Acquire _ | Spec.Release _ | Spec.Barrier _ -> ())
      history;
    h := mix !h (int_of_float (end_us *. 1000.0));
    h := mix !h (Dsm.messages_sent dsm);
    List.iter (fun d -> h := mix !h d) crashed;
    if violations <> [] then h := mix !h (List.length violations);
    !h
  in
  let steps = Sched.steps sched in
  let trace_sig =
    let h = ref 0x1B873593 in
    Array.iter
      (fun s ->
        match s with
        | Sched.Tie { n; pick; _ } ->
          h := mix !h ((n lsl 1) lor 0);
          h := mix !h pick
        | Sched.Net { n; pick; _ } ->
          h := mix !h ((n lsl 1) lor 1);
          h := mix !h pick)
      steps;
    !h
  in
  (* unregister so exploration loops don't accumulate registry entries; the
     returned profile stays readable after detach *)
  if prof <> None then Mp_obs.Profile.detach obs;
  {
    violations;
    end_us;
    steps;
    taken = Sched.taken sched;
    choice_points = Sched.choice_points sched;
    state_sig;
    trace_sig;
    ops = Spec.operations hist;
    obs_events = List.length events;
    mutation_fired = Dsm.Testonly.mutation_fired dsm;
    crashed;
    profile = prof;
    refinement;
  }

let run_plan ?profile t plan =
  let sched =
    Sched.create ~quantum_us:t.quantum_us ~max_delay_steps:t.max_delay_steps
      ~mode:Sched.Follow ~plan ()
  in
  run ?profile t ~sched

let run_random ?profile t ~seed ~prob =
  let sched =
    Sched.create ~quantum_us:t.quantum_us ~max_delay_steps:t.max_delay_steps
      ~mode:(Sched.Random { seed; prob }) ~plan:Plan.empty ()
  in
  run ?profile t ~sched
