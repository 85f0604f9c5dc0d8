open Mp_sim
open Mp_memsim
open Mp_multiview
open Mp_net
module Twin_diff = Mp_millipage.Twin_diff
module Obs = Mp_obs.Recorder
module Breakdown = Mp_millipage.Breakdown

let page_size = 4096
let object_size = 16 * 1024 * 1024

(* Costs in µs, the page-based calibration of Table 1 *)
let fault_us = 26.0
let set_prot_us = 12.0 (* per vpage *)
let twin_us = 20.0 (* per 4 KB copied at the first write fault *)
let dispatch_us = 21.0
let sync_dispatch_us = 8.0
let wakeup_us = 25.0
let recv_dma_us_per_byte = 0.0086
let header_bytes = 32

module type GRAIN = sig
  type t

  val name : string
  val views : int
  val alloc : t -> int -> int
  val find : t -> int -> Minipage.t option
end

type body =
  | Fetch of { id : int; from : int }
  | Fetch_reply of { id : int; data : bytes }
  | Diff_msg of { id : int; diff : Twin_diff.t; from : int }
  | Diff_ack
  | Rel_notice of { from : int; ids : int list }
  | B_enter of { phase : int }
  | B_release of { phase : int; invalidate : int list }
  | L_acquire of { from : int; lock : int }
  | L_grant of { lock : int; invalidate : int list }
  | L_release of { lock : int }

let describe = function
  | Fetch _ -> "FETCH"
  | Fetch_reply _ -> "FETCH_REPLY"
  | Diff_msg _ -> "DIFF"
  | Diff_ack -> "DIFF_ACK"
  | Rel_notice _ -> "REL_NOTICE"
  | B_enter _ -> "B_ENTER"
  | B_release _ -> "B_RELEASE"
  | L_acquire _ -> "L_ACQUIRE"
  | L_grant _ -> "L_GRANT"
  | L_release _ -> "L_RELEASE"

type ustate = Invalid | Clean | Dirty of bytes (* twin *)

let find_or_add tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.add tbl key v;
    v

module Make (G : GRAIN) = struct
  type host_state = {
    id : int;
    vm : Vm.t;
    state : (int, ustate) Hashtbl.t;  (* unit id -> state; absent = Invalid *)
    fetching : (int, Sync.Event.t) Hashtbl.t;  (* unit id -> fetch in flight *)
    mutable flush_pending : int;
    mutable flush_event : Sync.Event.t option;
    barrier_events : (int, Sync.Event.t) Hashtbl.t;
    lock_waiters : (int, Sync.Event.t Queue.t) Hashtbl.t;
    mutable computing : int;
    bd : Breakdown.t;
  }

  type lock_state = { mutable held : bool; lock_queue : int Queue.t }

  type t = {
    engine : Engine.t;
    obs : Obs.t;
    fabric : body Fabric.t;
    host_states : host_state array;
    grain : G.t;
    units : (int, Minipage.t) Hashtbl.t;  (* every allocated unit, by id *)
    (* manager (host 0) bookkeeping *)
    mutable interval : int;
    dirty_log : (int, (int * int) Queue.t) Hashtbl.t;  (* unit -> (interval, writer) *)
    synced : int array;  (* per host: last interval synchronized to *)
    barrier_counts : (int, int) Hashtbl.t;
    locks : (int, lock_state) Hashtbl.t;
    compositions : (int, int array) Hashtbl.t;
    mutable next_req : int;
    mutable total_threads : int;
    mutable finished_threads : int;
    mutable twins : int;
    mutable diffs : int;
    mutable diff_bytes : int;
    mutable started : bool;
  }

  type ctx = {
    t : t;
    hs : host_state;
    mutable barrier_phase : int;
    handler : Vm.fault -> unit;  (* the fault handler bound to this thread *)
  }

  let manager = 0
  let name = G.name
  let home_of _ ~addr:_ = 0
  let hosts t = Array.length t.host_states
  let engine t = t.engine
  let grain t = t.grain
  let home t id = id mod hosts t
  let unit_of_id t id = Hashtbl.find t.units id
  let send t ~src ~dst ~bytes body = Fabric.send t.fabric ~src ~dst ~bytes body
  let notice_bytes ids = header_bytes + (4 * List.length ids)
  let flush_name = G.name ^ ".flush"
  let fetch_name = G.name ^ ".fetch"
  let barrier_name = G.name ^ ".barrier"
  let lock_name = G.name ^ ".lock"

  let fresh_req t =
    t.next_req <- t.next_req + 1;
    t.next_req

  (* The unit holding [addr], which must be reached through that unit's view
     (the views map at the same addresses on every host). *)
  let find_unit t addr =
    let view, _, off = Vm.translate t.host_states.(0).vm addr in
    match G.find t.grain off with
    | Some u when u.Minipage.view = view -> Some u
    | Some _ | None -> None

  let unit_at t addr =
    match find_unit t addr with
    | Some u -> u
    | None -> failwith (Printf.sprintf "%s: address %#x is in no allocated unit" G.name addr)

  let state_of h id = Option.value ~default:Invalid (Hashtbl.find_opt h.state id)
  let bytes_of h (u : Minipage.t) = Vm.priv_read_bytes h.vm ~off:u.offset ~len:u.length

  let set_prot h (u : Minipage.t) prot =
    Vm.protect_range h.vm ~view:u.view ~phys_off:u.offset ~len:u.length prot

  (* one set-protection call per vpage the unit spans *)
  let prot_delay u =
    let n = Minipage.last_vpage u ~page_size - Minipage.first_vpage u ~page_size + 1 in
    Engine.delay (set_prot_us *. float_of_int n)

  let validate h (u : Minipage.t) =
    Hashtbl.replace h.state u.id Clean;
    prot_delay u;
    set_prot h u Prot.Read_only

  let barrier_event h phase =
    find_or_add h.barrier_events phase (fun () ->
        Sync.Event.create ~auto_reset:false ~name:barrier_name ())

  (* ---------------------------------------------------------------- *)
  (* Manager bookkeeping                                               *)
  (* ---------------------------------------------------------------- *)

  let invalidation_list t ~for_host =
    let since = t.synced.(for_host) in
    let by_other (interval, writer) = interval > since && writer <> for_host in
    let out =
      Hashtbl.fold
        (fun id log acc -> if Seq.exists by_other (Queue.to_seq log) then id :: acc else acc)
        t.dirty_log []
    in
    t.synced.(for_host) <- t.interval;
    (* prune log entries everyone has seen *)
    let min_synced = Array.fold_left min max_int t.synced in
    Hashtbl.iter
      (fun _ log ->
        while
          match Queue.peek_opt log with
          | Some (interval, _) -> interval <= min_synced
          | None -> false
        do
          ignore (Queue.take log)
        done)
      t.dirty_log;
    out

  let grant t lock dst =
    let invalidate = invalidation_list t ~for_host:dst in
    send t ~src:manager ~dst ~bytes:(notice_bytes invalidate) (L_grant { lock; invalidate })

  (* ---------------------------------------------------------------- *)
  (* Host-side actions                                                 *)
  (* ---------------------------------------------------------------- *)

  (* Acquire: drop the clean copies of units others have released.  A dirty
     copy stays: a data-race-free program never has a unit dirty here while
     another host releases writes to it. *)
  let invalidate_units t h ids =
    List.iter
      (fun id ->
        match state_of h id with
        | Clean ->
          Hashtbl.remove h.state id;
          set_prot h (unit_of_id t id) Prot.No_access
        | Invalid | Dirty _ -> ())
      ids

  (* Release: diff every dirty unit against its twin, in ascending id, ship
     the diffs to the homes and wait for their acks, then give the manager
     the write notices (eager release consistency). *)
  let flush ctx =
    let t = ctx.t and h = ctx.hs in
    let dirtied = ref [] in
    (* acks may arrive while later diffs are still being created (the creation
       delay suspends this thread), so the pending counter must be live from
       the first send *)
    let ev = Sync.Event.create ~auto_reset:false ~name:flush_name () in
    h.flush_pending <- 0;
    h.flush_event <- Some ev;
    let dirty =
      Hashtbl.fold (fun id s acc -> match s with Dirty _ -> id :: acc | Invalid | Clean -> acc)
        h.state []
    in
    List.iter
      (fun id ->
        match state_of h id with
        | Dirty twin ->
          let u = unit_of_id t id in
          (* the §5 payoff: diff cost scales with the unit, not the page *)
          Engine.delay (Twin_diff.creation_cost_us ~page_bytes:u.length);
          let diff = Twin_diff.diff ~twin ~current:(bytes_of h u) in
          (* write-protect before charging the set-protection delay: a
             write by another thread during the delay then faults and twins
             afresh, instead of landing unrecorded in a clean copy *)
          Hashtbl.replace h.state id Clean;
          set_prot h u Prot.Read_only;
          prot_delay u;
          if not (Twin_diff.is_empty diff) then begin
            dirtied := id :: !dirtied;
            t.diffs <- t.diffs + 1;
            t.diff_bytes <- t.diff_bytes + Twin_diff.encoded_bytes diff;
            let hm = home t id in
            (* at the home, memory already is the committed copy *)
            if hm <> h.id then begin
              h.flush_pending <- h.flush_pending + 1;
              send t ~src:h.id ~dst:hm
                ~bytes:(header_bytes + Twin_diff.encoded_bytes diff)
                (Diff_msg { id; diff; from = h.id })
            end
          end
        | Invalid | Clean -> ())
      (List.sort compare dirty);
    while h.flush_pending > 0 do
      Sync.Event.reset ev;
      if h.flush_pending > 0 then Sync.Event.wait ev
    done;
    h.flush_event <- None;
    if !dirtied <> [] then
      send t ~src:h.id ~dst:manager ~bytes:header_bytes
        (Rel_notice { from = h.id; ids = !dirtied })

  (* The fetch of [id] in flight from its home, sending the request if there
     is none. *)
  let request t h id =
    find_or_add h.fetching id (fun () ->
        send t ~src:h.id ~dst:(home t id) ~bytes:header_bytes (Fetch { id; from = h.id });
        Sync.Event.create ~auto_reset:false ~name:fetch_name ())

  (* Bring a unit in from its home, or validate it in place at the home,
     whose memory always holds the committed copy. *)
  let fetch ctx (u : Minipage.t) =
    let t = ctx.t and h = ctx.hs in
    if home t u.id = h.id then validate h u
    else begin
      Sync.Event.wait (request t h u.id);
      Engine.delay wakeup_us
    end

  let on_fault ctx (f : Vm.fault) =
    let t = ctx.t and h = ctx.hs in
    let t0 = Engine.now t.engine in
    let span = fresh_req t in
    let access =
      match f.access with Prot.Read -> Mp_obs.Event.Read | Prot.Write -> Mp_obs.Event.Write
    in
    Obs.fault_begin t.obs ~time:t0 ~host:h.id ~span ~access ~addr:f.addr ~view:f.view
      ~vpage:f.vpage;
    Engine.delay fault_us;
    let u = unit_at t f.addr in
    (match (f.access, state_of h u.id) with
    | (Prot.Read | Prot.Write), Invalid ->
      (* a write retries after the fetch, faults again and twins *)
      fetch ctx u
    | Prot.Write, Clean ->
      Engine.delay (twin_us *. float_of_int u.length /. float_of_int page_size);
      t.twins <- t.twins + 1;
      (* [bytes_of] copies the unit out of memory: that copy is the twin *)
      Hashtbl.replace h.state u.id (Dirty (bytes_of h u));
      prot_delay u;
      set_prot h u Prot.Read_write
    | Prot.Read, (Clean | Dirty _) | Prot.Write, Dirty _ ->
      failwith (G.name ^ ": fault on an accessible unit"));
    let dt = Engine.now t.engine -. t0 in
    (match f.access with
    | Prot.Read -> h.bd.Breakdown.read_fault <- h.bd.Breakdown.read_fault +. dt
    | Prot.Write -> h.bd.Breakdown.write_fault <- h.bd.Breakdown.write_fault +. dt);
    Obs.fault_end t.obs ~time:(Engine.now t.engine) ~host:h.id ~span

  (* ---------------------------------------------------------------- *)
  (* Message dispatch (runs in each host's server process)             *)
  (* ---------------------------------------------------------------- *)

  let on_message t h (m : body Fabric.msg) =
    match m.Fabric.body with
    | Fetch { id; from } ->
      Engine.delay dispatch_us;
      let u = unit_of_id t id in
      send t ~src:h.id ~dst:from ~bytes:(header_bytes + u.length)
        (Fetch_reply { id; data = bytes_of h u })
    | Fetch_reply { id; data } ->
      let u = unit_of_id t id in
      Engine.delay (dispatch_us +. (recv_dma_us_per_byte *. float_of_int u.length));
      (match state_of h id with
      | Invalid ->
        Vm.priv_write_bytes h.vm ~off:u.offset data;
        validate h u
      | Clean | Dirty _ -> ());
      Option.iter
        (fun ev ->
          Hashtbl.remove h.fetching id;
          Sync.Event.set ev)
        (Hashtbl.find_opt h.fetching id)
    | Diff_msg { id; diff; from } ->
      Engine.delay (dispatch_us +. Twin_diff.apply_cost_us diff);
      let u = unit_of_id t id in
      let target = bytes_of h u in
      Twin_diff.apply diff target;
      Vm.priv_write_bytes h.vm ~off:u.offset target;
      send t ~src:h.id ~dst:from ~bytes:header_bytes Diff_ack
    | Diff_ack ->
      Engine.delay sync_dispatch_us;
      h.flush_pending <- h.flush_pending - 1;
      if h.flush_pending = 0 then Option.iter Sync.Event.set h.flush_event
    | Rel_notice { from; ids } ->
      Engine.delay sync_dispatch_us;
      t.interval <- t.interval + 1;
      List.iter
        (fun id -> Queue.add (t.interval, from) (find_or_add t.dirty_log id Queue.create))
        ids
    | B_enter { phase } ->
      Engine.delay sync_dispatch_us;
      let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.barrier_counts phase) in
      if count >= t.total_threads then begin
        Hashtbl.remove t.barrier_counts phase;
        for dst = 0 to hosts t - 1 do
          let invalidate = invalidation_list t ~for_host:dst in
          send t ~src:manager ~dst ~bytes:(notice_bytes invalidate)
            (B_release { phase; invalidate })
        done
      end
      else Hashtbl.replace t.barrier_counts phase count
    | B_release { phase; invalidate } ->
      Engine.delay sync_dispatch_us;
      invalidate_units t h invalidate;
      Sync.Event.set (barrier_event h phase)
    | L_acquire { from; lock } ->
      Engine.delay sync_dispatch_us;
      let s = find_or_add t.locks lock (fun () -> { held = false; lock_queue = Queue.create () }) in
      if s.held then Queue.add from s.lock_queue
      else begin
        s.held <- true;
        grant t lock from
      end
    | L_grant { lock; invalidate } -> (
      Engine.delay sync_dispatch_us;
      invalidate_units t h invalidate;
      match Hashtbl.find_opt h.lock_waiters lock with
      | Some q when not (Queue.is_empty q) -> Sync.Event.set (Queue.take q)
      | Some _ | None -> failwith (G.name ^ ": lock grant with no local waiter"))
    | L_release { lock } -> (
      Engine.delay sync_dispatch_us;
      let s = Hashtbl.find t.locks lock in
      match Queue.take_opt s.lock_queue with
      | Some next -> grant t lock next
      | None -> s.held <- false)

  (* ---------------------------------------------------------------- *)
  (* Construction / init phase                                         *)
  (* ---------------------------------------------------------------- *)

  let create engine ~hosts:nhosts ?(polling = Polling.nt_mode) grain =
    if nhosts <= 0 then invalid_arg (G.name ^ ".create: hosts");
    let fabric = Fabric.create engine ~hosts:nhosts ~polling ~seed:1 () in
    let mk_host id =
      let vm = Vm.create (Memobject.create ~page_size ~size:object_size ()) in
      for _ = 1 to G.views do
        ignore (Vm.map_view vm Prot.No_access)
      done;
      ignore (Vm.map_privileged_view vm);
      {
        id;
        vm;
        state = Hashtbl.create 256;
        fetching = Hashtbl.create 16;
        flush_pending = 0;
        flush_event = None;
        barrier_events = Hashtbl.create 16;
        lock_waiters = Hashtbl.create 8;
        computing = 0;
        bd = Breakdown.create ();
      }
    in
    let t =
      {
        engine;
        obs = Obs.create ();
        fabric;
        host_states = Array.init nhosts mk_host;
        grain;
        units = Hashtbl.create 256;
        interval = 0;
        dirty_log = Hashtbl.create 256;
        synced = Array.make nhosts 0;
        barrier_counts = Hashtbl.create 16;
        locks = Hashtbl.create 8;
        compositions = Hashtbl.create 8;
        next_req = 0;
        total_threads = 0;
        finished_threads = 0;
        twins = 0;
        diffs = 0;
        diff_bytes = 0;
        started = false;
      }
    in
    Fabric.attach_obs fabric ~obs:t.obs ~describe;
    Array.iter
      (fun h -> Fabric.set_handler fabric ~host:h.id (fun m -> on_message t h m))
      t.host_states;
    t

  (* Every unit the block covers starts as a clean read-only copy at its
     home.  A unit a chunk grows is covered again, over its new length. *)
  let malloc t size =
    if t.started then invalid_arg (G.name ^ ".malloc: allocation only in the init phase");
    if size <= 0 then invalid_arg (G.name ^ ".malloc: size");
    let off = G.alloc t.grain size in
    let rec cover o =
      if o < off + size then begin
        let u = Option.get (G.find t.grain o) in
        Hashtbl.replace t.units u.id u;
        let h = t.host_states.(home t u.id) in
        Hashtbl.replace h.state u.id Clean;
        set_prot h u Prot.Read_only;
        cover (Minipage.end_offset u)
      end
    in
    cover off;
    Vm.address t.host_states.(0).vm ~view:(Option.get (G.find t.grain off)).view off

  (* Initial values land in the home's copy, which readers fetch. *)
  let init_write t addr b =
    let _, _, off = Vm.translate t.host_states.(0).vm addr in
    Vm.priv_write_bytes t.host_states.(home t (unit_at t addr).id).vm ~off b

  let init_write_f64 t addr v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.bits_of_float v);
    init_write t addr b

  let init_write_int t addr v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    init_write t addr b

  let init_write_i32 t addr v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 v;
    init_write t addr b

  let init_write_f32 t addr v = init_write_i32 t addr (Int32.bits_of_float v)
  let init_write_u8 t addr v = init_write t addr (Bytes.make 1 (Char.chr (v land 0xFF)))

  let spawn t ~host ?name f =
    if host < 0 || host >= hosts t then invalid_arg (G.name ^ ".spawn: bad host");
    t.total_threads <- t.total_threads + 1;
    let name = Option.value ~default:(Printf.sprintf "app.h%d" host) name in
    let rec ctx =
      { t; hs = t.host_states.(host); barrier_phase = 0; handler = (fun f -> on_fault ctx f) }
    in
    Engine.spawn t.engine ~name (fun () ->
        f ctx;
        t.finished_threads <- t.finished_threads + 1)

  let run t =
    t.started <- true;
    Engine.run t.engine;
    if t.finished_threads < t.total_threads then
      raise
        (Mp_millipage.Dsm.Deadlock
           (Printf.sprintf "%s: %d/%d application threads did not finish" G.name
              (t.total_threads - t.finished_threads)
              t.total_threads))

  (* ---------------------------------------------------------------- *)
  (* Thread operations                                                 *)
  (* ---------------------------------------------------------------- *)

  let host ctx = ctx.hs.id

  (* The host's vm, its fault handler bound to the accessing thread (threads
     interleave only at suspension points, and a handler captures its ctx on
     entry). *)
  let vm ctx =
    Vm.set_fault_handler ctx.hs.vm ctx.handler;
    ctx.hs.vm

  let read_f64 ctx addr = Vm.read_f64 (vm ctx) addr
  let write_f64 ctx addr v = Vm.write_f64 (vm ctx) addr v
  let read_int ctx addr = Vm.read_int (vm ctx) addr
  let write_int ctx addr v = Vm.write_int (vm ctx) addr v
  let read_i32 ctx addr = Vm.read_i32 (vm ctx) addr
  let write_i32 ctx addr v = Vm.write_i32 (vm ctx) addr v
  let read_f32 ctx addr = Vm.read_f32 (vm ctx) addr
  let write_f32 ctx addr v = Vm.write_f32 (vm ctx) addr v
  let read_u8 ctx addr = Vm.read_u8 (vm ctx) addr
  let write_u8 ctx addr v = Vm.write_u8 (vm ctx) addr v
  let charge_synch h dt = h.bd.Breakdown.synch <- h.bd.Breakdown.synch +. dt

  let compute ctx us =
    if us < 0.0 then invalid_arg (G.name ^ ".compute: negative time");
    let t = ctx.t and h = ctx.hs in
    h.computing <- h.computing + 1;
    if h.computing = 1 then Fabric.set_busy t.fabric ~host:h.id true;
    Engine.delay us;
    h.bd.Breakdown.compute <- h.bd.Breakdown.compute +. us;
    h.computing <- h.computing - 1;
    if h.computing = 0 then Fabric.set_busy t.fabric ~host:h.id false

  let barrier ctx =
    let t = ctx.t and h = ctx.hs in
    let t0 = Engine.now t.engine in
    flush ctx;
    let phase = ctx.barrier_phase in
    ctx.barrier_phase <- phase + 1;
    let ev = barrier_event h phase in
    Obs.barrier_enter t.obs ~time:(Engine.now t.engine) ~host:h.id ~bphase:phase;
    send t ~src:h.id ~dst:manager ~bytes:header_bytes (B_enter { phase });
    Sync.Event.wait ev;
    Engine.delay wakeup_us;
    Obs.barrier_exit t.obs ~time:(Engine.now t.engine) ~host:h.id ~bphase:phase
      ~waited_us:(Engine.now t.engine -. t0);
    charge_synch h (Engine.now t.engine -. t0)

  let lock ctx l =
    let t = ctx.t and h = ctx.hs in
    let ev = Sync.Event.create ~name:lock_name () in
    Queue.add ev (find_or_add h.lock_waiters l Queue.create);
    let t0 = Engine.now t.engine in
    Obs.lock_acquire t.obs ~time:t0 ~host:h.id ~lock:l;
    send t ~src:h.id ~dst:manager ~bytes:header_bytes (L_acquire { from = h.id; lock = l });
    Sync.Event.wait ev;
    Engine.delay wakeup_us;
    Obs.lock_grant t.obs ~time:(Engine.now t.engine) ~host:h.id ~lock:l
      ~waited_us:(Engine.now t.engine -. t0);
    charge_synch h (Engine.now t.engine -. t0)

  let unlock ctx l =
    let t = ctx.t and h = ctx.hs in
    let t0 = Engine.now t.engine in
    flush ctx;
    Obs.lock_release t.obs ~time:(Engine.now t.engine) ~host:h.id ~lock:l;
    send t ~src:h.id ~dst:manager ~bytes:header_bytes (L_release { lock = l });
    charge_synch h (Engine.now t.engine -. t0)

  let prefetch ctx addr _access =
    let t = ctx.t and h = ctx.hs in
    match find_unit t addr with
    | Some u when state_of h u.id = Invalid && home t u.id <> h.id -> ignore (request t h u.id)
    | Some _ | None -> ()

  let push_to_all ctx _addr =
    let t0 = Engine.now ctx.t.engine in
    flush ctx;
    charge_synch ctx.hs (Engine.now ctx.t.engine -. t0)

  (* Composed views, approximated: remember the member addresses and fetch
     them as a pipeline of unit requests — the first read blocks while the
     rest stream in behind it. *)
  let compose t addrs =
    let id = fresh_req t in
    Hashtbl.add t.compositions id (Array.copy addrs);
    id

  let fetch_group ctx group_id =
    match Hashtbl.find_opt ctx.t.compositions group_id with
    | None -> invalid_arg (G.name ^ ".fetch_group: unknown composed view")
    | Some addrs ->
      Array.iter (fun addr -> prefetch ctx addr Prot.Read) addrs;
      (* touch each member so the call blocks until everything has landed *)
      Array.iter (fun addr -> ignore (read_u8 ctx addr)) addrs

  (* ---------------------------------------------------------------- *)
  (* Statistics                                                        *)
  (* ---------------------------------------------------------------- *)

  let messages_sent t = (Fabric.stats t.fabric).sent
  let bytes_sent t = (Fabric.stats t.fabric).bytes
  let sum_hosts t f = Array.fold_left (fun acc h -> acc + f h.vm) 0 t.host_states
  let read_faults t = sum_hosts t Vm.read_faults
  let write_faults t = sum_hosts t Vm.write_faults

  let breakdown t =
    Breakdown.to_list
      (Array.fold_left (fun acc h -> Breakdown.add acc h.bd) (Breakdown.zero ()) t.host_states)

  let obs t = t.obs
  let profile t = Mp_obs.Profile.attached t.obs
  let diffs_created t = t.diffs
  let diff_bytes t = t.diff_bytes
  let twins_created t = t.twins

  (* every unit is served by the twin/diff multi-writer protocol, always *)
  let mode_of _ _ = Mp_millipage.Proto.Rc
  let modes t = [ (Mp_millipage.Proto.Sc, 0); (Mp_millipage.Proto.Rc, Hashtbl.length t.units) ]
end
