open Mp_util
open Mp_sim

type 'a msg = { src : int; dst : int; mutable bytes : int; mutable body : 'a }

(* A carrier is a message record and the engine event that delivers it.
   Both are reused, message after message on one channel: a carrier is
   free from when its message is done with (its handler has returned, or a
   dead host dropped it) until the channel's next send. *)
type 'a carrier = { msg : 'a msg; mutable deliver : Engine.event }

type faults = {
  drop : float;  (* P(a copy is discarded on the wire) *)
  duplicate : float;  (* P(a second copy is delivered) *)
  reorder : float;  (* P(a message escapes the FIFO clamp) *)
  jitter_us : float;  (* extra uniform latency in [0, jitter_us) *)
}

let no_faults = { drop = 0.0; duplicate = 0.0; reorder = 0.0; jitter_us = 0.0 }

let faults_active f =
  f.drop > 0.0 || f.duplicate > 0.0 || f.reorder > 0.0 || f.jitter_us > 0.0

(* Minimum spacing between consecutive arrivals on one (src, dst) channel:
   the FIFO clamp adds it to the previous arrival, and duplicate injection
   uses it to keep the ghost copy strictly behind the original. *)
let fifo_spacing_us = 0.001

(* Marks a node without an armed poll timer, and a carrier under
   construction. *)
let no_event = Engine.event ~label:"" ignore

(* Arrived, unhandled messages are the [len] slots of [ring] from [head]
   on, a ring whose capacity is a power of two.  It grows by doubling, so
   queueing a message allocates nothing once it has grown. *)
type 'a node = {
  id : int;
  mutable ring : 'a carrier array;
  mutable head : int;
  mutable len : int;
  wake : Sync.Event.t;
  mutable handler : ('a msg -> unit) option;
  polling : Polling.t;
  mutable busy : bool;
  mutable armed : Engine.event;  (* the armed poll timer; [no_event] when none *)
  timers : Engine.event Pool.t;  (* free poll timers *)
  mutable dead : bool;  (* crashed host: endpoint silent both ways *)
  mutable stalled_until : float;  (* polls deferred past this instant *)
  poll_label : string;  (* precomputed event label for schedule exploration *)
}

type latency = { base_us : float; per_byte_us : float }

type stats = {
  mutable sent : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
}

(* The times a send and a poll arm compute live in [Float.Array] slots and
   are posted from there: a float passed to another module's function is
   boxed. *)
type 'a t = {
  engine : Engine.t;
  nodes : 'a node array;
  latency : latency;
  chan_last : Float.Array.t;  (* per (src,dst) last arrival, for FIFO *)
  pending_poll : Float.Array.t;  (* per host earliest scheduled wake; infinity when none *)
  spare : Float.Array.t;  (* one slot for a time a send or a poll arm computes *)
  chan_label : string array;  (* per (src,dst) "net:hS>hD" event label *)
  free : 'a carrier Pool.t array;  (* per (src,dst) free carriers *)
  stats : stats;
  faults : faults;
  fault_rngs : Prng.t array option;  (* per (src,dst); None when fault-free *)
  mutable obs : (Mp_obs.Recorder.t * ('a -> string)) option;
}

let fm_latency = { base_us = 11.4; per_byte_us = 0.0196 }

(* An all-float record is stored flat, so neither reading the coefficients
   nor this sum boxes a float. *)
let latency_us l ~bytes = l.base_us +. (l.per_byte_us *. float_of_int bytes)
let default_latency ~bytes = latency_us fm_latency ~bytes

(* A full ring doubles by [Array.append], which never forces a minor
   collection (see [Pool]); the doubled ring holds its [len] messages in
   order from [head]. *)
let ring_push n c =
  if n.len = Array.length n.ring then
    n.ring <- (if n.len = 0 then Array.make 16 c else Array.append n.ring n.ring);
  n.ring.((n.head + n.len) land (Array.length n.ring - 1)) <- c;
  n.len <- n.len + 1

let ring_take n =
  let m = n.ring.(n.head) in
  n.head <- (n.head + 1) land (Array.length n.ring - 1);
  n.len <- n.len - 1;
  m

let release t c = Pool.push t.free.((c.msg.src * Array.length t.nodes) + c.msg.dst) c

let disarm_poll t n =
  n.armed <- no_event;
  Float.Array.set t.pending_poll n.id infinity

(* A poll timer superseded by a later arm or a disarm does nothing when it
   fires: signalling the auto-reset wake event spuriously would satisfy the
   server's next wait for free.  It stays queued rather than being removed,
   because schedule exploration counts it in its tie groups.  Either way,
   once fired it is free again. *)
let poll_fired t n timer =
  Pool.push n.timers timer;
  if n.armed == timer then begin
    disarm_poll t n;
    (match t.obs with
    | Some (obs, _) when n.busy ->
      Mp_obs.Recorder.sweeper_wake obs ~time:(Engine.now t.engine) ~host:n.id
    | _ -> ());
    Sync.Event.set n.wake
  end

let create engine ~hosts ?(latency = fm_latency) ?(poll_idle_us = 2.0)
    ?(polling = Polling.nt_mode) ?(seed = 1) ?(faults = no_faults)
    ?(fault_seed = 9) () =
  if hosts <= 0 then invalid_arg "Fabric.create: hosts";
  if
    faults.drop < 0.0 || faults.drop >= 1.0 || faults.duplicate < 0.0
    || faults.duplicate > 1.0 || faults.reorder < 0.0 || faults.reorder > 1.0
    || faults.jitter_us < 0.0
  then invalid_arg "Fabric.create: faults";
  let root_rng = Prng.create ~seed in
  let node id =
    {
      id;
      ring = [||];
      head = 0;
      len = 0;
      wake = Sync.Event.create ~name:(Printf.sprintf "fabric.wake.h%d" id) ();
      handler = None;
      polling = Polling.create polling ~poll_idle_us ~rng:(Prng.split root_rng);
      busy = false;
      armed = no_event;
      timers = Pool.create ();
      dead = false;
      stalled_until = neg_infinity;
      poll_label = Printf.sprintf "poll:h%d" id;
    }
  in
  (* The fault RNGs come from a separate root so that enabling faults never
     perturbs the polling streams, and each channel gets its own split so a
     channel's fault schedule is independent of traffic elsewhere. *)
  let fault_rngs =
    if faults_active faults then begin
      let fault_root = Prng.create ~seed:fault_seed in
      Some (Array.init (hosts * hosts) (fun _ -> Prng.split fault_root))
    end
    else None
  in
  let t =
    {
      engine;
      nodes = Array.init hosts node;
      latency;
      chan_last = Float.Array.make (hosts * hosts) neg_infinity;
      pending_poll = Float.Array.make hosts infinity;
      spare = Float.Array.make 1 0.0;
      chan_label =
        Array.init (hosts * hosts) (fun c ->
            Printf.sprintf "net:h%d>h%d" (c / hosts) (c mod hosts));
      free = Array.init (hosts * hosts) (fun _ -> Pool.create ());
      stats = { sent = 0; bytes = 0; dropped = 0; duplicated = 0; reordered = 0 };
      faults;
      fault_rngs;
      obs = None;
    }
  in
  (* One server process per host: FM handlers run to completion, one message
     at a time, on the host's DSM server thread. *)
  Array.iter
    (fun n ->
      Engine.spawn engine
        ~name:(Printf.sprintf "fabric.server.h%d" n.id)
        ~group:n.id
        (fun () ->
          let rec loop () =
            Sync.Event.wait n.wake;
            while n.len > 0 do
              let c = ring_take n in
              let m = c.msg in
              (match t.obs with
              | Some (obs, describe) when Mp_obs.Recorder.enabled obs ->
                Mp_obs.Recorder.msg_recv obs ~time:(Engine.now engine) ~host:n.id
                  ~src:m.src ~bytes:m.bytes ~label:(describe m.body)
                  ~queue_depth:n.len
              | Some _ | None -> ());
              (match n.handler with
              | Some h -> h m
              | None -> failwith "Fabric: message for host without handler");
              release t c
            done;
            loop ()
          in
          loop ()))
    t.nodes;
  t

let attach_obs t ~obs ~describe = t.obs <- Some (obs, describe)

let hosts t = Array.length t.nodes
let engine t = t.engine
let faulty t = t.fault_rngs <> None

let node t host =
  if host < 0 || host >= Array.length t.nodes then invalid_arg "Fabric: bad host";
  t.nodes.(host)

let set_handler t ~host h = (node t host).handler <- Some h

(* Arms a poll for messages that arrived now, unless one is armed for no
   later than the poll would come. *)
let schedule_poll t n =
  if n.dead then ()
  else begin
    Engine.now_into t.engine t.spare 0;
    let now = Float.Array.get t.spare 0 in
    Polling.next_poll_time n.polling ~busy:n.busy t.spare 0;
    (* A stalled host's CPU is frozen: it cannot poll before the stall ends. *)
    if n.stalled_until > Float.Array.get t.spare 0 then
      Float.Array.set t.spare 0 n.stalled_until;
    let pending = Float.Array.get t.pending_poll n.id in
    if pending <= now || pending > Float.Array.get t.spare 0 then begin
      Float.Array.set t.pending_poll n.id (Float.Array.get t.spare 0);
      (* arming supersedes any timer still queued *)
      let timer =
        if not (Pool.is_empty n.timers) then Pool.pop n.timers
        else begin
          let self = ref no_event in
          self := Engine.event ~label:n.poll_label (fun () -> poll_fired t n !self);
          !self
        end
      in
      n.armed <- timer;
      Engine.post_slot t.engine timer t.pending_poll n.id
    end
  end

let arrive t n c =
  if n.dead then release t c
  else begin
    ring_push n c;
    schedule_poll t n
  end

(* Posts a copy of [body] on channel [chan], to arrive at the time in
   [a.(i)], in a free carrier, or in a new one when the channel has none. *)
let deliver t (dst_node : 'a node) ~chan ~src ~bytes body a i =
  let free = t.free.(chan) in
  let c =
    if not (Pool.is_empty free) then begin
      let c = Pool.pop free in
      c.msg.bytes <- bytes;
      c.msg.body <- body;
      c
    end
    else begin
      let c = { msg = { src; dst = dst_node.id; bytes; body }; deliver = no_event } in
      c.deliver <- Engine.event ~label:t.chan_label.(chan) (fun () -> arrive t dst_node c);
      c
    end
  in
  Engine.post_slot t.engine c.deliver a i

let crash t ~host =
  let n = node t host in
  if not n.dead then begin
    n.dead <- true;
    n.stalled_until <- neg_infinity;
    (* Arrived-but-unhandled messages die with the host, and their carriers
       are free again; cancel any armed poll so the (killed) server process
       is never signalled again. *)
    while n.len > 0 do
      release t (ring_take n)
    done;
    disarm_poll t n
  end

let stall t ~host ~until =
  let n = node t host in
  if (not n.dead) && until > n.stalled_until then begin
    n.stalled_until <- until;
    (* Disarm any poll that would fire during the stall and re-poll once the
       CPU thaws, so queued traffic is picked up then. *)
    if Float.Array.get t.pending_poll n.id < until then disarm_poll t n;
    Engine.schedule t.engine ~at:until (fun () ->
        if (not n.dead) && n.len > 0 then schedule_poll t n)
  end

let dead t ~host = (node t host).dead
let stalled_until t ~host = (node t host).stalled_until

let send t ~src ~dst ~bytes body =
  if bytes < 0 then invalid_arg "Fabric.send: negative size";
  let dst_node = node t dst in
  let src_node = node t src in
  if not src_node.dead then begin
  let st = t.stats in
  st.sent <- st.sent + 1;
  st.bytes <- st.bytes + bytes;
  Engine.now_into t.engine t.spare 0;
  let now = Float.Array.get t.spare 0 in
  (match t.obs with
  | Some (obs, describe) when Mp_obs.Recorder.enabled obs ->
    Mp_obs.Recorder.msg_send obs ~time:now ~host:src ~dst ~bytes
      ~label:(describe body)
  | Some _ | None -> ());
  let chan = (src * Array.length t.nodes) + dst in
  (* Schedule exploration: a chooser may stretch this delivery's latency.
     The perturbation lands before the FIFO clamp, so a perturbed channel
     still delivers in order — only cross-channel races move. *)
  let latency =
    let l = latency_us t.latency ~bytes in
    if Engine.chooser_active t.engine then
      l +. Engine.perturb_latency t.engine ~label:t.chan_label.(chan)
    else l
  in
  let clamp = Float.Array.get t.chan_last chan +. fifo_spacing_us in
  match t.fault_rngs with
  | None ->
    (* reliable FIFO: clamp behind the channel's previous arrival, which the
       arrival replaces in place *)
    let arrival = now +. latency in
    Float.Array.set t.chan_last chan (if clamp > arrival then clamp else arrival);
    deliver t dst_node ~chan ~src ~bytes body t.chan_last chan
  | Some rngs ->
    let f = t.faults and rng = rngs.(chan) in
    let label () =
      match t.obs with
      | Some (obs, describe) when Mp_obs.Recorder.enabled obs -> describe body
      | Some _ | None -> ""
    in
    (* Fixed draw order per send (jitter, reorder, duplicate, then one drop
       draw per copy) keeps the schedule a deterministic function of
       (fault_seed, channel, send sequence). *)
    let jitter = if f.jitter_us > 0.0 then Prng.float rng f.jitter_us else 0.0 in
    let base = now +. latency +. jitter in
    let reordered =
      f.reorder > 0.0
      && Prng.float rng 1.0 < f.reorder
      && base < clamp
    in
    let arrival =
      if reordered then begin
        (* escape the FIFO clamp: arrive at raw latency, overtaking queued
           traffic, and leave chan_last alone so later sends are unaffected *)
        t.stats.reordered <- t.stats.reordered + 1;
        (match t.obs with
        | Some (obs, _) ->
          Mp_obs.Recorder.net_reorder obs ~time:now ~host:src ~dst ~label:(label ())
        | None -> ());
        base
      end
      else begin
        let a = if clamp > base then clamp else base in
        Float.Array.set t.chan_last chan a;
        a
      end
    in
    let copies =
      if f.duplicate > 0.0 && Prng.float rng 1.0 < f.duplicate then begin
        t.stats.duplicated <- t.stats.duplicated + 1;
        (match t.obs with
        | Some (obs, _) ->
          Mp_obs.Recorder.net_dup obs ~time:now ~host:src ~dst ~label:(label ())
        | None -> ());
        2
      end
      else 1
    in
    for copy = 0 to copies - 1 do
      let dropped = f.drop > 0.0 && Prng.float rng 1.0 < f.drop in
      if dropped then begin
        t.stats.dropped <- t.stats.dropped + 1;
        match t.obs with
        | Some (obs, _) ->
          Mp_obs.Recorder.net_drop obs ~time:now ~host:src ~dst ~bytes
            ~label:(label ())
        | None -> ()
      end
      else begin
        (* the ghost copy trails the original without advancing the clamp *)
        Float.Array.set t.spare 0 (arrival +. (float_of_int copy *. fifo_spacing_us));
        deliver t dst_node ~chan ~src ~bytes body t.spare 0
      end
    done
  end

let set_busy t ~host b =
  let n = node t host in
  let was = n.busy in
  n.busy <- b;
  (* Returning to idle re-arms the poller: pending messages get picked up
     promptly instead of waiting for the sweeper. *)
  if was && (not b) && n.len > 0 then schedule_poll t n

let busy t ~host = (node t host).busy
let stats t = t.stats
let queue_depth t ~host = (node t host).len
