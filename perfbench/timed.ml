(** A counting and timing wrapper over any DSM.

    [Make (D)] satisfies {!Mp_dsm.Dsm_intf.S} itself, so the unchanged
    application functors run on it, as in [Lu.Make (Make (Millipage_impl))],
    and the dsm boundary is measured from outside [lib/].

    Every shared access is counted and checks whether it advanced
    [Engine.now]: one that did blocked on the protocol, one that did not is
    a hit.  Reading the host clock on every access doubles LU's wall time,
    so only one access in {!sample_every} is timed, with its minor-heap
    words.  Blocking accesses, barriers and locks become {!Trace} spans under
    the run span; a blocking access's host start is the host clock at the
    latest sampled access, at most [sample_every - 1] accesses earlier. *)

open Mp_sim

let sample_every = 64

type stats = {
  engine : Engine.t;
  mutable calls : int;
  mutable blocked : int;
  mutable hits_sampled : int;
  mutable hit_ns : int;
  mutable hit_words : float;
  mutable last_ns : int;
  fault_us : Sample.t;  (** simulated wait of each blocking access *)
  sync_us : Sample.t;  (** simulated time of each barrier and lock *)
  mutable run_span : int;  (** parent of the access and sync spans *)
}

module Make (D : Mp_dsm.Dsm_intf.S) : sig
  include Mp_dsm.Dsm_intf.S

  val wrap : D.t -> t
  val stats : t -> stats
end = struct
  type t = { d : D.t; st : stats }
  type ctx = { c : D.ctx; cst : stats }

  let wrap d =
    {
      d;
      st =
        {
          engine = D.engine d;
          calls = 0;
          blocked = 0;
          hits_sampled = 0;
          hit_ns = 0;
          hit_words = 0.0;
          last_ns = Clock.now_ns ();
          fault_us = Sample.create ();
          sync_us = Sample.create ();
          run_span = Trace.none;
        };
    }

  let stats t = t.st
  let name = D.name
  let hosts t = D.hosts t.d
  let engine t = D.engine t.d
  let home_of t ~addr = D.home_of t.d ~addr
  let malloc t n = D.malloc t.d n
  let init_write_f64 t a v = D.init_write_f64 t.d a v
  let init_write_int t a v = D.init_write_int t.d a v
  let init_write_i32 t a v = D.init_write_i32 t.d a v
  let init_write_f32 t a v = D.init_write_f32 t.d a v
  let init_write_u8 t a v = D.init_write_u8 t.d a v
  let spawn t ~host ?name f = D.spawn t.d ~host ?name (fun c -> f { c; cst = t.st })

  let run t = D.run t.d
  let host c = D.host c.c

  let blocked st c ~t0_ns s0 =
    st.blocked <- st.blocked + 1;
    let s1 = Engine.now st.engine in
    Sample.add st.fault_us (s1 -. s0);
    ignore
      (Trace.record "dsm.fault" ~parent:st.run_span ~host:(D.host c.c) ~t0_ns
         ~t1_ns:(Clock.now_ns ()) ~s0_us:s0 ~s1_us:s1)

  let sampled st c s0 ~t0 ~t1 ~words =
    st.last_ns <- t1;
    if Engine.now st.engine = s0 then begin
      st.hits_sampled <- st.hits_sampled + 1;
      st.hit_ns <- st.hit_ns + (t1 - t0);
      st.hit_words <- st.hit_words +. words
    end
    else blocked st c ~t0_ns:t0 s0

  (* [get] and [set] take the wrapped accessor as a first-order argument
     (a static closure), so the unsampled path allocates nothing beyond
     what the accessor itself does. *)
  let get (f : D.ctx -> int -> 'a) c addr : 'a =
    let st = c.cst in
    let s0 = Engine.now st.engine in
    let n = st.calls + 1 in
    st.calls <- n;
    if n land (sample_every - 1) = 0 then begin
      let w0 = Gc.minor_words () in
      let t0 = Clock.now_ns () in
      let r = f c.c addr in
      let t1 = Clock.now_ns () in
      sampled st c s0 ~t0 ~t1 ~words:(Gc.minor_words () -. w0);
      r
    end
    else begin
      let h0 = st.last_ns in
      let r = f c.c addr in
      if Engine.now st.engine <> s0 then blocked st c ~t0_ns:h0 s0;
      r
    end

  let set (f : D.ctx -> int -> 'v -> unit) c addr (v : 'v) =
    let st = c.cst in
    let s0 = Engine.now st.engine in
    let n = st.calls + 1 in
    st.calls <- n;
    if n land (sample_every - 1) = 0 then begin
      let w0 = Gc.minor_words () in
      let t0 = Clock.now_ns () in
      f c.c addr v;
      let t1 = Clock.now_ns () in
      sampled st c s0 ~t0 ~t1 ~words:(Gc.minor_words () -. w0)
    end
    else begin
      let h0 = st.last_ns in
      f c.c addr v;
      if Engine.now st.engine <> s0 then blocked st c ~t0_ns:h0 s0
    end

  let read_f64 c a = get D.read_f64 c a
  let write_f64 c a v = set D.write_f64 c a v
  let read_int c a = get D.read_int c a
  let write_int c a v = set D.write_int c a v
  let read_i32 c a = get D.read_i32 c a
  let write_i32 c a v = set D.write_i32 c a v
  let read_f32 c a = get D.read_f32 c a
  let write_f32 c a v = set D.write_f32 c a v
  let read_u8 c a = get D.read_u8 c a
  let write_u8 c a v = set D.write_u8 c a v
  let compute c us = D.compute c.c us

  let sync name f c =
    let st = c.cst in
    let s0 = Engine.now st.engine and t0_ns = Clock.now_ns () in
    f ();
    let s1 = Engine.now st.engine in
    Sample.add st.sync_us (s1 -. s0);
    ignore
      (Trace.record name ~parent:st.run_span ~host:(D.host c.c) ~t0_ns
         ~t1_ns:(Clock.now_ns ()) ~s0_us:s0 ~s1_us:s1)

  let barrier c = sync "dsm.barrier" (fun () -> D.barrier c.c) c
  let lock c l = sync "dsm.lock" (fun () -> D.lock c.c l) c
  let unlock c l = D.unlock c.c l
  let prefetch c a access = D.prefetch c.c a access
  let push_to_all c a = D.push_to_all c.c a
  let compose t addrs = D.compose t.d addrs
  let fetch_group c g = D.fetch_group c.c g
  let mode_of t id = D.mode_of t.d id
  let modes t = D.modes t.d
  let messages_sent t = D.messages_sent t.d
  let bytes_sent t = D.bytes_sent t.d
  let read_faults t = D.read_faults t.d
  let write_faults t = D.write_faults t.d
  let breakdown t = D.breakdown t.d
  let obs t = D.obs t.d
  let profile t = D.profile t.d
end
