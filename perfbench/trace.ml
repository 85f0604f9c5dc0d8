(** Span log of a traced run.

    A span covers one call into a layer, recorded by the benchmark around
    that call: its layer name, start and end on both clocks (host ns and
    simulated µs), the host it ran for, and the span that contains it.
    Spans stay in memory while the run measures and are written out as JSON
    lines when it ends.  With tracing off nothing is recorded. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** {!none} for a root span *)
  host : int;  (** simulated host, or -1 when the span is not a host's *)
  t0_ns : int;
  s0_us : float;
  mutable t1_ns : int;
  mutable s1_us : float;
}

let none = -1
let on = ref false
let log : span list ref = ref []
let next = ref 0

let reset ~enabled =
  on := enabled;
  log := [];
  next := 0

(** [traced f] runs [f] with span recording on, keeping earlier spans. *)
let traced f =
  on := true;
  Fun.protect ~finally:(fun () -> on := false) f

let record ?(parent = none) ?(host = -1) name ~t0_ns ~t1_ns ~s0_us ~s1_us =
  if not !on then none
  else begin
    let id = !next in
    incr next;
    log := { id; name; parent; host; t0_ns; s0_us; t1_ns; s1_us } :: !log;
    id
  end

(** Open a span now; close it with {!finish}. *)
let start ?parent ?host name ~sim_us =
  let t = Clock.now_ns () in
  record ?parent ?host name ~t0_ns:t ~t1_ns:t ~s0_us:sim_us ~s1_us:sim_us

let finish id ~sim_us =
  if id <> none then
    match !log with
    | sp :: _ when sp.id = id ->
      sp.t1_ns <- Clock.now_ns ();
      sp.s1_us <- sim_us
    | l ->
      let sp = List.find (fun sp -> sp.id = id) l in
      sp.t1_ns <- Clock.now_ns ();
      sp.s1_us <- sim_us

let spans () = List.rev !log

let write file =
  let oc = open_out file in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"host\":%d,\"t0_ns\":%d,\"t1_ns\":%d,\"s0_us\":%.17g,\"s1_us\":%.17g}\n"
        sp.id sp.name sp.parent sp.host sp.t0_ns sp.t1_ns sp.s0_us sp.s1_us)
    (spans ());
  close_out oc
