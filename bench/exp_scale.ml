(** Scale trajectory: SOR across host counts with the mpprof profiler
    attached.  For each host count the sweep records the wall-clock time,
    the profiled event count, simulated completion time, and the per-host
    protocol-cost account, then writes the whole trajectory to
    [BENCH_scale.json] so CI can diff the cost curve PR-over-PR. *)

open Mp_sim
open Mp_millipage
module M = Mp_dsm.Millipage_impl
module Sor_m = Mp_apps.Sor.Make (M)
module Tab = Mp_util.Tab
module Profile = Mp_obs.Profile

(* Same scaled-down SOR as the soak: boundary traffic per iteration is
   independent of [rows], so the sharing-pattern mix matches the full input
   while even the 64-host cell stays tractable. *)
let sor_params = { Mp_apps.Sor.default_params with rows = 128; iterations = 5 }
let host_counts = [ 8; 16; 32; 64 ]
let net_seed = 42

(* Per-mode protocol cost on a falsely-shared synthetic: groups of eight
   hosts share one 64-byte minipage, each host owning an 8-byte slot it
   rewrites every barrier phase before reading a neighbor's.  Under SC the
   minipage ping-pongs on every interleaved write; under RC each host pays
   one fetch-and-twin plus one release diff per phase; adaptive starts SC
   and must promote once the governor sees the write-shared signature. *)
let fs_phases = 8

type mode_cost = {
  mc_msgs : int;
  mc_bytes : int;
  mc_switches : int;
  mc_rc_pages : int;
  mc_ok : bool;
}

type run_result = {
  r_hosts : int;
  r_end_us : float;
  r_wall_s : float;
  r_events : int;
  r_verified : bool;
  r_summary : (string * int) list;
  r_hosts_cost : (int * Profile.host_cost) list;
  r_fs : (string * mode_cost) list;
}

let false_sharing_run ~hosts consistency =
  let e = Engine.create () in
  let config =
    {
      Dsm.Config.default with
      net = { Dsm.Config.Net.default with seed = net_seed };
      consistency;
    }
  in
  let dsm = Dsm.create e ~hosts ~config () in
  let groups = max 1 (hosts / 8) in
  let mps = Dsm.malloc_array dsm ~count:groups ~size:64 in
  Array.iter (fun x -> Dsm.init_write_f64 dsm x 0.0) mps;
  let ok = ref true in
  for h = 0 to hosts - 1 do
    let g = h / 8 and slot = h mod 8 in
    Dsm.spawn dsm ~host:h (fun ctx ->
        for p = 1 to fs_phases do
          let v = float_of_int ((p * 1000) + h) in
          (* two spaced writes per phase so concurrent writers interleave *)
          Dsm.write_f64 ctx (mps.(g) + (8 * slot)) v;
          Dsm.compute ctx 200.0;
          Dsm.write_f64 ctx (mps.(g) + (8 * slot)) v;
          Dsm.compute ctx 200.0;
          Dsm.barrier ctx;
          let n = (slot + 1) mod 8 in
          let got = Dsm.read_f64 ctx (mps.(g) + (8 * n)) in
          if got <> float_of_int ((p * 1000) + (g * 8) + n) then ok := false;
          Dsm.barrier ctx
        done)
  done;
  Dsm.run dsm;
  {
    mc_msgs = Dsm.messages_sent dsm;
    mc_bytes = Dsm.bytes_sent dsm;
    mc_switches = Dsm.mode_switches dsm;
    mc_rc_pages =
      (try List.assoc Mp_millipage.Proto.Rc (Dsm.modes dsm) with Not_found -> 0);
    mc_ok = !ok;
  }

let fs_modes =
  Dsm.Config.Consistency.
    [ ("sc", sc); ("rc", rc); ("adaptive", adaptive) ]

let run_one ~hosts =
  let e = Engine.create () in
  let config =
    { Dsm.Config.default with net = { Dsm.Config.Net.default with seed = net_seed } }
  in
  let dsm = Dsm.create e ~hosts ~config () in
  let obs = Dsm.obs dsm in
  (* The profiler is a tap on [record]: it sees the full stream even after
     the ring wraps, so the default capacity keeps memory flat at 64 hosts. *)
  Mp_obs.Recorder.set_enabled obs true;
  let prof = Profile.attach obs in
  let t0 = Sys.time () in
  let h = Sor_m.setup dsm sor_params in
  Dsm.run dsm;
  let wall = Sys.time () -. t0 in
  let verified = Sor_m.verify h in
  Profile.detach obs;
  {
    r_hosts = hosts;
    r_end_us = Engine.now e;
    r_wall_s = wall;
    r_events = Profile.event_count prof;
    r_verified = verified;
    r_summary = Profile.summary prof;
    r_hosts_cost = Profile.hosts prof;
    r_fs =
      List.map (fun (name, c) -> (name, false_sharing_run ~hosts c)) fs_modes;
  }

let totals r =
  List.fold_left
    (fun (m, b) (_, c) -> (m + Profile.host_msgs c, b + Profile.host_bytes c))
    (0, 0) r.r_hosts_cost

let max_host_msgs r =
  List.fold_left (fun acc (_, c) -> max acc (Profile.host_msgs c)) 0 r.r_hosts_cost

(* The volatile (machine-speed) field sits on its own line so the --check
   drift diff can drop exactly that line and compare the rest verbatim. *)
let json_of_run b r =
  let msgs, bytes = totals r in
  Buffer.add_string b
    (Printf.sprintf
       "    { \"hosts\": %d, \"end_us\": %.1f, \"events\": %d,\n\
       \      \"verified\": %b, \"msgs\": %d, \"bytes\": %d,\n\
       \      \"wall_s\": %.3f,\n"
       r.r_hosts r.r_end_us r.r_events r.r_verified msgs bytes r.r_wall_s);
  Buffer.add_string b "      \"patterns\": { ";
  List.iteri
    (fun i (name, n) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%S: %d" name n))
    r.r_summary;
  Buffer.add_string b " },\n      \"false_sharing\": {\n";
  let nfs = List.length r.r_fs in
  List.iteri
    (fun i (name, c) ->
      Buffer.add_string b
        (Printf.sprintf
           "        %S: { \"msgs\": %d, \"bytes\": %d, \"switches\": %d, \
            \"rc_pages\": %d, \"verified\": %b }%s\n"
           name c.mc_msgs c.mc_bytes c.mc_switches c.mc_rc_pages c.mc_ok
           (if i = nfs - 1 then "" else ",")))
    r.r_fs;
  Buffer.add_string b "      },\n      \"per_host\": [\n";
  let n = List.length r.r_hosts_cost in
  List.iteri
    (fun i (h, (c : Profile.host_cost)) ->
      Buffer.add_string b
        (Printf.sprintf
           "        { \"host\": %d, \"msgs\": %d, \"bytes\": %d, \"data_msgs\": %d, \
            \"data_bytes\": %d, \"heartbeat_msgs\": %d, \"recovery_msgs\": %d, \
            \"control_msgs\": %d, \"retransmits\": %d, \"redirects\": %d }%s\n"
           h c.Profile.msgs c.Profile.bytes c.Profile.data_msgs c.Profile.data_bytes
           c.Profile.heartbeat_msgs c.Profile.recovery_msgs c.Profile.control_msgs
           c.Profile.retransmits c.Profile.redirects
           (if i = n - 1 then "" else ",")))
    r.r_hosts_cost;
  Buffer.add_string b "      ] }"

let render_json results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"bench\": \"scale\",\n  \"app\": \"sor\",\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"params\": { \"rows\": %d, \"cols\": %d, \"iterations\": %d },\n\
       \  \"net_seed\": %d,\n  \"runs\": [\n"
       sor_params.rows sor_params.cols sor_params.iterations net_seed);
  let n = List.length results in
  List.iteri
    (fun i r ->
      json_of_run b r;
      Buffer.add_string b (if i = n - 1 then "\n" else ",\n"))
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let run_hosts_of line =
  (* a run-opening line looks like: `    { "hosts": 16, "end_us": ...` *)
  if Harness.contains line "{ \"hosts\": " then
    Scanf.sscanf (String.trim line) "{ \"hosts\": %d," (fun h -> Some h)
  else None

(* The deterministic lines of a trajectory: every line except the
   machine-speed ones, keeping only runs for host counts <= [max_hosts] (so a
   capped CI sweep can still be diffed against the committed full
   baseline). *)
let deterministic ~max_hosts lines =
  let in_run line = String.length line >= 4 && String.sub line 0 4 = "    " in
  let keep = ref true in
  List.filter
    (fun line ->
      (match run_hosts_of line with
      | Some h -> keep := h <= max_hosts
      | None -> ());
      (* the host filter only governs run bodies (4-space indent); header and
         footer lines always participate so a capped sweep still closes *)
      (!keep || not (in_run line)) && not (Harness.contains line "\"wall_s\""))
    lines

let run ?(max_hosts = 64) ?(check = false) () =
  let host_counts = List.filter (fun h -> h <= max_hosts) host_counts in
  Harness.section
    (Printf.sprintf
       "Scale trajectory: SOR %dx%d, %d iterations, profiler attached, hosts up to %d"
       sor_params.rows sor_params.cols sor_params.iterations max_hosts);
  let results = List.map (fun hosts -> run_one ~hosts) host_counts in
  let fs r name = List.assoc name r.r_fs in
  let rows =
    List.map
      (fun r ->
        let msgs, bytes = totals r in
        [
          string_of_int r.r_hosts;
          Tab.fu r.r_end_us;
          Printf.sprintf "%.3f" r.r_wall_s;
          string_of_int r.r_events;
          string_of_int msgs;
          string_of_int bytes;
          string_of_int (max_host_msgs r);
          string_of_int (fs r "sc").mc_msgs;
          string_of_int (fs r "rc").mc_msgs;
          Printf.sprintf "%d (%d sw)" (fs r "adaptive").mc_msgs
            (fs r "adaptive").mc_switches;
          (if r.r_verified then "ok" else "FAIL");
        ])
      results
  in
  Tab.print
    ~header:
      [
        "hosts"; "sim time us"; "wall s"; "events"; "msgs"; "bytes";
        "max host msgs"; "fs sc"; "fs rc"; "fs adaptive"; "verified";
      ]
    rows;
  Harness.note
    "'events' counts the typed events the profiler streamed; 'max host msgs' \
     is the hottest host's message count — the gap to msgs/hosts measures \
     protocol skew.  The 'fs *' columns are message \
     counts of the falsely-shared synthetic under each consistency mode \
     ('sw' = mode switches the adaptive governor performed).";
  let largest = List.fold_left (fun acc r -> max acc r.r_hosts) 0 results in
  Harness.trajectory ~bench:"scale" ~check ~keep:(deterministic ~max_hosts:largest)
    (render_json results);
  if List.exists (fun r -> not r.r_verified) results then
    failwith "exp_scale: a run failed verification";
  List.iter
    (fun r ->
      if List.exists (fun (_, c) -> not c.mc_ok) r.r_fs then
        failwith "exp_scale: the false-sharing synthetic computed wrong values";
      (* the adaptive claim this bench exists to pin: on a write-shared
         workload the governor must end up cheaper than pure SC *)
      let sc = (fs r "sc").mc_msgs and ad = (fs r "adaptive").mc_msgs in
      if ad >= sc then
        failwith
          (Printf.sprintf
             "exp_scale: adaptive (%d msgs) did not beat sc (%d msgs) on the \
              falsely-shared synthetic at %d hosts"
             ad sc r.r_hosts))
    results
