(** Fault-injection soak: SOR under injected network faults across host
    counts and fault-rate mixes.  Exercises the sequence-numbered ARQ
    transport end to end: every row reports whether the run still verified
    against the sequential reference and whether the trace invariant checker
    (exactly-once fault completion, single writer) stayed clean. *)

open Mp_sim
open Mp_millipage
module M = Mp_dsm.Millipage_impl
module Sor_m = Mp_apps.Sor.Make (M)
module Tab = Mp_util.Tab

(* Scaled-down SOR: boundary sharing per iteration is independent of [rows],
   so the protocol traffic mix matches the full input while each cell of the
   sweep stays sub-second. *)
let sor_params = { Mp_apps.Sor.default_params with rows = 128; iterations = 5 }

let host_counts = [ 2; 4; 8 ]
let net_seed = 42

let mixes =
  let nf = Mp_net.Fabric.no_faults in
  [
    ("fault-free", nf);
    ("loss 5%", { nf with drop = 0.05 });
    ("dup 5%", { nf with duplicate = 0.05 });
    ("reorder 20%", { nf with reorder = 0.2 });
    ("loss10 dup5 reo10", { nf with drop = 0.1; duplicate = 0.05; reorder = 0.1 });
  ]

let run_one ~hosts ~faults =
  let e = Engine.create () in
  let config =
    { Dsm.Config.default with net = { Dsm.Config.Net.default with faults; seed = net_seed } }
  in
  let dsm = Dsm.create e ~hosts ~config () in
  let obs = Dsm.obs dsm in
  Mp_obs.Recorder.set_capacity obs (1 lsl 21);
  Mp_obs.Recorder.set_enabled obs true;
  let h = Sor_m.setup dsm sor_params in
  Dsm.run dsm;
  let verified = Sor_m.verify h in
  let violations =
    if Mp_obs.Recorder.dropped obs > 0 then [ "(event ring overflow)" ]
    else Mp_obs.Invariants.check (Mp_obs.Recorder.events obs)
  in
  (e, dsm, verified, violations)

let run () =
  Harness.section
    (Printf.sprintf "Fault-injection soak: SOR %dx%d, %d iterations, seed %d"
       sor_params.rows sor_params.cols sor_params.iterations net_seed);
  let all_clean = ref true in
  let rows =
    List.concat_map
      (fun (label, faults) ->
        List.map
          (fun hosts ->
            let e, dsm, verified, violations = run_one ~hosts ~faults in
            let ok = verified && violations = [] in
            if not ok then all_clean := false;
            List.iter
              (fun v -> Harness.note "  VIOLATION (%s, %dh): %s" label hosts v)
              violations;
            [
              label;
              string_of_int hosts;
              Tab.fu (Engine.now e);
              string_of_int (Dsm.messages_sent dsm);
              string_of_int (Dsm.net_dropped dsm);
              string_of_int (Dsm.net_duplicated dsm);
              string_of_int (Dsm.net_reordered dsm);
              string_of_int (Dsm.stats dsm).retransmits;
              string_of_int (Dsm.stats dsm).dups_suppressed;
              (if ok then "ok" else "FAIL");
            ])
          host_counts)
      mixes
  in
  Tab.print
    ~header:
      [
        "faults"; "hosts"; "time us"; "msgs"; "dropped"; "dup'd"; "reord";
        "retx"; "dedup"; "clean";
      ]
    rows;
  Harness.note
    "every run must verify against the sequential reference with zero invariant \
     violations; 'retx' counts ARQ retransmissions, 'dedup' receiver-suppressed \
     duplicates.";
  if not !all_clean then failwith "exp_soak: a faulted run failed verification"
