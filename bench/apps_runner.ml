(** Uniform runner: execute one benchmark application on Millipage and
    collect everything the tables and figures need. *)

open Mp_sim
open Mp_millipage
open Mp_apps
module A = App.Make (Mp_dsm.Millipage_impl)

type outcome = {
  time_us : float;
  verified : bool;
  read_faults : int;
  write_faults : int;
  barriers_per_thread : int;
  locks_total : int;
  views : int;
  shared_bytes : int;
  messages : int;
  competing : int;
  breakdown : Breakdown.t;
}

let collect e dsm ~verified =
  {
    time_us = Engine.now e;
    verified;
    read_faults = Dsm.read_faults dsm;
    write_faults = Dsm.write_faults dsm;
    barriers_per_thread = (Dsm.stats dsm).barriers_entered / Dsm.hosts dsm;
    locks_total = (Dsm.stats dsm).locks_acquired;
    views = Dsm.views_used dsm;
    shared_bytes = Mp_multiview.Mpt.total_bytes (Dsm.mpt dsm);
    messages = Dsm.messages_sent dsm;
    competing = Dsm.competing_requests dsm;
    breakdown = Dsm.breakdown_total dsm;
  }

let run ?polling ?chunking ?views app hosts =
  let e, dsm = Harness.mk_dsm ?polling ?chunking ?views hosts in
  let verify = A.setup dsm app in
  Dsm.run dsm;
  collect e dsm ~verified:(verify ())

let names = [ "SOR"; "LU"; "WATER"; "IS"; "TSP" ]

let by_name ?polling name hosts =
  match App.of_name (String.lowercase_ascii name) with
  | App.Water _ as app ->
    (* the paper's WATER numbers are with molecule chunking (§4.3/§4.4) *)
    run ?polling ~chunking:(Mp_multiview.Allocator.Fine 5) app hosts
  | App.Lu _ as app -> run ?polling ~views:4 app hosts
  | app -> run ?polling app hosts
