(** Uniform runner: execute one benchmark application on Millipage and
    collect everything the tables and figures need. *)

open Mp_sim
open Mp_millipage
open Mp_apps
module M = Mp_dsm.Millipage_impl
module Sor_m = Sor.Make (M)
module Is_m = Is.Make (M)
module Water_m = Water.Make (M)
module Lu_m = Lu.Make (M)
module Tsp_m = Tsp.Make (M)

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

let with_dsm ?polling ?chunking ?views ~name hosts f =
  let e, dsm = Harness.mk_dsm ?polling ?chunking ?views hosts in
  let verify = f dsm in
  Dsm.run dsm;
  Harness.obs_dump (Printf.sprintf "%s-%dh" name hosts) dsm;
  collect e dsm ~verified:(verify ())

let sor ?polling ?(p = Sor.default_params) hosts =
  with_dsm ?polling ~name:"sor" hosts (fun dsm ->
      let h = Sor_m.setup dsm p in
      fun () -> Sor_m.verify h)

let is ?polling ?(p = Is.default_params) hosts =
  with_dsm ?polling ~name:"is" hosts (fun dsm ->
      let h = Is_m.setup dsm p in
      fun () -> Is_m.verify ~hosts h)

let water ?polling ?chunking ?(p = Water.default_params) hosts =
  with_dsm ?polling ?chunking ~name:"water" hosts (fun dsm ->
      let h = Water_m.setup dsm p in
      fun () -> Water_m.verify h)

let lu ?polling ?(p = Lu.default_params) hosts =
  with_dsm ?polling ~views:4 ~name:"lu" hosts (fun dsm ->
      let h = Lu_m.setup dsm p in
      fun () -> Lu_m.verify h)

let tsp ?polling ?(p = Tsp.default_params) hosts =
  with_dsm ?polling ~name:"tsp" hosts (fun dsm ->
      let h = Tsp_m.setup dsm p in
      fun () -> Tsp_m.verify h)

let names = [ "SOR"; "LU"; "WATER"; "IS"; "TSP" ]

let by_name ?polling name hosts =
  match name with
  | "SOR" -> sor ?polling hosts
  | "IS" -> is ?polling hosts
  | "WATER" ->
    (* the paper's WATER numbers are with molecule chunking (§4.3/§4.4) *)
    water ?polling ~chunking:(Mp_multiview.Allocator.Fine 5) hosts
  | "LU" -> lu ?polling hosts
  | "TSP" -> tsp ?polling hosts
  | _ -> invalid_arg ("Apps_runner.by_name: " ^ name)
