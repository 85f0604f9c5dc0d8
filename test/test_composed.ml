(* Composed views (§5): group registration, batched fetch, interaction with
   in-flight operations and subsequent writes. *)

open Mp_sim
open Mp_millipage
open Fixture

let test_group_fetch_brings_all_members () =
  let n = 20 in
  let sum = ref 0.0 in
  let dsm =
    scenario (fun dsm ->
        let addrs = Dsm.malloc_array dsm ~count:n ~size:128 in
        Array.iteri (fun i a -> Dsm.init_write_f64 dsm a (float_of_int i)) addrs;
        let g = Dsm.compose dsm addrs in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.fetch_group ctx g;
            sum := 0.0;
            Array.iter (fun a -> sum := !sum +. Dsm.read_f64 ctx a) addrs))
  in
  Alcotest.(check (float 0.0)) "all values" (float_of_int (n * (n - 1) / 2)) !sum;
  Alcotest.(check int) "no individual faults" 0 (Dsm.read_faults dsm);
  Alcotest.(check int) "one group fetch" 1
    (Dsm.stats dsm).groups_fetched

let test_group_fetch_is_batched () =
  (* fetching n minipages in one group costs far fewer messages than n
     individual faults would *)
  let n = 16 in
  let grouped =
    let dsm =
      scenario (fun dsm ->
          let addrs = Dsm.malloc_array dsm ~count:n ~size:128 in
          let g = Dsm.compose dsm addrs in
          Dsm.spawn dsm ~host:1 (fun ctx -> Dsm.fetch_group ctx g))
    in
    Dsm.messages_sent dsm
  in
  let individual =
    let dsm =
      scenario (fun dsm ->
          let addrs = Dsm.malloc_array dsm ~count:n ~size:128 in
          Dsm.spawn dsm ~host:1 (fun ctx ->
              Array.iter (fun a -> ignore (Dsm.read_f64 ctx a)) addrs))
    in
    Dsm.messages_sent dsm
  in
  Alcotest.(check bool)
    (Printf.sprintf "grouped (%d) < half of individual (%d)" grouped individual)
    true
    (grouped * 2 < individual)

let test_group_fetch_skips_held_members () =
  let dsm =
    scenario (fun dsm ->
        let addrs = Dsm.malloc_array dsm ~count:4 ~size:64 in
        let g = Dsm.compose dsm addrs in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            ignore (Dsm.read_f64 ctx addrs.(0));
            (* second fetch: member 0 is already held, others fetched *)
            Dsm.fetch_group ctx g;
            Array.iter (fun a -> ignore (Dsm.read_f64 ctx a)) addrs;
            (* third fetch: everything held, nothing to do *)
            Dsm.fetch_group ctx g))
  in
  Alcotest.(check int) "only the demand fault" 1 (Dsm.read_faults dsm)

let test_group_members_writable_after_fetch () =
  (* fetch gives read copies; writes upgrade normally afterwards *)
  let v = ref 0.0 in
  let _dsm =
    scenario ~hosts:3 (fun dsm ->
        let addrs = Dsm.malloc_array dsm ~count:4 ~size:64 in
        let g = Dsm.compose dsm addrs in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.fetch_group ctx g;
            Dsm.write_f64 ctx addrs.(2) 8.0;
            Dsm.barrier ctx);
        Dsm.spawn dsm ~host:2 (fun ctx ->
            Dsm.barrier ctx;
            v := Dsm.read_f64 ctx addrs.(2)))
  in
  Alcotest.(check (float 0.0)) "write visible" 8.0 !v

let test_group_fetch_sequentially_consistent () =
  (* a write completing before the fetch is always visible through it *)
  let v = ref 0.0 in
  let _dsm =
    scenario ~hosts:3 (fun dsm ->
        let addrs = Dsm.malloc_array dsm ~count:8 ~size:64 in
        let g = Dsm.compose dsm addrs in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.write_f64 ctx addrs.(5) 3.5;
            Dsm.barrier ctx);
        Dsm.spawn dsm ~host:2 (fun ctx ->
            Dsm.barrier ctx;
            Dsm.fetch_group ctx g;
            v := Dsm.read_f64 ctx addrs.(5)))
  in
  Alcotest.(check (float 0.0)) "fetch sees committed write" 3.5 !v

let test_group_fetch_two_hosts_concurrently () =
  let s1 = ref 0.0 and s2 = ref 0.0 in
  let n = 10 in
  let _dsm =
    scenario ~hosts:3 (fun dsm ->
        let addrs = Dsm.malloc_array dsm ~count:n ~size:64 in
        Array.iteri (fun i a -> Dsm.init_write_f64 dsm a (float_of_int (i + 1))) addrs;
        let g = Dsm.compose dsm addrs in
        let reader host target =
          Dsm.spawn dsm ~host (fun ctx ->
              Dsm.fetch_group ctx g;
              target := 0.0;
              Array.iter (fun a -> target := !target +. Dsm.read_f64 ctx a) addrs)
        in
        reader 1 s1;
        reader 2 s2)
  in
  let expect = float_of_int (n * (n + 1) / 2) in
  Alcotest.(check (float 0.0)) "host1 sum" expect !s1;
  Alcotest.(check (float 0.0)) "host2 sum" expect !s2

let test_compose_dedupes_chunked_members () =
  (* addresses of four allocations aggregated into one chunk: the group has
     one member, fetched once *)
  let config = { fast_config with chunking = Mp_multiview.Allocator.Fine 4 } in
  let dsm =
    scenario ~config (fun dsm ->
        let addrs = Dsm.malloc_array dsm ~count:4 ~size:100 in
        let g = Dsm.compose dsm addrs in
        Dsm.spawn dsm ~host:1 (fun ctx ->
            Dsm.fetch_group ctx g;
            Array.iter (fun a -> ignore (Dsm.read_f64 ctx a)) addrs))
  in
  Alcotest.(check int) "no faults" 0 (Dsm.read_faults dsm);
  (* one fetch round: GROUP_FETCH + GROUP_PLAN + FORWARD_GROUP + GROUP_DATA
     + GROUP_ACK — five messages, not one per allocation *)
  Alcotest.(check bool) "handful of messages" true (Dsm.messages_sent dsm <= 6)

let test_trace_records_protocol () =
  let module Obs = Mp_obs.Recorder in
  let module Event = Mp_obs.Event in
  let e = Engine.create () in
  let dsm = Dsm.create e ~hosts:2 ~config:fast_config () in
  Obs.set_enabled (Dsm.obs dsm) true;
  let x = Dsm.malloc dsm 64 in
  Dsm.spawn dsm ~host:1 (fun ctx -> ignore (Dsm.read_f64 ctx x));
  Dsm.run dsm;
  let tr = Dsm.obs dsm in
  let find kind =
    List.filter
      (fun (e : Event.t) -> Event.kind_name e.kind = kind)
      (Obs.events tr)
  in
  Alcotest.(check bool) "fault recorded" true (List.length (find "FAULT") = 1);
  Alcotest.(check bool) "messages recorded" true (List.length (find "RECV") >= 4);
  Alcotest.(check int) "nothing dropped" 0 (Obs.dropped tr)

let test_trace_ring_buffer () =
  let module Obs = Mp_obs.Recorder in
  let module Event = Mp_obs.Event in
  let tr = Obs.create ~capacity:4 () in
  Obs.set_enabled tr true;
  for i = 1 to 10 do
    Obs.record tr ~time:(float_of_int i) ~host:0
      (Mp_obs.Event.Mark { kind = "K"; detail = string_of_int i })
  done;
  let evs = Obs.events tr in
  Alcotest.(check int) "capacity bound" 4 (List.length evs);
  Alcotest.(check int) "dropped count" 6 (Obs.dropped tr);
  Alcotest.(check string) "oldest kept" "7"
    (Event.detail (List.hd evs).Event.kind)

let suite =
  [
    Alcotest.test_case "group fetch brings members" `Quick test_group_fetch_brings_all_members;
    Alcotest.test_case "group fetch is batched" `Quick test_group_fetch_is_batched;
    Alcotest.test_case "group fetch skips held" `Quick test_group_fetch_skips_held_members;
    Alcotest.test_case "members writable after fetch" `Quick
      test_group_members_writable_after_fetch;
    Alcotest.test_case "fetch sequentially consistent" `Quick
      test_group_fetch_sequentially_consistent;
    Alcotest.test_case "concurrent group fetches" `Quick
      test_group_fetch_two_hosts_concurrently;
    Alcotest.test_case "compose dedupes chunks" `Quick test_compose_dedupes_chunked_members;
    Alcotest.test_case "trace records protocol" `Quick test_trace_records_protocol;
    Alcotest.test_case "trace ring buffer" `Quick test_trace_ring_buffer;
  ]
