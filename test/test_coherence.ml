(* The coherence checker itself, then random-program property tests that run
   generated workloads through the full Millipage protocol and verify
   per-location coherence of everything every host ever observed. *)

open Mp_sim
open Mp_millipage
open Mp_mc

(* ---------------- checker unit tests ---------------- *)

let coherence hist = Spec.coherence (Spec.entries hist)

let test_checker_accepts_valid () =
  let hist = Spec.hist () in
  Spec.record hist (Spec.Write { time = 1.0; host = 0; loc = 0; value = 10 });
  Spec.record hist (Spec.Read { time = 2.0; host = 1; loc = 0; value = 10 });
  Spec.record hist (Spec.Write { time = 3.0; host = 0; loc = 0; value = 20 });
  Spec.record hist (Spec.Read { time = 4.0; host = 1; loc = 0; value = 20 });
  Alcotest.(check (list string)) "no violations" [] (coherence hist)

let test_checker_accepts_initial_reads () =
  let hist = Spec.hist () in
  Spec.record hist (Spec.Read { time = 1.0; host = 2; loc = 5; value = 0 });
  Alcotest.(check (list string)) "initial ok" [] (coherence hist)

let test_checker_flags_stale_read () =
  let hist = Spec.hist () in
  Spec.record hist (Spec.Write { time = 1.0; host = 0; loc = 0; value = 10 });
  Spec.record hist (Spec.Write { time = 2.0; host = 0; loc = 0; value = 20 });
  Spec.record hist (Spec.Read { time = 3.0; host = 1; loc = 0; value = 20 });
  Spec.record hist (Spec.Read { time = 4.0; host = 1; loc = 0; value = 10 });
  Alcotest.(check bool) "stale read flagged" true (coherence hist <> [])

let test_checker_flags_phantom_value () =
  let hist = Spec.hist () in
  Spec.record hist (Spec.Read { time = 1.0; host = 1; loc = 3; value = 77 });
  Alcotest.(check bool) "phantom flagged" true (coherence hist <> [])

let test_checker_independent_locations () =
  let hist = Spec.hist () in
  Spec.record hist (Spec.Write { time = 1.0; host = 0; loc = 0; value = 1 });
  Spec.record hist (Spec.Write { time = 2.0; host = 0; loc = 1; value = 2 });
  (* observing loc 1's newer write then loc 0's older one is fine *)
  Spec.record hist (Spec.Read { time = 3.0; host = 1; loc = 1; value = 2 });
  Spec.record hist (Spec.Read { time = 4.0; host = 1; loc = 0; value = 1 });
  Alcotest.(check (list string)) "no cross-location coupling" [] (coherence hist)

(* ---------------- random programs on millipage ---------------- *)

(* Each host runs a random sequence of reads/writes/computes over a few
   shared locations; every observation is logged and checked.  Writes are
   serialized per location through a lock so write values stay a valid
   total order; reads run completely unsynchronized. *)
let run_random_program ?(polling = Mp_net.Polling.Fast) ~seed ~hosts ~locs ~ops_per_host
    ~chunking () =
  let rng = Mp_util.Prng.create ~seed in
  let e = Engine.create () in
  let config = { Dsm.Config.default with polling; chunking } in
  let dsm = Dsm.create e ~hosts ~config () in
  let addrs = Dsm.malloc_array dsm ~count:locs ~size:64 in
  Array.iter (fun a -> Dsm.init_write_int dsm a 0) addrs;
  let hist = Spec.hist () in
  let plans =
    Array.init hosts (fun _ ->
        Array.init ops_per_host (fun _ ->
            let loc = Mp_util.Prng.int rng locs in
            match Mp_util.Prng.int rng 3 with
            | 0 -> `Write loc
            | 1 -> `Read loc
            | _ -> `Compute (float_of_int (10 + Mp_util.Prng.int rng 200))))
  in
  for h = 0 to hosts - 1 do
    Dsm.spawn dsm ~host:h (fun ctx ->
        Array.iter
          (fun step ->
            match step with
            | `Write loc ->
              Dsm.lock ctx loc;
              let v = Spec.fresh_value hist in
              Dsm.write_int ctx addrs.(loc) v;
              Spec.record hist
                (Spec.Write { time = Engine.now e; host = h; loc; value = v });
              Dsm.unlock ctx loc
            | `Read loc ->
              let v = Dsm.read_int ctx addrs.(loc) in
              Spec.record hist
                (Spec.Read { time = Engine.now e; host = h; loc; value = v })
            | `Compute us -> Dsm.compute ctx us)
          plans.(h))
  done;
  Dsm.run dsm;
  coherence hist

let qcheck_millipage_coherent =
  QCheck.Test.make ~name:"random programs are coherent on millipage" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      run_random_program ~seed ~hosts:4 ~locs:6 ~ops_per_host:30
        ~chunking:(Mp_multiview.Allocator.Fine 1) ()
      = [])

let qcheck_millipage_coherent_chunked =
  QCheck.Test.make ~name:"random programs are coherent under chunking" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      run_random_program ~seed ~hosts:4 ~locs:6 ~ops_per_host:25
        ~chunking:(Mp_multiview.Allocator.Fine 3) ()
      = [])

let qcheck_millipage_coherent_page_grain =
  QCheck.Test.make ~name:"random programs are coherent at page grain" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      run_random_program ~seed ~hosts:3 ~locs:6 ~ops_per_host:25
        ~chunking:Mp_multiview.Allocator.Page_grain ()
      = [])

let qcheck_millipage_coherent_nt_polling =
  QCheck.Test.make ~name:"random programs coherent under NT-jittered polling" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      run_random_program ~polling:Mp_net.Polling.nt_mode ~seed ~hosts:3 ~locs:5
        ~ops_per_host:20 ~chunking:(Mp_multiview.Allocator.Fine 2) ()
      = [])

let suite =
  [
    Alcotest.test_case "checker accepts valid" `Quick test_checker_accepts_valid;
    Alcotest.test_case "checker accepts initial" `Quick test_checker_accepts_initial_reads;
    Alcotest.test_case "checker flags stale" `Quick test_checker_flags_stale_read;
    Alcotest.test_case "checker flags phantom" `Quick test_checker_flags_phantom_value;
    Alcotest.test_case "checker per-location" `Quick test_checker_independent_locations;
    QCheck_alcotest.to_alcotest qcheck_millipage_coherent;
    QCheck_alcotest.to_alcotest qcheck_millipage_coherent_chunked;
    QCheck_alcotest.to_alcotest qcheck_millipage_coherent_page_grain;
    QCheck_alcotest.to_alcotest qcheck_millipage_coherent_nt_polling;
  ]
