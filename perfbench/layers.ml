(** Micro-loops over the public entry points of each layer.

    Each loop reports host ns per operation and words allocated per
    operation ({!Clock.words} deltas), as the median over {!reps}
    repetitions.  They do not depend on the workload, so every traced run
    reports all of them.  [Mmu] and [Tlb] serve only the Figure 5
    experiment and sit on no workload's path, so they are not measured. *)

open Mp_sim
module Vm = Mp_memsim.Vm
module Memobject = Mp_memsim.Memobject
module Minipage = Mp_multiview.Minipage
module Dsm = Mp_millipage.Dsm
module Directory = Mp_millipage.Directory
module Twin_diff = Mp_millipage.Twin_diff
module Fabric = Mp_net.Fabric
module Recorder = Mp_obs.Recorder

let reps = 5

(** [per_op f] runs [f] {!reps} times, each after [before] (untimed);
    [f ()] returns the number of operations it performed.  Median ns/op and
    words/op. *)
let per_op ?(before = ignore) f =
  let ns = Sample.create () and words = Sample.create () in
  for _ = 1 to reps do
    before ();
    let w0 = Clock.words () in
    let t0 = Clock.now_ns () in
    let ops = f () in
    let t1 = Clock.now_ns () in
    let w1 = Clock.words () in
    Sample.add ns (float_of_int (t1 - t0) /. float_of_int ops);
    Sample.add words ((w1 -. w0) /. float_of_int ops)
  done;
  (Sample.median ns, Sample.median words)

let ns_words prefix (ns, words) =
  [ Metric.v (prefix ^ ".ns") "ns" ns; Metric.v (prefix ^ ".words") "words" words ]

let dsm_create hosts =
  let ns, words =
    per_op ~before:Gc.full_major (fun () ->
        ignore (Sys.opaque_identity (Dsm.create (Engine.create ()) ~hosts ()));
        1)
  in
  let h = Printf.sprintf ".h%d" hosts in
  [
    Metric.v ("dsm.create.ms" ^ h) "ms" (ns *. 1e-6);
    Metric.v ("dsm.create.words" ^ h) "words" words;
  ]

let memsim () =
  let vm = Vm.create (Memobject.create ~size:(1 lsl 20) ()) in
  let view = Vm.map_view vm Mp_memsim.Prot.Read_write in
  let addr i = Vm.address vm ~view ((i land 4095) * 8) in
  let n = 200_000 in
  let read =
    per_op (fun () ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Vm.read_f64 vm (addr i)))
        done;
        n)
  in
  let write =
    per_op (fun () ->
        for i = 0 to n - 1 do
          Vm.write_f64 vm (addr i) 1.0
        done;
        n)
  in
  let create, _ =
    per_op ~before:Gc.full_major (fun () ->
        ignore (Sys.opaque_identity (Memobject.create ~size:(16 lsl 20) ()));
        1)
  in
  ns_words "memsim.vm_read_hit" read
  @ ns_words "memsim.vm_write_hit" write
  @ [ Metric.v "memsim.memobject_create.ms" "ms" (create *. 1e-6) ]

let util () =
  let c = Mp_util.Stats.Counters.create () in
  let n = 1_000_000 in
  ns_words "util.counter_incr"
    (per_op (fun () ->
         for _ = 1 to n do
           Mp_util.Stats.Counters.incr c "access.read"
         done;
         n))

let sim () =
  let n = 200_000 in
  let event =
    per_op (fun () ->
        let e = Engine.create () in
        Engine.spawn e (fun () ->
            for _ = 1 to n do
              Engine.delay 1.0
            done);
        Engine.run e;
        n)
  in
  let callback =
    per_op (fun () ->
        let e = Engine.create () in
        for i = 1 to n do
          Engine.schedule e ~at:(float_of_int i) ignore
        done;
        Engine.run e;
        n)
  in
  let suspend, _ =
    per_op (fun () ->
        let e = Engine.create () in
        Engine.spawn e (fun () ->
            for _ = 1 to n do
              Engine.suspend ~name:"bench" (fun resume -> resume ())
            done);
        Engine.run e;
        n)
  in
  ns_words "sim.event" event @ ns_words "sim.callback" callback
  @ [ Metric.v "sim.suspend_resume.ns" "ns" suspend ]

(* Batches of sends from host 0 to host 1 of a 2-host fabric, each batch
   delivered before the next: send, FIFO clamp, arrival, server drain and
   handler. *)
let net ~bytes =
  per_op (fun () ->
      let e = Engine.create () in
      let fab : unit Fabric.t = Fabric.create e ~hosts:2 () in
      let got = ref 0 in
      Fabric.set_handler fab ~host:0 ignore;
      Fabric.set_handler fab ~host:1 (fun _ -> incr got);
      let batches = 20 and batch = 1000 in
      Engine.spawn e (fun () ->
          for _ = 1 to batches do
            for _ = 1 to batch do
              Fabric.send fab ~src:0 ~dst:1 ~bytes ()
            done;
            Engine.delay 1e6
          done);
      Engine.run e;
      if !got <> batches * batch then failwith "net micro-loop: messages lost";
      !got)

let millipage () =
  let n = 50_000 in
  let cycle =
    per_op (fun () ->
        let d = Directory.create ~initial_owner:0 in
        for i = 0 to n - 1 do
          Directory.register d (Minipage.make ~id:i ~view:0 ~offset:(i * 64) ~length:64);
          ignore (Directory.note_request d ~req_id:i);
          let entry = Directory.entry d ~mp_id:i in
          Directory.enqueue d entry
            (Directory.Q_request
               { req_id = i; from = 1; access = Mp_millipage.Proto.Read; addr = i * 64 });
          ignore (Directory.dequeue d entry);
          Directory.mark_completed d ~req_id:i ~now:(float_of_int i)
        done;
        n)
  in
  let page = Bytes.make 4096 '\000' and target = Bytes.make 4096 '\000' in
  let m = 20_000 in
  let twin_diff =
    per_op (fun () ->
        for i = 0 to m - 1 do
          let twin = Twin_diff.twin page in
          Bytes.set page ((i * 97) land 4095) (Char.chr (i land 255));
          Bytes.set page (((i * 31) + 2048) land 4095) (Char.chr ((i + 1) land 255));
          Twin_diff.apply (Twin_diff.diff ~twin ~current:page) target
        done;
        m)
  in
  ns_words "millipage.directory_cycle" cycle @ ns_words "millipage.twin_diff_4k" twin_diff

let multiview () =
  let mpt = Mp_multiview.Mpt.create () in
  for i = 0 to 4095 do
    Mp_multiview.Mpt.add mpt (Minipage.make ~id:i ~view:(i land 3) ~offset:(i * 128) ~length:128)
  done;
  let n = 500_000 in
  let find, _ =
    per_op (fun () ->
        for i = 0 to n - 1 do
          let offset = (((i * 7919) land 4095) * 128) + 17 in
          ignore (Sys.opaque_identity (Mp_multiview.Mpt.find mpt offset))
        done;
        n)
  in
  [ Metric.v "multiview.mpt_find.ns" "ns" find ]

let obs () =
  let n = 200_000 in
  let r = Recorder.create ~capacity:(1 lsl 18) () in
  let loop () =
    Recorder.clear r;
    for i = 0 to n - 1 do
      Recorder.record r ~time:(float_of_int i) ~host:0
        (Mp_obs.Event.Fault_done { access = Mp_obs.Event.Read })
    done;
    n
  in
  Recorder.set_enabled r true;
  let on = per_op loop in
  Recorder.set_enabled r false;
  let off, _ = per_op loop in
  ns_words "obs.record_on" on @ [ Metric.v "obs.record_off.ns" "ns" off ]

let all () =
  dsm_create 4 @ dsm_create 8 @ memsim () @ util () @ sim ()
  @ ns_words "net.send_deliver_32b" (net ~bytes:32)
  @ ns_words "net.send_deliver_4k" (net ~bytes:4096)
  @ millipage () @ multiview () @ obs ()
