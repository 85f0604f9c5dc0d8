(** Simulated results that a change to the simulator's own cost must leave
    untouched: one line per run, with its end time as a hex float (so
    sub-µs drift shows), its message and byte counts, its read and write
    faults, the words it allocated and its verdict.

    Allocation is as deterministic as simulated time, so each line also
    holds the exact words the run allocated, from building the DSM through
    verifying the result: its minor words and its direct major words (major
    less promoted, the blocks over 256 words made straight in the major
    heap).  These two columns depend on the compiler and the build profile.

    The runs are the [mprun] invocations the CI jobs make: every app at 8
    hosts on Millipage, WATER at 8 hosts on the three baselines, the four
    fault-soak runs and the WATER crash run, the last five traced and
    checked by the invariant checker as [--trace-out] does.  Each is built
    here the way [mprun] builds it from those flags.  A traced run's line
    ends with the MD5 of its event trace, serialized as [--trace-out]
    writes it, so a renamed label or a moved event shows too.

    [bench sims > test/golden/sims.txt] regenerates the golden after an
    intended change; [bench sims --check] names every run whose line moved
    and fails. *)

open Mp_sim
open Mp_apps
module Dsm = Mp_millipage.Dsm
module Recorder = Mp_obs.Recorder

let golden = "test/golden/sims.txt"

(* The MD5 of [events] as [mprun --trace-out] writes them.  The trace goes
   through a temporary file: the fault-soak WATER run records about a
   million events, too many to hold as one string. *)
let trace_digest events =
  let file = Filename.temp_file "sims" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Mp_obs.Export.write_jsonl file events;
      Digest.to_hex (Digest.file file))

type words = { minor : float; direct : float }

(* The words allocated so far.  [Gc.minor_words] is exact, and
   [Gc.counters] counts this domain's direct major words at once, where
   [Gc.quick_stat] counts them only after a major slice. *)
let words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  { minor; direct = major -. promoted }

module Line (D : Mp_dsm.Dsm_intf.S) = struct
  module A = App.Make (D)

  (* A traced run arms the recorder as [mprun --trace-out] does, and its
     verdict adds the invariant checker's, which the word counts leave out. *)
  let run ~name ?(traced = false) ?(degraded = fun _ -> false) create app =
    let w0 = words () in
    let t : D.t = create () in
    let obs = D.obs t in
    if traced then begin
      Recorder.set_capacity obs (1 lsl 22);
      Recorder.set_enabled obs true
    end;
    let verdict =
      match
        let verify = A.setup t app in
        D.run t;
        verify ()
      with
      | true -> "verified"
      | false -> if degraded t then "degraded" else "MISMATCH"
      | exception Dsm.Deadlock _ -> "deadlock"
      | exception Dsm.Crash_unrecoverable _ -> "unrecoverable"
    in
    let w1 = words () in
    let verdict =
      if not traced then verdict
      else
        let events = Recorder.events obs in
        let checked =
          if Recorder.dropped obs > 0 then "invariants-skipped"
          else
            match Mp_obs.Invariants.check events with
            | [] -> "invariants-ok"
            | v -> Printf.sprintf "invariants-%d" (List.length v)
        in
        Printf.sprintf "%s,%s trace=%s" verdict checked (trace_digest events)
    in
    Printf.sprintf "%s end_us=%h msgs=%d bytes=%d rf=%d wf=%d minor_w=%.0f direct_w=%.0f %s"
      name (Engine.now (D.engine t)) (D.messages_sent t) (D.bytes_sent t)
      (D.read_faults t) (D.write_faults t) (w1.minor -. w0.minor)
      (w1.direct -. w0.direct) verdict
end

module Millipage_line = Line (Mp_dsm.Millipage_impl)
module Ivy_line = Line (Mp_baselines.Ivy)
module Lrc_line = Line (Mp_baselines.Lrc)
module Mrc_line = Line (Mp_baselines.Mrc)

(* [mprun]'s Millipage configuration for its default flags, with the given
   faults, net seed, homes and crashes. *)
let millipage ~name ?(hosts = 8) ?(faults = Mp_net.Fabric.no_faults) ?(net_seed = 9)
    ?(homes = Dsm.Config.Homes.default) ?(crashes = []) app () =
  let config =
    {
      Dsm.Config.default with
      polling = Mp_net.Polling.nt_mode;
      chunking = Mp_multiview.Allocator.Fine 1;
      net = { Dsm.Config.Net.default with faults; seed = net_seed };
      ft =
        (if crashes = [] then None
         else Some { Dsm.Config.Ft.default with crashes; stalls = [] });
      homes;
      consistency = Dsm.Config.Consistency.sc;
    }
  in
  let traced = Mp_net.Fabric.faults_active faults || crashes <> [] in
  Millipage_line.run ~name ~traced
    ~degraded:(fun t -> Dsm.declared_dead t <> [])
    (fun () -> Dsm.create (Engine.create ()) ~hosts ~config ())
    (App.of_name app)

let soak app seed =
  let faults =
    { Mp_net.Fabric.no_faults with drop = 0.1; duplicate = 0.05; reorder = 0.1 }
  in
  millipage
    ~name:(Printf.sprintf "soak/%s/h4/seed%d" app seed)
    ~hosts:4 ~faults ~net_seed:seed app

let runs =
  List.map
    (fun app -> millipage ~name:("millipage/" ^ app ^ "/h8") app)
    App.names
  @ [
      (fun () ->
        Ivy_line.run ~name:"ivy/water/h8"
          (fun () ->
            Mp_baselines.Ivy.create (Engine.create ()) ~hosts:8
              ~polling:Mp_net.Polling.nt_mode ())
          (App.of_name "water"));
      (fun () ->
        Lrc_line.run ~name:"lrc/water/h8"
          (fun () ->
            Mp_baselines.Lrc.create (Engine.create ()) ~hosts:8
              ~polling:Mp_net.Polling.nt_mode ())
          (App.of_name "water"));
      (fun () ->
        Mrc_line.run ~name:"mrc/water/h8"
          (fun () ->
            Mp_baselines.Mrc.create (Engine.create ()) ~hosts:8
              ~chunking:(Mp_multiview.Allocator.Fine 1) ~polling:Mp_net.Polling.nt_mode ())
          (App.of_name "water"));
      soak "sor" 42;
      soak "lu" 42;
      soak "sor" 7;
      soak "water" 42;
      millipage ~name:"crash/water/h4/rr/3@2000000" ~hosts:4
        ~homes:{ Dsm.Config.Homes.default with policy = Dsm.Config.Homes.Round_robin }
        ~crashes:[ (3, 2000000.0) ] "water";
    ]

let name_of line =
  match String.index_opt line ' ' with Some i -> String.sub line 0 i | None -> line

let read_golden () =
  match open_in golden with
  | exception Sys_error msg ->
    failwith
      (Printf.sprintf "bench sims --check: cannot read %s (%s); run from the repo root"
         golden msg)
  | ic ->
    let rec lines acc =
      match input_line ic with
      | l -> lines (if String.trim l = "" then acc else l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    lines []

let run ?(check = false) () =
  let got = List.map (fun f -> f ()) runs in
  if not check then List.iter print_endline got
  else begin
    let want = read_golden () in
    let moved =
      List.filter_map
        (fun line ->
          let name = name_of line in
          match List.find_opt (fun w -> name_of w = name) want with
          | Some w when w = line -> None
          | Some w ->
            Printf.printf "moved: %s\n  golden:  %s\n  current: %s\n" name w line;
            Some name
          | None ->
            Printf.printf "moved: %s is not in %s\n  current: %s\n" name golden line;
            Some name)
        got
      @ List.filter_map
          (fun w ->
            let name = name_of w in
            if List.exists (fun l -> name_of l = name) got then None
            else begin
              Printf.printf "moved: %s is in %s but was not run\n" name golden;
              Some name
            end)
          want
    in
    if moved = [] then
      Printf.printf "sims: all %d runs match %s\n%!" (List.length got) golden
    else
      failwith
        (Printf.sprintf
           "bench sims: %d run(s) moved (%s); if the change is intended, \
            regenerate with 'bench sims > %s'"
           (List.length moved) (String.concat ", " moved) golden)
  end
