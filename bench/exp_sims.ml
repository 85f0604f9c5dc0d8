(** Simulated results that a change to the simulator's own cost must leave
    untouched: one line per [mprun] command, starting with the command,
    with its end time as a hex float (so sub-µs drift shows), its message
    and byte counts, its read and write faults, the words it allocated,
    its verdict and the MD5 of the report [mprun] prints for it.

    Allocation is as deterministic as simulated time, so each line also
    holds the exact words the run allocated, from building the DSM through
    verifying the result: its minor words and its direct major words (major
    less promoted, the blocks over 256 words made straight in the major
    heap).  These two columns depend on the compiler and the build profile.

    The commands are the [mprun] runs CI relies on.  Each is parsed with
    [mprun]'s own term and run and reported with its own code
    ({!Mp_run}).  A run that injects network faults, crashes or stalls,
    arms crash-fault tolerance or shards its homes is traced as
    [--trace-out] traces it, and checked by the invariant checker; its line
    adds the MD5 of the trace, serialized as [--trace-out] writes it, so a
    renamed label or a moved event shows too.

    [bench sims > test/golden/sims.txt] regenerates the golden after an
    intended change; [bench sims --check] names every run whose line moved,
    prints the current report of each whose [stdout=] moved, and fails. *)

let golden = "test/golden/sims.txt"

let commands =
  List.map
    (fun app -> "--app " ^ app ^ " --hosts 8")
    Mp_apps.App.names
  @ List.map
      (fun sys -> "--system " ^ sys ^ " --app water --hosts 8")
      [ "ivy"; "lrc"; "mrc" ]
  @ List.map
      (fun (app, seed) ->
        Printf.sprintf "--app %s --hosts 4 --loss 0.1 --dup 0.05 --reorder 0.1 --net-seed %d"
          app seed)
      [ ("sor", 42); ("lu", 42); ("sor", 7); ("water", 42) ]
  @ [
      "--app water --hosts 4 --homes rr --crash 3@2000000";
      (* crash-fault tolerance *)
      "--app sor --hosts 4 --ft";
      "--app sor --hosts 4 --crash 3@279500";
      "--app sor --hosts 4 --ft --stall 2@200000+5000";
      "--app sor --hosts 4 --crash rand:0.5 --crash-seed 13 --crash-horizon 1500000";
      "--app sor --hosts 4 --homes rr --ft";
      "--app sor --hosts 4 --homes rr --crash 2@150000";
      "--app sor --hosts 4 --homes rr --crash 2@150000 --loss 0.02 --net-seed 42";
      "--app sor --hosts 4 --homes rr --crash rand:0.5 --crash-seed 13 --crash-horizon \
       1500000";
      "--app sor --hosts 4 --homes rr --ft --loss 0.05 --net-seed 1";
      (* sharded homes *)
      "--app water --hosts 8 --homes rr";
      "--app lu --hosts 8 --homes block --home-block 4";
      "--app sor --hosts 4 --homes ft";
      "--app sor --hosts 4 --homes rr --crash 2@150000 --loss 0.05 --net-seed 42";
      (* release and adaptive consistency *)
      "--app sor --hosts 4 --homes rr --consistency rc";
      "--app water --hosts 4 --homes rr --consistency rc";
      "--app tsp --hosts 4 --homes rr --consistency rc";
      "--app sor --hosts 4 --consistency adaptive --loss 0.02 --net-seed 42";
      "--app sor --hosts 4 --homes rr --consistency rc --crash 2@150000";
    ]
  @ List.concat_map
      (fun sys ->
        List.map
          (fun app -> Printf.sprintf "--system %s --app %s --hosts 8" sys app)
          [ "sor"; "is"; "lu"; "tsp" ])
      [ "lrc"; "mrc" ]

(* The commands whose runs are traced. *)
let traced (o : Mp_run.options) =
  o.loss > 0.0 || o.dup > 0.0 || o.reorder > 0.0 || o.crash <> [] || o.stall <> []
  || o.ft
  || snd o.homes <> Mp_millipage.Dsm.Config.Homes.Central

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

type result = { command : string; line : string; report : string }

let sim command =
  let o =
    match Mp_run.parse (String.split_on_char ' ' command) with
    | Ok o -> o
    | Error msg -> failwith (Printf.sprintf "bench sims: mprun %s: %s" command msg)
  in
  let setup = Mp_run.setup o in
  let trace = traced o in
  let w0 = words () in
  let r = Mp_run.run ~trace o setup in
  let w1 = words () in
  let report = Buffer.create 4096 in
  ignore (Mp_run.report report o r);
  let report = Buffer.contents report in
  let (Mp_run.Run { sys = (module S); dsm = t; outcome; _ }) = r in
  let verdict =
    match outcome with
    | Verified -> "verified"
    | Degraded -> "degraded"
    | Mismatch -> "MISMATCH"
    | Deadlock _ -> "deadlock"
    | Unrecoverable _ -> "unrecoverable"
  in
  (* The invariant checker's verdict, which the word counts leave out. *)
  let verdict =
    if not trace then verdict
    else
      let obs = S.obs t in
      let events = Mp_obs.Recorder.events obs in
      let checked =
        if Mp_obs.Recorder.dropped obs > 0 then "invariants-skipped"
        else
          match Mp_obs.Invariants.check events with
          | [] -> "invariants-ok"
          | v -> Printf.sprintf "invariants-%d" (List.length v)
      in
      Printf.sprintf "%s,%s trace=%s" verdict checked (trace_digest events)
  in
  let command = "mprun " ^ command in
  let line =
    Printf.sprintf
      "%s end_us=%h msgs=%d bytes=%d rf=%d wf=%d minor_w=%.0f direct_w=%.0f %s stdout=%s"
      command
      (Mp_sim.Engine.now (S.engine t))
      (S.messages_sent t) (S.bytes_sent t) (S.read_faults t) (S.write_faults t)
      (w1.minor -. w0.minor) (w1.direct -. w0.direct) verdict
      (Digest.to_hex (Digest.string report))
  in
  { command; line; report }

(* The index of the first [sub] in [s]. *)
let index s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* A line's command: everything before its first column. *)
let command_of line =
  match index line " end_us=" with
  | Some i -> String.sub line 0 i
  | None -> line

let column name line =
  List.find_map
    (fun w -> if String.starts_with ~prefix:(name ^ "=") w then Some w else None)
    (String.split_on_char ' ' line)

(* LRC and MRC are one twin/diff protocol over pages and over minipages,
   and LU's 4 KB blocks make the two grains coincide: their LU runs must
   agree in end time, faults, messages, bytes, diffs and twins. *)
let rc_agreement got =
  let find sys =
    List.find
      (fun r -> r.command = Printf.sprintf "mprun --system %s --app lu --hosts 8" sys)
      got
  in
  let compared r =
    List.map (fun c -> column c r.line) [ "end_us"; "msgs"; "bytes"; "rf"; "wf" ]
    @ List.map
        (fun l ->
          match index l ", views:" with
          | Some i -> Some (String.sub l 0 i)
          | None -> Some l)
        (List.filter
           (String.starts_with ~prefix:"diffs:")
           (String.split_on_char '\n' r.report))
  in
  let lrc = find "lrc" and mrc = find "mrc" in
  if compared lrc = compared mrc then []
  else begin
    Printf.printf "disagree: lrc and mrc on lu\n  %s\n  %s\n%s%s" lrc.line mrc.line
      lrc.report mrc.report;
    [ "lrc/mrc lu agreement" ]
  end

let read_golden () =
  match In_channel.with_open_text golden In_channel.input_all with
  | exception Sys_error msg ->
    failwith
      (Printf.sprintf "bench sims --check: cannot read %s (%s); run from the repo root"
         golden msg)
  | text -> List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)

let run ?(check = false) () =
  let got = List.map sim commands in
  if not check then List.iter (fun r -> print_endline r.line) got
  else begin
    let want = read_golden () in
    let moved =
      List.filter_map
        (fun r ->
          match List.find_opt (fun w -> command_of w = r.command) want with
          | Some w when w = r.line -> None
          | Some w ->
            Printf.printf "moved: %s\n  golden:  %s\n  current: %s\n" r.command w r.line;
            if column "stdout" w <> column "stdout" r.line then
              Printf.printf "  current report:\n%s" r.report;
            Some r.command
          | None ->
            Printf.printf "moved: %s is not in %s\n  current: %s\n" r.command golden r.line;
            Some r.command)
        got
      @ List.filter_map
          (fun w ->
            let command = command_of w in
            if List.exists (fun r -> r.command = command) got then None
            else begin
              Printf.printf "moved: %s is in %s but was not run\n" command golden;
              Some command
            end)
          want
      @ rc_agreement got
    in
    if moved = [] then
      Printf.printf "sims: all %d runs match %s\n%!" (List.length got) golden
    else
      failwith
        (Printf.sprintf
           "bench sims: %d run(s) moved (%s); if the change is intended, regenerate \
            with 'bench sims > %s'"
           (List.length moved) (String.concat ", " moved) golden)
  end
