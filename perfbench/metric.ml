(** Named, unit-carrying metrics and the result line the benchmark prints. *)

type t = { name : string; unit_ : string; value : float }

let v name unit_ value = { name; unit_; value }

(** The metrics a run reports, in order: [end_to_end] with tracing off,
    [per_layer] with tracing on.  Every workload reports every name; the
    layer metrics of a boundary a workload does not cross read 0 there (the
    dsm wrapper and the trace overhead on mc-racer, the schedule metrics on
    water-protocol).

    [wall_s] is printed by every untraced run but is not in [end_to_end]:
    on a shared host its run-to-run spread follows neighbour load, not the
    program.  The traced run reports it as [trace.untraced_wall_s], the base
    of [trace.overhead_ratio]. *)
let end_to_end =
  [ ("setup_s", "s"); ("alloc_mw", "Mw"); ("heap_peak_mb", "MB"); ("sim_us", "sim_us") ]

let per_layer =
  [
    ("dsm.access.calls", "count");
    ("dsm.access.hit_ns", "ns");
    ("dsm.access.hit_words", "words");
    ("dsm.access.block_ratio", "ratio");
    ("dsm.fault.sim_us_p50", "sim_us");
    ("dsm.fault.sim_us_tail", "sim_us");
    ("dsm.sync.sim_us_p50", "sim_us");
    ("dsm.read_faults", "count");
    ("dsm.write_faults", "count");
    ("dsm.messages", "count");
    ("dsm.run.ns_per_msg", "ns");
    ("dsm.create.ms.h4", "ms");
    ("dsm.create.words.h4", "words");
    ("dsm.create.ms.h8", "ms");
    ("dsm.create.words.h8", "words");
    ("memsim.vm_read_hit.ns", "ns");
    ("memsim.vm_read_hit.words", "words");
    ("memsim.vm_write_hit.ns", "ns");
    ("memsim.vm_write_hit.words", "words");
    ("memsim.memobject_create.ms", "ms");
    ("util.counter_incr.ns", "ns");
    ("util.counter_incr.words", "words");
    ("sim.event.ns", "ns");
    ("sim.event.words", "words");
    ("sim.callback.ns", "ns");
    ("sim.callback.words", "words");
    ("sim.suspend_resume.ns", "ns");
    ("net.send_deliver_32b.ns", "ns");
    ("net.send_deliver_32b.words", "words");
    ("net.send_deliver_4k.ns", "ns");
    ("net.send_deliver_4k.words", "words");
    ("millipage.directory_cycle.ns", "ns");
    ("millipage.directory_cycle.words", "words");
    ("millipage.twin_diff_4k.ns", "ns");
    ("millipage.twin_diff_4k.words", "words");
    ("multiview.mpt_find.ns", "ns");
    ("obs.record_on.ns", "ns");
    ("obs.record_on.words", "words");
    ("obs.record_off.ns", "ns");
    ("mc.schedule.choice_points", "count");
    ("mc.schedule.obs_events", "count");
    ("mc.create_share", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace.overhead_ratio", "ratio");
    ("trace.untraced_wall_s", "s");
  ]

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(** Order [ms] as [declared] and check that they match it name for name and
    unit for unit. *)
let conform declared ms =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) ms with
      | Some m when m.unit_ = unit_ && Float.is_finite m.value -> m
      | Some m when m.unit_ = unit_ -> failwith (Printf.sprintf "metric %s is %g" name m.value)
      | Some m -> failwith (Printf.sprintf "metric %s: unit %s, declared %s" name m.unit_ unit_)
      | None -> failwith ("metric not reported: " ^ name))
    declared
  |> fun out ->
  if List.length ms <> List.length declared then
    failwith
      (Printf.sprintf "%d metrics reported, %d declared" (List.length ms) (List.length declared));
  out

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed ms =
  let metric m =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (json_number m.value) m.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric ms))
