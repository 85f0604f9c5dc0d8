(** Shared plumbing for the paper-reproduction benches. *)

open Mp_sim
open Mp_millipage

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

let mk_dsm ?(polling = Mp_net.Polling.nt_mode) ?(views = 32)
    ?(object_size = 16 * 1024 * 1024) ?(chunking = Mp_multiview.Allocator.Fine 1)
    ?(seed = 1) ?(homes = Dsm.Config.Homes.default) hosts =
  let e = Engine.create () in
  let config =
    { Dsm.Config.default with polling; views; object_size; chunking; seed; homes }
  in
  (e, Dsm.create e ~hosts ~config ())

(* Run a one-shot probe inside a simulated thread and return the measured
   duration in µs. *)
let timed_probe (e : Engine.t) f =
  let out = ref nan in
  let wrap ctx =
    let t0 = Engine.now e in
    f ctx;
    out := Engine.now e -. t0
  in
  (wrap, out)

let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)

let dev ~paper ~ours =
  if paper = 0.0 then "-" else Printf.sprintf "%+.0f%%" (100.0 *. ((ours /. paper) -. 1.0))

(* ---------------- committed trajectories and their drift check --------- *)

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m > 0 && go 0

let rec strip_commas l =
  if String.ends_with ~suffix:"," l then strip_commas (String.sub l 0 (String.length l - 1))
  else l

(* [bench <bench>] writes its trajectory [json] to BENCH_<bench>.json in
   the working directory.  With [check] it compares instead: the lines [keep] retains of the committed file and of [json],
   trailing commas stripped (a run that [keep] drops can leave the last
   one kept without its separator), must be equal; each line that drifted
   is named before the check fails. *)
let trajectory ~bench ~check ~keep json =
  let file = "BENCH_" ^ bench ^ ".json" in
  if not check then begin
    Out_channel.with_open_bin file (fun oc -> output_string oc json);
    note "wrote %s" file
  end
  else begin
    let baseline =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error msg ->
        failwith
          (Printf.sprintf
             "bench %s --check: cannot read baseline %s (%s); run 'bench %s' once and \
              commit the file"
             bench file msg bench)
    in
    let signature text = List.map strip_commas (keep (String.split_on_char '\n' text)) in
    let want = signature baseline and got = signature json in
    if want = got then
      note "%s trajectory matches %s (%d deterministic lines)" bench file (List.length got)
    else begin
      let rec diff i = function
        | w :: ws, g :: gs ->
          if w = g then diff (i + 1) (ws, gs)
          else note "  line %d drifted:\n    baseline: %s\n    current:  %s" i w g
        | w :: _, [] -> note "  line %d missing from current run: %s" i w
        | [], g :: _ -> note "  line %d not in baseline: %s" i g
        | [], [] -> ()
      in
      diff 1 (want, got);
      failwith
        (Printf.sprintf
           "bench %s: trajectory drifted from %s; if the change is intentional, \
            regenerate it with 'bench %s' and commit the new baseline"
           bench file bench)
    end
  end
