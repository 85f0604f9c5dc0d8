(** mprun — run one benchmark application on one DSM system.

    Examples:
    {v
    mprun --app sor --hosts 8
    mprun --app water --hosts 4 --chunking 5
    mprun --app is --system ivy --hosts 8 --polling fast
    mprun --app tsp --system lrc --hosts 4
    mprun --app sor --dsm millipage --hosts 4 --perfetto /tmp/t.json --metrics
    v} *)

let main o =
  let r = Mp_run.run o (Mp_run.setup o) in
  let b = Buffer.create 4096 in
  let code = Mp_run.report b o r in
  print_string (Buffer.contents b);
  code

let () =
  exit (Cmdliner.Cmd.eval' (Cmdliner.Cmd.v Mp_run.info Cmdliner.Term.(const main $ Mp_run.term)))
